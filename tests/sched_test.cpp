// Unit tests for the work-stealing layer (support/sched/): Chase-Lev deque
// semantics (owner LIFO, thief FIFO, growth, concurrent stealing) and the
// WorkStealingScheduler (task completion, spawn, stats, steal policies,
// exception propagation). The TSan CI tier runs these too — the deque's
// memory orders are exactly what it exists to check.
//
// Flakiness audit notes: every assertion here is schedule-independent by
// design — worker counts are explicit (run() honours opts.threads without
// clamping to hardware threads), the random steal policy draws from a
// per-worker deterministically seeded RNG, and the concurrent-deque test
// checks a checksum rather than any particular interleaving. Keep it that
// way: no assertion may depend on which worker ran a task or how long a
// task took.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/sched/chase_lev.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {
namespace {

TEST(ChaseLevDeque, OwnerPopsLifo) {
  ChaseLevDeque<int> d;
  d.push(1);
  d.push(2);
  d.push(3);
  int v = 0;
  EXPECT_TRUE(d.pop(v));
  EXPECT_EQ(v, 3);
  EXPECT_TRUE(d.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(d.pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(d.pop(v));
}

TEST(ChaseLevDeque, ThiefStealsFifo) {
  ChaseLevDeque<int> d;
  d.push(1);
  d.push(2);
  d.push(3);
  int v = 0;
  EXPECT_TRUE(d.steal(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(d.steal(v));
  EXPECT_EQ(v, 2);
  // Owner takes the last element from the other end.
  EXPECT_TRUE(d.pop(v));
  EXPECT_EQ(v, 3);
  EXPECT_FALSE(d.steal(v));
  EXPECT_TRUE(d.empty());
}

TEST(ChaseLevDeque, GrowsPastInitialCapacity) {
  ChaseLevDeque<int> d;
  constexpr int kCount = 10000;  // far past the initial ring
  for (int i = 0; i < kCount; ++i) d.push(i);
  EXPECT_EQ(d.size_estimate(), static_cast<std::size_t>(kCount));
  for (int i = kCount - 1; i >= 0; --i) {
    int v = -1;
    ASSERT_TRUE(d.pop(v));
    EXPECT_EQ(v, i);
  }
}

// Owner pushes and pops while several thieves hammer steal(): every element
// is consumed exactly once. The checksum (sum over consumed values) catches
// duplicated and lost elements alike.
TEST(ChaseLevDeque, ConcurrentStealsConsumeEachElementOnce) {
  constexpr int kItems = 20000;
  constexpr int kThieves = 3;
  ChaseLevDeque<int> d;
  std::atomic<long long> stolen_sum{0};
  std::atomic<int> stolen_count{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      int v = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (d.steal(v)) {
          stolen_sum.fetch_add(v, std::memory_order_relaxed);
          stolen_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Drain whatever is left after the owner stopped.
      while (d.steal(v)) {
        stolen_sum.fetch_add(v, std::memory_order_relaxed);
        stolen_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  long long own_sum = 0;
  int own_count = 0;
  int v = 0;
  for (int i = 1; i <= kItems; ++i) {
    d.push(i);
    if (i % 3 == 0 && d.pop(v)) {
      own_sum += v;
      ++own_count;
    }
  }
  while (d.pop(v)) {
    own_sum += v;
    ++own_count;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : thieves) t.join();

  const long long expected =
      static_cast<long long>(kItems) * (kItems + 1) / 2;
  EXPECT_EQ(own_count + stolen_count.load(), kItems);
  EXPECT_EQ(own_sum + stolen_sum.load(), expected);
  EXPECT_TRUE(d.empty());
}

TEST(StealPolicy, NamesRoundTrip) {
  EXPECT_EQ(steal_policy_from_name("random"), StealPolicy::kRandom);
  EXPECT_EQ(steal_policy_from_name("sequential"), StealPolicy::kSequential);
  EXPECT_EQ(steal_policy_name(StealPolicy::kRandom), "random");
  EXPECT_EQ(steal_policy_name(StealPolicy::kSequential), "sequential");
  EXPECT_THROW(steal_policy_from_name("bogus"), OptionError);
}

TEST(WorkStealingScheduler, RunsEveryTaskExactlyOnce) {
  for (int workers : {1, 2, 4}) {
    SchedulerOptions opts;
    opts.threads = workers;
    WorkStealingScheduler sched(opts);
    ASSERT_EQ(sched.num_workers(), workers);

    constexpr int kTasks = 64;
    std::vector<std::atomic<int>> hits(kTasks);
    std::vector<WorkStealingScheduler::Task> tasks;
    for (int i = 0; i < kTasks; ++i) {
      tasks.push_back([&hits, i](int worker) {
        EXPECT_GE(worker, 0);
        hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                    std::memory_order_relaxed);
      });
    }
    const SchedulerStats stats = sched.run(std::move(tasks));
    EXPECT_EQ(stats.tasks, static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(stats.workers, workers);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(WorkStealingScheduler, SpawnedSubtasksComplete) {
  SchedulerOptions opts;
  opts.threads = 2;
  WorkStealingScheduler sched(opts);
  std::atomic<int> executed{0};
  std::vector<WorkStealingScheduler::Task> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&](int worker) {
      executed.fetch_add(1, std::memory_order_relaxed);
      for (int j = 0; j < 8; ++j) {
        sched.spawn(worker, [&](int) {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  const SchedulerStats stats = sched.run(std::move(tasks));
  EXPECT_EQ(executed.load(), 4 + 4 * 8);
  EXPECT_EQ(stats.tasks, 4u + 4u * 8u);
}

TEST(WorkStealingScheduler, BothStealPoliciesDrainSkewedLoad) {
  for (StealPolicy policy : {StealPolicy::kRandom, StealPolicy::kSequential}) {
    SchedulerOptions opts;
    opts.threads = 4;
    opts.steal_policy = policy;
    WorkStealingScheduler sched(opts);
    std::atomic<long long> sum{0};
    std::vector<WorkStealingScheduler::Task> tasks;
    // Skew: one heavy task plus many light ones, so idle workers must steal.
    for (int i = 1; i <= 200; ++i) {
      tasks.push_back([&sum, i](int) {
        long long local = 0;
        const int spins = (i == 1) ? 200000 : 100;
        for (int j = 0; j < spins; ++j) local += j % 7;
        sum.fetch_add(i + local * 0, std::memory_order_relaxed);
      });
    }
    const SchedulerStats stats = sched.run(std::move(tasks));
    EXPECT_EQ(sum.load(), 200LL * 201 / 2) << steal_policy_name(policy);
    EXPECT_EQ(stats.tasks, 200u);
  }
}

TEST(WorkStealingScheduler, FirstTaskExceptionIsRethrownAfterDraining) {
  SchedulerOptions opts;
  opts.threads = 2;
  WorkStealingScheduler sched(opts);
  std::atomic<int> executed{0};
  std::vector<WorkStealingScheduler::Task> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&executed, i](int) {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (i == 3) throw Error("task 3 failed");
    });
  }
  EXPECT_THROW(sched.run(std::move(tasks)), Error);
  // The failure does not cancel the rest of the run.
  EXPECT_EQ(executed.load(), 16);
}

TEST(WorkStealingScheduler, DefaultsToHardwareThreadCount) {
  WorkStealingScheduler sched;  // threads = 0
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(sched.num_workers(), std::max(1, hw));
  const SchedulerStats stats = sched.run({});
  EXPECT_EQ(stats.tasks, 0u);
}

TEST(WorkStealingScheduler, SlotSpaceCoversExternalParticipants) {
  SchedulerOptions opts;
  opts.threads = 3;
  WorkStealingScheduler sched(opts);
  // Pool workers plus at least a few participant slots for caller threads.
  EXPECT_GE(sched.num_slots(), sched.num_workers());
}

// The reentrancy guarantee the service relies on: several caller threads
// drive run() on the SAME scheduler at once, each with its own task set and
// its own join group. Every task of every group executes exactly once and
// each run() returns its own group's count.
TEST(WorkStealingScheduler, ConcurrentRunsFromDifferentThreadsAllComplete) {
  SchedulerOptions opts;
  opts.threads = 2;
  WorkStealingScheduler sched(opts);

  constexpr int kCallers = 4;
  constexpr int kTasksPerCaller = 48;
  std::vector<std::atomic<int>> hits(kCallers * kTasksPerCaller);
  std::atomic<int> failures{0};

  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&sched, &hits, &failures, c] {
      std::vector<WorkStealingScheduler::Task> tasks;
      for (int i = 0; i < kTasksPerCaller; ++i) {
        const int id = c * kTasksPerCaller + i;
        tasks.push_back([&hits, id](int) {
          hits[static_cast<std::size_t>(id)].fetch_add(
              1, std::memory_order_relaxed);
        });
      }
      const SchedulerStats stats = sched.run(std::move(tasks));
      if (stats.tasks != static_cast<std::uint64_t>(kTasksPerCaller)) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : callers) t.join();

  EXPECT_EQ(failures.load(), 0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// parallel_for from several external threads at once, each summing its own
// disjoint accumulator array: every index processed exactly once per caller.
TEST(WorkStealingScheduler, ConcurrentParallelForsCoverTheirRanges) {
  SchedulerOptions opts;
  opts.threads = 2;
  WorkStealingScheduler sched(opts);

  constexpr int kCallers = 3;
  constexpr std::int64_t kN = 10000;
  std::vector<std::vector<std::atomic<int>>> counts(kCallers);
  for (auto& c : counts) {
    c = std::vector<std::atomic<int>>(static_cast<std::size_t>(kN));
  }

  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&sched, &counts, c] {
      sched.parallel_for(0, kN, 64,
                         [&counts, c](std::int64_t lo, std::int64_t hi, int) {
                           for (std::int64_t i = lo; i < hi; ++i) {
                             counts[static_cast<std::size_t>(c)]
                                   [static_cast<std::size_t>(i)]
                                       .fetch_add(1, std::memory_order_relaxed);
                           }
                         });
    });
  }
  for (std::thread& t : callers) t.join();

  for (const auto& caller : counts) {
    for (const auto& h : caller) ASSERT_EQ(h.load(), 1);
  }
}

// A task body opens a nested parallel_for (the shape of APGRE's dedicated
// sub-graph tasks): the loop completes from inside the task, slot ids stay
// in [0, num_slots()), and every element is visited exactly once.
TEST(WorkStealingScheduler, NestedParallelForInsideTasksCompletes) {
  SchedulerOptions opts;
  opts.threads = 2;
  WorkStealingScheduler sched(opts);

  constexpr int kTasks = 6;
  constexpr std::int64_t kN = 4000;
  std::vector<std::vector<std::atomic<int>>> counts(kTasks);
  for (auto& c : counts) {
    c = std::vector<std::atomic<int>>(static_cast<std::size_t>(kN));
  }
  std::atomic<int> bad_slots{0};
  const int slots = sched.num_slots();

  std::vector<WorkStealingScheduler::Task> tasks;
  for (int t = 0; t < kTasks; ++t) {
    tasks.push_back([&sched, &counts, &bad_slots, slots, t](int) {
      sched.parallel_for(
          0, kN, 128,
          [&counts, &bad_slots, slots, t](std::int64_t lo, std::int64_t hi,
                                          int slot) {
            if (slot < 0 || slot >= slots) {
              bad_slots.fetch_add(1, std::memory_order_relaxed);
            }
            for (std::int64_t i = lo; i < hi; ++i) {
              counts[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]
                  .fetch_add(1, std::memory_order_relaxed);
            }
          });
    });
  }
  sched.run(std::move(tasks));

  EXPECT_EQ(bad_slots.load(), 0);
  for (const auto& task : counts) {
    for (const auto& h : task) ASSERT_EQ(h.load(), 1);
  }
}

// With one worker everything runs inline on the caller: parallel_for chunks
// execute in ascending order, which is what makes 1-thread solver runs
// bitwise deterministic.
TEST(WorkStealingScheduler, SingleWorkerParallelForIsInlineAndOrdered) {
  SchedulerOptions opts;
  opts.threads = 1;
  WorkStealingScheduler sched(opts);
  std::vector<std::int64_t> visited;
  sched.parallel_for(0, 100, 16,
                     [&visited](std::int64_t lo, std::int64_t hi, int slot) {
                       EXPECT_EQ(slot, 0);
                       for (std::int64_t i = lo; i < hi; ++i) {
                         visited.push_back(i);
                       }
                     });
  ASSERT_EQ(visited.size(), 100u);
  for (std::int64_t i = 0; i < 100; ++i) EXPECT_EQ(visited[i], i);
}

}  // namespace
}  // namespace apgre
