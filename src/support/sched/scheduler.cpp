#include "support/sched/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/sched/chase_lev.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace apgre {

StealPolicy steal_policy_from_name(const std::string& name) {
  if (name == "random") return StealPolicy::kRandom;
  if (name == "sequential") return StealPolicy::kSequential;
  throw OptionError("unknown steal policy: " + name +
                    " (expected random | sequential)");
}

std::string steal_policy_name(StealPolicy policy) {
  switch (policy) {
    case StealPolicy::kRandom: return "random";
    case StealPolicy::kSequential: return "sequential";
  }
  return "?";
}

namespace sched_detail {

/// Join counter for one run() or parallel_for(): `pending` counts published
/// tasks not yet finished (incremented *before* a task becomes stealable,
/// decremented after it ran, so pending == 0 is the completion condition
/// even while tasks spawn subtasks). Lives on the owning call's stack for
/// run() — safe because the call returns only once pending hits zero — and
/// inside the shared LoopState for parallel_for helpers, which may outlive
/// their loop as drained no-ops.
struct RunGroup {
  std::atomic<std::uint64_t> pending{0};
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> stolen{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
};

/// One schedulable unit. Heap-allocated because with overlapping groups a
/// slot's deque interleaves tasks from many owners; the executor deletes
/// the node after running it. `keepalive` pins shared state (a loop's
/// LoopState) that `group` points into, so the group counters stay valid
/// through the post-body bookkeeping.
struct TaskNode {
  WorkStealingScheduler::Task fn;
  RunGroup* group = nullptr;
  std::shared_ptr<void> keepalive;
};

/// What the current thread is doing, scheduler-wise. `slot` is valid while
/// the thread occupies a scheduler slot (pool worker, or participant
/// inside run()/parallel_for); nested calls read it instead of acquiring a
/// second slot. `inline_stack` is set during a 1-worker inline run so
/// spawn() lands in deterministic LIFO order without touching any deque.
struct TlsContext {
  WorkStealingScheduler* sched = nullptr;
  int slot = -1;
  RunGroup* group = nullptr;
  int loop_depth = 0;
  std::vector<WorkStealingScheduler::Task>* inline_stack = nullptr;
};

thread_local TlsContext tls;

std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

std::uint64_t rng_seed(int slot) {
  return 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(slot + 1) + 1;
}

}  // namespace sched_detail

using sched_detail::RunGroup;
using sched_detail::TaskNode;
using sched_detail::tls;

struct WorkStealingScheduler::State {
  struct alignas(64) Slot {
    ChaseLevDeque<TaskNode*> deque;
  };

  explicit State(int num_slots) {
    slots.reserve(static_cast<std::size_t>(num_slots));
    for (int i = 0; i < num_slots; ++i) {
      slots.push_back(std::make_unique<Slot>());
    }
  }

  std::vector<std::unique_ptr<Slot>> slots;

  /// Tasks published but not yet *claimed* (popped or stolen). The pool's
  /// sleep decision reads this: zero means no unclaimed work anywhere.
  /// seq_cst pairs with `sleepers` below (Dekker: a publisher either sees
  /// the registered sleeper and bumps the epoch, or the sleeper's re-check
  /// sees the new outstanding count — a wakeup is never lost).
  std::atomic<std::uint64_t> outstanding{0};
  std::atomic<int> sleepers{0};
  std::mutex wake_mu;
  std::condition_variable wake_cv;
  std::uint64_t wake_epoch = 0;  // guarded by wake_mu
  std::atomic<bool> stop{false};

  std::mutex pool_mu;
  std::atomic<bool> pool_started{false};
  std::vector<std::thread> pool;

  /// Participant-slot freelist (slot ids >= pool size). Handing a slot to
  /// a new thread through this mutex also hands over its deque: the lock
  /// provides the happens-before edge successive owners need.
  std::mutex free_mu;
  std::condition_variable free_cv;
  std::vector<int> free_slots;

  std::atomic<int> concurrent_runs{0};
  std::atomic<int> concurrent_runs_high{0};

  // Cached registry handles (registration takes a mutex; lookups here are
  // on hot paths). Constructing these in the scheduler constructor also
  // pins the registry's static lifetime past the pool threads'.
  Histogram* task_micros = nullptr;
  Histogram* nested_depth = nullptr;
  Counter* failed_steals = nullptr;
};

WorkStealingScheduler::WorkStealingScheduler(const SchedulerOptions& opts)
    : opts_(opts) {
  workers_ = opts.threads > 0
                 ? opts.threads
                 : static_cast<int>(std::thread::hardware_concurrency());
  if (workers_ < 1) workers_ = 1;
  // Participant slots beyond the pool: enough for the service's worker
  // pool plus benchmark client threads to all be inside a solve at once;
  // late-comers beyond that wait in acquire_participant_slot().
  num_slots_ = (workers_ - 1) + std::max(8, workers_ + 1);
  state_ = std::make_unique<State>(num_slots_);
  MetricsRegistry& m = metrics();
  state_->task_micros = &m.histogram("sched.task_micros");
  state_->nested_depth = &m.histogram("sched.nested_depth");
  state_->failed_steals = &m.counter("sched.failed_steals");
  for (int s = workers_ - 1; s < num_slots_; ++s) {
    state_->free_slots.push_back(s);
  }
}

WorkStealingScheduler::~WorkStealingScheduler() {
  State& st = *state_;
  st.stop.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lk(st.wake_mu);
    ++st.wake_epoch;
  }
  st.wake_cv.notify_all();
  for (std::thread& t : st.pool) t.join();
  // Leftover nodes can only be drained parallel_for helpers (their loop
  // finished before its caller returned, so next >= end and the body will
  // never run again); deleting without executing is safe. run() tasks are
  // always executed before run() returns.
  for (auto& slot : st.slots) {
    TaskNode* node = nullptr;
    while (slot->deque.steal(node)) delete node;
  }
}

WorkStealingScheduler& WorkStealingScheduler::shared() {
  static WorkStealingScheduler instance;
  return instance;
}

WorkStealingScheduler& select_scheduler(
    const SchedulerOptions& opts, std::optional<WorkStealingScheduler>& storage,
    int fallback_threads) {
  WorkStealingScheduler& shared = WorkStealingScheduler::shared();
  SchedulerOptions resolved;
  resolved.threads = opts.threads > 0 ? opts.threads : fallback_threads;
  resolved.steal_policy = opts.steal_policy;
  if ((resolved.threads <= 0 || resolved.threads == shared.num_workers()) &&
      resolved.steal_policy == StealPolicy::kRandom) {
    return shared;
  }
  storage.emplace(resolved);
  return *storage;
}

void WorkStealingScheduler::ensure_pool() {
  State& st = *state_;
  if (st.pool_started.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lk(st.pool_mu);
  if (st.pool_started.load(std::memory_order_relaxed)) return;
  st.pool.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 0; w < workers_ - 1; ++w) {
    st.pool.emplace_back([this, w] { pool_loop(w); });
  }
  st.pool_started.store(true, std::memory_order_release);
}

int WorkStealingScheduler::acquire_participant_slot() {
  State& st = *state_;
  std::unique_lock<std::mutex> lk(st.free_mu);
  st.free_cv.wait(lk, [&] { return !st.free_slots.empty(); });
  const int slot = st.free_slots.back();
  st.free_slots.pop_back();
  return slot;
}

void WorkStealingScheduler::release_participant_slot(int slot) {
  State& st = *state_;
  {
    std::lock_guard<std::mutex> lk(st.free_mu);
    st.free_slots.push_back(slot);
  }
  st.free_cv.notify_one();
}

void WorkStealingScheduler::publish(int slot, TaskNode* node) {
  State& st = *state_;
  st.outstanding.fetch_add(1, std::memory_order_seq_cst);
  st.slots[static_cast<std::size_t>(slot)]->deque.push(node);
  wake_sleepers();
}

void WorkStealingScheduler::wake_sleepers() {
  State& st = *state_;
  if (st.sleepers.load(std::memory_order_seq_cst) == 0) return;
  {
    std::lock_guard<std::mutex> lk(st.wake_mu);
    ++st.wake_epoch;
  }
  st.wake_cv.notify_all();
}

bool WorkStealingScheduler::try_steal(int thief_slot, std::uint64_t& rng,
                                      TaskNode*& out, std::uint64_t& failed) {
  State& st = *state_;
  const int n = num_slots_;
  for (int attempt = 0; attempt < n; ++attempt) {
    int victim;
    if (opts_.steal_policy == StealPolicy::kRandom) {
      victim = static_cast<int>(sched_detail::xorshift(rng) %
                                static_cast<std::uint64_t>(n));
    } else {
      victim = (thief_slot + 1 + attempt) % n;
    }
    if (victim == thief_slot) continue;
    if (st.slots[static_cast<std::size_t>(victim)]->deque.steal(out)) {
      return true;
    }
    ++failed;
  }
  return false;
}

void WorkStealingScheduler::execute(TaskNode* node, int slot) {
  RunGroup* group = node->group;
  // Pin the group's storage (a parallel_for LoopState) past the node's own
  // lifetime: the fn below may hold the last other reference.
  std::shared_ptr<void> keepalive = std::move(node->keepalive);
  const sched_detail::TlsContext saved = tls;
  tls.sched = this;
  tls.slot = slot;
  tls.group = group;
  tls.inline_stack = nullptr;
  Timer task_timer;
  try {
    node->fn(slot);
  } catch (...) {
    std::lock_guard<std::mutex> lk(group->error_mu);
    if (!group->first_error) group->first_error = std::current_exception();
  }
  state_->task_micros->observe(
      static_cast<std::uint64_t>(task_timer.seconds() * 1e6));
  tls = saved;
  delete node;
  group->executed.fetch_add(1, std::memory_order_relaxed);
  // Release so the group owner observing pending == 0 sees every write the
  // task made (and the executed/stolen tallies above).
  group->pending.fetch_sub(1, std::memory_order_release);
}

void WorkStealingScheduler::pool_loop(int slot_id) {
  State& st = *state_;
  State::Slot& me = *st.slots[static_cast<std::size_t>(slot_id)];
  std::uint64_t rng = sched_detail::rng_seed(slot_id);
  std::uint64_t failed_tally = 0;
  int empty_sweeps = 0;

  while (!st.stop.load(std::memory_order_acquire)) {
    TaskNode* node = nullptr;
    if (me.deque.pop(node)) {
      st.outstanding.fetch_sub(1, std::memory_order_seq_cst);
      execute(node, slot_id);
      empty_sweeps = 0;
      continue;
    }
    std::uint64_t failed = 0;
    if (try_steal(slot_id, rng, node, failed)) {
      failed_tally += failed;
      st.outstanding.fetch_sub(1, std::memory_order_seq_cst);
      node->group->stolen.fetch_add(1, std::memory_order_relaxed);
      execute(node, slot_id);
      empty_sweeps = 0;
      continue;
    }
    failed_tally += failed;
    if (++empty_sweeps < 64) {
      std::this_thread::yield();
      continue;
    }
    // Nothing to do for a while: flush tallies and sleep until the next
    // publish bumps the epoch (see State::outstanding for the protocol).
    if (failed_tally != 0) {
      st.failed_steals->add(failed_tally);
      failed_tally = 0;
    }
    std::uint64_t epoch;
    {
      std::lock_guard<std::mutex> lk(st.wake_mu);
      epoch = st.wake_epoch;
    }
    st.sleepers.fetch_add(1, std::memory_order_seq_cst);
    if (st.outstanding.load(std::memory_order_seq_cst) == 0 &&
        !st.stop.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lk(st.wake_mu);
      st.wake_cv.wait(lk, [&] {
        return st.stop.load(std::memory_order_relaxed) ||
               st.wake_epoch != epoch;
      });
    }
    st.sleepers.fetch_sub(1, std::memory_order_seq_cst);
    empty_sweeps = 0;
  }
  if (failed_tally != 0) st.failed_steals->add(failed_tally);
}

void WorkStealingScheduler::spawn(int slot, Task task) {
  if (tls.sched == this && tls.inline_stack != nullptr) {
    tls.inline_stack->push_back(std::move(task));
    return;
  }
  APGRE_ASSERT_MSG(tls.sched == this && tls.slot == slot,
                   "spawn() must be called from the task's own slot");
  RunGroup* group = tls.group;
  APGRE_ASSERT_MSG(group != nullptr, "spawn() outside a scheduler run");
  group->pending.fetch_add(1, std::memory_order_relaxed);
  publish(slot, new TaskNode{std::move(task), group, nullptr});
}

SchedulerStats WorkStealingScheduler::run_inline(std::vector<Task> tasks) {
  TraceSpan span("sched/run");
  Timer run_timer;
  // LIFO work stack seeded in submission order: initial task 0 runs first,
  // spawned subtasks run newest-first, and the whole order is a pure
  // function of the task bodies — the bitwise-determinism contract the
  // 1-worker configuration exists for.
  std::vector<Task> stack;
  stack.reserve(tasks.size());
  for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) {
    stack.push_back(std::move(*it));
  }
  tasks.clear();

  std::exception_ptr first_error;
  std::uint64_t executed = 0;
  const sched_detail::TlsContext saved = tls;
  tls.sched = this;
  tls.slot = 0;
  tls.group = nullptr;
  tls.inline_stack = &stack;
  while (!stack.empty()) {
    Task task = std::move(stack.back());
    stack.pop_back();
    Timer task_timer;
    try {
      task(0);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
    state_->task_micros->observe(
        static_cast<std::uint64_t>(task_timer.seconds() * 1e6));
    ++executed;
  }
  tls = saved;

  SchedulerStats stats;
  stats.tasks = executed;
  stats.workers = 1;
  stats.run_seconds = run_timer.seconds();

  MetricsRegistry& m = metrics();
  m.counter("sched.runs").add(1);
  m.counter("sched.tasks").add(stats.tasks);
  m.gauge("sched.workers").set(1.0);
  m.gauge("sched.run_seconds").set(stats.run_seconds);

  if (first_error) std::rethrow_exception(first_error);
  return stats;
}

SchedulerStats WorkStealingScheduler::run(std::vector<Task> tasks) {
  if (workers_ == 1) return run_inline(std::move(tasks));

  TraceSpan span("sched/run");
  Timer run_timer;
  ensure_pool();
  State& st = *state_;

  const int concurrent = st.concurrent_runs.fetch_add(1, std::memory_order_relaxed) + 1;
  int high = st.concurrent_runs_high.load(std::memory_order_relaxed);
  while (concurrent > high &&
         !st.concurrent_runs_high.compare_exchange_weak(
             high, concurrent, std::memory_order_relaxed)) {
  }

  // Reuse the slot we already occupy when run() nests inside a task;
  // otherwise borrow a participant slot for the duration of the call.
  const bool guest = !(tls.sched == this && tls.slot >= 0);
  const int slot = guest ? acquire_participant_slot() : tls.slot;
  State::Slot& me = *st.slots[static_cast<std::size_t>(slot)];

  RunGroup group;
  group.pending.store(tasks.size(), std::memory_order_relaxed);
  for (Task& task : tasks) {
    publish(slot, new TaskNode{std::move(task), &group, nullptr});
  }
  tasks.clear();

  // Help until this group drains. The loop prefers our own deque (which
  // newly holds this group's tasks), then steals from anyone — possibly
  // executing another group's task, which is the work-conserving choice
  // when runs overlap.
  std::uint64_t rng = sched_detail::rng_seed(slot + num_slots_);
  std::uint64_t my_failed = 0;
  double idle_seconds = 0.0;
  while (group.pending.load(std::memory_order_acquire) != 0) {
    TaskNode* node = nullptr;
    if (me.deque.pop(node)) {
      st.outstanding.fetch_sub(1, std::memory_order_seq_cst);
      execute(node, slot);
      continue;
    }
    Timer idle_timer;
    std::uint64_t failed = 0;
    const bool got = try_steal(slot, rng, node, failed);
    my_failed += failed;
    idle_seconds += idle_timer.seconds();
    if (got) {
      st.outstanding.fetch_sub(1, std::memory_order_seq_cst);
      node->group->stolen.fetch_add(1, std::memory_order_relaxed);
      execute(node, slot);
    } else if (group.pending.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
  }
  if (guest) release_participant_slot(slot);
  st.concurrent_runs.fetch_sub(1, std::memory_order_relaxed);

  SchedulerStats stats;
  stats.workers = workers_;
  stats.tasks = group.executed.load(std::memory_order_acquire);
  stats.steals = group.stolen.load(std::memory_order_relaxed);
  stats.failed_steals = my_failed;
  stats.idle_seconds = idle_seconds;
  stats.run_seconds = run_timer.seconds();

  MetricsRegistry& m = metrics();
  m.counter("sched.runs").add(1);
  m.counter("sched.tasks").add(stats.tasks);
  m.counter("sched.steals").add(stats.steals);
  m.counter("sched.failed_steals").add(stats.failed_steals);
  m.gauge("sched.workers").set(static_cast<double>(stats.workers));
  m.gauge("sched.idle_seconds").set(stats.idle_seconds);
  m.gauge("sched.run_seconds").set(stats.run_seconds);
  m.gauge("sched.concurrent_runs").set(static_cast<double>(
      st.concurrent_runs_high.load(std::memory_order_relaxed)));

  if (group.first_error) std::rethrow_exception(group.first_error);
  return stats;
}

namespace sched_detail {

/// Shared state of one parallel_for: helpers and the caller claim chunks
/// with fetch_add on `next`; `done` counts finished indices, so the caller
/// returns exactly when every index has been processed — even while helper
/// *tasks* are still queued (they drain later as claim-nothing no-ops,
/// kept valid by the shared_ptr each TaskNode pins).
struct LoopState {
  WorkStealingScheduler::LoopBody body;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> done{0};
  std::int64_t end = 0;
  std::int64_t grain = 1;
  int depth = 0;
  WorkStealingScheduler* sched = nullptr;
  RunGroup group;
};

void claim_chunks(LoopState& ls, int slot) {
  const TlsContext saved = tls;
  tls.sched = ls.sched;
  tls.slot = slot;
  tls.loop_depth = ls.depth + 1;
  tls.inline_stack = nullptr;
  for (;;) {
    const std::int64_t lo = ls.next.fetch_add(ls.grain, std::memory_order_relaxed);
    if (lo >= ls.end) break;
    const std::int64_t hi = std::min(ls.end, lo + ls.grain);
    ls.body(lo, hi, slot);
    // Release pairs with the caller's acquire load of `done`: RMW chains
    // keep the release sequence intact, so done == total publishes every
    // chunk's writes.
    ls.done.fetch_add(hi - lo, std::memory_order_release);
  }
  tls = saved;
}

}  // namespace sched_detail

void WorkStealingScheduler::parallel_for(std::int64_t begin, std::int64_t end,
                                         std::int64_t grain,
                                         const LoopBody& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (grain <= 0) {
    grain = std::max<std::int64_t>(1, n / (8 * static_cast<std::int64_t>(workers_)));
  }
  const int depth = tls.sched == this ? tls.loop_depth : 0;
  state_->nested_depth->observe(static_cast<std::uint64_t>(depth));

  // Small ranges (and 1-worker schedulers) run inline on the current slot;
  // an external caller of a multi-worker scheduler still borrows a
  // participant slot so slot-indexed buffers stay single-writer.
  if (workers_ == 1 || n <= grain) {
    const bool guest = !(tls.sched == this && tls.slot >= 0);
    int slot = 0;
    if (guest && workers_ > 1) slot = acquire_participant_slot();
    if (!guest) slot = tls.slot;
    const sched_detail::TlsContext saved = tls;
    tls.sched = this;
    tls.slot = slot;
    tls.loop_depth = depth + 1;
    tls.inline_stack = nullptr;
    body(begin, end, slot);
    tls = saved;
    if (guest && workers_ > 1) release_participant_slot(slot);
    return;
  }

  TraceSpan span("sched/parallel_for");
  ensure_pool();
  State& st = *state_;
  const bool guest = !(tls.sched == this && tls.slot >= 0);
  const int slot = guest ? acquire_participant_slot() : tls.slot;

  auto ls = std::make_shared<sched_detail::LoopState>();
  ls->body = body;
  ls->next.store(begin, std::memory_order_relaxed);
  ls->end = end;
  ls->grain = grain;
  ls->depth = depth;
  ls->sched = this;

  const std::int64_t chunks = (n + grain - 1) / grain;
  const int helpers = static_cast<int>(
      std::min<std::int64_t>(workers_ - 1, chunks - 1));
  ls->group.pending.store(static_cast<std::uint64_t>(helpers),
                          std::memory_order_relaxed);
  for (int h = 0; h < helpers; ++h) {
    auto pin = ls;
    publish(slot, new TaskNode{
                      Task([pin](int s) { sched_detail::claim_chunks(*pin, s); }),
                      &ls->group, std::move(pin)});
  }

  sched_detail::claim_chunks(*ls, slot);

  // Wait for stolen chunks, helping from our own deque only: popping it
  // mostly yields this loop's just-pushed helpers (LIFO), keeping the
  // level-barrier latency bounded while still making progress on anything
  // else we queued earlier.
  State::Slot& me = *st.slots[static_cast<std::size_t>(slot)];
  while (ls->done.load(std::memory_order_acquire) != n) {
    TaskNode* node = nullptr;
    if (me.deque.pop(node)) {
      st.outstanding.fetch_sub(1, std::memory_order_seq_cst);
      execute(node, slot);
    } else {
      std::this_thread::yield();
    }
  }
  if (guest) release_participant_slot(slot);
}

}  // namespace apgre
