// Reentrant two-level work-stealing task scheduler.
//
// The paper's headline speedup needs *two-level* parallelism: coarse tasks
// per sub-graph plus parallelism inside the largest sub-graphs, which APGRE
// gets by splitting them into root batches. A flat parallel loop over
// sub-graphs serializes on skewed decompositions (one giant biconnected
// component plus thousands of tiny ones — the norm, per the paper's
// Figure 2). This scheduler fixes the skew: every worker owns a Chase-Lev
// deque (sched/chase_lev.hpp); an idle worker steals the oldest task from a
// uniformly random victim (classic Cilk). Tasks may spawn subtasks onto
// their own deque, which thieves then relieve.
//
// Reentrancy. run() and parallel_for() are join-counted: each call owns a
// private completion group, so any number of caller threads can drive the
// same scheduler concurrently — the substrate the concurrent BC service
// needs (service/service.hpp used to serialize every parallel solve behind
// a process-wide mutex; DESIGN.md "Reentrant scheduler" records the
// design tradeoff). Calls from inside a task nest: a task body may open a
// parallel_for (the level-synchronous BC kernels do, once per BFS level)
// or even a whole run(). Pool threads are started lazily on first use and
// sleep on a condition variable when the system drains.
//
// Worker ids vs slots. num_workers() is the parallelism degree (`threads`,
// or the hardware thread count when 0). Task bodies receive a *slot* id in
// [0, num_slots()); slots extend the pool with entries for external caller
// threads that participate while their group runs, so num_slots() — not
// num_workers() — is the dimension for per-slot buffers. At most one
// thread occupies a slot at a time, so slot-indexed state needs no locks.
//
// With num_workers() == 1 every call executes inline on the calling
// thread in deterministic order: no pool, no steals, bitwise-reproducible
// accumulation (the Solver determinism tests pin this configuration).
//
// Observability: every run() reports into the metrics registry
// (`sched.tasks`, `sched.steals`, `sched.failed_steals`, task-latency
// histogram `sched.task_micros`, nesting histogram `sched.nested_depth`,
// gauges `sched.idle_seconds` / `sched.run_seconds` / `sched.workers` /
// `sched.concurrent_runs`) and opens a `sched/run` trace span;
// parallel_for opens `sched/parallel_for` when it actually goes parallel.
// docs/OBSERVABILITY.md documents the names.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace apgre {

namespace sched_detail {
struct RunGroup;   // join counter + error slot for one run()/parallel_for
struct TaskNode;   // heap task: body + owning group (+ loop keepalive)
struct TlsContext; // per-thread {scheduler, slot, group, nesting} record
}  // namespace sched_detail

struct SchedulerOptions {
  /// Worker count; 0 defers to BcOptions::threads, and when that is 0 too
  /// to the shared pool sized to the hardware (select_scheduler).
  int threads = 0;
};

/// One run()'s outcome (also mirrored into the metrics registry). Steals
/// count acquisitions of *this group's* tasks by any thread; failed steals
/// and idle time are the owning caller's own tallies (pool-thread idle
/// time is not attributable to a single group once runs overlap).
struct SchedulerStats {
  std::uint64_t tasks = 0;          ///< tasks executed (initial + spawned)
  std::uint64_t steals = 0;         ///< successful steals of group tasks
  std::uint64_t failed_steals = 0;  ///< caller steal attempts finding nothing
  double idle_seconds = 0.0;        ///< caller time spent waiting/stealing
  double run_seconds = 0.0;         ///< wall time of the run() call
  int workers = 0;
};

class WorkStealingScheduler {
 public:
  /// A task; receives the executing thread's slot id [0, num_slots()) so
  /// task bodies can index per-slot buffers race-free.
  using Task = std::function<void(int)>;
  /// A parallel_for body: processes [begin, end) on slot `slot`.
  using LoopBody = std::function<void(std::int64_t begin, std::int64_t end,
                                      int slot)>;

  explicit WorkStealingScheduler(const SchedulerOptions& opts = {});
  ~WorkStealingScheduler();
  WorkStealingScheduler(const WorkStealingScheduler&) = delete;
  WorkStealingScheduler& operator=(const WorkStealingScheduler&) = delete;

  int num_workers() const { return workers_; }
  /// Upper bound (exclusive) on the slot ids task bodies can observe:
  /// pool workers plus external participant slots. Size per-slot buffers
  /// with this, never with num_workers().
  int num_slots() const { return num_slots_; }

  /// Execute every task (and everything they spawn) to completion and
  /// return the group's stats. The calling thread participates. Reentrant:
  /// concurrent run() calls from different threads share the pool, and a
  /// task body may itself call run() or parallel_for(). The first
  /// exception thrown by a task in this group is rethrown here after the
  /// group has drained (other groups are unaffected).
  SchedulerStats run(std::vector<Task> tasks);

  /// Push a subtask onto slot `slot`'s deque, joining the current group.
  /// Only valid from the thread currently occupying `slot` (i.e. from
  /// inside a task body, passing its own slot id).
  void spawn(int slot, Task task);

  /// Divide [begin, end) into chunks of ~`grain` (0 picks one) and execute
  /// `body(lo, hi, slot)` across the pool; returns when every index has
  /// been processed. Callable from anywhere: outside the scheduler, from
  /// inside a task, or nested inside another parallel_for. The calling
  /// thread claims chunks too, so a 1-worker scheduler executes the whole
  /// range inline.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const LoopBody& body);

  /// Process-wide scheduler sized to the machine, shared by every caller
  /// that pins no other worker count; reentrancy makes the sharing safe,
  /// and a shared pool keeps N concurrent solves from oversubscribing the
  /// cores with N private pools.
  static WorkStealingScheduler& shared();

 private:
  struct State;

  void ensure_pool();
  void pool_loop(int slot);
  void execute(sched_detail::TaskNode* node, int slot);
  bool try_steal(int thief_slot, std::uint64_t& rng,
                 sched_detail::TaskNode*& out, std::uint64_t& failed);
  void publish(int slot, sched_detail::TaskNode* node);
  void wake_sleepers();
  int acquire_participant_slot();
  void release_participant_slot(int slot);
  SchedulerStats run_inline(std::vector<Task> tasks);

  int workers_ = 1;
  int num_slots_ = 1;
  std::unique_ptr<State> state_;
};

/// The one place a scheduler is chosen for a solve. The worker count is
/// `opts.threads` if positive, else `fallback_threads` if positive (the
/// caller's BcOptions::threads). With no count pinned, or the shared()
/// pool's own count, the shared pool serves, so concurrent solves
/// arbitrate the same cores instead of oversubscribing with private pools.
/// Anything else gets a private scheduler built in `storage`, which must
/// outlive the returned reference.
WorkStealingScheduler& select_scheduler(
    const SchedulerOptions& opts, std::optional<WorkStealingScheduler>& storage,
    int fallback_threads = 0);

}  // namespace apgre
