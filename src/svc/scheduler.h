// Shared worker-pool scheduler: runs dataflow operators as resumable,
// morsel-driven tasks on a fixed set of worker threads instead of giving
// every operator of every query a dedicated OS thread. This is the engine's
// answer to the ROADMAP north-star of thousands of concurrent sessions —
// the thread count becomes workers + I/O threads, independent of how many
// queries are in flight.
//
// Model:
//  * A Task is a small state machine. Step() does one bounded slice of work
//    (typically: pop one input morsel, compute, push) and reports kYield
//    (more work available — requeue me), kBlocked (waiting for an external
//    event — park me until Wake()), or kDone (finished — never call again).
//  * Wake(task) is the readiness signal, wired to BlockingQueue readable/
//    writable listeners by the executor. Wakes coalesce: waking a queued
//    task is a no-op, waking a running task re-enqueues it after the
//    current Step returns, so the "event fired while I was deciding to
//    block" race loses no wakeups.
//  * Each worker owns a deque (LIFO for cache locality); idle workers steal
//    from the front of their peers' deques, so a pipeline whose stages land
//    on one worker still spreads under load.
//  * Blocking legs — wrapper calls sleeping on the simulated network,
//    retry backoff — do not run as tasks: SubmitIo() puts them on a
//    bounded auxiliary I/O pool, so compute workers never sleep on network
//    delay. I/O jobs must be one-shot (run to completion, never wait on
//    another I/O job); they may block on queue back-pressure, which compute
//    tasks relieve.
//  * Timers: RunAt() runs a short callback on a compute worker, between
//    task steps, once its due time has passed. Timers live in one heap; an
//    idle worker waits on the idle condition variable until the earliest
//    due time instead of indefinitely, so timers add no thread. A session
//    finishing (due now) and a queued deadline expiring both run this way.
//
// Lifetime: the scheduler must outlive every execution whose tasks it runs
// (executions wait for their outstanding tasks/jobs in Finish()). The
// destructor stops the workers, drains queued I/O jobs, and drops any still
// queued compute tasks un-stepped and any still pending timers unrun.

#ifndef LAKEFED_SVC_SCHEDULER_H_
#define LAKEFED_SVC_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lakefed::svc {

enum class TaskResult {
  kDone,     // finished; the scheduler will never Step() this task again
  kBlocked,  // waiting for an external event; resumed by Wake()
  kYield,    // more work ready; re-enqueued immediately (fairness point)
};

// A resumable unit of dataflow work. Step() is never invoked concurrently
// with itself: the handle's state machine serializes steps, and the
// enqueue/dequeue handoff orders the memory of one step before the next, so
// task-local state needs no synchronization of its own.
class Task {
 public:
  virtual ~Task() = default;
  virtual TaskResult Step() = 0;
};

class Scheduler {
 public:
  using Clock = std::chrono::steady_clock;

  struct Config {
    // Compute workers. 0 = std::thread::hardware_concurrency() (min 1).
    size_t workers = 0;
    // Auxiliary I/O pool for blocking legs. 0 = max(4, 2 * workers).
    size_t io_threads = 0;
  };

  struct Stats {
    uint64_t steps = 0;    // task steps executed
    uint64_t steals = 0;   // steps whose task was stolen from a peer
    uint64_t wakes = 0;    // Wake() calls that enqueued or re-armed a task
    uint64_t io_jobs = 0;  // I/O jobs executed
    // Task-state transition counters (one per Step() outcome).
    uint64_t yields = 0;   // steps that returned kYield (re-enqueued)
    uint64_t blocks = 0;   // steps that returned kBlocked and parked
    uint64_t done = 0;     // steps that returned kDone (task retired)
    // Worker parking: a park is a worker going to sleep on the idle
    // condition variable; an unpark is it waking back up. parks - unparks
    // = workers currently asleep.
    uint64_t parks = 0;
    uint64_t unparks = 0;
  };

  // Opaque per-task scheduling state; obtained from Register() and passed
  // to Wake(). Holding a TaskRef keeps the task object alive until it
  // finishes; once Step() returns kDone the scheduler releases the task
  // (long-lived holders — e.g. queue readiness listeners — then pin only
  // the small handle, not the dataflow the task references).
  class TaskHandle;
  using TaskRef = std::shared_ptr<TaskHandle>;

  Scheduler();  // default Config
  explicit Scheduler(Config config);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Registers a task in the parked (idle) state: it runs only once Wake()d.
  TaskRef Register(std::unique_ptr<Task> task);

  // Readiness signal: schedules an idle task, re-arms a running one, and is
  // a no-op on queued or finished tasks. Safe from any thread, including
  // from inside Step() and from queue listener callbacks.
  void Wake(const TaskRef& handle);

  // Enqueues a blocking job on the auxiliary I/O pool. Jobs run to
  // completion in FIFO order as I/O threads free up.
  void SubmitIo(std::function<void()> job);

  // Arms a timer: `fn` runs once on a compute worker, between task steps,
  // as soon as `due` has passed (at once when it already has). Timers fire
  // in due order, ties in arming order. `fn` must be short and must not
  // block; it may arm timers, wake tasks and submit I/O jobs. Safe from any
  // thread, including from inside Step() and from a timer callback.
  void RunAt(Clock::time_point due, std::function<void()> fn);

  size_t num_workers() const { return worker_threads_.size(); }
  size_t num_io_threads() const { return io_thread_objs_.size(); }
  Stats stats() const;

  // Queue-depth introspection for the monitoring plane. Each call takes
  // the corresponding lock briefly; intended for samplers, not hot paths.
  size_t injector_depth() const;
  size_t io_queue_depth() const;
  std::vector<size_t> deque_depths() const;  // one entry per worker

 private:
  struct WorkerDeque {
    mutable std::mutex mu;
    std::deque<TaskRef> tasks;
  };

  struct Timer {
    Clock::time_point due;
    uint64_t seq;  // arming order, breaks ties between equal due times
    std::function<void()> fn;
  };
  static constexpr Clock::rep kNoTimer = std::numeric_limits<Clock::rep>::max();
  // Heap order for timers_: the earliest (due, seq) on top.
  static bool FiresLater(const Timer& a, const Timer& b);

  void WorkerMain(size_t index);
  void IoMain();
  // Pops and runs the earliest timer if it is due. False when none was.
  bool RunDueTimer();
  // Enqueues a runnable handle: onto the calling worker's own deque when
  // `prefer_local` and the caller is one of our workers, else onto the
  // shared injector queue.
  void Enqueue(TaskRef handle, bool prefer_local);
  // Next runnable handle for worker `self`: own deque, injector, then a
  // steal sweep over the peers. Null when nothing is runnable.
  TaskRef NextTask(size_t self);
  void RunTask(const TaskRef& handle);

  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::vector<std::thread> worker_threads_;

  // Injector queue (tasks enqueued from non-worker threads) + idle parking.
  // Mutable: the depth accessors are const but must lock.
  mutable std::mutex sleep_mu_;
  std::condition_variable idle_cv_;
  std::deque<TaskRef> injector_;
  std::atomic<size_t> ready_{0};  // queued-but-unclaimed handles
  bool stop_ = false;             // guarded by sleep_mu_

  // Timer heap (guarded by sleep_mu_), and its earliest due time in clock
  // ticks, readable without the lock so a busy worker checks for a due
  // timer between steps with one load (max = no timer).
  std::vector<Timer> timers_;
  uint64_t timer_seq_ = 0;
  std::atomic<Clock::rep> next_due_{kNoTimer};

  // Auxiliary I/O pool.
  mutable std::mutex io_mu_;
  std::condition_variable io_cv_;
  std::deque<std::function<void()>> io_jobs_;
  bool io_stop_ = false;  // guarded by io_mu_
  std::vector<std::thread> io_thread_objs_;

  std::atomic<uint64_t> steps_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> wakes_{0};
  std::atomic<uint64_t> io_count_{0};
  std::atomic<uint64_t> yields_{0};
  std::atomic<uint64_t> blocks_{0};
  std::atomic<uint64_t> done_{0};
  std::atomic<uint64_t> parks_{0};
  std::atomic<uint64_t> unparks_{0};
};

}  // namespace lakefed::svc

#endif  // LAKEFED_SVC_SCHEDULER_H_
