#include "svc/scheduler.h"

#include <algorithm>
#include <utility>

namespace lakefed::svc {
namespace {

// Which scheduler (if any) owns the current thread, and its worker index.
// Thread-locals rather than a map lookup: Enqueue is on the step hot path.
thread_local Scheduler* tl_scheduler = nullptr;
thread_local size_t tl_worker_index = 0;

}  // namespace

// Per-task scheduling state. The atomic `state` is the whole wakeup
// protocol:
//
//   kIdle ──Wake──▶ kQueued ──worker──▶ kRunning ──Step()──▶
//     kDone                      (terminal)
//     kYield / woken mid-step -> kQueued (re-enqueued)
//     kBlocked, no wake        -> kIdle  (parked)
//
// A Wake() during kRunning CASes to kRunningNotified; the worker observes
// the failed kRunning->kIdle CAS after Step() returns kBlocked and
// re-enqueues — the classic lost-wakeup race resolved without locks. Every
// transition into kQueued enqueues the handle exactly once, so a handle
// occupies at most one deque slot at any time.
class Scheduler::TaskHandle {
 public:
  enum State : int { kIdle, kQueued, kRunning, kRunningNotified, kDone };

  explicit TaskHandle(std::unique_ptr<Task> task) : task_(std::move(task)) {}

  std::atomic<int> state{kIdle};
  std::unique_ptr<Task> task_;
};

Scheduler::Scheduler() : Scheduler(Config()) {}

Scheduler::Scheduler(Config config) {
  size_t workers = config.workers;
  if (workers == 0) {
    workers = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  size_t io_threads = config.io_threads;
  if (io_threads == 0) io_threads = std::max<size_t>(4, 2 * workers);

  deques_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    deques_.push_back(std::make_unique<WorkerDeque>());
  }
  worker_threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    worker_threads_.emplace_back([this, i] { WorkerMain(i); });
  }
  io_thread_objs_.reserve(io_threads);
  for (size_t i = 0; i < io_threads; ++i) {
    io_thread_objs_.emplace_back([this] { IoMain(); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_ = true;
  }
  idle_cv_.notify_all();
  for (std::thread& t : worker_threads_) t.join();
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    io_stop_ = true;
  }
  io_cv_.notify_all();
  for (std::thread& t : io_thread_objs_) t.join();
  timers_.clear();  // pending timers are dropped, not run
}

Scheduler::TaskRef Scheduler::Register(std::unique_ptr<Task> task) {
  return std::make_shared<TaskHandle>(std::move(task));
}

void Scheduler::Wake(const TaskRef& handle) {
  for (;;) {
    int s = handle->state.load(std::memory_order_acquire);
    switch (s) {
      case TaskHandle::kIdle: {
        int expected = TaskHandle::kIdle;
        if (handle->state.compare_exchange_weak(expected, TaskHandle::kQueued,
                                                std::memory_order_acq_rel)) {
          wakes_.fetch_add(1, std::memory_order_relaxed);
          Enqueue(handle, /*prefer_local=*/true);
          return;
        }
        break;  // lost the race; re-read
      }
      case TaskHandle::kRunning: {
        int expected = TaskHandle::kRunning;
        if (handle->state.compare_exchange_weak(
                expected, TaskHandle::kRunningNotified,
                std::memory_order_acq_rel)) {
          wakes_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        break;
      }
      case TaskHandle::kQueued:
      case TaskHandle::kRunningNotified:
      case TaskHandle::kDone:
        return;  // wake already pending, or nothing left to wake
      default:
        return;
    }
  }
}

void Scheduler::SubmitIo(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    io_jobs_.push_back(std::move(job));
  }
  io_cv_.notify_one();
}

void Scheduler::RunAt(Clock::time_point due, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    timers_.push_back(Timer{due, timer_seq_++, std::move(fn)});
    std::push_heap(timers_.begin(), timers_.end(), FiresLater);
    next_due_.store(timers_.front().due.time_since_epoch().count(),
                    std::memory_order_relaxed);
  }
  // A parked worker waits until the earliest due time it saw; wake one so
  // it re-reads the heap in case this timer is earlier.
  idle_cv_.notify_one();
}

bool Scheduler::FiresLater(const Timer& a, const Timer& b) {
  return a.due != b.due ? a.due > b.due : a.seq > b.seq;
}

bool Scheduler::RunDueTimer() {
  const Clock::time_point now = Clock::now();
  if (next_due_.load(std::memory_order_relaxed) >
      now.time_since_epoch().count()) {
    return false;
  }
  std::function<void()> fn;
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    if (stop_ || timers_.empty() || timers_.front().due > now) return false;
    std::pop_heap(timers_.begin(), timers_.end(), FiresLater);
    fn = std::move(timers_.back().fn);
    timers_.pop_back();
    next_due_.store(timers_.empty()
                        ? kNoTimer
                        : timers_.front().due.time_since_epoch().count(),
                    std::memory_order_relaxed);
  }
  fn();
  return true;
}

Scheduler::Stats Scheduler::stats() const {
  Stats s;
  s.steps = steps_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.wakes = wakes_.load(std::memory_order_relaxed);
  s.io_jobs = io_count_.load(std::memory_order_relaxed);
  s.yields = yields_.load(std::memory_order_relaxed);
  s.blocks = blocks_.load(std::memory_order_relaxed);
  s.done = done_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  s.unparks = unparks_.load(std::memory_order_relaxed);
  return s;
}

size_t Scheduler::injector_depth() const {
  std::lock_guard<std::mutex> lock(sleep_mu_);
  return injector_.size();
}

size_t Scheduler::io_queue_depth() const {
  std::lock_guard<std::mutex> lock(io_mu_);
  return io_jobs_.size();
}

std::vector<size_t> Scheduler::deque_depths() const {
  std::vector<size_t> depths;
  depths.reserve(deques_.size());
  for (const auto& dq : deques_) {
    std::lock_guard<std::mutex> lock(dq->mu);
    depths.push_back(dq->tasks.size());
  }
  return depths;
}

void Scheduler::Enqueue(TaskRef handle, bool prefer_local) {
  // The ready_ increment must happen under sleep_mu_: a parked-bound worker
  // evaluates the wait predicate (ready_ == 0) while holding the mutex, and
  // an increment+notify slipped between its check and its block would be
  // lost — with every worker asleep, the task would be stranded until an
  // unrelated enqueue. Holding the mutex for the increment makes the
  // predicate change and the notify visible to any waiter.
  if (prefer_local && tl_scheduler == this) {
    {
      WorkerDeque& dq = *deques_[tl_worker_index];
      std::lock_guard<std::mutex> lock(dq.mu);
      dq.tasks.push_back(std::move(handle));
    }
    std::lock_guard<std::mutex> lock(sleep_mu_);
    ready_.fetch_add(1, std::memory_order_release);
  } else {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    injector_.push_back(std::move(handle));
    ready_.fetch_add(1, std::memory_order_release);
  }
  idle_cv_.notify_one();
}

Scheduler::TaskRef Scheduler::NextTask(size_t self) {
  {
    WorkerDeque& own = *deques_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      TaskRef h = std::move(own.tasks.back());
      own.tasks.pop_back();
      ready_.fetch_sub(1, std::memory_order_acq_rel);
      return h;
    }
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    if (!injector_.empty()) {
      TaskRef h = std::move(injector_.front());
      injector_.pop_front();
      ready_.fetch_sub(1, std::memory_order_acq_rel);
      return h;
    }
  }
  const size_t n = deques_.size();
  for (size_t i = 1; i < n; ++i) {
    WorkerDeque& peer = *deques_[(self + i) % n];
    std::lock_guard<std::mutex> lock(peer.mu);
    if (!peer.tasks.empty()) {
      TaskRef h = std::move(peer.tasks.front());
      peer.tasks.pop_front();
      ready_.fetch_sub(1, std::memory_order_acq_rel);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return h;
    }
  }
  return nullptr;
}

void Scheduler::RunTask(const TaskRef& handle) {
  handle->state.store(TaskHandle::kRunning, std::memory_order_release);
  TaskResult r = handle->task_->Step();
  steps_.fetch_add(1, std::memory_order_relaxed);
  switch (r) {
    case TaskResult::kDone:
      done_.fetch_add(1, std::memory_order_relaxed);
      // Overwrites a concurrent kRunningNotified: a wake racing with
      // completion has nothing left to run.
      handle->state.store(TaskHandle::kDone, std::memory_order_release);
      // Release the task object now. Queue readiness listeners hold the
      // TaskRef for the dataflow's lifetime, and the task holds shared_ptrs
      // to its queues — without this reset the cycle
      // queue -> listener -> handle -> task -> queue would leak every
      // query's queues and operator state. A kDone handle is never stepped
      // or enqueued again and Wake() only reads the atomic state, so no
      // other thread can touch task_ past this point.
      handle->task_.reset();
      break;
    case TaskResult::kYield:
      yields_.fetch_add(1, std::memory_order_relaxed);
      handle->state.store(TaskHandle::kQueued, std::memory_order_release);
      Enqueue(handle, /*prefer_local=*/true);
      break;
    case TaskResult::kBlocked: {
      blocks_.fetch_add(1, std::memory_order_relaxed);
      int expected = TaskHandle::kRunning;
      if (!handle->state.compare_exchange_strong(expected, TaskHandle::kIdle,
                                                 std::memory_order_acq_rel)) {
        // A wake slipped in while Step() was deciding to block — the event
        // it was about to wait for already happened. Run it again.
        handle->state.store(TaskHandle::kQueued, std::memory_order_release);
        Enqueue(handle, /*prefer_local=*/true);
      }
      break;
    }
  }
}

void Scheduler::WorkerMain(size_t index) {
  tl_scheduler = this;
  tl_worker_index = index;
  for (;;) {
    // One due timer, then one task: timers fire between steps even while
    // every worker is busy.
    RunDueTimer();
    TaskRef handle = NextTask(index);
    if (handle != nullptr) {
      RunTask(handle);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    if (stop_) return;
    if (ready_.load(std::memory_order_acquire) > 0) continue;
    if (!timers_.empty() && timers_.front().due <= Clock::now()) continue;
    // Park until a task is enqueued, a timer is armed, or the earliest
    // timer comes due. Every loop pass re-checks, so spurious wakes are
    // harmless.
    parks_.fetch_add(1, std::memory_order_relaxed);
    if (timers_.empty()) {
      idle_cv_.wait(lock);
    } else {
      idle_cv_.wait_until(lock, timers_.front().due);
    }
    unparks_.fetch_add(1, std::memory_order_relaxed);
    if (stop_) return;
  }
}

void Scheduler::IoMain() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(io_mu_);
      io_cv_.wait(lock, [this] { return io_stop_ || !io_jobs_.empty(); });
      if (io_jobs_.empty()) return;  // stopped and drained
      job = std::move(io_jobs_.front());
      io_jobs_.pop_front();
    }
    io_count_.fetch_add(1, std::memory_order_relaxed);
    job();
  }
}

}  // namespace lakefed::svc
