// BlockingQueue<T>: a bounded multi-producer multi-consumer queue used to
// connect leaf jobs, operator tasks and the consuming client in the
// federated engine (the ANAPSID-style adaptive dataflow).
//
// Elements move in batches (morsels): PushBatch moves a whole vector under
// one lock acquisition and PopBatch drains up to a maximum count under one.
// Capacity is counted in elements, so back-pressure granularity does not
// depend on batch size — a batch larger than the free space is admitted in
// segments, waiting in between.
//
// Semantics:
//  * PushBatch blocks while the queue is full (back-pressure).
//  * PopBatch blocks while the queue is empty and not closed.
//  * Close() wakes all waiters; after close, pushes are rejected and pops
//    drain the remaining elements, then report exhaustion.
//  * Both observe an optional CancellationToken: they give up as soon as
//    it is cancelled — PopBatch does NOT drain remaining elements, so a
//    cancelled dataflow tears down promptly — and its deadline bounds
//    every wait, so a thread blocked on a full or empty queue notices the
//    expiry without outside help. Explicit Cancel() does not signal the
//    queue's own condition variables; the session wires
//    `token.OnCancel([q] { q->Close(); })` for each queue so blocked
//    waiters wake immediately (closing is idempotent).
//  * TryPushBatch / TryPopBatch never block; cooperative tasks pair them
//    with the readiness listeners.
// Waits are attributed once per batch call and the occupancy sample is
// taken once per successful batch push.

#ifndef LAKEFED_COMMON_BLOCKING_QUEUE_H_
#define LAKEFED_COMMON_BLOCKING_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/stopwatch.h"

namespace lakefed {

// Optional queue-wait observer (the federated executor attaches one per
// operator queue when metrics collection is on): reports every blocking
// wait with its duration plus a queue-depth occupancy sample per push.
// Implementations must be thread-safe; callbacks run outside the queue
// lock. With no observer attached the queue's code path is unchanged — no
// clock reads, no virtual calls.
class QueueWaitObserver {
 public:
  virtual ~QueueWaitObserver() = default;
  // A Push had to wait `wait_ms` for space. Reported even when the wait
  // ended in close, cancellation or deadline expiry rather than a
  // successful push, so teardown stalls are accounted too.
  virtual void OnPushWait(double wait_ms) = 0;
  // A Pop had to wait `wait_ms` for an item (same accounting contract).
  virtual void OnPopWait(double wait_ms) = 0;
  // Queue depth right after a successful push (occupancy sample).
  virtual void OnDepth(size_t depth) = 0;
};

template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(size_t capacity = 1024) : capacity_(capacity) {}

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  // Counts every successful Push (used for operator statistics). Must be
  // set before producers start.
  void set_push_counter(std::shared_ptr<std::atomic<uint64_t>> counter) {
    push_counter_ = std::move(counter);
  }

  // Attaches the wait observer. Like the push counter, must be set before
  // any producer or consumer thread starts.
  void set_wait_observer(std::shared_ptr<QueueWaitObserver> observer) {
    observer_ = std::move(observer);
  }

  // The attached observer (null when none). Cooperative tasks use this to
  // report the block time their non-blocking Try* calls cannot measure, so
  // a parked task's wait is attributed like a blocking call's.
  QueueWaitObserver* wait_observer() const { return observer_.get(); }

  // Readiness listeners (the cooperative-scheduler hook): a readable
  // listener fires when the queue transitions empty -> non-empty and when
  // it closes; a writable listener fires when occupancy drops from full
  // back below capacity and when it closes. Transitions are detected under
  // the queue lock but the callbacks run outside it, so a listener may
  // safely re-enter the queue. Spurious invocations are allowed and
  // expected — listeners must re-check state, not assume progress. Like
  // the observer, listeners must be registered before any producer or
  // consumer starts.
  void AddReadableListener(std::function<void()> fn) {
    readable_listeners_.push_back(std::move(fn));
  }
  void AddWritableListener(std::function<void()> fn) {
    writable_listeners_.push_back(std::move(fn));
  }

  // Batch push: moves every element of `*items` into the queue, waiting
  // for room as needed. Elements are admitted in order, possibly in
  // several segments when the batch exceeds the free space. Returns true
  // once the whole batch is in; returns false — dropping the not-yet
  // admitted remainder — as soon as the queue
  // is closed or the token is cancelled/expired. `*items` is cleared on
  // return either way. A default-constructed token (never cancelled, no
  // deadline) waits for room or close only.
  bool PushBatch(std::vector<T>* items,
                 const CancellationToken& token = CancellationToken()) {
    const size_t n = items->size();
    if (n == 0) return true;
    double wait_ms = 0;
    bool waited = false;
    size_t next = 0;  // elements [0, next) have been admitted
    for (;;) {
      if (token.IsCancelled()) break;
      std::unique_lock<std::mutex> lock(mu_);
      if (closed_) {
        lock.unlock();
        break;
      }
      if (items_.size() < capacity_) {
        const bool was_empty = items_.empty();
        const size_t take = std::min(capacity_ - items_.size(), n - next);
        for (size_t i = 0; i < take; ++i) {
          items_.push_back(std::move((*items)[next + i]));
        }
        next += take;
        const size_t depth = items_.size();
        lock.unlock();
        if (push_counter_ != nullptr) {
          push_counter_->fetch_add(take, std::memory_order_relaxed);
        }
        if (take > 1) {
          not_empty_.notify_all();
        } else {
          not_empty_.notify_one();
        }
        if (was_empty) NotifyReadable();
        if (next == n) {
          items->clear();
          ReportPushWait(waited, wait_ms);
          if (observer_ != nullptr) observer_->OnDepth(depth);
          return true;
        }
        continue;
      }
      waited = true;
      bool ok;
      if (observer_ != nullptr) {
        Stopwatch wait;
        ok = WaitFor(not_full_, lock, token,
                     [&] { return closed_ || items_.size() < capacity_; });
        wait_ms += wait.ElapsedMillis();
      } else {
        ok = WaitFor(not_full_, lock, token,
                     [&] { return closed_ || items_.size() < capacity_; });
      }
      if (!ok) {
        // Deadline expired while the queue was still full: promote the
        // expiry to cancellation (outside the lock) and give up.
        lock.unlock();
        token.IsCancelled();
        break;
      }
    }
    // Closed, cancelled or expired: elements [next, n) drop with the batch.
    items->clear();
    ReportPushWait(waited, wait_ms);
    return false;
  }

  // Batch pop: clears `*out`, then blocks until at least one element is
  // available (or the queue is exhausted / the token fires) and moves up
  // to `max_items` elements out under one lock acquisition. Returns the
  // number of elements delivered; 0 means exhaustion, cancellation or
  // deadline expiry. Does NOT wait for a full batch: whatever is queued
  // when the wait ends is delivered, so batching never adds latency.
  size_t PopBatch(std::vector<T>* out, size_t max_items,
                  const CancellationToken& token = CancellationToken()) {
    out->clear();
    if (max_items == 0) return 0;
    double wait_ms = 0;
    bool waited = false;
    for (;;) {
      if (token.IsCancelled()) {
        ReportPopWait(waited, wait_ms);
        return 0;
      }
      std::unique_lock<std::mutex> lock(mu_);
      if (!items_.empty()) {
        const bool was_full = items_.size() >= capacity_;
        const size_t take = std::min(max_items, items_.size());
        out->reserve(take);
        for (size_t i = 0; i < take; ++i) {
          out->push_back(std::move(items_.front()));
          items_.pop_front();
        }
        lock.unlock();
        ReportPopWait(waited, wait_ms);
        if (take > 1) {
          not_full_.notify_all();
        } else {
          not_full_.notify_one();
        }
        if (was_full) NotifyWritable();
        return take;
      }
      if (closed_) {
        lock.unlock();
        ReportPopWait(waited, wait_ms);
        return 0;
      }
      waited = true;
      bool ok;
      if (observer_ != nullptr) {
        Stopwatch wait;
        ok = WaitFor(not_empty_, lock, token,
                     [&] { return closed_ || !items_.empty(); });
        wait_ms += wait.ElapsedMillis();
      } else {
        ok = WaitFor(not_empty_, lock, token,
                     [&] { return closed_ || !items_.empty(); });
      }
      if (!ok) {
        // Deadline expired on an empty queue: promote and return promptly.
        lock.unlock();
        token.IsCancelled();
        ReportPopWait(waited, wait_ms);
        return 0;
      }
    }
  }

  // Non-blocking batch pop: clears `*out` and moves up to `max_items`
  // immediately-available elements into it. Returns the count (0 when the
  // queue is currently empty). `*exhausted`, when non-null, is set to true
  // iff the queue is closed with nothing left — the caller's signal to
  // finish rather than wait for a readable event.
  size_t TryPopBatch(std::vector<T>* out, size_t max_items,
                     bool* exhausted = nullptr) {
    out->clear();
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty() || max_items == 0) {
      if (exhausted != nullptr) *exhausted = closed_ && items_.empty();
      return 0;
    }
    if (exhausted != nullptr) *exhausted = false;
    const bool was_full = items_.size() >= capacity_;
    const size_t take = std::min(max_items, items_.size());
    out->reserve(take);
    for (size_t i = 0; i < take; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    lock.unlock();
    if (take > 1) {
      not_full_.notify_all();
    } else {
      not_full_.notify_one();
    }
    if (was_full) NotifyWritable();
    return take;
  }

  // Non-blocking batch push of (*items)[*pos ..): admits as many elements
  // as currently fit and advances `*pos` past them — position-based so a
  // partially shipped batch needs no front erase. Returns false iff the
  // queue is closed (the caller should drop the remainder); true otherwise,
  // with `*pos < items->size()` meaning "full for now, retry after a
  // writable event".
  bool TryPushBatch(std::vector<T>* items, size_t* pos) {
    const size_t n = items->size();
    if (*pos >= n) return true;
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) return false;
    if (items_.size() >= capacity_) return true;
    const bool was_empty = items_.empty();
    const size_t take = std::min(capacity_ - items_.size(), n - *pos);
    for (size_t i = 0; i < take; ++i) {
      items_.push_back(std::move((*items)[*pos + i]));
    }
    *pos += take;
    const size_t depth = items_.size();
    lock.unlock();
    if (push_counter_ != nullptr) {
      push_counter_->fetch_add(take, std::memory_order_relaxed);
    }
    if (observer_ != nullptr) observer_->OnDepth(depth);
    if (take > 1) {
      not_empty_.notify_all();
    } else {
      not_empty_.notify_one();
    }
    if (was_empty) NotifyReadable();
    return true;
  }

  // Marks the queue closed. Producers are rejected from now on; consumers
  // drain what is left. Readiness listeners fire on the first close: a
  // closed queue is both "readable" (pops now terminate) and "writable"
  // (pushes now fail fast) for a cooperative task.
  void Close() {
    bool was_closed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      was_closed = closed_;
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
    if (!was_closed) {
      NotifyReadable();
      NotifyWritable();
    }
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  // True once the queue is closed and all items have been consumed.
  bool exhausted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_ && items_.empty();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  // Deferred wait reporting for the token-aware loops: waits accumulate
  // across loop iterations and are reported once per call, on every exit
  // path (success, close, cancellation, deadline).
  void ReportPushWait(bool waited, double wait_ms) {
    if (waited && observer_ != nullptr) observer_->OnPushWait(wait_ms);
  }
  void ReportPopWait(bool waited, double wait_ms) {
    if (waited && observer_ != nullptr) observer_->OnPopWait(wait_ms);
  }

  // Listener firing, always outside the queue lock. The vectors are frozen
  // before any producer/consumer starts (same contract as the observer), so
  // iterating without the lock is race-free.
  void NotifyReadable() {
    for (const std::function<void()>& fn : readable_listeners_) fn();
  }
  void NotifyWritable() {
    for (const std::function<void()>& fn : writable_listeners_) fn();
  }

  // One bounded wait: until the predicate holds, the token's deadline
  // passes, or (via the OnCancel queue-closing callback) a cancellation
  // closes the queue. Returns true when the predicate held at wake-up;
  // false means the deadline passed with the predicate still false — the
  // caller must treat that as cancellation and bail out, because looping
  // back would make every subsequent wait_until return immediately and
  // turn the wait into a hot spin.
  template <typename Pred>
  static bool WaitFor(std::condition_variable& cv,
                      std::unique_lock<std::mutex>& lock,
                      const CancellationToken& token, Pred pred) {
    auto deadline = token.deadline();
    if (deadline.has_value()) {
      return cv.wait_until(lock, *deadline, pred);
    }
    cv.wait(lock, pred);
    return true;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  std::shared_ptr<std::atomic<uint64_t>> push_counter_;
  std::shared_ptr<QueueWaitObserver> observer_;
  std::vector<std::function<void()>> readable_listeners_;
  std::vector<std::function<void()>> writable_listeners_;
};

}  // namespace lakefed

#endif  // LAKEFED_COMMON_BLOCKING_QUEUE_H_
