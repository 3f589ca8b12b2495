#include "common/cancellation.h"

#include <thread>
#include <utility>

namespace lakefed {

CancellationToken CancellationToken::Cancellable() {
  return CancellationToken(std::make_shared<State>());
}

CancellationToken CancellationToken::WithDeadline(Clock::time_point deadline) {
  auto state = std::make_shared<State>();
  state->has_deadline = true;
  state->deadline = deadline;
  return CancellationToken(std::move(state));
}

bool CancellationToken::IsCancelled() const {
  if (state_ == nullptr) return false;
  if (state_->cancelled.load(std::memory_order_acquire)) return true;
  if (state_->has_deadline && Clock::now() >= state_->deadline) {
    // Lazy promotion: whoever observes the expiry first cancels for all.
    const_cast<CancellationToken*>(this)->CancelWith(
        Status::DeadlineExceeded("query deadline exceeded"));
    return true;
  }
  return false;
}

Status CancellationToken::ToStatus() const {
  if (!IsCancelled()) return Status::OK();
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->reason;
}

void CancellationToken::Cancel() {
  CancelWith(Status::Cancelled("query cancelled"));
}

void CancellationToken::CancelWith(Status reason) {
  if (state_ == nullptr) return;
  std::vector<std::function<void()>> callbacks;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->cancelled.load(std::memory_order_relaxed)) return;
    state_->reason =
        reason.ok() ? Status::Cancelled("query cancelled") : std::move(reason);
    state_->cancelled.store(true, std::memory_order_release);
    callbacks.swap(state_->callbacks);
  }
  state_->cv.notify_all();
  // Outside the lock: callbacks take their own locks (queue closure).
  for (const std::function<void()>& fn : callbacks) fn();
}

std::optional<CancellationToken::Clock::time_point>
CancellationToken::deadline() const {
  if (state_ == nullptr || !state_->has_deadline) return std::nullopt;
  return state_->deadline;
}

CancellationToken CancellationToken::MakeChild(
    std::optional<Clock::time_point> deadline) const {
  CancellationToken child = deadline.has_value() ? WithDeadline(*deadline)
                                                 : Cancellable();
  if (state_ == nullptr) return child;
  // The callback lives in the parent's state: a strong capture of the
  // parent would be a cycle that keeps an uncancelled parent (and every
  // callback registered on it) alive forever.
  std::weak_ptr<State> parent = state_;
  std::weak_ptr<State> weak_child = child.state_;
  CancellationToken(state_).OnCancel([parent, weak_child] {
    std::shared_ptr<State> p = parent.lock();
    std::shared_ptr<State> c = weak_child.lock();
    if (p == nullptr || c == nullptr) return;
    Status reason;
    {
      std::lock_guard<std::mutex> lock(p->mu);
      reason = p->reason;
    }
    CancellationToken(std::move(c)).CancelWith(std::move(reason));
  });
  return child;
}

void CancellationToken::OnCancel(std::function<void()> fn) {
  if (state_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!state_->cancelled.load(std::memory_order_relaxed)) {
      state_->callbacks.push_back(std::move(fn));
      return;
    }
  }
  fn();  // already cancelled: fire immediately
}

bool CancellationToken::SleepFor(double ms) const {
  auto duration = std::chrono::duration<double, std::milli>(ms);
  if (state_ == nullptr) {
    std::this_thread::sleep_for(duration);
    return false;
  }
  Clock::time_point until =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(duration);
  if (state_->has_deadline && state_->deadline < until) {
    until = state_->deadline;
  }
  {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait_until(lock, until, [&] {
      return state_->cancelled.load(std::memory_order_relaxed);
    });
  }
  return IsCancelled();
}

}  // namespace lakefed
