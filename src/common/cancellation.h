// CancellationToken: cooperative cancellation and deadline propagation for
// streaming query sessions. A token is a cheap shared handle; every operator
// thread, wrapper and delay channel of one session holds a copy and polls
// IsCancelled() (a relaxed atomic load on the hot path).
//
// Cancellation has two triggers:
//  * Cancel() / CancelWith(status) — an explicit request (ResultStream::Cancel).
//  * An expired deadline — promoted lazily: the first caller of IsCancelled()
//    (or SleepFor/queue wait) past the deadline cancels the token for
//    everyone with kDeadlineExceeded.
// Either way the registered OnCancel callbacks fire exactly once; the
// executor uses them to close every queue of the dataflow so blocked
// producers and consumers wake promptly instead of draining.
//
// A default-constructed token is "null": it never cancels, has no deadline,
// and costs one branch per check — the pre-session blocking API runs on it.

#ifndef LAKEFED_COMMON_CANCELLATION_H_
#define LAKEFED_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"

namespace lakefed {

class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancellationToken() = default;  // null token: never cancels

  // A token that can be cancelled explicitly.
  static CancellationToken Cancellable();
  // A cancellable token that also self-cancels (kDeadlineExceeded) once
  // `deadline` passes.
  static CancellationToken WithDeadline(Clock::time_point deadline);

  bool can_cancel() const { return state_ != nullptr; }

  // True once cancelled or past the deadline. Observing an expired deadline
  // promotes it to a full cancellation (fires the OnCancel callbacks).
  bool IsCancelled() const;

  // OK while live; the cancellation reason (kCancelled or
  // kDeadlineExceeded) afterwards.
  Status ToStatus() const;

  void Cancel();                  // cancel with kCancelled
  void CancelWith(Status reason); // cancel with a specific reason; first wins

  std::optional<Clock::time_point> deadline() const;

  // A child token that self-cancels at `deadline` (none = no deadline of
  // its own) and is cancelled with this token's reason when this token is.
  // Cancelling the child leaves this token alone. The link holds neither
  // token strongly, so it pins no state: an uncancelled parent is freed
  // with its last handle, and a dropped child is simply not cancelled.
  CancellationToken MakeChild(
      std::optional<Clock::time_point> deadline) const;

  // Registers `fn` to run exactly once upon cancellation — immediately if
  // the token is already cancelled. Callbacks run on the cancelling thread
  // and must not call back into the token. Anything they reference must be
  // kept alive by the closure (capture shared_ptrs).
  void OnCancel(std::function<void()> fn);

  // Sleeps for `ms` milliseconds, capped at the deadline and woken early by
  // cancellation. Returns IsCancelled() afterwards. On a null token this is
  // a plain sleep returning false.
  bool SleepFor(double ms) const;

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::mutex mu;
    std::condition_variable cv;
    Status reason;  // guarded by mu; set once, readable after `cancelled`
    bool has_deadline = false;
    Clock::time_point deadline{};
    std::vector<std::function<void()>> callbacks;  // guarded by mu
  };

  explicit CancellationToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

}  // namespace lakefed

#endif  // LAKEFED_COMMON_CANCELLATION_H_
