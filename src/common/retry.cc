#include "common/retry.h"

#include <algorithm>
#include <cmath>

namespace lakefed {

Status RetryPolicy::Validate() const {
  if (max_attempts < 1) {
    return Status::InvalidArgument("retry max_attempts must be >= 1, got " +
                                   std::to_string(max_attempts));
  }
  if (initial_backoff_ms < 0 || max_backoff_ms < 0) {
    return Status::InvalidArgument("retry backoff must be non-negative");
  }
  if (backoff_multiplier < 1.0) {
    return Status::InvalidArgument(
        "retry backoff_multiplier must be >= 1, got " +
        std::to_string(backoff_multiplier));
  }
  if (jitter < 0 || jitter > 1.0) {
    return Status::InvalidArgument("retry jitter must be in [0, 1], got " +
                                   std::to_string(jitter));
  }
  if (attempt_timeout_ms < 0) {
    return Status::InvalidArgument("retry attempt_timeout_ms must be >= 0");
  }
  return Status::OK();
}

double BackoffMs(const RetryPolicy& policy, int retry_number, Rng* rng) {
  if (retry_number < 1) retry_number = 1;
  double backoff = policy.initial_backoff_ms *
                   std::pow(policy.backoff_multiplier, retry_number - 1);
  backoff = std::min(backoff, policy.max_backoff_ms);
  if (policy.jitter > 0 && rng != nullptr && backoff > 0) {
    backoff *= rng->UniformDouble(1.0 - policy.jitter, 1.0 + policy.jitter);
  }
  return backoff;
}

CancellationToken MakeAttemptToken(const CancellationToken& session,
                                   double attempt_timeout_ms) {
  if (attempt_timeout_ms <= 0) return session;
  auto timeout = std::chrono::duration_cast<CancellationToken::Clock::duration>(
      std::chrono::duration<double, std::milli>(attempt_timeout_ms));
  CancellationToken::Clock::time_point deadline =
      CancellationToken::Clock::now() + timeout;
  // The attempt must also end at the session deadline, whichever is sooner.
  std::optional<CancellationToken::Clock::time_point> session_deadline =
      session.deadline();
  if (session_deadline.has_value() && *session_deadline < deadline) {
    deadline = *session_deadline;
  }
  // Linked: cancelling the session cancels the in-flight attempt with the
  // session's reason, so teardown is prompt and not misread as a retryable
  // per-attempt timeout.
  return session.MakeChild(deadline);
}

Status RunWithRetry(
    const RetryPolicy& policy, const CancellationToken& token, Rng* rng,
    const std::function<Status(const CancellationToken&)>& attempt,
    int* retries_out, const std::function<double(int)>& attempt_timeout_fn) {
  if (retries_out != nullptr) *retries_out = 0;
  Status last = Status::Internal("retry loop made no attempt");
  for (int i = 1; i <= policy.max_attempts; ++i) {
    if (token.IsCancelled()) return token.ToStatus();
    if (i > 1 && retries_out != nullptr) ++*retries_out;
    const double timeout_ms = attempt_timeout_fn != nullptr
                                  ? attempt_timeout_fn(i)
                                  : policy.attempt_timeout_ms;
    last = attempt(MakeAttemptToken(token, timeout_ms));
    if (last.ok() || !last.IsRetryable()) return last;
    // A deadline error caused by the *session* deadline (not the
    // per-attempt timeout) is terminal.
    if (token.IsCancelled()) return token.ToStatus();
    if (i < policy.max_attempts) {
      double backoff = BackoffMs(policy, i, rng);
      if (backoff > 0 && token.SleepFor(backoff)) return token.ToStatus();
    }
  }
  return last;
}

}  // namespace lakefed
