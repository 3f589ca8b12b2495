#include "common/retry.h"

#include <gtest/gtest.h>

#include <vector>

namespace lakefed {
namespace {

TEST(RetryPolicyTest, DefaultIsDisabledAndValid) {
  RetryPolicy policy;
  EXPECT_FALSE(policy.enabled());
  EXPECT_TRUE(policy.Validate().ok());
}

TEST(RetryPolicyTest, ValidateRejectsBadValues) {
  RetryPolicy policy;
  policy.max_attempts = 0;
  EXPECT_TRUE(policy.Validate().IsInvalidArgument());
  policy = RetryPolicy();
  policy.initial_backoff_ms = -1;
  EXPECT_TRUE(policy.Validate().IsInvalidArgument());
  policy = RetryPolicy();
  policy.backoff_multiplier = 0.5;
  EXPECT_TRUE(policy.Validate().IsInvalidArgument());
  policy = RetryPolicy();
  policy.jitter = 1.5;
  EXPECT_TRUE(policy.Validate().IsInvalidArgument());
  policy = RetryPolicy();
  policy.attempt_timeout_ms = -2;
  EXPECT_TRUE(policy.Validate().IsInvalidArgument());
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 35;
  policy.jitter = 0;
  EXPECT_DOUBLE_EQ(BackoffMs(policy, 1, nullptr), 10);
  EXPECT_DOUBLE_EQ(BackoffMs(policy, 2, nullptr), 20);
  EXPECT_DOUBLE_EQ(BackoffMs(policy, 3, nullptr), 35);  // capped
  EXPECT_DOUBLE_EQ(BackoffMs(policy, 9, nullptr), 35);
}

TEST(RetryPolicyTest, JitterIsSeededAndBounded) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 100;
  policy.max_backoff_ms = 100;
  policy.jitter = 0.5;
  Rng a(7), b(7);
  for (int i = 1; i <= 20; ++i) {
    double da = BackoffMs(policy, 1, &a);
    double db = BackoffMs(policy, 1, &b);
    EXPECT_DOUBLE_EQ(da, db);  // same seed, same schedule
    EXPECT_GE(da, 50.0);
    EXPECT_LE(da, 150.0);
  }
}

TEST(RunWithRetryTest, SucceedsFirstTryWithoutRetries) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 0;
  Rng rng(1);
  int calls = 0, retries = -1;
  Status st = RunWithRetry(
      policy, CancellationToken(), &rng,
      [&](const CancellationToken&) {
        ++calls;
        return Status::OK();
      },
      &retries);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0);
}

TEST(RunWithRetryTest, RetriesTransientUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 0;
  Rng rng(1);
  int calls = 0, retries = -1;
  Status st = RunWithRetry(
      policy, CancellationToken(), &rng,
      [&](const CancellationToken&) {
        return ++calls < 3 ? Status::Unavailable("flaky") : Status::OK();
      },
      &retries);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2);
}

TEST(RunWithRetryTest, ExhaustsAttemptsAndReturnsLastError) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 0;
  Rng rng(1);
  int calls = 0, retries = -1;
  Status st = RunWithRetry(
      policy, CancellationToken(), &rng,
      [&](const CancellationToken&) {
        ++calls;
        return Status::IoError("down " + std::to_string(calls));
      },
      &retries);
  EXPECT_TRUE(st.IsIoError());
  EXPECT_EQ(st.message(), "down 4");
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(retries, 3);
}

TEST(RunWithRetryTest, PermanentErrorIsNotRetried) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  Rng rng(1);
  int calls = 0;
  Status st = RunWithRetry(policy, CancellationToken(), &rng,
                           [&](const CancellationToken&) {
                             ++calls;
                             return Status::InvalidArgument("bad query");
                           });
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(calls, 1);
}

TEST(RunWithRetryTest, CancelledTokenStopsBeforeFirstAttempt) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  CancellationToken token = CancellationToken::Cancellable();
  token.Cancel();
  Rng rng(1);
  int calls = 0;
  Status st = RunWithRetry(policy, token, &rng, [&](const CancellationToken&) {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(st.IsCancelled());
  EXPECT_EQ(calls, 0);
}

TEST(RunWithRetryTest, SessionCancellationDuringAttemptIsTerminal) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 0;
  CancellationToken token = CancellationToken::Cancellable();
  Rng rng(1);
  int calls = 0;
  Status st = RunWithRetry(policy, token, &rng,
                           [&](const CancellationToken&) {
                             ++calls;
                             token.Cancel();
                             return Status::Unavailable("transient");
                           });
  // The error is retryable but the session died: no further attempts.
  EXPECT_TRUE(st.IsCancelled());
  EXPECT_EQ(calls, 1);
}

TEST(RunWithRetryTest, PerAttemptDeadlineExceededIsRetried) {
  // An attempt that blows its own timeout fails with kDeadlineExceeded,
  // which is retryable — the next attempt gets a fresh deadline. This pins
  // the distinction documented in retry.cc: per-attempt expiry retries,
  // session expiry (next test) is terminal.
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 0;
  policy.jitter = 0;
  policy.attempt_timeout_ms = 5;
  Rng rng(1);
  int calls = 0, retries = -1;
  Status st = RunWithRetry(
      policy, CancellationToken::Cancellable(), &rng,
      [&](const CancellationToken& attempt) {
        ++calls;
        if (calls < 3) {
          attempt.SleepFor(50);  // outlive the 5 ms attempt timeout
          return attempt.ToStatus();
        }
        return Status::OK();
      },
      &retries);
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2);
}

TEST(RunWithRetryTest, SessionDeadlineExpiryIsTerminal) {
  // The same kDeadlineExceeded error is terminal when the *session* token
  // expired: no further attempts run even though attempts remain in the
  // budget. The session expires inside the first attempt — promoted the
  // way an observed deadline is, by cancelling the session with
  // kDeadlineExceeded — so the test never races the wall clock. The
  // attempt runs on a per-attempt child token, whose own timeout would be
  // retryable: only the session's state makes this error final.
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 0;
  policy.jitter = 0;
  policy.attempt_timeout_ms = 60'000;
  CancellationToken session = CancellationToken::Cancellable();
  Rng rng(1);
  int calls = 0, retries = -1;
  Status st = RunWithRetry(
      policy, session, &rng,
      [&](const CancellationToken& attempt) {
        ++calls;
        session.CancelWith(Status::DeadlineExceeded("query deadline exceeded"));
        EXPECT_TRUE(attempt.IsCancelled());
        return attempt.ToStatus();
      },
      &retries);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st;
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0);
}

TEST(RunWithRetryTest, AttemptTimeoutFnOverridesStaticTimeout) {
  // The per-attempt timeout provider (adaptive timeouts) wins over the
  // static policy value, and is re-consulted for every attempt with the
  // 1-based attempt number.
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 0;
  policy.jitter = 0;
  policy.attempt_timeout_ms = 60'000;  // static value would never expire here
  Rng rng(1);
  int calls = 0, retries = -1;
  std::vector<int> asked;
  Status st = RunWithRetry(
      policy, CancellationToken::Cancellable(), &rng,
      [&](const CancellationToken& attempt) {
        ++calls;
        if (calls < 3) {
          attempt.SleepFor(50);  // outlive the 5 ms adaptive timeout
          return attempt.ToStatus();
        }
        return Status::OK();
      },
      &retries,
      [&](int attempt_number) {
        asked.push_back(attempt_number);
        return 5.0;
      });
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2);
  EXPECT_EQ(asked, (std::vector<int>{1, 2, 3}));
}

TEST(RunWithRetryTest, AttemptTimeoutFnIsClampedToSessionDeadline) {
  // Regression: an adaptive timeout far beyond the session's remaining
  // deadline must not extend the attempt past the session — the attempt
  // token's deadline is clamped to the sooner of the two.
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 0;
  policy.jitter = 0;
  CancellationToken session = CancellationToken::WithDeadline(
      CancellationToken::Clock::now() + std::chrono::milliseconds(5));
  Rng rng(1);
  int calls = 0;
  Status st = RunWithRetry(
      policy, session, &rng,
      [&](const CancellationToken& attempt) {
        ++calls;
        EXPECT_TRUE(attempt.deadline().has_value());
        EXPECT_LE(*attempt.deadline(), *session.deadline());
        attempt.SleepFor(60'000);  // woken by the clamped deadline, not 60 s
        return attempt.ToStatus();
      },
      nullptr, [](int) { return 3'600'000.0; });
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st;
  EXPECT_EQ(calls, 1);  // session expiry is terminal: no second attempt
}

TEST(MakeAttemptTokenTest, NoTimeoutReturnsSessionToken) {
  CancellationToken session = CancellationToken::Cancellable();
  CancellationToken attempt = MakeAttemptToken(session, 0);
  session.Cancel();
  EXPECT_TRUE(attempt.IsCancelled());
}

TEST(MakeAttemptTokenTest, AttemptTimeoutExpiresIndependently) {
  CancellationToken session = CancellationToken::Cancellable();
  CancellationToken attempt = MakeAttemptToken(session, 5);
  attempt.SleepFor(50);
  EXPECT_TRUE(attempt.IsCancelled());
  EXPECT_TRUE(attempt.ToStatus().IsDeadlineExceeded());
  EXPECT_FALSE(session.IsCancelled());  // the session survives the attempt
}

TEST(MakeAttemptTokenTest, SessionCancelPropagatesToAttempt) {
  CancellationToken session = CancellationToken::Cancellable();
  CancellationToken attempt = MakeAttemptToken(session, 60000);
  session.Cancel();
  EXPECT_TRUE(attempt.IsCancelled());
  EXPECT_TRUE(attempt.ToStatus().IsCancelled());
}

TEST(MakeAttemptTokenTest, AttemptBoundedBySoonerSessionDeadline) {
  CancellationToken session = CancellationToken::WithDeadline(
      CancellationToken::Clock::now() + std::chrono::milliseconds(5));
  CancellationToken attempt = MakeAttemptToken(session, 60000);
  ASSERT_TRUE(attempt.deadline().has_value());
  EXPECT_EQ(*attempt.deadline(), *session.deadline());
}

}  // namespace
}  // namespace lakefed
