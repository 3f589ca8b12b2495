#include "common/blocking_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/cancellation.h"
#include "common/stopwatch.h"

namespace lakefed {
namespace {

// One-element transfers through the batch API: the queue moves batches
// only, and a batch of one behaves as a single push or pop did.
template <typename T>
bool Push1(BlockingQueue<T>& q, std::type_identity_t<T> item,
           const CancellationToken& token = CancellationToken()) {
  std::vector<T> one;
  one.push_back(std::move(item));
  return q.PushBatch(&one, token);
}

template <typename T>
std::optional<T> Pop1(BlockingQueue<T>& q,
                      const CancellationToken& token = CancellationToken()) {
  std::vector<T> out;
  if (q.PopBatch(&out, 1, token) == 0) return std::nullopt;
  return std::move(out.front());
}

template <typename T>
std::optional<T> TryPop1(BlockingQueue<T>& q) {
  std::vector<T> out;
  if (q.TryPopBatch(&out, 1) == 0) return std::nullopt;
  return std::move(out.front());
}

TEST(BlockingQueueTest, PushPopSingleThread) {
  BlockingQueue<int> q(4);
  EXPECT_TRUE(Push1(q, 1));
  EXPECT_TRUE(Push1(q, 2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(Pop1(q), 1);
  EXPECT_EQ(Pop1(q), 2);
  EXPECT_EQ(TryPop1(q), std::nullopt);
}

TEST(BlockingQueueTest, CloseDrainsThenExhausts) {
  BlockingQueue<int> q(4);
  Push1(q, 1);
  Push1(q, 2);
  q.Close();
  EXPECT_FALSE(Push1(q, 3));  // rejected after close
  EXPECT_EQ(Pop1(q), 1);
  EXPECT_EQ(Pop1(q), 2);
  EXPECT_EQ(Pop1(q), std::nullopt);
  EXPECT_TRUE(q.exhausted());
}

TEST(BlockingQueueTest, PopBlocksUntilPush) {
  BlockingQueue<int> q(4);
  std::optional<int> got;
  std::thread consumer([&] { got = Pop1(q); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Push1(q, 42);
  consumer.join();
  EXPECT_EQ(got, 42);
}

TEST(BlockingQueueTest, PushBlocksWhenFull) {
  BlockingQueue<int> q(1);
  Push1(q, 1);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    Push1(q, 2);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(Pop1(q), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(Pop1(q), 2);
}

TEST(BlockingQueueTest, CloseWakesBlockedConsumer) {
  BlockingQueue<int> q(4);
  std::optional<int> got = 7;
  std::thread consumer([&] { got = Pop1(q); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
  EXPECT_EQ(got, std::nullopt);
}

TEST(BlockingQueueTest, CloseWakesBlockedProducer) {
  BlockingQueue<int> q(1);
  Push1(q, 1);
  std::atomic<bool> result{true};
  std::thread producer([&] { result = Push1(q, 2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
  EXPECT_FALSE(result.load());
}

TEST(BlockingQueueTest, ManyProducersManyConsumers) {
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 1000;
  BlockingQueue<int> q(16);
  std::atomic<int64_t> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) Push1(q, p * kPerProducer + i);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = Pop1(q)) {
        sum += *v;
        ++consumed;
      }
    });
  }
  for (auto& t : threads) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  int total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), int64_t{total} * (total - 1) / 2);
}

TEST(BlockingQueueTest, MoveOnlyPayload) {
  BlockingQueue<std::unique_ptr<int>> q(2);
  Push1(q, std::make_unique<int>(9));
  auto v = Pop1(q);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 9);
}

// --- cancellation-token integration (streaming sessions) ---

TEST(BlockingQueueTest, CancelUnblocksProducerOnFullQueue) {
  // Teardown regression: a producer blocked on a full queue whose consumer
  // is gone must unwind when the session cancels. The session wires
  // OnCancel -> Close for every queue; Push(token) must then return false
  // instead of deadlocking on the full queue.
  auto q = std::make_shared<BlockingQueue<int>>(1);
  CancellationToken token = CancellationToken::Cancellable();
  token.OnCancel([q] { q->Close(); });
  ASSERT_TRUE(Push1(*q, 1, token));  // queue now full
  std::atomic<bool> result{true};
  std::thread producer([&] { result = Push1(*q, 2, token); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(result.load());  // still blocked (not yet returned)
  token.Cancel();
  producer.join();
  EXPECT_FALSE(result.load());
}

TEST(BlockingQueueTest, CancelledPopDoesNotDrain) {
  BlockingQueue<int> q(4);
  CancellationToken token = CancellationToken::Cancellable();
  Push1(q, 1, token);
  Push1(q, 2, token);
  token.Cancel();
  // Remaining items must not be drained after cancellation.
  EXPECT_EQ(Pop1(q, token), std::nullopt);
  EXPECT_EQ(q.size(), 2u);
  // The plain overload still drains (legacy close semantics are untouched).
  EXPECT_EQ(Pop1(q), 1);
}

TEST(BlockingQueueTest, ClosedFullQueueRejectsTokenPush) {
  BlockingQueue<int> q(1);
  CancellationToken token = CancellationToken::Cancellable();
  ASSERT_TRUE(Push1(q, 1, token));
  q.Close();
  // Closed-but-full: the push must fail immediately, not block for room.
  EXPECT_FALSE(Push1(q, 2, token));
}

TEST(BlockingQueueTest, DeadlineWakesBlockedConsumer) {
  BlockingQueue<int> q(4);
  CancellationToken token = CancellationToken::WithDeadline(
      CancellationToken::Clock::now() + std::chrono::milliseconds(50));
  Stopwatch sw;
  EXPECT_EQ(Pop1(q, token), std::nullopt);  // empty queue, never closed
  EXPECT_LT(sw.ElapsedSeconds(), 5.0);
  EXPECT_TRUE(token.ToStatus().IsDeadlineExceeded());
}

TEST(BlockingQueueTest, DeadlineWakesBlockedProducer) {
  BlockingQueue<int> q(1);
  CancellationToken token = CancellationToken::WithDeadline(
      CancellationToken::Clock::now() + std::chrono::milliseconds(50));
  ASSERT_TRUE(Push1(q, 1, token));
  Stopwatch sw;
  EXPECT_FALSE(Push1(q, 2, token));  // full queue, no consumer
  EXPECT_LT(sw.ElapsedSeconds(), 5.0);
  EXPECT_TRUE(token.ToStatus().IsDeadlineExceeded());
}

TEST(BlockingQueueTest, ExpiredDeadlinePushReturnsPromptly) {
  // A token whose deadline already passed (without an explicit Cancel)
  // must make a full-queue push give up on the first bounded wait — the
  // past-deadline wait_until returns immediately, and looping back would
  // spin hot. "Promptly" here is loose enough for a loaded CI machine but
  // far below what even a brief spin-then-give-up would allow to recur.
  BlockingQueue<int> q(1);
  CancellationToken token = CancellationToken::WithDeadline(
      CancellationToken::Clock::now() - std::chrono::milliseconds(10));
  // Fill the queue via the plain overload: the expired token would refuse.
  ASSERT_TRUE(Push1(q, 1));
  Stopwatch sw;
  EXPECT_FALSE(Push1(q, 2, token));
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
  EXPECT_TRUE(token.ToStatus().IsDeadlineExceeded());
}

TEST(BlockingQueueTest, ExpiredDeadlinePopReturnsPromptly) {
  BlockingQueue<int> q(4);
  CancellationToken token = CancellationToken::WithDeadline(
      CancellationToken::Clock::now() - std::chrono::milliseconds(10));
  Stopwatch sw;
  EXPECT_EQ(Pop1(q, token), std::nullopt);  // empty, never closed
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
  EXPECT_TRUE(token.ToStatus().IsDeadlineExceeded());
}

// --- queue-wait observer (profiler instrumentation) ---

// Counts callbacks and accumulates reported wait time. The queue promises
// callbacks run outside its lock, but they may come from several threads.
class RecordingObserver : public QueueWaitObserver {
 public:
  void OnPushWait(double wait_ms) override {
    push_waits_.fetch_add(1);
    AddMs(push_wait_us_, wait_ms);
  }
  void OnPopWait(double wait_ms) override {
    pop_waits_.fetch_add(1);
    AddMs(pop_wait_us_, wait_ms);
  }
  void OnDepth(size_t depth) override {
    depth_samples_.fetch_add(1);
    size_t prev = peak_depth_.load();
    while (depth > prev && !peak_depth_.compare_exchange_weak(prev, depth)) {
    }
  }

  int push_waits() const { return push_waits_.load(); }
  int pop_waits() const { return pop_waits_.load(); }
  int depth_samples() const { return depth_samples_.load(); }
  size_t peak_depth() const { return peak_depth_.load(); }
  double push_wait_ms() const { return push_wait_us_.load() / 1e3; }
  double pop_wait_ms() const { return pop_wait_us_.load() / 1e3; }

 private:
  static void AddMs(std::atomic<int64_t>& us, double ms) {
    us.fetch_add(static_cast<int64_t>(ms * 1e3));
  }
  std::atomic<int> push_waits_{0}, pop_waits_{0}, depth_samples_{0};
  std::atomic<size_t> peak_depth_{0};
  std::atomic<int64_t> push_wait_us_{0}, pop_wait_us_{0};
};

TEST(BlockingQueueObserverTest, UncontendedOpsReportDepthButNoWaits) {
  BlockingQueue<int> q(4);
  auto obs = std::make_shared<RecordingObserver>();
  q.set_wait_observer(obs);
  Push1(q, 1);
  Push1(q, 2);
  EXPECT_EQ(Pop1(q), 1);
  EXPECT_EQ(Pop1(q), 2);
  EXPECT_EQ(obs->push_waits(), 0);
  EXPECT_EQ(obs->pop_waits(), 0);
  // One occupancy sample per successful push; second push saw depth 2.
  EXPECT_EQ(obs->depth_samples(), 2);
  EXPECT_EQ(obs->peak_depth(), 2u);
}

TEST(BlockingQueueObserverTest, ProducerWaitIsReportedWithDuration) {
  BlockingQueue<int> q(1);
  auto obs = std::make_shared<RecordingObserver>();
  q.set_wait_observer(obs);
  Push1(q, 1);  // full
  std::thread producer([&] { Push1(q, 2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(Pop1(q), 1);
  producer.join();
  EXPECT_EQ(obs->push_waits(), 1);
  // Slept ~30ms while the producer was blocked; allow generous CI slack.
  EXPECT_GE(obs->push_wait_ms(), 5.0);
}

TEST(BlockingQueueObserverTest, ConsumerWaitIsReportedWithDuration) {
  BlockingQueue<int> q(4);
  auto obs = std::make_shared<RecordingObserver>();
  q.set_wait_observer(obs);
  std::thread consumer([&] { EXPECT_EQ(Pop1(q), 42); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Push1(q, 42);
  consumer.join();
  EXPECT_EQ(obs->pop_waits(), 1);
  EXPECT_GE(obs->pop_wait_ms(), 5.0);
}

TEST(BlockingQueueObserverTest, WaitEndedByCloseIsStillReported) {
  // Teardown stalls must be accounted: a producer blocked on a full queue
  // that unwinds via Close() still reports its wait.
  BlockingQueue<int> q(1);
  auto obs = std::make_shared<RecordingObserver>();
  q.set_wait_observer(obs);
  Push1(q, 1);
  std::thread producer([&] { EXPECT_FALSE(Push1(q, 2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  producer.join();
  EXPECT_EQ(obs->push_waits(), 1);
  EXPECT_GE(obs->push_wait_ms(), 5.0);
  // The failed push contributes no occupancy sample.
  EXPECT_EQ(obs->depth_samples(), 1);
}

TEST(BlockingQueueObserverTest, TokenCancellationReportsWaits) {
  auto q = std::make_shared<BlockingQueue<int>>(1);
  auto obs = std::make_shared<RecordingObserver>();
  q->set_wait_observer(obs);
  CancellationToken token = CancellationToken::Cancellable();
  token.OnCancel([q] { q->Close(); });
  ASSERT_TRUE(Push1(*q, 1, token));
  std::thread producer([&] { EXPECT_FALSE(Push1(*q, 2, token)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  token.Cancel();
  producer.join();
  EXPECT_EQ(obs->push_waits(), 1);
  EXPECT_GE(obs->push_wait_ms(), 5.0);
}

TEST(BlockingQueueObserverTest, DeadlineExpiryReportsWaits) {
  BlockingQueue<int> q(4);
  auto obs = std::make_shared<RecordingObserver>();
  q.set_wait_observer(obs);
  CancellationToken token = CancellationToken::WithDeadline(
      CancellationToken::Clock::now() + std::chrono::milliseconds(30));
  EXPECT_EQ(Pop1(q, token), std::nullopt);  // empty queue: waits out deadline
  EXPECT_EQ(obs->pop_waits(), 1);
  EXPECT_GE(obs->pop_wait_ms(), 5.0);
}

TEST(BlockingQueueObserverTest, TokenPushSamplesDepth) {
  BlockingQueue<int> q(4);
  auto obs = std::make_shared<RecordingObserver>();
  q.set_wait_observer(obs);
  CancellationToken token = CancellationToken::Cancellable();
  Push1(q, 1, token);
  Push1(q, 2, token);
  Push1(q, 3, token);
  EXPECT_EQ(obs->depth_samples(), 3);
  EXPECT_EQ(obs->peak_depth(), 3u);
  EXPECT_EQ(obs->push_waits(), 0);
}

// ---- Batch transfer (PushBatch / PopBatch) -------------------------------

TEST(BlockingQueueBatchTest, PushBatchPopBatchRoundTrip) {
  BlockingQueue<int> q(16);
  std::vector<int> in{1, 2, 3, 4, 5};
  EXPECT_TRUE(q.PushBatch(&in));
  EXPECT_TRUE(in.empty());  // consumed either way
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 16), 5u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(BlockingQueueBatchTest, PopBatchRespectsMaxItems) {
  BlockingQueue<int> q(16);
  std::vector<int> in{1, 2, 3, 4, 5};
  ASSERT_TRUE(q.PushBatch(&in));
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 2), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.PopBatch(&out, 2), 2u);
  EXPECT_EQ(out, (std::vector<int>{3, 4}));
  EXPECT_EQ(q.PopBatch(&out, 2), 1u);  // delivers what is there, no wait
  EXPECT_EQ(out, (std::vector<int>{5}));
}

TEST(BlockingQueueBatchTest, OversizedBatchAdmitsInSegments) {
  // Batch of 10 through a capacity-3 queue: the producer admits segments
  // as the consumer makes room; every element arrives exactly once, in
  // order (row-granular backpressure, batched wake-ups).
  BlockingQueue<int> q(3);
  std::vector<int> in{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.PushBatch(&in));
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // blocked: batch exceeds capacity
  std::vector<int> all, out;
  while (all.size() < 10) {
    if (q.PopBatch(&out, 4) == 0) break;
    all.insert(all.end(), out.begin(), out.end());
  }
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(BlockingQueueBatchTest, PushBatchRejectedAfterClose) {
  BlockingQueue<int> q(8);
  q.Close();
  std::vector<int> in{1, 2, 3};
  EXPECT_FALSE(q.PushBatch(&in));
  EXPECT_TRUE(in.empty());  // remainder drops with the batch
  EXPECT_EQ(q.size(), 0u);
}

TEST(BlockingQueueBatchTest, PopBatchDrainsThenExhaustsAfterClose) {
  BlockingQueue<int> q(8);
  std::vector<int> in{7, 8};
  ASSERT_TRUE(q.PushBatch(&in));
  q.Close();
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 8), 2u);  // close drains remaining items
  EXPECT_EQ(q.PopBatch(&out, 8), 0u);  // then exhaustion
}

TEST(BlockingQueueBatchTest, CloseWakesProducerMidBatchWithoutDuplicates) {
  // Producer blocked mid-batch (2 of 6 admitted) is woken by Close():
  // PushBatch returns false and the consumer sees exactly the admitted
  // prefix — nothing torn, nothing duplicated.
  BlockingQueue<int> q(2);
  std::vector<int> in{1, 2, 3, 4, 5, 6};
  std::thread producer([&] { EXPECT_FALSE(q.PushBatch(&in)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  producer.join();
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 8), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.PopBatch(&out, 8), 0u);
}

TEST(BlockingQueueBatchTest, CancelledPopBatchDoesNotDrain) {
  auto q = std::make_shared<BlockingQueue<int>>(8);
  std::vector<int> in{1, 2, 3};
  ASSERT_TRUE(q->PushBatch(&in));
  CancellationToken token = CancellationToken::Cancellable();
  token.Cancel();
  std::vector<int> out;
  EXPECT_EQ(q->PopBatch(&out, 8, token), 0u);  // teardown must not drain
  EXPECT_EQ(q->size(), 3u);
}

TEST(BlockingQueueBatchTest, CancelMidBatchDropsRemainder) {
  auto q = std::make_shared<BlockingQueue<int>>(2);
  CancellationToken token = CancellationToken::Cancellable();
  token.OnCancel([q] { q->Close(); });
  std::vector<int> in{1, 2, 3, 4, 5};
  std::thread producer([&] { EXPECT_FALSE(q->PushBatch(&in, token)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  token.Cancel();
  producer.join();
  EXPECT_EQ(q->size(), 2u);  // the admitted prefix only
}

TEST(BlockingQueueBatchTest, DeadlineWakesBlockedBatchProducerAndConsumer) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(Push1(q, 1));
  CancellationToken token = CancellationToken::WithDeadline(
      CancellationToken::Clock::now() + std::chrono::milliseconds(30));
  std::vector<int> in{2, 3};
  Stopwatch sw;
  EXPECT_FALSE(q.PushBatch(&in, token));  // full queue: waits out deadline
  EXPECT_LT(sw.ElapsedSeconds(), 2.0);

  BlockingQueue<int> empty(1);
  CancellationToken token2 = CancellationToken::WithDeadline(
      CancellationToken::Clock::now() + std::chrono::milliseconds(30));
  std::vector<int> out;
  Stopwatch sw2;
  EXPECT_EQ(empty.PopBatch(&out, 4, token2), 0u);
  EXPECT_LT(sw2.ElapsedSeconds(), 2.0);
}

TEST(BlockingQueueBatchTest, PushBatchCountsEveryRowInPushCounter) {
  BlockingQueue<int> q(16);
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  q.set_push_counter(counter);
  std::vector<int> in{1, 2, 3, 4};
  ASSERT_TRUE(q.PushBatch(&in));
  EXPECT_EQ(counter->load(), 4u);  // rows, not batches
}

TEST(BlockingQueueBatchObserverTest, UncontendedBatchReportsOneDepthNoWaits) {
  BlockingQueue<int> q(16);
  auto obs = std::make_shared<RecordingObserver>();
  q.set_wait_observer(obs);
  std::vector<int> in{1, 2, 3, 4, 5};
  ASSERT_TRUE(q.PushBatch(&in));
  EXPECT_EQ(obs->push_waits(), 0);    // no contention: no wait reported
  EXPECT_EQ(obs->depth_samples(), 1); // one occupancy sample per batch push
  EXPECT_EQ(obs->peak_depth(), 5u);
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 16), 5u);
  EXPECT_EQ(obs->pop_waits(), 0);
}

TEST(BlockingQueueBatchObserverTest, SegmentedPushReportsOneAccumulatedWait) {
  // A batch admitted in several segments (waiting in between) reports ONE
  // OnPushWait covering the accumulated wait, not one per segment.
  BlockingQueue<int> q(2);
  auto obs = std::make_shared<RecordingObserver>();
  q.set_wait_observer(obs);
  std::vector<int> in{1, 2, 3, 4, 5, 6};
  std::thread producer([&] { EXPECT_TRUE(q.PushBatch(&in)); });
  std::vector<int> all, out;
  while (all.size() < 6) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (q.PopBatch(&out, 2) == 0) break;
    all.insert(all.end(), out.begin(), out.end());
  }
  producer.join();
  EXPECT_EQ(all.size(), 6u);
  EXPECT_EQ(obs->push_waits(), 1);
  EXPECT_GE(obs->push_wait_ms(), 5.0);
  EXPECT_EQ(obs->depth_samples(), 1);
}

TEST(BlockingQueueBatchObserverTest, BlockedPopBatchReportsWait) {
  BlockingQueue<int> q(4);
  auto obs = std::make_shared<RecordingObserver>();
  q.set_wait_observer(obs);
  std::vector<int> out;
  std::thread consumer([&] { EXPECT_EQ(q.PopBatch(&out, 4), 2u); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<int> in{1, 2};
  ASSERT_TRUE(q.PushBatch(&in));
  consumer.join();
  EXPECT_EQ(obs->pop_waits(), 1);
  EXPECT_GE(obs->pop_wait_ms(), 5.0);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(BlockingQueueBatchTest, BatchAndRowOpsInterleave) {
  // Batches of different sizes, blocking and non-blocking, share one
  // queue: the element stream stays a plain FIFO regardless of transfer
  // granularity.
  BlockingQueue<int> q(16);
  ASSERT_TRUE(Push1(q, 1));
  std::vector<int> in{2, 3};
  ASSERT_TRUE(q.PushBatch(&in));
  ASSERT_TRUE(Push1(q, 4));
  EXPECT_EQ(Pop1(q), 1);
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 2), 2u);
  EXPECT_EQ(out, (std::vector<int>{2, 3}));
  EXPECT_EQ(Pop1(q), 4);
}

TEST(BlockingQueueBatchTest, MoveOnlyBatchPayload) {
  BlockingQueue<std::unique_ptr<int>> q(8);
  std::vector<std::unique_ptr<int>> in;
  in.push_back(std::make_unique<int>(1));
  in.push_back(std::make_unique<int>(2));
  ASSERT_TRUE(q.PushBatch(&in));
  std::vector<std::unique_ptr<int>> out;
  ASSERT_EQ(q.PopBatch(&out, 8), 2u);
  EXPECT_EQ(*out[0], 1);
  EXPECT_EQ(*out[1], 2);
}

// --- readiness listeners + non-blocking ops (the scheduler hooks) -------

TEST(BlockingQueueListenerTest, ReadableFiresOnEmptyToNonEmpty) {
  BlockingQueue<int> q(4);
  int fired = 0;
  q.AddReadableListener([&fired] { ++fired; });
  Push1(q, 1);  // empty -> non-empty
  EXPECT_EQ(fired, 1);
  Push1(q, 2);  // already non-empty: no new edge
  EXPECT_EQ(fired, 1);
  Pop1(q);
  Pop1(q);    // drained
  Push1(q, 3);  // empty -> non-empty again
  EXPECT_EQ(fired, 2);
}

TEST(BlockingQueueListenerTest, WritableFiresOnFullToBelowCapacity) {
  BlockingQueue<int> q(2);
  int fired = 0;
  q.AddWritableListener([&fired] { ++fired; });
  Push1(q, 1);
  Push1(q, 2);  // now full
  EXPECT_EQ(fired, 0);
  Pop1(q);    // full -> below capacity
  EXPECT_EQ(fired, 1);
  Pop1(q);    // was not full: no edge
  EXPECT_EQ(fired, 1);
}

TEST(BlockingQueueListenerTest, CloseFiresBothOnce) {
  BlockingQueue<int> q(4);
  int readable = 0, writable = 0;
  q.AddReadableListener([&readable] { ++readable; });
  q.AddWritableListener([&writable] { ++writable; });
  q.Close();
  EXPECT_EQ(readable, 1);
  EXPECT_EQ(writable, 1);
  q.Close();  // idempotent: no second notification
  EXPECT_EQ(readable, 1);
  EXPECT_EQ(writable, 1);
}

TEST(BlockingQueueListenerTest, TryPushBatchFiresReadableListener) {
  BlockingQueue<int> q(2);
  int fired = 0;
  q.AddReadableListener([&fired] { ++fired; });
  std::vector<int> batch = {1, 2, 3};
  size_t pos = 0;
  EXPECT_TRUE(q.TryPushBatch(&batch, &pos));
  EXPECT_EQ(pos, 2u);     // capacity-bounded partial admit
  EXPECT_EQ(fired, 1);    // empty -> non-empty
  EXPECT_TRUE(q.TryPushBatch(&batch, &pos));
  EXPECT_EQ(pos, 2u);     // full: no progress, no edge
  EXPECT_EQ(fired, 1);
}

TEST(BlockingQueueListenerTest, TryPopBatchFiresWritableListener) {
  BlockingQueue<int> q(2);
  int fired = 0;
  q.AddWritableListener([&fired] { ++fired; });
  Push1(q, 1);
  Push1(q, 2);  // full
  std::vector<int> out;
  bool exhausted = true;
  EXPECT_EQ(q.TryPopBatch(&out, 8, &exhausted), 2u);
  EXPECT_FALSE(exhausted);
  EXPECT_EQ(fired, 1);  // full -> below capacity
  EXPECT_EQ(q.TryPopBatch(&out, 8, &exhausted), 0u);
  EXPECT_FALSE(exhausted);  // empty but still open
  q.Close();
  EXPECT_EQ(q.TryPopBatch(&out, 8, &exhausted), 0u);
  EXPECT_TRUE(exhausted);  // closed and drained
}

TEST(BlockingQueueListenerTest, TryPushBatchRejectedAfterClose) {
  BlockingQueue<int> q(4);
  q.Close();
  std::vector<int> batch = {1, 2};
  size_t pos = 0;
  EXPECT_FALSE(q.TryPushBatch(&batch, &pos));
  EXPECT_EQ(pos, 0u);
}

TEST(BlockingQueueListenerTest, ListenerMayReenterQueue) {
  // Listeners run outside the queue lock, so a callback can immediately
  // drain what was just pushed — the cooperative-scheduler pattern.
  BlockingQueue<int> q(4);
  std::vector<int> seen;
  q.AddReadableListener([&q, &seen] {
    std::vector<int> out;
    q.TryPopBatch(&out, 8);
    for (int v : out) seen.push_back(v);
  });
  Push1(q, 7);
  EXPECT_EQ(seen, std::vector<int>({7}));
}

}  // namespace
}  // namespace lakefed
