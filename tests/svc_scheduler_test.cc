// Scheduler tests: the task state machine (done/yield/blocked + Wake), the
// auxiliary I/O pool, and the property the executor hangs on — a
// federated execution whose operators run as cooperative tasks on a shared
// pool returns exactly the single-store oracle's answers, for every
// benchmark query in every plan mode, with EXPLAIN ANALYZE wait
// attribution still populated.

#include "svc/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fed_test_util.h"
#include "lslod/queries.h"
#include "obs/profile.h"

namespace lakefed::svc {
namespace {

// Spin-waits (bounded) until `pred` holds; the scheduler has no join-on-task
// primitive by design (executions track their own tasks via TaskGroup).
template <typename Pred>
bool WaitFor(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

class CountingTask : public Task {
 public:
  CountingTask(int yields, std::atomic<int>* steps, std::atomic<bool>* done)
      : remaining_(yields), steps_(steps), done_(done) {}

  TaskResult Step() override {
    steps_->fetch_add(1);
    if (remaining_-- > 0) return TaskResult::kYield;
    done_->store(true);
    return TaskResult::kDone;
  }

 private:
  int remaining_;
  std::atomic<int>* steps_;
  std::atomic<bool>* done_;
};

TEST(SchedulerTest, TaskRunsToCompletionAfterWake) {
  Scheduler sched(Scheduler::Config{2, 1});
  std::atomic<int> steps{0};
  std::atomic<bool> done{false};
  auto ref = sched.Register(
      std::make_unique<CountingTask>(/*yields=*/5, &steps, &done));
  // Registered tasks are parked: nothing runs until the first Wake.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(steps.load(), 0);
  sched.Wake(ref);
  ASSERT_TRUE(WaitFor([&] { return done.load(); }));
  EXPECT_EQ(steps.load(), 6);  // 5 yields + the final kDone step
}

TEST(SchedulerTest, WakeAfterDoneIsANoOp) {
  Scheduler sched(Scheduler::Config{1, 1});
  std::atomic<int> steps{0};
  std::atomic<bool> done{false};
  auto ref =
      sched.Register(std::make_unique<CountingTask>(0, &steps, &done));
  sched.Wake(ref);
  ASSERT_TRUE(WaitFor([&] { return done.load(); }));
  sched.Wake(ref);
  sched.Wake(ref);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(steps.load(), 1);
}

// Owns a heap sentinel, so a test can observe (via weak_ptr) exactly when
// the task object itself is destroyed.
class SentinelTask : public Task {
 public:
  explicit SentinelTask(std::shared_ptr<int> sentinel)
      : sentinel_(std::move(sentinel)) {}
  TaskResult Step() override { return TaskResult::kDone; }

 private:
  std::shared_ptr<int> sentinel_;
};

// Regression: queue readiness listeners hold TaskRefs for as long as the
// queues live, and tasks hold their queues — the scheduler must release the
// task object the moment it finishes, or every completed dataflow leaks
// through the queue -> listener -> handle -> task -> queue cycle.
TEST(SchedulerTest, FinishedTaskIsReleasedWhileHandleStillHeld) {
  Scheduler sched(Scheduler::Config{1, 1});
  auto sentinel = std::make_shared<int>(42);
  std::weak_ptr<int> watch = sentinel;
  auto ref = sched.Register(std::make_unique<SentinelTask>(std::move(sentinel)));
  Scheduler::TaskRef listener_copy = ref;  // a listener's captured ref
  sched.Wake(ref);
  EXPECT_TRUE(WaitFor([&] { return watch.expired(); }))
      << "task object (and whatever it owns) not released after kDone";
  // The handle itself stays valid for late wakes from still-live listeners.
  sched.Wake(listener_copy);
}

// A task that blocks until an external flag flips; every Wake gives it one
// look at the flag. Exercises the kBlocked <-> Wake handshake.
class BlockingFlagTask : public Task {
 public:
  BlockingFlagTask(std::atomic<bool>* flag, std::atomic<bool>* done)
      : flag_(flag), done_(done) {}

  TaskResult Step() override {
    if (!flag_->load()) return TaskResult::kBlocked;
    done_->store(true);
    return TaskResult::kDone;
  }

 private:
  std::atomic<bool>* flag_;
  std::atomic<bool>* done_;
};

TEST(SchedulerTest, BlockedTaskResumesOnWake) {
  Scheduler sched(Scheduler::Config{2, 1});
  std::atomic<bool> flag{false};
  std::atomic<bool> done{false};
  auto ref =
      sched.Register(std::make_unique<BlockingFlagTask>(&flag, &done));
  sched.Wake(ref);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());  // parked on kBlocked
  flag.store(true);
  sched.Wake(ref);
  EXPECT_TRUE(WaitFor([&] { return done.load(); }));
}

TEST(SchedulerTest, ManyTasksAllComplete) {
  Scheduler sched(Scheduler::Config{4, 1});
  constexpr int kTasks = 200;
  std::atomic<int> steps{0};
  std::vector<std::unique_ptr<std::atomic<bool>>> done;
  std::vector<Scheduler::TaskRef> refs;
  for (int i = 0; i < kTasks; ++i) {
    done.push_back(std::make_unique<std::atomic<bool>>(false));
    refs.push_back(sched.Register(
        std::make_unique<CountingTask>(i % 7, &steps, done.back().get())));
  }
  for (const auto& ref : refs) sched.Wake(ref);
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& d : done) {
      if (!d->load()) return false;
    }
    return true;
  }));
  EXPECT_GE(sched.stats().steps, static_cast<uint64_t>(kTasks));
}

TEST(SchedulerTest, IoJobsRunAndAreCounted) {
  Scheduler sched(Scheduler::Config{1, 2});
  constexpr int kJobs = 32;
  std::atomic<int> ran{0};
  for (int i = 0; i < kJobs; ++i) {
    sched.SubmitIo([&ran] { ran.fetch_add(1); });
  }
  ASSERT_TRUE(WaitFor([&] { return ran.load() == kJobs; }));
  EXPECT_EQ(sched.stats().io_jobs, static_cast<uint64_t>(kJobs));
}

TEST(SchedulerTest, DefaultConfigSizesPools) {
  Scheduler sched;
  EXPECT_GE(sched.num_workers(), 1u);
  EXPECT_GE(sched.num_io_threads(), 4u);
}

// ---------------------------------------------------------------------
// Timers.

TEST(SchedulerTimerTest, TimersFireInDueOrder) {
  Scheduler sched(Scheduler::Config{1, 1});
  std::mutex mu;
  std::vector<int> fired;
  const auto base = Scheduler::Clock::now() + std::chrono::milliseconds(20);
  // Armed out of order; the two equal due times keep arming order.
  for (int ms : {30, 10, 20, 0}) {
    sched.RunAt(base + std::chrono::milliseconds(ms), [&mu, &fired, ms] {
      std::lock_guard<std::mutex> lock(mu);
      fired.push_back(ms);
    });
  }
  sched.RunAt(base + std::chrono::milliseconds(20), [&mu, &fired] {
    std::lock_guard<std::mutex> lock(mu);
    fired.push_back(21);
  });
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return fired.size() == 5;
  }));
  EXPECT_EQ(fired, (std::vector<int>{0, 10, 20, 21, 30}));
}

TEST(SchedulerTimerTest, PastDueTimerFiresPromptly) {
  Scheduler sched(Scheduler::Config{1, 1});
  std::atomic<bool> fired{false};
  const auto armed = Scheduler::Clock::now();
  sched.RunAt(armed - std::chrono::seconds(1), [&fired] { fired = true; });
  ASSERT_TRUE(WaitFor([&] { return fired.load(); }));
  EXPECT_LT(Scheduler::Clock::now() - armed, std::chrono::milliseconds(500));
}

TEST(SchedulerTimerTest, TimerWakesParkedWorkers) {
  Scheduler sched(Scheduler::Config{2, 1});
  // Let both workers park with no timer armed (an indefinite wait).
  ASSERT_TRUE(WaitFor([&] { return sched.stats().parks >= 2; }));
  const uint64_t unparks = sched.stats().unparks;
  std::atomic<bool> fired{false};
  const auto due = Scheduler::Clock::now() + std::chrono::milliseconds(30);
  sched.RunAt(due, [&fired] { fired = true; });
  ASSERT_TRUE(WaitFor([&] { return fired.load(); }));
  EXPECT_GE(Scheduler::Clock::now(), due);
  EXPECT_GT(sched.stats().unparks, unparks);
  // No task ran: the timer fired on a worker that was parked.
  EXPECT_EQ(sched.stats().steps, 0u);
}

// Yields until the flag is set, keeping a worker busy.
class SpinTask : public Task {
 public:
  SpinTask(std::atomic<bool>* stop, std::atomic<int>* steps)
      : stop_(stop), steps_(steps) {}
  TaskResult Step() override {
    steps_->fetch_add(1);
    return stop_->load() ? TaskResult::kDone : TaskResult::kYield;
  }

 private:
  std::atomic<bool>* stop_;
  std::atomic<int>* steps_;
};

TEST(SchedulerTimerTest, TimerFiresWhileWorkersAreBusy) {
  Scheduler sched(Scheduler::Config{1, 1});
  std::atomic<bool> stop{false};
  std::atomic<int> steps{0};
  // A task that keeps yielding holds the only worker busy.
  auto ref = sched.Register(std::make_unique<SpinTask>(&stop, &steps));
  sched.Wake(ref);
  ASSERT_TRUE(WaitFor([&] { return steps.load() > 100; }));
  std::atomic<bool> fired{false};
  sched.RunAt(Scheduler::Clock::now() + std::chrono::milliseconds(5),
              [&fired] { fired = true; });
  EXPECT_TRUE(WaitFor([&] { return fired.load(); }));
  stop = true;
}

TEST(SchedulerTimerTest, DestructorDropsPendingTimers) {
  std::atomic<bool> fired{false};
  auto pinned = std::make_shared<int>(7);
  const auto start = Scheduler::Clock::now();
  {
    Scheduler sched(Scheduler::Config{1, 1});
    sched.RunAt(Scheduler::Clock::now() + std::chrono::hours(1),
                [&fired, pinned] { fired = true; });
    EXPECT_EQ(pinned.use_count(), 2);
  }
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(pinned.use_count(), 1);  // the closure was destroyed, unrun
  EXPECT_LT(Scheduler::Clock::now() - start, std::chrono::seconds(5));
}

// ---------------------------------------------------------------------
// Equivalence: the task dataflow on a dedicated pool answers every
// benchmark query exactly like the single-store oracle. (The test name
// predates the removal of the thread-per-operator dataflow it was once
// compared with.)

struct SchedCase {
  fed::PlanMode mode;
  bool dependent;
};

class SchedulerEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, SchedCase>> {};

TEST_P(SchedulerEquivalenceTest, SameAnswersAsThreadDataflow) {
  auto lake = BuildTinyLake(/*scale=*/0.05);
  ASSERT_NE(lake, nullptr);
  const auto& [query_id, sched_case] = GetParam();
  const lslod::BenchmarkQuery* query = lslod::FindQuery(query_id);
  ASSERT_NE(query, nullptr);

  fed::PlanOptions options;
  options.mode = sched_case.mode;
  options.use_dependent_join = sched_case.dependent;
  options.network = net::NetworkProfile::Gamma3();
  options.network.time_scale = 0.001;

  Scheduler sched(Scheduler::Config{2, 4});
  options.scheduler = &sched;
  auto tasked = lake->engine->Execute(query->sparql, options);
  ASSERT_TRUE(tasked.ok()) << tasked.status();
  EXPECT_EQ(SerializeAnswers(*tasked), OracleAnswers(*lake, query->sparql))
      << query_id;
}

INSTANTIATE_TEST_SUITE_P(
    AllQueriesBothModes, SchedulerEquivalenceTest,
    ::testing::Combine(
        ::testing::Values("Q1", "Q2", "Q3", "Q4", "Q5", "FIG1"),
        ::testing::Values(
            SchedCase{fed::PlanMode::kPhysicalDesignUnaware, false},
            SchedCase{fed::PlanMode::kPhysicalDesignAware, false},
            SchedCase{fed::PlanMode::kPhysicalDesignAware, true})),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      const SchedCase& c = std::get<1>(info.param);
      name += c.mode == fed::PlanMode::kPhysicalDesignAware ? "_aware"
                                                            : "_unaware";
      if (c.dependent) name += "_depjoin";
      return name;
    });

// One scheduler shared by many back-to-back executions: task registration
// and queue listeners from different sessions must not interfere.
TEST(SchedulerEquivalenceMiscTest, SchedulerIsReusableAcrossExecutions) {
  auto lake = BuildTinyLake(/*scale=*/0.05);
  ASSERT_NE(lake, nullptr);
  const lslod::BenchmarkQuery* q1 = lslod::FindQuery("Q1");
  ASSERT_NE(q1, nullptr);
  Scheduler sched(Scheduler::Config{2, 4});
  fed::PlanOptions options;
  options.scheduler = &sched;
  std::vector<std::string> first;
  for (int i = 0; i < 3; ++i) {
    auto answer = lake->engine->Execute(q1->sparql, options);
    ASSERT_TRUE(answer.ok()) << answer.status();
    std::vector<std::string> rows = SerializeAnswers(*answer);
    if (i == 0) {
      first = std::move(rows);
      EXPECT_EQ(first, OracleAnswers(*lake, q1->sparql));
    } else {
      EXPECT_EQ(rows, first);
    }
  }
  EXPECT_GT(sched.stats().steps, 0u);
}

// EXPLAIN ANALYZE on a dedicated pool matches the engine's own pool: the
// same operator tree with the same per-operator output row counts, and the
// runtime accounting (queue waits, wall time) still captured. Wait times
// may legitimately be ~0 on a fast query, but the structures must be
// populated.
TEST(SchedulerEquivalenceMiscTest, ExplainAnalyzeStillPopulatedUnderScheduler) {
  auto lake = BuildTinyLake(/*scale=*/0.05);
  ASSERT_NE(lake, nullptr);
  const lslod::BenchmarkQuery* q2 = lslod::FindQuery("Q2");
  ASSERT_NE(q2, nullptr);
  Scheduler sched(Scheduler::Config{2, 4});

  fed::PlanOptions engine_pool_opts;
  engine_pool_opts.collect_metrics = true;
  auto engine_pool = lake->engine->Execute(q2->sparql, engine_pool_opts);
  ASSERT_TRUE(engine_pool.ok()) << engine_pool.status();

  fed::PlanOptions tasked_opts = engine_pool_opts;
  tasked_opts.scheduler = &sched;
  auto tasked = lake->engine->Execute(q2->sparql, tasked_opts);
  ASSERT_TRUE(tasked.ok()) << tasked.status();

  // Same plan, same operator set, same per-operator output row counts.
  auto op_rows = [](const fed::QueryAnswer& answer) {
    std::multiset<std::pair<std::string, uint64_t>> ops;
    for (const obs::OperatorRuntime& op : answer.operator_runtime) {
      ops.emplace(op.label, op.rows);
    }
    return ops;
  };
  EXPECT_EQ(op_rows(*tasked), op_rows(*engine_pool));
  // Queue-depth samples show the wait observers were attached and
  // exercised.
  uint64_t depth_samples = 0;
  for (const obs::OperatorRuntime& rt : tasked->operator_runtime) {
    depth_samples += rt.depth_samples;
  }
  EXPECT_GT(depth_samples, 0u);
}

}  // namespace
}  // namespace lakefed::svc
