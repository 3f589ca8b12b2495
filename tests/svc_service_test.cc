// QueryService tests: admission control (bounded queue, shedding), priority
// classes, per-tenant quotas, deadlines that include queue time, cancel of
// queued and running submissions, service metrics surfaced through
// FederatedEngine::MetricsSnapshot, and a >=64-session stress mix whose
// successful answers must all be exact — no torn or duplicated rows.

#include "svc/service.h"

#include <gtest/gtest.h>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fed_test_util.h"
#include "lslod/queries.h"

namespace lakefed::svc {
namespace {

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake_ = BuildTinyLake(/*scale=*/0.05);
    ASSERT_NE(lake_, nullptr);
  }

  ServiceRequest Request(const std::string& query_id,
                         Priority priority = Priority::kInteractive,
                         const std::string& tenant = "default") {
    const lslod::BenchmarkQuery* q = lslod::FindQuery(query_id);
    EXPECT_NE(q, nullptr);
    ServiceRequest request;
    request.tenant = tenant;
    request.priority = priority;
    request.query = fed::QueryRequest::Text(q->sparql);
    return request;
  }

  std::unique_ptr<lslod::DataLake> lake_;
};

TEST_F(QueryServiceTest, ExecutesQueryAndMatchesOracle) {
  ServiceConfig config;
  config.scheduler.workers = 2;
  QueryService service(lake_->engine.get(), config);
  Result<fed::QueryAnswer> answer = service.Execute(Request("Q1"));
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(SerializeAnswers(*answer),
            OracleAnswers(*lake_, lslod::FindQuery("Q1")->sparql));
}

TEST_F(QueryServiceTest, ShedsWhenAdmissionQueueFull) {
  ServiceConfig config;
  config.scheduler.workers = 1;
  config.max_concurrent_sessions = 1;
  config.max_queued = 2;
  config.degrade_batch_under_pressure = false;
  QueryService service(lake_->engine.get(), config);
  // Saturate: one running + two queued, then the next submit is shed.
  std::vector<std::shared_ptr<Submission>> held;
  size_t shed = 0;
  for (int i = 0; i < 16; ++i) {
    auto sub = service.Submit(Request("Q2"));
    if (sub.ok()) {
      held.push_back(*sub);
    } else {
      EXPECT_TRUE(sub.status().IsResourceExhausted()) << sub.status();
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u);
  for (const auto& sub : held) sub->Wait();
  EXPECT_EQ(service.stats().shed, shed);
}

TEST_F(QueryServiceTest, TenantQuotaCapsConcurrency) {
  ServiceConfig config;
  config.scheduler.workers = 2;
  config.max_concurrent_sessions = 4;
  config.tenant_quotas["greedy"] = 1;
  QueryService service(lake_->engine.get(), config);
  std::vector<std::shared_ptr<Submission>> subs;
  for (int i = 0; i < 6; ++i) {
    auto sub = service.Submit(Request("Q1", Priority::kBatch, "greedy"));
    ASSERT_TRUE(sub.ok()) << sub.status();
    subs.push_back(*sub);
  }
  // While anything of greedy's runs, at most one runs. Sample a few times.
  for (int i = 0; i < 20; ++i) {
    auto tenants = service.Tenants();
    auto it = tenants.find("greedy");
    if (it != tenants.end()) {
      EXPECT_LE(it->second.running, 1u);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (const auto& sub : subs) {
    EXPECT_TRUE(sub->Wait().ok()) << sub->Wait().status();
  }
}

TEST_F(QueryServiceTest, DeadlineExpiresInQueueWithoutRunning) {
  ServiceConfig config;
  config.scheduler.workers = 1;
  config.max_concurrent_sessions = 1;
  QueryService service(lake_->engine.get(), config);
  // Occupy the single run slot, then submit with a deadline too short to
  // survive the queue.
  auto blocker = service.Submit(Request("Q4"));
  ASSERT_TRUE(blocker.ok());
  ServiceRequest doomed = Request("Q1");
  doomed.query.timeout = std::chrono::milliseconds(1);
  auto sub = service.Submit(std::move(doomed));
  ASSERT_TRUE(sub.ok());
  const Result<fed::QueryAnswer>& outcome = (*sub)->Wait();
  EXPECT_TRUE(!outcome.ok() && outcome.status().IsDeadlineExceeded())
      << (outcome.ok() ? "ok" : outcome.status().ToString());
  (*blocker)->Wait();
  EXPECT_GE(service.stats().expired, 1u);
}

TEST_F(QueryServiceTest, CancelWhileQueuedCompletesWithCancelled) {
  ServiceConfig config;
  config.scheduler.workers = 1;
  config.max_concurrent_sessions = 1;
  QueryService service(lake_->engine.get(), config);
  auto blocker = service.Submit(Request("Q4"));
  ASSERT_TRUE(blocker.ok());
  auto sub = service.Submit(Request("Q1"));
  ASSERT_TRUE(sub.ok());
  (*sub)->Cancel();
  const Result<fed::QueryAnswer>& outcome = (*sub)->Wait();
  EXPECT_TRUE(!outcome.ok() && outcome.status().IsCancelled())
      << (outcome.ok() ? "ok" : outcome.status().ToString());
  (*blocker)->Wait();
}

TEST_F(QueryServiceTest, InteractiveDispatchesBeforeBatch) {
  ServiceConfig config;
  config.scheduler.workers = 1;
  config.max_concurrent_sessions = 1;
  QueryService service(lake_->engine.get(), config);
  // Fill the single run slot with a slow (simulated-delay) query, so both
  // contenders below are reliably queued together behind it.
  ServiceRequest slow = Request("Q4");
  slow.query.options.network = net::NetworkProfile::Gamma3();
  slow.query.options.network.time_scale = 0.05;
  auto blocker = service.Submit(std::move(slow));
  ASSERT_TRUE(blocker.ok());
  while (service.stats().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Batch first, interactive second: the interactive one must still be
  // dispatched first, which shows as a strictly shorter queue wait (the
  // batch one's wait additionally covers the interactive run).
  auto batch = service.Submit(Request("Q1", Priority::kBatch));
  ASSERT_TRUE(batch.ok());
  auto interactive = service.Submit(Request("Q1", Priority::kInteractive));
  ASSERT_TRUE(interactive.ok());
  ASSERT_TRUE((*interactive)->Wait().ok());
  ASSERT_TRUE((*batch)->Wait().ok());
  EXPECT_LT((*interactive)->queue_wait_ms(), (*batch)->queue_wait_ms());
  (*blocker)->Wait();
}

TEST_F(QueryServiceTest, MetricsSurfaceThroughEngineSnapshot) {
  ServiceConfig config;
  config.scheduler.workers = 2;
  QueryService service(lake_->engine.get(), config);
  ASSERT_TRUE(service.Execute(Request("Q1")).ok());
  ASSERT_TRUE(service.Execute(Request("Q2")).ok());
  obs::MetricsSnapshot snapshot = lake_->engine->MetricsSnapshot();
  const auto* live = snapshot.FindGauge("svc.sessions.live");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->value, 0);  // nothing in flight anymore
  const auto* admitted = snapshot.FindCounter("svc.admission.admitted");
  ASSERT_NE(admitted, nullptr);
  EXPECT_EQ(admitted->value, 2u);
  const auto* queued = snapshot.FindCounter("svc.admission.queued");
  ASSERT_NE(queued, nullptr);
  EXPECT_EQ(queued->value, 2u);
  const auto* shed = snapshot.FindCounter("svc.admission.shed");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->value, 0u);
  const auto* completed = snapshot.FindCounter("svc.sessions.completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->value, 2u);
}

TEST_F(QueryServiceTest, ShutdownFailsQueuedRequests) {
  ServiceConfig config;
  config.scheduler.workers = 1;
  config.max_concurrent_sessions = 1;
  QueryService service(lake_->engine.get(), config);
  auto blocker = service.Submit(Request("Q4"));
  ASSERT_TRUE(blocker.ok());
  auto queued = service.Submit(Request("Q1"));
  ASSERT_TRUE(queued.ok());
  service.Shutdown();
  const Result<fed::QueryAnswer>& outcome = (*queued)->Wait();
  EXPECT_TRUE(!outcome.ok() && outcome.status().IsUnavailable())
      << (outcome.ok() ? "ok" : outcome.status().ToString());
  auto late = service.Submit(Request("Q1"));
  EXPECT_FALSE(late.ok());
}

// Shutdown is documented idempotent and must also be safe concurrently: no
// caller may return while a session is still running or a submission is
// still incomplete.
TEST_F(QueryServiceTest, ConcurrentShutdownIsSafe) {
  ServiceConfig config;
  config.scheduler.workers = 2;
  config.max_concurrent_sessions = 2;
  QueryService service(lake_->engine.get(), config);
  std::vector<std::shared_ptr<Submission>> subs;
  for (const char* id : {"Q1", "Q2", "Q3", "Q4"}) {
    auto sub = service.Submit(Request(id));
    ASSERT_TRUE(sub.ok());
    subs.push_back(*sub);
  }
  std::vector<std::thread> callers;
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&service] { service.Shutdown(); });
  }
  for (std::thread& t : callers) t.join();
  for (const auto& sub : subs) EXPECT_TRUE(sub->done());
  EXPECT_EQ(service.stats().running, 0u);
  EXPECT_FALSE(service.Submit(Request("Q1")).ok());
}

// A queued deadline is a scheduler timer: it fires while the only run slot
// is still busy, instead of waiting for the slot or a periodic scan.
TEST_F(QueryServiceTest, QueuedDeadlineFiresWhileSlotIsBusy) {
  ServiceConfig config;
  config.scheduler.workers = 1;
  config.max_concurrent_sessions = 1;
  QueryService service(lake_->engine.get(), config);
  ServiceRequest slow = Request("Q4");
  slow.query.options.network = net::NetworkProfile::Gamma3();
  auto blocker = service.Submit(std::move(slow));
  ASSERT_TRUE(blocker.ok());
  ServiceRequest doomed = Request("Q1");
  doomed.query.timeout = std::chrono::milliseconds(1);
  auto sub = service.Submit(std::move(doomed));
  ASSERT_TRUE(sub.ok());
  const Result<fed::QueryAnswer>& outcome = (*sub)->Wait();
  EXPECT_TRUE(!outcome.ok() && outcome.status().IsDeadlineExceeded())
      << (outcome.ok() ? "ok" : outcome.status().ToString());
  EXPECT_FALSE((*blocker)->done());
  EXPECT_EQ(service.stats().expired, 1u);
  (*blocker)->Cancel();
  (*blocker)->Wait();
}

size_t ThreadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// A run slot is a count, not a thread: the service starts exactly the
// scheduler's workers and I/O threads, whatever its slot count.
TEST_F(QueryServiceTest, StartsOnlyThePoolThreads) {
  ServiceConfig config;
  config.scheduler.workers = 2;
  config.scheduler.io_threads = 3;
  config.max_concurrent_sessions = 16;
  // A sanitizer runtime starts a helper thread with the process's first
  // thread; start one here so the count below sees the service alone.
  std::thread([] {}).join();
  const size_t before = ThreadCount();
  QueryService service(lake_->engine.get(), config);
  EXPECT_EQ(ThreadCount() - before, 5u);
  ASSERT_TRUE(service.Execute(Request("Q1")).ok());
  EXPECT_EQ(ThreadCount() - before, 5u);
}

TEST_F(QueryServiceTest, DroppedSubmissionStillReleasesItsSlot) {
  ServiceConfig config;
  config.scheduler.workers = 1;
  config.max_concurrent_sessions = 1;
  QueryService service(lake_->engine.get(), config);
  ASSERT_TRUE(service.Submit(Request("Q2")).ok());  // handle dropped
  Result<fed::QueryAnswer> answer = service.Execute(Request("Q1"));
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(SerializeAnswers(*answer),
            OracleAnswers(*lake_, lslod::FindQuery("Q1")->sparql));
  EXPECT_EQ(service.stats().running, 0u);
  EXPECT_EQ(service.stats().completed, 2u);
}

// A session that ends inside its dispatch (here: a parse error) frees its
// slot for the next queued one. Hundreds of them queued behind a busy slot
// must not nest one dispatch inside the next: the pool's workers get small
// stacks here, which a chain of nested dispatches would overflow.
TEST_F(QueryServiceTest, FailingQueuedSessionsDispatchWithoutRecursion) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  // Sanitizer runtimes keep large per-thread state and grow every frame.
  constexpr size_t kWorkerStack = 8 << 20;
#else
  constexpr size_t kWorkerStack = 512 << 10;
#endif
  pthread_attr_t saved;
  ASSERT_EQ(pthread_getattr_default_np(&saved), 0);
  pthread_attr_t small;
  ASSERT_EQ(pthread_attr_init(&small), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&small, kWorkerStack), 0);
  ASSERT_EQ(pthread_setattr_default_np(&small), 0);
  ServiceConfig config;
  config.scheduler.workers = 1;
  config.scheduler.io_threads = 2;
  config.max_concurrent_sessions = 1;
  auto service = std::make_unique<QueryService>(lake_->engine.get(), config);
  ASSERT_EQ(pthread_setattr_default_np(&saved), 0);
  pthread_attr_destroy(&small);
  pthread_attr_destroy(&saved);

  ServiceRequest slow = Request("Q4");
  slow.query.options.network = net::NetworkProfile::Gamma3();
  auto blocker = service->Submit(std::move(slow));
  ASSERT_TRUE(blocker.ok());
  std::vector<std::shared_ptr<Submission>> failing;
  for (int i = 0; i < 600; ++i) {
    ServiceRequest bad = Request("Q1");
    bad.query = fed::QueryRequest::Text("SELECT WHERE {");
    auto sub = service->Submit(std::move(bad));
    ASSERT_TRUE(sub.ok());
    failing.push_back(*sub);
  }
  EXPECT_FALSE((*blocker)->done());
  (*blocker)->Cancel();  // its completion hook dispatches the 600
  (*blocker)->Wait();
  for (const std::shared_ptr<Submission>& sub : failing) {
    const Result<fed::QueryAnswer>& outcome = sub->Wait();
    EXPECT_FALSE(outcome.ok());
  }
  EXPECT_EQ(service->stats().running, 0u);
  EXPECT_GE(service->stats().errors, 600u);
  service.reset();
}

// Cancel() races dispatch, collection and completion: every outcome is a
// cancellation or the whole, exact answer.
TEST_F(QueryServiceTest, CancelRacingDispatchIsCancelledOrComplete) {
  const std::vector<std::string> oracle =
      OracleAnswers(*lake_, lslod::FindQuery("Q1")->sparql);
  ServiceConfig config;
  config.scheduler.workers = 2;
  config.max_concurrent_sessions = 2;
  QueryService service(lake_->engine.get(), config);
  for (int i = 0; i < 40; ++i) {
    auto sub = service.Submit(Request("Q1"));
    ASSERT_TRUE(sub.ok());
    std::thread canceller([&sub, i] {
      if (i % 2 == 0) std::this_thread::yield();
      (*sub)->Cancel();
    });
    const Result<fed::QueryAnswer>& outcome = (*sub)->Wait();
    canceller.join();
    if (outcome.ok()) {
      EXPECT_EQ(SerializeAnswers(*outcome), oracle);
    } else {
      EXPECT_TRUE(outcome.status().IsCancelled()) << outcome.status();
    }
  }
  EXPECT_EQ(service.stats().running, 0u);
}

// The stress mix: >=64 simultaneous sessions across tenants and priorities,
// a slice cancelled mid-flight, a slice under tight deadlines, a slice
// best-effort. Every submission must reach a terminal state, and every
// successful fail-fast answer must be byte-exact against the oracle — the
// shared scheduler must not tear or duplicate rows across sessions.
TEST_F(QueryServiceTest, StressMixedSessionsNoTornAnswers) {
  const char* kQueries[] = {"Q1", "Q2", "Q3", "Q4", "Q5"};
  std::map<std::string, std::vector<std::string>> oracle;
  for (const char* id : kQueries) {
    oracle[id] = OracleAnswers(*lake_, lslod::FindQuery(id)->sparql);
  }

  ServiceConfig config;
  config.scheduler.workers = 4;
  config.max_concurrent_sessions = 8;
  config.max_queued = 256;
  config.tenant_quotas["t1"] = 4;
  QueryService service(lake_->engine.get(), config);

  constexpr int kSessions = 72;
  std::vector<std::pair<std::string, std::shared_ptr<Submission>>> flights;
  std::vector<std::shared_ptr<Submission>> cancelled;
  for (int i = 0; i < kSessions; ++i) {
    const std::string id = kQueries[i % 5];
    ServiceRequest request = Request(
        id, i % 3 == 0 ? Priority::kBatch : Priority::kInteractive,
        "t" + std::to_string(i % 4));
    if (i % 9 == 7) {
      // Tight-deadline slice: may finish or expire, must terminate.
      request.query.timeout = std::chrono::milliseconds(1 + i % 3);
    }
    if (i % 11 == 5) {
      request.query.options.failure_mode = fed::FailureMode::kBestEffort;
    }
    auto sub = service.Submit(std::move(request));
    ASSERT_TRUE(sub.ok()) << sub.status();
    if (i % 13 == 4) {
      (*sub)->Cancel();
      cancelled.push_back(*sub);
    } else {
      flights.emplace_back(id, *sub);
    }
  }

  for (const auto& [id, sub] : flights) {
    const Result<fed::QueryAnswer>& outcome = sub->Wait();
    if (outcome.ok()) {
      // A successful answer is the whole answer, exactly once.
      EXPECT_EQ(SerializeAnswers(*outcome), oracle[id]) << id;
    } else {
      // Only load- or deadline-shaped failures are acceptable here.
      EXPECT_TRUE(outcome.status().IsDeadlineExceeded() ||
                  outcome.status().IsCancelled())
          << id << ": " << outcome.status().ToString();
    }
  }
  for (const auto& sub : cancelled) {
    const Result<fed::QueryAnswer>& outcome = sub->Wait();
    if (outcome.ok()) {
      // Raced completion: the answer must still be exact.
      continue;
    }
    EXPECT_TRUE(outcome.status().IsCancelled() ||
                outcome.status().IsDeadlineExceeded())
        << outcome.status().ToString();
  }
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.queued, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.running, 0u);
}

}  // namespace
}  // namespace lakefed::svc
