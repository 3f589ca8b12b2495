// End-to-end observability tests: run benchmark queries over the LSLOD
// lake and check that the metrics registry, the per-answer JSON and the
// span tree are populated — and that turning collection off leaves them
// empty without changing the answers.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/string_util.h"
#include "fed/engine.h"
#include "fed_test_util.h"
#include "lslod/queries.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/querylog.h"
#include "obs/span.h"

namespace lakefed::fed {
namespace {

PlanOptions Gamma3Options() {
  PlanOptions options;
  // Gamma3's planning decisions without the sleeping: near-zero time scale
  // still routes every message through the DelayChannel instrumentation.
  options.network = net::NetworkProfile::Gamma3();
  options.network.time_scale = 0.001;
  return options;
}

class FedObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake_ = BuildTinyLake(/*scale=*/0.05);
    ASSERT_NE(lake_, nullptr);
    q3_ = lslod::FindQuery("Q3");
    ASSERT_NE(q3_, nullptr);
  }

  std::unique_ptr<lslod::DataLake> lake_;
  const lslod::BenchmarkQuery* q3_ = nullptr;
};

TEST_F(FedObsTest, AnswerCarriesMetricsJson) {
  auto answer = lake_->engine->Execute(q3_->sparql, Gamma3Options());
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_FALSE(answer->rows.empty());
  EXPECT_FALSE(answer->metrics_json.empty());
  EXPECT_TRUE(Contains(answer->metrics_json, "\"counters\""))
      << answer->metrics_json;
  EXPECT_TRUE(Contains(answer->metrics_json, "exec.messages"))
      << answer->metrics_json;
  EXPECT_TRUE(Contains(answer->metrics_json, "session.query_ms"))
      << answer->metrics_json;
}

TEST_F(FedObsTest, EngineSnapshotAggregatesSessions) {
  auto answer = lake_->engine->Execute(q3_->sparql, Gamma3Options());
  ASSERT_TRUE(answer.ok()) << answer.status();

  obs::MetricsSnapshot snap = lake_->engine->MetricsSnapshot();
  ASSERT_FALSE(snap.empty());
  ASSERT_NE(snap.FindCounter("engine.sessions"), nullptr);
  EXPECT_GE(snap.FindCounter("engine.sessions")->value, 1u);
  ASSERT_NE(snap.FindCounter("engine.queries_ok"), nullptr);
  EXPECT_GE(snap.FindCounter("engine.queries_ok")->value, 1u);
  // The session's registry merged in: execution counters and per-source
  // transfer histograms are visible engine-wide.
  ASSERT_NE(snap.FindCounter("exec.messages"), nullptr);
  EXPECT_GT(snap.FindCounter("exec.messages")->value, 0u);
  ASSERT_NE(snap.FindCounter("exec.source_rows"), nullptr);
  EXPECT_GT(snap.FindCounter("exec.source_rows")->value, 0u);
  bool has_transfer_hist = false;
  bool has_wrapper_hist = false;
  for (const auto& h : snap.histograms) {
    if (StartsWith(h.name, "net.") && EndsWith(h.name, ".transfer_ms") &&
        h.count > 0) {
      has_transfer_hist = true;
    }
    if (StartsWith(h.name, "wrapper.") && EndsWith(h.name, ".call_ms") &&
        h.count > 0) {
      has_wrapper_hist = true;
    }
  }
  EXPECT_TRUE(has_transfer_hist) << snap.ToText();
  EXPECT_TRUE(has_wrapper_hist) << snap.ToText();
  ASSERT_NE(snap.FindHistogram("session.query_ms"), nullptr);
  EXPECT_GE(snap.FindHistogram("session.query_ms")->count, 1u);
}

TEST_F(FedObsTest, SpanTreeCoversEveryPhase) {
  auto stream = lake_->engine->CreateSession(
      QueryRequest::Text(q3_->sparql, Gamma3Options()));
  ASSERT_TRUE(stream.ok()) << stream.status();
  auto answer = (*stream)->Drain();
  ASSERT_TRUE(answer.ok()) << answer.status();

  const obs::SpanRecorder* spans = (*stream)->spans();
  ASSERT_NE(spans, nullptr);
  std::string text = spans->ToText();
  for (const char* phase : {"session", "parse", "plan", "decompose",
                            "source-select", "execute", "service:",
                            "wrapper:", "xfer:"}) {
    EXPECT_TRUE(Contains(text, phase)) << "missing " << phase << "\n" << text;
  }
  // Every span is closed once the stream finished.
  for (const obs::SpanRecord& span : spans->Snapshot()) {
    EXPECT_FALSE(span.open()) << span.name;
  }
}

TEST_F(FedObsTest, DisabledCollectionLeavesNoTraceButSameAnswers) {
  PlanOptions off = Gamma3Options();
  off.collect_metrics = false;
  auto stream = lake_->engine->CreateSession(
      QueryRequest::Text(q3_->sparql, off));
  ASSERT_TRUE(stream.ok()) << stream.status();
  auto disabled = (*stream)->Drain();
  ASSERT_TRUE(disabled.ok()) << disabled.status();
  EXPECT_TRUE(disabled->metrics_json.empty());
  EXPECT_EQ((*stream)->spans(), nullptr);

  auto enabled = lake_->engine->Execute(q3_->sparql, Gamma3Options());
  ASSERT_TRUE(enabled.ok()) << enabled.status();
  EXPECT_EQ(SerializeAnswers(*disabled), SerializeAnswers(*enabled));
  EXPECT_EQ(SerializeAnswers(*enabled), OracleAnswers(*lake_, q3_->sparql));
}

TEST_F(FedObsTest, OperatorRowCountersMatchAnswerSize) {
  auto answer = lake_->engine->Execute(q3_->sparql, Gamma3Options());
  ASSERT_TRUE(answer.ok()) << answer.status();
  obs::MetricsSnapshot snap = lake_->engine->MetricsSnapshot();
  // At least one op.rows.* counter exists and the plan root produced as
  // many rows as the answer holds (counters aggregate across tests in this
  // fixture only through fresh engines, so >= is the safe relation).
  uint64_t op_rows = 0;
  for (const auto& c : snap.counters) {
    if (StartsWith(c.name, "op.rows.")) op_rows += c.value;
  }
  EXPECT_GT(op_rows, 0u) << snap.ToText();
  EXPECT_GE(op_rows, answer->rows.size());
}

TEST_F(FedObsTest, FaultyRunRecordsRetriesInRegistry) {
  PlanOptions options = Gamma3Options();
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 0.01;
  options.retry.jitter = 0;
  // Every source's first connection attempt fails, then recovers: each
  // leaf injects one fault and performs one retry.
  for (const auto& [id, db] : lake_->databases) {
    options.faults[id].fail_connections = 1;
  }
  auto answer = lake_->engine->Execute(q3_->sparql, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  obs::MetricsSnapshot snap = lake_->engine->MetricsSnapshot();
  const auto* faults = snap.FindCounter("exec.faults_injected");
  const auto* retries = snap.FindCounter("exec.retries");
  ASSERT_NE(faults, nullptr);
  ASSERT_NE(retries, nullptr);
  // The registry must agree with the ExecutionStats the answer carries.
  EXPECT_GT(faults->value, 0u) << snap.ToText();
  EXPECT_GE(retries->value, 1u) << snap.ToText();
  EXPECT_EQ(retries->value, answer->stats.retries);
  // Per-source attribution rides along under the source. prefix.
  bool per_source_retry = false;
  for (const auto& c : snap.counters) {
    if (StartsWith(c.name, "source.") && EndsWith(c.name, ".retries") &&
        c.value > 0) {
      per_source_retry = true;
    }
  }
  EXPECT_TRUE(per_source_retry) << snap.ToText();
}

// --- query profiler (EXPLAIN ANALYZE) ---

TEST_F(FedObsTest, ProfileJoinsEstimatesAndRuntime) {
  PlanOptions options = Gamma3Options();
  options.use_cost_model = true;  // planner produces cardinality estimates
  options.collect_metrics = true;
  auto stream = lake_->engine->CreateSession(
      QueryRequest::Text(q3_->sparql, options));
  ASSERT_TRUE(stream.ok()) << stream.status();
  auto answer = (*stream)->Drain();
  ASSERT_TRUE(answer.ok()) << answer.status();

  size_t ops = (*stream)->operator_runtime().size();
  ASSERT_GT(ops, 0u);

  obs::QueryProfile profile = (*stream)->profile();
  ASSERT_EQ(profile.operators.size(), ops);
  // The cost model estimated at least one operator, so q-errors exist.
  EXPECT_GE(profile.MaxQError(), 1.0) << profile.ToText();
  bool has_estimate = false;
  bool leaf_with_source = false;
  for (const obs::OperatorRuntime& op : profile.operators) {
    if (op.estimated_rows >= 0) has_estimate = true;
    // Metrics were on: every operator measured its wall time.
    EXPECT_GE(op.wall_ms, 0.0) << op.label;
    if (!op.source_id.empty()) {
      leaf_with_source = true;
      // Gamma3 injects delay on every channel, charged as network time.
      ASSERT_EQ(profile.sources.count(op.source_id), 1u) << op.label;
      EXPECT_GT(profile.sources.at(op.source_id).delay_ms, 0.0) << op.label;
    }
  }
  EXPECT_TRUE(has_estimate) << profile.ToText();
  EXPECT_TRUE(leaf_with_source) << profile.ToText();
  EXPECT_EQ(profile.answer_rows, answer->rows.size());
  EXPECT_EQ(profile.status, "ok");
  // Session phases surfaced from the span tree.
  bool has_execute_phase = false;
  for (const obs::QueryProfile::Phase& p : profile.phases) {
    if (p.name == "execute") has_execute_phase = true;
  }
  EXPECT_TRUE(has_execute_phase) << profile.ToText();
  // Per-source traffic carried over from ExecutionStats.
  EXPECT_FALSE(profile.sources.empty());
}

TEST_F(FedObsTest, ProfileRendersTextAndStableJson) {
  PlanOptions options = Gamma3Options();
  options.use_cost_model = true;
  auto stream = lake_->engine->CreateSession(
      QueryRequest::Text(q3_->sparql, options));
  ASSERT_TRUE(stream.ok()) << stream.status();
  ASSERT_TRUE((*stream)->Drain().ok());

  obs::QueryProfile profile = (*stream)->profile();
  std::string text = profile.ToText();
  EXPECT_TRUE(StartsWith(text, "QUERY PROFILE")) << text;
  EXPECT_TRUE(Contains(text, "per-source traffic:")) << text;

  std::string json = profile.ToJson();
  for (const char* key :
       {"\"status\":\"ok\"", "\"total_ms\":", "\"first_answer_ms\":",
        "\"max_q_error\":", "\"phases\":", "\"operators\":",
        "\"sources\":", "\"q_error\":", "\"peak_queue_depth\":"}) {
    EXPECT_TRUE(Contains(json, key)) << key << " missing in " << json;
  }
}

TEST_F(FedObsTest, ProfileDegradesGracefullyWithMetricsOff) {
  PlanOptions off = Gamma3Options();
  off.use_cost_model = true;  // the records still carry the estimates
  off.collect_metrics = false;
  auto stream = lake_->engine->CreateSession(
      QueryRequest::Text(q3_->sparql, off));
  ASSERT_TRUE(stream.ok()) << stream.status();
  ASSERT_TRUE((*stream)->Drain().ok());

  // Each record still names its operator and carries its rows and
  // estimate; the runtime fields stay unmeasured: no wall clocks, no queue
  // instrumentation ran on the hot path.
  const std::vector<obs::OperatorRuntime>& ops = (*stream)->operator_runtime();
  ASSERT_FALSE(ops.empty());
  uint64_t total_rows = 0;
  bool has_estimate = false;
  bool leaf_with_source = false;
  for (const obs::OperatorRuntime& rt : ops) {
    EXPECT_FALSE(rt.label.empty());
    total_rows += rt.rows;
    if (rt.estimated_rows >= 0) has_estimate = true;
    if (!rt.source_id.empty()) leaf_with_source = true;
    EXPECT_EQ(rt.wall_ms, -1);
    EXPECT_EQ(rt.push_waits, 0u);
    EXPECT_EQ(rt.pop_waits, 0u);
    EXPECT_EQ(rt.depth_samples, 0u);
  }
  EXPECT_GT(total_rows, 0u);
  EXPECT_TRUE(has_estimate);
  EXPECT_TRUE(leaf_with_source);
  obs::QueryProfile profile = (*stream)->profile();
  EXPECT_EQ(profile.operators.size(), ops.size());
  // Rendering still works: unmeasured times print as "-", not garbage.
  EXPECT_TRUE(Contains(profile.ToText(), "QUERY PROFILE"));
  EXPECT_TRUE(Contains(profile.ToJson(), "\"wall_ms\":-1"));
}

TEST_F(FedObsTest, EveryViewRendersTheSameOperatorRecords) {
  obs::QueryLogConfig config;
  config.slow_ms = 0;  // every query is slow: its profile is captured
  obs::QueryLog log(config);
  PlanOptions options = Gamma3Options();
  options.use_cost_model = true;
  options.query_log = &log;
  auto stream = lake_->engine->CreateSession(
      QueryRequest::Text(q3_->sparql, options));
  ASSERT_TRUE(stream.ok()) << stream.status();
  auto answer = (*stream)->Drain();
  ASSERT_TRUE(answer.ok()) << answer.status();

  // The flight recorder captured the very profile the session renders.
  const obs::QueryProfile profile = (*stream)->profile();
  const std::vector<obs::QueryLogRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].slow);
  EXPECT_EQ(records[0].profile_json, profile.ToJson());

  // The drained answer carries the same operator records, in order.
  ASSERT_EQ(answer->operator_runtime.size(), profile.operators.size());
  ASSERT_FALSE(profile.operators.empty());
  for (size_t i = 0; i < profile.operators.size(); ++i) {
    const obs::OperatorRuntime& drained = answer->operator_runtime[i];
    const obs::OperatorRuntime& profiled = profile.operators[i];
    EXPECT_EQ(drained.label, profiled.label) << i;
    EXPECT_EQ(drained.rows, profiled.rows) << profiled.label;
    EXPECT_EQ(drained.estimated_rows, profiled.estimated_rows)
        << profiled.label;
  }
}

// Push waits are real: an operator whose output queue is full parks on it
// and records the wait when it resumes. A cross product larger than one
// operator queue (4096 rows), read through NextBatch() only after the
// dataflow has parked on the root queue, must show it on the root record.
TEST_F(FedObsTest, ParkedRootOperatorRecordsPushWaits) {
  const std::string query =
      "PREFIX dsv: <http://lslod.example.org/diseasome/vocab#> "
      "SELECT ?d ?g ?e WHERE { ?d a dsv:Disease . ?g a dsv:Gene . "
      "?e a dsv:Disease . }";
  auto stream = lake_->engine->CreateSession(QueryRequest::Text(query, {}));
  ASSERT_TRUE(stream.ok()) << stream.status();
  // Nobody reads yet: the root operator fills its queue and parks.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  RowBatch batch;
  size_t rows = 0;
  while ((*stream)->NextBatch(&batch)) rows += batch.size();
  ASSERT_TRUE((*stream)->Finish().ok());
  ASSERT_GT(rows, 4096u);
  const std::vector<obs::OperatorRuntime>& ops =
      (*stream)->operator_runtime();
  ASSERT_FALSE(ops.empty());
  // Operators are recorded in spawn order, children first: the root last.
  const obs::OperatorRuntime& root = ops.back();
  EXPECT_EQ(root.rows, rows) << root.label;
  EXPECT_GT(root.push_waits, 0u) << root.label;
  EXPECT_GT(root.push_wait_ms, 0.0) << root.label;
}

}  // namespace
}  // namespace lakefed::fed
