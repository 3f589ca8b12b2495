// System meta-source + flight-recorder integration tests: the engine's
// own state queryable through the ordinary federated SPARQL path, and the
// query log capturing a profile for a slow-spike query.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "common/string_util.h"
#include "fed/engine.h"
#include "fed/meta_source.h"
#include "fed_test_util.h"
#include "lslod/queries.h"
#include "lslod/vocab.h"
#include "net/fault.h"
#include "obs/querylog.h"
#include "rdf/triple_store.h"

namespace lakefed::fed {
namespace {

PlanOptions FastOptions() {
  PlanOptions options;
  options.network = net::NetworkProfile::NoDelay();
  return options;
}

// A lake with the meta-source registered, exactly as the shell does it.
class FedMetaSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake_ = BuildTinyLake(/*scale=*/0.05);
    ASSERT_NE(lake_, nullptr);
    auto meta = std::make_unique<MetaSource>(lake_->engine.get());
    meta_ = meta.get();
    ASSERT_TRUE(lake_->engine->RegisterSource(std::move(meta)).ok());
  }

  std::unique_ptr<lslod::DataLake> lake_;
  MetaSource* meta_ = nullptr;
};

TEST_F(FedMetaSourceTest, SysMetricsQueryableViaSparql) {
  // Prime the engine registry with one real query, then ask sys.metrics
  // for the session counter — through the normal federated path.
  const lslod::BenchmarkQuery* q1 = lslod::FindQuery("Q1");
  ASSERT_NE(q1, nullptr);
  auto primer = lake_->engine->Execute(q1->sparql, FastOptions());
  ASSERT_TRUE(primer.ok()) << primer.status();

  const std::string sparql = R"(
    PREFIX sys: <http://lakefed.io/sys#>
    SELECT ?name ?value WHERE {
      ?m a sys:Metric ; sys:name ?name ; sys:kind ?kind ; sys:value ?value .
      FILTER (?name = "engine.sessions")
    })";
  auto answer = lake_->engine->Execute(sparql, FastOptions());
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->rows.size(), 1u);
  const auto value = answer->rows[0].find("value");
  ASSERT_NE(value, answer->rows[0].end());
  EXPECT_GE(std::stoull(std::string(value->second.value())), 1u);
}

TEST_F(FedMetaSourceTest, SysSourcesListsDataSourcesNotItself) {
  const std::string sparql = R"(
    PREFIX sys: <http://lakefed.io/sys#>
    SELECT ?id ?kind WHERE { ?s a sys:Source ; sys:id ?id ; sys:kind ?kind . })";
  auto answer = lake_->engine->Execute(sparql, FastOptions());
  ASSERT_TRUE(answer.ok()) << answer.status();
  std::set<std::string> ids;
  for (const rdf::Binding& row : answer->rows) {
    ids.insert(std::string(row.at("id").value()));
  }
  EXPECT_TRUE(ids.count("diseasome") > 0) << answer->rows.size();
  EXPECT_TRUE(ids.count("drugbank") > 0);
  // The meta-source keeps itself out of the inventory.
  EXPECT_EQ(ids.count("sys"), 0u);
}

TEST_F(FedMetaSourceTest, SysCacheJoinableAndFresh) {
  const std::string sparql = R"(
    PREFIX sys: <http://lakefed.io/sys#>
    SELECT ?name ?hits WHERE { ?c a sys:Cache ; sys:name ?name ; sys:hits ?hits . })";
  auto answer = lake_->engine->Execute(sparql, FastOptions());
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->rows.size(), 3u);  // plan, parsed, answer
}

TEST_F(FedMetaSourceTest, SourceSelectionForDataQueriesUnchanged) {
  // A data query must never be routed to the sys source: its vocabulary is
  // disjoint from every data molecule.
  const lslod::BenchmarkQuery* q2 = lslod::FindQuery("Q2");
  ASSERT_NE(q2, nullptr);
  auto plan = lake_->engine->Plan(q2->sparql, FastOptions());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(Contains(plan->Explain(), "sys")) << plan->Explain();
}

TEST_F(FedMetaSourceTest, RenderTableAndSnapshotAgree) {
  rdf::TripleStore store;
  meta_->BuildSnapshot("cache", &store);
  EXPECT_GT(store.size(), 0u);
  const std::string text = meta_->RenderTable("cache");
  EXPECT_TRUE(Contains(text, "cache/plan")) << text;
  EXPECT_TRUE(Contains(text, "hitRate"));
  EXPECT_TRUE(Contains(meta_->RenderTable("nope"), "unknown sys table"));
}

TEST_F(FedMetaSourceTest, DataVersionAdvancesSoSnapshotsAreNeverStale) {
  const uint64_t a = meta_->DataVersion();
  const uint64_t b = meta_->DataVersion();
  EXPECT_GT(b, a);
}

// ---------------------------------------------------------------------
// Flight recorder

TEST(FedQueryLogTest, SlowSpikeQueryLandsInRingWithProfile) {
  auto lake = BuildTinyLake(/*scale=*/0.05);
  ASSERT_NE(lake, nullptr);
  obs::QueryLogConfig config;
  config.slow_ms = 25;  // spikes below push the query well past this
  lake->engine->EnableQueryLog(config);

  const lslod::BenchmarkQuery* q2 = lslod::FindQuery("Q2");
  ASSERT_NE(q2, nullptr);
  PlanOptions options = FastOptions();
  // Every diseasome message takes a real 40 ms latency spike.
  options.faults[lslod::kDiseasome].slow_rate = 1.0;
  options.faults[lslod::kDiseasome].slow_ms = 40;
  auto answer = lake->engine->Execute(q2->sparql, options);
  ASSERT_TRUE(answer.ok()) << answer.status();

  obs::QueryLog* log = lake->engine->query_log();
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->total_recorded(), 1u);
  EXPECT_EQ(log->slow_recorded(), 1u);
  const std::vector<obs::QueryLogRecord> records = log->Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const obs::QueryLogRecord& r = records[0];
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.slow);
  EXPECT_GE(r.total_ms, config.slow_ms);
  EXPECT_GT(r.rows, 0u);
  EXPECT_FALSE(r.fingerprint.empty());
  // Slow queries capture the full EXPLAIN ANALYZE profile and span tree.
  EXPECT_FALSE(r.profile_json.empty());
  EXPECT_TRUE(Contains(r.profile_json, "\"operators\"")) << r.profile_json;
  EXPECT_FALSE(r.spans_json.empty());
  // The engine snapshot carries the recorder counters.
  obs::MetricsSnapshot snap = lake->engine->MetricsSnapshot();
  ASSERT_NE(snap.FindCounter("obs.querylog.recorded"), nullptr);
  EXPECT_EQ(snap.FindCounter("obs.querylog.recorded")->value, 1u);
  ASSERT_NE(snap.FindCounter("obs.querylog.slow"), nullptr);
  EXPECT_EQ(snap.FindCounter("obs.querylog.slow")->value, 1u);
}

TEST(FedQueryLogTest, FastQueriesRecordWithoutProfiles) {
  auto lake = BuildTinyLake(/*scale=*/0.05);
  ASSERT_NE(lake, nullptr);
  obs::QueryLogConfig config;
  config.slow_ms = 60000;  // nothing is that slow here
  lake->engine->EnableQueryLog(config);
  const lslod::BenchmarkQuery* q1 = lslod::FindQuery("Q1");
  ASSERT_NE(q1, nullptr);
  auto answer = lake->engine->Execute(q1->sparql, FastOptions());
  ASSERT_TRUE(answer.ok()) << answer.status();
  obs::QueryLog* log = lake->engine->query_log();
  ASSERT_NE(log, nullptr);
  const std::vector<obs::QueryLogRecord> records = log->Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].slow);
  // Fast + healthy: the record is a cheap summary, no captured profile.
  EXPECT_TRUE(records[0].profile_json.empty());
  EXPECT_GT(records[0].rows, 0u);
}

TEST(FedQueryLogTest, DisabledLogLeavesEngineBitIdentical) {
  // Two identical engines, one never enabling the log: answers and the
  // metrics JSON must match byte for byte (the monitoring plane costs
  // nothing until opted into).
  auto plain = BuildTinyLake(/*scale=*/0.05);
  auto logged = BuildTinyLake(/*scale=*/0.05);
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(logged, nullptr);
  logged->engine->EnableQueryLog();
  const lslod::BenchmarkQuery* q1 = lslod::FindQuery("Q1");
  ASSERT_NE(q1, nullptr);
  auto a = plain->engine->Execute(q1->sparql, FastOptions());
  auto b = logged->engine->Execute(q1->sparql, FastOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(SerializeAnswers(*a), SerializeAnswers(*b));
  // The deterministic part of the per-session metrics JSON (the counters —
  // histogram samples carry real wall times that jitter run to run) is
  // identical: the recorder adds no instrument to the session registry.
  auto counters = [](const std::string& json) {
    return json.substr(0, json.find("\"histograms\""));
  };
  EXPECT_EQ(counters(a->metrics_json), counters(b->metrics_json));
}

}  // namespace
}  // namespace lakefed::fed
