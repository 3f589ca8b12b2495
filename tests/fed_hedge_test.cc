// Tail-latency defense: hedged leaf execution against replica sources and
// adaptive per-source timeouts driven by the latency tracker. Replicas in
// these tests serve byte-identical content, so whichever racer wins the
// answer multiset must be identical — the no-torn/no-duplicate-rows
// guarantee under speculative execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <memory>
#include <thread>
#include <vector>

#include "fed/engine.h"
#include "fed/latency.h"

namespace lakefed::fed {
namespace {

constexpr char kClass[] = "http://t/C";
constexpr char kPred[] = "http://t/p";

const char kStarQuery[] =
    "SELECT ?s ?o WHERE { ?s a <http://t/C> ; <http://t/p> ?o . }";

// A replica of a shared dataset: emits the same `rows` bindings regardless
// of its id (true replication), optionally pacing each row or failing after
// a prefix — the knobs hedging reacts to.
class ReplicaWrapper : public SourceWrapper {
 public:
  struct Script {
    int rows = 6;
    double sleep_ms_per_row = 0;  // engine-side pacing (tail latency)
    int fail_after = -1;          // -1 = never fail
  };

  ReplicaWrapper(std::string id, Script script)
      : id_(std::move(id)), script_(script) {}

  const std::string& id() const override { return id_; }
  SourceKind kind() const override { return SourceKind::kRdf; }

  std::vector<mapping::RdfMt> Molecules() const override {
    mapping::RdfMt molecule;
    molecule.class_iri = kClass;
    molecule.predicates = {rdf::kRdfType, kPred};
    molecule.sources = {id_};
    return {molecule};
  }

  Status Execute(const SubQuery& subquery, const WrapperContext& ctx) override {
    std::vector<std::string> vars = subquery.Variables();
    BatchEmitter emitter(ctx);
    for (int i = 0; i < script_.rows; ++i) {
      if (ctx.token.IsCancelled()) return Status::OK();
      if (script_.fail_after >= 0 && i >= script_.fail_after) {
        LAKEFED_RETURN_NOT_OK(emitter.Finish());
        return Status::IoError("replica " + id_ + " lost its connection");
      }
      if (script_.sleep_ms_per_row > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            script_.sleep_ms_per_row));
      }
      rdf::Binding row;
      // Identical values on every replica: the winner must be unobservable
      // in the answers.
      for (const std::string& var : vars) {
        row[var] = rdf::Term::Literal("shared_" + var + "_" +
                                      std::to_string(i));
      }
      if (!emitter.Emit(std::move(row))) break;
    }
    return emitter.Finish();
  }

 private:
  std::string id_;
  Script script_;
};

std::unique_ptr<FederatedEngine> MakeEngine(
    std::vector<std::pair<std::string, ReplicaWrapper::Script>> sources) {
  auto engine = std::make_unique<FederatedEngine>();
  for (auto& [id, script] : sources) {
    Status st =
        engine->RegisterSource(std::make_unique<ReplicaWrapper>(id, script));
    if (!st.ok()) return nullptr;
  }
  return engine;
}

PlanOptions HedgeOptions(double delay_ms) {
  PlanOptions options;
  options.hedge.enabled = true;
  // Huge min_samples pins the delay to the deterministic fallback — the
  // latency tracker never has enough evidence to move it.
  options.hedge.min_samples = 1'000'000;
  options.hedge.fallback_delay_ms = delay_ms;
  options.hedge.min_delay_ms = std::min(delay_ms, 1.0);
  return options;
}

// Serialized row multiset: the correctness currency of every hedge test.
std::map<std::string, int> RowMultiset(const QueryAnswer& answer) {
  std::map<std::string, int> counts;
  for (const rdf::Binding& row : answer.rows) {
    std::string key;
    for (const auto& [var, term] : row) {
      key += var + "=" + term.ToString() + ";";
    }
    ++counts[key];
  }
  return counts;
}

TEST(FedHedgeTest, SlowPrimaryIsHedgedAndReplicaWins) {
  auto engine = MakeEngine({{"slow", {.rows = 6, .sleep_ms_per_row = 50}},
                            {"fast", {.rows = 6}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options = HedgeOptions(5);

  auto answer = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  // Union of two replicas: each arm ships the full shared content once,
  // whichever racer delivered it.
  EXPECT_EQ(answer->rows.size(), 12u);
  for (const auto& [row, count] : RowMultiset(*answer)) {
    EXPECT_EQ(count, 2) << row;
  }
  // The slow arm ran ~50 ms/row past the 5 ms hedge delay: its hedge
  // fired and the fast replica won the race.
  EXPECT_GE(answer->stats.hedges_fired, 1u);
  EXPECT_GE(answer->stats.hedge_wins, 1u);
  EXPECT_NE(answer->OperatorStatsText().find("tail tolerance:"),
            std::string::npos);
}

TEST(FedHedgeTest, PrimaryWinsAndLosingHedgeIsCancelled) {
  // Both replicas are slow enough to trigger hedging, but the hedge
  // target is 10x slower than either primary: the primary always wins
  // and the speculative racer is cancelled mid-flight.
  auto engine = MakeEngine({{"a", {.rows = 6, .sleep_ms_per_row = 20}},
                            {"b", {.rows = 6, .sleep_ms_per_row = 200}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options = HedgeOptions(5);

  auto answer = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->rows.size(), 12u);
  for (const auto& [row, count] : RowMultiset(*answer)) {
    EXPECT_EQ(count, 2) << row;
  }
  EXPECT_GE(answer->stats.hedges_fired, 1u);
  // Arm a's hedge (against the 10x slower b) lost and was cancelled.
  EXPECT_GE(answer->stats.hedges_cancelled, 1u);
}

TEST(FedHedgeTest, FastPrimaryNeverHedges) {
  auto engine = MakeEngine({{"a", {.rows = 6}}, {"b", {.rows = 6}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options = HedgeOptions(5'000);  // far beyond any leaf

  auto answer = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->rows.size(), 12u);
  EXPECT_EQ(answer->stats.hedges_fired, 0u);
  EXPECT_EQ(answer->stats.hedge_wins, 0u);
  EXPECT_EQ(answer->stats.hedges_cancelled, 0u);
  EXPECT_EQ(answer->OperatorStatsText().find("tail tolerance:"),
            std::string::npos);
}

TEST(FedHedgeTest, PerQueryBudgetLimitsSpeculation) {
  // Both arms are slow, so both want to hedge — but the query budget
  // admits exactly one speculative launch; the other is suppressed.
  auto engine = MakeEngine({{"a", {.rows = 4, .sleep_ms_per_row = 50}},
                            {"b", {.rows = 4, .sleep_ms_per_row = 50}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options = HedgeOptions(5);
  options.hedge.max_per_query = 1;

  auto answer = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->rows.size(), 8u);
  for (const auto& [row, count] : RowMultiset(*answer)) {
    EXPECT_EQ(count, 2) << row;
  }
  EXPECT_EQ(answer->stats.hedges_fired, 1u);
  EXPECT_EQ(answer->stats.hedges_suppressed, 1u);
}

TEST(FedHedgeTest, PerSourceBudgetZeroSuppressesAllHedges) {
  auto engine = MakeEngine({{"a", {.rows = 4, .sleep_ms_per_row = 30}},
                            {"b", {.rows = 4, .sleep_ms_per_row = 30}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options = HedgeOptions(5);
  options.hedge.max_per_source = 0;

  auto answer = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->rows.size(), 8u);
  EXPECT_EQ(answer->stats.hedges_fired, 0u);
  EXPECT_EQ(answer->stats.hedges_suppressed, 2u);
}

TEST(FedHedgeTest, BothRacersFailingFallsBackToRecoveryLadder) {
  // a and b fail mid-stream (slowly enough that hedges fire first); c is
  // the healthy third replica the ladder reaches after the race loses
  // both arms.
  auto engine = MakeEngine(
      {{"a", {.rows = 6, .sleep_ms_per_row = 20, .fail_after = 2}},
       {"b", {.rows = 6, .sleep_ms_per_row = 20, .fail_after = 2}},
       {"c", {.rows = 6}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options = HedgeOptions(5);

  auto answer = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  // Three union arms, each eventually served with the full content.
  EXPECT_EQ(answer->rows.size(), 18u);
  for (const auto& [row, count] : RowMultiset(*answer)) {
    EXPECT_EQ(count, 3) << row;
  }
  EXPECT_GE(answer->stats.hedges_fired, 1u);
  EXPECT_GE(answer->stats.failovers, 1u);
  EXPECT_GE(answer->stats.failed_sources.size(), 1u);
}

TEST(FedHedgeTest, HedgedAnswersAreStableAcrossRuns) {
  // Hedge fire/win counts are wall-clock-dependent; the answer multiset
  // must not be. Five runs under racing produce identical answers.
  std::map<std::string, int> expected;
  for (int run = 0; run < 5; ++run) {
    auto engine = MakeEngine({{"slow", {.rows = 6, .sleep_ms_per_row = 30}},
                              {"fast", {.rows = 6}}});
    ASSERT_NE(engine, nullptr);
    PlanOptions options = HedgeOptions(3);
    auto answer = engine->Execute(kStarQuery, options);
    ASSERT_TRUE(answer.ok()) << "run " << run << ": " << answer.status();
    std::map<std::string, int> got = RowMultiset(*answer);
    if (run == 0) {
      expected = got;
    } else {
      EXPECT_EQ(got, expected) << "run " << run;
    }
  }
}

TEST(FedHedgeTest, AdaptiveTimeoutTripsPersistentlySlowSource) {
  // A tracker pre-warmed with 1 ms calls makes the adaptive layer expect
  // ~1 ms; a source that suddenly takes 100 ms/row blows the derived
  // per-attempt timeout (floored at 5 ms) on every attempt.
  LatencyTracker tracker;
  for (int i = 0; i < 30; ++i) tracker.Record("s1", 1.0);

  auto engine = MakeEngine({{"s1", {.rows = 3, .sleep_ms_per_row = 100}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options;
  options.latency = &tracker;  // caller-supplied; the engine must keep it
  options.adaptive_timeout.enabled = true;
  options.adaptive_timeout.multiplier = 1.0;
  options.adaptive_timeout.floor_ms = 5;
  options.adaptive_timeout.min_samples = 10;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 0.1;
  options.retry.max_backoff_ms = 1;
  options.failure_mode = FailureMode::kBestEffort;

  auto answer = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->stats.partial);
  EXPECT_EQ(answer->stats.failed_sources.count("s1"), 1u);
  // Both attempts derived their timeout from the tracker.
  EXPECT_GE(answer->stats.adaptive_timeouts, 2u);
  EXPECT_NE(answer->OperatorStatsText().find("tail tolerance:"),
            std::string::npos);
}

TEST(FedHedgeTest, AdaptiveTimeoutWarmsFromEngineTracker) {
  // Without a caller-supplied tracker the engine's own accumulates wrapper
  // call durations across sessions: the first run has no samples (static
  // timeout), the second derives an adaptive one.
  auto engine = MakeEngine({{"s1", {.rows = 6}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options;
  options.adaptive_timeout.enabled = true;
  options.adaptive_timeout.min_samples = 1;
  options.adaptive_timeout.floor_ms = 100;  // generous: nothing should trip

  auto first = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->rows.size(), 6u);
  EXPECT_EQ(first->stats.adaptive_timeouts, 0u);
  EXPECT_GE(engine->latency()->Quantile("s1", 0.5).samples, 1u);

  auto second = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->rows.size(), 6u);
  EXPECT_GE(second->stats.adaptive_timeouts, 1u);
}

TEST(FedHedgeTest, LatencyTrackerQuantilesAndReset) {
  LatencyTracker tracker;
  EXPECT_EQ(tracker.Quantile("s1", 0.99).samples, 0u);
  for (int i = 1; i <= 100; ++i) {
    tracker.Record("s1", static_cast<double>(i));
  }
  LatencyTracker::Estimate p50 = tracker.Quantile("s1", 0.5);
  LatencyTracker::Estimate p99 = tracker.Quantile("s1", 0.99);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_GT(p99.value_ms, p50.value_ms);
  auto snapshot = tracker.Snapshot();
  ASSERT_EQ(snapshot.count("s1"), 1u);
  EXPECT_EQ(snapshot.at("s1").samples, 100u);
  tracker.Reset();
  EXPECT_EQ(tracker.Quantile("s1", 0.99).samples, 0u);
}

TEST(FedHedgeTest, ValidateRejectsBadTailToleranceOptions) {
  auto engine = MakeEngine({{"s1", {.rows = 3}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options;
  options.hedge.enabled = true;
  options.hedge.quantile = 0;
  EXPECT_TRUE(
      engine->Execute(kStarQuery, options).status().IsInvalidArgument());
  options = PlanOptions();
  options.hedge.enabled = true;
  options.hedge.max_per_query = -1;
  EXPECT_TRUE(
      engine->Execute(kStarQuery, options).status().IsInvalidArgument());
  options = PlanOptions();
  options.adaptive_timeout.enabled = true;
  options.adaptive_timeout.multiplier = 0;
  EXPECT_TRUE(
      engine->Execute(kStarQuery, options).status().IsInvalidArgument());
  options = PlanOptions();
  options.adaptive_timeout.enabled = true;
  options.adaptive_timeout.quantile = 1.5;
  EXPECT_TRUE(
      engine->Execute(kStarQuery, options).status().IsInvalidArgument());
}

TEST(FedHedgeTest, DefaultOptionsKeepTailToleranceOff) {
  PlanOptions options;
  EXPECT_FALSE(options.hedge.enabled);
  EXPECT_FALSE(options.adaptive_timeout.enabled);
  auto engine = MakeEngine({{"s1", {.rows = 4}}});
  ASSERT_NE(engine, nullptr);
  auto answer = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->stats.hedges_fired, 0u);
  EXPECT_EQ(answer->stats.adaptive_timeouts, 0u);
  EXPECT_EQ(answer->stats.latency_spikes_injected, 0u);
}

}  // namespace
}  // namespace lakefed::fed
