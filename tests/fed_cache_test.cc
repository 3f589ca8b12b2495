// Plan & sub-answer cache tests: the invalidation matrix (re-analyze
// structural epoch, source data-version bump, breaker routing epoch),
// answer-multiset equality with caching on vs off (and with the oracle),
// and the correctness pins — the instantiation digest in
// SubQueryStatsKey, the no-fold-back rule for partial best-effort runs and
// the no-latency-sample rule for cancelled hedge losers.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fed/cache.h"
#include "fed/engine.h"
#include "fed/latency.h"
#include "fed_test_util.h"
#include "lslod/queries.h"
#include "stats/stats_catalog.h"

namespace lakefed::fed {
namespace {

constexpr char kClass[] = "http://t/C";
constexpr char kPred[] = "http://t/p";

const char kStarQuery[] =
    "SELECT ?s ?o WHERE { ?s a <http://t/C> ; <http://t/p> ?o . }";

// Emits `rows` scripted bindings; `sleep_ms_per_row` paces the emission
// (tail latency for the hedge scenario); `version` is the source's data
// version, bumpable mid-test to simulate new data arriving at the source.
class ScriptedWrapper : public SourceWrapper {
 public:
  ScriptedWrapper(std::string id, int rows, double sleep_ms_per_row = 0)
      : id_(std::move(id)), rows_(rows),
        sleep_ms_per_row_(sleep_ms_per_row) {}

  const std::string& id() const override { return id_; }
  SourceKind kind() const override { return SourceKind::kRdf; }
  uint64_t DataVersion() const override {
    return version_.load(std::memory_order_acquire);
  }
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }

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
    for (int i = 0; i < rows_; ++i) {
      if (ctx.token.IsCancelled()) return Status::OK();
      if (sleep_ms_per_row_ > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            sleep_ms_per_row_));
      }
      rdf::Binding row;
      for (const std::string& var : vars) {
        row[var] = rdf::Term::Literal(id_ + "_" + var + "_" +
                                      std::to_string(i));
      }
      if (!emitter.Emit(std::move(row))) break;
    }
    return emitter.Finish();
  }

 private:
  std::string id_;
  int rows_;
  double sleep_ms_per_row_;
  std::atomic<uint64_t> version_{0};
};

struct SourceScript {
  std::string id;
  int rows = 6;
  double sleep_ms_per_row = 0;
};

std::unique_ptr<FederatedEngine> MakeEngine(
    const std::vector<SourceScript>& sources,
    std::vector<ScriptedWrapper*>* handles = nullptr) {
  auto engine = std::make_unique<FederatedEngine>();
  for (const SourceScript& s : sources) {
    auto wrapper =
        std::make_unique<ScriptedWrapper>(s.id, s.rows, s.sleep_ms_per_row);
    if (handles != nullptr) handles->push_back(wrapper.get());
    Status st = engine->RegisterSource(std::move(wrapper));
    if (!st.ok()) return nullptr;
  }
  return engine;
}

PlanOptions CacheOptions() {
  PlanOptions options;
  options.plan_cache = true;
  options.answer_cache = true;
  return options;
}

SubQuery BoundStar(const std::string& source_id,
                   std::vector<rdf::Term> probe_terms) {
  SubQuery sq;
  sq.source_id = source_id;
  StarSubQuery star;
  star.subject = rdf::PatternNode::Var("s");
  star.patterns.push_back({rdf::PatternNode::Var("s"),
                           rdf::PatternNode::Const(rdf::Term::Iri(kPred)),
                           rdf::PatternNode::Var("o")});
  sq.stars.push_back(std::move(star));
  if (!probe_terms.empty()) {
    sq.instantiations["o"] = std::move(probe_terms);
  }
  return sq;
}

std::vector<rdf::Binding> MakeRows(const std::string& tag, int n) {
  std::vector<rdf::Binding> rows;
  for (int i = 0; i < n; ++i) {
    rdf::Binding row;
    row["s"] = rdf::Term::Literal(tag + "_" + std::to_string(i));
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Satellite 1: the stats key carries an instantiation digest, so a bound
// probe leaf calibrates (and caches) apart from the unbound leaf.

TEST(FedCacheTest, StatsKeyIncludesInstantiationDigest) {
  const SubQuery unbound = BoundStar("src", {});
  const SubQuery probe_a =
      BoundStar("src", {rdf::Term::Literal("a1"), rdf::Term::Literal("a2")});
  const SubQuery probe_b = BoundStar("src", {rdf::Term::Literal("b1")});
  const SubQuery probe_a_again =
      BoundStar("src", {rdf::Term::Literal("a1"), rdf::Term::Literal("a2")});

  const std::string key_unbound = SubQueryStatsKey(unbound);
  const std::string key_a = SubQueryStatsKey(probe_a);
  const std::string key_b = SubQueryStatsKey(probe_b);

  // Unbound keys keep the exact historic bytes: no digest section.
  EXPECT_EQ(key_unbound.find("|I:"), std::string::npos);
  // Bound keys differ from the unbound key and from each other; equal
  // binding sets produce equal keys.
  EXPECT_NE(key_a, key_unbound);
  EXPECT_NE(key_b, key_unbound);
  EXPECT_NE(key_a, key_b);
  EXPECT_EQ(key_a, SubQueryStatsKey(probe_a_again));
  // The digest section counts instantiated *variables* (one here) and
  // hashes the term values.
  EXPECT_NE(key_a.find("|I:1:"), std::string::npos);

  // Calibration independence: the probe's tiny actuals do not poison the
  // unbound leaf's feedback, and vice versa.
  stats::StatsCatalog catalog;
  catalog.RecordActual(key_a, 2);
  EXPECT_TRUE(catalog.Feedback(key_a).has_value());
  EXPECT_FALSE(catalog.Feedback(key_unbound).has_value());
  catalog.RecordActual(key_unbound, 5000);
  ASSERT_TRUE(catalog.Feedback(key_a).has_value());
  EXPECT_DOUBLE_EQ(*catalog.Feedback(key_a), 2.0);
}

// ---------------------------------------------------------------------------
// Satellite 2a: best-effort runs that dropped a leaf are partial; their
// truncated operator counts must never reach the runtime feedback loop.

TEST(FedCacheTest, PartialBestEffortRunDoesNotFoldBack) {
  auto lake = BuildTinyLake();
  ASSERT_NE(lake, nullptr);
  const lslod::BenchmarkQuery* q1 = lslod::FindQuery("Q1");
  ASSERT_NE(q1, nullptr);

  PlanOptions options;
  options.use_cost_model = true;
  options.failure_mode = FailureMode::kBestEffort;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 0.1;
  options.retry.max_backoff_ms = 1;
  // Every source is permanently dead: whatever leaves Q1 uses are dropped
  // and the answer is partial.
  for (const auto& [id, db] : lake->databases) {
    options.faults[id].permanent_outage = true;
  }

  auto partial = lake->engine->Execute(q1->sparql, options);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_TRUE(partial->stats.partial);
  ASSERT_NE(lake->engine->stats_catalog(), nullptr);
  EXPECT_EQ(lake->engine->stats_catalog()->feedback_size(), 0u);

  // The same query against healthy sources folds its actuals back.
  PlanOptions healthy;
  healthy.use_cost_model = true;
  auto clean = lake->engine->Execute(q1->sparql, healthy);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_FALSE(clean->stats.partial);
  EXPECT_GT(lake->engine->stats_catalog()->feedback_size(), 0u);
}

// ---------------------------------------------------------------------------
// Satellite 2b: a hedge race loser is cancelled mid-flight; its wrapper
// call duration must not feed the latency tracker (a cancelled attempt
// says nothing about the source), and its rows must never be cached.

TEST(FedCacheTest, CancelledHedgeLoserRecordsNoLatencySample) {
  auto engine = MakeEngine({{"slow", 6, 50}, {"fast", 6, 0}});
  ASSERT_NE(engine, nullptr);
  LatencyTracker tracker;

  PlanOptions options;
  options.hedge.enabled = true;
  options.hedge.min_samples = 1'000'000;  // pin the deterministic fallback
  options.hedge.fallback_delay_ms = 5;
  options.hedge.min_delay_ms = 1;
  options.latency = &tracker;

  auto answer = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_GE(answer->stats.hedges_fired, 1u);
  ASSERT_GE(answer->stats.hedge_wins, 1u);
  // The slow arm's only call lost its race and was cancelled: no sample.
  // The fast source completed at least its own arm: samples recorded.
  EXPECT_EQ(tracker.Quantile("slow", 0.5).samples, 0u);
  EXPECT_GE(tracker.Quantile("fast", 0.5).samples, 1u);
}

// ---------------------------------------------------------------------------
// Satellite 4: answers with caching on are the exact multiset of the
// cache-off baseline for every benchmark query, for both the cold
// (populating) and warm (replaying) run, and the baseline is the
// single-store oracle's answer.

TEST(FedCacheTest, BenchmarkAnswersMatchCacheOnVsOff) {
  auto lake = BuildTinyLake();
  ASSERT_NE(lake, nullptr);

  uint64_t total_hits = 0;
  for (const lslod::BenchmarkQuery& query : lslod::BenchmarkQueries()) {
    auto baseline = lake->engine->Execute(query.sparql, PlanOptions());
    ASSERT_TRUE(baseline.ok()) << query.id << ": " << baseline.status();
    EXPECT_EQ(baseline->stats.sub_answer_hits, 0u);
    EXPECT_EQ(baseline->stats.sub_answer_misses, 0u);
    const std::vector<std::string> expected = SerializeAnswers(*baseline);
    EXPECT_EQ(expected, OracleAnswers(*lake, query.sparql)) << query.id;

    PlanOptions on = CacheOptions();
    auto cold = lake->engine->Execute(query.sparql, on);
    ASSERT_TRUE(cold.ok()) << query.id << ": " << cold.status();
    EXPECT_EQ(SerializeAnswers(*cold), expected) << query.id << " (cold)";

    auto warm = lake->engine->Execute(query.sparql, on);
    ASSERT_TRUE(warm.ok()) << query.id << ": " << warm.status();
    EXPECT_EQ(SerializeAnswers(*warm), expected) << query.id << " (warm)";
    total_hits += warm->stats.sub_answer_hits;
  }
  // Warm runs actually replayed from the sub-answer cache somewhere.
  EXPECT_GT(total_hits, 0u);
  EXPECT_GT(lake->engine->plan_cache()->plan_stats().hits, 0u);
  EXPECT_GT(lake->engine->plan_cache()->parsed_stats().hits, 0u);
}

// ---------------------------------------------------------------------------
// Invalidation matrix (1/3): AnalyzeSources bumps the structural epochs,
// flushing every cached plan and sub-answer built against the previous
// statistics. Fresh entries repopulate and hit again.

TEST(FedCacheTest, ReanalyzeInvalidatesPlansAndSubAnswers) {
  auto lake = BuildTinyLake();
  ASSERT_NE(lake, nullptr);
  const lslod::BenchmarkQuery* q1 = lslod::FindQuery("Q1");
  ASSERT_NE(q1, nullptr);
  const PlanOptions options = CacheOptions();

  auto cold = lake->engine->Execute(q1->sparql, options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  const std::vector<std::string> expected = SerializeAnswers(*cold);

  auto warm = lake->engine->Execute(q1->sparql, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_GT(warm->stats.sub_answer_hits, 0u);
  EXPECT_EQ(SerializeAnswers(*warm), expected);

  const uint64_t plan_invalidations_before =
      lake->engine->plan_cache()->plan_stats().invalidations;
  const uint64_t answer_invalidations_before =
      lake->engine->answer_cache()->stats().invalidations;
  ASSERT_TRUE(lake->engine->AnalyzeSources().ok());

  auto stale = lake->engine->Execute(q1->sparql, options);
  ASSERT_TRUE(stale.ok()) << stale.status();
  EXPECT_EQ(stale->stats.sub_answer_hits, 0u);
  EXPECT_GT(stale->stats.sub_answer_misses, 0u);
  EXPECT_EQ(SerializeAnswers(*stale), expected);
  EXPECT_GT(lake->engine->plan_cache()->plan_stats().invalidations,
            plan_invalidations_before);
  EXPECT_GT(lake->engine->answer_cache()->stats().invalidations,
            answer_invalidations_before);

  auto rewarm = lake->engine->Execute(q1->sparql, options);
  ASSERT_TRUE(rewarm.ok()) << rewarm.status();
  EXPECT_GT(rewarm->stats.sub_answer_hits, 0u);
  EXPECT_EQ(SerializeAnswers(*rewarm), expected);
}

// ---------------------------------------------------------------------------
// Invalidation matrix (2/3): bumping a source's data version changes the
// sub-answer cache key, so warm entries stop matching (no stale replay of
// the old version's rows) and the new version repopulates.

TEST(FedCacheTest, DataVersionBumpMissesTheSubAnswerCache) {
  std::vector<ScriptedWrapper*> handles;
  auto engine = MakeEngine({{"s1", 6}}, &handles);
  ASSERT_NE(engine, nullptr);
  ASSERT_EQ(handles.size(), 1u);
  const PlanOptions options = CacheOptions();

  auto cold = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  auto warm = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_GT(warm->stats.sub_answer_hits, 0u);

  handles[0]->BumpVersion();
  auto bumped = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(bumped.ok()) << bumped.status();
  EXPECT_EQ(bumped->stats.sub_answer_hits, 0u);
  EXPECT_GT(bumped->stats.sub_answer_misses, 0u);

  auto rewarm = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(rewarm.ok()) << rewarm.status();
  EXPECT_GT(rewarm->stats.sub_answer_hits, 0u);
}

// ---------------------------------------------------------------------------
// Invalidation matrix (3/3): a breaker state transition bumps the routing
// epoch; plans built while a source was routable (or avoided) cannot be
// replayed once the breaker flips.

TEST(FedCacheTest, BreakerTransitionInvalidatesCachedPlans) {
  auto engine = MakeEngine({{"s1", 6}});
  ASSERT_NE(engine, nullptr);
  const PlanOptions options = CacheOptions();

  auto cold = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  auto warm = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_GT(warm->stats.sub_answer_hits, 0u);
  const uint64_t plan_invalidations_before =
      engine->plan_cache()->plan_stats().invalidations;

  // Open a breaker (an unrelated source: only the epoch moves, not the
  // plan shape) — each open/half-open/close edge bumps the routing epoch.
  const uint64_t epoch_before = engine->breakers()->routing_epoch();
  for (int i = 0; i < 5; ++i) engine->breakers()->OnFailure("ghost");
  ASSERT_GT(engine->breakers()->routing_epoch(), epoch_before);

  auto stale = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(stale.ok()) << stale.status();
  EXPECT_EQ(stale->stats.sub_answer_hits, 0u);
  EXPECT_GT(engine->plan_cache()->plan_stats().invalidations,
            plan_invalidations_before);

  auto rewarm = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(rewarm.ok()) << rewarm.status();
  EXPECT_GT(rewarm->stats.sub_answer_hits, 0u);
}

// ---------------------------------------------------------------------------
// Multi-tenant fairness: a scope over its byte quota evicts its *own*
// least-recently-used entries; other scopes' entries survive untouched.

TEST(FedCacheTest, ScopeQuotaEvictsOwnEntriesOnly) {
  SubAnswerCacheConfig config;
  config.shards = 1;
  config.max_entries = 1024;
  SubAnswerCache cache(config);
  const EpochStamp stamp;

  const std::vector<rdf::Binding> sample = MakeRows("x", 16);
  // Accounted bytes per entry = key length + ApproxBytes(rows); every key
  // below is 9 characters.
  const size_t entry_bytes = 9 + SubAnswerCache::ApproxBytes(sample);
  ASSERT_GT(entry_bytes, 9u);
  cache.SetScopeQuota("t1", entry_bytes * 2);

  cache.Insert("other|v:0", "t2", MakeRows("x", 16), stamp);
  for (int i = 0; i < 4; ++i) {
    cache.Insert("t1key" + std::to_string(i) + "|v:0", "t1",
                 MakeRows("x", 16), stamp);
  }
  // t1 is clamped to its quota; t2's single entry is untouched.
  EXPECT_LE(cache.ScopeBytes("t1"), entry_bytes * 2);
  EXPECT_EQ(cache.ScopeBytes("t2"), entry_bytes);
  EXPECT_NE(cache.Lookup("other|v:0", stamp), nullptr);
  EXPECT_GT(cache.stats().evictions, 0u);
  // The most recently inserted t1 entries are the survivors.
  EXPECT_NE(cache.Lookup("t1key3|v:0", stamp), nullptr);
  EXPECT_EQ(cache.Lookup("t1key0|v:0", stamp), nullptr);
}

TEST(FedCacheTest, OversizedSubAnswerIsNotCached) {
  SubAnswerCacheConfig config;
  config.max_entry_bytes = 8;  // smaller than any real row set
  SubAnswerCache cache(config);
  const EpochStamp stamp;
  cache.Insert("big|v:0", "", MakeRows("x", 64), stamp);
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.Lookup("big|v:0", stamp), nullptr);
}

}  // namespace
}  // namespace lakefed::fed
