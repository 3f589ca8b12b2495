// Failure injection and concurrency robustness for the federated executor:
// wrapper errors mid-stream, empty sources, cancellation through LIMIT,
// streaming behaviour, and repeated-execution stress.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/stopwatch.h"
#include "fed/engine.h"

namespace lakefed::fed {
namespace {

constexpr char kClass[] = "http://t/C";
constexpr char kPred[] = "http://t/p";

// A scripted source: emits `rows` bindings for ?s/?o, optionally failing
// after `fail_after` rows or sleeping per row.
class ScriptedWrapper : public SourceWrapper {
 public:
  struct Script {
    int rows = 10;
    int fail_after = -1;          // -1 = never fail
    double sleep_ms_per_row = 0;  // engine-side pacing
  };

  ScriptedWrapper(std::string id, Script script)
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
        LAKEFED_RETURN_NOT_OK(emitter.Finish());  // injected faults win
        return Status::IoError("source " + id_ + " lost its connection");
      }
      if (script_.sleep_ms_per_row > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            script_.sleep_ms_per_row));
      }
      rdf::Binding row;
      for (const std::string& var : vars) {
        row[var] = rdf::Term::Literal(id_ + "_" + var + "_" +
                                      std::to_string(i % 50));
      }
      // Emitter routes batches through the delay channel, so injected
      // network faults surface via Finish(); a false return = cancelled.
      if (!emitter.Emit(std::move(row))) break;
    }
    return emitter.Finish();
  }

 private:
  std::string id_;
  Script script_;
};

const char kStarQuery[] =
    "SELECT ?s ?o WHERE { ?s a <http://t/C> ; <http://t/p> ?o . }";

std::unique_ptr<FederatedEngine> MakeEngine(
    std::vector<std::pair<std::string, ScriptedWrapper::Script>> sources) {
  auto engine = std::make_unique<FederatedEngine>();
  for (auto& [id, script] : sources) {
    Status st = engine->RegisterSource(
        std::make_unique<ScriptedWrapper>(id, script));
    if (!st.ok()) return nullptr;
  }
  return engine;
}

TEST(FedRobustnessTest, WrapperErrorPropagates) {
  auto engine = MakeEngine({{"s1", {.rows = 100, .fail_after = 10}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options;
  auto answer = engine->Execute(kStarQuery, options);
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsIoError()) << answer.status();
  EXPECT_NE(answer.status().message().find("lost its connection"),
            std::string::npos);
}

TEST(FedRobustnessTest, ErrorInOneUnionBranchPropagates) {
  auto engine = MakeEngine({{"ok", {.rows = 5}},
                            {"bad", {.rows = 100, .fail_after = 3}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options;
  auto answer = engine->Execute(kStarQuery, options);
  EXPECT_TRUE(answer.status().IsIoError()) << answer.status();
}

TEST(FedRobustnessTest, BlockingOperatorsEmitNothingBeforeLeafError) {
  // The source fails after 10 of its 100 rows. A COUNT or a sort over those
  // 10 rows would be a wrong answer, so the failed execution must end
  // before the blocking operator emits anything.
  for (const char* query :
       {"SELECT (COUNT(*) AS ?n) WHERE { ?s a <http://t/C> ; "
        "<http://t/p> ?o . }",
        "SELECT ?s WHERE { ?s a <http://t/C> ; <http://t/p> ?o . } "
        "ORDER BY ?s"}) {
    SCOPED_TRACE(query);
    auto engine = MakeEngine({{"s1", {.rows = 100, .fail_after = 10}}});
    ASSERT_NE(engine, nullptr);
    auto stream = engine->CreateSession(QueryRequest::Text(query, {}));
    ASSERT_TRUE(stream.ok()) << stream.status();
    rdf::Binding row;
    size_t rows = 0;
    while ((*stream)->Next(&row)) ++rows;
    EXPECT_TRUE((*stream)->Finish().IsIoError());
    EXPECT_EQ(rows, 0u);
  }
}

TEST(FedRobustnessTest, CancelledLegsAreNotChargedToTheirSources) {
  // With retries or hedging on, leaves run the recovery ladder or a hedge
  // race, both of which report every attempt to the source's circuit
  // breaker. Attempts ended by the session's deadline failed nothing
  // themselves: the healthy sources must not count a failure or be listed
  // as failed.
  PlanOptions retrying;
  retrying.retry.max_attempts = 3;
  PlanOptions hedging;
  hedging.hedge.enabled = true;
  for (const PlanOptions& options : {retrying, hedging}) {
    SCOPED_TRACE(options.hedge.enabled ? "hedging" : "retrying");
    auto engine =
        MakeEngine({{"a", {.rows = 1000, .sleep_ms_per_row = 5}},
                    {"b", {.rows = 1000, .sleep_ms_per_row = 5}}});
    ASSERT_NE(engine, nullptr);
    QueryRequest request = QueryRequest::Text(kStarQuery, options);
    request.timeout = std::chrono::milliseconds(100);
    auto stream = engine->CreateSession(std::move(request));
    ASSERT_TRUE(stream.ok()) << stream.status();
    rdf::Binding row;
    while ((*stream)->Next(&row)) {
    }
    EXPECT_TRUE((*stream)->Finish().IsDeadlineExceeded());
    EXPECT_TRUE((*stream)->stats().failed_sources.empty());
    for (const BreakerRegistry::Entry& entry :
         engine->breakers()->Snapshot()) {
      EXPECT_EQ(entry.total_failures, 0u) << entry.source_id;
    }
  }
}

TEST(FedRobustnessTest, EmptySourceYieldsEmptyResult) {
  auto engine = MakeEngine({{"s1", {.rows = 0}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options;
  auto answer = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->rows.empty());
  EXPECT_EQ(answer->trace.num_answers(), 0u);
}

TEST(FedRobustnessTest, LimitCancelsUpstreamQuickly) {
  // A huge slow source: LIMIT 3 must terminate long before the source
  // would finish on its own (~100k * 0.05ms = 5s).
  auto engine =
      MakeEngine({{"big", {.rows = 100000, .sleep_ms_per_row = 0.05}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options;
  Stopwatch sw;
  auto answer = engine->Execute(std::string(kStarQuery) + " LIMIT 3",
                                options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->rows.size(), 3u);
  EXPECT_LT(sw.ElapsedSeconds(), 2.0);
}

TEST(FedRobustnessTest, AnswersStreamBeforeCompletion) {
  auto engine =
      MakeEngine({{"paced", {.rows = 200, .sleep_ms_per_row = 1.0}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options;
  auto answer = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->rows.size(), 200u);
  // First answer must arrive well before the run completes (streaming).
  EXPECT_LT(answer->trace.TimeToFirst(),
            answer->trace.completion_seconds / 4);
}

TEST(FedRobustnessTest, UnionAcrossSourcesMergesAll) {
  auto engine = MakeEngine({{"a", {.rows = 7}}, {"b", {.rows = 11}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options;
  auto plan = engine->Plan(kStarQuery, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->Explain().find("Union (2 sources)"), std::string::npos)
      << plan->Explain();
  auto answer = engine->Execute(kStarQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->rows.size(), 18u);
}

TEST(FedRobustnessTest, RepeatedExecutionsAreStable) {
  auto engine = MakeEngine({{"a", {.rows = 50}}, {"b", {.rows = 50}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options;
  size_t expected = 0;
  for (int i = 0; i < 50; ++i) {
    auto answer = engine->Execute(kStarQuery, options);
    ASSERT_TRUE(answer.ok()) << "iteration " << i << ": " << answer.status();
    if (i == 0) {
      expected = answer->rows.size();
    } else {
      ASSERT_EQ(answer->rows.size(), expected) << "iteration " << i;
    }
  }
}

TEST(FedRobustnessTest, ConcurrentExecutionsOnOneEngine) {
  auto engine = MakeEngine({{"a", {.rows = 40}}, {"b", {.rows = 40}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        auto answer = engine->Execute(kStarQuery, options);
        if (!answer.ok() || answer->rows.size() != 80u) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(FedRobustnessTest, JoinWithErroringSideFails) {
  // Two molecules so the query spans two services joined on ?o.
  auto engine = std::make_unique<FederatedEngine>();
  ASSERT_TRUE(engine
                  ->RegisterSource(std::make_unique<ScriptedWrapper>(
                      "left", ScriptedWrapper::Script{.rows = 30}))
                  .ok());
  // right source serves a second class
  class OtherWrapper : public ScriptedWrapper {
   public:
    OtherWrapper() : ScriptedWrapper("right", {.rows = 50, .fail_after = 5}) {}
    std::vector<mapping::RdfMt> Molecules() const override {
      mapping::RdfMt molecule;
      molecule.class_iri = "http://t/D";
      molecule.predicates = {rdf::kRdfType, "http://t/q"};
      molecule.sources = {"right"};
      return {molecule};
    }
  };
  ASSERT_TRUE(engine->RegisterSource(std::make_unique<OtherWrapper>()).ok());
  PlanOptions options;
  auto answer = engine->Execute(
      "SELECT * WHERE { ?s a <http://t/C> ; <http://t/p> ?o . "
      "?d a <http://t/D> ; <http://t/q> ?o . }",
      options);
  EXPECT_TRUE(answer.status().IsIoError()) << answer.status();
}

}  // namespace
}  // namespace lakefed::fed
