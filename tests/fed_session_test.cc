// Streaming query sessions: first answers surface before slow sources
// finish, Cancel() and deadlines tear down every wrapper promptly, one
// engine hosts many concurrent sessions, undrained streams do not starve
// the engine's worker pool, invalid options are rejected at session
// creation, and the blocking shims stay equivalent.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "fed/engine.h"
#include "fed_test_util.h"

namespace lakefed::fed {
namespace {

constexpr char kClass[] = "http://t/C";
constexpr char kPred[] = "http://t/p";

const char kStarQuery[] =
    "SELECT ?s ?o WHERE { ?s a <http://t/C> ; <http://t/p> ?o . }";

// Pulls a stream to its end; returns the rows delivered.
size_t CountRows(ResultStream* stream) {
  RowBatch batch;
  size_t rows = 0;
  while (stream->NextBatch(&batch)) rows += batch.size();
  return rows;
}

// A scripted source implementing the token-aware wrapper contract: sleeps
// through the token (so cancellation interrupts the pacing itself) and
// counts live executions, which lets tests assert that teardown really
// stopped the scan.
class PacedWrapper : public SourceWrapper {
 public:
  struct Script {
    int rows = 10;
    double sleep_ms_per_row = 0;
  };

  PacedWrapper(std::string id, Script script)
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
      if (ctx.token.IsCancelled()) break;
      if (script_.sleep_ms_per_row > 0 &&
          ctx.token.SleepFor(script_.sleep_ms_per_row)) {
        break;  // woken by cancellation mid-sleep
      }
      rdf::Binding row;
      for (const std::string& var : vars) {
        row[var] = rdf::Term::Literal(id_ + "_" + var + "_" +
                                      std::to_string(i));
      }
      if (!emitter.Emit(std::move(row))) break;  // cancelled downstream
      rows_shipped_.fetch_add(1);
    }
    return emitter.Finish();
  }

  int rows_shipped() const { return rows_shipped_.load(); }

 private:
  std::string id_;
  Script script_;
  std::atomic<int> rows_shipped_{0};
};

std::unique_ptr<FederatedEngine> MakeEngine(
    std::vector<std::pair<std::string, PacedWrapper::Script>> sources,
    std::vector<PacedWrapper*>* out_wrappers = nullptr) {
  auto engine = std::make_unique<FederatedEngine>();
  for (auto& [id, script] : sources) {
    auto wrapper = std::make_unique<PacedWrapper>(id, script);
    if (out_wrappers != nullptr) out_wrappers->push_back(wrapper.get());
    if (!engine->RegisterSource(std::move(wrapper)).ok()) return nullptr;
  }
  return engine;
}

// The tentpole property: with a fast and a (very) slow source behind the
// Gamma3 network, the first NextBatch() returns long before the slow source
// could have finished, and cancelling afterwards joins every thread fast.
TEST(FedSessionTest, FirstRowArrivesBeforeSlowestSourceFinishes) {
  std::vector<PacedWrapper*> wrappers;
  auto engine = MakeEngine({{"fast", {.rows = 5}},
                            {"slow", {.rows = 500, .sleep_ms_per_row = 20}}},
                           &wrappers);
  ASSERT_NE(engine, nullptr);
  PlanOptions options;
  options.network = net::NetworkProfile::Gamma3();  // slow network profile

  Stopwatch sw;
  auto stream = engine->CreateSession(QueryRequest::Text(kStarQuery, options));
  ASSERT_TRUE(stream.ok()) << stream.status();

  RowBatch batch;
  ASSERT_TRUE((*stream)->NextBatch(&batch));
  const double first_row_seconds = sw.ElapsedSeconds();
  // The slow source alone needs >= 500 * 20ms = 10s; the first answer must
  // arrive while it is still scanning.
  EXPECT_LT(first_row_seconds, 5.0);
  EXPECT_LT(wrappers[1]->rows_shipped(), 500);
  EXPECT_EQ((*stream)->trace().num_answers(), batch.size());

  (*stream)->Cancel();
  Status st = (*stream)->Finish();
  EXPECT_TRUE(st.IsCancelled()) << st;
  // Finish() waits for every task and leaf job: well under the 10s the
  // slow source would need to drain on its own.
  EXPECT_LT(sw.ElapsedSeconds(), 5.0);
}

TEST(FedSessionTest, CancelMidQueryStopsWrapperThreads) {
  std::vector<PacedWrapper*> wrappers;
  auto engine = MakeEngine(
      {{"endless", {.rows = 1000000, .sleep_ms_per_row = 1}}}, &wrappers);
  ASSERT_NE(engine, nullptr);
  auto stream = engine->CreateSession(QueryRequest::Text(kStarQuery, {}));
  ASSERT_TRUE(stream.ok()) << stream.status();

  RowBatch batch;
  for (size_t rows = 0; rows < 3; rows += batch.size()) {
    ASSERT_TRUE((*stream)->NextBatch(&batch));
  }

  Stopwatch sw;
  (*stream)->Cancel();
  EXPECT_FALSE((*stream)->NextBatch(&batch));  // ends after cancellation
  Status st = (*stream)->Finish();      // joins the wrapper thread
  EXPECT_TRUE(st.IsCancelled()) << st;
  EXPECT_LT(sw.ElapsedSeconds(), 2.0);
  const int shipped_at_finish = wrappers[0]->rows_shipped();
  // The wrapper thread is gone: no more rows appear.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(wrappers[0]->rows_shipped(), shipped_at_finish);
}

TEST(FedSessionTest, AbandonedStreamCancelsOnDestruction) {
  auto engine =
      MakeEngine({{"endless", {.rows = 1000000, .sleep_ms_per_row = 1}}});
  ASSERT_NE(engine, nullptr);
  Stopwatch sw;
  {
    auto stream = engine->CreateSession(QueryRequest::Text(kStarQuery, {}));
    ASSERT_TRUE(stream.ok()) << stream.status();
    RowBatch batch;
    ASSERT_TRUE((*stream)->NextBatch(&batch));
    // Dropped without Cancel()/Finish(): the destructor must tear down.
  }
  EXPECT_LT(sw.ElapsedSeconds(), 2.0);
}

TEST(FedSessionTest, DeadlineExpiryReturnsDeadlineExceeded) {
  auto engine =
      MakeEngine({{"slow", {.rows = 100000, .sleep_ms_per_row = 2}}});
  ASSERT_NE(engine, nullptr);
  QueryRequest request = QueryRequest::Text(kStarQuery, {});
  request.timeout = std::chrono::milliseconds(150);

  Stopwatch sw;
  auto stream = engine->CreateSession(std::move(request));
  ASSERT_TRUE(stream.ok()) << stream.status();
  const size_t rows = CountRows(stream->get());
  Status st = (*stream)->Finish();
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st;
  EXPECT_LT(sw.ElapsedSeconds(), 5.0);
  // Partial progress is reported faithfully. Every client-delivered row
  // crossed the network, but a delivered morsel may still be sitting in
  // the exchange queue when the deadline cancels the consumer, so shipped
  // messages can exceed delivered rows by less than one batch per source.
  EXPECT_LT(rows, 100000u);
  EXPECT_EQ((*stream)->trace().num_answers(), rows);
  EXPECT_GE((*stream)->stats().messages_transferred, rows);
  EXPECT_LE((*stream)->stats().messages_transferred,
            rows + PlanOptions{}.batch_size);
}

TEST(FedSessionTest, AggregateSessionDeadlineExpiresPromptly) {
  // The aggregate holds every row back until its input is complete, which
  // a 100000-row paced scan never is within the deadline: the session must
  // still end at the deadline, with no partial group emitted.
  auto engine =
      MakeEngine({{"slow", {.rows = 100000, .sleep_ms_per_row = 2}}});
  ASSERT_NE(engine, nullptr);
  QueryRequest request = QueryRequest::Text(
      "SELECT (COUNT(*) AS ?n) WHERE { ?s a <http://t/C> ; "
      "<http://t/p> ?o . }",
      {});
  request.timeout = std::chrono::milliseconds(150);

  Stopwatch sw;
  auto stream = engine->CreateSession(std::move(request));
  ASSERT_TRUE(stream.ok()) << stream.status();
  const size_t rows = CountRows(stream->get());
  Status st = (*stream)->Finish();
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st;
  EXPECT_LT(sw.ElapsedSeconds(), 2.0);
  EXPECT_EQ(rows, 0u);
  EXPECT_GT((*stream)->stats().messages_transferred, 0u);
}

TEST(FedSessionTest, LimitOverUnionCancelsUpstreamWork) {
  // LIMIT sits above the branch Union in the query's one plan: once it has
  // its rows the dataflow upstream closes, so neither branch scans its
  // 100000 paced rows (about 5 s each) to the end.
  std::vector<PacedWrapper*> wrappers;
  auto engine = MakeEngine(
      {{"paced", {.rows = 100000, .sleep_ms_per_row = 0.05}}}, &wrappers);
  ASSERT_NE(engine, nullptr);
  Stopwatch sw;
  auto answer = engine->Execute(
      "SELECT ?s WHERE { { ?s a <http://t/C> ; <http://t/p> ?o . } UNION "
      "{ ?s a <http://t/C> ; <http://t/p> ?o . } } LIMIT 3",
      {});
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->rows.size(), 3u);
  EXPECT_LT(sw.ElapsedSeconds(), 2.0);
  EXPECT_LT(wrappers[0]->rows_shipped(), 100000);
}

TEST(FedSessionTest, DeadlineInterruptsNetworkDelayMidTransfer) {
  // One message costs ~2s of simulated delay: the deadline must wake the
  // wrapper inside DelayChannel::Transfer, not after it.
  auto engine = MakeEngine({{"s", {.rows = 100}}});
  ASSERT_NE(engine, nullptr);
  PlanOptions options;
  options.network = net::NetworkProfile::Custom("Glacial", 2000.0, 1.0);
  QueryRequest request = QueryRequest::Text(kStarQuery, options);
  request.timeout = std::chrono::milliseconds(100);

  Stopwatch sw;
  auto stream = engine->CreateSession(std::move(request));
  ASSERT_TRUE(stream.ok()) << stream.status();
  CountRows(stream->get());
  EXPECT_TRUE((*stream)->Finish().IsDeadlineExceeded());
  EXPECT_LT(sw.ElapsedSeconds(), 1.5);
}

TEST(FedSessionTest, ConcurrentSessionsOnOneEngine) {
  auto engine = MakeEngine({{"a", {.rows = 40}}, {"b", {.rows = 40}}});
  ASSERT_NE(engine, nullptr);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5; ++i) {
        auto stream =
            engine->CreateSession(QueryRequest::Text(kStarQuery, {}));
        if (!stream.ok()) {
          ++failures;
          continue;
        }
        const size_t rows = CountRows(stream->get());
        if (!(*stream)->Finish().ok() || rows != 80u) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// A stream nobody reads must not hold I/O-pool threads: leaves push into
// unbounded queues, so their jobs finish without a consumer. Were a leaf
// job to wait on a full queue instead, a dozen held streams would park
// every pool thread, the next session would starve, and destroying a held
// stream would wait forever on its own queued leaf job. The held streams'
// deadline lies far beyond the time budget, so such a regression fails the
// budget (once the deadline frees the pool) rather than hanging.
TEST(FedSessionTest, UndrainedStreamsDoNotStarveAnotherSession) {
  // Each leaf outgrows the 4096-row operator queues, so a blocking leaf
  // would park; every held stream buffers both leaves (~6 MB).
  auto engine = MakeEngine({{"a", {.rows = 10000}}, {"b", {.rows = 10000}}});
  ASSERT_NE(engine, nullptr);
  Stopwatch sw;
  QueryRequest held_request = QueryRequest::Text(kStarQuery, {});
  held_request.timeout = std::chrono::seconds(60);
  std::vector<std::unique_ptr<ResultStream>> held;
  for (int i = 0; i < 12; ++i) {
    auto stream = engine->CreateSession(held_request);
    ASSERT_TRUE(stream.ok()) << stream.status();
    RowBatch batch;
    ASSERT_TRUE((*stream)->NextBatch(&batch)) << "held stream " << i;
    held.push_back(std::move(*stream));
  }

  QueryRequest request = QueryRequest::Text(kStarQuery, {});
  request.timeout = std::chrono::seconds(10);
  auto stream = engine->CreateSession(request);
  ASSERT_TRUE(stream.ok()) << stream.status();
  auto answer = (*stream)->Drain();
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->rows.size(), 20000u);
  // Holding twelve streams and draining a thirteenth beside them.
  EXPECT_LT(sw.ElapsedSeconds(), 10.0);

  sw.Restart();
  held.clear();  // cancels and tears down every held stream
  EXPECT_LT(sw.ElapsedSeconds(), 5.0);
}

TEST(FedSessionTest, EngineSealsAtFirstSession) {
  auto engine = MakeEngine({{"a", {.rows = 3}}});
  ASSERT_NE(engine, nullptr);
  EXPECT_FALSE(engine->sealed());
  auto stream = engine->CreateSession(QueryRequest::Text(kStarQuery, {}));
  ASSERT_TRUE(stream.ok()) << stream.status();
  EXPECT_TRUE(engine->sealed());
  Status st = engine->RegisterSource(
      std::make_unique<PacedWrapper>("late", PacedWrapper::Script{}));
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_EQ(engine->num_sources(), 1u);
  EXPECT_TRUE((*stream)->Drain().ok());
}

TEST(FedSessionTest, InvalidOptionsRejectedAtSessionCreation) {
  auto engine = MakeEngine({{"a", {.rows = 3}}});
  ASSERT_NE(engine, nullptr);

  PlanOptions negative_threshold;
  negative_threshold.slow_network_threshold_ms = -1.0;
  auto s1 = engine->CreateSession(
      QueryRequest::Text(kStarQuery, negative_threshold));
  EXPECT_TRUE(s1.status().IsInvalidArgument()) << s1.status();

  PlanOptions contradictory;
  contradictory.force_filter_placement = FilterPlacement::kSource;
  contradictory.heuristic2_filter_placement = false;
  auto s2 =
      engine->CreateSession(QueryRequest::Text(kStarQuery, contradictory));
  EXPECT_TRUE(s2.status().IsInvalidArgument()) << s2.status();

  // The blocking shims validate through the same path.
  auto shim = engine->Execute(kStarQuery, negative_threshold);
  EXPECT_TRUE(shim.status().IsInvalidArgument()) << shim.status();
}

TEST(FedSessionTest, ParseErrorSurfacesAtSessionCreation) {
  auto engine = MakeEngine({{"a", {.rows = 3}}});
  ASSERT_NE(engine, nullptr);
  auto stream = engine->CreateSession(QueryRequest::Text("SELECT WHERE", {}));
  EXPECT_FALSE(stream.ok());
}

// The blocking shims must produce exactly what a drained session produces —
// including the blocking operators (aggregates, UNION under modifiers).
TEST(FedSessionTest, ShimsMatchDrainedSessionsOnRealLake) {
  auto lake = BuildTinyLake(/*scale=*/0.05);
  ASSERT_NE(lake, nullptr);
  const std::vector<std::string> queries = {
      // Plain star (streaming).
      "PREFIX dsv: <http://lslod.example.org/diseasome/vocab#> "
      "SELECT ?d ?n WHERE { ?d a dsv:Disease ; dsv:name ?n . }",
      // Aggregate (grouped at the mediator).
      "PREFIX dsv: <http://lslod.example.org/diseasome/vocab#> "
      "SELECT ?c (COUNT(?d) AS ?n) WHERE { ?d a dsv:Disease ; "
      "dsv:subtype ?c . } GROUP BY ?c",
      // UNION under ORDER BY + LIMIT.
      "PREFIX dsv: <http://lslod.example.org/diseasome/vocab#> "
      "SELECT ?n WHERE { { ?d a dsv:Disease ; dsv:name ?n . } UNION "
      "{ ?g a dsv:Gene ; dsv:geneSymbol ?n . } } ORDER BY ?n LIMIT 25",
      // Pure UNION (branches stream concurrently).
      "PREFIX dsv: <http://lslod.example.org/diseasome/vocab#> "
      "SELECT ?n WHERE { { ?d a dsv:Disease ; dsv:name ?n . } UNION "
      "{ ?g a dsv:Gene ; dsv:geneSymbol ?n . } }",
      // Aggregate over a UNION under ORDER BY + LIMIT (ties in ?n broken
      // by the unique group key, so the first five rows are determined).
      "PREFIX dsv: <http://lslod.example.org/diseasome/vocab#> "
      "SELECT ?c (COUNT(?x) AS ?n) WHERE { { ?x a dsv:Disease ; "
      "dsv:subtype ?c . } UNION { ?x a dsv:Gene ; dsv:chromosome ?c . } } "
      "GROUP BY ?c ORDER BY DESC(?n) ?c LIMIT 5",
      // SELECT DISTINCT over a UNION.
      "PREFIX dsv: <http://lslod.example.org/diseasome/vocab#> "
      "SELECT DISTINCT ?c WHERE { { ?d a dsv:Disease ; dsv:subtype ?c . } "
      "UNION { ?g a dsv:Gene ; dsv:chromosome ?c . } }",
  };
  PlanOptions options;
  for (const std::string& query : queries) {
    auto shim = lake->engine->Execute(query, options);
    ASSERT_TRUE(shim.ok()) << query << ": " << shim.status();
    auto stream =
        lake->engine->CreateSession(QueryRequest::Text(query, options));
    ASSERT_TRUE(stream.ok()) << query << ": " << stream.status();
    auto drained = (*stream)->Drain();
    ASSERT_TRUE(drained.ok()) << query << ": " << drained.status();
    EXPECT_EQ(SerializeAnswers(*shim), SerializeAnswers(*drained)) << query;
    EXPECT_EQ(SerializeAnswers(*shim), OracleAnswers(*lake, query)) << query;
  }
}

TEST(FedSessionTest, StreamedAnswersArriveIncrementally) {
  // Every row of a paced source should surface promptly: with 40 rows at
  // 10ms pacing, a materializing API would hold row 0 back for ~0.4s.
  auto engine =
      MakeEngine({{"paced", {.rows = 40, .sleep_ms_per_row = 10}}});
  ASSERT_NE(engine, nullptr);
  auto stream = engine->CreateSession(QueryRequest::Text(kStarQuery, {}));
  ASSERT_TRUE(stream.ok()) << stream.status();
  const size_t rows = CountRows(stream->get());
  ASSERT_TRUE((*stream)->Finish().ok());
  EXPECT_EQ(rows, 40u);
  const AnswerTrace& trace = (*stream)->trace();
  ASSERT_EQ(trace.num_answers(), 40u);
  EXPECT_LT(trace.TimeToFirst(), trace.completion_seconds / 4);
}

}  // namespace
}  // namespace lakefed::fed
