// Batched-exchange semantics at the federation level: batch-size sweeps
// must be answer-identical, partial batches flush on stream end, and
// cancellation / deadlines mid-stream never tear or duplicate rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "fed/engine.h"
#include "fed/row_batch.h"
#include "fed_test_util.h"
#include "lslod/queries.h"

namespace lakefed::fed {
namespace {

const char kTwoSourceQuery[] =
    "PREFIX db: <http://lslod.example.org/drugbank/vocab#> "
    "PREFIX sider: <http://lslod.example.org/sider/vocab#> "
    "SELECT ?name ?effect WHERE { "
    "  ?drug a db:Drug ; db:name ?name . "
    "  ?se a sider:SideEffect ; sider:drug ?drug ; sider:effectName ?effect . "
    "}";

class FedBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake_ = BuildTinyLake(/*scale=*/0.05);
    ASSERT_NE(lake_, nullptr);
  }

  QueryAnswer Run(const std::string& query, const PlanOptions& options) {
    auto answer = lake_->engine->Execute(query, options);
    EXPECT_TRUE(answer.ok()) << answer.status();
    return answer.ok() ? std::move(*answer) : QueryAnswer{};
  }

  std::unique_ptr<lslod::DataLake> lake_;
};

// The batch size is an exchange granularity knob, not a semantic one:
// every size must produce the same answer multiset as the oracle, in
// both plan modes.
TEST_F(FedBatchTest, BatchSizeSweepIsAnswerIdentical) {
  const std::vector<std::string> oracle =
      OracleAnswers(*lake_, kTwoSourceQuery);
  ASSERT_FALSE(oracle.empty());
  for (PlanMode mode :
       {PlanMode::kPhysicalDesignAware, PlanMode::kPhysicalDesignUnaware}) {
    for (size_t batch : {size_t{1}, size_t{64}, size_t{1024}}) {
      PlanOptions options;
      options.mode = mode;
      options.batch_size = batch;
      QueryAnswer answer = Run(kTwoSourceQuery, options);
      EXPECT_EQ(SerializeAnswers(answer), oracle)
          << "mode=" << static_cast<int>(mode) << " batch_size=" << batch;
    }
  }
}

// With a batch size far larger than the answer set, the final partial
// batch must still flush when the sources close: no rows may be held
// back waiting for a full morsel.
TEST_F(FedBatchTest, PartialBatchFlushesOnClose) {
  PlanOptions options;
  options.batch_size = 4096;
  const std::vector<std::string> oracle =
      OracleAnswers(*lake_, kTwoSourceQuery);

  QueryRequest request = QueryRequest::Text(kTwoSourceQuery, options);
  auto stream = lake_->engine->CreateSession(std::move(request));
  ASSERT_TRUE(stream.ok()) << stream.status();

  QueryAnswer collected;
  collected.variables = (*stream)->variables();
  RowBatch batch;
  while ((*stream)->NextBatch(&batch)) {
    EXPECT_FALSE(batch.empty());
    EXPECT_LE(batch.size(), options.batch_size);
    for (rdf::Binding& row : batch) collected.rows.push_back(std::move(row));
  }
  ASSERT_TRUE((*stream)->Finish().ok());
  EXPECT_LT(collected.rows.size(), options.batch_size);
  EXPECT_EQ(SerializeAnswers(collected), oracle);
}

// Cancelling mid-stream may truncate the answer but must never tear a
// row (all delivered rows are well-formed oracle rows) nor duplicate one
// beyond its oracle multiplicity.
TEST_F(FedBatchTest, CancelMidStreamDeliversNoTornOrDuplicatedRows) {
  PlanOptions options;
  options.batch_size = 2;  // many small batches so cancel lands mid-stream
  std::vector<std::string> oracle = OracleAnswers(*lake_, kTwoSourceQuery);

  QueryRequest request = QueryRequest::Text(kTwoSourceQuery, options);
  auto stream = lake_->engine->CreateSession(std::move(request));
  ASSERT_TRUE(stream.ok()) << stream.status();

  QueryAnswer collected;
  collected.variables = (*stream)->variables();
  RowBatch batch;
  if ((*stream)->NextBatch(&batch)) {
    for (rdf::Binding& row : batch) collected.rows.push_back(std::move(row));
  }
  (*stream)->Cancel();
  while ((*stream)->NextBatch(&batch)) {
    for (rdf::Binding& row : batch) collected.rows.push_back(std::move(row));
  }
  EXPECT_EQ((*stream)->Finish().code(), StatusCode::kCancelled);

  // Every delivered row must appear in the oracle multiset; consume
  // matches so duplicates beyond multiplicity are caught.
  std::vector<std::string> got = SerializeAnswers(collected);
  for (const std::string& row : got) {
    auto it = std::find(oracle.begin(), oracle.end(), row);
    ASSERT_NE(it, oracle.end()) << "torn or duplicated row: " << row;
    oracle.erase(it);
  }
}

// An immediate deadline behaves like cancellation: the stream reports
// kDeadlineExceeded and whatever rows did arrive are untorn.
TEST_F(FedBatchTest, ExpiredDeadlineProducesNoTornRows) {
  PlanOptions options;
  options.batch_size = 2;
  std::vector<std::string> oracle = OracleAnswers(*lake_, kTwoSourceQuery);

  QueryRequest request = QueryRequest::Text(kTwoSourceQuery, options);
  request.timeout = std::chrono::milliseconds(0);
  auto stream = lake_->engine->CreateSession(std::move(request));
  ASSERT_TRUE(stream.ok()) << stream.status();

  QueryAnswer collected;
  collected.variables = (*stream)->variables();
  RowBatch batch;
  while ((*stream)->NextBatch(&batch)) {
    for (rdf::Binding& row : batch) collected.rows.push_back(std::move(row));
  }
  EXPECT_EQ((*stream)->Finish().code(), StatusCode::kDeadlineExceeded);
  std::vector<std::string> got = SerializeAnswers(collected);
  for (const std::string& row : got) {
    auto it = std::find(oracle.begin(), oracle.end(), row);
    ASSERT_NE(it, oracle.end()) << "torn row after deadline: " << row;
    oracle.erase(it);
  }
}

// batch_size is validated: zero is rejected before any plan is built.
TEST_F(FedBatchTest, ZeroBatchSizeIsRejected) {
  PlanOptions options;
  options.batch_size = 0;
  auto answer = lake_->engine->Execute(kTwoSourceQuery, options);
  EXPECT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
}

// The paper-grid queries (multi-star shapes, OPTIONAL, ORDER BY, LIMIT)
// are exchange-stress shapes; legacy row-at-a-time (batch_size=1) and
// full morsels must agree on every one of them.
TEST_F(FedBatchTest, PaperQueriesAgreeAcrossBatchSizes) {
  for (const lslod::BenchmarkQuery& bq : lslod::BenchmarkQueries()) {
    PlanOptions row_opts;
    row_opts.batch_size = 1;
    QueryAnswer row_answer = Run(bq.sparql, row_opts);

    PlanOptions batch_opts;
    batch_opts.batch_size = 1024;
    QueryAnswer batch_answer = Run(bq.sparql, batch_opts);

    EXPECT_EQ(SerializeAnswers(row_answer), SerializeAnswers(batch_answer))
        << "query " << bq.id;
  }
}

}  // namespace
}  // namespace lakefed::fed
