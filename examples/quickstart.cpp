// Quickstart: build a Semantic Data Lake, run a federated SPARQL query,
// inspect the plan and the answers.
//
//   $ ./examples/quickstart

#include <chrono>
#include <cstdio>

#include "fed/engine.h"
#include "lslod/generator.h"

using namespace lakefed;

int main() {
  // 1. Build the synthetic LSLOD lake: ten relational endpoints, 3NF
  //    tables, PK indexes, and advisor-selected secondary indexes.
  lslod::LakeConfig config;
  config.scale = 0.2;
  auto lake = lslod::BuildLake(config);
  if (!lake.ok()) {
    std::fprintf(stderr, "error: %s\n", lake.status().ToString().c_str());
    return 1;
  }
  fed::FederatedEngine& engine = *(*lake)->engine;
  std::printf("Data Lake ready: %zu sources, %zu molecule templates\n",
              engine.num_sources(), engine.catalog().size());

  // 2. A federated query: drugs and their side effects, two sources.
  const std::string query = R"(
PREFIX db: <http://lslod.example.org/drugbank/vocab#>
PREFIX sider: <http://lslod.example.org/sider/vocab#>
SELECT ?name ?effect WHERE {
  ?drug a db:Drug ; db:name ?name .
  ?se a sider:SideEffect ; sider:drug ?drug ; sider:effectName ?effect .
  FILTER STRSTARTS(?name, "drug00")
} LIMIT 10)";

  // 3. Plan it physical-design-aware on a slow network and show the QEP.
  fed::PlanOptions options;
  options.mode = fed::PlanMode::kPhysicalDesignAware;
  options.network = net::NetworkProfile::Gamma2();

  auto plan = engine.Plan(query, options);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan error: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\n-- query execution plan --\n%s", plan->Explain().c_str());

  // 4. Open a streaming session and print answers as they arrive. A
  //    deadline guards the whole query: past it, the stream terminates
  //    with kDeadlineExceeded and every source scan is torn down.
  fed::QueryRequest request = fed::QueryRequest::Text(query, options);
  request.timeout = std::chrono::seconds(30);
  auto stream = engine.CreateSession(std::move(request));
  if (!stream.ok()) {
    std::fprintf(stderr, "session error: %s\n",
                 stream.status().ToString().c_str());
    return 1;
  }
  std::printf("\n-- answers (streaming) --\n");
  // NextBatch is the primary pull API: each call delivers the morsel of
  // rows that became available together (row-at-a-time Next(&row) remains
  // as a compatibility shim over it).
  fed::RowBatch batch;
  size_t rows = 0;
  while ((*stream)->NextBatch(&batch)) {
    for (rdf::Binding& row : batch) {
      std::printf("  [%5.3fs] %s -> %s\n",
                  (*stream)->trace().timestamps[rows++],
                  std::string(row.at("name").value()).c_str(),
                  std::string(row.at("effect").value()).c_str());
    }
  }
  Status status = (*stream)->Finish();
  if (!status.ok()) {
    std::fprintf(stderr, "execution error: %s\n", status.ToString().c_str());
    return 1;
  }
  const fed::AnswerTrace& trace = (*stream)->trace();
  std::printf("\n%zu answers in %.3fs (first after %.3fs)\n", rows,
              trace.completion_seconds, trace.TimeToFirst());
  std::printf("rows shipped from sources: %llu (simulated delay %.1f ms)\n",
              static_cast<unsigned long long>(
                  (*stream)->stats().messages_transferred),
              (*stream)->stats().network_delay_ms);

  // 5. The classic blocking call is still there — it is a shim over a
  //    drained session and returns the materialized QueryAnswer.
  auto answer = engine.Execute(query, options);
  if (!answer.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 answer.status().ToString().c_str());
    return 1;
  }
  std::printf("blocking shim agrees: %zu answers\n", answer->rows.size());
  return 0;
}
