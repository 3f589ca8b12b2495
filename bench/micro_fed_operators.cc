// MICRO — mediator machinery: decomposition+planning rate, symmetric hash
// join throughput through the threaded dataflow, and delay-channel
// overhead.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <mutex>

#include "bench_util.h"
#include "fed/planner.h"
#include "sparql/parser.h"

namespace lakefed::bench {
namespace {

void BM_PlanBenchmarkQueries(benchmark::State& state) {
  lslod::LakeConfig config;
  config.scale = 0.1;
  auto lake = lslod::BuildLake(config);
  if (!lake.ok()) state.SkipWithError("lake failed");
  fed::PlanOptions options;
  size_t i = 0;
  const auto& queries = lslod::BenchmarkQueries();
  for (auto _ : state) {
    auto plan =
        (*lake)->engine->Plan(queries[i % queries.size()].sparql, options);
    benchmark::DoNotOptimize(plan);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanBenchmarkQueries);

// End-to-end symmetric hash join across two sources, no network delay.
// `metrics` toggles PlanOptions::collect_metrics — scripts/check.sh runs
// both variants and fails when instrumentation costs more than a few
// percent, which keeps the observability layer honest about "near-zero
// overhead when disabled" AND cheap when enabled.
// The lake of one scale (in percent), built once and shared by every
// repetition of both variants: the overhead guard interleaves 30
// repetitions of each, and a lake per repetition spends minutes building.
lslod::DataLake* SharedLake(int64_t scale_pct) {
  static std::mutex mu;
  static auto* lakes =
      new std::map<int64_t, std::unique_ptr<lslod::DataLake>>();
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<lslod::DataLake>& lake = (*lakes)[scale_pct];
  if (lake == nullptr) {
    lslod::LakeConfig config;
    config.scale = static_cast<double>(scale_pct) / 100.0;
    auto built = lslod::BuildLake(config);
    if (built.ok()) lake = std::move(*built);
  }
  return lake.get();
}

void FederatedJoinThroughput(benchmark::State& state, bool metrics) {
  lslod::DataLake* lake = SharedLake(state.range(0));
  if (lake == nullptr) {
    state.SkipWithError("lake failed");
    return;
  }
  const std::string query =
      "PREFIX dsv: <http://lslod.example.org/diseasome/vocab#> "
      "PREFIX affy: <http://lslod.example.org/affymetrix/vocab#> "
      "SELECT ?g ?probe WHERE { ?g a dsv:Gene ; dsv:geneSymbol ?sym . "
      "?probe a affy:Probeset ; affy:symbol ?sym . }";
  fed::PlanOptions options;
  options.collect_metrics = metrics;
  size_t answers = 0;
  for (auto _ : state) {
    auto answer = lake->engine->Execute(query, options);
    if (!answer.ok()) state.SkipWithError("execution failed");
    answers = answer->rows.size();
    benchmark::DoNotOptimize(answer);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(answers));
}

void BM_FederatedJoinThroughput(benchmark::State& state) {
  FederatedJoinThroughput(state, /*metrics=*/true);
}
// Timed by wall clock: the query runs on pool threads, so the calling
// thread's CPU time would size each repetition at several seconds.
BENCHMARK(BM_FederatedJoinThroughput)
    ->Arg(10)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_FederatedJoinThroughputNoMetrics(benchmark::State& state) {
  FederatedJoinThroughput(state, /*metrics=*/false);
}
BENCHMARK(BM_FederatedJoinThroughputNoMetrics)
    ->Arg(10)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The same federated join swept over the morsel size of the batched
// operator exchange: batch 1 is the legacy row-at-a-time transfer (every
// row a queue handoff), larger morsels amortize the queue's lock and
// wakeup per transfer.
void BM_FederatedJoinBatchSize(benchmark::State& state) {
  lslod::LakeConfig config;
  config.scale = 0.4;
  auto lake = lslod::BuildLake(config);
  if (!lake.ok()) state.SkipWithError("lake failed");
  const std::string query =
      "PREFIX dsv: <http://lslod.example.org/diseasome/vocab#> "
      "PREFIX affy: <http://lslod.example.org/affymetrix/vocab#> "
      "SELECT ?g ?probe WHERE { ?g a dsv:Gene ; dsv:geneSymbol ?sym . "
      "?probe a affy:Probeset ; affy:symbol ?sym . }";
  fed::PlanOptions options;
  options.batch_size = static_cast<size_t>(state.range(0));
  size_t answers = 0;
  for (auto _ : state) {
    auto answer = (*lake)->engine->Execute(query, options);
    if (!answer.ok()) state.SkipWithError("execution failed");
    answers = answer->rows.size();
    benchmark::DoNotOptimize(answer);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(answers));
}
BENCHMARK(BM_FederatedJoinBatchSize)
    ->Arg(1)
    ->Arg(64)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_DelayChannelNoDelayOverhead(benchmark::State& state) {
  net::DelayChannel channel(net::NetworkProfile::NoDelay(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.Transfer(CancellationToken()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DelayChannelNoDelayOverhead);

void BM_GammaSampling(benchmark::State& state) {
  net::DelayChannel channel(net::NetworkProfile::Gamma3(), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.SampleDelayMs());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GammaSampling);

}  // namespace
}  // namespace lakefed::bench

BENCHMARK_MAIN();
