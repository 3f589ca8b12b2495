// GRID — the paper's full experiment grid with profiling: every benchmark
// query (Q1..Q5) x both QEP families (physical-design aware / unaware) x
// every network profile (NoDelay, Gamma1..Gamma3), each cell executed
// through a profiled session. Per cell the driver records first-answer
// time, completion time, shipped rows and a summary of the per-operator
// records (max q-error, total queue waits, peak queue depth), printing a
// per-network table and writing the 5x2x4 = 40-cell grid as
// BENCH_paper_grid.json (the `bench_paper_grid_json` target). One cell
// (Q3 / aware / Gamma3) additionally exports its span tree as a Chrome
// trace in BENCH_paper_grid_trace.json.
//
// Expected shape: aware and unaware agree on answer counts everywhere
// (checked; divergence aborts); aware plans ship no more rows than unaware
// and pull first answers earlier on the slow networks — the paper's
// headline result, now with the profiler explaining *where* the unaware
// plans lose their time.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/profile.h"
#include "obs/trace_export.h"

namespace lakefed::bench {
namespace {

constexpr const char* kTracedNetwork = "Gamma3";
constexpr const char* kTracedQuery = "Q3";

struct Cell {
  std::string network;
  std::string query;
  std::string mode;  // "aware" | "unaware"
  RunResult run;
  // Summary of the per-operator records.
  double max_q_error = -1;
  double push_wait_ms = 0;
  double pop_wait_ms = 0;
  uint64_t peak_queue_depth = 0;
  // Sub-answer cache hits — pinned at 0 here: the grid always runs with
  // caching off, and the explicit field keeps the schema stable whether or
  // not a reuse layer exists in the build under test.
  uint64_t cache_hits = 0;
};

Cell RunCellOnce(const lslod::DataLake& lake,
                 const net::NetworkProfile& profile,
                 const lslod::BenchmarkQuery& query, fed::PlanMode mode) {
  fed::PlanOptions options = ModeOptions(mode, profile);
  options.collect_metrics = true;
  auto stream = lake.engine->CreateSession(
      fed::QueryRequest::Text(query.sparql, options));
  if (!stream.ok()) {
    std::fprintf(stderr, "session creation failed: %s\n",
                 stream.status().ToString().c_str());
    std::exit(1);
  }
  auto answer = (*stream)->Drain();
  if (!answer.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 answer.status().ToString().c_str());
    std::exit(1);
  }

  Cell c;
  c.network = profile.name;
  c.query = query.id;
  c.mode = mode == fed::PlanMode::kPhysicalDesignAware ? "aware" : "unaware";
  c.run.total_s = answer->trace.completion_seconds;
  c.run.first_s = answer->trace.TimeToFirst();
  c.run.answers = answer->rows.size();
  c.run.transferred = answer->stats.messages_transferred;
  c.run.delay_ms = answer->stats.network_delay_ms;
  c.cache_hits = answer->stats.sub_answer_hits;

  obs::QueryProfile prof = (*stream)->profile();
  c.max_q_error = prof.MaxQError();
  for (const obs::OperatorRuntime& op : prof.operators) {
    c.push_wait_ms += op.push_wait_ms;
    c.pop_wait_ms += op.pop_wait_ms;
    c.peak_queue_depth = std::max(c.peak_queue_depth, op.peak_depth);
  }

  // One representative Chrome trace rides along with the grid, so the
  // span-level view of a slow-network cell is inspectable after the run.
  if (c.network == kTracedNetwork && c.query == kTracedQuery &&
      c.mode == "aware") {
    const obs::SpanRecorder* spans = (*stream)->spans();
    if (spans != nullptr) {
      Status st =
          obs::WriteChromeTrace(*spans, "BENCH_paper_grid_trace.json");
      if (!st.ok()) {
        std::fprintf(stderr, "trace export failed: %s\n",
                     st.ToString().c_str());
        std::exit(1);
      }
      std::printf("exported Chrome trace for %s/%s/aware -> "
                  "BENCH_paper_grid_trace.json\n",
                  kTracedQuery, kTracedNetwork);
    }
  }
  return c;
}

// Delay-free cells finish in single-digit milliseconds, where scheduler
// jitter on a shared machine swamps the signal; repeat them and keep the
// fastest run (the classic microbench denoiser — same policy as the
// metrics-overhead guard in scripts/check.sh). Cells with simulated
// network delay are sleep-dominated and reproducible, so one run suffices.
Cell RunCell(const lslod::DataLake& lake, const net::NetworkProfile& profile,
             const lslod::BenchmarkQuery& query, fed::PlanMode mode) {
  const int reps =
      profile.HasDelay() ? 1 : static_cast<int>(EnvDouble("LAKEFED_BENCH_REPS", 5));
  Cell best = RunCellOnce(lake, profile, query, mode);
  for (int i = 1; i < reps; ++i) {
    Cell c = RunCellOnce(lake, profile, query, mode);
    if (c.run.total_s < best.run.total_s) best = c;
  }
  return best;
}

void Run() {
  PrintHeader("Paper grid with profiling: Q1..Q5 x {aware, unaware} x "
              "{NoDelay, Gamma1..Gamma3}");
  auto lake = BuildBenchLake();

  std::vector<Cell> cells;
  for (const net::NetworkProfile& profile :
       net::NetworkProfile::PaperProfiles()) {
    std::printf("\n-- %s --\n", profile.name.c_str());
    std::printf("%-5s %-8s %8s %10s %10s %10s %9s %10s\n", "query", "mode",
                "answers", "shipped", "t_first_s", "t_total_s", "q-err",
                "wait_ms");
    for (const lslod::BenchmarkQuery& query : lslod::BenchmarkQueries()) {
      size_t aware_answers = 0;
      for (fed::PlanMode mode : {fed::PlanMode::kPhysicalDesignAware,
                                 fed::PlanMode::kPhysicalDesignUnaware}) {
        Cell c = RunCell(*lake, profile, query, mode);
        if (mode == fed::PlanMode::kPhysicalDesignAware) {
          aware_answers = c.run.answers;
        } else if (c.run.answers != aware_answers) {
          std::fprintf(stderr,
                       "%s/%s: aware and unaware answer counts diverged "
                       "(%zu vs %zu)\n",
                       profile.name.c_str(), query.id.c_str(), aware_answers,
                       c.run.answers);
          std::exit(1);
        }
        std::printf("%-5s %-8s %8zu %10llu %10.3f %10.3f %9s %10.2f\n",
                    c.query.c_str(), c.mode.c_str(), c.run.answers,
                    static_cast<unsigned long long>(c.run.transferred),
                    c.run.first_s, c.run.total_s,
                    c.max_q_error < 0 ? "-" : "est",
                    c.push_wait_ms + c.pop_wait_ms);
        cells.push_back(std::move(c));
      }
    }
  }

  // Delay-free cells report the best of this many runs (RunCell); the JSON
  // must say so rather than the emitter default of 1.
  BenchJsonEmitter emitter(
      "paper_grid", static_cast<int>(EnvDouble("LAKEFED_BENCH_REPS", 5)));
  emitter.config().Set("traced_cell", std::string(kTracedQuery) + "/aware/" +
                                          kTracedNetwork);
  for (const Cell& c : cells) {
    emitter.AddResult()
        .Set("network", c.network)
        .Set("query", c.query)
        .Set("mode", c.mode)
        .Set("answers", static_cast<uint64_t>(c.run.answers))
        .Set("shipped_rows", c.run.transferred)
        .Set("delay_ms", c.run.delay_ms)
        .Set("total_s", c.run.total_s)
        .Set("first_s", c.run.first_s)
        .Set("max_q_error", c.max_q_error)
        .Set("push_wait_ms", c.push_wait_ms)
        .Set("pop_wait_ms", c.pop_wait_ms)
        .Set("peak_queue_depth", c.peak_queue_depth)
        .Set("cache_hits", c.cache_hits);
  }
  emitter.Write("BENCH_paper_grid.json");
}

}  // namespace
}  // namespace lakefed::bench

int main() {
  lakefed::bench::Run();
  return 0;
}
