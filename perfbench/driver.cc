// Benchmark driver: runs one workload against LakeFed's public APIs
// (lslod::BuildLake, fed::FederatedEngine, svc::QueryService) for one
// measured window, checks every answer, and prints one JSON result line.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--scale <x>]
//
// --trace 0 prints the end-to-end metrics. --trace 1 follows each lake's
// untraced sub-window with the same sub-window on an engine whose wrappers
// sit behind a timing decorator, replays the recorded layer calls, and
// prints the per-layer metrics. perfbench/README.md says what each metric
// measures and which end-to-end metric it should move.
//
// Workloads (the LSLOD lake at scale 0.4 unless --scale says otherwise):
//   grid-nodelay    Q1..Q5 x {aware, unaware} at NoDelay, all datasets
//                   relational; 4 closed-loop clients on 2 compute workers.
//                   Pure CPU: parse/plan, SQL translation, rel execution,
//                   decoding and the mediator's operators.
//   service-gamma1  Q1..Q5 aware, Gamma1 at time_scale 1.0; an open loop
//                   at 10 q/s from one generator thread over 4 tenants.
//                   Latency comes from the simulated network, run-slot
//                   queueing and the I/O-pool legs, not from CPU.
//   lake-mixed      grid-nodelay over a lake serving KEGG, GOA, TCGA and
//                   PharmGKB as native RDF stores, so the Q3/Q4 leaves run
//                   through RdfWrapper and rdf BGP evaluation.
//
// Each run serves kLakesPerRun lakes generated from seeds seed * 24 + j:
// answer sizes differ by up to 2x between seeds at this scale, so one lake
// per run would make the spread between runs mostly a spread between
// datasets. The window is cut into one equal sub-window per lake. Each
// sub-window starts its lake's service, warms it up and loads it (untimed),
// measures, waits for the last answer and shuts the service down, so only
// one service is alive at a time: an idle service's run-slot threads still
// wake every 50 ms, which on the open loop would be a large and noisy share
// of the CPU per query. The seed also feeds the network RNG; nothing else in a run is
// random. Every answer is compared with a reference computed during set-up
// on a relational-only lake of the same seed and scale by the engine's
// blocking thread-per-operator path.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fed/decomposer.h"
#include "fed/engine.h"
#include "fed/planner.h"
#include "lslod/generator.h"
#include "lslod/queries.h"
#include "lslod/vocab.h"
#include "rdf/bgp.h"
#include "sparql/parser.h"
#include "svc/service.h"
#include "wrapper/rdf_wrapper.h"
#include "wrapper/sql_wrapper.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace lakefed::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Lakes served per run (see the header comment). Each is also one set-up
// timing sample; set-up takes ~10-30 ms at scale 0.4, well inside the
// machine's scheduling noise, so the median is reported.
constexpr size_t kLakesPerRun = 24;
// Untimed load before each sub-window opens, so the window sees a loaded
// service: a closed loop's first wave runs slower than the steady state,
// and an open loop starting empty would finish fewer queries inside the
// window than it is offered.
constexpr double kLeadInSeconds = 0.3;
// Minimum wall time spent on each replay of the traced run.
constexpr double kReplaySeconds = 0.3;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Nearest-rank percentile (the bench_service convention).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t idx = std::min(
      values.size() - 1, static_cast<size_t>(p * (values.size() - 1) + 0.5));
  return values[idx];
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  bool open_loop = false;
  size_t clients = 0;   // closed loop: concurrent clients
  double rate_qps = 0;  // open loop: offered rate
  size_t tenants = 0;   // open loop: tenants the requests rotate over
  net::NetworkProfile network;
  std::vector<fed::PlanMode> modes;
  std::set<std::string> rdf_sources;
  size_t workers = 0;
  size_t run_slots = 0;
  size_t io_threads = 0;
};

Workload FindWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  // Clients equal run slots on the closed loops, so queue wait there is ~0
  // and the two compute workers are the bottleneck.
  w.workers = 2;
  w.run_slots = 4;
  w.io_threads = 4;
  if (name == "grid-nodelay" || name == "lake-mixed") {
    w.clients = 4;
    w.network = net::NetworkProfile::NoDelay();
    w.modes = {fed::PlanMode::kPhysicalDesignAware,
               fed::PlanMode::kPhysicalDesignUnaware};
    if (name == "lake-mixed") {
      w.rdf_sources = {lslod::kKegg, lslod::kGoa, lslod::kTcga,
                       lslod::kPharmgkb};
    }
  } else if (name == "service-gamma1") {
    // About half of what 4 run slots at ~200 ms per query sustain.
    w.open_loop = true;
    w.rate_qps = 10;
    w.tenants = 4;
    w.network = net::NetworkProfile::Gamma1();  // time_scale 1.0
    w.modes = {fed::PlanMode::kPhysicalDesignAware};
  } else {
    Die("unknown workload '" + name +
        "' (expected grid-nodelay, service-gamma1 or lake-mixed)");
  }
  return w;
}

// One (query, plan mode) pair of the workload.
struct Cell {
  std::string query_id;
  const std::string* sparql = nullptr;
  fed::PlanOptions options;
};

// ---------------------------------------------------------------------------
// Answer checking

// Order-independent content fingerprint of an answer: row count plus a
// commutative combination of per-row hashes (the bench_service idiom).
struct AnswerDigest {
  size_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const AnswerDigest& o) const {
    return rows == o.rows && hash == o.hash;
  }
};

AnswerDigest Digest(const fed::QueryAnswer& answer) {
  AnswerDigest d;
  d.rows = answer.rows.size();
  for (const rdf::Binding& row : answer.rows) {
    std::string s;
    for (const std::string& var : answer.variables) {
      auto it = row.find(var);
      s += it == row.end() ? std::string("~unbound~") : it->second.ToString();
      s.push_back('|');
    }
    d.hash += std::hash<std::string>{}(s);  // commutative on purpose
  }
  return d;
}

std::unique_ptr<lslod::DataLake> BuildLakeOrDie(const lslod::LakeConfig& c) {
  auto lake = lslod::BuildLake(c);
  Check(lake.status(), "lake construction");
  return std::move(*lake);
}

// Reference digests per query id, from a relational-only lake of the same
// seed and scale on the blocking path. Both plan families must agree.
std::map<std::string, AnswerDigest> ReferenceDigests(uint64_t seed,
                                                     double scale,
                                                     bool* agree) {
  lslod::LakeConfig config;
  config.scale = scale;
  config.seed = seed;
  auto lake = BuildLakeOrDie(config);
  std::map<std::string, AnswerDigest> expected;
  for (const lslod::BenchmarkQuery& q : lslod::BenchmarkQueries()) {
    for (fed::PlanMode mode : {fed::PlanMode::kPhysicalDesignAware,
                               fed::PlanMode::kPhysicalDesignUnaware}) {
      fed::PlanOptions options;
      options.mode = mode;
      auto answer = lake->engine->Execute(q.sparql, options);
      Check(answer.status(), "reference " + q.id);
      const AnswerDigest d = Digest(*answer);
      auto [it, inserted] = expected.emplace(q.id, d);
      if (!inserted && !(it->second == d)) {
        std::fprintf(stderr, "reference %s (seed %llu): plan families "
                     "disagree\n", q.id.c_str(),
                     static_cast<unsigned long long>(seed));
        *agree = false;
      }
    }
  }
  return expected;
}

// ---------------------------------------------------------------------------
// Tracing from outside: a timing decorator around each registered wrapper.

struct WrapperCounters {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> wall_ns{0};
  std::atomic<uint64_t> cpu_ns{0};
};

struct TraceHooks {
  explicit TraceHooks(size_t lakes) : seen(lakes) {}

  WrapperCounters sql;
  WrapperCounters rdf;
  // While set (the warm-up), copies of the sub-queries each lake's wrappers
  // receive are kept for replaying against the layers below the wrapper.
  std::atomic<bool> recording{false};
  std::mutex mu;
  std::vector<std::vector<fed::SubQuery>> seen;  // per lake, guarded by mu
};

class TimedWrapper final : public fed::SourceWrapper {
 public:
  TimedWrapper(std::unique_ptr<fed::SourceWrapper> inner,
               WrapperCounters* counters, TraceHooks* hooks, size_t lake)
      : inner_(std::move(inner)),
        counters_(counters),
        hooks_(hooks),
        lake_(lake) {}

  const std::string& id() const override { return inner_->id(); }
  fed::SourceKind kind() const override { return inner_->kind(); }
  std::vector<mapping::RdfMt> Molecules() const override {
    return inner_->Molecules();
  }
  bool IsPredicateAttributeIndexed(const std::string& class_iri,
                                   const std::string& predicate)
      const override {
    return inner_->IsPredicateAttributeIndexed(class_iri, predicate);
  }
  bool IsSubjectKeyIndexed(const std::string& class_iri) const override {
    return inner_->IsSubjectKeyIndexed(class_iri);
  }
  bool SupportsJoinPushdown() const override {
    return inner_->SupportsJoinPushdown();
  }
  bool CanPushDownJoin(const fed::StarSubQuery& a, const fed::StarSubQuery& b,
                       const std::string& var) const override {
    return inner_->CanPushDownJoin(a, b, var);
  }
  Status CollectStatistics(const stats::AnalyzeOptions& options,
                           stats::SourceStats* out) const override {
    return inner_->CollectStatistics(options, out);
  }
  uint64_t DataVersion() const override { return inner_->DataVersion(); }

  Status Execute(const fed::SubQuery& subquery,
                 const fed::WrapperContext& ctx) override {
    if (hooks_->recording.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(hooks_->mu);
      hooks_->seen[lake_].push_back(subquery);
    }
    const Clock::time_point wall0 = Clock::now();
    const double cpu0 = ThreadCpuSeconds();
    Status st = inner_->Execute(subquery, ctx);
    const double cpu_s = ThreadCpuSeconds() - cpu0;
    const double wall_s = SecondsBetween(wall0, Clock::now());
    counters_->calls.fetch_add(1, std::memory_order_relaxed);
    counters_->wall_ns.fetch_add(static_cast<uint64_t>(wall_s * 1e9),
                                 std::memory_order_relaxed);
    counters_->cpu_ns.fetch_add(static_cast<uint64_t>(cpu_s * 1e9),
                                std::memory_order_relaxed);
    return st;
  }

 private:
  std::unique_ptr<fed::SourceWrapper> inner_;
  WrapperCounters* counters_;
  TraceHooks* hooks_;
  size_t lake_;
};

struct CounterSnapshot {
  uint64_t calls = 0;
  double wall_ms = 0;
  double cpu_ms = 0;
};

CounterSnapshot Snapshot(const WrapperCounters& c) {
  return {c.calls.load(), static_cast<double>(c.wall_ns.load()) / 1e6,
          static_cast<double>(c.cpu_ns.load()) / 1e6};
}

CounterSnapshot Delta(const CounterSnapshot& a, const CounterSnapshot& b) {
  return {b.calls - a.calls, b.wall_ms - a.wall_ms, b.cpu_ms - a.cpu_ms};
}

// ---------------------------------------------------------------------------
// Set-up: lakes, engines, services.

struct Lake {
  size_t index = 0;  // position in the run, the decorator's record slot
  uint64_t seed = 0;
  std::unique_ptr<lslod::DataLake> data;
  std::vector<Cell> cells;  // the workload's cells, network RNG seeded
  std::map<std::string, AnswerDigest> expected;
};

// The benchmark registers its own wrappers over the lake's stores so the
// traced engines can differ from the untraced ones only in the decorator.
std::unique_ptr<fed::FederatedEngine> BuildEngine(const lslod::DataLake& lake,
                                                  TraceHooks* hooks,
                                                  size_t lake_index) {
  auto engine = std::make_unique<fed::FederatedEngine>();
  for (const auto& [id, db] : lake.databases) {
    std::unique_ptr<fed::SourceWrapper> w;
    auto store = lake.stores.find(id);
    const bool rdf = store != lake.stores.end();
    if (rdf) {
      w = std::make_unique<wrapper::RdfWrapper>(id, store->second.get());
    } else {
      w = std::make_unique<wrapper::SqlWrapper>(id, db.get(),
                                                lake.mappings.at(id));
    }
    if (hooks != nullptr) {
      w = std::make_unique<TimedWrapper>(
          std::move(w), rdf ? &hooks->rdf : &hooks->sql, hooks, lake_index);
    }
    Check(engine->RegisterSource(std::move(w)), "register " + id);
  }
  return engine;
}

std::unique_ptr<svc::QueryService> StartService(
    const Workload& w, const fed::FederatedEngine* engine) {
  svc::ServiceConfig config;
  config.scheduler.workers = w.workers;
  config.scheduler.io_threads = w.io_threads;
  config.max_concurrent_sessions = w.run_slots;
  return std::make_unique<svc::QueryService>(engine, config);
}

struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> build_lake_s;
  std::vector<double> service_start_s;
};

// ---------------------------------------------------------------------------
// Load generation

struct Tally {
  uint64_t attempted = 0;
  uint64_t correct_in_window = 0;  // correct answers completed inside
  uint64_t answers = 0;  // correct answers to queries sent inside, sampled
  uint64_t wrong = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  double check_cpu_s = 0;  // CPU the answer checks took
  std::vector<double> latency_ms;
  // Time to first answer per (lake, cell) class; every lake has its own
  // cells.
  std::map<const Cell*, std::vector<double>> first_ms;
  std::vector<double> queue_wait_ms;
  // Per-answer layer accounting (reported by the traced window).
  double op_compute_ms = 0;
  double op_wait_ms = 0;
  uint64_t messages = 0;
  double delay_ms = 0;

  void Merge(const Tally& o) {
    attempted += o.attempted;
    correct_in_window += o.correct_in_window;
    answers += o.answers;
    wrong += o.wrong;
    errors += o.errors;
    shed += o.shed;
    check_cpu_s += o.check_cpu_s;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    for (const auto& [cls, v] : o.first_ms) {
      std::vector<double>& mine = first_ms[cls];
      mine.insert(mine.end(), v.begin(), v.end());
    }
    queue_wait_ms.insert(queue_wait_ms.end(), o.queue_wait_ms.begin(),
                         o.queue_wait_ms.end());
    op_compute_ms += o.op_compute_ms;
    op_wait_ms += o.op_wait_ms;
    messages += o.messages;
    delay_ms += o.delay_ms;
  }

  uint64_t failed() const { return wrong + errors + shed; }

  // Geometric mean over (lake, cell) classes of each class's median time
  // to first answer. The classes are tight, but they sit in clusters far
  // apart, so a pooled median flips between clusters from run to run.
  double FirstAnswerP50Ms() const {
    double log_sum = 0;
    for (const auto& entry : first_ms) {
      log_sum += std::log(std::max(1e-3, Percentile(entry.second, 0.5)));
    }
    return first_ms.empty()
               ? 0
               : std::exp(log_sum / static_cast<double>(first_ms.size()));
  }
};

// Checks one finished submission and records it. `latency_ms` runs from
// submit (closed loop) or from the due time (open loop); it is empty for a
// query sent before the window opened, which is checked and may count
// toward throughput but is not sampled. `in_window` says the answer was
// completed inside the window, `checked_in_window` that this check itself
// runs inside the window (its CPU is then taken out of the program's).
void Record(const Lake& lake, const Cell& cell, svc::Submission& sub,
            std::optional<double> latency_ms, bool in_window,
            bool checked_in_window, Tally* t) {
  const Result<fed::QueryAnswer>& outcome = sub.Wait();
  if (!outcome.ok()) {
    ++t->errors;
    std::fprintf(stderr, "%s failed: %s\n", cell.query_id.c_str(),
                 outcome.status().ToString().c_str());
    return;
  }
  const double cpu0 = ThreadCpuSeconds();
  const bool correct = Digest(*outcome) == lake.expected.at(cell.query_id);
  double compute = 0, wait = 0;
  for (const obs::OperatorRuntime& rt : outcome->operator_runtime) {
    if (rt.wall_ms < 0) continue;
    const double waited = rt.push_wait_ms + rt.pop_wait_ms;
    wait += waited;
    compute += std::max(0.0, rt.wall_ms - waited);
  }
  if (checked_in_window) t->check_cpu_s += ThreadCpuSeconds() - cpu0;
  if (!correct) {
    ++t->wrong;
    std::fprintf(stderr, "%s (seed %llu): wrong answer\n",
                 cell.query_id.c_str(),
                 static_cast<unsigned long long>(lake.seed));
    return;
  }
  if (in_window) ++t->correct_in_window;
  if (!latency_ms.has_value()) return;
  ++t->answers;
  t->latency_ms.push_back(*latency_ms);
  t->first_ms[&cell].push_back(outcome->trace.TimeToFirst() * 1e3);
  t->queue_wait_ms.push_back(sub.queue_wait_ms());
  t->op_compute_ms += compute;
  t->op_wait_ms += wait;
  t->messages += outcome->stats.messages_transferred;
  t->delay_ms += outcome->stats.network_delay_ms;
}

svc::ServiceRequest MakeRequest(const Cell& cell, std::string tenant,
                                svc::Priority priority) {
  svc::ServiceRequest request;
  request.tenant = std::move(tenant);
  request.priority = priority;
  request.query = fed::QueryRequest::Text(*cell.sparql, cell.options);
  return request;
}

// Closed loop from now until `end`: client i cycles the lake's cells from
// offset i * cells / clients; its next query goes out when the previous one
// is answered. Queries sent before `start` are the lead-in. Returns once
// every client's last query is answered.
Tally ClosedLoop(const Lake& lake, svc::QueryService& service,
                 const Workload& w, Clock::time_point start,
                 Clock::time_point end) {
  const std::vector<Cell>& cells = lake.cells;
  std::vector<Tally> tallies(w.clients);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < w.clients; ++i) {
    clients.emplace_back([&, i] {
      Tally& t = tallies[i];
      size_t k = i * cells.size() / w.clients;
      for (Clock::time_point sent = Clock::now(); sent < end;
           sent = Clock::now()) {
        const Cell& cell = cells[k++ % cells.size()];
        ++t.attempted;
        auto sub = service.Submit(MakeRequest(
            cell, "client" + std::to_string(i), svc::Priority::kInteractive));
        if (!sub.ok()) {
          ++(sub.status().IsResourceExhausted() ? t.shed : t.errors);
          continue;
        }
        (*sub)->Wait();
        const Clock::time_point done = Clock::now();
        const bool in_window = start <= done && done <= end;
        std::optional<double> latency_ms;
        if (sent >= start) latency_ms = (*sub)->total_ms();
        Record(lake, cell, **sub, latency_ms, in_window, in_window, &t);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  Tally total;
  for (const Tally& t : tallies) total.Merge(t);
  return total;
}

// Open loop from now until `end`: one generator sends query i at
// now + i / rate whether or not earlier ones finished; those due before
// `start` are the lead-in. Latency counts from the due time, so a stalled
// generator or a growing backlog shows up in it. Queries are numbered from
// `first` so the cells, tenants and priorities continue across sub-windows.
// Answers are checked after `end`, so checking costs no window CPU. Returns
// once every query sent is answered.
Tally OpenLoop(const Lake& lake, svc::QueryService& service,
               const Workload& w, Clock::time_point start,
               Clock::time_point end, uint64_t first,
               double* max_lateness_ms) {
  struct Flight {
    const Cell* cell;
    Clock::time_point due;
    Clock::time_point sent;
    std::shared_ptr<svc::Submission> sub;
  };
  const Clock::time_point begin = Clock::now();
  const Clock::duration interval = Seconds(1.0 / w.rate_qps);
  Tally t;
  std::vector<Flight> flights;
  for (int64_t i = 0;; ++i) {
    const Clock::time_point due = begin + interval * i;
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    *max_lateness_ms =
        std::max(*max_lateness_ms, SecondsBetween(due, sent) * 1e3);
    const uint64_t n = first + static_cast<uint64_t>(i);
    const Cell& cell = lake.cells[n % lake.cells.size()];
    ++t.attempted;
    svc::ServiceRequest request = MakeRequest(
        cell, "t" + std::to_string(n % w.tenants),
        n % 2 == 0 ? svc::Priority::kInteractive : svc::Priority::kBatch);
    // Each query draws its own network delays, so a (lake, cell) class's
    // median time to first answer is taken over independent draws.
    request.query.options.seed = cell.options.seed * 1000003 + n;
    auto sub = service.Submit(std::move(request));
    if (!sub.ok()) {
      ++(sub.status().IsResourceExhausted() ? t.shed : t.errors);
      continue;
    }
    flights.push_back({&cell, due, sent, std::move(*sub)});
  }
  for (Flight& f : flights) {
    f.sub->Wait();
    const double total_ms = f.sub->total_ms();
    const Clock::time_point done =
        f.sent + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(total_ms));
    std::optional<double> latency_ms;
    if (f.due >= start) {
      latency_ms = SecondsBetween(f.due, f.sent) * 1e3 + total_ms;
    }
    Record(lake, *f.cell, *f.sub, latency_ms, start <= done && done <= end,
           false, &t);
  }
  return t;
}

// Every cell of the lake runs once on its service, checked. The network
// keeps its profile but runs 100x faster: planning reads only the nominal
// latency, so the plans are the ones the window runs, and sleeping warms
// nothing. With `hooks`, the sub-queries are recorded, so the lake's record
// holds exactly one execution of each of its cells.
bool WarmUp(const Lake& lake, svc::QueryService& service, TraceHooks* hooks) {
  if (hooks != nullptr) hooks->recording.store(true);
  std::vector<std::shared_ptr<svc::Submission>> subs;
  for (const Cell& cell : lake.cells) {
    svc::ServiceRequest request =
        MakeRequest(cell, "warmup", svc::Priority::kInteractive);
    request.query.options.network.time_scale *= 0.01;
    auto sub = service.Submit(std::move(request));
    Check(sub.status(), "warm-up submit");
    subs.push_back(std::move(*sub));
  }
  Tally t;
  for (size_t i = 0; i < subs.size(); ++i) {
    Record(lake, lake.cells[i], *subs[i], std::nullopt, false, false, &t);
  }
  if (hooks != nullptr) hooks->recording.store(false);
  return t.failed() == 0;
}

// One pass over the lakes: the sub-windows summed.
struct Window {
  Tally tally;
  double seconds = 0;  // window length, all sub-windows
  double cpu_s = 0;    // process CPU inside the windows minus answer checking
  double max_lateness_ms = 0;       // open loop: the generator's
  size_t queue_depth_at_close = 0;  // summed over the sub-windows
  size_t running_at_close = 0;
  svc::Scheduler::Stats sched;  // deltas over the sub-windows
  CounterSnapshot sql, rdf;     // decorator deltas over the sub-windows

  double throughput_qps() const {
    return seconds > 0 ? static_cast<double>(tally.correct_in_window) / seconds
                       : 0;
  }
  // Counters cut at the window's edges, per answer completed inside it.
  double per_query(double v) const {
    return tally.correct_in_window == 0
               ? 0
               : v / static_cast<double>(tally.correct_in_window);
  }
  // Sums over the sampled answers, per sampled answer.
  double per_answer(double v) const {
    return tally.answers == 0 ? 0 : v / static_cast<double>(tally.answers);
  }
};

// Runs one sub-window on `lake`: starts a service on `engine`, warms it up,
// then runs the workload's load for kLeadInSeconds before the window opens
// and until it closes, so the window sees a loaded service. Adds the
// figures to `win` and shuts the service down once every answer is in.
// False if a warm-up query failed.
bool MeasureLake(const Lake& lake, const fed::FederatedEngine* engine,
                 const Workload& w, double seconds, TraceHooks* hooks,
                 Window* win) {
  const std::unique_ptr<svc::QueryService> service = StartService(w, engine);
  const bool warm = WarmUp(lake, *service, hooks);

  const Clock::time_point start = Clock::now() + Seconds(kLeadInSeconds);
  const Clock::time_point end = start + Seconds(seconds);
  // CPU and counters are cut at the window's edges, whatever is in flight.
  double cpu0 = 0, cpu1 = 0;
  svc::Scheduler::Stats s0, s1;
  CounterSnapshot sql0, rdf0, sql1, rdf1;
  svc::QueryService::Stats at_close;
  auto cut = [&](double* cpu, svc::Scheduler::Stats* sched,
                 CounterSnapshot* sql, CounterSnapshot* rdf) {
    *cpu = ProcessCpuSeconds();
    *sched = service->scheduler()->stats();
    if (hooks != nullptr) {
      *sql = Snapshot(hooks->sql);
      *rdf = Snapshot(hooks->rdf);
    }
  };
  std::thread cutter([&] {
    std::this_thread::sleep_until(start);
    cut(&cpu0, &s0, &sql0, &rdf0);
    std::this_thread::sleep_until(end);
    cut(&cpu1, &s1, &sql1, &rdf1);
    at_close = service->stats();
  });
  const Tally tally =
      w.open_loop ? OpenLoop(lake, *service, w, start, end,
                             win->tally.attempted, &win->max_lateness_ms)
                  : ClosedLoop(lake, *service, w, start, end);
  cutter.join();
  service->Shutdown();

  win->tally.Merge(tally);
  win->seconds += SecondsBetween(start, end);
  win->cpu_s += cpu1 - cpu0 - tally.check_cpu_s;
  win->queue_depth_at_close += at_close.queue_depth;
  win->running_at_close += at_close.running;
  win->sched.steps += s1.steps - s0.steps;
  win->sched.parks += s1.parks - s0.parks;
  win->sched.steals += s1.steals - s0.steals;
  win->sched.io_jobs += s1.io_jobs - s0.io_jobs;
  const CounterSnapshot sql = Delta(sql0, sql1), rdf = Delta(rdf0, rdf1);
  win->sql = {win->sql.calls + sql.calls, win->sql.wall_ms + sql.wall_ms,
              win->sql.cpu_ms + sql.cpu_ms};
  win->rdf = {win->rdf.calls + rdf.calls, win->rdf.wall_ms + rdf.wall_ms,
              win->rdf.cpu_ms + rdf.cpu_ms};
  return warm;
}

// ---------------------------------------------------------------------------
// Replays of single layers, timed from outside.

// Runs `pass` until kReplaySeconds have elapsed (at least twice, after one
// untimed pass) and returns the mean wall milliseconds of one pass.
double TimePasses(const std::function<void()>& pass) {
  pass();
  int passes = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0;
  do {
    pass();
    ++passes;
    elapsed = SecondsBetween(t0, Clock::now());
  } while (elapsed < kReplaySeconds || passes < 2);
  return elapsed * 1e3 / passes;
}

struct Replays {
  double parse_ms = 0;
  double decompose_ms = 0;
  double plan_ms = 0;
  double translate_ms = 0;
  double rel_execute_ms = 0;
  double rel_rows = 0;
  double bgp_ms = 0;
};

// All figures are per query. The windows visit every lake's cells evenly,
// so a mean over cells (and lakes) is the per-query mean. Parsing and
// planning do not read the data, so one lake's cells stand for all.
Replays ReplayLayers(const std::vector<Lake>& lakes,
                     fed::FederatedEngine& engine0, const TraceHooks& hooks) {
  Replays r;
  const std::vector<Cell>& cells = lakes[0].cells;
  const double n = static_cast<double>(cells.size());

  std::vector<sparql::SelectQuery> parsed;
  for (const Cell& c : cells) {
    auto q = sparql::ParseSparql(*c.sparql);
    Check(q.status(), "parse " + c.query_id);
    parsed.push_back(std::move(*q));
  }
  std::map<std::string, fed::SourceWrapper*> wrappers;
  for (const auto& entry : lakes[0].data->databases) {
    wrappers[entry.first] = engine0.wrapper(entry.first);
  }

  r.parse_ms = TimePasses([&] {
                 for (const Cell& c : cells) {
                   Check(sparql::ParseSparql(*c.sparql).status(), "parse");
                 }
               }) / n;
  r.decompose_ms = TimePasses([&] {
                     for (const sparql::SelectQuery& q : parsed) {
                       Check(fed::Decompose(q).status(), "decompose");
                     }
                   }) / n;
  r.plan_ms = TimePasses([&] {
                for (size_t i = 0; i < cells.size(); ++i) {
                  Check(fed::BuildPlan(parsed[i], engine0.catalog(), wrappers,
                                       cells[i].options)
                            .status(),
                        "plan");
                }
              }) / n;

  // Below the wrapper: SQL translation, then the translated statement on
  // the source's own relational engine; RDF leaves evaluate their BGP.
  struct SqlLeaf {
    const wrapper::SqlWrapper* translator;
    const rel::Database* db;
    const fed::SubQuery* subquery;
    rel::SelectStatement statement;
  };
  struct RdfLeaf {
    const rdf::TripleStore* store;
    std::vector<rdf::TriplePattern> patterns;
  };
  std::vector<SqlLeaf> sql;
  std::vector<RdfLeaf> rdf_leaves;
  std::vector<std::unique_ptr<wrapper::SqlWrapper>> translators;
  for (size_t j = 0; j < lakes.size(); ++j) {
    const lslod::DataLake& lake = *lakes[j].data;
    std::map<std::string, const wrapper::SqlWrapper*> by_source;
    for (const fed::SubQuery& sq : hooks.seen[j]) {
      auto store = lake.stores.find(sq.source_id);
      if (store != lake.stores.end()) {
        RdfLeaf leaf{store->second.get(), {}};
        for (const fed::StarSubQuery& star : sq.stars) {
          leaf.patterns.insert(leaf.patterns.end(), star.patterns.begin(),
                               star.patterns.end());
        }
        rdf_leaves.push_back(std::move(leaf));
        continue;
      }
      const rel::Database* db = lake.databases.at(sq.source_id).get();
      const wrapper::SqlWrapper*& translator = by_source[sq.source_id];
      if (translator == nullptr) {
        translators.push_back(std::make_unique<wrapper::SqlWrapper>(
            sq.source_id, db, lake.mappings.at(sq.source_id)));
        translator = translators.back().get();
      }
      auto tr = translator->Translate(sq);
      Check(tr.status(), "translate " + sq.source_id);
      sql.push_back({translator, db, &sq, tr->statement});
    }
  }
  const double queries = n * static_cast<double>(lakes.size());
  r.translate_ms = TimePasses([&] {
                     for (const SqlLeaf& leaf : sql) {
                       Check(leaf.translator->Translate(*leaf.subquery)
                                 .status(),
                             "translate");
                     }
                   }) / queries;
  for (const SqlLeaf& leaf : sql) {
    auto result = leaf.db->ExecuteStatement(leaf.statement);
    Check(result.status(), "rel execute");
    r.rel_rows += static_cast<double>(result->rows.size()) / queries;
  }
  r.rel_execute_ms = TimePasses([&] {
                       for (const SqlLeaf& leaf : sql) {
                         Check(leaf.db->ExecuteStatement(leaf.statement)
                                   .status(),
                               "rel execute");
                       }
                     }) / queries;
  if (!rdf_leaves.empty()) {
    r.bgp_ms = TimePasses([&] {
                 for (const RdfLeaf& leaf : rdf_leaves) {
                   Check(rdf::EvaluateBgp(*leaf.store, leaf.patterns).status(),
                         "bgp");
                 }
               }) / queries;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Output

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  double scale = 0.4;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* rest = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &rest, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &rest);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("--trace takes 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--scale") {
      a.scale = std::strtod(value.c_str(), &rest);
    } else {
      Die("unknown flag " + flag);
    }
    if (rest != nullptr && (*rest != '\0' || rest == value.c_str())) {
      Die("bad number for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Die("usage: perfbench_driver --workload <name> --seed <n> "
        "--seconds <s> --trace <0|1> [--scale <x>]");
  }
  if (!(a.seconds > 0 && a.seconds <= 80) || !(a.scale > 0 && a.scale <= 4)) {
    Die("--seconds must be in (0, 80] and --scale in (0, 4]");
  }
  return a;
}

void PrintContext(const Args& args, const Workload& w,
                  const std::vector<Lake>& lakes) {
  std::string rows;
  for (const Lake& lake : lakes) {
    rows += rows.empty() ? "[" : ", [";
    bool first = true;
    for (const auto& entry : lake.expected) {
      rows += (first ? "" : ", ") + std::to_string(entry.second.rows);
      first = false;
    }
    rows += "]";
  }
  std::printf(
      "context: {\"workload\": \"%s\", \"seed\": %llu, \"lakes\": %zu, "
      "\"lake_seeds\": \"seed*%zu+0..%zu\", \"seconds\": %g, \"trace\": %d, "
      "\"scale\": %g, \"network\": \"%s\", \"time_scale\": %g, "
      "\"nproc\": %ld, \"hardware_concurrency\": %u, \"workers\": %zu, "
      "\"run_slots\": %zu, \"io_threads\": %zu, \"clients\": %zu, "
      "\"rate_qps\": %g, \"cells\": %zu, \"build_type\": \"%s\", "
      "\"reference_rows_q1_to_q5\": [%s]}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed),
      lakes.size(), kLakesPerRun, kLakesPerRun - 1, args.seconds,
      args.trace ? 1 : 0, args.scale, w.network.name.c_str(),
      w.network.time_scale, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(),
      w.workers, w.run_slots, w.io_threads, w.clients, w.rate_qps,
      lakes[0].cells.size(), PERFBENCH_BUILD_TYPE, rows.c_str());
}

void PrintWindow(const char* label, const Window& win) {
  std::printf(
      "%s: {\"seconds\": %.6f, \"attempted\": %llu, "
      "\"correct_in_window\": %llu, \"wrong\": %llu, \"errors\": %llu, "
      "\"shed\": %llu, \"latency_samples\": %zu, "
      "\"max_generator_lateness_ms\": %.3f, \"queue_depth_at_close\": %zu, "
      "\"running_at_close\": %zu}\n",
      label, win.seconds, static_cast<unsigned long long>(win.tally.attempted),
      static_cast<unsigned long long>(win.tally.correct_in_window),
      static_cast<unsigned long long>(win.tally.wrong),
      static_cast<unsigned long long>(win.tally.errors),
      static_cast<unsigned long long>(win.tally.shed),
      win.tally.latency_ms.size(), win.max_lateness_ms,
      win.queue_depth_at_close, win.running_at_close);
}

// Timed set-ups, one per lake, from the start of generation to a service
// ready to take queries. Each is torn down again at once, so all but the
// first reuse freed memory: set-ups that fault in fresh pages varied by up
// to 40% between runs. Run once before the window and once after it, so the
// median spans the run rather than one moment of the host's load.
void TimeSetUps(const Workload& w,
                const std::function<lslod::LakeConfig(size_t)>& lake_config,
                SetupTimes* times) {
  for (size_t j = 0; j < kLakesPerRun; ++j) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<lslod::DataLake> data = BuildLakeOrDie(lake_config(j));
    const Clock::time_point t1 = Clock::now();
    const std::unique_ptr<fed::FederatedEngine> engine =
        BuildEngine(*data, nullptr, j);
    const Clock::time_point t2 = Clock::now();
    const std::unique_ptr<svc::QueryService> service =
        StartService(w, engine.get());
    const Clock::time_point t3 = Clock::now();
    times->total_s.push_back(SecondsBetween(t0, t3));
    times->build_lake_s.push_back(SecondsBetween(t0, t1));
    times->service_start_s.push_back(SecondsBetween(t2, t3));
  }
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload w = FindWorkload(args.workload);

  auto lake_config = [&](size_t j) {
    lslod::LakeConfig config;
    config.scale = args.scale;
    config.seed = args.seed * kLakesPerRun + j;
    config.rdf_sources = w.rdf_sources;
    return config;
  };

  SetupTimes setup;
  TimeSetUps(w, lake_config, &setup);
  // The lakes that are served, set up the same way and kept; each
  // sub-window starts its own service on the lake's engine.
  std::vector<Lake> lakes(kLakesPerRun);
  std::vector<std::unique_ptr<fed::FederatedEngine>> engines;
  for (size_t j = 0; j < kLakesPerRun; ++j) {
    lakes[j].index = j;
    lakes[j].seed = lake_config(j).seed;
    lakes[j].data = BuildLakeOrDie(lake_config(j));
    engines.push_back(BuildEngine(*lakes[j].data, nullptr, j));
  }

  bool correct = true;
  for (Lake& lake : lakes) {
    lake.expected = ReferenceDigests(lake.seed, args.scale, &correct);
    for (const lslod::BenchmarkQuery& q : lslod::BenchmarkQueries()) {
      for (fed::PlanMode mode : w.modes) {
        Cell c;
        c.query_id = q.id;
        c.sparql = &q.sparql;
        c.options.mode = mode;
        c.options.network = w.network;
        c.options.seed = lake.seed;  // network RNG
        lake.cells.push_back(std::move(c));
      }
    }
  }

  // With --trace 1, each lake's untraced sub-window is followed by the
  // same sub-window on an engine whose wrappers sit behind the timing
  // decorator; the two engines differ only in that decorator.
  std::unique_ptr<TraceHooks> hooks;
  std::vector<std::unique_ptr<fed::FederatedEngine>> traced_engines;
  if (args.trace) {
    hooks = std::make_unique<TraceHooks>(lakes.size());
    for (const Lake& lake : lakes) {
      traced_engines.push_back(
          BuildEngine(*lake.data, hooks.get(), lake.index));
    }
  }
  const double sub_seconds = args.seconds / static_cast<double>(lakes.size());
  Window plain, traced;
  for (const Lake& lake : lakes) {
    correct &= MeasureLake(lake, engines[lake.index].get(), w, sub_seconds,
                           nullptr, &plain);
    if (args.trace) {
      correct &= MeasureLake(lake, traced_engines[lake.index].get(), w,
                             sub_seconds, hooks.get(), &traced);
    }
  }
  const double peak_rss_mb = PeakRssMb();
  TimeSetUps(w, lake_config, &setup);
  PrintContext(args, w, lakes);
  PrintWindow("window", plain);

  uint64_t attempted = plain.tally.attempted;
  uint64_t failed = plain.tally.failed();
  correct &= plain.tally.wrong == 0;
  MetricSet metrics;

  if (!args.trace) {
    metrics.Add("setup_s", Percentile(setup.total_s, 0.5), "s");
    metrics.Add("throughput_qps", plain.throughput_qps(), "q/s");
    metrics.Add("latency_p50_ms", Percentile(plain.tally.latency_ms, 0.5),
                "ms");
    metrics.Add("latency_p90_ms", Percentile(plain.tally.latency_ms, 0.9),
                "ms");
    metrics.Add("first_answer_p50_ms", plain.tally.FirstAnswerP50Ms(), "ms");
    metrics.Add("cpu_ms_per_query", plain.per_query(plain.cpu_s * 1e3), "ms");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    PrintWindow("traced_window", traced);
    attempted += traced.tally.attempted;
    failed += traced.tally.failed();
    correct &= traced.tally.wrong == 0;
    const Replays r = ReplayLayers(lakes, *engines[0], *hooks);

    const double plain_qps = plain.throughput_qps();
    const double sql_cpu = traced.per_query(traced.sql.cpu_ms);
    metrics.Add("svc.queue_wait_p50_ms",
                Percentile(traced.tally.queue_wait_ms, 0.5), "ms");
    metrics.Add("svc.sched.steps_per_query",
                traced.per_query(static_cast<double>(traced.sched.steps)),
                "count");
    metrics.Add("svc.sched.parks_per_query",
                traced.per_query(static_cast<double>(traced.sched.parks)),
                "count");
    metrics.Add("svc.sched.steals_per_query",
                traced.per_query(static_cast<double>(traced.sched.steals)),
                "count");
    metrics.Add("svc.sched.io_jobs_per_query",
                traced.per_query(static_cast<double>(traced.sched.io_jobs)),
                "count");
    metrics.Add("sparql.parse_ms", r.parse_ms, "ms");
    metrics.Add("fed.decompose_ms", r.decompose_ms, "ms");
    metrics.Add("fed.plan_ms", r.plan_ms, "ms");
    metrics.Add("fed.leaf_calls_per_query",
                traced.per_query(static_cast<double>(traced.sql.calls +
                                                     traced.rdf.calls)),
                "count");
    metrics.Add("fed.operator_compute_ms_per_query",
                traced.per_answer(traced.tally.op_compute_ms), "ms");
    metrics.Add("fed.operator_wait_ms_per_query",
                traced.per_answer(traced.tally.op_wait_ms), "ms");
    metrics.Add("wrapper.sql.wall_ms_per_query",
                traced.per_query(traced.sql.wall_ms), "ms");
    metrics.Add("wrapper.sql.cpu_ms_per_query", sql_cpu, "ms");
    metrics.Add("wrapper.rdf.wall_ms_per_query",
                traced.per_query(traced.rdf.wall_ms), "ms");
    metrics.Add("wrapper.rdf.cpu_ms_per_query",
                traced.per_query(traced.rdf.cpu_ms), "ms");
    metrics.Add("wrapper.sql.translate_ms_per_query", r.translate_ms, "ms");
    metrics.Add("wrapper.sql.decode_cpu_ms_per_query",
                sql_cpu - r.translate_ms - r.rel_execute_ms, "ms");
    metrics.Add("rel.execute_ms_per_query", r.rel_execute_ms, "ms");
    metrics.Add("rel.rows_out_per_query", r.rel_rows, "count");
    metrics.Add("rdf.bgp_ms_per_query", r.bgp_ms, "ms");
    metrics.Add("net.messages_per_query",
                traced.per_answer(static_cast<double>(traced.tally.messages)),
                "count");
    metrics.Add("net.delay_ms_per_query",
                traced.per_answer(traced.tally.delay_ms), "ms");
    metrics.Add("setup.build_lake_s", Percentile(setup.build_lake_s, 0.5),
                "s");
    metrics.Add("setup.service_start_s",
                Percentile(setup.service_start_s, 0.5), "s");
    metrics.Add("trace.overhead_pct",
                plain_qps > 0
                    ? 100.0 * (plain_qps - traced.throughput_qps()) / plain_qps
                    : 0,
                "%");
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.Render().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lakefed::perfbench

int main(int argc, char** argv) { return lakefed::perfbench::Run(argc, argv); }
