// CHAOS — tail-latency defense under sustained fault injection, two phases:
//
// Phase A (soak): replay a mixed Q1..Q5 workload through the QueryService
// and its shared worker pool while every source runs a seeded chaos profile: transient per-message errors,
// scripted connection failures and slow-response spikes, with retries,
// hedging and adaptive timeouts armed. Every answer is digest-checked
// against a fault-free reference: an unflagged mismatch (a torn, duplicated
// or silently wrong answer) fails the bench; honestly-flagged partial
// answers are counted as degraded. A global watchdog aborts the process if
// the soak stops making progress.
//
// Phase B (hedge A/B): a two-replica engine where one replica suffers
// seeded slow spikes on every message. The same workload runs with hedging
// off and on; hedging must cut p99 latency by >= 2x and answers must stay
// byte-identical.
//
// Knobs (on top of the bench_util ones):
//   LAKEFED_CHAOS_SESSIONS     soak sessions (default 500)
//   LAKEFED_CHAOS_AB_SESSIONS  A/B sessions per configuration (default 100)
//   LAKEFED_CHAOS_SEED         chaos schedule seed (default 1)
//   LAKEFED_CHAOS_SLOW_MS      replica spike size, absolute ms (default 25)
//
// Emits BENCH_chaos.json next to the binary.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "svc/scheduler.h"
#include "svc/service.h"

namespace lakefed::bench {
namespace {

constexpr const char* kQueryIds[] = {"Q1", "Q2", "Q3", "Q4", "Q5"};

// Order-independent content fingerprint (row count + commutative per-row
// hash): detects wrong, torn and duplicated rows cheaply.
struct AnswerDigest {
  size_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const AnswerDigest& other) const {
    return rows == other.rows && hash == other.hash;
  }
  bool operator!=(const AnswerDigest& other) const {
    return !(*this == other);
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

size_t CurrentThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t threads = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      threads = static_cast<size_t>(std::strtoul(line + 8, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return threads;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx = std::min(
      sorted.size() - 1, static_cast<size_t>(p * (sorted.size() - 1) + 0.5));
  return sorted[idx];
}

// Global liveness watchdog: the soak must keep completing sessions. A stall
// (hung hedge race, leaked cancellation, deadlocked pool) aborts the whole
// process rather than hanging CI.
class Watchdog {
 public:
  explicit Watchdog(std::atomic<uint64_t>* progress)
      : progress_(progress), thread_([this] { Loop(); }) {}
  ~Watchdog() {
    stop_.store(true);
    thread_.join();
  }

 private:
  void Loop() {
    uint64_t last = progress_->load();
    int stalled_s = 0;
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      const uint64_t now = progress_->load();
      if (now != last) {
        last = now;
        stalled_s = 0;
      } else if (++stalled_s >= 120) {
        std::fprintf(stderr,
                     "watchdog: no session completed for %d s (progress "
                     "stuck at %llu) — aborting\n",
                     stalled_s, static_cast<unsigned long long>(now));
        std::_Exit(3);
      }
    }
  }

  std::atomic<uint64_t>* progress_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

uint64_t ChaosSeed() {
  return static_cast<uint64_t>(EnvDouble("LAKEFED_CHAOS_SEED", 1));
}

// The soak chaos profile applied to every lake source: transient errors
// retries can absorb, a scripted dead-then-alive connection, and small
// absolute slow spikes (spike sleeps are wall time, not scaled by
// LAKEFED_TIME_SCALE — keep them short).
net::FaultProfile SoakProfile() {
  net::FaultProfile fault;
  fault.error_rate = 0.002;
  fault.fail_connections = 1;
  fault.slow_rate = 0.05;
  fault.slow_ms = 2;
  fault.slow_jitter_ms = 1;
  return fault;
}

fed::PlanOptions SoakOptions(const fed::PlanOptions& base,
                             const lslod::DataLake& lake, uint64_t session) {
  fed::PlanOptions options = base;
  options.failure_mode = fed::FailureMode::kBestEffort;
  options.retry.max_attempts = 6;
  options.retry.initial_backoff_ms = 0.3;
  options.retry.max_backoff_ms = 3.0;
  options.hedge.enabled = true;
  options.hedge.fallback_delay_ms = 5;
  options.adaptive_timeout.enabled = true;
  options.adaptive_timeout.floor_ms = 50;  // generous: chaos, not starvation
  // Distinct seed per session: every session sees a different (but
  // reproducible) fault schedule.
  options.seed = ChaosSeed() * 1000003 + session;
  for (const auto& [id, db] : lake.databases) {
    options.faults[id] = SoakProfile();
  }
  return options;
}

struct SoakTally {
  std::atomic<uint64_t> ok{0}, degraded{0}, wrong{0}, errors{0};
  std::atomic<uint64_t> retries{0}, failovers{0}, faults{0}, spikes{0};
  std::atomic<uint64_t> hedges_fired{0}, adaptive{0};
  // Pinned at 0: the soak runs with caching off (a cached sub-answer would
  // mask the fault injection the soak exists to exercise). The explicit
  // JSON field keeps the schema stable across cache-on and cache-off
  // builds.
  std::atomic<uint64_t> cache_hits{0};
};

void TallyAnswer(const std::string& id, const fed::QueryAnswer& answer,
                 const std::map<std::string, AnswerDigest>& expected,
                 SoakTally* tally) {
  const fed::ExecutionStats& stats = answer.stats;
  tally->retries += stats.retries;
  tally->failovers += stats.failovers;
  tally->faults += stats.faults_injected;
  tally->spikes += stats.latency_spikes_injected;
  tally->hedges_fired += stats.hedges_fired;
  tally->adaptive += stats.adaptive_timeouts;
  tally->cache_hits += stats.sub_answer_hits;
  if (Digest(answer) == expected.at(id)) {
    ++tally->ok;
  } else if (stats.partial) {
    ++tally->degraded;  // honest degradation: flagged and accounted
  } else {
    ++tally->wrong;  // silent corruption: the soak's failure condition
    std::fprintf(stderr, "soak (%s): unflagged wrong answer\n", id.c_str());
  }
}

struct SoakResult {
  size_t sessions = 0;
  double wall_s = 0;
  size_t threads_peak = 0;
  SoakTally tally;
};

// Phase A: the whole wave goes through the multi-tenant QueryService and
// its shared worker pool.
void Soak(const lslod::DataLake& lake, const fed::PlanOptions& base,
                   const std::map<std::string, AnswerDigest>& expected,
                   size_t sessions, std::atomic<uint64_t>* progress,
                   SoakResult* out) {
  svc::ServiceConfig config;
  config.max_queued = sessions + 1;
  svc::QueryService service(lake.engine.get(), config);
  std::vector<std::pair<std::string, std::shared_ptr<svc::Submission>>>
      flights;
  flights.reserve(sessions);
  for (size_t i = 0; i < sessions; ++i) {
    const std::string id = kQueryIds[i % 5];
    svc::ServiceRequest request;
    request.tenant = "t" + std::to_string(i % 4);
    request.query = fed::QueryRequest::Text(lslod::FindQuery(id)->sparql,
                                            SoakOptions(base, lake, i));
    auto sub = service.Submit(std::move(request));
    if (!sub.ok()) {
      ++out->tally.errors;
      std::fprintf(stderr, "soak submit (%s): %s\n", id.c_str(),
                   sub.status().ToString().c_str());
      progress->fetch_add(1);
      continue;
    }
    flights.emplace_back(id, *sub);
  }
  for (const auto& [id, sub] : flights) {
    const Result<fed::QueryAnswer>& outcome = sub->Wait();
    if (!outcome.ok()) {
      ++out->tally.errors;
      std::fprintf(stderr, "soak scheduler (%s): %s\n", id.c_str(),
                   outcome.status().ToString().c_str());
    } else {
      TallyAnswer(id, *outcome, expected, &out->tally);
    }
    progress->fetch_add(1);
  }
  service.Shutdown();
}

void RunSoak(const lslod::DataLake& lake, const fed::PlanOptions& base,
             const std::map<std::string, AnswerDigest>& expected,
             size_t sessions, std::atomic<uint64_t>* progress,
             SoakResult* out) {
  SoakResult& result = *out;
  result.sessions = sessions;

  const size_t baseline_threads = CurrentThreadCount();
  std::atomic<bool> sampling{true};
  std::atomic<size_t> peak_threads{baseline_threads};
  std::thread sampler([&] {
    while (sampling.load()) {
      const size_t now = CurrentThreadCount();
      size_t peak = peak_threads.load();
      while (now > peak && !peak_threads.compare_exchange_weak(peak, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  Stopwatch wall;
  Soak(lake, base, expected, sessions, progress, &result);
  result.wall_s = wall.ElapsedSeconds();
  sampling.store(false);
  sampler.join();
  result.threads_peak = peak_threads.load();

  std::printf(
      "soak N=%zu: %llu ok, %llu degraded, %llu wrong, %llu errors | "
      "%llu retries, %llu failovers, %llu faults, %llu spikes, %llu hedges, "
      "%llu adaptive | %.2f s, threads peak %zu\n",
      sessions, static_cast<unsigned long long>(result.tally.ok.load()),
      static_cast<unsigned long long>(result.tally.degraded.load()),
      static_cast<unsigned long long>(result.tally.wrong.load()),
      static_cast<unsigned long long>(result.tally.errors.load()),
      static_cast<unsigned long long>(result.tally.retries.load()),
      static_cast<unsigned long long>(result.tally.failovers.load()),
      static_cast<unsigned long long>(result.tally.faults.load()),
      static_cast<unsigned long long>(result.tally.spikes.load()),
      static_cast<unsigned long long>(result.tally.hedges_fired.load()),
      static_cast<unsigned long long>(result.tally.adaptive.load()),
      result.wall_s, result.threads_peak);
}

// --- Phase B: hedged vs unhedged latency on a slow replica pair ---------

constexpr char kReplicaClass[] = "http://chaos/C";
constexpr char kReplicaPred[] = "http://chaos/p";
const char kReplicaQuery[] =
    "SELECT ?s ?o WHERE { ?s a <http://chaos/C> ; <http://chaos/p> ?o . }";

// True replica: identical content regardless of id, so the hedge winner is
// unobservable in the answers. Latency comes from injected slow spikes on
// the transfer path, not from the wrapper.
class ReplicaWrapper : public fed::SourceWrapper {
 public:
  explicit ReplicaWrapper(std::string id) : id_(std::move(id)) {}
  const std::string& id() const override { return id_; }
  fed::SourceKind kind() const override { return fed::SourceKind::kRdf; }

  std::vector<mapping::RdfMt> Molecules() const override {
    mapping::RdfMt molecule;
    molecule.class_iri = kReplicaClass;
    molecule.predicates = {rdf::kRdfType, kReplicaPred};
    molecule.sources = {id_};
    return {molecule};
  }

  Status Execute(const fed::SubQuery& subquery,
                 const fed::WrapperContext& ctx) override {
    std::vector<std::string> vars = subquery.Variables();
    fed::BatchEmitter emitter(ctx);
    for (int i = 0; i < 32; ++i) {
      if (ctx.token.IsCancelled()) return Status::OK();
      rdf::Binding row;
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
};

struct AbResult {
  bool hedged = false;
  size_t sessions = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  uint64_t hedges_fired = 0, hedge_wins = 0;
  size_t wrong = 0;
};

AbResult RunAb(bool hedged, size_t sessions, svc::Scheduler* scheduler,
               std::atomic<uint64_t>* progress) {
  fed::FederatedEngine engine;
  Status st = engine.RegisterSource(
      std::make_unique<ReplicaWrapper>("replica_slow"));
  if (st.ok()) {
    st = engine.RegisterSource(
        std::make_unique<ReplicaWrapper>("replica_fast"));
  }
  if (!st.ok()) {
    std::fprintf(stderr, "replica engine: %s\n", st.ToString().c_str());
    std::exit(1);
  }

  fed::PlanOptions options;
  options.scheduler = scheduler;
  // The slow replica spikes on every message; the spike is absolute wall
  // time (LAKEFED_TIME_SCALE does not shrink it) — this is the tail the
  // hedge is meant to cut.
  net::FaultProfile slow;
  slow.slow_rate = 1.0;
  slow.slow_ms = EnvDouble("LAKEFED_CHAOS_SLOW_MS", 25);
  options.faults["replica_slow"] = slow;
  if (hedged) {
    options.hedge.enabled = true;
    options.hedge.min_samples = 1'000'000;  // pin the deterministic fallback
    options.hedge.fallback_delay_ms = 2;
    options.hedge.min_delay_ms = 0.5;
  }

  AnswerDigest reference;
  AbResult result;
  result.hedged = hedged;
  result.sessions = sessions;
  std::vector<double> latency_ms;
  latency_ms.reserve(sessions);
  for (size_t i = 0; i < sessions; ++i) {
    options.seed = ChaosSeed() * 7919 + i;
    Stopwatch watch;
    auto answer = engine.Execute(kReplicaQuery, options);
    if (!answer.ok()) {
      std::fprintf(stderr, "A/B run failed: %s\n",
                   answer.status().ToString().c_str());
      std::exit(1);
    }
    latency_ms.push_back(watch.ElapsedMillis());
    result.hedges_fired += answer->stats.hedges_fired;
    result.hedge_wins += answer->stats.hedge_wins;
    if (i == 0) {
      reference = Digest(*answer);
      if (reference.rows == 0) {
        std::fprintf(stderr, "A/B reference answer is empty\n");
        std::exit(1);
      }
    } else if (Digest(*answer) != reference) {
      ++result.wrong;
      std::fprintf(stderr, "A/B (hedged=%d): answer drift at session %zu\n",
                   hedged ? 1 : 0, i);
    }
    progress->fetch_add(1);
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  result.p50 = Percentile(latency_ms, 0.50);
  result.p95 = Percentile(latency_ms, 0.95);
  result.p99 = Percentile(latency_ms, 0.99);
  std::printf(
      "A/B hedged=%d N=%zu: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms | "
      "%llu hedges fired, %llu wins, %zu wrong\n",
      hedged ? 1 : 0, sessions, result.p50, result.p95,
      result.p99, static_cast<unsigned long long>(result.hedges_fired),
      static_cast<unsigned long long>(result.hedge_wins), result.wrong);
  return result;
}

void Run() {
  PrintHeader("Chaos soak + hedged-vs-unhedged tail latency");
  const size_t soak_sessions =
      static_cast<size_t>(EnvDouble("LAKEFED_CHAOS_SESSIONS", 500));
  const size_t ab_sessions =
      static_cast<size_t>(EnvDouble("LAKEFED_CHAOS_AB_SESSIONS", 100));
  std::printf("(chaos_seed=%llu, soak=%zu, ab=%zu/config)\n",
              static_cast<unsigned long long>(ChaosSeed()), soak_sessions,
              ab_sessions);

  std::atomic<uint64_t> progress{0};
  Watchdog watchdog(&progress);

  auto lake = BuildBenchLake();
  const fed::PlanOptions base = ModeOptions(
      fed::PlanMode::kPhysicalDesignAware, net::NetworkProfile::Gamma1());

  // Fault-free reference digests: the ground truth every chaos answer is
  // held against. They run on a pool of their own that is gone before the
  // soak, so the soak's thread peak counts the service alone.
  std::map<std::string, AnswerDigest> expected;
  {
    svc::Scheduler reference_pool;
    fed::PlanOptions reference_options = base;
    reference_options.scheduler = &reference_pool;
    for (const char* id : kQueryIds) {
      auto answer = lake->engine->Execute(lslod::FindQuery(id)->sparql,
                                          reference_options);
      if (!answer.ok()) {
        std::fprintf(stderr, "reference run %s failed: %s\n", id,
                     answer.status().ToString().c_str());
        std::exit(1);
      }
      expected[id] = Digest(*answer);
    }
  }

  BenchJsonEmitter emitter("chaos");
  emitter.config()
      .Set("chaos_seed", ChaosSeed())
      .Set("soak_sessions", static_cast<uint64_t>(soak_sessions))
      .Set("ab_sessions", static_cast<uint64_t>(ab_sessions))
      .Set("fault_profile", SoakProfile().ToString())
      .Set("slow_replica_ms", EnvDouble("LAKEFED_CHAOS_SLOW_MS", 25));

  // --- Phase A ---
  size_t total_wrong = 0, total_errors = 0;
  SoakResult soak;
  RunSoak(*lake, base, expected, soak_sessions, &progress, &soak);
  total_wrong += soak.tally.wrong.load();
  total_errors += soak.tally.errors.load();
  emitter.AddResult()
      .Set("phase", std::string("soak"))
      .Set("dataflow", std::string("scheduler"))
      .Set("sessions", static_cast<uint64_t>(soak.sessions))
      .Set("ok", soak.tally.ok.load())
      .Set("degraded", soak.tally.degraded.load())
      .Set("wrong", soak.tally.wrong.load())
      .Set("errors", soak.tally.errors.load())
      .Set("retries", soak.tally.retries.load())
      .Set("failovers", soak.tally.failovers.load())
      .Set("faults_injected", soak.tally.faults.load())
      .Set("latency_spikes", soak.tally.spikes.load())
      .Set("hedges_fired", soak.tally.hedges_fired.load())
      .Set("adaptive_timeouts", soak.tally.adaptive.load())
      .Set("cache_hits", soak.tally.cache_hits.load())
      .Set("wall_s", soak.wall_s)
      .Set("threads_peak", static_cast<uint64_t>(soak.threads_peak));

  // --- Phase B ---
  svc::Scheduler scheduler(svc::Scheduler::Config{4, 8});
  AbResult off = RunAb(false, ab_sessions, &scheduler, &progress);
  AbResult on = RunAb(true, ab_sessions, &scheduler, &progress);
  total_wrong += off.wrong + on.wrong;
  const double speedup = on.p99 > 0 ? off.p99 / on.p99 : 0;
  std::printf("A/B: p99 %.2f ms -> %.2f ms (%.1fx)\n", off.p99, on.p99,
              speedup);
  for (const AbResult& r : {off, on}) {
    emitter.AddResult()
        .Set("phase", std::string("hedge_ab"))
        .Set("dataflow", std::string("scheduler"))
        .Set("hedged", r.hedged)
        .Set("sessions", static_cast<uint64_t>(r.sessions))
        .Set("p50_ms", r.p50)
        .Set("p95_ms", r.p95)
        .Set("p99_ms", r.p99)
        .Set("hedges_fired", r.hedges_fired)
        .Set("hedge_wins", r.hedge_wins)
        .Set("wrong", static_cast<uint64_t>(r.wrong));
  }
  emitter.AddResult()
      .Set("phase", std::string("hedge_ab_summary"))
      .Set("dataflow", std::string("scheduler"))
      .Set("p99_unhedged_ms", off.p99)
      .Set("p99_hedged_ms", on.p99)
      .Set("p99_speedup", speedup);

  emitter.Write("BENCH_chaos.json");

  if (total_wrong > 0 || total_errors > 0) {
    std::fprintf(stderr, "error: %zu wrong answers, %zu failed sessions\n",
                 total_wrong, total_errors);
    std::exit(1);
  }
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "error: hedging cut p99 by only %.2fx (need >= 2x)\n",
                 speedup);
    std::exit(1);
  }
  std::printf("chaos soak clean: 0 wrong answers, hedge p99 speedup "
              "%.1fx\n", speedup);
}

}  // namespace
}  // namespace lakefed::bench

int main() {
  lakefed::bench::Run();
  return 0;
}
