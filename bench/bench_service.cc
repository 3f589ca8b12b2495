// Service-layer experiment: replay a mixed Q1..Q5 workload through the
// multi-tenant QueryService at increasing session counts and measure
// throughput, end-to-end latency percentiles and the process thread peak.
// The point of the shared worker-pool scheduler is that the thread count
// stays workers + I/O pool no matter how many sessions are in flight (a
// run slot is a count, not a thread) — a thread per operator would need
// O(sessions x operators) threads to do this.
//
// Every session's answer is checked against a reference execution of the
// same query (an order-independent content hash + row count): one wrong,
// torn or duplicated answer fails the bench.
//
// Knobs (on top of the bench_util ones):
//   LAKEFED_SERVICE_SESSIONS  comma list of session counts
//                             (default "100,1000,10000")
//   LAKEFED_SERVICE_WORKERS   compute workers (default 0 = hardware)
//   LAKEFED_SERVICE_SLOTS     concurrent sessions (default 0 = 2 x workers)
//   LAKEFED_SERVICE_QUERYLOG  1 = enable the slow-query flight recorder
//                             for the service waves (default off)
//   LAKEFED_SERVICE_MONITOR_PORT  start the /metrics exporter on this
//                             port during each wave (0/unset = off)
//
// Emits BENCH_service.json next to the binary. The JSON always carries
// slow_queries_recorded / querylog_dropped; both are 0 when the flight
// recorder is off.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "obs/querylog.h"
#include "svc/service.h"

namespace lakefed::bench {
namespace {

constexpr const char* kQueryIds[] = {"Q1", "Q2", "Q3", "Q4", "Q5"};
constexpr int kTenants = 4;

// Order-independent content fingerprint of an answer: row count plus a
// commutative combination of per-row hashes. Detects wrong, partial and
// duplicated rows without holding every serialized row.
struct AnswerDigest {
  size_t rows = 0;
  uint64_t hash = 0;

  bool operator==(const AnswerDigest& other) const {
    return rows == other.rows && hash == other.hash;
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

std::vector<size_t> SessionCounts() {
  std::string spec = "100,1000,10000";
  if (const char* env = std::getenv("LAKEFED_SERVICE_SESSIONS")) spec = env;
  std::vector<size_t> counts;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    counts.push_back(static_cast<size_t>(
        std::strtoul(spec.substr(pos, comma - pos).c_str(), nullptr, 10)));
    pos = comma + 1;
  }
  return counts;
}

void Run() {
  PrintHeader("Multi-tenant query service: mixed Q1..Q5 replay");
  auto lake = BuildBenchLake();
  const fed::PlanOptions base_options =
      ModeOptions(fed::PlanMode::kPhysicalDesignAware,
                  net::NetworkProfile::Gamma1());

  // Reference digests from direct engine sessions: the service answers
  // must match these exactly. They run on a pool of their own that is
  // gone before the service starts, so the thread peak below counts the
  // service alone (the engine's default pool would outlive the references
  // and sit beside the service's).
  std::map<std::string, AnswerDigest> expected;
  {
    svc::Scheduler reference_pool;
    fed::PlanOptions reference_options = base_options;
    reference_options.scheduler = &reference_pool;
    for (const char* id : kQueryIds) {
      const lslod::BenchmarkQuery* query = lslod::FindQuery(id);
      auto answer = lake->engine->Execute(query->sparql, reference_options);
      if (!answer.ok()) {
        std::fprintf(stderr, "reference run %s failed: %s\n", id,
                     answer.status().ToString().c_str());
        std::exit(1);
      }
      expected[id] = Digest(*answer);
    }
  }

  // The flight recorder is opt-in; enabled after the reference runs so the
  // ring only holds service traffic.
  const bool querylog_on = EnvDouble("LAKEFED_SERVICE_QUERYLOG", 0) != 0;
  if (querylog_on) lake->engine->EnableQueryLog();
  const uint16_t monitor_port = static_cast<uint16_t>(
      EnvDouble("LAKEFED_SERVICE_MONITOR_PORT", 0));

  BenchJsonEmitter emitter("service");
  emitter.config()
      .Set("queries", std::string("Q1,Q2,Q3,Q4,Q5"))
      .Set("tenants", kTenants)
      .Set("network", std::string("Gamma1"))
      .Set("querylog", querylog_on ? uint64_t{1} : uint64_t{0});

  for (size_t sessions : SessionCounts()) {
    svc::ServiceConfig config;
    config.scheduler.workers = static_cast<size_t>(
        EnvDouble("LAKEFED_SERVICE_WORKERS", 0));
    config.max_concurrent_sessions = static_cast<size_t>(
        EnvDouble("LAKEFED_SERVICE_SLOTS", 0));
    config.max_queued = sessions;  // admit the whole wave, shed beyond it
    svc::QueryService service(lake->engine.get(), config);
    if (monitor_port != 0) {
      Status started = service.StartMonitoring(monitor_port);
      if (!started.ok()) {
        std::fprintf(stderr, "monitor start failed: %s\n",
                     started.ToString().c_str());
        std::exit(1);
      }
      std::printf("monitor: http://127.0.0.1:%u/metrics\n",
                  service.monitor_port());
      std::fflush(stdout);
    }

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
    std::vector<std::pair<std::string, std::shared_ptr<svc::Submission>>>
        flights;
    flights.reserve(sessions);
    size_t shed = 0;
    for (size_t i = 0; i < sessions; ++i) {
      const std::string id = kQueryIds[i % 5];
      svc::ServiceRequest request;
      request.tenant = "t" + std::to_string(i % kTenants);
      request.priority = i % 2 == 0 ? svc::Priority::kInteractive
                                    : svc::Priority::kBatch;
      request.query = fed::QueryRequest::Text(
          lslod::FindQuery(id)->sparql, base_options);
      auto sub = service.Submit(std::move(request));
      if (!sub.ok()) {
        if (!sub.status().IsResourceExhausted()) {
          std::fprintf(stderr, "submit failed: %s\n",
                       sub.status().ToString().c_str());
          std::exit(1);
        }
        ++shed;
        continue;
      }
      flights.emplace_back(id, *sub);
    }

    size_t ok = 0, wrong = 0, errors = 0;
    std::vector<double> latency_ms, queue_wait_ms;
    latency_ms.reserve(flights.size());
    for (const auto& [id, sub] : flights) {
      const Result<fed::QueryAnswer>& outcome = sub->Wait();
      if (!outcome.ok()) {
        ++errors;
        std::fprintf(stderr, "session (%s) failed: %s\n", id.c_str(),
                     outcome.status().ToString().c_str());
        continue;
      }
      if (Digest(*outcome) == expected[id]) {
        ++ok;
      } else {
        ++wrong;
        std::fprintf(stderr, "session (%s): wrong/partial answer\n",
                     id.c_str());
      }
      latency_ms.push_back(sub->total_ms());
      queue_wait_ms.push_back(sub->queue_wait_ms());
    }
    const double wall_s = wall.ElapsedSeconds();
    sampling.store(false);
    sampler.join();

    std::sort(latency_ms.begin(), latency_ms.end());
    std::sort(queue_wait_ms.begin(), queue_wait_ms.end());
    const svc::QueryService::Stats stats = service.stats();
    const svc::Scheduler::Stats sched = service.scheduler()->stats();
    const obs::QueryLog* log = lake->engine->query_log();
    const double throughput = wall_s > 0 ? static_cast<double>(ok) / wall_s
                                         : 0;

    std::printf(
        "N=%zu: %zu ok, %zu wrong, %zu errors, %zu shed | %.2f s, "
        "%.1f q/s | p50 %.1f ms, p95 %.1f ms, p99 %.1f ms | threads peak "
        "%zu (baseline %zu)\n",
        sessions, ok, wrong, errors, shed, wall_s, throughput,
        Percentile(latency_ms, 0.50), Percentile(latency_ms, 0.95),
        Percentile(latency_ms, 0.99), peak_threads.load(), baseline_threads);
    if (wrong > 0 || errors > 0) {
      std::fprintf(stderr, "error: %zu wrong and %zu failed sessions\n",
                   wrong, errors);
      std::exit(1);
    }

    emitter.AddResult()
        .Set("sessions", static_cast<uint64_t>(sessions))
        .Set("ok", static_cast<uint64_t>(ok))
        .Set("shed", static_cast<uint64_t>(shed))
        .Set("degraded", stats.degraded)
        .Set("wall_s", wall_s)
        .Set("throughput_qps", throughput)
        .Set("p50_ms", Percentile(latency_ms, 0.50))
        .Set("p95_ms", Percentile(latency_ms, 0.95))
        .Set("p99_ms", Percentile(latency_ms, 0.99))
        .Set("queue_wait_p95_ms", Percentile(queue_wait_ms, 0.95))
        .Set("threads_peak", static_cast<uint64_t>(peak_threads.load()))
        .Set("workers", static_cast<uint64_t>(
                            service.scheduler()->num_workers()))
        .Set("io_threads", static_cast<uint64_t>(
                               service.scheduler()->num_io_threads()))
        .Set("run_slots", static_cast<uint64_t>(service.run_slots()))
        .Set("sched_steps", sched.steps)
        .Set("sched_steals", sched.steals)
        .Set("io_jobs", sched.io_jobs)
        .Set("slow_queries_recorded",
             log == nullptr ? uint64_t{0} : log->slow_recorded())
        .Set("querylog_dropped",
             log == nullptr ? uint64_t{0} : log->dropped());
  }

  emitter.Write("BENCH_service.json");
}

}  // namespace
}  // namespace lakefed::bench

int main() {
  lakefed::bench::Run();
  return 0;
}
