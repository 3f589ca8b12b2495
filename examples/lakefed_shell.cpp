// lakefed_shell: an interactive SPARQL shell over the synthetic LSLOD
// Semantic Data Lake. Type a SPARQL query terminated by an empty line, or a
// dot-command:
//
//   .help                 this text
//   .mode aware|unaware   switch the QEP family
//   .network NoDelay|Gamma1|Gamma2|Gamma3
//   .explain on|off       print the QEP before every execution
//   .explain <query>      cost-model EXPLAIN ANALYZE of a built-in query id
//                         (Q1..Q5, FIG1) or an inline SPARQL string: prints
//                         the plan with per-node estimated cardinalities,
//                         executes it, then shows estimated vs actual rows
//   .cost on|off          statistics-based (cost-model) planning
//   .h1 on|off  .h2 on|off  toggle the heuristics (aware mode)
//   .sources              list sources
//   .molecules            list RDF molecule templates
//   .queries              list the built-in benchmark queries
//   .run Q1..Q5|FIG1      execute a built-in query
//   .sql                  show the last SQL sent to each relational source
//   .faults               list fault profiles; `.faults <source> <spec>`
//                         injects faults (spec: outage, rate=0.1,
//                         drop_after=50, fail_connections=2, stall=20);
//                         `.faults clear` heals the lake and the breakers
//   .retry                show the retry policy; `.retry <attempts>
//                         [timeout_ms]` arms it, `.retry off` disarms
//   .hedge                show hedging state; `.hedge on [delay_ms]` races
//                         a straggling leaf against a replica after the
//                         delay (default: p95-driven), `.hedge off` disarms
//   .timeouts             per-source observed latency quantiles (p50/p95/
//                         p99) from the engine tracker; `.timeouts on|off`
//                         derives per-attempt timeouts from them
//   .failmode failfast|besteffort   unrecoverable-source handling
//   .pool <n>|off         route queries through the multi-tenant query
//                         service, operators on an n-worker shared pool
//                         (off = direct engine sessions on the engine's
//                         own default pool)
//   .tenants              per-tenant running/queued/completed/quota + service
//                         admission stats (needs .pool)
//   .breakers             per-source circuit breaker states
//   .metrics [json]       engine-wide metrics snapshot (counters, gauges,
//                         latency histograms with p50/p95/p99), as aligned
//                         text or stable JSON
//   .spans <id|SPARQL>    execute a query in a session and print the
//                         hierarchical span tree (parse -> plan -> execute
//                         -> per-operator -> wrapper -> network transfer)
//   .profile <id|SPARQL>  EXPLAIN ANALYZE profile: runs the query (cost
//                         model on) and prints per-operator estimated vs
//                         actual rows with q-errors, the wall/compute/
//                         queue-wait/network time split, rows/s and
//                         per-source traffic
//   .trace <id|SPARQL> <file>   execute a query and write its span tree as
//                         Chrome trace-event JSON (load the file in
//                         chrome://tracing or ui.perfetto.dev)
//   .cache                plan/sub-answer cache statistics; `.cache on|off`
//                         toggles both reuse layers for subsequent queries,
//                         `.cache clear` flushes them
//   .fingerprint <id|SPARQL>   the normalized plan-cache fingerprint of a
//                         query: canonical form, lifted literal parameters
//                         and the options digest
//   .monitor <port>|off   start/stop the monitoring plane: an HTTP endpoint
//                         on 127.0.0.1:<port> (0 = ephemeral) serving
//                         /metrics (Prometheus text), /healthz, /statusz
//                         (JSON) and /queryz (flight-recorder JSONL); also
//                         arms the query log
//   .sys [table]          the system meta-source: list the sys.* tables or
//                         print one (metrics, sources, queries, cache,
//                         scheduler) — the same tables are queryable in
//                         SPARQL via the <http://lakefed.io/sys#> vocabulary
//   .queryz [n|on]        dump the newest n slow-query flight-recorder
//                         records as JSONL (`on` arms the recorder without
//                         starting the monitor)
//   .quit
//
//   $ ./examples/lakefed_shell            # interactive
//   $ echo ".run Q2" | ./examples/lakefed_shell

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/string_util.h"
#include "fed/engine.h"
#include "fed/fingerprint.h"
#include "fed/meta_source.h"
#include "obs/trace_export.h"
#include "sparql/parser.h"
#include "lslod/generator.h"
#include "lslod/queries.h"
#include "svc/service.h"
#include "wrapper/sql_wrapper.h"

using namespace lakefed;

namespace {

void PrintAnswer(const fed::QueryAnswer& answer) {
  // header
  for (const std::string& var : answer.variables) {
    std::printf("%-40s", ("?" + var).c_str());
  }
  std::printf("\n");
  size_t shown = 0;
  for (const rdf::Binding& row : answer.rows) {
    if (shown++ >= 20) {
      std::printf("... (%zu more rows)\n", answer.rows.size() - 20);
      break;
    }
    for (const std::string& var : answer.variables) {
      auto it = row.find(var);
      std::printf("%-40s",
                  it == row.end() ? "(unbound)" : it->second.ToString().c_str());
    }
    std::printf("\n");
  }
  std::printf("%zu answer(s) in %.3fs (first after %.3fs); %llu rows "
              "shipped, %.1f ms simulated delay\n",
              answer.rows.size(), answer.trace.completion_seconds,
              answer.trace.TimeToFirst(),
              static_cast<unsigned long long>(
                  answer.stats.messages_transferred),
              answer.stats.network_delay_ms);
  const fed::ExecutionStats& stats = answer.stats;
  if (stats.retries > 0 || stats.failovers > 0 || stats.faults_injected > 0 ||
      stats.breaker_rejections > 0 || stats.partial ||
      !stats.failed_sources.empty()) {
    std::printf("recovery: %llu retries, %llu failovers, %llu faults "
                "injected, %llu breaker rejections%s\n",
                static_cast<unsigned long long>(stats.retries),
                static_cast<unsigned long long>(stats.failovers),
                static_cast<unsigned long long>(stats.faults_injected),
                static_cast<unsigned long long>(stats.breaker_rejections),
                stats.partial ? " — PARTIAL ANSWER" : "");
    for (const auto& [source, error] : stats.failed_sources) {
      std::printf("  failed source %s: %s\n", source.c_str(), error.c_str());
    }
  }
}

class Shell {
 public:
  explicit Shell(lslod::DataLake* lake) : lake_(lake) {
    options_.network = net::NetworkProfile::Gamma1();
    // The system meta-source (sys.* tables). Its vocabulary is disjoint
    // from every data molecule, so source selection for normal queries is
    // unchanged; the scheduler table reads the pool if one is running.
    auto meta = std::make_unique<fed::MetaSource>(
        lake_->engine.get(),
        fed::MetaSource::Providers{[this]() -> fed::SchedulerInfo {
          return service_ != nullptr ? service_->SchedulerSnapshot()
                                     : fed::SchedulerInfo{};
        }});
    meta_ = meta.get();
    if (!lake_->engine->RegisterSource(std::move(meta)).ok()) {
      meta_ = nullptr;  // sealed or duplicate: .sys degrades gracefully
    }
  }

  void Execute(const std::string& query) {
    if (explain_) {
      auto plan = lake_->engine->Plan(query, options_);
      if (!plan.ok()) {
        std::printf("plan error: %s\n", plan.status().ToString().c_str());
        return;
      }
      std::printf("%s\n", plan->Explain().c_str());
    }
    Result<fed::QueryAnswer> answer = fed::QueryAnswer{};
    if (pool_on_ && service_ != nullptr) {
      // Pool mode: through the admission-controlled service, operators on
      // the shared worker pool.
      svc::ServiceRequest request;
      request.tenant = tenant_;
      request.query = fed::QueryRequest::Text(query, options_);
      answer = service_->Execute(std::move(request));
    } else {
      answer = lake_->engine->Execute(query, options_);
    }
    if (!answer.ok()) {
      std::printf("error: %s\n", answer.status().ToString().c_str());
      return;
    }
    PrintAnswer(*answer);
    last_stats_ = answer->OperatorStatsText();
  }

  // Cost-model EXPLAIN ANALYZE: plan `text` (a built-in query id or inline
  // SPARQL) with statistics-based planning forced on, execute it, and show
  // each operator's estimated vs actual cardinality.
  void ExplainQuery(const std::string& text) {
    const lslod::BenchmarkQuery* q = lslod::FindQuery(text);
    const std::string& sparql = q != nullptr ? q->sparql : text;
    fed::PlanOptions opts = options_;
    opts.use_cost_model = true;
    auto plan = lake_->engine->Plan(sparql, opts);
    if (!plan.ok()) {
      std::printf("plan error: %s\n", plan.status().ToString().c_str());
      return;
    }
    std::printf("%s\n", plan->Explain().c_str());
    auto answer = lake_->engine->Execute(sparql, opts);
    if (!answer.ok()) {
      std::printf("error: %s\n", answer.status().ToString().c_str());
      return;
    }
    PrintAnswer(*answer);
    last_stats_ = answer->OperatorStatsText();
    std::printf("operators (actual rows, [est≈...] where estimated):\n%s",
                last_stats_.c_str());
  }

  // Returns false on .quit.
  bool Command(const std::string& line) {
    std::istringstream in(line);
    std::string cmd, arg;
    in >> cmd >> arg;
    if (cmd == ".quit" || cmd == ".exit") return false;
    if (cmd == ".help") {
      std::printf(
          "Enter a SPARQL query followed by an empty line, or:\n"
          "  .mode aware|unaware   .network NoDelay|Gamma1|Gamma2|Gamma3\n"
          "  .explain on|off       .explain <query id or SPARQL>\n"
          "  .cost on|off          .h1 on|off   .h2 on|off\n"
          "  .batch <n>            rows per exchanged morsel (1 = "
          "row-at-a-time)\n"
          "  .sources  .molecules  .queries  .run <id>  .sql  .stats  "
          ".quit\n"
          "  .faults [<source> <spec> | clear]   inject network faults\n"
          "      spec: outage rate=0.1 drop_after=50 fail_connections=2 "
          "stall=20\n"
          "  .retry [<attempts> [timeout_ms] | off]   retry with backoff\n"
          "  .hedge [on [delay_ms] | off]   race slow leaves against "
          "replicas\n"
          "  .timeouts [on|off]    observed per-source latency quantiles; "
          "on = adaptive per-attempt timeouts\n"
          "  .failmode failfast|besteffort   drop dead sources vs fail "
          "fast\n"
          "  .pool <n>|off         run queries through the multi-tenant "
          "service on an n-worker shared pool\n"
          "  .tenants              per-tenant running/queued/completed/quota + "
          "service admission stats\n"
          "  .breakers             circuit breaker states\n"
          "  .metrics [json]       engine-wide metrics (counters, latency "
          "histograms)\n"
          "  .spans <id|SPARQL>    run a query and print its span tree\n"
          "  .profile <id|SPARQL>  EXPLAIN ANALYZE: per-operator est vs "
          "actual rows (q-errors),\n"
          "      wall/compute/queue-wait/network split, per-source "
          "traffic\n"
          "  .trace <id|SPARQL> <file>   run a query and export a Chrome "
          "trace (chrome://tracing)\n"
          "  .cache [on|off|clear]   plan/sub-answer cache stats and "
          "toggles\n"
          "  .fingerprint <id|SPARQL>   normalized plan-cache fingerprint\n"
          "  .monitor <port>|off   HTTP monitoring endpoint on 127.0.0.1 "
          "(/metrics /healthz /statusz /queryz)\n"
          "  .sys [table]          system meta-source tables (metrics, "
          "sources, queries, cache, scheduler)\n"
          "  .queryz [n|on]        slow-query flight-recorder records as "
          "JSONL\n");
    } else if (cmd == ".mode") {
      if (arg == "aware") {
        options_.mode = fed::PlanMode::kPhysicalDesignAware;
      } else if (arg == "unaware") {
        options_.mode = fed::PlanMode::kPhysicalDesignUnaware;
      } else {
        std::printf("usage: .mode aware|unaware\n");
        return true;
      }
      std::printf("mode = %s\n", fed::PlanModeToString(options_.mode).c_str());
    } else if (cmd == ".network") {
      bool found = false;
      for (const net::NetworkProfile& p : net::NetworkProfile::PaperProfiles()) {
        if (EqualsIgnoreCase(p.name, arg)) {
          options_.network = p;
          found = true;
        }
      }
      std::printf(found ? "network = %s (mean %.1f ms/msg)\n"
                        : "unknown network '%s'%.0f\n",
                  found ? options_.network.name.c_str() : arg.c_str(),
                  found ? options_.network.MeanLatencyMs() : 0.0);
    } else if (cmd == ".explain") {
      if (arg.empty() || arg == "on" || arg == "off") {
        explain_ = arg != "off";
        std::printf("explain = %s\n", explain_ ? "on" : "off");
      } else {
        // EXPLAIN ANALYZE of the rest of the line (query id or SPARQL).
        std::string rest(TrimWhitespace(line.substr(cmd.size())));
        ExplainQuery(rest);
      }
    } else if (cmd == ".batch") {
      if (!arg.empty()) {
        char* end = nullptr;
        const long n = std::strtol(arg.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || n < 1) {
          std::printf("usage: .batch <n>  (n >= 1; 1 = row-at-a-time)\n");
          return true;
        }
        options_.batch_size = static_cast<size_t>(n);
      }
      std::printf("batch size = %zu row%s per morsel\n", options_.batch_size,
                  options_.batch_size == 1 ? "" : "s");
    } else if (cmd == ".cost") {
      options_.use_cost_model = arg != "off";
      std::printf("cost model = %s\n", arg != "off" ? "on" : "off");
    } else if (cmd == ".h1") {
      options_.heuristic1_join_pushdown = arg != "off";
      std::printf("heuristic 1 = %s\n", arg != "off" ? "on" : "off");
    } else if (cmd == ".h2") {
      options_.heuristic2_filter_placement = arg != "off";
      std::printf("heuristic 2 = %s\n", arg != "off" ? "on" : "off");
    } else if (cmd == ".sources") {
      for (const auto& [id, db] : lake_->databases) {
        std::printf("  %-12s %s (%zu tables)\n", id.c_str(),
                    lake_->stores.count(id) > 0 ? "RDF" : "RDB",
                    db->catalog().num_tables());
      }
    } else if (cmd == ".molecules") {
      for (const auto& [cls, m] : lake_->engine->catalog().molecules()) {
        std::printf("  %-55s %zu predicates\n", cls.c_str(),
                    m.predicates.size());
      }
    } else if (cmd == ".queries") {
      for (const lslod::BenchmarkQuery& q : lslod::BenchmarkQueries()) {
        std::printf("  %s: %s\n", q.id.c_str(), q.description.c_str());
      }
      std::printf("  FIG1: %s\n",
                  lslod::MotivatingExampleQuery().description.c_str());
    } else if (cmd == ".run") {
      const lslod::BenchmarkQuery* q = lslod::FindQuery(arg);
      if (q == nullptr) {
        std::printf("unknown query '%s' (try .queries)\n", arg.c_str());
      } else {
        std::printf("%s\n", q->sparql.c_str());
        Execute(q->sparql);
      }
    } else if (cmd == ".stats") {
      std::printf("%s", last_stats_.empty() ? "(no execution yet)\n"
                                            : last_stats_.c_str());
    } else if (cmd == ".faults") {
      if (arg.empty()) {
        if (options_.faults.empty()) {
          std::printf("no fault profiles (network healthy)\n");
        }
        for (const auto& [source, profile] : options_.faults) {
          std::printf("  %-12s %s\n", source.c_str(),
                      profile.ToString().c_str());
        }
      } else if (arg == "clear") {
        options_.faults.clear();
        lake_->engine->breakers()->Reset();
        std::printf("fault profiles cleared; circuit breakers reset\n");
      } else {
        // `.faults <source> <spec...>` — everything after the source name
        // is the fault spec.
        std::string rest(TrimWhitespace(line.substr(cmd.size())));
        std::string spec(TrimWhitespace(rest.substr(arg.size())));
        auto profile = net::ParseFaultProfile(spec);
        if (!profile.ok()) {
          std::printf("error: %s\n", profile.status().ToString().c_str());
        } else if (lake_->engine->wrapper(arg) == nullptr) {
          std::printf("unknown source '%s' (try .sources)\n", arg.c_str());
        } else {
          options_.faults[arg] = *profile;
          std::printf("  %-12s %s\n", arg.c_str(),
                      profile->ToString().c_str());
        }
      }
    } else if (cmd == ".retry") {
      if (arg.empty()) {
        if (!options_.retry.enabled()) {
          std::printf("retry = off (single attempt)\n");
        } else {
          std::printf("retry = %d attempts, backoff %.1f..%.1f ms x%.1f, "
                      "attempt timeout %.1f ms\n",
                      options_.retry.max_attempts,
                      options_.retry.initial_backoff_ms,
                      options_.retry.max_backoff_ms,
                      options_.retry.backoff_multiplier,
                      options_.retry.attempt_timeout_ms);
        }
      } else if (arg == "off") {
        options_.retry = RetryPolicy();
        std::printf("retry = off (single attempt)\n");
      } else {
        int attempts = std::atoi(arg.c_str());
        if (attempts < 1) {
          std::printf("usage: .retry <attempts> [timeout_ms] | off\n");
          return true;
        }
        options_.retry.max_attempts = attempts;
        std::string timeout;
        if (in >> timeout) {
          options_.retry.attempt_timeout_ms = std::atof(timeout.c_str());
        }
        std::printf("retry = %d attempts, attempt timeout %.1f ms\n",
                    options_.retry.max_attempts,
                    options_.retry.attempt_timeout_ms);
      }
    } else if (cmd == ".hedge") {
      if (arg.empty()) {
        if (!options_.hedge.enabled) {
          std::printf("hedge = off\n");
        } else {
          std::printf("hedge = on: delay %.1fx p%.0f (fallback %.1f ms, "
                      "floor %.1f ms), budget %d/query %d/source\n",
                      options_.hedge.multiplier,
                      options_.hedge.quantile * 100,
                      options_.hedge.fallback_delay_ms,
                      options_.hedge.min_delay_ms,
                      options_.hedge.max_per_query,
                      options_.hedge.max_per_source);
        }
      } else if (arg == "off") {
        options_.hedge = fed::PlanOptions::HedgeConfig();
        std::printf("hedge = off\n");
      } else if (arg == "on") {
        options_.hedge.enabled = true;
        std::string delay;
        if (in >> delay) {
          options_.hedge.fallback_delay_ms = std::atof(delay.c_str());
        }
        std::printf("hedge = on (fallback delay %.1f ms; p%.0f-driven once "
                    "%llu samples accrue)\n",
                    options_.hedge.fallback_delay_ms,
                    options_.hedge.quantile * 100,
                    static_cast<unsigned long long>(
                        options_.hedge.min_samples));
      } else {
        std::printf("usage: .hedge [on [delay_ms] | off]\n");
      }
    } else if (cmd == ".timeouts") {
      if (arg == "on") {
        options_.adaptive_timeout.enabled = true;
        std::printf("adaptive timeouts = on (%.1fx p%.0f, floor %.1f ms, "
                    "after %llu samples)\n",
                    options_.adaptive_timeout.multiplier,
                    options_.adaptive_timeout.quantile * 100,
                    options_.adaptive_timeout.floor_ms,
                    static_cast<unsigned long long>(
                        options_.adaptive_timeout.min_samples));
      } else if (arg == "off") {
        options_.adaptive_timeout = fed::PlanOptions::AdaptiveTimeoutConfig();
        std::printf("adaptive timeouts = off\n");
      } else if (!arg.empty()) {
        std::printf("usage: .timeouts [on|off]\n");
      } else {
        std::printf("adaptive timeouts = %s\n",
                    options_.adaptive_timeout.enabled ? "on" : "off");
        auto snapshot = lake_->engine->latency()->Snapshot();
        if (snapshot.empty()) {
          std::printf("no latency samples yet (run a query first)\n");
        } else {
          std::printf("  %-12s %8s %10s %10s %10s\n", "source", "samples",
                      "p50_ms", "p95_ms", "p99_ms");
          for (const auto& [source, q] : snapshot) {
            std::printf("  %-12s %8llu %10.2f %10.2f %10.2f\n",
                        source.c_str(),
                        static_cast<unsigned long long>(q.samples), q.p50,
                        q.p95, q.p99);
          }
        }
      }
    } else if (cmd == ".failmode") {
      if (arg == "besteffort" || arg == "best-effort") {
        options_.failure_mode = fed::FailureMode::kBestEffort;
      } else if (arg == "failfast" || arg == "fail-fast") {
        options_.failure_mode = fed::FailureMode::kFailFast;
      } else {
        std::printf("usage: .failmode failfast|besteffort\n");
        return true;
      }
      std::printf("failure mode = %s\n",
                  fed::FailureModeToString(options_.failure_mode).c_str());
    } else if (cmd == ".pool") {
      // `.pool <n>` routes executions through the multi-tenant service on
      // an n-worker shared pool; `.pool off` reverts to direct engine
      // sessions on the engine's own pool; bare `.pool` shows the state.
      if (arg == "off" || arg == "0") {
        pool_on_ = false;
        // Keep the service alive if it hosts the monitoring endpoint;
        // queries just stop routing through it.
        if (service_ != nullptr && !service_->monitoring()) service_.reset();
      } else if (!arg.empty()) {
        char* end = nullptr;
        const long n = std::strtol(arg.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || n < 1) {
          std::printf("usage: .pool <workers>|off\n");
          return true;
        }
        // Re-creating the service re-binds a running monitor to it.
        const bool was_monitoring =
            service_ != nullptr && service_->monitoring();
        const uint16_t monitor_port =
            was_monitoring ? service_->monitor_port() : 0;
        service_.reset();
        svc::ServiceConfig config;
        config.scheduler.workers = static_cast<size_t>(n);
        service_ = std::make_unique<svc::QueryService>(lake_->engine.get(),
                                                       config);
        pool_on_ = true;
        if (was_monitoring) {
          Status restarted = service_->StartMonitoring(monitor_port);
          if (!restarted.ok()) {
            std::printf("warning: monitor did not restart: %s\n",
                        restarted.ToString().c_str());
          }
        }
      }
      if (!pool_on_ || service_ == nullptr) {
        std::printf("pool = off (direct sessions on the engine's default "
                    "pool)\n");
      } else {
        std::printf("pool = %zu workers, %zu I/O threads, %zu run slots "
                    "(tenant '%s')\n",
                    service_->scheduler()->num_workers(),
                    service_->scheduler()->num_io_threads(),
                    service_->run_slots(), tenant_.c_str());
      }
    } else if (cmd == ".tenants") {
      if (service_ == nullptr) {
        std::printf("no pool (enable with .pool <workers>)\n");
        return true;
      }
      auto tenants = service_->Tenants();
      if (tenants.empty()) std::printf("no tenant activity yet\n");
      for (const auto& [tenant, info] : tenants) {
        std::printf("  %-12s %zu running, %zu queued, %zu completed, "
                    "quota %s\n",
                    tenant.c_str(), info.running, info.queued, info.completed,
                    info.quota == 0 ? "unlimited"
                                    : std::to_string(info.quota).c_str());
      }
      const svc::QueryService::Stats stats = service_->stats();
      std::printf("service: %llu admitted, %llu shed, %llu expired, "
                  "%llu degraded, %llu completed, %llu errors\n",
                  static_cast<unsigned long long>(stats.admitted),
                  static_cast<unsigned long long>(stats.shed),
                  static_cast<unsigned long long>(stats.expired),
                  static_cast<unsigned long long>(stats.degraded),
                  static_cast<unsigned long long>(stats.completed),
                  static_cast<unsigned long long>(stats.errors));
    } else if (cmd == ".breakers") {
      auto snapshot = lake_->engine->breakers()->Snapshot();
      if (snapshot.empty()) {
        std::printf("no circuit breaker activity yet\n");
      }
      for (const auto& entry : snapshot) {
        std::printf("  %-12s %-9s %llu consecutive, %llu total failures, "
                    "%llu rejected\n",
                    entry.source_id.c_str(),
                    fed::BreakerStateToString(entry.state).c_str(),
                    static_cast<unsigned long long>(
                        entry.consecutive_failures),
                    static_cast<unsigned long long>(entry.total_failures),
                    static_cast<unsigned long long>(
                        entry.rejected_requests));
      }
    } else if (cmd == ".metrics") {
      obs::MetricsSnapshot snapshot = lake_->engine->MetricsSnapshot();
      if (snapshot.empty()) {
        std::printf("no metrics yet (run a query first)\n");
      } else if (arg == "json") {
        std::printf("%s\n", snapshot.ToJson().c_str());
      } else {
        std::printf("%s", snapshot.ToText().c_str());
      }
    } else if (cmd == ".spans") {
      // `.spans <query id or SPARQL>` — run the query through a session
      // and print its span tree.
      std::string rest(TrimWhitespace(line.substr(cmd.size())));
      if (rest.empty()) {
        std::printf("usage: .spans <query id or SPARQL>\n");
        return true;
      }
      const lslod::BenchmarkQuery* q = lslod::FindQuery(rest);
      const std::string& sparql = q != nullptr ? q->sparql : rest;
      auto stream = lake_->engine->CreateSession(
          fed::QueryRequest::Text(sparql, options_));
      if (!stream.ok()) {
        std::printf("error: %s\n", stream.status().ToString().c_str());
        return true;
      }
      auto answer = (*stream)->Drain();
      if (!answer.ok()) {
        std::printf("error: %s\n", answer.status().ToString().c_str());
        return true;
      }
      const obs::SpanRecorder* spans = (*stream)->spans();
      if (spans == nullptr) {
        std::printf("span collection is off\n");
      } else {
        if (spans->dropped() > 0) {
          std::printf("WARNING: %llu span(s) dropped (recorder full) — the "
                      "tree below is truncated\n",
                      static_cast<unsigned long long>(spans->dropped()));
        }
        std::printf("%s", spans->ToText().c_str());
      }
      std::printf("%zu answer(s)\n", answer->rows.size());
      last_stats_ = answer->OperatorStatsText();
    } else if (cmd == ".profile") {
      // `.profile <query id or SPARQL>` — EXPLAIN ANALYZE through a
      // session, with cost-model planning forced on so every operator has
      // an estimate to compare against.
      std::string rest(TrimWhitespace(line.substr(cmd.size())));
      if (rest.empty()) {
        std::printf("usage: .profile <query id or SPARQL>\n");
        return true;
      }
      const lslod::BenchmarkQuery* q = lslod::FindQuery(rest);
      const std::string& sparql = q != nullptr ? q->sparql : rest;
      fed::PlanOptions opts = options_;
      opts.use_cost_model = true;
      opts.collect_metrics = true;
      auto stream = lake_->engine->CreateSession(
          fed::QueryRequest::Text(sparql, opts));
      if (!stream.ok()) {
        std::printf("error: %s\n", stream.status().ToString().c_str());
        return true;
      }
      auto answer = (*stream)->Drain();
      if (!answer.ok()) {
        std::printf("error: %s\n", answer.status().ToString().c_str());
      }
      // Failed or cancelled runs still have a profile (partial work,
      // terminal status inside).
      std::printf("%s", (*stream)->profile().ToText().c_str());
      if (answer.ok()) last_stats_ = answer->OperatorStatsText();
    } else if (cmd == ".trace") {
      // `.trace <query id or SPARQL> <file>` — the last token is the
      // output path, everything before it the query.
      std::string rest(TrimWhitespace(line.substr(cmd.size())));
      size_t sep = rest.find_last_of(" \t");
      if (rest.empty() || sep == std::string::npos) {
        std::printf("usage: .trace <query id or SPARQL> <file>\n");
        return true;
      }
      std::string path(TrimWhitespace(rest.substr(sep)));
      std::string text(TrimWhitespace(rest.substr(0, sep)));
      const lslod::BenchmarkQuery* q = lslod::FindQuery(text);
      const std::string& sparql = q != nullptr ? q->sparql : text;
      auto stream = lake_->engine->CreateSession(
          fed::QueryRequest::Text(sparql, options_));
      if (!stream.ok()) {
        std::printf("error: %s\n", stream.status().ToString().c_str());
        return true;
      }
      auto answer = (*stream)->Drain();
      if (!answer.ok()) {
        std::printf("error: %s\n", answer.status().ToString().c_str());
        return true;
      }
      const obs::SpanRecorder* spans = (*stream)->spans();
      if (spans == nullptr) {
        std::printf("span collection is off\n");
        return true;
      }
      Status st = obs::WriteChromeTrace(*spans, path);
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        return true;
      }
      std::printf("wrote %zu span(s) to %s — open in chrome://tracing or "
                  "ui.perfetto.dev\n",
                  spans->Snapshot().size(), path.c_str());
      last_stats_ = answer->OperatorStatsText();
    } else if (cmd == ".cache") {
      if (arg == "on" || arg == "off") {
        const bool on = arg == "on";
        options_.plan_cache = on;
        options_.answer_cache = on;
        std::printf("plan + sub-answer caching = %s\n", on ? "on" : "off");
      } else if (arg == "clear") {
        lake_->engine->plan_cache()->Clear();
        lake_->engine->answer_cache()->Clear();
        std::printf("caches cleared\n");
      } else if (!arg.empty()) {
        std::printf("usage: .cache [on|off|clear]\n");
      } else {
        std::printf("caching = %s\n",
                    options_.plan_cache ? "on" : "off");
        auto print = [](const char* name, const fed::CacheStats& s) {
          std::printf(
              "  %-12s %llu hits  %llu misses  %llu inserts  %llu "
              "evictions  %llu invalidations  (%llu entries, %llu bytes)\n",
              name, static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses),
              static_cast<unsigned long long>(s.inserts),
              static_cast<unsigned long long>(s.evictions),
              static_cast<unsigned long long>(s.invalidations),
              static_cast<unsigned long long>(s.entries),
              static_cast<unsigned long long>(s.bytes));
        };
        print("plans", lake_->engine->plan_cache()->plan_stats());
        print("parsed", lake_->engine->plan_cache()->parsed_stats());
        print("sub-answers", lake_->engine->answer_cache()->stats());
      }
    } else if (cmd == ".fingerprint") {
      std::string rest(TrimWhitespace(line.substr(cmd.size())));
      if (rest.empty()) {
        std::printf("usage: .fingerprint <query id or SPARQL>\n");
        return true;
      }
      const lslod::BenchmarkQuery* q = lslod::FindQuery(rest);
      const std::string& sparql = q != nullptr ? q->sparql : rest;
      auto parsed = sparql::ParseSparql(sparql);
      if (!parsed.ok()) {
        std::printf("parse error: %s\n", parsed.status().ToString().c_str());
        return true;
      }
      std::printf("%s",
                  fed::FingerprintQuery(*parsed, options_).ToText().c_str());
    } else if (cmd == ".monitor") {
      if (arg == "off") {
        if (service_ != nullptr) service_->StopMonitoring();
        if (!pool_on_) service_.reset();  // existed only for the monitor
        std::printf("monitoring off\n");
      } else if (!arg.empty()) {
        char* end = nullptr;
        const long port = std::strtol(arg.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
          std::printf("usage: .monitor <port>|off (port 0 = ephemeral)\n");
          return true;
        }
        // Arm the flight recorder before binding, so /queryz serves it.
        lake_->engine->EnableQueryLog();
        if (service_ == nullptr) {
          // The exporter lives on the query service; host it on a default
          // pool without routing queries through it (that stays `.pool`).
          service_ = std::make_unique<svc::QueryService>(lake_->engine.get(),
                                                         svc::ServiceConfig{});
        }
        Status started =
            service_->StartMonitoring(static_cast<uint16_t>(port));
        if (!started.ok()) {
          std::printf("error: %s\n", started.ToString().c_str());
          return true;
        }
        std::printf("monitoring on http://127.0.0.1:%u "
                    "(/metrics /healthz /statusz /queryz)\n",
                    service_->monitor_port());
      } else if (service_ != nullptr && service_->monitoring()) {
        std::printf("monitoring on http://127.0.0.1:%u\n",
                    service_->monitor_port());
      } else {
        std::printf("monitoring off (start with .monitor <port>)\n");
      }
    } else if (cmd == ".sys") {
      if (meta_ == nullptr) {
        std::printf("meta-source unavailable\n");
        return true;
      }
      if (arg.empty()) {
        std::printf("sys tables:");
        for (const std::string& table : fed::MetaSource::Tables()) {
          std::printf(" %s", table.c_str());
        }
        std::printf("\nprint one with .sys <table>; query them in SPARQL "
                    "via the <%s> vocabulary\n",
                    fed::kSysNamespace);
      } else {
        std::printf("%s", meta_->RenderTable(arg).c_str());
      }
    } else if (cmd == ".queryz") {
      if (arg == "on") {
        lake_->engine->EnableQueryLog();
        std::printf("query log on (slow threshold %.0f ms, capacity %zu)\n",
                    lake_->engine->query_log()->config().slow_ms,
                    lake_->engine->query_log()->config().capacity);
        return true;
      }
      const obs::QueryLog* log = lake_->engine->query_log();
      if (log == nullptr) {
        std::printf(
            "query log off (arm with .queryz on or .monitor <port>)\n");
        return true;
      }
      size_t n = 10;
      if (!arg.empty()) {
        char* end = nullptr;
        const unsigned long parsed = std::strtoul(arg.c_str(), &end, 10);
        if (end == nullptr || *end != '\0') {
          std::printf("usage: .queryz [n|on]\n");
          return true;
        }
        n = static_cast<size_t>(parsed);
      }
      const std::string jsonl = log->ToJsonl(n);
      if (jsonl.empty()) {
        std::printf("query log empty (%llu recorded so far)\n",
                    static_cast<unsigned long long>(log->total_recorded()));
      } else {
        std::printf("%s", jsonl.c_str());
      }
    } else if (cmd == ".sql") {
      for (const auto& [id, db] : lake_->databases) {
        auto* w = dynamic_cast<wrapper::SqlWrapper*>(lake_->engine->wrapper(id));
        if (w != nullptr && !w->last_sql().empty()) {
          std::printf("  %-12s %s\n", id.c_str(), w->last_sql().c_str());
        }
      }
    } else {
      std::printf("unknown command %s (try .help)\n", cmd.c_str());
    }
    return true;
  }

  int Run() {
    std::printf(
        "LakeFed shell — %zu sources ready. SPARQL + empty line to run; "
        ".help for commands.\n",
        lake_->engine->num_sources());
    std::string buffer;
    std::string line;
    while (true) {
      std::printf(buffer.empty() ? "lakefed> " : "      -> ");
      std::fflush(stdout);
      if (!std::getline(std::cin, line)) break;
      std::string_view trimmed = TrimWhitespace(line);
      if (buffer.empty() && !trimmed.empty() && trimmed[0] == '.') {
        if (!Command(std::string(trimmed))) break;
        continue;
      }
      if (trimmed.empty()) {
        if (!buffer.empty()) {
          Execute(buffer);
          buffer.clear();
        }
        continue;
      }
      buffer += line;
      buffer += '\n';
    }
    if (!buffer.empty()) Execute(buffer);  // trailing query without newline
    std::printf("\n");
    return 0;
  }

 private:
  lslod::DataLake* lake_;
  fed::PlanOptions options_;
  bool explain_ = false;
  std::string last_stats_;
  // Pool mode (.pool <n>): executions go through the multi-tenant service.
  // The service can also exist with pool_on_ = false, purely to host the
  // monitoring endpoint (.monitor without .pool).
  std::unique_ptr<svc::QueryService> service_;
  bool pool_on_ = false;
  std::string tenant_ = "shell";
  // The registered system meta-source (owned by the engine).
  fed::MetaSource* meta_ = nullptr;
};

}  // namespace

int main() {
  lslod::LakeConfig config;
  config.scale = 0.2;
  auto lake = lslod::BuildLake(config);
  if (!lake.ok()) {
    std::fprintf(stderr, "error: %s\n", lake.status().ToString().c_str());
    return 1;
  }
  Shell shell(lake->get());
  return shell.Run();
}
