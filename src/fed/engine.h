// FederatedEngine: the public entry point of LakeFed — the role Ontario
// plays in the paper. Register wrappers for the Data Lake's sources, then
// run SPARQL queries under a chosen plan mode and network profile.
//
// The primary API is session-based: CreateSession(QueryRequest) returns a
// ResultStream that yields solution mappings incrementally, supports
// Cancel() from any thread and honours a per-query deadline. The classic
// blocking calls (Execute / ExecuteParsed) remain as thin shims that create
// a session and drain it.
//
// Plan vs Execute: Plan() is EXPLAIN — it builds the same QEP that a
// session would run (the whole query: every UNION branch, the mediator's
// aggregate and the solution modifiers) without touching the sources. Execute/CreateSession re-plan internally; a plan
// object is never handed back in, so options are the only execution knob.
//
// Concurrency: the engine seals its catalog at the first CreateSession (or
// explicitly via Seal()) — afterwards RegisterSource fails and the catalog
// and wrapper registry are immutable, so any number of sessions may run
// concurrently against one engine. All per-query state lives in the
// session. Wrappers must tolerate concurrent Execute calls (the bundled
// ones do: their stores are read-only at query time).
//
// Execution: every session runs its operators as tasks on a worker pool —
// PlanOptions::scheduler when the caller supplies one (the query service
// does), else the engine's own default-sized pool, created at the first
// such session and destroyed with the engine.

#ifndef LAKEFED_FED_ENGINE_H_
#define LAKEFED_FED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "fed/breaker.h"
#include "fed/cache.h"
#include "fed/executor.h"
#include "fed/latency.h"
#include "fed/options.h"
#include "fed/plan.h"
#include "fed/planner.h"
#include "fed/session.h"
#include "fed/wrapper.h"
#include "mapping/rdf_mt.h"
#include "obs/metrics.h"
#include "obs/querylog.h"
#include "obs/span.h"
#include "stats/analyze.h"
#include "stats/stats_catalog.h"
#include "svc/scheduler.h"

namespace lakefed::fed {

class FederatedEngine {
 public:
  FederatedEngine() = default;
  FederatedEngine(const FederatedEngine&) = delete;
  FederatedEngine& operator=(const FederatedEngine&) = delete;

  // Registers a source; its molecule templates join the engine's RDF-MT
  // catalog (collected once, at registration — like Ontario's offline
  // source-description step). Fails once the engine is sealed.
  Status RegisterSource(std::unique_ptr<SourceWrapper> wrapper);

  // Freezes the source registry/catalog, making the engine safe for
  // concurrent sessions. Implicit in the first CreateSession; idempotent.
  void Seal() const { sealed_.store(true, std::memory_order_release); }
  bool sealed() const { return sealed_.load(std::memory_order_acquire); }

  size_t num_sources() const { return wrappers_.size(); }
  const mapping::RdfMtCatalog& catalog() const { return catalog_; }
  SourceWrapper* wrapper(const std::string& source_id);
  const SourceWrapper* wrapper(const std::string& source_id) const;

  // Profiles every registered source into the engine's statistics catalog
  // — the ANALYZE step of the cost-based planner. Seals the engine.
  // Re-analyzing replaces the catalog but carries the runtime cardinality
  // feedback forward; catalogs already handed to running sessions stay
  // valid (they are retired, not destroyed).
  Status AnalyzeSources(const stats::AnalyzeOptions& options = {}) const;

  // The engine's statistics catalog, or nullptr until AnalyzeSources has
  // run (directly, or lazily through the first cost-model query).
  const stats::StatsCatalog* stats_catalog() const;

  // The engine's per-source circuit breakers: shared across sessions, so a
  // source that kept failing in one query is routed around (and probed) by
  // the next. Sessions receive it via PlanOptions::breakers unless the
  // caller supplied a registry of their own.
  BreakerRegistry* breakers() const { return &breakers_; }

  // The engine's per-source latency tracker: wrapper-call durations from
  // every session accumulate here, feeding adaptive timeouts and hedge
  // delays (PlanOptions::latency, filled in unless the caller supplied a
  // tracker of their own). Rendered by the shell's `.timeouts`.
  LatencyTracker* latency() const { return &latency_; }

  // The engine's shared plan and sub-answer caches (fed/cache.h). Sessions
  // receive them via PlanOptions::plans/answers when the corresponding
  // cache flag is on and no instance was supplied; AnalyzeSources bumps
  // their structural epochs, invalidating everything cached against the
  // previous statistics. Rendered by the shell's `.cache`.
  PlanCache* plan_cache() const { return &plan_cache_; }
  SubAnswerCache* answer_cache() const { return &answer_cache_; }

  // Engine-wide metrics: the aggregate of every finished session's registry
  // (sessions with collect_metrics on) plus session/query counters, plus a
  // projection of the circuit-breaker registry (svc.breaker.<id>.state
  // gauges and transition counters) so breaker state is visible outside the
  // shell's `.breakers`. Cut at any time; rendered by `.metrics`.
  obs::MetricsSnapshot MetricsSnapshot() const;

  // The engine-wide registry itself (thread-safe; outlives every session).
  obs::MetricsRegistry* metrics() const { return &metrics_; }

  // External snapshot contributors: each registered sampler runs inside
  // MetricsSnapshot() and may append series (the monitoring plane uses
  // this to project scheduler queue depths and admission stats into the
  // scrape without the engine depending on svc). The snapshot is re-sorted
  // after samplers run, so contributors need not keep it ordered. Returns
  // a token for RemoveMetricsSampler; samplers must be removed before the
  // state they capture dies.
  using MetricsSampler = std::function<void(obs::MetricsSnapshot*)>;
  uint64_t AddMetricsSampler(MetricsSampler sampler) const;
  void RemoveMetricsSampler(uint64_t token) const;

  // Structured query log / slow-query flight recorder (obs/querylog.h).
  // Off (null) by default — enabling it makes every session append one
  // completion record via PlanOptions::query_log. Idempotent per engine:
  // re-enabling replaces config only while no log exists yet.
  void EnableQueryLog(obs::QueryLogConfig config = {}) const;
  obs::QueryLog* query_log() const;

  // Plans without executing (EXPLAIN).
  Result<FederatedPlan> Plan(const std::string& sparql,
                             const PlanOptions& options) const;

  // Starts one streaming query session: validates request.options, parses
  // request.query (unless request.parsed is given), plans, starts the
  // dataflow on the worker pool and hands back the live stream. Seals the
  // engine.
  Result<std::unique_ptr<ResultStream>> CreateSession(
      QueryRequest request) const;

  // Blocking shim: parses, plans, executes and materializes the full
  // answer — equivalent to CreateSession + ResultStream::Drain. UNION
  // branch combinations run concurrently under one Union operator;
  // aggregates group the merged solutions at the mediator.
  Result<QueryAnswer> Execute(const std::string& sparql,
                              const PlanOptions& options) const;

  // Blocking shim for an already-parsed query.
  Result<QueryAnswer> ExecuteParsed(const sparql::SelectQuery& query,
                                    const PlanOptions& options) const;

 private:
  // Fills options->stats_catalog for cost-model runs, lazily analyzing the
  // sources on the first such query. No-op when the cost model is off or a
  // catalog was supplied explicitly.
  Status PrepareStats(PlanOptions* options) const;

  std::map<std::string, std::unique_ptr<SourceWrapper>> owned_;
  std::map<std::string, SourceWrapper*> wrappers_;
  mapping::RdfMtCatalog catalog_;
  // Set on the first CreateSession; guards the registry against mutation
  // while sessions run (Seal() is const so const engines can host sessions).
  mutable std::atomic<bool> sealed_{false};

  // Statistics catalog (cost-based planning). `retired_stats_` keeps every
  // superseded catalog alive because sessions hold raw pointers into it.
  mutable std::mutex stats_mu_;
  mutable std::unique_ptr<stats::StatsCatalog> stats_;
  mutable std::vector<std::unique_ptr<stats::StatsCatalog>> retired_stats_;

  // Circuit-breaker registry (thread-safe; outlives every session).
  mutable BreakerRegistry breakers_;

  // Per-source latency tracker (thread-safe; outlives every session).
  mutable LatencyTracker latency_;

  // Shared reuse layer (thread-safe; outlives every session). Only
  // sessions that opt in (PlanOptions::plan_cache / answer_cache) touch
  // them, so engines that never enable caching pay nothing.
  mutable PlanCache plan_cache_;
  mutable SubAnswerCache answer_cache_;

  // Engine-wide metrics registry (thread-safe; outlives every session).
  mutable obs::MetricsRegistry metrics_;

  // Snapshot contributors (AddMetricsSampler) and the optional query log.
  mutable std::mutex obs_mu_;
  mutable std::map<uint64_t, MetricsSampler> samplers_;
  mutable uint64_t next_sampler_token_ = 1;
  mutable std::unique_ptr<obs::QueryLog> query_log_;

  // The default worker pool (PlanOptions::scheduler left null), created on
  // first use. Declared last so it is destroyed first, before the wrappers
  // and registries its tasks reach.
  mutable std::once_flag scheduler_once_;
  mutable std::unique_ptr<svc::Scheduler> scheduler_;
};

}  // namespace lakefed::fed

#endif  // LAKEFED_FED_ENGINE_H_
