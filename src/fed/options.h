// Planning/execution options of the federated engine, including the paper's
// two QEP families and per-heuristic toggles for ablations.

#ifndef LAKEFED_FED_OPTIONS_H_
#define LAKEFED_FED_OPTIONS_H_

#include <cstdint>
#include <optional>

#include "common/retry.h"
#include "common/status.h"
#include "fed/decomposer.h"
#include "fed/row_batch.h"
#include "fed/subquery.h"
#include "net/fault.h"
#include "net/network.h"

namespace lakefed::stats {
class StatsCatalog;
}  // namespace lakefed::stats

namespace lakefed::obs {
class MetricsRegistry;
class QueryLog;
class SpanRecorder;
}  // namespace lakefed::obs

namespace lakefed::svc {
class Scheduler;
}  // namespace lakefed::svc

namespace lakefed::fed {

class BreakerRegistry;
class LatencyTracker;
class PlanCache;
class SubAnswerCache;

enum class FailureMode {
  // Any unrecoverable source error (after retries and failover) fails the
  // whole query. The default; matches the engine's historic behaviour.
  kFailFast,
  // Unrecoverable sources are dropped from the answer: the query still
  // streams results from the healthy sources and the per-source errors are
  // reported in ExecutionStats (the answer is marked partial).
  kBestEffort,
};

std::string FailureModeToString(FailureMode mode);

enum class PlanMode {
  // Section 3(a): the QEP ignores indexes/normalization; as many operations
  // as possible run at the query-engine level.
  kPhysicalDesignUnaware,
  // Section 3(b): the QEP exploits the physical design via the heuristics.
  kPhysicalDesignAware,
};

std::string PlanModeToString(PlanMode mode);

struct PlanOptions {
  PlanMode mode = PlanMode::kPhysicalDesignAware;

  // Per-heuristic toggles (meaningful in aware mode; used by ablations).
  bool heuristic1_join_pushdown = true;
  bool heuristic2_filter_placement = true;

  // Simulated network; Heuristic 2 compares its mean latency against the
  // threshold to decide whether the network is "slow".
  net::NetworkProfile network = net::NetworkProfile::NoDelay();
  double slow_network_threshold_ms = net::kSlowNetworkThresholdMs;

  // Overrides Heuristic 2 for every relational filter (bench_h2 uses this
  // to study both placements explicitly).
  std::optional<FilterPlacement> force_filter_placement;

  // Use ANAPSID-style dependent (bind) joins instead of symmetric hash
  // joins where the inner side's join attribute is indexed.
  bool use_dependent_join = false;

  // Seed for the network delay sampling.
  uint64_t seed = 42;

  // Star-shaped (the paper) or triple-based (its future work) query
  // decomposition.
  DecompositionKind decomposition = DecompositionKind::kStarShaped;

  // Rows per morsel in the batched operator exchange (queue transfers,
  // wrapper emit, network accounting). 1 reproduces the legacy
  // row-at-a-time dataflow for A/B measurement; the answer multiset is
  // identical at every size, only the transfer granularity changes.
  // Validate() rejects 0.
  size_t batch_size = kDefaultBatchSize;

  // Emulates Ontario's *unoptimized* SPARQL-to-SQL translation for merged
  // sub-queries (the limitation Section 3 reports): instead of one SQL
  // join, each star is fetched separately and joined naively inside the
  // wrapper. Used to reproduce the "pushing down the join increases the
  // execution time" negative result.
  bool naive_sql_translation = false;

  // Cost-based planning (stats subsystem). Off by default so plans stay
  // bit-identical to the heuristic-only planner. When on, the planner uses
  // `stats_catalog` (not owned; FederatedEngine fills it in automatically
  // from its analyzed sources when left null) to estimate SSQ cardinalities,
  // order the join tree by ascending estimated size, and arbitrate the
  // heuristics when estimates and index rules disagree. Finished executions
  // fold actual operator cardinalities back into the catalog.
  bool use_cost_model = false;
  stats::StatsCatalog* stats_catalog = nullptr;

  // ---- Fault tolerance ------------------------------------------------
  // All defaults leave the engine on the exact historic code path: no
  // retries, fail-fast, no injected faults, no breaker consultation.

  // What to do when a source is unrecoverable (retries and failover
  // exhausted).
  FailureMode failure_mode = FailureMode::kFailFast;

  // Retry policy for source sub-queries. Disabled (max_attempts = 1) by
  // default. Backoff jitter draws from a per-leaf RNG derived from `seed`,
  // so fault runs are reproducible.
  RetryPolicy retry;

  // Deterministic fault injection: source id -> fault profile. Injectors
  // are seeded from `seed`, so the same plan + seed + faults yields the
  // same fault schedule. Empty = healthy network.
  net::FaultPlan faults;

  // Per-source circuit breakers (not owned). FederatedEngine fills in its
  // registry automatically when left null; executions report outcomes and
  // the planner routes around sources whose breaker is open.
  BreakerRegistry* breakers = nullptr;

  // ---- Tail tolerance -------------------------------------------------
  // Defenses against sources that are slow rather than down. Both are off
  // by default (the fault-free path stays bit-identical); both read the
  // shared per-source LatencyTracker below.

  // Adaptive per-attempt timeouts: when enabled and the tracker holds at
  // least `min_samples` observations for a source, each attempt's timeout
  // becomes max(floor_ms, multiplier * quantile(quantile)) instead of the
  // static retry.attempt_timeout_ms (the fallback while samples are
  // scarce). Either way the timeout is clamped to the session's remaining
  // deadline.
  struct AdaptiveTimeoutConfig {
    bool enabled = false;
    double quantile = 0.99;
    double multiplier = 3.0;
    double floor_ms = 10.0;
    uint64_t min_samples = 20;
  };
  AdaptiveTimeoutConfig adaptive_timeout;

  // Hedged leaf execution: when a leaf's primary attempt has run longer
  // than its hedge delay — multiplier * quantile(quantile) of the primary
  // source once `min_samples` observations exist, else fallback_delay_ms,
  // never below min_delay_ms — and the planner recorded failover replicas,
  // the same sub-query is speculatively launched against the first replica;
  // the first completed attempt wins and the loser is cancelled. Budgets
  // cap speculation: max_per_query hedges per execution (0 = never hedge)
  // and max_per_source in-flight+spent hedges against one replica, so
  // hedging cannot melt down an already-overloaded source.
  struct HedgeConfig {
    bool enabled = false;
    double quantile = 0.95;
    double multiplier = 1.0;
    double min_delay_ms = 1.0;
    double fallback_delay_ms = 50.0;
    uint64_t min_samples = 20;
    int max_per_query = 4;
    int max_per_source = 2;
  };
  HedgeConfig hedge;

  // Per-source latency quantiles feeding the two features above (not
  // owned). FederatedEngine fills in its tracker automatically when left
  // null, so observations accumulate across sessions; executions record
  // every wrapper call's duration into it.
  LatencyTracker* latency = nullptr;

  // ---- Plan & sub-answer caching --------------------------------------
  // Both levels are off by default and the off path is bit-identical to an
  // engine without the cache layer: no fingerprinting, no lookups, no
  // extra metrics or spans.

  // Reuse parsed queries and planned QEPs across sessions keyed by the
  // normalized query fingerprint (fed/fingerprint.h), invalidated by the
  // stats / routing epochs. The engine supplies its shared PlanCache via
  // `plans` when left null.
  bool plan_cache = false;

  // Reuse leaf sub-query results keyed by the sub-query stats key and the
  // source's data version: hits replay rows into the dataflow without a
  // wrapper call (no DelayChannel transfer). The engine supplies its shared
  // SubAnswerCache via `answers` when left null.
  bool answer_cache = false;

  // Shared cache instances (not owned). FederatedEngine fills these in
  // automatically when the corresponding flag is on and the pointer was
  // left null, so entries are shared across every session of the engine.
  PlanCache* plans = nullptr;
  SubAnswerCache* answers = nullptr;

  // Accounting scope for cache quotas — the query service sets this to the
  // tenant id, so per-tenant byte quotas (ServiceConfig::tenant_cache_quota)
  // bound how much of the shared caches one tenant can occupy. Empty =
  // unscoped.
  std::string cache_scope;

  // ---- Observability --------------------------------------------------
  // Metrics and span collection (src/obs). Default on: sessions record
  // latency histograms, per-operator/wrapper/transfer spans, the execution
  // counters and per-operator queue instrumentation (blocking-wait
  // histograms plus occupancy samples on every operator's output queue,
  // feeding ResultStream::profile()) into one registry. Off skips every
  // histogram, span and queue observer on the hot path (scalar accounting
  // needed by ExecutionStats is atomic counters either way), leaving
  // near-zero overhead.
  bool collect_metrics = true;

  // Per-query metrics registry (not owned). Sessions own one and fill this
  // in automatically; a PlanExecution run without one records into an
  // execution-local registry instead. Ignored when collect_metrics is
  // false.
  obs::MetricsRegistry* metrics = nullptr;

  // Hierarchical span recorder (not owned; null = no spans). Sessions own
  // one covering parse -> plan -> execute -> wrapper -> network transfer.
  obs::SpanRecorder* spans = nullptr;

  // Span id under which planner/executor spans nest (0 = root). Set by the
  // session to its root span.
  uint64_t parent_span = 0;

  // Structured query log / slow-query flight recorder (not owned; null =
  // no logging, the default). FederatedEngine fills in its own log when
  // one was enabled via EnableQueryLog; every finished session then
  // appends one completion record, capturing the full profile + span tree
  // for slow/partial/error queries.
  obs::QueryLog* query_log = nullptr;

  // Tenant identity for observability (query-log records, sys.queries).
  // The query service sets it for every admitted session; unlike
  // cache_scope it carries no quota semantics and is set regardless of
  // whether caching is on. Empty = not multi-tenant.
  std::string tenant;

  // ---- Scheduling -----------------------------------------------------
  // Worker pool the session's dataflow runs on (not owned; must outlive
  // the session). Every operator is a resumable morsel-driven task on its
  // workers, and blocking wrapper/network legs run on its auxiliary I/O
  // pool, so the thread count is bounded by the pool, not by sessions x
  // operators. Null = the engine's own pool (FederatedEngine creates one
  // with the default Scheduler::Config at the first such session). The
  // query service sets its shared pool for every admitted session.
  svc::Scheduler* scheduler = nullptr;

  // Rejects inconsistent option combinations. Called by the engine at
  // session creation, so invalid options fail fast instead of silently
  // producing nonsensical plans.
  Status Validate() const;
};

}  // namespace lakefed::fed

#endif  // LAKEFED_FED_OPTIONS_H_
