// Execution of federated plans: every operator runs as a resumable task on
// the worker pool named by PlanOptions::scheduler, and every service scan
// as a job on that pool's I/O threads, connected by queues, so answers
// stream to the client as sources deliver them (ANAPSID's adaptive operator
// model). The symmetric hash join produces results as soon as tuples arrive
// from either input — the paper's answer traces (Figure 2) depend on this
// behaviour.
//
// Operators exchange RowBatch morsels (PlanOptions::batch_size rows, see
// fed/row_batch.h) rather than single rows, so queue traffic amortizes;
// batch boundaries carry no meaning and the answer multiset is identical
// at every batch size.
//
// One entry point, PlanExecution: start the dataflow of a whole query's
// plan, then pull batches or have a task collect them, tear down
// cooperatively via a CancellationToken. Every session (fed/session.h) runs
// exactly one; the blocking Execute shims and the query service collect
// a session.

#ifndef LAKEFED_FED_EXECUTOR_H_
#define LAKEFED_FED_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "fed/options.h"
#include "fed/plan.h"
#include "fed/row_batch.h"
#include "fed/trace.h"
#include "fed/wrapper.h"
#include "obs/profile.h"

namespace lakefed::fed {

struct ExecutionStats {
  // Messages retrieved from sources (each passed through the delay channel).
  uint64_t messages_transferred = 0;
  // Total simulated network delay injected, milliseconds.
  double network_delay_ms = 0;
  // Rows received from all sources (the intermediate-result size).
  uint64_t source_rows = 0;

  // Per-source share of the traffic above (keyed by source id).
  std::map<std::string, obs::SourceTraffic> per_source;

  // ---- Fault-tolerance accounting (all zero on fault-free runs) --------
  // Leaf sub-query re-attempts after transient failures (retry policy).
  uint64_t retries = 0;
  // Leaf attempts moved to a failover alternate serving the same molecule.
  uint64_t failovers = 0;
  // Faults fired by configured fault injectors (PlanOptions::faults).
  uint64_t faults_injected = 0;
  // Requests refused because a source's circuit breaker was open.
  uint64_t breaker_rejections = 0;
  // ---- Tail-tolerance accounting (all zero unless hedging / adaptive
  // timeouts are enabled) ------------------------------------------------
  // Speculative replica attempts launched because the primary ran past its
  // hedge delay.
  uint64_t hedges_fired = 0;
  // Hedges that finished first and supplied the leaf's rows.
  uint64_t hedge_wins = 0;
  // Race losers cancelled mid-flight (either side).
  uint64_t hedges_cancelled = 0;
  // Hedges that would have fired — a leaf with an alternate ran past its
  // hedge delay — but found the per-query or per-source budget exhausted.
  uint64_t hedges_suppressed = 0;
  // Attempts whose timeout came from observed latency quantiles instead of
  // the static retry.attempt_timeout_ms.
  uint64_t adaptive_timeouts = 0;
  // Latency-spike faults fired by configured injectors (slow profile).
  uint64_t latency_spikes_injected = 0;
  // ---- Reuse accounting (all zero unless PlanOptions::answer_cache) ----
  // Leaf sub-queries answered from the sub-answer cache: no wrapper call,
  // no simulated network traffic, rows replayed from memory.
  uint64_t sub_answer_hits = 0;
  // Leaf sub-queries that consulted the cache and fell through to a real
  // execution (memoizing the rows on clean completion).
  uint64_t sub_answer_misses = 0;
  // Sources that exhausted their retries during this execution, keyed by
  // source id, with the last error observed. A listed source may still be
  // covered by a failover alternate — `partial` says whether answers were
  // actually lost.
  std::map<std::string, std::string> failed_sources;
  // Ordered human-readable log of recovery actions (retries, failovers,
  // breaker trips) taken during the execution.
  std::vector<std::string> recovery_events;
  // True when best-effort execution dropped an unrecoverable leaf: the
  // answer is missing that leaf's contribution.
  bool partial = false;
};

struct QueryAnswer {
  std::vector<std::string> variables;
  std::vector<rdf::Binding> rows;
  AnswerTrace trace;
  ExecutionStats stats;
  std::string plan_text;
  // One record per plan operator, in spawn order: label, source, rows
  // emitted and the planner's estimate (-1 = none) always; wall time,
  // output-queue waits and occupancy when PlanOptions::collect_metrics is
  // on (wall_ms = -1 otherwise).
  std::vector<obs::OperatorRuntime> operator_runtime;
  // Stable-JSON rendering of the query's metrics registry (src/obs):
  // counters, gauges and latency histograms with p50/p95/p99. Empty when
  // PlanOptions::collect_metrics is off.
  std::string metrics_json;

  // Multi-line "rows  operator" rendering of operator_runtime (with
  // estimates when present) followed by the per-source traffic breakdown.
  std::string OperatorStatsText() const;
};

// A live, incremental execution of one federated plan: Start() registers
// the operator tasks and leaf jobs on PlanOptions::scheduler (required),
// NextBatch() pulls rows from the root queue as they are produced, Finish()
// tears everything down and reports the terminal status. Cancelling the
// token, its deadline expiring or the first wrapper/operator error closes
// every queue of the dataflow, so parked tasks, blocked consumers and
// mid-delay network transfers unwind promptly instead of draining.
class PlanExecution {
 public:
  PlanExecution(const std::map<std::string, SourceWrapper*>& wrappers,
                const PlanOptions& options, CancellationToken token);
  ~PlanExecution();  // equivalent to Finish()

  PlanExecution(const PlanExecution&) = delete;
  PlanExecution& operator=(const PlanExecution&) = delete;

  // Starts the dataflow for `plan`. Call exactly once, before NextBatch().
  void Start(const FederatedPlan& plan);

  // Blocks for the next morsel of root rows (the pull API).
  // Returns true with at least one row in `batch`; false means
  // end-of-stream: completion, error, cancellation or deadline expiry —
  // Finish() discriminates.
  bool NextBatch(RowBatch* batch);

  // The push API: a task on the scheduler moves every further root morsel
  // into `sink` as it arrives, and once every task and I/O job of the
  // dataflow has finished, `on_done` runs once on a scheduler worker —
  // never inside one of the dataflow's own steps — where Finish() no
  // longer blocks. Call at most once, after Start(); NextBatch() may not
  // be called afterwards. `sink` runs on workers, one morsel at a time.
  void Collect(std::function<void(std::vector<rdf::Binding>&&)> sink,
               std::function<void()> on_done);

  // Closes all queues, waits for every task and I/O job of the dataflow
  // and freezes the statistics.
  // Idempotent. Returns the first wrapper/operator error if any, otherwise
  // the token's status (kCancelled / kDeadlineExceeded), otherwise OK.
  Status Finish();

  // Valid after Finish(). Partial results of a cancelled or expired run are
  // reported faithfully (stats cover the work actually performed).
  const ExecutionStats& stats() const;
  // One record per operator, in spawn order (see
  // QueryAnswer::operator_runtime).
  const std::vector<obs::OperatorRuntime>& operator_runtime() const;
  // Timestamped recovery events (retries, failovers, breaker trips),
  // seconds since the execution was created. Empty on fault-free runs.
  const std::vector<AnswerTrace::Event>& trace_events() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace lakefed::fed

#endif  // LAKEFED_FED_EXECUTOR_H_
