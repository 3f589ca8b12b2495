// Streaming query sessions: the incremental, cancellable form of the
// engine's API. A QueryRequest (text or pre-parsed query + options +
// optional deadline) becomes a ResultStream via
// FederatedEngine::CreateSession; the stream yields solution mappings as
// the sources deliver them, can be cancelled at any time from any thread,
// and reports the terminal Status plus the execution's AnswerTrace,
// ExecutionStats and per-operator records once finished.
//
// Relationship to the blocking API: FederatedEngine::Execute and
// ExecuteParsed are thin shims that create a session and Drain() it, so a
// QueryAnswer is exactly "a fully consumed ResultStream".

#ifndef LAKEFED_FED_SESSION_H_
#define LAKEFED_FED_SESSION_H_

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "fed/executor.h"
#include "fed/options.h"
#include "mapping/rdf_mt.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/span.h"
#include "sparql/ast.h"

namespace lakefed::fed {

// Everything needed to start one query session. Either `parsed` (takes
// precedence) or `query` (SPARQL text, parsed at session creation) supplies
// the query. `timeout`, when set, becomes a deadline on the session's
// cancellation token: past it the stream terminates with kDeadlineExceeded,
// tearing down all source scans.
struct QueryRequest {
  std::string query;
  std::optional<sparql::SelectQuery> parsed;
  PlanOptions options;
  std::optional<std::chrono::milliseconds> timeout;

  static QueryRequest Text(std::string sparql, PlanOptions options = {}) {
    QueryRequest request;
    request.query = std::move(sparql);
    request.options = std::move(options);
    return request;
  }
  static QueryRequest Parsed(sparql::SelectQuery query,
                             PlanOptions options = {}) {
    QueryRequest request;
    request.parsed = std::move(query);
    request.options = std::move(options);
    return request;
  }
};

// A live query execution. Created by FederatedEngine::CreateSession; the
// dataflow (operator tasks and leaf jobs) is already running when the
// stream is handed out, so Next() simply pulls from the plan's root queue.
//
// Every query runs one way: one plan for the whole query (UNION branches
// under one Union operator, aggregates in an Aggregate operator, the
// solution modifiers on top) executed by one PlanExecution. UNION branches
// run concurrently; blocking operators (ORDER BY, aggregates) hold their
// output back until their input is complete, and a LIMIT cancels the
// upstream work it no longer needs.
//
// Threading: Next(), Finish() and Drain() belong to one consumer thread;
// Cancel() may be called concurrently from any thread. trace()/stats()/
// operator_runtime() are stable once Finish() returned.
class ResultStream {
 public:
  ~ResultStream();  // cancels if not fully consumed, waits for the dataflow

  ResultStream(const ResultStream&) = delete;
  ResultStream& operator=(const ResultStream&) = delete;

  // Pulls the next morsel of solution mappings into `*batch` (the primary
  // pull API: up to PlanOptions::batch_size rows that became available
  // together). Blocks until at least one row is available. Returns false at
  // end-of-stream — completion, error, cancellation or deadline expiry;
  // Finish() discriminates.
  bool NextBatch(RowBatch* batch);

  // Row-at-a-time compatibility shim over NextBatch(): serves rows from an
  // internal pending batch, refilling as needed. May be interleaved freely
  // with NextBatch() (pending rows are served first). Returns false at
  // end-of-stream.
  bool Next(rdf::Binding* row);

  // Requests cooperative cancellation: every queue of the dataflow closes
  // and mid-delay network transfers wake, so source scans unwind promptly.
  // Safe from any thread, idempotent.
  void Cancel();

  // Tears the session down (waiting for every task) and returns the terminal
  // status: OK for a fully drained stream, the first wrapper/operator error,
  // kCancelled after Cancel(), kDeadlineExceeded after an expired deadline.
  // Calling Finish() on a stream that still has rows pending cancels it.
  // Idempotent.
  Status Finish();

  // Convenience: consumes the rest of the stream into a QueryAnswer and
  // Finish()es. The blocking Execute shims are implemented with this.
  Result<QueryAnswer> Drain();

  // Projection of the result rows. Valid from creation.
  const std::vector<std::string>& variables() const { return variables_; }

  // Arrival timestamps of the rows delivered so far (the paper's answer
  // trace); completion_seconds is set once the stream ends.
  const AnswerTrace& trace() const { return trace_; }

  // Source/network statistics of the work actually performed — partial
  // results of a cancelled or expired session are reported faithfully.
  // Complete after Finish().
  const ExecutionStats& stats() const { return stats_; }

  // EXPLAIN text of the executed plan. Valid from creation.
  const std::string& plan_text() const { return plan_text_; }

  // One record per operator, in spawn order: label, source, rows and the
  // planner's estimate always; wall time and queue waits when
  // collect_metrics is on (wall_ms = -1 otherwise). Complete after Finish().
  const std::vector<obs::OperatorRuntime>& operator_runtime() const {
    return operator_runtime_;
  }

  // EXPLAIN ANALYZE of the finished session: operator_runtime(), the
  // per-source traffic of stats() and the session phases of the span tree
  // in one QueryProfile. Call after Finish() (or Drain()); render with
  // ToText() / ToJson().
  obs::QueryProfile profile() const;

  // The session's cancellation token (shared with every operator task).
  CancellationToken token() const { return token_; }

  // The session's span recorder (parse -> plan -> execute -> wrapper ->
  // network transfer), or nullptr when collect_metrics is off. The tree is
  // complete after Finish().
  const obs::SpanRecorder* spans() const { return spans_.get(); }

  // Stable-JSON snapshot of the session's metrics registry; empty string
  // when collect_metrics is off. Complete after Finish().
  const std::string& metrics_json() const { return metrics_json_; }

 private:
  friend class FederatedEngine;

  ResultStream(const mapping::RdfMtCatalog& catalog,
               const std::map<std::string, SourceWrapper*>& wrappers,
               sparql::SelectQuery query, PlanOptions options,
               CancellationToken token);

  // Plans the query and spawns its dataflow. Returns the creation error, if
  // any; called by FederatedEngine::CreateSession. `spans` (may be null)
  // transfers ownership of the session's span recorder with `session_span`
  // as its root; `engine_metrics` (may be null) receives the session's
  // metrics at Finish().
  static Result<std::unique_ptr<ResultStream>> Create(
      const mapping::RdfMtCatalog& catalog,
      const std::map<std::string, SourceWrapper*>& wrappers,
      sparql::SelectQuery query, PlanOptions options, CancellationToken token,
      std::unique_ptr<obs::SpanRecorder> spans = nullptr,
      uint64_t session_span = 0,
      obs::MetricsRegistry* engine_metrics = nullptr);

  // Pulls the next morsel from the execution; at end-of-stream finishes it
  // and records the terminal status.
  bool PullBatch(RowBatch* batch);
  // Plans query_: consults the plan cache first when the session opted in
  // (PlanOptions::plan_cache), else — and on every miss — runs BuildPlan.
  // The returned plan is immutable and possibly shared with concurrent
  // sessions; the session keeps the shared_ptr alive while its dataflow
  // runs (plan_).
  Result<std::shared_ptr<const FederatedPlan>> PlanQuery();
  // Finishes the execution, copies its statistics into the session's and
  // releases it. Returns the execution's terminal status.
  Status FinishExecution();

  const mapping::RdfMtCatalog& catalog_;
  const std::map<std::string, SourceWrapper*>& wrappers_;
  sparql::SelectQuery query_;
  PlanOptions options_;
  CancellationToken token_;

  // Null once finished.
  std::unique_ptr<PlanExecution> execution_;
  // The plan the execution runs on — kept alive here because plan-cache
  // hits share one immutable plan across sessions.
  std::shared_ptr<const FederatedPlan> plan_;
  Stopwatch stopwatch_;

  // Pending batch backing the row-at-a-time Next() shim.
  RowBatch shim_pending_;
  size_t shim_pos_ = 0;

  std::vector<std::string> variables_;
  AnswerTrace trace_;
  ExecutionStats stats_;
  std::string plan_text_;
  std::vector<obs::OperatorRuntime> operator_runtime_;

  // Observability: the session owns its metrics registry and span recorder;
  // PlanOptions::metrics/spans point into them for every plan/execution of
  // the session. Both are null when collect_metrics is off.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::SpanRecorder> spans_;
  uint64_t session_span_ = 0;                     // root span id
  obs::MetricsRegistry* engine_metrics_ = nullptr;  // merge target (not owned)
  std::string metrics_json_;

  bool ended_ = false;          // Next() hit end-of-stream
  bool fully_drained_ = false;  // ended by completion, not error/cancel
  bool finished_ = false;       // Finish() ran
  Status status_;
};

}  // namespace lakefed::fed

#endif  // LAKEFED_FED_SESSION_H_
