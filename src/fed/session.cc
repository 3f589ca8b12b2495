#include "fed/session.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <set>

#include "fed/breaker.h"
#include "fed/cache.h"
#include "fed/fingerprint.h"
#include "fed/planner.h"
#include "obs/querylog.h"
#include "sparql/aggregate.h"
#include "sparql/filter_expr.h"
#include "stats/stats_catalog.h"

namespace lakefed::fed {

namespace {

// Short stable digest of a cache key for query-log record identity
// (FNV-1a 64, hex). Repeats of the same normalized query + plan-shaping
// options share a fingerprint, so log records group by query template.
std::string ShortDigest(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// DISTINCT key of `row` projected on `vars`: rdf::AppendTermKey encodings
// behind a byte telling bound from unbound, so equal keys mean equal rows.
std::string ProjectedRowKey(const rdf::Binding& row,
                            const std::vector<std::string>& vars) {
  std::string key;
  for (const std::string& var : vars) {
    auto it = row.find(var);
    key.push_back(it == row.end() ? '\0' : '\1');
    if (it != row.end()) rdf::AppendTermKey(it->second, &key);
  }
  return key;
}

}  // namespace

ResultStream::ResultStream(const mapping::RdfMtCatalog& catalog,
                           const std::map<std::string, SourceWrapper*>& wrappers,
                           sparql::SelectQuery query, PlanOptions options,
                           CancellationToken token)
    : catalog_(catalog),
      wrappers_(wrappers),
      query_(std::move(query)),
      options_(std::move(options)),
      token_(std::move(token)) {}

ResultStream::~ResultStream() { Finish(); }

Result<std::unique_ptr<ResultStream>> ResultStream::Create(
    const mapping::RdfMtCatalog& catalog,
    const std::map<std::string, SourceWrapper*>& wrappers,
    sparql::SelectQuery query, PlanOptions options, CancellationToken token,
    std::unique_ptr<obs::SpanRecorder> spans, uint64_t session_span,
    obs::MetricsRegistry* engine_metrics) {
  std::unique_ptr<ResultStream> stream(
      new ResultStream(catalog, wrappers, std::move(query), std::move(options),
                       std::move(token)));
  stream->spans_ = std::move(spans);
  stream->session_span_ = session_span;
  stream->engine_metrics_ = engine_metrics;
  if (stream->options_.collect_metrics) {
    stream->metrics_ = std::make_unique<obs::MetricsRegistry>();
    stream->options_.metrics = stream->metrics_.get();
    stream->options_.spans = stream->spans_.get();
    stream->options_.parent_span = session_span;
  } else {
    stream->options_.metrics = nullptr;
    stream->options_.spans = nullptr;
  }
  const sparql::SelectQuery& q = stream->query_;

  // Aggregates group the merged solutions at the mediator: inherently
  // blocking, so the session runs buffered.
  if (q.HasAggregates()) {
    stream->buffered_ = true;
    stream->variables_ = q.EffectiveProjection();
    return stream;
  }

  stream->branches_ = sparql::ExpandUnions(q);
  if (stream->branches_.size() > 1) {
    const bool modifiers =
        !q.order_by.empty() || q.distinct || q.limit.has_value();
    if (modifiers) {
      // ORDER BY / DISTINCT / LIMIT apply across the merged branches, so
      // the union cannot stream: run buffered.
      stream->buffered_ = true;
      stream->variables_ = q.EffectiveProjection();
      stream->branches_.clear();
      return stream;
    }
    // Pure bag union: branches stream sequentially on one clock.
    stream->variables_ = q.EffectiveProjection();
    for (sparql::SelectQuery& branch : stream->branches_) {
      branch.variables = stream->variables_;
    }
  }

  // Streaming mode: plan and spawn the first branch now, so creation
  // errors surface here and the dataflow is already running when the
  // stream is handed out.
  LAKEFED_RETURN_NOT_OK(stream->StartBranch());
  return stream;
}

Result<std::shared_ptr<const FederatedPlan>> ResultStream::PlanBranch(
    const sparql::SelectQuery& branch) {
  PlanCache* cache = options_.plan_cache ? options_.plans : nullptr;
  if (cache == nullptr) {
    LAKEFED_ASSIGN_OR_RETURN(
        FederatedPlan plan, BuildPlan(branch, catalog_, wrappers_, options_));
    return std::make_shared<const FederatedPlan>(std::move(plan));
  }
  // Stamp *before* planning: a concurrent epoch bump mid-plan then makes
  // the inserted entry look stale (re-planned on its next use) rather than
  // wrongly fresh.
  EpochStamp stamp;
  stamp.structural = cache->structural_epoch();
  if (options_.stats_catalog != nullptr) {
    stamp.stats = options_.stats_catalog->epoch();
  }
  if (options_.breakers != nullptr) {
    stamp.routing = options_.breakers->routing_epoch();
  }
  const std::string key = FingerprintQuery(branch, options_).CacheKey();
  if (std::shared_ptr<const FederatedPlan> hit = cache->Lookup(key, stamp)) {
    if (options_.metrics != nullptr) {
      options_.metrics->GetCounter("cache.plan.hit")->Increment();
    }
    // The marker span stands in for the plan/decompose/source-select
    // phases the hit skipped.
    obs::Span span(options_.spans, "plan-cache", options_.parent_span);
    return hit;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("cache.plan.miss")->Increment();
  }
  LAKEFED_ASSIGN_OR_RETURN(FederatedPlan plan,
                           BuildPlan(branch, catalog_, wrappers_, options_));
  auto shared = std::make_shared<const FederatedPlan>(std::move(plan));
  cache->Insert(key, options_.cache_scope, shared, stamp);
  return shared;
}

Status ResultStream::StartBranch() {
  branch_start_s_ = stopwatch_.ElapsedSeconds();
  LAKEFED_ASSIGN_OR_RETURN(std::shared_ptr<const FederatedPlan> plan,
                           PlanBranch(branches_[branch_index_]));
  if (branch_index_ == 0 && branches_.size() == 1) {
    variables_ = plan->variables;
  }
  plan_text_ += plan->Explain();
  active_plan_ = plan;
  execution_ = std::make_unique<PlanExecution>(wrappers_, options_, token_);
  execution_->Start(*plan);
  return Status::OK();
}

void ResultStream::AccumulateExecution() {
  stats_.MergeFrom(execution_->stats());
  // Branch executions keep event times relative to their own start; shift
  // them onto the session clock (branches run sequentially).
  for (const AnswerTrace::Event& event : execution_->trace_events()) {
    trace_.events.push_back({branch_start_s_ + event.time_s, event.label});
  }
  const auto& ops = execution_->operator_rows();
  operator_rows_.insert(operator_rows_.end(), ops.begin(), ops.end());
  const auto& ests = execution_->operator_estimates();
  operator_estimates_.insert(operator_estimates_.end(), ests.begin(),
                             ests.end());
  const auto& runtime = execution_->operator_runtime();
  operator_runtime_.insert(operator_runtime_.end(), runtime.begin(),
                           runtime.end());
}

bool ResultStream::NextBatch(RowBatch* batch) {
  batch->clear();
  // Serve the remainder of the Next() shim's pending batch first, so the
  // two pull APIs interleave without losing or reordering rows.
  if (shim_pos_ < shim_pending_.size()) {
    batch->rows.assign(
        std::make_move_iterator(shim_pending_.rows.begin() +
                                static_cast<ptrdiff_t>(shim_pos_)),
        std::make_move_iterator(shim_pending_.rows.end()));
    shim_pending_.clear();
    shim_pos_ = 0;
    return true;
  }
  if (ended_ || finished_) return false;
  return buffered_ ? NextBatchBuffered(batch) : NextBatchStreaming(batch);
}

bool ResultStream::Next(rdf::Binding* row) {
  if (shim_pos_ >= shim_pending_.size()) {
    shim_pending_.clear();
    shim_pos_ = 0;
    if (ended_ || finished_) return false;
    const bool ok = buffered_ ? NextBatchBuffered(&shim_pending_)
                              : NextBatchStreaming(&shim_pending_);
    if (!ok) return false;
  }
  *row = std::move(shim_pending_.rows[shim_pos_]);
  ++shim_pos_;
  return true;
}

bool ResultStream::NextBatchStreaming(RowBatch* batch) {
  for (;;) {
    if (execution_ != nullptr && execution_->NextBatch(batch)) {
      // The whole morsel became available to the client together: its rows
      // share one arrival timestamp in the answer trace.
      const double now = stopwatch_.ElapsedSeconds();
      trace_.timestamps.insert(trace_.timestamps.end(), batch->size(), now);
      return true;
    }
    // Current branch exhausted (completed, errored or cancelled).
    trace_.completion_seconds = stopwatch_.ElapsedSeconds();
    if (execution_ != nullptr) {
      Status branch_status = execution_->Finish();
      AccumulateExecution();
      execution_.reset();
      if (!branch_status.ok()) {
        status_ = branch_status;
        ended_ = true;
        return false;
      }
    }
    ++branch_index_;
    if (branch_index_ >= branches_.size()) {
      ended_ = true;
      fully_drained_ = true;
      return false;
    }
    Status start_status = StartBranch();
    if (!start_status.ok()) {
      status_ = start_status;
      ended_ = true;
      return false;
    }
  }
}

bool ResultStream::NextBatchBuffered(RowBatch* batch) {
  if (!buffered_ran_) {
    buffered_ran_ = true;
    Result<QueryAnswer> answer = RunBlocking(query_);
    if (!answer.ok()) {
      status_ = answer.status();
      ended_ = true;
      return false;
    }
    variables_ = std::move(answer->variables);
    buffered_rows_ = std::move(answer->rows);
    trace_ = std::move(answer->trace);
    stats_ = answer->stats;
    plan_text_ = std::move(answer->plan_text);
    operator_rows_ = std::move(answer->operator_rows);
    operator_estimates_ = std::move(answer->operator_estimates);
    operator_runtime_ = std::move(answer->operator_runtime);
  }
  if (token_.IsCancelled()) {
    status_ = token_.ToStatus();
    ended_ = true;
    return false;
  }
  if (buffered_cursor_ >= buffered_rows_.size()) {
    ended_ = true;
    fully_drained_ = true;
    return false;
  }
  // Serve the next batch_size-slice of the materialized answer.
  const size_t take = std::min(std::max<size_t>(1, options_.batch_size),
                               buffered_rows_.size() - buffered_cursor_);
  batch->rows.assign(
      std::make_move_iterator(buffered_rows_.begin() +
                              static_cast<ptrdiff_t>(buffered_cursor_)),
      std::make_move_iterator(buffered_rows_.begin() +
                              static_cast<ptrdiff_t>(buffered_cursor_ + take)));
  buffered_cursor_ += take;
  return true;
}

void ResultStream::Cancel() {
  if (token_.can_cancel()) token_.Cancel();
}

Status ResultStream::Finish() {
  if (finished_) return status_;
  finished_ = true;
  if (!ended_) {
    // Abandoned mid-stream: tear the dataflow down cooperatively before
    // joining, so producers blocked on full queues unwind.
    if (token_.can_cancel() && !token_.IsCancelled()) token_.Cancel();
    if (!buffered_ && trace_.completion_seconds == 0) {
      trace_.completion_seconds = stopwatch_.ElapsedSeconds();
    }
  }
  if (execution_ != nullptr) {
    Status terminal = execution_->Finish();
    AccumulateExecution();
    execution_.reset();
    if (status_.ok()) status_ = terminal;
  }
  if (status_.ok() && !fully_drained_) status_ = token_.ToStatus();
  // Seal the session's observability: session-level instruments, the root
  // span, the JSON export, and the fold into the engine-wide registry.
  const double total_ms = stopwatch_.ElapsedMillis();
  bool plan_cache_hit = false;
  if (spans_ != nullptr) spans_->EndSpan(session_span_);
  if (metrics_ != nullptr) {
    metrics_->GetHistogram("session.query_ms")->Record(total_ms);
    metrics_->GetCounter("session.rows")
        ->Increment(trace_.timestamps.size());
    if (!status_.ok()) metrics_->GetCounter("session.errors")->Increment();
    // Surface span loss: a truncated span tree would silently distort any
    // profile or trace built from it, so the drop count rides along in the
    // metrics snapshot.
    if (spans_ != nullptr && spans_->dropped() > 0) {
      metrics_->GetGauge("obs.spans.dropped")
          ->Set(static_cast<int64_t>(spans_->dropped()));
    }
    obs::MetricsSnapshot snapshot = metrics_->Snapshot();
    metrics_json_ = snapshot.ToJson();
    if (engine_metrics_ != nullptr) engine_metrics_->Merge(snapshot);
    const obs::MetricsSnapshot::CounterValue* hit =
        snapshot.FindCounter("cache.plan.hit");
    plan_cache_hit = hit != nullptr && hit->value > 0;
  }
  if (engine_metrics_ != nullptr) {
    engine_metrics_
        ->GetCounter(status_.ok() ? "engine.queries_ok"
                                  : "engine.queries_error")
        ->Increment();
  }
  // Flight recorder: one completion record per session, with the full
  // profile + span tree captured for slow/partial/error queries. Null
  // query_log (the default) skips everything — no fingerprinting, no
  // record, bit-identical to an engine without the log.
  if (options_.query_log != nullptr) {
    obs::QueryLog* log = options_.query_log;
    obs::QueryLogRecord record;
    const QueryFingerprint fp = FingerprintQuery(query_, options_);
    record.query = fp.canonical;
    record.fingerprint = ShortDigest(fp.CacheKey());
    record.tenant =
        options_.tenant.empty() ? options_.cache_scope : options_.tenant;
    record.ok = status_.ok();
    record.status = status_.ok() ? "ok" : status_.ToString();
    record.partial = stats_.partial;
    record.total_ms = total_ms;
    record.first_row_ms =
        trace_.timestamps.empty() ? -1 : trace_.timestamps.front() * 1000.0;
    record.network_delay_ms = stats_.network_delay_ms;
    record.rows = trace_.timestamps.size();
    record.retries = stats_.retries;
    record.failovers = stats_.failovers;
    record.hedges_fired = stats_.hedges_fired;
    record.hedge_wins = stats_.hedge_wins;
    record.breaker_rejections = stats_.breaker_rejections;
    record.sub_answer_hits = stats_.sub_answer_hits;
    record.sub_answer_misses = stats_.sub_answer_misses;
    record.plan_cache_hit = plan_cache_hit;
    record.slow = total_ms >= log->config().slow_ms;
    if (log->ShouldCapture(total_ms, record.ok, record.partial)) {
      record.profile_json = profile().ToJson();
      if (spans_ != nullptr) record.spans_json = spans_->ToJson();
    }
    log->Record(std::move(record));
  }
  return status_;
}

obs::QueryProfile ResultStream::profile() const {
  obs::QueryProfileInputs in;
  in.labels.reserve(operator_rows_.size());
  in.rows.reserve(operator_rows_.size());
  for (const auto& [label, rows] : operator_rows_) {
    in.labels.push_back(label);
    in.rows.push_back(rows);
  }
  in.estimates = operator_estimates_;
  in.runtime = operator_runtime_;
  for (const auto& [source, b] : stats_.per_source) {
    obs::QueryProfileInputs::SourceTraffic traffic;
    traffic.rows = b.rows;
    traffic.messages = b.messages;
    traffic.retries = b.retries;
    traffic.delay_ms = b.delay_ms;
    in.per_source.emplace(source, traffic);
  }
  if (spans_ != nullptr) in.spans = spans_->Snapshot();
  in.total_s = trace_.completion_seconds;
  in.first_s = trace_.timestamps.empty() ? -1 : trace_.timestamps.front();
  in.answer_rows = trace_.timestamps.size();
  in.status = status_.ok() ? "ok" : status_.ToString();
  return obs::BuildQueryProfile(in);
}

Result<QueryAnswer> ResultStream::Drain() {
  QueryAnswer answer;
  RowBatch batch;
  while (NextBatch(&batch)) {
    answer.rows.insert(answer.rows.end(),
                       std::make_move_iterator(batch.rows.begin()),
                       std::make_move_iterator(batch.rows.end()));
  }
  LAKEFED_RETURN_NOT_OK(Finish());
  answer.variables = variables_;
  answer.trace = trace_;
  answer.stats = stats_;
  answer.plan_text = plan_text_;
  answer.operator_rows = operator_rows_;
  answer.operator_estimates = operator_estimates_;
  answer.operator_runtime = operator_runtime_;
  answer.metrics_json = metrics_json_;
  return answer;
}

Result<QueryAnswer> ResultStream::RunBlocking(
    const sparql::SelectQuery& original) {
  // Aggregates always run at the mediator: execute the aggregate-free inner
  // query federated, then group the merged solutions here.
  if (original.HasAggregates()) {
    sparql::SelectQuery inner = original;
    inner.aggregates.clear();
    inner.group_by.clear();
    inner.order_by.clear();
    inner.limit.reset();
    inner.distinct = false;
    inner.select_all = false;
    bool count_star = false;
    std::set<std::string> needed(original.group_by.begin(),
                                 original.group_by.end());
    for (const sparql::SelectAggregate& agg : original.aggregates) {
      if (agg.var.empty()) {
        count_star = true;
      } else {
        needed.insert(agg.var);
      }
    }
    inner.variables =
        count_star ? original.PatternVariables()
                   : std::vector<std::string>(needed.begin(), needed.end());
    if (inner.variables.empty()) {
      inner.variables = original.PatternVariables();
    }
    LAKEFED_ASSIGN_OR_RETURN(QueryAnswer base, RunBlocking(inner));
    QueryAnswer answer;
    answer.variables = original.EffectiveProjection();
    answer.plan_text = base.plan_text + "-> EngineAggregate (GROUP BY at "
                                        "the mediator)\n";
    answer.stats = base.stats;
    answer.operator_rows = std::move(base.operator_rows);
    answer.operator_estimates = std::move(base.operator_estimates);
    answer.operator_runtime = std::move(base.operator_runtime);
    std::vector<rdf::Binding> aggregated = sparql::AggregateSolutions(
        base.rows, original.group_by, original.aggregates);
    sparql::SortBindings(&aggregated, original.order_by);
    if (original.distinct) {
      std::set<std::string> seen;
      std::vector<rdf::Binding> rows;
      for (rdf::Binding& row : aggregated) {
        if (seen.insert(ProjectedRowKey(row, answer.variables)).second) {
          rows.push_back(std::move(row));
        }
      }
      aggregated = std::move(rows);
    }
    if (original.limit.has_value() &&
        aggregated.size() > static_cast<size_t>(*original.limit)) {
      aggregated.resize(static_cast<size_t>(*original.limit));
    }
    answer.rows = std::move(aggregated);
    // Aggregation is blocking: all answers materialize at completion time.
    answer.trace.completion_seconds = base.trace.completion_seconds;
    answer.trace.timestamps.assign(answer.rows.size(),
                                   base.trace.completion_seconds);
    answer.operator_rows.emplace_back("EngineAggregate",
                                      answer.rows.size());
    answer.operator_estimates.push_back(-1.0);
    answer.operator_runtime.emplace_back();  // mediator op: no queue/wall data
    return answer;
  }

  const sparql::SelectQuery& query = original;
  std::vector<sparql::SelectQuery> branches = sparql::ExpandUnions(query);
  if (branches.size() == 1) {
    LAKEFED_ASSIGN_OR_RETURN(std::shared_ptr<const FederatedPlan> plan,
                             PlanBranch(branches.front()));
    active_plan_ = plan;
    return ExecutePlan(*plan, wrappers_, options_, token_);
  }

  // UNION: execute every branch combination and merge (bag union), then
  // apply ORDER BY / DISTINCT / LIMIT over the merged rows at the engine.
  QueryAnswer merged;
  merged.variables = query.EffectiveProjection();
  // Branches additionally project ORDER BY variables so the merged sort can
  // see them; they are stripped again after sorting.
  std::vector<std::string> extended = merged.variables;
  for (const sparql::OrderCondition& cond : query.order_by) {
    if (std::find(extended.begin(), extended.end(), cond.variable) ==
        extended.end()) {
      extended.push_back(cond.variable);
    }
  }
  double offset = 0;
  for (sparql::SelectQuery& branch : branches) {
    branch.variables = extended;
    LAKEFED_ASSIGN_OR_RETURN(std::shared_ptr<const FederatedPlan> plan,
                             PlanBranch(branch));
    active_plan_ = plan;
    LAKEFED_ASSIGN_OR_RETURN(QueryAnswer part,
                             ExecutePlan(*plan, wrappers_, options_, token_));
    merged.plan_text += plan->Explain();
    for (size_t i = 0; i < part.rows.size(); ++i) {
      merged.trace.timestamps.push_back(offset + part.trace.timestamps[i]);
      merged.rows.push_back(std::move(part.rows[i]));
    }
    for (const AnswerTrace::Event& event : part.trace.events) {
      merged.trace.events.push_back({offset + event.time_s, event.label});
    }
    offset += part.trace.completion_seconds;
    merged.stats.MergeFrom(part.stats);
    merged.operator_rows.insert(merged.operator_rows.end(),
                                part.operator_rows.begin(),
                                part.operator_rows.end());
    merged.operator_estimates.insert(merged.operator_estimates.end(),
                                     part.operator_estimates.begin(),
                                     part.operator_estimates.end());
    merged.operator_runtime.insert(merged.operator_runtime.end(),
                                   part.operator_runtime.begin(),
                                   part.operator_runtime.end());
  }
  merged.trace.completion_seconds = offset;

  if (!query.order_by.empty()) {
    // Pair rows with timestamps so the trace stays aligned after sorting.
    std::vector<size_t> order(merged.rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(
        order.begin(), order.end(), [&](size_t ia, size_t ib) {
          const rdf::Binding& a = merged.rows[ia];
          const rdf::Binding& b = merged.rows[ib];
          for (const sparql::OrderCondition& cond : query.order_by) {
            auto ita = a.find(cond.variable);
            auto itb = b.find(cond.variable);
            bool ba = ita != a.end(), bb = itb != b.end();
            int c;
            if (!ba && !bb) {
              c = 0;
            } else if (ba != bb) {
              c = ba ? 1 : -1;
            } else {
              c = sparql::CompareTermsSparql(ita->second, itb->second);
            }
            if (c != 0) return cond.ascending ? c < 0 : c > 0;
          }
          return false;
        });
    std::vector<rdf::Binding> rows;
    rows.reserve(order.size());
    for (size_t idx : order) rows.push_back(std::move(merged.rows[idx]));
    merged.rows = std::move(rows);
  }
  if (query.distinct) {
    std::set<std::string> seen;
    std::vector<rdf::Binding> rows;
    for (rdf::Binding& row : merged.rows) {
      if (seen.insert(ProjectedRowKey(row, merged.variables)).second) {
        rows.push_back(std::move(row));
      }
    }
    merged.rows = std::move(rows);
  }
  if (query.limit.has_value() &&
      merged.rows.size() > static_cast<size_t>(*query.limit)) {
    merged.rows.resize(static_cast<size_t>(*query.limit));
  }
  // Strip the sort-only variables.
  if (extended.size() > merged.variables.size()) {
    for (rdf::Binding& row : merged.rows) {
      for (size_t i = merged.variables.size(); i < extended.size(); ++i) {
        row.erase(extended[i]);
      }
    }
  }
  merged.trace.timestamps.resize(merged.rows.size());
  return merged;
}

}  // namespace lakefed::fed
