#include "fed/session.h"

#include <cstdio>
#include <iterator>

#include "fed/breaker.h"
#include "fed/cache.h"
#include "fed/fingerprint.h"
#include "fed/planner.h"
#include "obs/querylog.h"
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
  // Plan the whole query and spawn its dataflow now, so creation errors
  // surface here and the dataflow is already running when the stream is
  // handed out.
  LAKEFED_ASSIGN_OR_RETURN(stream->plan_, stream->PlanQuery());
  stream->variables_ = stream->plan_->variables;
  stream->plan_text_ = stream->plan_->Explain();
  stream->execution_ = std::make_unique<PlanExecution>(
      wrappers, stream->options_, stream->token_);
  stream->execution_->Start(*stream->plan_);
  return stream;
}

Result<std::shared_ptr<const FederatedPlan>> ResultStream::PlanQuery() {
  PlanCache* cache = options_.plan_cache ? options_.plans : nullptr;
  if (cache == nullptr) {
    LAKEFED_ASSIGN_OR_RETURN(
        FederatedPlan plan, BuildPlan(query_, catalog_, wrappers_, options_));
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
  const std::string key = FingerprintQuery(query_, options_).CacheKey();
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
                           BuildPlan(query_, catalog_, wrappers_, options_));
  auto shared = std::make_shared<const FederatedPlan>(std::move(plan));
  cache->Insert(key, options_.cache_scope, shared, stamp);
  return shared;
}

Status ResultStream::FinishExecution() {
  Status terminal = execution_->Finish();
  stats_ = execution_->stats();
  trace_.events = execution_->trace_events();
  operator_runtime_ = execution_->operator_runtime();
  execution_.reset();
  return terminal;
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
  return PullBatch(batch);
}

bool ResultStream::Next(rdf::Binding* row) {
  if (shim_pos_ >= shim_pending_.size()) {
    shim_pending_.clear();
    shim_pos_ = 0;
    if (ended_ || finished_ || !PullBatch(&shim_pending_)) return false;
  }
  *row = std::move(shim_pending_.rows[shim_pos_]);
  ++shim_pos_;
  return true;
}

bool ResultStream::PullBatch(RowBatch* batch) {
  if (execution_->NextBatch(batch)) {
    // The whole morsel became available to the client together: its rows
    // share one arrival timestamp in the answer trace.
    const double now = stopwatch_.ElapsedSeconds();
    trace_.timestamps.insert(trace_.timestamps.end(), batch->size(), now);
    return true;
  }
  // End of stream: completed, errored, cancelled or expired.
  trace_.completion_seconds = stopwatch_.ElapsedSeconds();
  ended_ = true;
  status_ = FinishExecution();
  fully_drained_ = status_.ok();
  return false;
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
    trace_.completion_seconds = stopwatch_.ElapsedSeconds();
  }
  if (execution_ != nullptr) {
    Status terminal = FinishExecution();
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
    if (log->ShouldCapture(total_ms, record.ok, record.partial)) {
      record.profile_json = profile().ToJson();
      if (spans_ != nullptr) record.spans_json = spans_->ToJson();
    }
    log->Record(std::move(record));
  }
  return status_;
}

obs::QueryProfile ResultStream::profile() const {
  obs::QueryProfile profile;
  profile.operators = operator_runtime_;
  profile.sources = stats_.per_source;
  if (spans_ != nullptr) {
    profile.phases = obs::SessionPhases(spans_->Snapshot());
  }
  profile.total_ms = trace_.completion_seconds * 1e3;
  profile.first_answer_ms =
      trace_.timestamps.empty() ? -1 : trace_.timestamps.front() * 1e3;
  profile.answer_rows = trace_.timestamps.size();
  profile.status = status_.ok() ? "ok" : status_.ToString();
  return profile;
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
  // Copied, not moved: profile() stays valid after Drain().
  answer.operator_runtime = operator_runtime_;
  answer.metrics_json = metrics_json_;
  return answer;
}

}  // namespace lakefed::fed
