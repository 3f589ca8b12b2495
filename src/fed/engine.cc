#include "fed/engine.h"

#include <algorithm>

#include "sparql/parser.h"

namespace lakefed::fed {

Status FederatedEngine::RegisterSource(
    std::unique_ptr<SourceWrapper> wrapper) {
  if (sealed()) {
    return Status::InvalidArgument(
        "engine is sealed: sources cannot be registered once a session has "
        "been created");
  }
  const std::string& id = wrapper->id();
  if (owned_.count(id) > 0) {
    return Status::AlreadyExists("source '" + id + "' already registered");
  }
  for (const mapping::RdfMt& molecule : wrapper->Molecules()) {
    catalog_.Add(molecule);
  }
  wrappers_[id] = wrapper.get();
  owned_[id] = std::move(wrapper);
  return Status::OK();
}

SourceWrapper* FederatedEngine::wrapper(const std::string& source_id) {
  auto it = wrappers_.find(source_id);
  return it == wrappers_.end() ? nullptr : it->second;
}

const SourceWrapper* FederatedEngine::wrapper(
    const std::string& source_id) const {
  auto it = wrappers_.find(source_id);
  return it == wrappers_.end() ? nullptr : it->second;
}

Status FederatedEngine::AnalyzeSources(
    const stats::AnalyzeOptions& options) const {
  Seal();
  auto catalog = std::make_unique<stats::StatsCatalog>();
  for (const auto& [id, source] : wrappers_) {
    stats::SourceStats stats;
    LAKEFED_RETURN_NOT_OK(source->CollectStatistics(options, &stats));
    catalog->AddSource(std::move(stats));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (stats_ != nullptr) {
      catalog->MergeFeedbackFrom(*stats_);
      retired_stats_.push_back(std::move(stats_));
    }
    stats_ = std::move(catalog);
  }
  // Everything cached against the previous statistics is now suspect: the
  // plans were costed from superseded histograms and the sub-answers may
  // reflect re-profiled (changed) data. Bumping the structural epochs
  // invalidates lazily, at first reuse.
  plan_cache_.BumpStructuralEpoch();
  answer_cache_.BumpStructuralEpoch();
  return Status::OK();
}

const stats::StatsCatalog* FederatedEngine::stats_catalog() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_.get();
}

Status FederatedEngine::PrepareStats(PlanOptions* options) const {
  if (!options->use_cost_model || options->stats_catalog != nullptr) {
    return Status::OK();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (stats_ != nullptr) {
      options->stats_catalog = stats_.get();
      return Status::OK();
    }
  }
  LAKEFED_RETURN_NOT_OK(AnalyzeSources());
  std::lock_guard<std::mutex> lock(stats_mu_);
  options->stats_catalog = stats_.get();
  return Status::OK();
}

uint64_t FederatedEngine::AddMetricsSampler(MetricsSampler sampler) const {
  std::lock_guard<std::mutex> lock(obs_mu_);
  const uint64_t token = next_sampler_token_++;
  samplers_[token] = std::move(sampler);
  return token;
}

void FederatedEngine::RemoveMetricsSampler(uint64_t token) const {
  std::lock_guard<std::mutex> lock(obs_mu_);
  samplers_.erase(token);
}

void FederatedEngine::EnableQueryLog(obs::QueryLogConfig config) const {
  std::lock_guard<std::mutex> lock(obs_mu_);
  if (query_log_ == nullptr) {
    query_log_ = std::make_unique<obs::QueryLog>(config);
  }
}

obs::QueryLog* FederatedEngine::query_log() const {
  std::lock_guard<std::mutex> lock(obs_mu_);
  return query_log_.get();
}

obs::MetricsSnapshot FederatedEngine::MetricsSnapshot() const {
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  // Project the breaker registry into the snapshot so `.breakers` and
  // `.metrics` agree: one state gauge (the BreakerState enum value) and the
  // cumulative transition/rejection/failure counters per tracked source.
  std::vector<BreakerRegistry::Entry> entries = breakers_.Snapshot();
  bool injected = !entries.empty();
  for (const BreakerRegistry::Entry& e : entries) {
    const std::string prefix = "svc.breaker." + e.source_id + ".";
    snapshot.gauges.push_back(
        {prefix + "state", static_cast<int64_t>(e.state)});
    snapshot.counters.push_back({prefix + "opened", e.times_opened});
    snapshot.counters.push_back({prefix + "half_open", e.times_half_open});
    snapshot.counters.push_back({prefix + "closed", e.times_closed});
    snapshot.counters.push_back({prefix + "rejected", e.rejected_requests});
    snapshot.counters.push_back({prefix + "failures", e.total_failures});
  }
  // Registered samplers (the service projects scheduler/admission state
  // here). Run under obs_mu_ so removal is a real barrier: once
  // RemoveMetricsSampler returns, the sampler can no longer be running.
  {
    std::lock_guard<std::mutex> lock(obs_mu_);
    if (query_log_ != nullptr) {
      snapshot.counters.push_back(
          {"obs.querylog.recorded", query_log_->total_recorded()});
      snapshot.counters.push_back(
          {"obs.querylog.slow", query_log_->slow_recorded()});
      snapshot.counters.push_back(
          {"obs.querylog.dropped", query_log_->dropped()});
      injected = true;
    }
    for (const auto& [token, sampler] : samplers_) {
      sampler(&snapshot);
      injected = true;
    }
  }
  if (!injected) return snapshot;
  // Snapshots render sorted by name; keep that invariant after injecting.
  std::sort(snapshot.counters.begin(), snapshot.counters.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(snapshot.histograms.begin(), snapshot.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snapshot;
}

Result<FederatedPlan> FederatedEngine::Plan(const std::string& sparql,
                                            const PlanOptions& options)
    const {
  PlanOptions effective = options;
  if (effective.breakers == nullptr) effective.breakers = &breakers_;
  if (effective.latency == nullptr) effective.latency = &latency_;
  LAKEFED_RETURN_NOT_OK(PrepareStats(&effective));
  LAKEFED_ASSIGN_OR_RETURN(sparql::SelectQuery query,
                           sparql::ParseSparql(sparql));
  return BuildPlan(query, catalog_, wrappers_, effective);
}

Result<std::unique_ptr<ResultStream>> FederatedEngine::CreateSession(
    QueryRequest request) const {
  LAKEFED_RETURN_NOT_OK(request.options.Validate());
  Seal();
  LAKEFED_RETURN_NOT_OK(PrepareStats(&request.options));
  if (request.options.breakers == nullptr) {
    request.options.breakers = &breakers_;
  }
  if (request.options.latency == nullptr) {
    request.options.latency = &latency_;
  }
  if (request.options.plan_cache && request.options.plans == nullptr) {
    request.options.plans = &plan_cache_;
  }
  if (request.options.answer_cache && request.options.answers == nullptr) {
    request.options.answers = &answer_cache_;
  }
  if (request.options.query_log == nullptr) {
    request.options.query_log = query_log();  // null unless enabled
  }
  if (request.options.scheduler == nullptr) {
    std::call_once(scheduler_once_, [this] {
      scheduler_ = std::make_unique<svc::Scheduler>();
    });
    request.options.scheduler = scheduler_.get();
  }
  // The session's span recorder is created before parsing so the parse
  // phase is the first child of the root "session" span; the stream takes
  // ownership and closes the root at Finish().
  std::unique_ptr<obs::SpanRecorder> spans;
  uint64_t session_span = 0;
  if (request.options.collect_metrics) {
    spans = std::make_unique<obs::SpanRecorder>();
    session_span = spans->StartSpan("session");
  }
  metrics_.GetCounter("engine.sessions")->Increment();
  sparql::SelectQuery query;
  if (request.parsed.has_value()) {
    query = std::move(*request.parsed);
  } else {
    PlanCache* plans =
        request.options.plan_cache ? request.options.plans : nullptr;
    std::shared_ptr<const sparql::SelectQuery> cached;
    if (plans != nullptr) cached = plans->LookupParsed(request.query);
    if (cached != nullptr) {
      // Repeat of a known text: reuse the AST. The marker span replaces
      // the "parse" phase so profiles show where the time went (didn't).
      obs::Span parse_span(spans.get(), "parse-cache", session_span);
      query = *cached;
    } else {
      obs::Span parse_span(spans.get(), "parse", session_span);
      LAKEFED_ASSIGN_OR_RETURN(query, sparql::ParseSparql(request.query));
      if (plans != nullptr) plans->InsertParsed(request.query, query);
    }
  }
  CancellationToken token =
      request.timeout.has_value()
          ? CancellationToken::WithDeadline(CancellationToken::Clock::now() +
                                            *request.timeout)
          : CancellationToken::Cancellable();
  return ResultStream::Create(catalog_, wrappers_, std::move(query),
                              std::move(request.options), std::move(token),
                              std::move(spans), session_span, &metrics_);
}

Result<QueryAnswer> FederatedEngine::Execute(const std::string& sparql,
                                             const PlanOptions& options)
    const {
  LAKEFED_ASSIGN_OR_RETURN(std::unique_ptr<ResultStream> stream,
                           CreateSession(QueryRequest::Text(sparql, options)));
  return stream->Drain();
}

Result<QueryAnswer> FederatedEngine::ExecuteParsed(
    const sparql::SelectQuery& query, const PlanOptions& options) const {
  LAKEFED_ASSIGN_OR_RETURN(
      std::unique_ptr<ResultStream> stream,
      CreateSession(QueryRequest::Parsed(query, options)));
  return stream->Drain();
}

}  // namespace lakefed::fed
