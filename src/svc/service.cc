#include "svc/service.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "fed/breaker.h"

namespace lakefed::svc {

namespace {

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

std::string HitRate(const fed::CacheStats& cs) {
  const uint64_t lookups = cs.hits + cs.misses;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f",
                lookups == 0 ? 0.0
                             : static_cast<double>(cs.hits) /
                                   static_cast<double>(lookups));
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------
// Submission

Submission::Submission(std::string tenant, Priority priority,
                       fed::QueryRequest query)
    : tenant_(std::move(tenant)),
      priority_(priority),
      query_(std::move(query)) {}

const Result<fed::QueryAnswer>& Submission::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return *result_;
}

bool Submission::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void Submission::Cancel() {
  cancelled_.store(true, std::memory_order_release);
  if (FinishQueued(Status::Cancelled("cancelled while queued"))) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Holding mu_ makes this safe against the completion hook taking the
  // stream; a dispatch that has not stored it yet sees cancelled_ instead.
  if (stream_ != nullptr) stream_->Cancel();
}

double Submission::queue_wait_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_wait_ms_;
}

double Submission::total_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ms_;
}

void Submission::Complete(Result<fed::QueryAnswer> result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_) return;
    result_ = std::move(result);
    total_ms_ = clock_.ElapsedMillis();
    done_ = true;
  }
  cv_.notify_all();
}

bool Submission::FinishQueued(Status status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_ || dispatched_) return false;
    result_ = std::move(status);
    total_ms_ = clock_.ElapsedMillis();
    queue_wait_ms_ = total_ms_;
    done_ = true;
  }
  cv_.notify_all();
  return true;
}

bool Submission::MarkDispatched() {
  std::lock_guard<std::mutex> lock(mu_);
  if (done_) return false;
  dispatched_ = true;
  queue_wait_ms_ = clock_.ElapsedMillis();
  return true;
}

// ---------------------------------------------------------------------
// QueryService

QueryService::QueryService(const fed::FederatedEngine* engine,
                           ServiceConfig config)
    : engine_(engine),
      config_(std::move(config)),
      scheduler_(config_.scheduler) {
  run_slots_ = config_.max_concurrent_sessions != 0
                   ? config_.max_concurrent_sessions
                   : 2 * scheduler_.num_workers();
  obs::MetricsRegistry* m = engine_->metrics();
  live_gauge_ = m->GetGauge("svc.sessions.live");
  depth_gauge_ = m->GetGauge("svc.admission.queue_depth");
  admitted_counter_ = m->GetCounter("svc.admission.admitted");
  queued_counter_ = m->GetCounter("svc.admission.queued");
  shed_counter_ = m->GetCounter("svc.admission.shed");
  expired_counter_ = m->GetCounter("svc.admission.expired");
  degraded_counter_ = m->GetCounter("svc.admission.degraded");
  completed_counter_ = m->GetCounter("svc.sessions.completed");
  errors_counter_ = m->GetCounter("svc.sessions.errors");
  queue_wait_hist_ = m->GetHistogram("svc.queue_wait_ms");
  session_hist_ = m->GetHistogram("svc.session_ms");
  // Project live scheduler state into every engine metrics snapshot, so
  // /metrics and `.metrics` show queue depths and task-state counters
  // without the engine depending on svc. Removed in Shutdown.
  sampler_token_ = engine_->AddMetricsSampler(
      [this](obs::MetricsSnapshot* snapshot) { SampleScheduler(snapshot); });
}

QueryService::~QueryService() { Shutdown(); }

Result<std::shared_ptr<Submission>> QueryService::Submit(
    ServiceRequest request) {
  auto sub = std::shared_ptr<Submission>(new Submission(
      std::move(request.tenant), request.priority, std::move(request.query)));
  // Fix the absolute deadline at admission, so time spent waiting in the
  // queue counts against it like any other part of the query's latency.
  std::optional<std::chrono::milliseconds> timeout =
      sub->query_.timeout.has_value() ? sub->query_.timeout
                                      : config_.default_timeout;
  if (timeout.has_value()) {
    sub->deadline_ = CancellationToken::Clock::now() + *timeout;
  }
  std::vector<std::shared_ptr<Submission>> ready;
  bool queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return Status::Unavailable("query service is shut down");
    }
    PruneLocked();
    if (QueueDepthLocked() >= config_.max_queued) {
      shed_counter_->Increment();
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(config_.max_queued) +
          " queued); back off and retry");
    }
    (sub->priority_ == Priority::kInteractive ? interactive_ : batch_)
        .push_back(sub);
    queued_counter_->Increment();
    ready = FillSlotsLocked();
    queued = std::find(ready.begin(), ready.end(), sub) == ready.end();
    depth_gauge_->Set(static_cast<int64_t>(QueueDepthLocked()));
  }
  if (queued && sub->deadline_.has_value()) ArmExpiry(sub);
  for (const std::shared_ptr<Submission>& next : ready) Dispatch(next);
  return sub;
}

Result<fed::QueryAnswer> QueryService::Execute(ServiceRequest request) {
  Result<std::shared_ptr<Submission>> sub = Submit(std::move(request));
  if (!sub.ok()) return sub.status();
  return (*sub)->Wait();
}

void QueryService::Shutdown() {
  // Tear the monitoring plane down first: after these return, no HTTP
  // handler or snapshot cut can still be reading service state (sampler
  // removal is a barrier — see AddMetricsSampler). Both are idempotent,
  // so every Shutdown caller may run them.
  StopMonitoring();
  engine_->RemoveMetricsSampler(sampler_token_);
  std::unique_lock<std::mutex> lock(mu_);
  if (!stopped_) {
    stopped_ = true;
    for (const auto& queue : {&interactive_, &batch_}) {
      for (const std::shared_ptr<Submission>& sub : *queue) {
        sub->FinishQueued(Status::Unavailable("query service shut down"));
      }
      queue->clear();
    }
    depth_gauge_->Set(0);
  }
  // Running sessions finish on their own. Each completion hook releases
  // its slot and completes its submission under mu_ and dispatches nothing
  // more, so once running_ is 0 no hook touches the service again. Expiry
  // timers touch only their submission.
  idle_cv_.wait(lock, [this] { return running_ == 0; });
}

std::map<std::string, QueryService::TenantInfo> QueryService::Tenants()
    const {
  std::map<std::string, TenantInfo> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [tenant, running] : tenant_running_) {
    if (running > 0) out[tenant].running = running;
  }
  for (const auto& [tenant, completed] : tenant_completed_) {
    out[tenant].completed = completed;
  }
  for (const auto& queue : {&interactive_, &batch_}) {
    for (const std::shared_ptr<Submission>& sub : *queue) {
      ++out[sub->tenant()].queued;
    }
  }
  for (const auto& [tenant, quota] : config_.tenant_quotas) {
    out[tenant].quota = quota;
  }
  for (auto& [tenant, info] : out) {
    if (config_.tenant_quotas.count(tenant) == 0) {
      info.quota = config_.default_tenant_concurrent;
    }
  }
  return out;
}

QueryService::Stats QueryService::stats() const {
  Stats s;
  s.admitted = admitted_counter_->Value();
  s.queued = queued_counter_->Value();
  s.shed = shed_counter_->Value();
  s.expired = expired_counter_->Value();
  s.degraded = degraded_counter_->Value();
  s.completed = completed_counter_->Value();
  s.errors = errors_counter_->Value();
  std::lock_guard<std::mutex> lock(mu_);
  s.queue_depth = QueueDepthLocked();
  s.running = running_;
  return s;
}

void QueryService::SampleScheduler(obs::MetricsSnapshot* snapshot) const {
  const Scheduler::Stats st = scheduler_.stats();
  snapshot->counters.push_back({"svc.scheduler.steps", st.steps});
  snapshot->counters.push_back({"svc.scheduler.steals", st.steals});
  snapshot->counters.push_back({"svc.scheduler.wakes", st.wakes});
  snapshot->counters.push_back({"svc.scheduler.io_jobs", st.io_jobs});
  snapshot->counters.push_back({"svc.scheduler.yields", st.yields});
  snapshot->counters.push_back({"svc.scheduler.blocks", st.blocks});
  snapshot->counters.push_back({"svc.scheduler.done", st.done});
  snapshot->counters.push_back({"svc.scheduler.parks", st.parks});
  snapshot->counters.push_back({"svc.scheduler.unparks", st.unparks});
  auto gauge = [snapshot](const std::string& name, size_t value) {
    snapshot->gauges.push_back({name, static_cast<int64_t>(value)});
  };
  gauge("svc.scheduler.workers", scheduler_.num_workers());
  gauge("svc.scheduler.io_threads", scheduler_.num_io_threads());
  gauge("svc.scheduler.injector_depth", scheduler_.injector_depth());
  gauge("svc.scheduler.io_queue_depth", scheduler_.io_queue_depth());
  const std::vector<size_t> depths = scheduler_.deque_depths();
  for (size_t i = 0; i < depths.size(); ++i) {
    gauge("svc.scheduler.worker." + std::to_string(i) + ".deque_depth",
          depths[i]);
  }
}

Status QueryService::StartMonitoring(uint16_t port) {
  std::lock_guard<std::mutex> lock(monitor_mu_);
  if (exporter_ != nullptr && exporter_->running()) {
    return Status::AlreadyExists("monitoring already running on port " +
                                 std::to_string(exporter_->port()));
  }
  auto exporter = std::make_unique<obs::MetricsExporter>();
  obs::MetricsExporter::Config cfg;
  cfg.port = port;
  const fed::FederatedEngine* engine = engine_;
  cfg.metrics = [engine] { return engine->MetricsSnapshot(); };
  cfg.statusz = [this] { return StatuszJson(); };
  cfg.query_log = engine_->query_log();  // null keeps /queryz a 404
  LAKEFED_RETURN_NOT_OK(exporter->Start(std::move(cfg)));
  exporter_ = std::move(exporter);
  return Status::OK();
}

void QueryService::StopMonitoring() {
  std::lock_guard<std::mutex> lock(monitor_mu_);
  exporter_.reset();  // ~MetricsExporter stops and joins the listener
}

bool QueryService::monitoring() const {
  std::lock_guard<std::mutex> lock(monitor_mu_);
  return exporter_ != nullptr && exporter_->running();
}

uint16_t QueryService::monitor_port() const {
  std::lock_guard<std::mutex> lock(monitor_mu_);
  return exporter_ != nullptr ? exporter_->port() : 0;
}

std::string QueryService::StatuszJson() const {
  std::ostringstream out;
  out << "{\"build\":{\"project\":\"lakefed\",\"compiler\":"
      << JsonStr(__VERSION__) << ",\"cxx\":" << __cplusplus << "}";
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  uptime_.ElapsedMillis() / 1000.0);
    out << ",\"uptime_s\":" << buf;
  }
  out << ",\"pool\":{\"workers\":" << scheduler_.num_workers()
      << ",\"io_threads\":" << scheduler_.num_io_threads()
      << ",\"run_slots\":" << run_slots_ << "}";
  const Stats s = stats();
  out << ",\"admission\":{\"admitted\":" << s.admitted
      << ",\"queued\":" << s.queued << ",\"shed\":" << s.shed
      << ",\"expired\":" << s.expired << ",\"degraded\":" << s.degraded
      << ",\"completed\":" << s.completed << ",\"errors\":" << s.errors
      << ",\"queue_depth\":" << s.queue_depth
      << ",\"running\":" << s.running << "}";
  out << ",\"breakers\":{";
  bool first = true;
  for (const fed::BreakerRegistry::Entry& e :
       engine_->breakers()->Snapshot()) {
    if (!first) out << ",";
    first = false;
    out << JsonStr(e.source_id) << ":"
        << JsonStr(fed::BreakerStateToString(e.state));
  }
  out << "}";
  const fed::CacheStats plan = engine_->plan_cache()->plan_stats();
  const fed::CacheStats answer = engine_->answer_cache()->stats();
  out << ",\"caches\":{\"plan\":{\"hit_rate\":" << HitRate(plan)
      << ",\"entries\":" << plan.entries << "}"
      << ",\"answer\":{\"hit_rate\":" << HitRate(answer)
      << ",\"entries\":" << answer.entries << "}}";
  out << ",\"tenants\":{";
  first = true;
  for (const auto& [tenant, info] : Tenants()) {
    if (!first) out << ",";
    first = false;
    out << JsonStr(tenant) << ":{\"running\":" << info.running
        << ",\"queued\":" << info.queued
        << ",\"completed\":" << info.completed
        << ",\"quota\":" << info.quota << "}";
  }
  out << "}";
  const obs::QueryLog* log = engine_->query_log();
  out << ",\"query_log\":{\"enabled\":" << (log != nullptr ? "true" : "false");
  if (log != nullptr) {
    out << ",\"recorded\":" << log->total_recorded()
        << ",\"slow\":" << log->slow_recorded()
        << ",\"dropped\":" << log->dropped();
  }
  out << "}}";
  return out.str();
}

fed::SchedulerInfo QueryService::SchedulerSnapshot() const {
  const Scheduler::Stats st = scheduler_.stats();
  fed::SchedulerInfo info;
  info.workers = scheduler_.num_workers();
  info.io_threads = scheduler_.num_io_threads();
  info.steps = st.steps;
  info.steals = st.steals;
  info.wakes = st.wakes;
  info.io_jobs = st.io_jobs;
  info.yields = st.yields;
  info.blocks = st.blocks;
  info.done = st.done;
  info.parks = st.parks;
  info.unparks = st.unparks;
  info.injector_depth = scheduler_.injector_depth();
  info.io_queue_depth = scheduler_.io_queue_depth();
  info.deque_depths = scheduler_.deque_depths();
  return info;
}

std::function<fed::SchedulerInfo()> QueryService::SchedulerInfoFn() const {
  return [this] { return SchedulerSnapshot(); };
}

size_t QueryService::QuotaFor(const std::string& tenant) const {
  auto it = config_.tenant_quotas.find(tenant);
  if (it != config_.tenant_quotas.end()) return it->second;
  return config_.default_tenant_concurrent;
}

size_t QueryService::QueueDepthLocked() const {
  return interactive_.size() + batch_.size();
}

void QueryService::PruneLocked() {
  for (const auto& queue : {&interactive_, &batch_}) {
    std::erase_if(*queue, [](const std::shared_ptr<Submission>& sub) {
      return sub->done();
    });
  }
}

std::vector<std::shared_ptr<Submission>> QueryService::FillSlotsLocked() {
  std::vector<std::shared_ptr<Submission>> ready;
  for (const auto& queue : {&interactive_, &batch_}) {
    for (auto it = queue->begin();
         it != queue->end() && running_ < run_slots_;) {
      const std::shared_ptr<Submission>& sub = *it;
      const size_t quota = QuotaFor(sub->tenant());
      if (quota != 0) {
        auto running = tenant_running_.find(sub->tenant());
        if (running != tenant_running_.end() && running->second >= quota) {
          ++it;  // tenant at quota: skip, later entries may be eligible
          continue;
        }
      }
      // A submission cancelled or expired since the last prune is dropped.
      if (sub->MarkDispatched()) {
        ++running_;
        ++tenant_running_[sub->tenant()];
        ready.push_back(sub);
      }
      it = queue->erase(it);
    }
  }
  return ready;
}

void QueryService::ArmExpiry(const std::shared_ptr<Submission>& sub) {
  // The timer holds the submission weakly and touches nothing else of the
  // service (the counter lives in the engine's registry), so it is safe
  // whenever it fires; the queue entry is pruned at the next admission or
  // completion.
  scheduler_.RunAt(
      *sub->deadline_,
      [weak = std::weak_ptr<Submission>(sub), expired = expired_counter_] {
        std::shared_ptr<Submission> queued = weak.lock();
        if (queued != nullptr &&
            queued->FinishQueued(Status::DeadlineExceeded(
                "deadline expired in admission queue"))) {
          expired->Increment();
        }
      });
}

void QueryService::Dispatch(const std::shared_ptr<Submission>& sub) {
  const double queue_wait_ms = sub->queue_wait_ms();
  queue_wait_hist_->Record(queue_wait_ms);

  fed::QueryRequest request = std::move(sub->query_);
  // Remaining deadline budget after the queue wait.
  if (sub->deadline_.has_value()) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        *sub->deadline_ - CancellationToken::Clock::now());
    if (remaining.count() <= 0) {
      expired_counter_->Increment();
      Release(sub,
              Status::DeadlineExceeded("deadline expired in admission queue"));
      return;
    }
    request.timeout = remaining;
  }
  // Execution substrate: run the session's operators on the shared pool
  // unless the caller named a pool of its own.
  if (request.options.scheduler == nullptr) {
    request.options.scheduler = &scheduler_;
  }
  // Attribution: every admitted session carries its tenant so the flight
  // recorder (and sys.queries) can say who ran what, caching or not.
  if (request.options.tenant.empty()) {
    request.options.tenant = sub->tenant();
  }
  // Reuse layer: cache entries are scoped by tenant so byte quotas (and
  // the shell's `.cache` breakdown) attribute footprint to its owner.
  if ((request.options.plan_cache || request.options.answer_cache) &&
      request.options.cache_scope.empty()) {
    request.options.cache_scope = sub->tenant();
    uint64_t quota = config_.tenant_cache_quota;
    auto it = config_.tenant_cache_quotas.find(sub->tenant());
    if (it != config_.tenant_cache_quotas.end()) quota = it->second;
    if (quota > 0) {
      engine_->plan_cache()->SetScopeQuota(sub->tenant(), quota);
      engine_->answer_cache()->SetScopeQuota(sub->tenant(), quota);
    }
  }
  // Graceful degradation: under queue pressure a batch query is worth more
  // as a fast partial answer than as a queue occupant that may fail late.
  if (config_.degrade_batch_under_pressure &&
      sub->priority_ == Priority::kBatch &&
      request.options.failure_mode == fed::FailureMode::kFailFast) {
    size_t depth;
    {
      std::lock_guard<std::mutex> lock(mu_);
      depth = QueueDepthLocked();
    }
    if (depth > config_.max_queued / 2) {
      request.options.failure_mode = fed::FailureMode::kBestEffort;
      degraded_counter_->Increment();
    }
  }

  admitted_counter_->Increment();
  live_gauge_->Add(1);
  auto end_session = [this, sub, queue_wait_ms](
                         Result<fed::QueryAnswer> outcome) {
    live_gauge_->Add(-1);
    if (outcome.ok()) {
      completed_counter_->Increment();
    } else {
      errors_counter_->Increment();
    }
    session_hist_->Record(sub->clock_.ElapsedMillis() - queue_wait_ms);
    Release(sub, std::move(outcome));
  };
  Result<std::unique_ptr<fed::ResultStream>> stream =
      engine_->CreateSession(std::move(request));
  if (!stream.ok()) {
    end_session(stream.status());
    return;
  }
  fed::ResultStream* live = stream->get();
  {
    std::lock_guard<std::mutex> lock(sub->mu_);
    sub->stream_ = std::move(*stream);
  }
  // A cancel that raced dispatch: forward it to the live stream.
  if (sub->cancelled()) live->Cancel();
  // The last touch of the service and the stream here: the session may
  // complete, and the service shut down, as soon as collection starts.
  live->Collect(std::move(end_session));
}

void QueryService::Release(const std::shared_ptr<Submission>& sub,
                           Result<fed::QueryAnswer> outcome) {
  // Taken out under the submission's lock, so Cancel() no longer reaches
  // the stream; it is destroyed when this hook returns.
  std::unique_ptr<fed::ResultStream> stream;
  {
    std::lock_guard<std::mutex> lock(sub->mu_);
    stream = std::move(sub->stream_);
  }
  std::vector<std::shared_ptr<Submission>> ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    auto it = tenant_running_.find(sub->tenant());
    if (it != tenant_running_.end() && --it->second == 0) {
      tenant_running_.erase(it);
    }
    ++tenant_completed_[sub->tenant()];
    // Completed after the slot is released, so stats() read after Wait()
    // no longer counts this session, and before mu_ is, so Shutdown()
    // cannot return ahead of it.
    sub->Complete(std::move(outcome));
    PruneLocked();
    ready = FillSlotsLocked();
    depth_gauge_->Set(static_cast<int64_t>(QueueDepthLocked()));
    // Notified under mu_: once it is released, Shutdown() may return, and
    // nothing below touches the service unless `ready` holds a slot.
    if (running_ == 0) idle_cv_.notify_all();
  }
  // Each dispatch runs as a timer rather than here: a session can end
  // inside its own dispatch and come back to Release, and a queue of such
  // sessions must not nest one dispatch inside the next.
  for (std::shared_ptr<Submission>& next : ready) {
    scheduler_.RunAt(Scheduler::Clock::now(),
                     [this, next = std::move(next)] { Dispatch(next); });
  }
}

}  // namespace lakefed::svc
