// Multi-tenant query service: the admission-controlled front door of the
// federated engine. Wraps FederatedEngine::CreateSession with
//
//  * a bounded admission queue — requests beyond the bound are shed
//    immediately with kResourceExhausted (back-pressure to the caller, not
//    an unbounded pile-up),
//  * two priority classes — interactive requests always dispatch before
//    batch requests,
//  * per-tenant concurrency quotas — one tenant cannot monopolize the run
//    slots; over-quota tenants wait in the queue while others dispatch,
//  * deadlines that include queue time — a request whose deadline expires
//    while still queued completes with kDeadlineExceeded without ever
//    occupying a run slot,
//  * graceful degradation — under queue pressure, batch requests are
//    downgraded to best-effort (partial answers from healthy sources
//    instead of fail-fast) when enabled.
//
// Execution substrate: every admitted session runs its operators on the
// service's shared svc::Scheduler worker pool (PlanOptions::scheduler, unless
// the request names a pool of its own), so total thread count is workers +
// I/O pool — independent of how many sessions are in flight. A run slot is
// a count, not a thread: Submit() creates a session on the calling thread
// when a slot is free, the session's own dataflow collects its answer, and
// its completion hook (a scheduler worker) releases the slot and creates
// the next eligible session. A queued deadline is a scheduler timer.
//
// Observability: service gauges (svc.sessions.live,
// svc.admission.queue_depth), counters (svc.admission.{admitted,shed,
// queued,expired,degraded}, svc.sessions.{completed,errors}) and latency
// histograms (svc.queue_wait_ms, svc.session_ms) are recorded into the
// engine's registry, so they surface through FederatedEngine::
// MetricsSnapshot next to the engine's own metrics.

#ifndef LAKEFED_SVC_SERVICE_H_
#define LAKEFED_SVC_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "fed/engine.h"
#include "fed/meta_source.h"
#include "fed/session.h"
#include "obs/exporter.h"
#include "svc/scheduler.h"

namespace lakefed::svc {

enum class Priority {
  kInteractive,  // dispatched first
  kBatch,        // dispatched when no interactive request is eligible
};

struct ServiceConfig {
  // The shared worker pool every admitted session runs on.
  Scheduler::Config scheduler;

  // Run slots: sessions executing concurrently. 0 = 2 * compute workers.
  size_t max_concurrent_sessions = 0;

  // Admission-queue bound: requests arriving when this many are already
  // waiting are shed with kResourceExhausted.
  size_t max_queued = 1024;

  // Per-tenant cap on concurrently running sessions. 0 = unlimited.
  // `tenant_quotas` overrides the default for specific tenants.
  size_t default_tenant_concurrent = 0;
  std::map<std::string, size_t> tenant_quotas;

  // Per-tenant byte quota on the engine's shared plan and sub-answer
  // caches (fed/cache.h), applied when a session runs with caching on:
  // the tenant id becomes the entries' cache scope, and a tenant over its
  // quota evicts its own least-recently-used entries first — one tenant's
  // churn cannot flush everyone else's cache. 0 = unlimited;
  // `tenant_cache_quotas` overrides the default for specific tenants.
  uint64_t tenant_cache_quota = 0;
  std::map<std::string, uint64_t> tenant_cache_quotas;

  // Deadline applied to requests that carry none of their own. Queue wait
  // counts against it. nullopt = no default deadline.
  std::optional<std::chrono::milliseconds> default_timeout;

  // Under queue pressure (depth > max_queued / 2), downgrade batch
  // requests to FailureMode::kBestEffort so they return partial answers
  // from healthy sources instead of failing outright.
  bool degrade_batch_under_pressure = true;
};

// One query handed to the service.
struct ServiceRequest {
  std::string tenant = "default";
  Priority priority = Priority::kInteractive;
  fed::QueryRequest query;
};

// Handle to a submitted query. Returned by QueryService::Submit; the
// result materializes asynchronously. Thread-safe.
class Submission {
 public:
  // Blocks until the query reached a terminal state (answer, error, shed
  // at dispatch, expired, cancelled) and returns the outcome.
  const Result<fed::QueryAnswer>& Wait();

  bool done() const;

  // Cooperative cancel: a queued submission completes with kCancelled at
  // once, without occupying a run slot; a running one has its session
  // token cancelled (the stream unwinds and reports kCancelled).
  // Idempotent.
  void Cancel();

  const std::string& tenant() const { return tenant_; }
  Priority priority() const { return priority_; }

  // Admission -> dispatch (or terminal-in-queue) / admission -> terminal.
  // Stable once done().
  double queue_wait_ms() const;
  double total_ms() const;

 private:
  friend class QueryService;

  Submission(std::string tenant, Priority priority, fed::QueryRequest query);

  void Complete(Result<fed::QueryAnswer> result);
  // Completes a submission that is still queued with `status` (cancelled,
  // expired, shut down). False when it was dispatched or is done already;
  // exactly one of FinishQueued and MarkDispatched wins.
  bool FinishQueued(Status status);
  // Takes the submission out of the queue into a run slot. False when it
  // reached a terminal state first.
  bool MarkDispatched();
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  const std::string tenant_;
  const Priority priority_;
  fed::QueryRequest query_;
  // Absolute deadline (request timeout or service default), fixed at
  // admission so queue wait counts against it.
  std::optional<CancellationToken::Clock::time_point> deadline_;
  Stopwatch clock_;  // since admission

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  bool dispatched_ = false;
  std::atomic<bool> cancelled_{false};
  // The session, while it runs; the completion hook takes it out.
  std::unique_ptr<fed::ResultStream> stream_;
  std::optional<Result<fed::QueryAnswer>> result_;
  double queue_wait_ms_ = 0;
  double total_ms_ = 0;
};

class QueryService {
 public:
  // `engine` must outlive the service. The service seals the engine on the
  // first dispatched session (CreateSession semantics).
  explicit QueryService(const fed::FederatedEngine* engine,
                        ServiceConfig config = {});
  ~QueryService();  // Shutdown()
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Admission control: enqueues the request and returns its handle, or
  // kResourceExhausted when the admission queue is at its bound (the
  // caller should back off and retry), or kUnavailable after Shutdown.
  Result<std::shared_ptr<Submission>> Submit(ServiceRequest request);

  // Blocking convenience: Submit + Wait.
  Result<fed::QueryAnswer> Execute(ServiceRequest request);

  // Fails every queued request with kUnavailable and waits for running
  // sessions to finish. Afterwards no completion hook or timer touches
  // the service. Idempotent, and safe from several threads at once.
  void Shutdown();

  // Introspection (the shell's `.tenants`).
  struct TenantInfo {
    size_t running = 0;
    size_t queued = 0;
    size_t completed = 0;  // cumulative over the service's lifetime
    size_t quota = 0;      // 0 = unlimited
  };
  std::map<std::string, TenantInfo> Tenants() const;

  struct Stats {
    uint64_t admitted = 0;   // dispatched into a run slot
    uint64_t queued = 0;     // accepted into the admission queue
    uint64_t shed = 0;       // rejected with kResourceExhausted
    uint64_t expired = 0;    // deadline passed while queued
    uint64_t degraded = 0;   // batch requests downgraded to best-effort
    uint64_t completed = 0;  // sessions finished OK
    uint64_t errors = 0;     // sessions finished with an error status
    size_t queue_depth = 0;
    size_t running = 0;
  };
  Stats stats() const;

  Scheduler* scheduler() { return &scheduler_; }
  size_t run_slots() const { return run_slots_; }

  // -------------------------------------------------------------------
  // Monitoring plane (obs/exporter.h): an embedded HTTP endpoint bound to
  // 127.0.0.1:<port> (0 = ephemeral) serving /metrics (Prometheus text
  // exposition of the engine snapshot, scheduler series included via the
  // sampler this service registers), /healthz, /statusz (JSON summary
  // below) and /queryz (flight-recorder JSONL, when the engine's query
  // log is enabled). Off until StartMonitoring; stopped by Shutdown.
  Status StartMonitoring(uint16_t port);
  void StopMonitoring();
  bool monitoring() const;
  uint16_t monitor_port() const;  // 0 when not monitoring

  // The /statusz document: build info, uptime, pool shape, breaker states,
  // cache hit rates and per-tenant admission stats.
  std::string StatuszJson() const;

  // Point-in-time worker-pool state in fed-visible form — the provider the
  // sys.scheduler meta-table wants:
  //   engine.RegisterSource(std::make_unique<fed::MetaSource>(
  //       &engine, fed::MetaSource::Providers{service.SchedulerInfoFn()}));
  // The returned function captures `this`: keep the service alive as long
  // as the meta-source may be queried.
  fed::SchedulerInfo SchedulerSnapshot() const;
  std::function<fed::SchedulerInfo()> SchedulerInfoFn() const;

 private:
  size_t QuotaFor(const std::string& tenant) const;
  size_t QueueDepthLocked() const;
  // Drops queued submissions that reached a terminal state (cancelled,
  // expired by their timer).
  void PruneLocked();
  // Fills free run slots: picks queued submissions in priority order,
  // skipping tenants at quota, and reserves their slots. The caller
  // dispatches them after releasing the lock.
  std::vector<std::shared_ptr<Submission>> FillSlotsLocked();
  // Arms the timer that expires a queued submission at its deadline.
  void ArmExpiry(const std::shared_ptr<Submission>& sub);
  // The dispatch step: creates the session of a submission that holds a
  // reserved slot and has it collected; the session's completion hook
  // calls Release. A submission whose deadline has passed by now expires
  // here, the late check behind its expiry timer.
  void Dispatch(const std::shared_ptr<Submission>& sub);
  // Releases the slot, charges the tenant, completes the submission with
  // `outcome` and arms the dispatch of what the freed slot admits.
  void Release(const std::shared_ptr<Submission>& sub,
               Result<fed::QueryAnswer> outcome);

  const fed::FederatedEngine* engine_;
  ServiceConfig config_;
  Scheduler scheduler_;
  size_t run_slots_ = 0;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  // Shutdown() waits for running_ == 0
  std::deque<std::shared_ptr<Submission>> interactive_;
  std::deque<std::shared_ptr<Submission>> batch_;
  std::map<std::string, size_t> tenant_running_;
  std::map<std::string, size_t> tenant_completed_;
  size_t running_ = 0;  // reserved run slots
  bool stopped_ = false;

  // Projects svc.scheduler.* series into an engine metrics snapshot (the
  // sampler body registered with AddMetricsSampler).
  void SampleScheduler(obs::MetricsSnapshot* snapshot) const;

  // Monitoring plane state. The sampler token is registered in the ctor
  // and removed in Shutdown (removal is a barrier: after it, no snapshot
  // can still be running the sampler against a dying scheduler).
  Stopwatch uptime_;
  uint64_t sampler_token_ = 0;
  mutable std::mutex monitor_mu_;
  std::unique_ptr<obs::MetricsExporter> exporter_;

  // Service metrics, recorded into the engine's registry (not owned).
  obs::Gauge* live_gauge_;
  obs::Gauge* depth_gauge_;
  obs::Counter* admitted_counter_;
  obs::Counter* queued_counter_;
  obs::Counter* shed_counter_;
  obs::Counter* expired_counter_;
  obs::Counter* degraded_counter_;
  obs::Counter* completed_counter_;
  obs::Counter* errors_counter_;
  obs::Histogram* queue_wait_hist_;
  obs::Histogram* session_hist_;
};

}  // namespace lakefed::svc

#endif  // LAKEFED_SVC_SERVICE_H_
