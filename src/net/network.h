// Network simulation, reproducing the paper's setup: the retrieval of each
// answer from a source is delayed by a gamma-distributed latency
// (numpy.random.gamma(alpha, beta) + time.sleep in Ontario's SQL wrapper).
//
// Four built-in profiles match Section 3 of the paper:
//   NoDelay             perfect network
//   Gamma1 (a=1,b=0.3)  fast network,   mean latency 0.3 ms / message
//   Gamma2 (a=3,b=1.0)  medium network, mean latency 3.0 ms / message
//   Gamma3 (a=3,b=1.5)  slow network,   mean latency 4.5 ms / message

#ifndef LAKEFED_NET_NETWORK_H_
#define LAKEFED_NET_NETWORK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/cancellation.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lakefed::net {

// Declarative description of a simulated network.
struct NetworkProfile {
  std::string name = "NoDelay";
  // Gamma parameters; delay per message is Gamma(alpha, beta) milliseconds.
  // alpha <= 0 means no delay at all.
  double alpha = 0.0;
  double beta = 0.0;
  // Multiplier applied to every sampled delay. 1.0 reproduces the paper;
  // tests may scale down to keep runtimes tiny without changing the shape.
  double time_scale = 1.0;

  // Mean latency per message in milliseconds (alpha * beta * time_scale).
  double MeanLatencyMs() const {
    return alpha <= 0 ? 0.0 : alpha * beta * time_scale;
  }

  // Latency of the *modelled* network, ignoring time_scale. Heuristics
  // reason about this one: scaling the simulation down for fast test runs
  // must not change planning decisions.
  double NominalLatencyMs() const { return alpha <= 0 ? 0.0 : alpha * beta; }

  bool HasDelay() const { return alpha > 0 && beta > 0 && time_scale > 0; }

  static NetworkProfile NoDelay();
  static NetworkProfile Gamma1();  // fast,   mean 0.3 ms
  static NetworkProfile Gamma2();  // medium, mean 3.0 ms
  static NetworkProfile Gamma3();  // slow,   mean 4.5 ms
  static NetworkProfile Custom(std::string name, double alpha, double beta);

  // All four paper profiles, in paper order.
  static const std::array<NetworkProfile, 4>& PaperProfiles();
};

// The threshold (mean per-message latency, ms) above which Heuristic 2
// considers the network "slow" and pushes indexed filters to the source.
// Gamma2 (3 ms) and Gamma3 (4.5 ms) are slow; NoDelay and Gamma1 are fast.
inline constexpr double kSlowNetworkThresholdMs = 1.0;

// A DelayChannel injects the per-message delay. One channel is attached to
// each wrapper; Transfer() is called once per retrieved answer (exactly
// Ontario's injection point). Thread-safe.
//
// A FaultInjector may be attached alongside the delay sampling: each
// Transfer then also consults the injector, and returns
// kUnavailable when the injector fires a fault for this message. Wrappers
// propagate that status out of Execute so the executor's retry/failover
// layer can recover; legacy wrappers that ignore it simply see no faults.
class DelayChannel {
 public:
  DelayChannel(NetworkProfile profile, uint64_t seed);

  // Sleeps for one sampled message latency and accounts for it. The sleep
  // observes `token`: an explicit cancel wakes it immediately and the
  // token's deadline caps it, so a source stuck in a simulated slow network
  // tears down mid-delay instead of finishing the sleep. The full sampled
  // delay is still accounted (the simulation's network cost does not
  // depend on who aborted the wait). Returns the attached fault injector's
  // verdict for this message (OK when no injector is attached).
  Status Transfer(const CancellationToken& token);

  // Batched form of Transfer: accounts `n` messages and sleeps the sum of
  // `n` sampled per-message latencies — the same total network cost as `n`
  // sequential Transfer calls, paid with one wake-up. With a fault injector
  // attached the faithful per-message sequence runs instead (count, delay,
  // verdict), so a mid-batch fault leaves exactly the row-at-a-time
  // accounting: the faulted message's delay is paid, `*delivered_out`
  // (when non-null) reports how many messages completed before the fault,
  // and trailing messages are never sent. Returns the first fault verdict,
  // or OK.
  Status TransferBatch(size_t n, const CancellationToken& token,
                       size_t* delivered_out = nullptr);

  // Attaches the per-source fault injector (not owned; must outlive the
  // channel's use). Set before wrapper threads start.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  // Observability hook (src/obs): every Transfer records its sampled delay
  // into `delay_hist` (milliseconds, including zero-delay profiles) and,
  // when `spans` is non-null, opens a `span_name` span under `parent_span`
  // for the duration of the simulated sleep. Neither is owned; set before
  // wrapper threads start (like the fault injector). Null pointers keep
  // the historic zero-instrumentation path.
  void set_observer(obs::Histogram* delay_hist, obs::SpanRecorder* spans,
                    uint64_t parent_span, std::string span_name) {
    delay_hist_ = delay_hist;
    spans_ = spans;
    parent_span_ = parent_span;
    span_name_ = std::move(span_name);
  }

  // Samples a delay without sleeping (for tests and cost estimation).
  double SampleDelayMs();

  const NetworkProfile& profile() const { return profile_; }
  uint64_t messages_transferred() const { return messages_.load(); }
  double total_delay_ms() const;

 private:
  // Samples and sleeps one message delay (shared by Transfer and the
  // per-message path of TransferBatch).
  void Delay(const CancellationToken& token);

  // Samples `n` message delays and sleeps their sum in one go.
  void DelayBatch(size_t n, const CancellationToken& token);

  NetworkProfile profile_;
  std::mutex mu_;  // guards rng_ and total_delay_ms_
  Rng rng_;
  std::atomic<uint64_t> messages_{0};
  double total_delay_ms_ = 0;
  FaultInjector* injector_ = nullptr;
  obs::Histogram* delay_hist_ = nullptr;
  obs::SpanRecorder* spans_ = nullptr;
  uint64_t parent_span_ = 0;
  std::string span_name_;
};

}  // namespace lakefed::net

#endif  // LAKEFED_NET_NETWORK_H_
