#include "net/network.h"

#include <array>
#include <chrono>
#include <thread>

namespace lakefed::net {

NetworkProfile NetworkProfile::NoDelay() {
  return NetworkProfile{"NoDelay", 0.0, 0.0, 1.0};
}

NetworkProfile NetworkProfile::Gamma1() {
  return NetworkProfile{"Gamma1", 1.0, 0.3, 1.0};
}

NetworkProfile NetworkProfile::Gamma2() {
  return NetworkProfile{"Gamma2", 3.0, 1.0, 1.0};
}

NetworkProfile NetworkProfile::Gamma3() {
  return NetworkProfile{"Gamma3", 3.0, 1.5, 1.0};
}

NetworkProfile NetworkProfile::Custom(std::string name, double alpha,
                                      double beta) {
  return NetworkProfile{std::move(name), alpha, beta, 1.0};
}

const std::array<NetworkProfile, 4>& NetworkProfile::PaperProfiles() {
  static const std::array<NetworkProfile, 4>* kProfiles =
      new std::array<NetworkProfile, 4>{NoDelay(), Gamma1(), Gamma2(),
                                        Gamma3()};
  return *kProfiles;
}

DelayChannel::DelayChannel(NetworkProfile profile, uint64_t seed)
    : profile_(std::move(profile)), rng_(seed) {}

double DelayChannel::SampleDelayMs() {
  if (!profile_.HasDelay()) return 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.Gamma(profile_.alpha, profile_.beta) * profile_.time_scale;
}

Status DelayChannel::Transfer(const CancellationToken& token) {
  messages_.fetch_add(1, std::memory_order_relaxed);
  Delay(token);
  // Faults fire after the delay: the message cost was paid either way.
  if (injector_ != nullptr) return injector_->OnMessage(token);
  return Status::OK();
}

Status DelayChannel::TransferBatch(size_t n, const CancellationToken& token,
                                   size_t* delivered_out) {
  if (delivered_out != nullptr) *delivered_out = n;
  if (n == 0) return Status::OK();
  if (injector_ == nullptr) {
    messages_.fetch_add(n, std::memory_order_relaxed);
    DelayBatch(n, token);
    return Status::OK();
  }
  // With faults possible, run the faithful per-message sequence so the
  // accounting under a mid-batch fault matches the row-at-a-time path.
  for (size_t i = 0; i < n; ++i) {
    messages_.fetch_add(1, std::memory_order_relaxed);
    Delay(token);
    Status fault = injector_->OnMessage(token);
    if (!fault.ok()) {
      if (delivered_out != nullptr) *delivered_out = i;
      return fault;
    }
  }
  return Status::OK();
}

void DelayChannel::DelayBatch(size_t n, const CancellationToken& token) {
  if (!profile_.HasDelay()) return;
  double batch_ms = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      const double delay_ms =
          rng_.Gamma(profile_.alpha, profile_.beta) * profile_.time_scale;
      total_delay_ms_ += delay_ms;
      batch_ms += delay_ms;
      // Histogram recording is lock-free (atomics), so recording the
      // per-message samples while holding the channel lock is safe.
      if (delay_hist_ != nullptr) delay_hist_->Record(delay_ms);
    }
  }
  if (batch_ms <= 0) return;
  obs::Span span(spans_, span_name_, parent_span_);
  token.SleepFor(batch_ms);
}

void DelayChannel::Delay(const CancellationToken& token) {
  // A profile without delay records nothing: an all-zero latency histogram
  // carries no information (message counts are tracked separately), and
  // per-message histogram updates are the one instrumentation cost that
  // scales with traffic.
  if (!profile_.HasDelay()) return;
  double delay_ms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    delay_ms = rng_.Gamma(profile_.alpha, profile_.beta) * profile_.time_scale;
    total_delay_ms_ += delay_ms;
  }
  if (delay_hist_ != nullptr) delay_hist_->Record(delay_ms);
  if (delay_ms <= 0) return;
  obs::Span span(spans_, span_name_, parent_span_);
  token.SleepFor(delay_ms);
}

double DelayChannel::total_delay_ms() const {
  std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(mu_));
  return total_delay_ms_;
}

}  // namespace lakefed::net
