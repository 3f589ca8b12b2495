// Lightweight hierarchical spans: one SpanRecorder per query session
// records the timing tree parse -> decompose -> source-select -> plan ->
// per-operator execute -> per-source wrapper call -> network transfer.
//
// The recorder is bounded (kDefaultMaxSpans) so instrumenting per-message
// network transfers cannot grow memory without limit: once full, StartSpan
// returns 0 (a no-op span) and the drop is counted. A null recorder makes
// every operation a no-op, which is how PlanOptions::collect_metrics=false
// keeps the hot path free of instrumentation cost.

#ifndef LAKEFED_OBS_SPAN_H_
#define LAKEFED_OBS_SPAN_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.h"

namespace lakefed::obs {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent_id = 0;  // 0 = root
  std::string name;
  double start_ms = 0;
  double end_ms = -1;  // < 0 while the span is open
  bool open() const { return end_ms < 0; }
  double duration_ms() const { return open() ? 0 : end_ms - start_ms; }
};

class SpanRecorder {
 public:
  static constexpr size_t kDefaultMaxSpans = 8192;

  explicit SpanRecorder(size_t max_spans = kDefaultMaxSpans)
      : max_spans_(max_spans) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Opens a span; 0 = dropped (recorder full). Thread-safe.
  uint64_t StartSpan(std::string name, uint64_t parent_id = 0);
  // Closes the span; unknown/0 ids are ignored.
  void EndSpan(uint64_t id);

  std::vector<SpanRecord> Snapshot() const;
  uint64_t dropped() const;
  size_t size() const;

  // Indented tree, children ordered by start time; open spans are marked.
  std::string ToText() const;
  // JSON array [{"id":..,"parent":..,"name":..,"start_ms":..,"end_ms":..}].
  std::string ToJson() const;

 private:
  Stopwatch clock_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::unordered_map<uint64_t, size_t> open_index_;  // id -> spans_ index
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
  const size_t max_spans_;
};

// RAII span: ends at scope exit. All operations are no-ops when the
// recorder is null, so call sites need no `if (collect_metrics)` guards.
class Span {
 public:
  Span() = default;
  Span(SpanRecorder* recorder, std::string name, uint64_t parent_id = 0)
      : recorder_(recorder),
        id_(recorder == nullptr ? 0
                                : recorder->StartSpan(std::move(name),
                                                      parent_id)) {}
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept
      : recorder_(other.recorder_), id_(other.id_) {
    other.recorder_ = nullptr;
    other.id_ = 0;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      End();
      recorder_ = other.recorder_;
      id_ = other.id_;
      other.recorder_ = nullptr;
      other.id_ = 0;
    }
    return *this;
  }

  void End() {
    if (recorder_ != nullptr && id_ != 0) recorder_->EndSpan(id_);
    recorder_ = nullptr;
    id_ = 0;
  }

  // Parent id for nested spans (0 when no-op, which nests under the root).
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_ = nullptr;
  uint64_t id_ = 0;
};

}  // namespace lakefed::obs

#endif  // LAKEFED_OBS_SPAN_H_
