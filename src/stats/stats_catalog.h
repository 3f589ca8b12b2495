// StatsCatalog: per-source statistics the cost-based federated planner
// consumes — per-RDF-MT entity counts, per-predicate triple counts, NDV,
// equi-depth histograms and subject/object multiplicities — plus the
// runtime cardinality feedback loop (actual operator rows folded back after
// each execution so repeated sessions self-correct their estimates).
//
// Collected offline by the AnalyzeSource pass (stats/analyze.h), consumed
// by the CardinalityEstimator (stats/estimator.h). Serializable so a lake's
// statistics can be stored next to its source descriptions.

#ifndef LAKEFED_STATS_STATS_CATALOG_H_
#define LAKEFED_STATS_STATS_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/value.h"

namespace lakefed::stats {

// Equi-depth histogram over the non-null values of one attribute (the
// objects of one predicate). Bounds are rel::Values, so numeric columns
// interpolate within buckets while string columns fall back to bucket
// granularity.
class Histogram {
 public:
  // Builds `buckets` equi-depth buckets from a sample of values. The sample
  // need not be sorted; NULLs must already be excluded by the caller.
  static Histogram FromValues(std::vector<rel::Value> values, size_t buckets);

  // Rebuilds a histogram from its serialized parts (bounds must be sorted).
  static Histogram FromBuckets(rel::Value min,
                               std::vector<rel::Value> upper_bounds,
                               std::vector<size_t> counts, size_t total);

  bool empty() const { return total_ == 0; }
  size_t total() const { return total_; }
  size_t num_buckets() const { return upper_bounds_.size(); }
  const rel::Value& min() const { return min_; }
  const rel::Value& max() const { return upper_bounds_.back(); }
  const std::vector<rel::Value>& upper_bounds() const { return upper_bounds_; }
  const std::vector<size_t>& counts() const { return counts_; }

  // Estimated fraction of values `< v` (or `<= v` when inclusive). Numeric
  // buckets interpolate linearly; non-numeric buckets count half of the
  // containing bucket. Returns values in [0, 1]; 0.5 when empty.
  double FractionBelow(const rel::Value& v, bool inclusive) const;

  // Estimated fraction of values `== v`, given the attribute's NDV: 0 for
  // out-of-range constants, 1/ndv inside the covered range.
  double FractionEqual(const rel::Value& v, uint64_t ndv) const;

 private:
  rel::Value min_;
  std::vector<rel::Value> upper_bounds_;  // inclusive bucket upper bounds
  std::vector<size_t> counts_;            // values per bucket (equi-depth)
  size_t total_ = 0;
};

// Statistics of one predicate of one class at one source. For relational
// sources a "triple" is a non-NULL cell (base table) or a side-table row.
struct AttributeStats {
  uint64_t triple_count = 0;      // (s, p, o) triples with this predicate
  uint64_t distinct_subjects = 0; // subjects carrying the predicate
  uint64_t distinct_objects = 0;  // NDV of the object/attribute values
  uint64_t null_count = 0;        // entities lacking the predicate entirely
  Histogram histogram;            // equi-depth over the object values

  // Mean triples per subject that carries the predicate (>1 = multivalued).
  double SubjectMultiplicity() const {
    return distinct_subjects == 0
               ? 0.0
               : static_cast<double>(triple_count) /
                     static_cast<double>(distinct_subjects);
  }
};

// Statistics of one RDF-MT (class) at one source.
struct ClassStats {
  std::string class_iri;
  uint64_t entity_count = 0;  // instances of the class
  std::map<std::string, AttributeStats> attributes;  // by predicate IRI

  const AttributeStats* Find(const std::string& predicate) const {
    auto it = attributes.find(predicate);
    return it == attributes.end() ? nullptr : &it->second;
  }
};

// All statistics of one source.
struct SourceStats {
  std::string source_id;
  std::map<std::string, ClassStats> classes;  // by class IRI

  const ClassStats* Find(const std::string& class_iri) const {
    auto it = classes.find(class_iri);
    return it == classes.end() ? nullptr : &it->second;
  }
};

// The mediator's statistics store. Source statistics are written by the
// analyze pass (single-threaded, before sessions run) and read lock-free by
// planners; the feedback map is mutated by finishing executions and guarded
// by a mutex, so concurrent sessions may fold actuals back safely.
class StatsCatalog {
 public:
  StatsCatalog() = default;
  StatsCatalog(const StatsCatalog&) = delete;
  StatsCatalog& operator=(const StatsCatalog&) = delete;

  // Adds (or replaces) one source's statistics. Not thread-safe against
  // concurrent readers: analyze before creating sessions.
  void AddSource(SourceStats stats);

  const SourceStats* FindSource(const std::string& source_id) const;
  const ClassStats* Find(const std::string& source_id,
                         const std::string& class_iri) const;
  const AttributeStats* FindAttribute(const std::string& source_id,
                                      const std::string& class_iri,
                                      const std::string& predicate) const;

  size_t num_sources() const { return sources_.size(); }
  bool empty() const { return sources_.empty(); }
  const std::map<std::string, SourceStats>& sources() const {
    return sources_;
  }

  // --- runtime cardinality feedback ------------------------------------

  // Folds the observed row count of the sub-query identified by `key` back
  // into the catalog (exponential smoothing over repeated observations).
  // Thread-safe: called by finishing executions of concurrent sessions.
  void RecordActual(const std::string& key, uint64_t actual_rows);

  // The smoothed observed cardinality for `key`, if any execution reported
  // one. Thread-safe.
  std::optional<double> Feedback(const std::string& key) const;

  // `raw` corrected by feedback: the smoothed actual when `key` was
  // observed before, `raw` untouched otherwise. Thread-safe.
  double Calibrated(const std::string& key, double raw) const;

  size_t feedback_size() const;

  // Copies another catalog's feedback map (used when re-analyzing sources
  // so observed cardinalities survive the refresh). Also advances this
  // catalog's epoch past the other's, so plan-cache entries stamped against
  // the superseded catalog are invalidated by the refresh.
  void MergeFeedbackFrom(const StatsCatalog& other);

  // --- stats epoch -------------------------------------------------------
  // Monotonic generation counter of everything the planner reads from this
  // catalog. It advances when AnalyzeSources replaces the catalog (via
  // MergeFeedbackFrom / SetEpoch) and when RecordActual changes a feedback
  // entry *significantly* (a new key, or a smoothed value moving more than
  // ~10% — steady-state repeats of the same query fold identical actuals
  // and keep the epoch, so plan-cache hit rates survive the feedback loop).
  // Plan-cache entries are stamped with the epoch at planning time and
  // invalidated on mismatch.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }
  void SetEpoch(uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_release);
  }

  // --- serialization ----------------------------------------------------

  // Line-based text form (sources, classes, attributes, histograms and the
  // feedback map). Round-trips through Deserialize.
  std::string Serialize() const;
  static Result<std::unique_ptr<StatsCatalog>> Deserialize(
      const std::string& text);

 private:
  std::map<std::string, SourceStats> sources_;
  mutable std::mutex feedback_mu_;
  std::map<std::string, double> feedback_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace lakefed::stats

#endif  // LAKEFED_STATS_STATS_CATALOG_H_
