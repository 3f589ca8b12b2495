// SourceWrapper: the mediator/wrapper boundary (Wiederhold architecture).
// One wrapper fronts one Data Lake source; the engine talks to sources only
// through this interface. Implementations live in src/wrapper/.

#ifndef LAKEFED_FED_WRAPPER_H_
#define LAKEFED_FED_WRAPPER_H_

#include <algorithm>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/blocking_queue.h"
#include "common/status.h"
#include "fed/row_batch.h"
#include "fed/subquery.h"
#include "mapping/rdf_mt.h"
#include "net/network.h"
#include "rdf/bgp.h"
#include "stats/analyze.h"
#include "stats/stats_catalog.h"

namespace lakefed::fed {

// Everything a wrapper needs to execute one sub-query: where to ship
// answers, the simulated network they cross, the session's cancellation
// token, and the transfer granularity. Fault knobs ride on the channel
// (its attached FaultInjector); retry/failover policy lives above this
// boundary, in the executor.
struct WrapperContext {
  net::DelayChannel* channel = nullptr;
  BlockingQueue<rdf::Binding>* out = nullptr;
  CancellationToken token;
  // Rows per shipped morsel; 1 reproduces the legacy row-at-a-time path.
  size_t batch_size = kDefaultBatchSize;
};

// Ships wrapper answers in morsels: rows accumulate in a buffer that is
// flushed as one DelayChannel::TransferBatch (network accounting for the
// whole morsel) followed by one PushBatch into the output queue. The
// flush threshold ramps 1, 2, 4, ... up to `batch_size`, so the first
// answers still leave with row-at-a-time latency while steady-state
// traffic pays one queue round-trip per morsel. batch_size 1 is exactly
// the legacy per-row behaviour.
class BatchEmitter {
 public:
  explicit BatchEmitter(const WrapperContext& ctx)
      : channel_(ctx.channel),
        out_(ctx.out),
        token_(ctx.token),
        cap_(std::max<size_t>(1, ctx.batch_size)) {}

  // Adds one answer. Returns false when the producer must stop: the
  // downstream is gone (cancelled or closed) or the network faulted
  // mid-batch — Finish() carries the fault status.
  bool Emit(rdf::Binding row) {
    if (!open_) return false;
    buffer_.push_back(std::move(row));
    if (buffer_.size() >= threshold_) {
      Flush();
      threshold_ = std::min(threshold_ * 2, cap_);
    }
    return open_;
  }

  // Ships the trailing partial batch (partial-batch flush on producer
  // close). Returns the first network fault observed, or OK; a rejected
  // push is not an error — the session derives cancellation status from
  // the token.
  Status Finish() {
    if (open_ && !buffer_.empty()) Flush();
    return fault_;
  }

 private:
  void Flush() {
    size_t delivered = 0;
    fault_ = channel_->TransferBatch(buffer_.size(), token_, &delivered);
    // On a mid-batch fault only the messages before it were sent; the
    // faulted row and everything after it drop, as in the row-at-a-time
    // path where the fault aborts the scan before the push.
    if (delivered < buffer_.size()) buffer_.resize(delivered);
    if (!out_->PushBatch(&buffer_, token_)) open_ = false;
    if (!fault_.ok()) open_ = false;
    buffer_.clear();
  }

  net::DelayChannel* channel_;
  BlockingQueue<rdf::Binding>* out_;
  CancellationToken token_;
  const size_t cap_;
  size_t threshold_ = 1;
  std::vector<rdf::Binding> buffer_;
  Status fault_;
  bool open_ = true;
};

// Dependent-join instantiation membership, checked by wrappers on the
// rows they produce: a row passes when it binds every instantiated
// variable to one of the variable's allowed terms. Terms are compared by
// their rdf::AppendTermKey encodings, so the check is exact term equality.
class InstantiationFilter {
 public:
  explicit InstantiationFilter(const SubQuery& subquery) {
    for (const auto& [var, terms] : subquery.instantiations) {
      std::unordered_set<std::string>& set = allowed_[var];
      for (const rdf::Term& t : terms) {
        key_.clear();
        rdf::AppendTermKey(t, &key_);
        set.insert(key_);
      }
    }
  }

  bool Allows(const rdf::Binding& row) {
    for (const auto& [var, set] : allowed_) {
      auto it = row.find(var);
      if (it == row.end()) return false;
      key_.clear();
      rdf::AppendTermKey(it->second, &key_);
      if (set.count(key_) == 0) return false;
    }
    return true;
  }

 private:
  std::map<std::string, std::unordered_set<std::string>> allowed_;
  std::string key_;  // scratch, reused across rows
};

class SourceWrapper {
 public:
  virtual ~SourceWrapper() = default;

  virtual const std::string& id() const = 0;
  virtual SourceKind kind() const = 0;

  // RDF molecule templates this source can answer (source description).
  virtual std::vector<mapping::RdfMt> Molecules() const = 0;

  // --- physical-design introspection (what the paper's heuristics read) ---

  // Is the relational attribute reached by `predicate` on `class_iri`
  // backed by an index? RDF sources report false (not applicable).
  virtual bool IsPredicateAttributeIndexed(
      const std::string& /*class_iri*/,
      const std::string& /*predicate*/) const {
    return false;
  }

  // Is the subject key of `class_iri` indexed (the PK, per the paper's
  // layout assumption)?
  virtual bool IsSubjectKeyIndexed(const std::string& /*class_iri*/) const {
    return false;
  }

  // Can this source execute a merged multi-star sub-query (Heuristic 1)?
  virtual bool SupportsJoinPushdown() const { return false; }

  // May stars `a` and `b` be merged into one sub-query joined on `var`?
  // Relational wrappers verify that both sides construct the shared
  // variable's terms the same way (same IRI template / literal datatype),
  // so that raw column equality in SQL coincides with RDF term equality.
  virtual bool CanPushDownJoin(const StarSubQuery& /*a*/,
                               const StarSubQuery& /*b*/,
                               const std::string& /*var*/) const {
    return SupportsJoinPushdown();
  }

  // Scans the source and fills `out` with its statistics (class/entity
  // counts, per-attribute NDV and histograms) for the cost-based planner.
  // The default yields an empty profile: the estimator then falls back to
  // molecule cardinalities. Called offline (engine AnalyzeSources), never
  // on the query path.
  virtual Status CollectStatistics(const stats::AnalyzeOptions& options,
                                   stats::SourceStats* out) const {
    (void)options;
    out->source_id = id();
    out->classes.clear();
    return Status::OK();
  }

  // Version of the data this source serves. The sub-answer cache keys leaf
  // results on it, so a wrapper whose backing store can change underneath
  // the engine should bump the version on every mutation — cached
  // sub-answers from older versions then stop matching. The bundled
  // wrappers are read-only at query time, so the constant default is
  // correct for them.
  virtual uint64_t DataVersion() const { return 0; }

  // --- execution ---

  // Executes `subquery`, shipping answers into `ctx.out` in morsels of up
  // to `ctx.batch_size` rows (BatchEmitter does the bookkeeping); every
  // answer is accounted on `ctx.channel` (network simulation + fault
  // injection). Blocking; the engine runs it as a job on the worker pool's
  // I/O threads and closes `ctx.out` afterwards. Implementations must stop early when the
  // emitter reports a dead downstream (cancellation closes `ctx.out`) and
  // should poll `ctx.token` between answers, returning Status::OK() when
  // stopping because of cancellation — the session derives the terminal
  // kCancelled / kDeadlineExceeded status from the token itself.
  virtual Status Execute(const SubQuery& subquery,
                         const WrapperContext& ctx) = 0;
};

}  // namespace lakefed::fed

#endif  // LAKEFED_FED_WRAPPER_H_
