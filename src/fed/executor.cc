#include "fed/executor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/blocking_queue.h"
#include "common/retry.h"
#include "common/stopwatch.h"
#include "fed/breaker.h"
#include "fed/cache.h"
#include "fed/join_index.h"
#include "fed/latency.h"
#include "fed/subquery.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sparql/aggregate.h"
#include "stats/stats_catalog.h"
#include "svc/scheduler.h"

namespace lakefed::fed {
namespace {

using RowQueue = BlockingQueue<rdf::Binding>;
using RowQueuePtr = std::shared_ptr<RowQueue>;

constexpr size_t kQueueCapacity = 4096;
// Capacity of the queues I/O-pool jobs push into: leaf outputs and the
// retry, hedge, cache and probe staging queues. An I/O job must never wait
// on a consumer outside the bounded pool — a client holding an undrained
// stream would otherwise park pool threads until other sessions starve.
constexpr size_t kUnbounded = static_cast<size_t>(1) << 30;
constexpr size_t kDependentJoinBatch = 64;

// The distinct terms `var` binds over `rows`, in first-seen order: the
// instantiation list of a dependent-join probe.
std::vector<rdf::Term> DistinctTerms(const std::vector<rdf::Binding>& rows,
                                     const std::string& var) {
  std::vector<rdf::Term> terms;
  std::unordered_set<rdf::Term, rdf::TermHash> seen;
  for (const rdf::Binding& row : rows) {
    auto it = row.find(var);
    if (it != row.end() && seen.insert(it->second).second) {
      terms.push_back(it->second);
    }
  }
  return terms;
}

// Per-operator runtime recorder: attached as the wait observer of the
// operator's output queue (so push waits = backpressure on this operator,
// pop waits = consumer starvation for its output) and fed the operator's
// wall time. Lock-free — callbacks fire from producer and consumer threads
// concurrently. Also mirrors every wait into the execution-wide
// queue-wait histograms when those are attached.
class OpRuntimeRec : public QueueWaitObserver {
 public:
  OpRuntimeRec(obs::Histogram* push_wait_hist, obs::Histogram* pop_wait_hist)
      : push_wait_hist_(push_wait_hist), pop_wait_hist_(pop_wait_hist) {}

  void OnPushWait(double wait_ms) override {
    push_waits_.fetch_add(1, std::memory_order_relaxed);
    push_wait_us_.fetch_add(ToUs(wait_ms), std::memory_order_relaxed);
    if (push_wait_hist_ != nullptr) push_wait_hist_->Record(wait_ms);
  }

  void OnPopWait(double wait_ms) override {
    pop_waits_.fetch_add(1, std::memory_order_relaxed);
    pop_wait_us_.fetch_add(ToUs(wait_ms), std::memory_order_relaxed);
    if (pop_wait_hist_ != nullptr) pop_wait_hist_->Record(wait_ms);
  }

  void OnDepth(size_t depth) override {
    const uint64_t d = static_cast<uint64_t>(depth);
    depth_samples_.fetch_add(1, std::memory_order_relaxed);
    depth_sum_.fetch_add(d, std::memory_order_relaxed);
    uint64_t cur = peak_depth_.load(std::memory_order_relaxed);
    while (d > cur && !peak_depth_.compare_exchange_weak(
                          cur, d, std::memory_order_relaxed)) {
    }
  }

  // Operator wall time (task or leaf job lifetime). Concurrent producers of one queue (UNION
  // arms) keep the maximum — the arm that finished last bounds the
  // operator's elapsed time.
  void RecordWall(double wall_ms) {
    const uint64_t us = ToUs(wall_ms);
    uint64_t cur = wall_us_.load(std::memory_order_relaxed);
    while (us > cur && !wall_us_.compare_exchange_weak(
                           cur, us, std::memory_order_relaxed)) {
    }
    measured_.store(true, std::memory_order_relaxed);
  }

  // Writes the runtime fields of the operator's record. Call after every
  // task and I/O job of the dataflow has finished.
  void Fill(obs::OperatorRuntime* rt) const {
    rt->wall_ms = measured_.load(std::memory_order_relaxed)
                      ? static_cast<double>(
                            wall_us_.load(std::memory_order_relaxed)) /
                            1e3
                      : -1;
    rt->push_waits = push_waits_.load(std::memory_order_relaxed);
    rt->push_wait_ms =
        static_cast<double>(push_wait_us_.load(std::memory_order_relaxed)) /
        1e3;
    rt->pop_waits = pop_waits_.load(std::memory_order_relaxed);
    rt->pop_wait_ms =
        static_cast<double>(pop_wait_us_.load(std::memory_order_relaxed)) /
        1e3;
    rt->depth_samples = depth_samples_.load(std::memory_order_relaxed);
    rt->peak_depth = peak_depth_.load(std::memory_order_relaxed);
    rt->depth_sum =
        static_cast<double>(depth_sum_.load(std::memory_order_relaxed));
  }

 private:
  // Durations accumulate as integer microseconds so fetch_add stays a plain
  // atomic RMW (no double CAS loop on the hot path).
  static uint64_t ToUs(double ms) {
    return ms <= 0 ? 0 : static_cast<uint64_t>(ms * 1e3);
  }

  obs::Histogram* push_wait_hist_;
  obs::Histogram* pop_wait_hist_;
  std::atomic<uint64_t> push_waits_{0};
  std::atomic<uint64_t> push_wait_us_{0};
  std::atomic<uint64_t> pop_waits_{0};
  std::atomic<uint64_t> pop_wait_us_{0};
  std::atomic<uint64_t> depth_samples_{0};
  std::atomic<uint64_t> depth_sum_{0};
  std::atomic<uint64_t> peak_depth_{0};
  std::atomic<uint64_t> wall_us_{0};
  std::atomic<bool> measured_{false};
};

// ======================================================================
// Cooperative task dataflow.
//
// Every operator is a resumable task on the svc::Scheduler worker pool. A
// task's Step() does a bounded slice of work — pop up to a few input
// morsels, compute, push — and parks on BlockingQueue readiness events
// instead of blocking a thread. Leaf wrapper calls and dependent-join
// probes, which sleep on the simulated network, run as one-shot jobs on
// the scheduler's auxiliary I/O pool.

// Counts an execution's outstanding tasks and I/O jobs so Finish() can
// wait for all of them. A collecting session (ResultStream::Collect) also
// arms it with its collector task, which the root's readable listener
// (wired before the dataflow starts) wakes, and with a hook that the
// Done() bringing the count to zero runs once.
class TaskGroup {
 public:
  void Add() {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
  }
  void Done() {
    std::function<void()> idle;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--outstanding_ != 0) return;
      cv_.notify_all();
      idle.swap(on_idle_);
    }
    if (idle != nullptr) idle();
  }
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return outstanding_ == 0; });
  }
  // Arm only while something is outstanding.
  void Collect(svc::Scheduler::TaskRef collector,
               std::function<void()> on_idle) {
    std::lock_guard<std::mutex> lock(mu_);
    collector_ = std::move(collector);
    on_idle_ = std::move(on_idle);
  }
  void WakeCollector(svc::Scheduler* sched) {
    svc::Scheduler::TaskRef ref;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ref = collector_;
    }
    if (ref != nullptr) sched->Wake(ref);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;
  svc::Scheduler::TaskRef collector_;
  std::function<void()> on_idle_;
};

// A task's output side. Rows accumulate in an overflow buffer and move
// into the queue opportunistically, so a task can always finish its Step
// and report kBlocked instead of stalling a worker on a full queue.
// Position-based (TryPushBatch) so a partially shipped buffer costs no
// erases. Operators flush after every consumed input morsel, so batching
// never withholds rows that are ready.
class TaskWriter {
 public:
  enum class State {
    kOk,      // buffer fully shipped
    kFull,    // downstream full — retry after a writable event
    kClosed,  // downstream gone — the producer must stop
  };

  TaskWriter(RowQueue* out, size_t batch_size)
      : out_(out), cap_(std::max<size_t>(1, batch_size)) {}

  // Appends one output row, shipping eagerly at morsel granularity. Rows
  // added after the downstream closed are dropped.
  void Add(rdf::Binding row) {
    if (closed_) return;
    buffer_.push_back(std::move(row));
    if (buffer_.size() - pos_ >= cap_) TryFlush();
  }

  State TryFlush() {
    if (closed_) return State::kClosed;
    if (pos_ >= buffer_.size()) {
      Reset();
      return State::kOk;
    }
    if (!out_->TryPushBatch(&buffer_, &pos_)) {
      closed_ = true;
      Reset();
      return State::kClosed;
    }
    if (pos_ >= buffer_.size()) {
      Reset();
      return State::kOk;
    }
    return State::kFull;
  }

 private:
  void Reset() {
    buffer_.clear();
    pos_ = 0;
  }

  RowQueue* out_;
  const size_t cap_;
  std::vector<rdf::Binding> buffer_;
  size_t pos_ = 0;    // buffer elements [0, pos_) are already in the queue
  bool closed_ = false;
};

// Input morsels consumed per Step before yielding: large enough to amortize
// the scheduling overhead, small enough to keep many concurrent queries
// interleaving fairly on a few workers.
constexpr int kTaskSlicesPerStep = 4;

// What a parked task is waiting for; determines how the park->resume time
// is attributed when it wakes (pop wait on its input, push wait on its
// output, or nothing for I/O — network time is measured by DelayChannel).
enum class BlockOn { kNone, kInput, kOutput, kIo };

// Base of every operator task: owns the operator span, the wall clock
// (construction -> completion), the output writer and the done hook,
// counts itself in the execution's TaskGroup, and reports block durations
// to the waited-on queue's observer, so EXPLAIN ANALYZE attributes a
// task's parks like the blocking queue attributes its waits.
class OpTask : public svc::Task {
 public:
  // Runs exactly once at completion: close inputs/outputs, decrement arm
  // countdowns. May be null.
  using DoneFn = std::function<void()>;

  OpTask(std::shared_ptr<TaskGroup> group,
         std::shared_ptr<OpRuntimeRec> wall_rec, obs::Span span,
         RowQueuePtr out, size_t batch, CancellationToken token, DoneFn done)
      : writer_(out.get(), batch),
        batch_(batch),
        token_(std::move(token)),
        group_(std::move(group)),
        wall_rec_(std::move(wall_rec)),
        span_(std::move(span)),
        out_(std::move(out)),
        done_(std::move(done)) {
    group_->Add();
  }

  svc::TaskResult Step() final {
    if (blocked_on_ != BlockOn::kNone) AttributeBlock();
    svc::TaskResult r = RunStep();
    if (r == svc::TaskResult::kDone && !completed_) {
      completed_ = true;
      if (wall_rec_ != nullptr) wall_rec_->RecordWall(wall_.ElapsedMillis());
      span_.End();
      group_->Done();
    }
    return r;
  }

 protected:
  virtual svc::TaskResult RunStep() = 0;

  // Parks the task. `obs` is the waited-on queue's observer (null = no
  // metrics, or an I/O wait): it receives the park->resume duration on the
  // next Step, including waits ended by close/cancel — the same accounting
  // the blocking queue applies to its terminal waits. A task waiting on two
  // inputs at once names the second one's observer in `also`.
  svc::TaskResult Block(BlockOn on, QueueWaitObserver* obs,
                        QueueWaitObserver* also = nullptr) {
    blocked_on_ = on;
    block_obs_ = {obs, also};
    if (obs != nullptr || also != nullptr) block_watch_.Restart();
    return svc::TaskResult::kBlocked;
  }

  // Ships the buffered output. Returns what the step must report when it
  // cannot go on — kBlocked while the downstream is full, kDone once it
  // closed or once a draining task has shipped everything — and nullopt
  // when the step may continue.
  std::optional<svc::TaskResult> Ship() {
    switch (writer_.TryFlush()) {
      case TaskWriter::State::kClosed: return Complete();
      case TaskWriter::State::kFull:
        return Block(BlockOn::kOutput, out_->wait_observer());
      case TaskWriter::State::kOk: break;
    }
    if (draining_) return Complete();
    return std::nullopt;
  }

  // The input is done (exhausted, or LIMIT satisfied): ship the remainder,
  // then complete.
  svc::TaskResult Drain() {
    draining_ = true;
    return *Ship();
  }

  svc::TaskResult Complete() {
    if (done_ != nullptr) {
      done_();
      done_ = nullptr;
    }
    return svc::TaskResult::kDone;
  }

  TaskWriter writer_;
  const size_t batch_;  // input morsel size
  CancellationToken token_;

 private:
  void AttributeBlock() {
    for (QueueWaitObserver* obs : block_obs_) {
      if (obs == nullptr) continue;
      const double ms = block_watch_.ElapsedMillis();
      if (blocked_on_ == BlockOn::kInput) {
        obs->OnPopWait(ms);
      } else if (blocked_on_ == BlockOn::kOutput) {
        obs->OnPushWait(ms);
      }
    }
    blocked_on_ = BlockOn::kNone;
    block_obs_ = {};
  }

  std::shared_ptr<TaskGroup> group_;
  std::shared_ptr<OpRuntimeRec> wall_rec_;
  obs::Span span_;
  RowQueuePtr out_;
  DoneFn done_;
  Stopwatch wall_;
  Stopwatch block_watch_;
  BlockOn blocked_on_ = BlockOn::kNone;
  std::array<QueueWaitObserver*, 2> block_obs_ = {};
  bool draining_ = false;  // input done; only the writer remainder is left
  bool completed_ = false;
};

// Generic streaming operator task: pop a morsel, fold it into the output
// writer, repeat. Covers every one-input operator (filter, project,
// distinct, limit, order-by, aggregate, union arms) through two hooks.
class RelayTask final : public OpTask {
 public:
  // Folds one popped input morsel into the writer. Returning false stops
  // consuming input early (LIMIT satisfied) — treated like exhaustion.
  using ProcessFn =
      std::function<bool(std::vector<rdf::Binding>&&, TaskWriter*)>;
  // Runs once when the input is exhausted, before the final flush
  // (ORDER BY emits its sorted buffer here). May be null.
  using FinalizeFn = std::function<void(TaskWriter*)>;

  RelayTask(std::shared_ptr<TaskGroup> group,
            std::shared_ptr<OpRuntimeRec> wall_rec, obs::Span span,
            RowQueuePtr in, RowQueuePtr out, size_t batch,
            CancellationToken token, ProcessFn process, FinalizeFn finalize,
            DoneFn done)
      : OpTask(std::move(group), std::move(wall_rec), std::move(span),
               std::move(out), batch, std::move(token), std::move(done)),
        in_(std::move(in)),
        process_(std::move(process)),
        finalize_(std::move(finalize)) {}

 protected:
  svc::TaskResult RunStep() override {
    if (auto r = Ship()) return *r;
    for (int slice = 0; slice < kTaskSlicesPerStep; ++slice) {
      // A cancelled pop must not drain residual rows — mirror the
      // token-aware PopBatch, which returns 0 the moment the token fires.
      if (token_.IsCancelled()) return Complete();
      bool exhausted = false;
      if (in_->TryPopBatch(&in_batch_, batch_, &exhausted) == 0) {
        if (!exhausted) {
          return Block(BlockOn::kInput, in_->wait_observer());
        }
        return Finalize();
      }
      if (!process_(std::move(in_batch_), &writer_)) return Finalize();
      if (auto r = Ship()) return *r;
    }
    return svc::TaskResult::kYield;
  }

 private:
  svc::TaskResult Finalize() {
    if (finalize_ != nullptr) finalize_(&writer_);
    return Drain();
  }

  RowQueuePtr in_;
  ProcessFn process_;
  FinalizeFn finalize_;
  std::vector<rdf::Binding> in_batch_;
};

// Hash join of two inputs, inner or left-outer (OPTIONAL), one join index
// per side. The inner join is symmetric (the adaptive part of agjoin): it
// reads whichever input has rows, stores each row in its side's index and
// probes the other side's. Once one input is exhausted, the other side's
// stored rows can meet no new partner: they are freed, and that side's
// later rows only probe. The left-outer join can only call a left row
// unmatched once it has seen the whole right side, so it reads the right
// input to the end first; its left rows then only probe, and a left row
// without a partner is emitted alone. Readable events from either input
// wake the task.
class JoinTask final : public OpTask {
 public:
  JoinTask(std::shared_ptr<TaskGroup> group,
           std::shared_ptr<OpRuntimeRec> wall_rec, obs::Span span,
           RowQueuePtr left, RowQueuePtr right, RowQueuePtr out, size_t batch,
           CancellationToken token, std::vector<std::string> join_vars,
           bool left_outer, DoneFn done)
      : OpTask(std::move(group), std::move(wall_rec), std::move(span),
               std::move(out), batch, std::move(token), std::move(done)),
        join_vars_(std::move(join_vars)),
        sides_{Side{std::move(left), JoinIndex(&join_vars_)},
               Side{std::move(right), JoinIndex(&join_vars_)}},
        left_outer_(left_outer) {}

 protected:
  svc::TaskResult RunStep() override {
    if (auto r = Ship()) return *r;
    for (int slice = 0; slice < kTaskSlicesPerStep; ++slice) {
      if (token_.IsCancelled()) return Complete();
      // Alternate the sides so a fast input cannot starve a slow one.
      bool progressed = false;
      for (int attempt = 0; attempt < 2 && !progressed; ++attempt) {
        const int side = next_side_;
        next_side_ = 1 - side;
        progressed = Consume(side);
      }
      if (sides_[0].exhausted && sides_[1].exhausted) return Drain();
      if (!progressed) {
        return Block(BlockOn::kInput, WaitObserver(0), WaitObserver(1));
      }
      if (auto r = Ship()) return *r;
    }
    return svc::TaskResult::kYield;
  }

 private:
  struct Side {
    RowQueuePtr queue;
    JoinIndex index;
    bool exhausted = false;
  };

  bool Readable(int side) const {
    if (sides_[side].exhausted) return false;
    return !(left_outer_ && side == 0 && !sides_[1].exhausted);
  }

  // Pops and joins one morsel of `side`. False if the side is not
  // readable or has nothing queued; true on rows or on its exhaustion,
  // which may make the other side readable (its readable event may have
  // fired while it was not, so the step must not park on it).
  bool Consume(int side) {
    if (!Readable(side)) return false;
    Side& own = sides_[side];
    Side& other = sides_[1 - side];
    bool exhausted = false;
    if (own.queue->TryPopBatch(&in_batch_, batch_, &exhausted) == 0) {
      if (!exhausted) return false;
      own.exhausted = true;
      other.index.Clear();
      return true;
    }
    const bool keep_unmatched = left_outer_ && side == 0;
    for (rdf::Binding& row : in_batch_) {
      std::optional<size_t> hash = own.index.HashOf(row);
      bool matched = false;
      if (hash.has_value()) {
        // Rows are stored only while the other side can still deliver a
        // partner; the reference stays valid while the other index probes.
        const rdf::Binding& probe =
            other.exhausted ? row : own.index.Insert(*hash, std::move(row));
        other.index.ForEachMatch(probe, *hash, [&](const rdf::Binding& match) {
          writer_.Add(side == 0 ? MergeBindings(probe, match)
                                : MergeBindings(match, probe));
          matched = true;
        });
      }
      if (keep_unmatched && !matched) writer_.Add(std::move(row));
    }
    return true;
  }

  QueueWaitObserver* WaitObserver(int side) const {
    return Readable(side) ? sides_[side].queue->wait_observer() : nullptr;
  }

  const std::vector<std::string> join_vars_;
  std::array<Side, 2> sides_;  // 0 = left, 1 = right
  const bool left_outer_;
  std::vector<rdf::Binding> in_batch_;
  int next_side_ = 0;
};

// Result cell of one dependent-join probe round trip, filled by an I/O-pool
// job while the task is parked on BlockOn::kIo. `ready` is written and read
// under `mu` — a mutex rather than an atomic flag, because the scheduler
// coalesces wakes: when the completion's Wake() lands on a task that is
// already queued for an unrelated event it is a no-op, and nothing would
// order the job's store before that run's load. The mutex totally orders
// the two critical sections, so a step that reads ready == false provably
// precedes the publication — the publisher's Wake() then finds the task
// running or parked and cannot be swallowed.
struct ProbeResult {
  std::vector<rdf::Binding> rows;
  bool failed = false;
  std::mutex mu;
  bool ready = false;  // guarded by mu
};

// Dependent (bind) join: accumulates left rows into a probe window, hands
// the bound sub-query to the I/O pool, parks, and joins the probe window
// against the result when woken. The window ramps from kDependentJoinBatch
// up to the exchange morsel size: early answers still need only 64 left
// rows, while long probes amortize the per-call cost (SQL translation +
// inner scan) over up to batch_size instantiations. Windowing only
// partitions the probe rows, so the join's binding multiset is unchanged.
class DependentJoinTask final : public OpTask {
 public:
  using ProbeFn =
      std::function<void(SubQuery, std::shared_ptr<ProbeResult>)>;

  DependentJoinTask(std::shared_ptr<TaskGroup> group,
                    std::shared_ptr<OpRuntimeRec> wall_rec, obs::Span span,
                    RowQueuePtr left, RowQueuePtr out, size_t batch,
                    CancellationToken token,
                    std::vector<std::string> join_vars, SubQuery subquery,
                    DoneFn done)
      : OpTask(std::move(group), std::move(wall_rec), std::move(span),
               std::move(out), batch, std::move(token), std::move(done)),
        left_(std::move(left)),
        max_window_(std::max(batch, kDependentJoinBatch)),
        join_vars_(std::move(join_vars)),
        bind_var_(join_vars_.front()),
        subquery_(std::move(subquery)) {}

  // Installed after registration: the submit closure wakes the task through
  // its TaskRef, which does not exist at construction time. The closure's
  // TaskRef -> task cycle ends when the scheduler releases the finished
  // task.
  void set_probe_fn(ProbeFn fn) { probe_fn_ = std::move(fn); }

 protected:
  svc::TaskResult RunStep() override {
    if (auto r = Ship()) return *r;
    for (int slice = 0; slice < kTaskSlicesPerStep; ++slice) {
      if (awaiting_) {
        {
          std::lock_guard<std::mutex> lock(result_->mu);
          if (!result_->ready) {
            return Block(BlockOn::kIo, nullptr);  // spurious wake
          }
        }
        awaiting_ = false;
        if (result_->failed) return Complete();  // error already recorded
        JoinProbe();
        result_.reset();
        if (final_probe_) return Drain();
        if (auto r = Ship()) return *r;
        continue;
      }
      if (token_.IsCancelled()) return Complete();
      if (in_pos_ >= in_rows_.size()) {
        in_rows_.clear();
        in_pos_ = 0;
        bool exhausted = false;
        if (left_->TryPopBatch(&in_rows_, batch_, &exhausted) == 0) {
          if (!exhausted) {
            return Block(BlockOn::kInput, left_->wait_observer());
          }
          if (probe_.empty()) return Drain();
          final_probe_ = true;
          return LaunchProbe();
        }
      }
      // Fill the probe window row by row, so probe partitions (and thus
      // per-probe output order) do not depend on input morsel boundaries.
      while (in_pos_ < in_rows_.size() && probe_.size() < window_) {
        probe_.push_back(std::move(in_rows_[in_pos_++]));
      }
      if (probe_.size() >= window_) return LaunchProbe();
    }
    return svc::TaskResult::kYield;
  }

 private:
  svc::TaskResult LaunchProbe() {
    SubQuery bound = subquery_;
    bound.instantiations[bind_var_] = DistinctTerms(probe_, bind_var_);
    result_ = std::make_shared<ProbeResult>();
    awaiting_ = true;
    probe_fn_(std::move(bound), result_);
    return Block(BlockOn::kIo, nullptr);
  }

  void JoinProbe() {
    JoinIndex right(&join_vars_);
    for (rdf::Binding& row : result_->rows) {
      if (auto hash = right.HashOf(row)) right.Insert(*hash, std::move(row));
    }
    for (const rdf::Binding& lrow : probe_) {
      auto hash = right.HashOf(lrow);
      if (!hash.has_value()) continue;
      right.ForEachMatch(lrow, *hash, [&](const rdf::Binding& rrow) {
        writer_.Add(MergeBindings(lrow, rrow));
      });
    }
    probe_.clear();
    window_ = std::min(window_ * 2, max_window_);
  }

  RowQueuePtr left_;
  size_t window_ = kDependentJoinBatch;
  const size_t max_window_;
  const std::vector<std::string> join_vars_;
  const std::string bind_var_;
  const SubQuery subquery_;
  ProbeFn probe_fn_;
  std::vector<rdf::Binding> probe_;
  std::vector<rdf::Binding> in_rows_;
  size_t in_pos_ = 0;
  std::shared_ptr<ProbeResult> result_;
  bool awaiting_ = false;     // a probe is in flight on the I/O pool
  bool final_probe_ = false;  // input exhausted; this probe is the last
};

}  // namespace

// Builds the task/queue dataflow of one plan instance and exposes its root
// queue. Teardown is two-layered: the cancellation token closes every queue
// as soon as it fires (waking parked tasks and blocked consumers), and
// Finish() closes them again defensively before waiting for the tasks, so
// abandoning a stream mid-way can never leave a producer parked for good.
class PlanExecution::Impl {
 public:
  Impl(const std::map<std::string, SourceWrapper*>& wrappers,
       const PlanOptions& options, CancellationToken token)
      : wrappers_(wrappers),
        options_(options),
        token_(token.MakeChild(token.deadline())),
        batch_(std::max<size_t>(1, options.batch_size)) {
    // Recovery accounting always goes through the local registry (it is
    // what ExecutionStats reads at Finish, so it must count this execution
    // alone, not everything the session's registry has seen). Histograms
    // and spans are recorded only when metrics collection is on, and
    // directly into the session's registry when one is attached — skipping
    // a snapshot+merge round trip per query.
    retries_counter_ = local_metrics_.GetCounter("exec.retries");
    failovers_counter_ = local_metrics_.GetCounter("exec.failovers");
    breaker_rejections_counter_ =
        local_metrics_.GetCounter("exec.breaker_rejections");
    // Tail-tolerance counters exist only when their feature is on, so the
    // default path's registry (and metrics JSON) is unchanged.
    if (options_.hedge.enabled) {
      hedges_fired_counter_ = local_metrics_.GetCounter("exec.hedges_fired");
      hedge_wins_counter_ = local_metrics_.GetCounter("exec.hedge_wins");
      hedges_cancelled_counter_ =
          local_metrics_.GetCounter("exec.hedges_cancelled");
      hedges_suppressed_counter_ =
          local_metrics_.GetCounter("exec.hedges_suppressed");
      hedge_budget_query_.store(options_.hedge.max_per_query,
                                std::memory_order_relaxed);
    }
    if (options_.adaptive_timeout.enabled) {
      adaptive_timeouts_counter_ =
          local_metrics_.GetCounter("exec.adaptive_timeouts");
    }
    if (options_.answer_cache && options_.answers != nullptr) {
      answer_hits_counter_ = local_metrics_.GetCounter("exec.subanswer_hits");
      answer_misses_counter_ =
          local_metrics_.GetCounter("exec.subanswer_misses");
      // The validity stamp every lookup and insert of this execution uses,
      // taken once, before any leaf runs: a concurrent epoch bump makes the
      // entries this execution writes look stale to later readers — never
      // the other way around.
      answer_stamp_.structural = options_.answers->structural_epoch();
      answer_stamp_.stats = options_.stats_catalog != nullptr
                                ? options_.stats_catalog->epoch()
                                : 0;
      answer_stamp_.routing = options_.breakers != nullptr
                                  ? options_.breakers->routing_epoch()
                                  : 0;
    }
    sink_ = options_.collect_metrics && options_.metrics != nullptr
                ? options_.metrics
                : &local_metrics_;
    if (options_.collect_metrics) spans_ = options_.spans;
  }

  ~Impl() { Finish(); }

  void Start(const FederatedPlan& plan) {
    exec_span_ = obs::Span(spans_, "execute", options_.parent_span);
    exec_span_id_ = exec_span_.id();
    if (sched_ == nullptr) {
      RecordError(Status::InvalidArgument(
          "PlanOptions::scheduler is required to execute a plan"));
      return;
    }
    root_ = StartNode(*plan.root);
    root_->AddReadableListener(
        [group = task_group_, sched = sched_] { group->WakeCollector(sched); });
    // Every kick-off (initial wakes, leaf I/O submissions) waits until the
    // whole tree is wired: queue readiness listeners must be frozen before
    // the first producer can push.
    for (const std::function<void()>& start : deferred_starts_) start();
    deferred_starts_.clear();
  }

  bool NextBatch(RowBatch* batch) {
    batch->clear();
    if (root_ == nullptr || finished_) return false;
    return root_->PopBatch(&batch->rows, batch_, token_) > 0;
  }

  void Collect(std::function<void(std::vector<rdf::Binding>&&)> sink,
               std::function<void()> on_done) {
    if (root_ == nullptr || finished_) {
      on_done();  // nothing runs (or ran): there is nothing to wait for
      return;
    }
    // A relay without an output: each popped morsel goes to the sink. Like
    // a cancelled PopBatch, it stops at cancellation without draining.
    auto task = std::make_unique<RelayTask>(
        task_group_, nullptr, obs::Span(), root_, nullptr, batch_, token_,
        [sink = std::move(sink)](std::vector<rdf::Binding>&& rows,
                                 TaskWriter*) {
          sink(std::move(rows));
          return true;
        },
        nullptr, [root = root_] { root->Close(); });
    svc::Scheduler::TaskRef ref = sched_->Register(std::move(task));
    // The collector is outstanding from its construction, so the group
    // cannot go idle before the hook is armed. The last Done() may come
    // from inside a task's Step() or an I/O job; the hook runs as a timer
    // due now, on a worker between steps.
    task_group_->Collect(
        ref, [sched = sched_, on_done = std::move(on_done)]() mutable {
          sched->RunAt(svc::Scheduler::Clock::now(), std::move(on_done));
        });
    sched_->Wake(ref);
  }

  Status Finish() {
    if (finished_) return final_status_;
    CloseAllQueues();
    // Closing the queues woke every parked task; wait until all tasks and
    // I/O jobs of this execution ran to completion.
    task_group_->WaitIdle();
    {
      std::lock_guard<std::mutex> lock(mu_);
      final_status_ = error_.ok() ? token_.ToStatus() : error_;
    }
    for (const auto& [source, channel] : channels_) {
      stats_.messages_transferred += channel->messages_transferred();
      stats_.network_delay_ms += channel->total_delay_ms();
      obs::SourceTraffic& traffic = stats_.per_source[source];
      traffic.messages += channel->messages_transferred();
      traffic.rows += channel->messages_transferred();
      traffic.delay_ms += channel->total_delay_ms();
    }
    stats_.source_rows = stats_.messages_transferred;
    for (const auto& [source, injector] : injectors_) {
      stats_.faults_injected += injector->faults_injected();
      stats_.latency_spikes_injected += injector->slow_injected();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.failed_sources = failed_sources_;
      for (const AnswerTrace::Event& event : recovery_events_) {
        stats_.recovery_events.push_back(event.label);
      }
      stats_.partial = degraded_;
    }
    // Recovery counters live in the metrics registry (the single sink all
    // statistics channels feed); ExecutionStats is a projection of it.
    stats_.retries = retries_counter_->Value();
    stats_.failovers = failovers_counter_->Value();
    stats_.breaker_rejections = breaker_rejections_counter_->Value();
    if (hedges_fired_counter_ != nullptr) {
      stats_.hedges_fired = hedges_fired_counter_->Value();
      stats_.hedge_wins = hedge_wins_counter_->Value();
      stats_.hedges_cancelled = hedges_cancelled_counter_->Value();
      stats_.hedges_suppressed = hedges_suppressed_counter_->Value();
    }
    if (adaptive_timeouts_counter_ != nullptr) {
      stats_.adaptive_timeouts = adaptive_timeouts_counter_->Value();
    }
    if (answer_hits_counter_ != nullptr) {
      stats_.sub_answer_hits = answer_hits_counter_->Value();
      stats_.sub_answer_misses = answer_misses_counter_->Value();
    }
    for (OperatorCounter& entry : operator_counters_) {
      obs::OperatorRuntime& op = entry.record;
      op.rows = entry.counter->load();
      if (entry.runtime != nullptr) entry.runtime->Fill(&op);
      // Runtime cardinality feedback: fold the observed row count back into
      // the stats catalog, but only for clean completions — partial counts
      // of cancelled/expired runs would poison the estimates. Best-effort
      // runs that dropped a leaf (stats_.partial) leave final_status_ OK,
      // yet every surviving operator saw a truncated input; exclude them
      // for the same reason.
      if (options_.stats_catalog != nullptr && !entry.stats_key.empty() &&
          final_status_.ok() && !stats_.partial) {
        options_.stats_catalog->RecordActual(entry.stats_key, op.rows);
      }
      operator_runtime_.push_back(std::move(op));
    }
    if (options_.collect_metrics) {
      sink_->GetCounter("exec.messages")
          ->Increment(stats_.messages_transferred);
      sink_->GetCounter("exec.source_rows")->Increment(stats_.source_rows);
      if (stats_.faults_injected > 0) {
        sink_->GetCounter("exec.faults_injected")
            ->Increment(stats_.faults_injected);
      }
      if (stats_.latency_spikes_injected > 0) {
        sink_->GetCounter("exec.latency_spikes")
            ->Increment(stats_.latency_spikes_injected);
      }
      for (const auto& [source, traffic] : stats_.per_source) {
        sink_->GetCounter("source." + source + ".messages")
            ->Increment(traffic.messages);
        sink_->GetCounter("source." + source + ".rows")
            ->Increment(traffic.rows);
      }
      for (const obs::OperatorRuntime& op : operator_runtime_) {
        sink_->GetCounter("op.rows." + op.label)->Increment(op.rows);
      }
      if (sink_ != &local_metrics_) {
        // Hand the per-execution recovery counters over to the session's
        // registry: everything else was recorded there directly, so the
        // transfer is a handful of counter adds, not a snapshot+merge.
        for (const auto& [name, value] :
             local_metrics_.CountersWithPrefix("")) {
          if (value > 0) sink_->GetCounter(name)->Increment(value);
        }
      }
    }
    exec_span_.End();
    finished_ = true;
    return final_status_;
  }

  const ExecutionStats& stats() const { return stats_; }
  const std::vector<obs::OperatorRuntime>& operator_runtime() const {
    return operator_runtime_;
  }
  // Timestamped recovery events; valid after Finish() like the stats.
  const std::vector<AnswerTrace::Event>& trace_events() const {
    return recovery_events_;
  }

 private:
  // Registers a queue for teardown: closed when the token fires and again
  // by Finish(). The closures capture the shared_ptr, keeping the queue
  // alive for as long as the token may still invoke the callback.
  template <typename Q>
  void RegisterQueue(const std::shared_ptr<Q>& queue) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closers_.push_back([queue] { queue->Close(); });
    }
    token_.OnCancel([queue] { queue->Close(); });
  }

  void CloseAllQueues() {
    std::vector<std::function<void()>> closers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      closers = closers_;
    }
    for (const std::function<void()>& close : closers) close();
  }

  net::DelayChannel* ChannelFor(const std::string& source_id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = channels_.find(source_id);
    if (it == channels_.end()) {
      uint64_t seed = options_.seed;
      for (char c : source_id) seed = seed * 131 + static_cast<uint64_t>(c);
      it = channels_
               .emplace(source_id, std::make_unique<net::DelayChannel>(
                                       options_.network, seed))
               .first;
      // Attach the source's fault injector, seeded independently of the
      // delay sampling so fault schedules do not perturb the delays.
      auto fault = options_.faults.find(source_id);
      if (fault != options_.faults.end() && fault->second.Active()) {
        auto injector = std::make_unique<net::FaultInjector>(
            source_id, fault->second, seed ^ UINT64_C(0x9e3779b97f4a7c15));
        it->second->set_fault_injector(injector.get());
        injectors_.emplace(source_id, std::move(injector));
      }
      if (options_.collect_metrics) {
        it->second->set_observer(
            sink_->GetHistogram("net." + source_id + ".transfer_ms"),
            spans_, exec_span_id_, "xfer:" + source_id);
      }
    }
    return it->second.get();
  }

  // The first error fails the execution and ends its dataflow: cancelling
  // the execution's token closes every queue, so no blocking operator
  // (ORDER BY, aggregate) emits a result over an input the error truncated.
  // The reason is kCancelled, so the legs it cuts short are not charged to
  // their sources.
  void RecordError(const Status& status) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_.ok()) return;
      error_ = status;
    }
    token_.CancelWith(
        Status::Cancelled("execution failed: " + status.ToString()));
  }

  Result<SourceWrapper*> WrapperFor(const std::string& source_id) {
    auto it = wrappers_.find(source_id);
    if (it == wrappers_.end()) {
      return Status::NotFound("no wrapper registered for source '" +
                              source_id + "'");
    }
    return it->second;
  }

  // One instrumented wrapper call: a "wrapper:<source>" span under
  // `parent_span` plus a per-source call-latency histogram.
  Status WrapperCall(SourceWrapper* w, const SubQuery& subquery,
                     net::DelayChannel* channel, RowQueue* out,
                     const CancellationToken& token, uint64_t parent_span) {
    obs::Span span(spans_, "wrapper:" + subquery.source_id, parent_span);
    Stopwatch watch;
    WrapperContext ctx;
    ctx.channel = channel;
    ctx.out = out;
    ctx.token = token;
    ctx.batch_size = batch_;
    Status st = w->Execute(subquery, ctx);
    const double elapsed_ms = watch.ElapsedMillis();
    // Successful calls feed the shared latency tracker (adaptive timeouts
    // and hedge delays). Failed or cancelled calls are excluded: an aborted
    // attempt's short duration would drag the quantiles below what a
    // completed call actually costs. The explicit token check matters
    // because wrappers return OK when they stop early due to cancellation
    // (hedge losers, expired per-attempt timeouts) — a quiet OK must not
    // record a truncated duration.
    if (options_.latency != nullptr && st.ok() && !token.IsCancelled()) {
      options_.latency->Record(subquery.source_id, elapsed_ms);
    }
    if (options_.collect_metrics) {
      sink_->GetHistogram("wrapper." + subquery.source_id + ".call_ms")
          ->Record(elapsed_ms);
    }
    return st;
  }

  // --- sub-answer caching ----------------------------------------------
  // Every leaf execution (service scan or bind-join probe, both dataflow
  // substrates) routes through here. With caching off this is a plain tail
  // call into `direct(sink)` — the historic path, untouched. With caching
  // on, a hit replays the memoized rows into `sink` without a wrapper call
  // (no DelayChannel traffic, no latency sample); a miss runs `direct`
  // into a private staging queue and memoizes the rows only on a clean
  // completion — a failed recovery ladder, a cancelled session or an
  // expired deadline may have produced a prefix, and hedge losers never
  // reach this level (their rows die in the race's private queues).
  Status ExecuteLeafMaybeCached(
      const SubQuery& subquery, RowQueue* sink, const CancellationToken& token,
      uint64_t parent_span, const std::function<Status(RowQueue*)>& direct) {
    SubAnswerCache* cache = options_.answer_cache ? options_.answers : nullptr;
    if (cache == nullptr) return direct(sink);
    uint64_t version = 0;
    if (auto it = wrappers_.find(subquery.source_id); it != wrappers_.end()) {
      version = it->second->DataVersion();
    }
    const std::string key =
        SubAnswerCache::Key(SubQueryStatsKey(subquery), version);
    if (std::shared_ptr<const std::vector<rdf::Binding>> hit =
            cache->Lookup(key, answer_stamp_)) {
      if (answer_hits_counter_ != nullptr) answer_hits_counter_->Increment();
      obs::Span span(spans_, "subanswer-cache:" + subquery.source_id,
                     parent_span);
      std::vector<rdf::Binding> out;
      for (size_t i = 0; i < hit->size(); i += batch_) {
        const size_t n = std::min(batch_, hit->size() - i);
        out.assign(hit->begin() + static_cast<ptrdiff_t>(i),
                   hit->begin() + static_cast<ptrdiff_t>(i + n));
        if (!sink->PushBatch(&out, token)) break;
      }
      return Status::OK();
    }
    if (answer_misses_counter_ != nullptr) answer_misses_counter_->Increment();
    RowQueue staging(kUnbounded);
    Status st = direct(&staging);
    staging.Close();
    std::vector<rdf::Binding> rows;
    {
      std::vector<rdf::Binding> drained;
      while (staging.PopBatch(&drained, batch_, token) > 0) {
        for (rdf::Binding& row : drained) rows.push_back(std::move(row));
      }
    }
    if (st.ok() && !token.IsCancelled()) {
      cache->Insert(key, options_.cache_scope, rows, answer_stamp_);
    }
    for (size_t i = 0; i < rows.size(); i += batch_) {
      const size_t n = std::min(batch_, rows.size() - i);
      std::vector<rdf::Binding> out(
          std::make_move_iterator(rows.begin() + static_cast<ptrdiff_t>(i)),
          std::make_move_iterator(rows.begin() +
                                  static_cast<ptrdiff_t>(i + n)));
      if (!sink->PushBatch(&out, token)) break;
    }
    return st;
  }

  // --- fault-tolerant leaf execution -----------------------------------
  // Engaged only when the options ask for it; otherwise leaves run on the
  // exact historic direct-streaming path, so default behaviour (including
  // error propagation and answer streaming granularity) is unchanged.
  bool FaultTolerant() const {
    return options_.retry.enabled() ||
           options_.failure_mode == FailureMode::kBestEffort ||
           !options_.faults.empty() || options_.hedge.enabled ||
           options_.adaptive_timeout.enabled;
  }

  void AddRecoveryEvent(std::string event) {
    std::lock_guard<std::mutex> lock(mu_);
    recovery_events_.push_back({clock_.ElapsedSeconds(), std::move(event)});
  }

  // One sub-query against one source under the retry policy. Every attempt
  // runs into a private staging queue and is forwarded to `sink` only on
  // success, so downstream operators never observe duplicate or torn
  // attempts. A closed `sink` (downstream satisfied) counts as success.
  // Per-attempt timeout for `source` derived from its observed latency:
  // multiplier × the configured quantile, floored, once enough samples
  // exist. Until then the static retry.attempt_timeout_ms applies. The
  // session's remaining deadline still caps every attempt (MakeAttemptToken
  // clamps), so an optimistic quantile can never extend a query past its
  // deadline.
  double AdaptiveAttemptTimeoutMs(const std::string& source) {
    const PlanOptions::AdaptiveTimeoutConfig& cfg = options_.adaptive_timeout;
    if (options_.latency != nullptr) {
      LatencyTracker::Estimate est =
          options_.latency->Quantile(source, cfg.quantile);
      if (est.samples >= cfg.min_samples) {
        adaptive_timeouts_counter_->Increment();
        return std::max(cfg.floor_ms, cfg.multiplier * est.value_ms);
      }
    }
    return options_.retry.attempt_timeout_ms;
  }

  Status ExecuteWithRetry(SourceWrapper* w, const SubQuery& subquery,
                          net::DelayChannel* channel, RowQueue* sink,
                          const CancellationToken& token, Rng* rng,
                          int* retries_out, uint64_t parent_span) {
    net::FaultInjector* injector = channel->fault_injector();
    std::function<double(int)> attempt_timeout_fn;
    if (options_.adaptive_timeout.enabled) {
      const std::string source = subquery.source_id;
      attempt_timeout_fn = [this, source](int) {
        return AdaptiveAttemptTimeoutMs(source);
      };
    }
    return RunWithRetry(
        options_.retry, token, rng,
        [&](const CancellationToken& attempt_token) -> Status {
          RowQueue staging(kUnbounded);
          if (injector != nullptr) {
            LAKEFED_RETURN_NOT_OK(injector->OnConnect(attempt_token));
          }
          LAKEFED_RETURN_NOT_OK(WrapperCall(w, subquery, channel, &staging,
                                            attempt_token, parent_span));
          // Wrappers stop quietly when their token fires; surface the
          // attempt timeout here so the retry loop can tell a retryable
          // per-attempt expiry from a clean completion.
          if (attempt_token.IsCancelled()) return attempt_token.ToStatus();
          staging.Close();
          std::vector<rdf::Binding> drained;
          while (staging.PopBatch(&drained, batch_, token) > 0) {
            if (!sink->PushBatch(&drained, token)) break;
          }
          return Status::OK();
        },
        retries_out, attempt_timeout_fn);
  }

  // --- hedged leaf execution -------------------------------------------
  // When PlanOptions::hedge is on and the planner recorded a failover
  // alternate, a leaf runs as a race: the primary starts immediately; if it
  // is still running once the hedge delay passes (multiplier × the
  // primary's observed latency quantile, or the fallback delay while
  // samples are scarce), the same sub-query is launched speculatively
  // against the first alternate. The first racer to complete supplies the
  // rows; the loser is cancelled. Each racer stages its rows in a private
  // queue and only the winner's queue is drained into the real sink — by
  // the launcher job alone — so downstream operators can never observe
  // torn or duplicate rows.

  // Shared outcome of one racer (primary or hedge).
  struct RacerResult {
    Status status = Status::OK();
    int retries = 0;
    // The circuit breaker admitted this racer (AllowRequest returned true),
    // so exactly one of OnSuccess/OnFailure/OnAbandoned must report back.
    bool admitted = false;
  };

  // Shared state of one hedge race. `mu` orders the launcher (running the
  // primary inline) against the watchdog (sleeping out the hedge delay,
  // then running the hedge arm). The session token's IsCancelled() is
  // never evaluated while holding `mu`: observing an expired deadline
  // promotes it to a cancellation that runs callbacks on the calling
  // thread, and those callbacks may need `mu` themselves.
  struct HedgeRace {
    std::mutex mu;
    std::condition_variable cv;
    bool primary_done = false;
    // Launcher resolved the race; the watchdog must not launch a hedge any
    // more (it may still be draining one it already launched).
    bool closed = false;
    bool hedge_launched = false;
    bool hedge_done = false;
    int winner = -1;  // first racer to finish OK: 0 = primary, 1 = hedge
    RacerResult primary, hedge;
    CancellationToken primary_token, hedge_token;
    std::shared_ptr<RowQueue> primary_rows, hedge_rows;
  };

  struct HedgeOutcome {
    bool decided = false;  // status is final — success or session abort
    size_t raced = 1;      // candidates consumed; the ladder resumes here
    Status status = Status::OK();
  };

  // A cancellable child of the session token: cancelling the child stops
  // one racer without touching the session; cancelling the session (or its
  // deadline expiring) propagates to the child. The deadline must be
  // copied, not just linked — expiry is promoted lazily by whoever observes
  // it, and a racer may be the only thread looking at a clock.
  static CancellationToken MakeLinkedToken(const CancellationToken& session) {
    return session.MakeChild(session.deadline());
  }

  // Hedge delay for a leaf whose primary is `source`: multiplier × the
  // observed latency quantile once enough samples exist, else the static
  // fallback; never below the configured minimum.
  double HedgeDelayMs(const std::string& source) const {
    const PlanOptions::HedgeConfig& cfg = options_.hedge;
    double delay = cfg.fallback_delay_ms;
    if (options_.latency != nullptr) {
      LatencyTracker::Estimate est =
          options_.latency->Quantile(source, cfg.quantile);
      if (est.samples >= cfg.min_samples) {
        delay = cfg.multiplier * est.value_ms;
      }
    }
    return std::max(delay, cfg.min_delay_ms);
  }

  // Claims one unit of hedge budget (per query and per hedge source).
  // Returns false — charging nothing — when either budget is exhausted.
  bool ConsumeHedgeBudget(const std::string& hedge_source) {
    int cur = hedge_budget_query_.load(std::memory_order_relaxed);
    while (cur > 0 && !hedge_budget_query_.compare_exchange_weak(
                          cur, cur - 1, std::memory_order_relaxed)) {
    }
    if (cur <= 0) return false;
    std::lock_guard<std::mutex> lock(mu_);
    int& used = hedge_source_used_[hedge_source];
    if (used >= options_.hedge.max_per_source) {
      hedge_budget_query_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    ++used;
    return true;
  }

  // Returns a claimed budget unit (the hedge lost the launch race and never
  // actually fired).
  void RefundHedgeBudget(const std::string& hedge_source) {
    hedge_budget_query_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    --hedge_source_used_[hedge_source];
  }

  // One arm of a hedge race: breaker admission, then the standard retried
  // execution into the racer's private staging queue.
  void RunRacer(const SubQuery& base, const std::string& source,
                RowQueue* staging, const CancellationToken& racer_token,
                Rng* rng, uint64_t parent_span, RacerResult* out) {
    BreakerRegistry* breakers = options_.breakers;
    if (breakers != nullptr && !breakers->AllowRequest(source)) {
      breaker_rejections_counter_->Increment();
      out->admitted = false;
      out->status = Status::Unavailable("circuit breaker open for source '" +
                                        source + "'");
      return;
    }
    out->admitted = breakers != nullptr;
    Result<SourceWrapper*> wrapper = WrapperFor(source);
    if (!wrapper.ok()) {
      out->status = wrapper.status();
      return;
    }
    SubQuery sq = base;
    sq.source_id = source;
    net::DelayChannel* channel = ChannelFor(source);
    out->status = ExecuteWithRetry(*wrapper, sq, channel, staging,
                                   racer_token, rng, &out->retries,
                                   parent_span);
  }

  // Accounts `retries` re-attempts against `source`: the execution-wide and
  // per-source counters, the source's traffic record and a recovery event.
  void RecordRetries(const std::string& source, int retries) {
    const uint64_t n = static_cast<uint64_t>(retries);
    retries_counter_->Increment(n);
    local_metrics_.GetCounter("source." + source + ".retries")->Increment(n);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.per_source[source].retries += n;
    }
    AddRecoveryEvent("retried " + source + " x" + std::to_string(retries));
  }

  // Reports one finished racer: retry accounting, then the breaker verdict.
  // A racer cancelled as the race loser, or cut short by the session's
  // cancellation or deadline (`aborted`), neither closes nor trips the
  // breaker — it only releases the probe slot it may hold.
  void ResolveRacer(const std::string& source, const RacerResult& r,
                    bool aborted) {
    if (r.retries > 0) RecordRetries(source, r.retries);
    BreakerRegistry* breakers = options_.breakers;
    if (!r.admitted || breakers == nullptr) return;
    if (r.status.ok()) {
      breakers->OnSuccess(source);
    } else if (aborted || r.status.code() == StatusCode::kCancelled) {
      breakers->OnAbandoned(source);
    } else {
      breakers->OnFailure(source);
      if (breakers->IsOpen(source)) {
        AddRecoveryEvent("breaker opened for " + source);
      }
      std::lock_guard<std::mutex> lock(mu_);
      failed_sources_[source] = r.status.message();
    }
  }

  // Runs candidates[0] hedged by candidates[1]. Returns decided=true with
  // the final status when a racer won (its rows are in `sink`) or the
  // session aborted; otherwise both arms failed and the recovery ladder
  // resumes from index `raced`.
  HedgeOutcome ExecuteLeafHedged(const SubQuery& subquery,
                                 const std::vector<std::string>& candidates,
                                 RowQueue* sink,
                                 const CancellationToken& token, Rng* rng,
                                 uint64_t parent_span) {
    const std::string primary_source = candidates[0];
    const std::string hedge_source = candidates[1];
    const double delay_ms = HedgeDelayMs(primary_source);

    auto race = std::make_shared<HedgeRace>();
    race->primary_token = MakeLinkedToken(token);
    race->hedge_token = MakeLinkedToken(token);
    race->primary_rows = std::make_shared<RowQueue>(kUnbounded);
    race->hedge_rows = std::make_shared<RowQueue>(kUnbounded);

    // Hedge-arm retry RNG: derived like the per-leaf RNG but over the hedge
    // source and a distinct salt, so the two racers draw independent,
    // replayable backoff schedules.
    uint64_t hedge_seed = options_.seed ^ UINT64_C(0x51afd6ed558ccd25);
    for (char c : hedge_source) {
      hedge_seed = hedge_seed * 131 + static_cast<uint64_t>(c);
    }

    // The watchdog, an I/O-pool job, sleeps out the hedge delay; if the
    // primary is still in flight it runs the hedge arm itself (so the arm
    // needs no third job). Budget is charged only when the hedge actually fires.
    auto watchdog = [this, race, subquery, hedge_source, hedge_seed,
                     delay_ms, parent_span] {
      {
        std::unique_lock<std::mutex> lock(race->mu);
        race->cv.wait_for(
            lock, std::chrono::duration<double, std::milli>(delay_ms),
            [&race] { return race->primary_done || race->closed; });
        if (race->primary_done || race->closed) return;
      }
      if (!ConsumeHedgeBudget(hedge_source)) {
        hedges_suppressed_counter_->Increment();
        return;
      }
      bool launch = false;
      {
        std::lock_guard<std::mutex> lock(race->mu);
        // The launcher may have resolved between our wake-up and here; a
        // hedge launched now would have no one to drain or resolve it.
        if (!race->closed) {
          race->hedge_launched = true;
          launch = true;
        }
      }
      if (!launch) {
        RefundHedgeBudget(hedge_source);
        return;
      }
      hedges_fired_counter_->Increment();
      AddRecoveryEvent("hedge fired " + subquery.source_id + " -> " +
                       hedge_source);
      Rng hedge_rng(hedge_seed);
      RunRacer(subquery, hedge_source, race->hedge_rows.get(),
               race->hedge_token, &hedge_rng, parent_span, &race->hedge);
      bool hedge_won = false;
      {
        std::lock_guard<std::mutex> lock(race->mu);
        race->hedge_done = true;
        if (race->hedge.status.ok() && race->winner == -1) {
          race->winner = 1;
          hedge_won = true;
        }
        race->cv.notify_all();
      }
      // Cancel outside the race mutex: CancelWith runs callbacks inline.
      if (hedge_won) {
        race->primary_token.CancelWith(
            Status::Cancelled("hedge against '" + hedge_source +
                              "' completed first"));
      }
    };

    // The launcher never blocks on a watchdog job that has not started — if
    // the pool is saturated the job runs late, observes `closed` and exits
    // without launching.
    SubmitIo(std::move(watchdog));

    // The primary racer runs inline on the leaf's own job, with the
    // leaf's deterministic retry RNG — an unhedged leaf and a hedged leaf
    // whose hedge never fires replay identical primary schedules.
    RunRacer(subquery, primary_source, race->primary_rows.get(),
             race->primary_token, rng, parent_span, &race->primary);

    bool cancel_hedge = false;
    {
      std::lock_guard<std::mutex> lock(race->mu);
      race->primary_done = true;
      race->closed = true;
      if (race->primary.status.ok() && race->winner == -1) race->winner = 0;
      cancel_hedge =
          race->winner == 0 && race->hedge_launched && !race->hedge_done;
      race->cv.notify_all();
    }
    if (cancel_hedge) {
      race->hedge_token.CancelWith(Status::Cancelled(
          "primary '" + primary_source + "' completed first"));
    }
    // Quiesce the hedge arm: once `closed` is set the watchdog can no
    // longer launch, so waiting on hedge_done when hedge_launched is the
    // complete condition (and the hedge arm is already running then — this
    // never waits on an unscheduled job).
    {
      std::unique_lock<std::mutex> lock(race->mu);
      race->cv.wait(lock, [&race] {
        return !race->hedge_launched || race->hedge_done;
      });
    }

    // Both arms are final; report them, then settle the outcome.
    const bool aborted = token.IsCancelled();
    ResolveRacer(primary_source, race->primary, aborted);
    if (race->hedge_launched) {
      ResolveRacer(hedge_source, race->hedge, aborted);
    }

    HedgeOutcome out;
    out.raced = race->hedge_launched ? 2 : 1;
    if (aborted) {
      out.decided = true;
      out.status = token.ToStatus();
      return out;
    }
    if (race->winner >= 0) {
      if (race->winner == 1) {
        hedge_wins_counter_->Increment();
        AddRecoveryEvent("hedge won " + subquery.source_id + " via " +
                         hedge_source);
      }
      const RacerResult& loser =
          race->winner == 0 ? race->hedge : race->primary;
      const bool loser_ran = race->winner == 0 ? race->hedge_launched : true;
      if (loser_ran && loser.status.code() == StatusCode::kCancelled) {
        hedges_cancelled_counter_->Increment();
      }
      // Forward the winner's rows — single-threaded, after both arms are
      // quiescent, so the sink sees exactly one complete attempt.
      RowQueue* rows = race->winner == 0 ? race->primary_rows.get()
                                         : race->hedge_rows.get();
      rows->Close();
      std::vector<rdf::Binding> drained;
      while (rows->PopBatch(&drained, batch_, token) > 0) {
        if (!sink->PushBatch(&drained, token)) break;
      }
      out.decided = true;
      out.status = Status::OK();
      return out;
    }
    // Both arms failed: hand the ladder the most recent real error.
    out.decided = false;
    out.status = race->hedge_launched &&
                         race->hedge.status.code() != StatusCode::kCancelled
                     ? race->hedge.status
                     : race->primary.status;
    return out;
  }

  // Runs one leaf sub-query with the full recovery ladder: retry against
  // its own source, then against each failover alternate (same molecule),
  // consulting the per-source circuit breakers throughout. When hedging is
  // enabled and an alternate exists, the first two candidates race (see
  // ExecuteLeafHedged); the ladder covers the remainder. Returns OK as
  // soon as any candidate completes; otherwise the last error.
  Status ExecuteLeafWithRecovery(const SubQuery& subquery,
                                 const std::vector<std::string>& alternates,
                                 RowQueue* sink,
                                 const CancellationToken& token,
                                 uint64_t parent_span) {
    std::vector<std::string> candidates;
    candidates.push_back(subquery.source_id);
    candidates.insert(candidates.end(), alternates.begin(), alternates.end());
    // Per-leaf jitter RNG, derived from the session seed and the leaf's
    // primary source so repeated sessions replay the same backoff schedule.
    uint64_t seed = options_.seed ^ UINT64_C(0x7fb5d329728ea185);
    for (char c : subquery.source_id) {
      seed = seed * 131 + static_cast<uint64_t>(c);
    }
    Rng rng(seed);
    BreakerRegistry* breakers = options_.breakers;
    Status last = Status::Unavailable("no candidate source attempted");
    size_t start = 0;
    const bool hedgeable = options_.hedge.enabled && candidates.size() >= 2;
    if (hedgeable && hedge_budget_query_.load(std::memory_order_relaxed) > 0 &&
        !token.IsCancelled()) {
      HedgeOutcome hedged = ExecuteLeafHedged(subquery, candidates, sink,
                                              token, &rng, parent_span);
      if (hedged.decided) return hedged.status;
      // Both raced arms failed; fall through to the remaining alternates.
      start = hedged.raced;
      last = hedged.status;
    }
    // With the query's hedge budget already spent the leaf runs unhedged.
    // A hedge is still suppressed if the primary outlives its hedge delay —
    // the moment a race's watchdog would have found no budget.
    const bool unhedged = hedgeable && start == 0;
    const double hedge_delay_ms =
        unhedged ? HedgeDelayMs(subquery.source_id) : 0;
    Stopwatch primary_watch;
    for (size_t i = start; i < candidates.size(); ++i) {
      if (token.IsCancelled()) return token.ToStatus();
      const std::string& source = candidates[i];
      if (i > 0) {
        failovers_counter_->Increment();
        AddRecoveryEvent("failover " + subquery.source_id + " -> " + source +
                         " after: " + last.message());
      }
      if (breakers != nullptr && !breakers->AllowRequest(source)) {
        breaker_rejections_counter_->Increment();
        last = Status::Unavailable("circuit breaker open for source '" +
                                   source + "'");
        continue;
      }
      Result<SourceWrapper*> wrapper = WrapperFor(source);
      if (!wrapper.ok()) {
        last = wrapper.status();
        continue;
      }
      SubQuery sq = subquery;
      sq.source_id = source;
      net::DelayChannel* channel = ChannelFor(source);
      int retries = 0;
      Status st = ExecuteWithRetry(*wrapper, sq, channel, sink, token, &rng,
                                   &retries, parent_span);
      if (unhedged && i == 0 &&
          primary_watch.ElapsedMillis() >= hedge_delay_ms) {
        hedges_suppressed_counter_->Increment();
      }
      if (retries > 0) RecordRetries(source, retries);
      if (st.ok()) {
        if (breakers != nullptr) breakers->OnSuccess(source);
        return st;
      }
      // A leg cut short by cancellation says nothing about its source.
      if (token.IsCancelled()) return token.ToStatus();
      if (breakers != nullptr) {
        breakers->OnFailure(source);
        if (breakers->IsOpen(source)) {
          AddRecoveryEvent("breaker opened for " + source);
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        failed_sources_[source] = st.message();
      }
      last = st;
    }
    return last;
  }

  // A leaf (or bind-join probe) was unrecoverable. Best-effort drops its
  // contribution and marks the answer partial; fail-fast surfaces the
  // error as the execution's status.
  void HandleLeafFailure(const Status& status, const CancellationToken& token) {
    if (options_.failure_mode == FailureMode::kBestEffort &&
        !token.IsCancelled()) {
      std::lock_guard<std::mutex> lock(mu_);
      degraded_ = true;
      return;
    }
    RecordError(status);
  }

  // A node's output queue plus its runtime recorder (null when metrics
  // collection is off, so instrumented and plain paths stay separable).
  struct NodeQueue {
    RowQueuePtr queue;
    std::shared_ptr<OpRuntimeRec> runtime;
  };

  // Creates a node's output queue with an operator-statistics counter (and,
  // when metrics are on, a queue-wait observer) attached — both before any
  // producer starts. Leaves push from I/O-pool jobs, so their queues are
  // unbounded (see kUnbounded); operator tasks never block on a full queue,
  // so theirs keep the back-pressure bound.
  NodeQueue MakeOutQueue(const FedPlanNode& node) {
    auto queue = std::make_shared<RowQueue>(
        node.kind == FedPlanNode::Kind::kService ? kUnbounded
                                                 : kQueueCapacity);
    std::string label = node.Describe();
    if (size_t nl = label.find('\n'); nl != std::string::npos) {
      label = label.substr(0, nl);
    }
    auto counter = std::make_shared<std::atomic<uint64_t>>(0);
    queue->set_push_counter(counter);
    std::shared_ptr<OpRuntimeRec> runtime;
    if (options_.collect_metrics) {
      runtime = std::make_shared<OpRuntimeRec>(
          sink_->GetHistogram("queue.push_wait_ms"),
          sink_->GetHistogram("queue.pop_wait_ms"));
      queue->set_wait_observer(runtime);
    }
    // Leaf operators carry the source they scan, so the profiler can charge
    // that source's simulated network delay against them.
    std::string source_id;
    if (node.kind == FedPlanNode::Kind::kService ||
        node.kind == FedPlanNode::Kind::kDependentJoin) {
      source_id = node.subquery.source_id;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      OperatorCounter entry{{}, node.stats_key, std::move(counter), runtime};
      entry.record.label = std::move(label);
      entry.record.source_id = std::move(source_id);
      entry.record.estimated_rows = node.estimated_rows;
      operator_counters_.push_back(std::move(entry));
    }
    RegisterQueue(queue);
    return {std::move(queue), std::move(runtime)};
  }

  // --- dataflow wiring ---------------------------------------------------
  // Each StartXxx builds one operator's queues and tasks and returns its
  // output queue.

  // Registers `task` and defers its initial wake to the end of Start().
  svc::Scheduler::TaskRef AddTask(std::unique_ptr<svc::Task> task) {
    svc::Scheduler::TaskRef ref = sched_->Register(std::move(task));
    svc::Scheduler* sched = sched_;
    deferred_starts_.push_back([sched, ref] { sched->Wake(ref); });
    return ref;
  }

  template <typename Q>
  void WakeOnReadable(const std::shared_ptr<Q>& queue,
                      const svc::Scheduler::TaskRef& ref) {
    svc::Scheduler* sched = sched_;
    queue->AddReadableListener([sched, ref] { sched->Wake(ref); });
  }

  template <typename Q>
  void WakeOnWritable(const std::shared_ptr<Q>& queue,
                      const svc::Scheduler::TaskRef& ref) {
    svc::Scheduler* sched = sched_;
    queue->AddWritableListener([sched, ref] { sched->Wake(ref); });
  }

  // Runs a one-shot blocking job on the scheduler's I/O pool, tracked by
  // the execution's task group so Finish() waits for it.
  void SubmitIo(std::function<void()> job) {
    task_group_->Add();
    sched_->SubmitIo([group = task_group_, job = std::move(job)] {
      job();
      group->Done();
    });
  }

  // One leaf sub-query (service scan or bind-join probe) into `sink`,
  // behind the sub-answer cache: the recovery ladder over `alternates` when
  // fault tolerance is on, else a direct call of `w` over `channel`.
  Status ExecuteLeaf(const SubQuery& subquery,
                     const std::vector<std::string>& alternates,
                     SourceWrapper* w, net::DelayChannel* channel,
                     RowQueue* sink, const CancellationToken& token,
                     uint64_t op_span) {
    return ExecuteLeafMaybeCached(
        subquery, sink, token, op_span, [&](RowQueue* out) {
          return FaultTolerant() ? ExecuteLeafWithRecovery(
                                       subquery, alternates, out, token,
                                       op_span)
                                 : WrapperCall(w, subquery, channel, out,
                                               token, op_span);
        });
  }

  RowQueuePtr StartNode(const FedPlanNode& node) {
    switch (node.kind) {
      case FedPlanNode::Kind::kService: return StartService(node);
      case FedPlanNode::Kind::kJoin: return StartJoin(node, false);
      case FedPlanNode::Kind::kLeftJoin: return StartJoin(node, true);
      case FedPlanNode::Kind::kDependentJoin: return StartDependentJoin(node);
      case FedPlanNode::Kind::kUnion: return StartUnion(node);
      case FedPlanNode::Kind::kFilter: return StartFilter(node);
      case FedPlanNode::Kind::kProject: return StartProject(node);
      case FedPlanNode::Kind::kOrderBy: return StartOrderBy(node);
      case FedPlanNode::Kind::kDistinct: return StartDistinct(node);
      case FedPlanNode::Kind::kLimit: return StartLimit(node);
      case FedPlanNode::Kind::kAggregate: return StartAggregate(node);
    }
    auto q = std::make_shared<RowQueue>(kQueueCapacity);
    q->Close();
    return q;
  }

  // Leaves run as I/O-pool jobs: a wrapper call sleeps on the simulated
  // network, which no compute worker should sit out. Without fault
  // tolerance the source is resolved here and called directly; with it
  // the recovery ladder resolves each candidate at run time.
  RowQueuePtr StartService(const FedPlanNode& node) {
    NodeQueue nq = MakeOutQueue(node);
    RowQueuePtr out = nq.queue;
    SourceWrapper* w = nullptr;
    net::DelayChannel* channel = nullptr;
    if (!FaultTolerant()) {
      auto wrapper = WrapperFor(node.subquery.source_id);
      if (!wrapper.ok()) {
        RecordError(wrapper.status());
        out->Close();
        return out;
      }
      w = *wrapper;
      channel = ChannelFor(node.subquery.source_id);
    }
    std::function<void()> job = [this, w, channel, subquery = node.subquery,
                                 alternates = node.failover_sources, out,
                                 rec = nq.runtime, token = token_] {
      obs::Span op(spans_, "service:" + subquery.source_id, exec_span_id_);
      Stopwatch wall;
      Status st = ExecuteLeaf(subquery, alternates, w, channel, out.get(),
                              token, op.id());
      if (!st.ok()) HandleLeafFailure(st, token);
      out->Close();
      if (rec != nullptr) rec->RecordWall(wall.ElapsedMillis());
    };
    deferred_starts_.push_back(
        [this, job = std::move(job)] { SubmitIo(job); });
    return out;
  }

  // An inner (symmetric hash) join, or the left-outer join of OPTIONAL.
  RowQueuePtr StartJoin(const FedPlanNode& node, bool left_outer) {
    RowQueuePtr left = StartNode(*node.children[0]);
    RowQueuePtr right = StartNode(*node.children[1]);
    NodeQueue nq = MakeOutQueue(node);
    RowQueuePtr out = nq.queue;
    auto task = std::make_unique<JoinTask>(
        task_group_, nq.runtime,
        obs::Span(spans_, left_outer ? "leftjoin" : "join", exec_span_id_),
        left, right, out, batch_, token_, node.join_vars, left_outer,
        [left, right, out] {
          left->Close();
          right->Close();
          out->Close();
        });
    svc::Scheduler::TaskRef ref = AddTask(std::move(task));
    WakeOnReadable(left, ref);
    WakeOnReadable(right, ref);
    WakeOnWritable(out, ref);
    return out;
  }

  RowQueuePtr StartDependentJoin(const FedPlanNode& node) {
    RowQueuePtr left = StartNode(*node.children[0]);
    NodeQueue nq = MakeOutQueue(node);
    RowQueuePtr out = nq.queue;
    auto wrapper = WrapperFor(node.subquery.source_id);
    if (!wrapper.ok()) {
      RecordError(wrapper.status());
      out->Close();
      return out;
    }
    SourceWrapper* w = *wrapper;
    net::DelayChannel* channel = ChannelFor(node.subquery.source_id);
    obs::Span op(spans_, "depjoin:" + node.subquery.source_id, exec_span_id_);
    const uint64_t op_span = op.id();
    auto task = std::make_unique<DependentJoinTask>(
        task_group_, nq.runtime, std::move(op), left, out, batch_, token_,
        node.join_vars, node.subquery, [left, out] {
          left->Close();
          out->Close();
        });
    DependentJoinTask* t = task.get();
    svc::Scheduler::TaskRef ref = AddTask(std::move(task));
    WakeOnReadable(left, ref);
    WakeOnWritable(out, ref);
    // Each probe runs the blocking leaf leg on the I/O pool, fills the
    // result cell and wakes the parked task.
    t->set_probe_fn([this, w, channel, alternates = node.failover_sources,
                     token = token_, op_span,
                     ref](SubQuery bound, std::shared_ptr<ProbeResult> result) {
      SubmitIo([this, w, channel, alternates, token, op_span, ref,
                bound = std::move(bound), result = std::move(result)] {
        RowQueue local(kUnbounded);
        Status st = ExecuteLeaf(bound, alternates, w, channel, &local, token,
                                op_span);
        if (st.ok()) {
          local.Close();
          std::vector<rdf::Binding> drained;
          while (local.PopBatch(&drained, batch_, token) > 0) {
            for (rdf::Binding& row : drained) {
              result->rows.push_back(std::move(row));
            }
          }
        } else {
          HandleLeafFailure(st, token);
          result->failed = true;
        }
        {
          std::lock_guard<std::mutex> lock(result->mu);
          result->ready = true;
        }
        sched_->Wake(ref);
      });
    });
    return out;
  }

  RowQueuePtr StartUnion(const FedPlanNode& node) {
    NodeQueue nq = MakeOutQueue(node);
    RowQueuePtr out = nq.queue;
    std::shared_ptr<OpRuntimeRec> rec = nq.runtime;
    auto active = std::make_shared<std::atomic<int>>(
        static_cast<int>(node.children.size()));
    CancellationToken token = token_;
    for (const FedPlanPtr& child : node.children) {
      RowQueuePtr in = StartNode(*child);
      auto arm = std::make_unique<RelayTask>(
          task_group_, rec, obs::Span(spans_, "union-arm", exec_span_id_),
          in, out, batch_, token,
          [](std::vector<rdf::Binding>&& rows, TaskWriter* w) {
            for (rdf::Binding& row : rows) w->Add(std::move(row));
            return true;
          },
          nullptr,
          [in, out, active] {
            in->Close();
            if (active->fetch_sub(1) == 1) out->Close();
          });
      svc::Scheduler::TaskRef ref = AddTask(std::move(arm));
      WakeOnReadable(in, ref);
      WakeOnWritable(out, ref);
    }
    return out;
  }

  // Builds the standard one-in/one-out relay wiring shared by the scalar
  // operators below.
  RowQueuePtr MakeRelay(const FedPlanNode& node, const char* span_name,
                        RowQueuePtr in, RelayTask::ProcessFn process,
                        RelayTask::FinalizeFn finalize = nullptr) {
    NodeQueue nq = MakeOutQueue(node);
    RowQueuePtr out = nq.queue;
    auto task = std::make_unique<RelayTask>(
        task_group_, nq.runtime, obs::Span(spans_, span_name, exec_span_id_),
        in, out, batch_, token_, std::move(process), std::move(finalize),
        [in, out] {
          in->Close();
          out->Close();
        });
    svc::Scheduler::TaskRef ref = AddTask(std::move(task));
    WakeOnReadable(in, ref);
    WakeOnWritable(out, ref);
    return out;
  }

  RowQueuePtr StartFilter(const FedPlanNode& node) {
    RowQueuePtr in = StartNode(*node.children[0]);
    std::vector<sparql::FilterExprPtr> filters = node.filters;
    return MakeRelay(
        node, "filter", in,
        [filters](std::vector<rdf::Binding>&& rows, TaskWriter* w) {
          for (rdf::Binding& row : rows) {
            bool pass = true;
            for (const sparql::FilterExprPtr& f : filters) {
              Result<bool> r = f->EvalBool(row);
              // Evaluation errors (unbound variables, bad regex) reject
              // the solution, matching the reference evaluator.
              if (!r.ok() || !*r) {
                pass = false;
                break;
              }
            }
            if (pass) w->Add(std::move(row));
          }
          return true;
        });
  }

  RowQueuePtr StartProject(const FedPlanNode& node) {
    RowQueuePtr in = StartNode(*node.children[0]);
    std::vector<std::string> projection = node.projection;
    return MakeRelay(
        node, "project", in,
        [projection](std::vector<rdf::Binding>&& rows, TaskWriter* w) {
          for (rdf::Binding& row : rows) {
            rdf::Binding projected;
            for (const std::string& v : projection) {
              auto it = row.find(v);
              if (it != row.end()) projected.emplace(v, it->second);
            }
            w->Add(std::move(projected));
          }
          return true;
        });
  }

  // A blocking one-in/one-out operator: buffers its whole input, lets
  // `finish` rewrite the buffer once the input is exhausted, then emits it.
  RowQueuePtr MakeBlockingRelay(
      const FedPlanNode& node, const char* span_name, RowQueuePtr in,
      std::function<void(std::vector<rdf::Binding>*)> finish) {
    auto rows = std::make_shared<std::vector<rdf::Binding>>();
    return MakeRelay(
        node, span_name, std::move(in),
        [rows](std::vector<rdf::Binding>&& in_batch, TaskWriter*) {
          for (rdf::Binding& row : in_batch) rows->push_back(std::move(row));
          return true;
        },
        [rows, finish = std::move(finish)](TaskWriter* w) {
          finish(rows.get());
          for (rdf::Binding& row : *rows) w->Add(std::move(row));
          rows->clear();
        });
  }

  RowQueuePtr StartOrderBy(const FedPlanNode& node) {
    return MakeBlockingRelay(
        node, "orderby", StartNode(*node.children[0]),
        [order_by = node.order_by](std::vector<rdf::Binding>* rows) {
          sparql::SortBindings(rows, order_by);
        });
  }

  RowQueuePtr StartAggregate(const FedPlanNode& node) {
    return MakeBlockingRelay(
        node, "aggregate", StartNode(*node.children[0]),
        [group_by = node.group_by,
         aggregates = node.aggregates](std::vector<rdf::Binding>* rows) {
          *rows = sparql::AggregateSolutions(*rows, group_by, aggregates);
        });
  }

  RowQueuePtr StartDistinct(const FedPlanNode& node) {
    RowQueuePtr in = StartNode(*node.children[0]);
    return MakeRelay(
        node, "distinct", in,
        [seen = std::unordered_set<std::string>{}](
            std::vector<rdf::Binding>&& rows, TaskWriter* w) mutable {
          for (rdf::Binding& row : rows) {
            std::string key;
            rdf::AppendRowKey(row, &key);
            if (!seen.insert(std::move(key)).second) continue;
            w->Add(std::move(row));
          }
          return true;
        });
  }

  RowQueuePtr StartLimit(const FedPlanNode& node) {
    RowQueuePtr in = StartNode(*node.children[0]);
    const int64_t limit = node.limit;
    // Returning false once the budget is spent completes the task, whose
    // done hook closes the input — cancelling upstream.
    return MakeRelay(
        node, "limit", in,
        [limit, emitted = int64_t{0}](std::vector<rdf::Binding>&& rows,
                                      TaskWriter* w) mutable {
          for (rdf::Binding& row : rows) {
            if (emitted >= limit) return false;
            w->Add(std::move(row));
            ++emitted;
          }
          return emitted < limit;
        });
  }

  const std::map<std::string, SourceWrapper*>& wrappers_;
  PlanOptions options_;
  CancellationToken token_;
  // Morsel size of the exchange (>= 1; 1 = legacy row-at-a-time).
  const size_t batch_;
  RowQueuePtr root_;
  // The worker pool the tasks run on (PlanOptions::scheduler), the
  // outstanding-work counter Finish() waits on, and the kick-offs deferred
  // until the tree is fully wired.
  svc::Scheduler* const sched_ = options_.scheduler;
  const std::shared_ptr<TaskGroup> task_group_ =
      std::make_shared<TaskGroup>();
  std::vector<std::function<void()>> deferred_starts_;
  std::mutex mu_;
  Status error_;
  std::vector<std::function<void()>> closers_;
  std::map<std::string, std::unique_ptr<net::DelayChannel>> channels_;
  std::map<std::string, std::unique_ptr<net::FaultInjector>> injectors_;
  // Per-execution recovery counters (what ExecutionStats is derived from
  // at Finish — they must not be shared across a session's executions).
  // Also the fallback sink when no session registry is attached.
  obs::MetricsRegistry local_metrics_;
  // Where everything else is recorded: the session's registry (via
  // PlanOptions::metrics) when collection is on and one is attached, else
  // &local_metrics_. Local recovery counters are transferred over at
  // Finish with plain counter adds.
  obs::MetricsRegistry* sink_ = nullptr;
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* failovers_counter_ = nullptr;
  obs::Counter* breaker_rejections_counter_ = nullptr;
  // Tail-tolerance counters: created only when hedging / adaptive timeouts
  // are enabled (null otherwise, keeping the default registry unchanged).
  obs::Counter* hedges_fired_counter_ = nullptr;
  obs::Counter* hedge_wins_counter_ = nullptr;
  obs::Counter* hedges_cancelled_counter_ = nullptr;
  obs::Counter* hedges_suppressed_counter_ = nullptr;
  obs::Counter* adaptive_timeouts_counter_ = nullptr;
  // Sub-answer cache counters and validity stamp: set only when
  // PlanOptions::answer_cache is on (null/zero otherwise, keeping the
  // default registry and metrics JSON unchanged).
  obs::Counter* answer_hits_counter_ = nullptr;
  obs::Counter* answer_misses_counter_ = nullptr;
  EpochStamp answer_stamp_;
  // Remaining speculative launches this query may still make; per-source
  // usage lives in hedge_source_used_ (guarded by mu_).
  std::atomic<int> hedge_budget_query_{0};
  std::map<std::string, int> hedge_source_used_;
  obs::SpanRecorder* spans_ = nullptr;  // null when collection is off
  obs::Span exec_span_;
  uint64_t exec_span_id_ = 0;
  // Recovery accounting, guarded by mu_ while the dataflow runs.
  std::map<std::string, std::string> failed_sources_;
  std::vector<AnswerTrace::Event> recovery_events_;
  Stopwatch clock_;  // event timestamps, seconds since execution creation
  bool degraded_ = false;
  struct OperatorCounter {
    // Label, source and estimate from the plan; rows and runtime fields are
    // filled by Finish().
    obs::OperatorRuntime record;
    std::string stats_key;  // feedback key; empty = no feedback
    std::shared_ptr<std::atomic<uint64_t>> counter;
    std::shared_ptr<OpRuntimeRec> runtime;  // null when metrics are off
  };
  std::vector<OperatorCounter> operator_counters_;

  bool finished_ = false;
  Status final_status_;
  ExecutionStats stats_;
  std::vector<obs::OperatorRuntime> operator_runtime_;
};

PlanExecution::PlanExecution(
    const std::map<std::string, SourceWrapper*>& wrappers,
    const PlanOptions& options, CancellationToken token)
    : impl_(std::make_unique<Impl>(wrappers, options, std::move(token))) {}

PlanExecution::~PlanExecution() = default;

void PlanExecution::Start(const FederatedPlan& plan) { impl_->Start(plan); }

bool PlanExecution::NextBatch(RowBatch* batch) {
  return impl_->NextBatch(batch);
}

void PlanExecution::Collect(
    std::function<void(std::vector<rdf::Binding>&&)> sink,
    std::function<void()> on_done) {
  impl_->Collect(std::move(sink), std::move(on_done));
}

Status PlanExecution::Finish() { return impl_->Finish(); }

const ExecutionStats& PlanExecution::stats() const { return impl_->stats(); }

const std::vector<obs::OperatorRuntime>& PlanExecution::operator_runtime()
    const {
  return impl_->operator_runtime();
}

const std::vector<AnswerTrace::Event>& PlanExecution::trace_events() const {
  return impl_->trace_events();
}

std::string QueryAnswer::OperatorStatsText() const {
  std::string out;
  char buf[64];
  for (const obs::OperatorRuntime& op : operator_runtime) {
    std::snprintf(buf, sizeof(buf), "%10llu  ",
                  static_cast<unsigned long long>(op.rows));
    out += buf;
    out += op.label;
    if (op.estimated_rows >= 0.0) {
      std::snprintf(buf, sizeof(buf), "  [est≈%lld]",
                    static_cast<long long>(op.estimated_rows));
      out += buf;
    }
    out.push_back('\n');
  }
  if (!stats.per_source.empty()) {
    out += "per-source traffic:\n";
    for (const auto& [source, traffic] : stats.per_source) {
      std::snprintf(buf, sizeof(buf), "%10llu rows  %10llu msgs  %10.2f ms  ",
                    static_cast<unsigned long long>(traffic.rows),
                    static_cast<unsigned long long>(traffic.messages),
                    traffic.delay_ms);
      out += buf;
      out += source;
      if (traffic.retries > 0) {
        out += "  (" + std::to_string(traffic.retries) + " retries)";
      }
      out.push_back('\n');
    }
  }
  // Recovery section: rendered only when the fault-tolerance layer acted,
  // so fault-free output is byte-identical to the historic format.
  if (stats.retries > 0 || stats.failovers > 0 || stats.faults_injected > 0 ||
      stats.breaker_rejections > 0 || stats.partial ||
      !stats.failed_sources.empty()) {
    out += "recovery: " + std::to_string(stats.retries) + " retries  " +
           std::to_string(stats.failovers) + " failovers  " +
           std::to_string(stats.faults_injected) + " faults injected  " +
           std::to_string(stats.breaker_rejections) + " breaker rejections";
    if (stats.partial) out += "  (partial answer)";
    out.push_back('\n');
    for (const auto& [source, error] : stats.failed_sources) {
      out += "  failed source " + source + ": " + error + "\n";
    }
  }
  // Tail-tolerance section: rendered only when hedging, adaptive timeouts
  // or latency-spike injection acted, like the recovery section above.
  if (stats.hedges_fired > 0 || stats.hedges_suppressed > 0 ||
      stats.adaptive_timeouts > 0 || stats.latency_spikes_injected > 0) {
    out += "tail tolerance: " + std::to_string(stats.hedges_fired) +
           " hedges fired  " + std::to_string(stats.hedge_wins) + " wins  " +
           std::to_string(stats.hedges_cancelled) + " cancelled  " +
           std::to_string(stats.hedges_suppressed) + " suppressed  " +
           std::to_string(stats.adaptive_timeouts) + " adaptive timeouts  " +
           std::to_string(stats.latency_spikes_injected) + " latency spikes\n";
  }
  // Reuse section: rendered only when the sub-answer cache was consulted,
  // so cache-off output is byte-identical to the historic format.
  if (stats.sub_answer_hits > 0 || stats.sub_answer_misses > 0) {
    out += "sub-answer cache: " + std::to_string(stats.sub_answer_hits) +
           " hits  " + std::to_string(stats.sub_answer_misses) + " misses\n";
  }
  return out;
}

}  // namespace lakefed::fed