// Query profiling: EXPLAIN ANALYZE for the federated engine. The executor
// fills one OperatorRuntime per plan operator and one SourceTraffic per
// source; a QueryProfile holds those records as they are, plus the session
// phases and totals, and every view renders that one object:
//
//   * per operator: label, actual rows, the planner's estimate (rendered as
//     a q-error) and runtime accounting (wall time of the operator's tasks
//     or leaf jobs, output-queue waits and occupancy samples),
//   * per source: shipped rows, messages, retries and simulated delay,
//   * the session phases taken from the span tree.
//
// ToText() is the EXPLAIN ANALYZE table for the shell; ToJson() is stable
// JSON for tooling. Derived figures (q-error, compute and network share,
// rows/s) are computed when rendered. This layer is fed-agnostic.

#ifndef LAKEFED_OBS_PROFILE_H_
#define LAKEFED_OBS_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/span.h"

namespace lakefed::obs {

// One operator of an executed plan: what the planner expected, what it
// produced and, when metrics were collected, where its time went. The
// queue-wait fields describe the operator's own output queue: push waits
// are time a producer spent blocked on a full queue (none of the task
// executor's producers block — leaf queues are unbounded and operator tasks
// park instead — so these read 0 there), pop waits are time the consumer
// spent starved for this operator's output.
struct OperatorRuntime {
  std::string label;           // plan-node description (first line)
  std::string source_id;       // leaf operators: the source they scan
  uint64_t rows = 0;           // rows the operator emitted
  double estimated_rows = -1;  // planner's estimate; -1 = none
  double wall_ms = -1;         // task / leaf-job wall time; -1 = not measured
  uint64_t push_waits = 0;     // pushes into the out queue that blocked
  double push_wait_ms = 0;     // total producer blocking
  uint64_t pop_waits = 0;      // pops of the out queue that blocked
  double pop_wait_ms = 0;      // total consumer starvation on this queue
  uint64_t depth_samples = 0;  // occupancy samples (one per push)
  uint64_t peak_depth = 0;     // highest observed queue depth
  double depth_sum = 0;        // sum of sampled depths (avg = sum/samples)

  double avg_depth() const {
    return depth_samples == 0 ? 0.0
                              : depth_sum / static_cast<double>(depth_samples);
  }
};

// One source's share of a query's traffic.
struct SourceTraffic {
  uint64_t rows = 0;      // result rows shipped by this source
  uint64_t messages = 0;  // delay-channel transfers
  double delay_ms = 0;    // simulated delay injected on this channel
  uint64_t retries = 0;   // sub-query re-attempts against this source
};

// q-error of one cardinality estimate: max(e/a, a/e) with both sides
// clamped to >= 1 so empty operators do not divide by zero (the standard
// definition from the cardinality-estimation literature; 1.0 = exact).
// Returns -1 when there is no estimate (estimated < 0).
double QError(double estimated, double actual);

struct QueryProfile {
  struct Phase {  // top-level session spans: parse, plan, execute, ...
    std::string name;
    double ms = 0;
  };

  std::vector<OperatorRuntime> operators;        // in spawn order
  std::map<std::string, SourceTraffic> sources;  // keyed by source id
  std::vector<Phase> phases;
  double total_ms = 0;
  double first_answer_ms = -1;  // -1 = no answers
  uint64_t answer_rows = 0;
  std::string status = "ok";

  // Largest q-error across operators with estimates; -1 = none.
  double MaxQError() const;

  // EXPLAIN ANALYZE rendering: session header, phase line, one aligned row
  // per operator (est vs actual, q-error, time split, rows/s), and the
  // per-source traffic.
  std::string ToText() const;
  // Stable JSON (keys in fixed order, operators in plan order):
  // {"status":..,"total_ms":..,"first_answer_ms":..,"rows":..,
  //  "max_q_error":..,"phases":[..],"operators":[..],"sources":[..]}.
  // Absent measurements are -1, never omitted keys.
  std::string ToJson() const;
};

// The session phases of a span tree: the direct children of its root
// span(s), in start order.
std::vector<QueryProfile::Phase> SessionPhases(
    const std::vector<SpanRecord>& spans);

}  // namespace lakefed::obs

#endif  // LAKEFED_OBS_PROFILE_H_
