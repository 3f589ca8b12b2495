// RowBatch: the unit of inter-operator data transfer in the federated
// engine. Operators and wrappers exchange morsels of ~1K solution
// mappings instead of single rows, so the per-transfer costs (queue lock,
// condition-variable wake-up, wait-observer bookkeeping) amortize over
// the batch. A batch is just an owning vector of bindings — no shared
// state, so batches move freely between operator tasks.
//
// Batch boundaries carry no meaning: consumers must treat a stream of
// batches exactly like the concatenated stream of rows (partial batches
// appear on producer close, after ramp-up, and whenever a queue hands
// out what it has rather than waiting for a full morsel).

#ifndef LAKEFED_FED_ROW_BATCH_H_
#define LAKEFED_FED_ROW_BATCH_H_

#include <cstddef>
#include <vector>

#include "rdf/bgp.h"

namespace lakefed::fed {

// Default number of rows per batch (PlanOptions::batch_size). Large
// enough to amortize queue traffic on sub-millisecond queries, small
// enough that back-pressure (queue capacity 4096 rows) still engages.
inline constexpr size_t kDefaultBatchSize = 1024;

struct RowBatch {
  std::vector<rdf::Binding> rows;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
  void clear() { rows.clear(); }

  auto begin() { return rows.begin(); }
  auto end() { return rows.end(); }
  auto begin() const { return rows.begin(); }
  auto end() const { return rows.end(); }
};

}  // namespace lakefed::fed

#endif  // LAKEFED_FED_ROW_BATCH_H_
