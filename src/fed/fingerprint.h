// Normalized query fingerprints: the plan-cache identity of a query under
// one set of plan-shaping options.
//
// Two textual queries that differ only in prefix declarations, triple-
// pattern order or filter order normalize to the same fingerprint; literal
// constants are lifted out of the canonical template as positional
// parameters. The *full* cache key still includes the parameter values —
// Heuristic 2's selectivity reasoning and the cost model's histogram
// lookups depend on the concrete literals, so a plan built for one
// parameter binding must not be replayed for another — but the split keeps
// the normalization rules explicit and gives the shell's `.fingerprint`
// something meaningful to show.

#ifndef LAKEFED_FED_FINGERPRINT_H_
#define LAKEFED_FED_FINGERPRINT_H_

#include <string>
#include <vector>

#include "fed/options.h"
#include "sparql/ast.h"

namespace lakefed::fed {

struct QueryFingerprint {
  // Canonical template of the query: prefixes dropped (terms are
  // already IRI-expanded by the parser), triple patterns and filters sorted
  // by their canonical rendering, literal constants replaced by positional
  // $<k> placeholders.
  std::string canonical;
  // The lifted literals, in placeholder order ($1 = params[0], ...).
  std::vector<std::string> params;
  // Digest of the PlanOptions fields that shape the plan (mode, heuristic
  // toggles, decomposition, network identity, cost model, ...). Fields that
  // only affect *how* a plan executes (batch size, retries, metrics) are
  // deliberately absent so they do not fragment the cache.
  std::string options_digest;

  // The plan-cache key: canonical template + parameter values + options
  // digest.
  std::string CacheKey() const;

  // Multi-line human-readable rendering (shell `.fingerprint`).
  std::string ToText() const;
};

// Fingerprints one query — UNION blocks, aggregates and solution modifiers
// included, since sessions plan the whole query as one plan.
QueryFingerprint FingerprintQuery(const sparql::SelectQuery& query,
                                  const PlanOptions& options);

// The options digest alone (also part of FingerprintQuery's result).
std::string PlanShapeDigest(const PlanOptions& options);

}  // namespace lakefed::fed

#endif  // LAKEFED_FED_FINGERPRINT_H_
