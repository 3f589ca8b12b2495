// Basic graph pattern (BGP) evaluation over a TripleStore: the query
// machinery of a native RDF endpoint. Used by the RDF wrapper to answer
// star-shaped sub-queries.

#ifndef LAKEFED_RDF_BGP_H_
#define LAKEFED_RDF_BGP_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/binding.h"
#include "rdf/term.h"
#include "rdf/triple_store.h"

namespace lakefed::rdf {

// One position of a triple pattern: either a variable or a concrete term.
struct PatternNode {
  bool is_var = false;
  std::string var;  // without '?'
  Term term;

  static PatternNode Var(std::string name) {
    PatternNode n;
    n.is_var = true;
    n.var = std::move(name);
    return n;
  }
  static PatternNode Const(Term term) {
    PatternNode n;
    n.term = std::move(term);
    return n;
  }

  std::string ToString() const {
    return is_var ? "?" + var : term.ToString();
  }
};

struct TriplePattern {
  PatternNode subject, predicate, object;

  std::string ToString() const {
    return subject.ToString() + " " + predicate.ToString() + " " +
           object.ToString() + " .";
  }

  // Variable names used by this pattern.
  std::vector<std::string> Variables() const;
};

// Evaluates the conjunction of `patterns`, invoking `fn` once per solution;
// return false from `fn` to stop. Patterns are dynamically reordered by
// boundness (most selective first).
Status EvaluateBgpVisit(const TripleStore& store,
                        const std::vector<TriplePattern>& patterns,
                        const std::function<bool(const Binding&)>& fn);

// Like EvaluateBgpVisit, but solutions must extend `seed` (used for
// OPTIONAL evaluation and dependent joins). The emitted bindings include
// the seed's assignments.
Status EvaluateBgpSeededVisit(const TripleStore& store,
                              const std::vector<TriplePattern>& patterns,
                              const Binding& seed,
                              const std::function<bool(const Binding&)>& fn);

Result<std::vector<Binding>> EvaluateBgp(
    const TripleStore& store, const std::vector<TriplePattern>& patterns);

}  // namespace lakefed::rdf

#endif  // LAKEFED_RDF_BGP_H_
