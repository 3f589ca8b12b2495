#include "mapping/rdf_mt.h"

#include <algorithm>

namespace lakefed::mapping {

void RdfMtCatalog::Add(const RdfMt& molecule) {
  auto it = molecules_.find(molecule.class_iri);
  if (it == molecules_.end()) {
    molecules_[molecule.class_iri] = molecule;
    return;
  }
  RdfMt& existing = it->second;
  existing.cardinality += molecule.cardinality;
  existing.predicates.insert(molecule.predicates.begin(),
                             molecule.predicates.end());
  for (const auto& [pred, cls] : molecule.links) existing.links[pred] = cls;
  for (const std::string& source : molecule.sources) {
    if (std::find(existing.sources.begin(), existing.sources.end(), source) ==
        existing.sources.end()) {
      existing.sources.push_back(source);
    }
  }
}

const RdfMt* RdfMtCatalog::Find(const std::string& class_iri) const {
  auto it = molecules_.find(class_iri);
  return it == molecules_.end() ? nullptr : &it->second;
}

std::vector<const RdfMt*> RdfMtCatalog::Covering(
    const std::optional<std::string>& class_iri,
    const std::vector<std::string>& predicates) const {
  std::vector<const RdfMt*> out;
  for (const auto& [cls, molecule] : molecules_) {
    if (class_iri.has_value() && cls != *class_iri) continue;
    bool covers = true;
    for (const std::string& pred : predicates) {
      if (molecule.predicates.count(pred) == 0) {
        covers = false;
        break;
      }
    }
    if (covers) out.push_back(&molecule);
  }
  return out;
}

std::vector<RdfMt> RdfMtCatalog::ExtractFromTripleStore(
    const std::string& source_id, const rdf::TripleStore& store) {
  std::vector<RdfMt> out;
  for (const rdf::Term& cls : store.DistinctClasses()) {
    if (!cls.is_iri()) continue;
    RdfMt molecule;
    molecule.class_iri = cls.value();
    molecule.sources.push_back(source_id);
    molecule.cardinality =
        store.Match(std::nullopt, rdf::Term::Iri(rdf::kRdfType), cls).size();
    for (const rdf::Term& pred : store.PredicatesOfClass(cls)) {
      molecule.predicates.insert(std::string(pred.value()));
    }
    // Links: predicates whose objects are typed instances of another class.
    store.MatchVisit(std::nullopt, rdf::Term::Iri(rdf::kRdfType), cls,
                     [&](const rdf::Triple& inst) {
                       store.MatchVisit(
                           inst.subject, std::nullopt, std::nullopt,
                           [&](const rdf::Triple& t) {
                             if (!t.object.is_iri()) return true;
                             auto types = store.Match(
                                 t.object, rdf::Term::Iri(rdf::kRdfType),
                                 std::nullopt);
                             if (!types.empty() && types[0].object.is_iri()) {
                               molecule.links[std::string(
                                   t.predicate.value())] =
                                   types[0].object.value();
                             }
                             return true;
                           });
                       return true;
                     });
    out.push_back(std::move(molecule));
  }
  return out;
}

}  // namespace lakefed::mapping
