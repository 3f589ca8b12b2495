// Relational mappings (R2RML-style, simplified): how the entities of one RDF
// class are stored in the 3NF tables of a relational source.
//
// Paper assumptions baked in: tables are normalized to 3NF and the subjects
// of SPARQL queries map to the primary keys of the base tables
// (Jozashoori & Vidal's best-case layout). Multi-valued predicates live in
// side tables (pk, value) joined through a foreign key — that is what 3NF
// normalization of the RDF data produces.

#ifndef LAKEFED_MAPPING_RELATIONAL_MAPPING_H_
#define LAKEFED_MAPPING_RELATIONAL_MAPPING_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "mapping/rdf_mt.h"
#include "rdf/term.h"
#include "rel/value.h"

namespace lakefed::mapping {

// An IRI template with exactly one "{}" placeholder, e.g.
// "http://lslod.example.org/diseasome/disease/{}".
class IriTemplate {
 public:
  IriTemplate() = default;
  explicit IriTemplate(std::string pattern);

  bool valid() const { return !prefix_.empty() || !suffix_.empty(); }

  // Renders the IRI for a value ("{}" replaced by the value's text).
  std::string Format(const rel::Value& value) const;
  // The same IRI as a term: prefix, key text and suffix are written
  // straight into the term's storage.
  rdf::Term FormatTerm(const rel::Value& value) const;

  // Recovers the value text from an IRI; nullopt if it does not match.
  std::optional<std::string> Extract(std::string_view iri) const;

  std::string pattern() const { return prefix_ + "{}" + suffix_; }

 private:
  std::string prefix_;
  std::string suffix_;
};

// How one predicate of a class maps to relational storage.
struct PredicateMapping {
  std::string predicate;  // IRI
  // Where the value lives: either a column of the base table (link_table
  // empty) or a column of a side table joined via base.pk = side.fk.
  std::string column;
  std::string link_table;  // empty for base-table columns
  std::string link_fk;     // FK column in link_table referencing base pk
  // Object construction: literal (with datatype) or templated IRI.
  bool object_is_iri = false;
  IriTemplate iri_template;        // when object_is_iri
  std::string literal_datatype;    // "" = plain literal

  bool InBaseTable() const { return link_table.empty(); }
};

// How one RDF class maps onto the tables of a relational source.
struct ClassMapping {
  std::string class_iri;
  std::string base_table;
  std::string pk_column;
  IriTemplate subject_template;  // subject IRI <-> pk value
  std::vector<PredicateMapping> predicates;

  const PredicateMapping* FindPredicate(std::string_view iri) const;
};

// All class mappings of one relational source.
struct SourceMapping {
  std::string source_id;
  std::vector<ClassMapping> classes;

  const ClassMapping* FindClass(std::string_view iri) const;
  // The class mapping (if any) that declares the given predicate.
  const ClassMapping* ClassOfPredicate(std::string_view predicate) const;
};

// --- value <-> term conversion ----------------------------------------------

// Builds the RDF term for a relational cell according to `pm`.
rdf::Term TermFromValue(const rel::Value& value, const PredicateMapping& pm);

// Builds the subject term for a pk value.
rdf::Term SubjectFromValue(const rel::Value& value, const ClassMapping& cm);

// Converts an RDF term (from a SPARQL constant) into the relational value
// the mapped column stores. Inverse of TermFromValue.
Result<rel::Value> ValueFromTerm(const rdf::Term& term,
                                 const PredicateMapping& pm);

// Converts a subject IRI into the pk value. Inverse of SubjectFromValue.
Result<rel::Value> PkValueFromSubject(const rdf::Term& subject,
                                      const ClassMapping& cm);

// Parses a literal's lexical form into a typed relational value based on the
// declared datatype ("" or string types -> STRING).
rel::Value ValueFromLexical(std::string_view lexical,
                            std::string_view datatype);

// Derives the RDF molecule templates a relational source exposes through its
// mappings (one molecule per mapped class; predicate links are inferred from
// IRI-valued predicates whose template matches another class's subjects).
std::vector<RdfMt> MoleculesFromMapping(const SourceMapping& mapping);

}  // namespace lakefed::mapping

#endif  // LAKEFED_MAPPING_RELATIONAL_MAPPING_H_
