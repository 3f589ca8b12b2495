#include "mapping/relational_mapping.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/string_util.h"

namespace lakefed::mapping {

IriTemplate::IriTemplate(std::string pattern) {
  size_t pos = pattern.find("{}");
  if (pos == std::string::npos) {
    prefix_ = std::move(pattern);
    return;
  }
  prefix_ = pattern.substr(0, pos);
  suffix_ = pattern.substr(pos + 2);
}

namespace {

// The text Value::ToString renders for a cell, without allocating: a view
// of a string cell, or digits formatted into a stack buffer. Only a double
// whose "%f" form overflows the buffer falls back to ToString.
class ValueText {
 public:
  explicit ValueText(const rel::Value& value) {
    if (value.is_string()) {
      view_ = value.AsString();
    } else if (value.is_int()) {
      auto [end, ec] = std::to_chars(buf_, buf_ + sizeof(buf_), value.AsInt());
      view_ = std::string_view(buf_, static_cast<size_t>(end - buf_));
    } else if (value.is_double()) {
      // std::to_string(double) is specified as "%f".
      int n = std::snprintf(buf_, sizeof(buf_), "%f", value.AsDouble());
      if (n >= 0 && static_cast<size_t>(n) < sizeof(buf_)) {
        view_ = std::string_view(buf_, static_cast<size_t>(n));
      } else {
        spill_ = value.ToString();
        view_ = spill_;
      }
    } else {
      view_ = "NULL";
    }
  }
  ValueText(const ValueText&) = delete;
  ValueText& operator=(const ValueText&) = delete;

  std::string_view view() const { return view_; }

 private:
  char buf_[64];
  std::string spill_;
  std::string_view view_;
};

}  // namespace

std::string IriTemplate::Format(const rel::Value& value) const {
  std::string iri = prefix_;
  iri.append(ValueText(value).view()).append(suffix_);
  return iri;
}

rdf::Term IriTemplate::FormatTerm(const rel::Value& value) const {
  return rdf::Term::Iri(prefix_, ValueText(value).view(), suffix_);
}

std::optional<std::string> IriTemplate::Extract(std::string_view iri) const {
  if (!StartsWith(iri, prefix_) || !EndsWith(iri, suffix_)) {
    return std::nullopt;
  }
  size_t len = iri.size() - prefix_.size() - suffix_.size();
  if (iri.size() < prefix_.size() + suffix_.size()) return std::nullopt;
  return std::string(iri.substr(prefix_.size(), len));
}

const PredicateMapping* ClassMapping::FindPredicate(
    std::string_view iri) const {
  for (const PredicateMapping& pm : predicates) {
    if (pm.predicate == iri) return &pm;
  }
  return nullptr;
}

const ClassMapping* SourceMapping::FindClass(std::string_view iri) const {
  for (const ClassMapping& cm : classes) {
    if (cm.class_iri == iri) return &cm;
  }
  return nullptr;
}

const ClassMapping* SourceMapping::ClassOfPredicate(
    std::string_view predicate) const {
  for (const ClassMapping& cm : classes) {
    if (cm.FindPredicate(predicate) != nullptr) return &cm;
  }
  return nullptr;
}

rel::Value ValueFromLexical(std::string_view lexical,
                            std::string_view datatype) {
  std::string text(lexical);  // strtoll/strtod need a terminated string
  if (Contains(datatype, "integer") || Contains(datatype, "long") ||
      Contains(datatype, "#int")) {
    return rel::Value(
        static_cast<int64_t>(std::strtoll(text.c_str(), nullptr, 10)));
  }
  if (Contains(datatype, "double") || Contains(datatype, "decimal") ||
      Contains(datatype, "float")) {
    return rel::Value(std::strtod(text.c_str(), nullptr));
  }
  return rel::Value(std::move(text));
}

rdf::Term TermFromValue(const rel::Value& value, const PredicateMapping& pm) {
  if (pm.object_is_iri) return pm.iri_template.FormatTerm(value);
  return rdf::Term::Literal(ValueText(value).view(), pm.literal_datatype);
}

rdf::Term SubjectFromValue(const rel::Value& value, const ClassMapping& cm) {
  return cm.subject_template.FormatTerm(value);
}

Result<rel::Value> ValueFromTerm(const rdf::Term& term,
                                 const PredicateMapping& pm) {
  if (pm.object_is_iri) {
    if (!term.is_iri()) {
      return Status::TypeError("expected IRI object for predicate " +
                               pm.predicate + ", got " + term.ToString());
    }
    auto text = pm.iri_template.Extract(term.value());
    if (!text.has_value()) {
      return Status::InvalidArgument("IRI " + std::string(term.value()) +
                                     " does not match template " +
                                     pm.iri_template.pattern());
    }
    // IRI-valued columns store the key text; keys that look like integers
    // are stored as INT64 so they compare correctly against key columns.
    if (!text->empty() &&
        text->find_first_not_of("0123456789-") == std::string::npos) {
      return ValueFromLexical(*text, rdf::kXsdInteger);
    }
    return rel::Value(*text);
  }
  if (!term.is_literal()) {
    return Status::TypeError("expected literal object for predicate " +
                             pm.predicate + ", got " + term.ToString());
  }
  return ValueFromLexical(term.value(), pm.literal_datatype);
}

std::vector<RdfMt> MoleculesFromMapping(const SourceMapping& mapping) {
  std::vector<RdfMt> out;
  for (const ClassMapping& cm : mapping.classes) {
    RdfMt molecule;
    molecule.class_iri = cm.class_iri;
    molecule.sources.push_back(mapping.source_id);
    molecule.predicates.insert(rdf::kRdfType);
    for (const PredicateMapping& pm : cm.predicates) {
      molecule.predicates.insert(pm.predicate);
      if (!pm.object_is_iri) continue;
      // Link detection: an IRI-valued predicate whose template equals the
      // subject template of another mapped class (same or other source part
      // of this mapping) links the two molecules.
      for (const ClassMapping& other : mapping.classes) {
        if (pm.iri_template.pattern() == other.subject_template.pattern()) {
          molecule.links[pm.predicate] = other.class_iri;
        }
      }
    }
    out.push_back(std::move(molecule));
  }
  return out;
}

Result<rel::Value> PkValueFromSubject(const rdf::Term& subject,
                                      const ClassMapping& cm) {
  if (!subject.is_iri()) {
    return Status::TypeError("subject must be an IRI, got " +
                             subject.ToString());
  }
  auto text = cm.subject_template.Extract(subject.value());
  if (!text.has_value()) {
    return Status::InvalidArgument("subject IRI " +
                                   std::string(subject.value()) +
                                   " does not match template " +
                                   cm.subject_template.pattern());
  }
  if (!text->empty() &&
      text->find_first_not_of("0123456789-") == std::string::npos) {
    return rel::Value(
        static_cast<int64_t>(std::strtoll(text->c_str(), nullptr, 10)));
  }
  return rel::Value(*text);
}

}  // namespace lakefed::mapping
