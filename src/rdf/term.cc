#include "rdf/term.h"

#include <cstring>
#include <limits>
#include <stdexcept>

namespace lakefed::rdf {

Term::Term(const Term& other) {
  std::memcpy(Allocate(other.kind_, other.value_size_, other.datatype_size_,
                       other.lang_size_),
              other.data(), other.size());
}

Term::Term(Term&& other) noexcept { Steal(&other); }

Term& Term::operator=(const Term& other) {
  if (this != &other) {
    Release();
    std::memcpy(Allocate(other.kind_, other.value_size_, other.datatype_size_,
                         other.lang_size_),
                other.data(), other.size());
  }
  return *this;
}

Term& Term::operator=(Term&& other) noexcept {
  if (this != &other) {
    Release();
    Steal(&other);
  }
  return *this;
}

void Term::Release() {
  if (on_heap()) delete[] storage_.heap;
  value_size_ = datatype_size_ = lang_size_ = 0;
  kind_ = TermKind::kIri;
}

char* Term::Allocate(TermKind kind, size_t value_size, size_t datatype_size,
                     size_t lang_size) {
  constexpr size_t kMax = std::numeric_limits<uint32_t>::max();
  if (value_size > kMax || datatype_size > kMax || lang_size > kMax) {
    throw std::length_error("rdf::Term part longer than 4 GiB");
  }
  kind_ = kind;
  value_size_ = static_cast<uint32_t>(value_size);
  datatype_size_ = static_cast<uint32_t>(datatype_size);
  lang_size_ = static_cast<uint32_t>(lang_size);
  if (!on_heap()) return storage_.bytes;
  storage_.heap = new char[size()];
  return storage_.heap;
}

void Term::Steal(Term* other) {
  kind_ = other->kind_;
  value_size_ = other->value_size_;
  datatype_size_ = other->datatype_size_;
  lang_size_ = other->lang_size_;
  if (on_heap()) {
    storage_.heap = other->storage_.heap;
  } else {
    std::memcpy(storage_.bytes, other->storage_.bytes, size());
  }
  other->value_size_ = other->datatype_size_ = other->lang_size_ = 0;
  other->kind_ = TermKind::kIri;
}

Term Term::Iri(std::string_view iri) { return Iri(iri, {}, {}); }

Term Term::Iri(std::string_view prefix, std::string_view key,
               std::string_view suffix) {
  Term t;
  char* out = t.Allocate(TermKind::kIri,
                         prefix.size() + key.size() + suffix.size(), 0, 0);
  // Empty views may carry a null pointer, which memcpy must not see.
  if (!prefix.empty()) std::memcpy(out, prefix.data(), prefix.size());
  out += prefix.size();
  if (!key.empty()) std::memcpy(out, key.data(), key.size());
  out += key.size();
  if (!suffix.empty()) std::memcpy(out, suffix.data(), suffix.size());
  return t;
}

Term Term::Literal(std::string_view lexical, std::string_view datatype,
                   std::string_view lang) {
  Term t;
  char* out = t.Allocate(TermKind::kLiteral, lexical.size(), datatype.size(),
                         lang.size());
  if (!lexical.empty()) std::memcpy(out, lexical.data(), lexical.size());
  out += lexical.size();
  if (!datatype.empty()) std::memcpy(out, datatype.data(), datatype.size());
  out += datatype.size();
  if (!lang.empty()) std::memcpy(out, lang.data(), lang.size());
  return t;
}

Term Term::Blank(std::string_view label) {
  Term t = Iri(label);
  t.kind_ = TermKind::kBlank;
  return t;
}

std::string Term::ToString() const {
  switch (kind_) {
    case TermKind::kIri:
      return "<" + std::string(value()) + ">";
    case TermKind::kBlank:
      return "_:" + std::string(value());
    case TermKind::kLiteral: {
      std::string out = "\"";
      out.reserve(size() + 8);
      for (char c : value()) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out.push_back(c);
        }
      }
      out.push_back('"');
      if (!lang().empty()) {
        out.push_back('@');
        out.append(lang());
      } else if (!datatype().empty()) {
        out += "^^<";
        out.append(datatype());
        out.push_back('>');
      }
      return out;
    }
  }
  return "";
}

int Term::Compare(const Term& other) const {
  if (kind_ != other.kind_) {
    return static_cast<int>(kind_) < static_cast<int>(other.kind_) ? -1 : 1;
  }
  if (int c = value().compare(other.value()); c != 0) return c < 0 ? -1 : 1;
  if (int c = datatype().compare(other.datatype()); c != 0) {
    return c < 0 ? -1 : 1;
  }
  if (int c = lang().compare(other.lang()); c != 0) return c < 0 ? -1 : 1;
  return 0;
}

size_t Term::Hash() const {
  using StringHash = std::hash<std::string_view>;
  size_t h = StringHash{}(value());
  h = h * 31 + static_cast<size_t>(kind_);
  if (datatype_size_ != 0) h = h * 31 + StringHash{}(datatype());
  if (lang_size_ != 0) h = h * 31 + StringHash{}(lang());
  return h;
}

std::string Triple::ToString() const {
  return subject.ToString() + " " + predicate.ToString() + " " +
         object.ToString() + " .";
}

}  // namespace lakefed::rdf
