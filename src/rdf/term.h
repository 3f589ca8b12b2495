// RDF terms (IRI, literal, blank node) and triples.

#ifndef LAKEFED_RDF_TERM_H_
#define LAKEFED_RDF_TERM_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

namespace lakefed::rdf {

enum class TermKind { kIri = 0, kLiteral = 1, kBlank = 2 };

// An RDF term. Its value, datatype and language tag are stored back to back
// in one buffer: inline when together they take at most kInlineCapacity
// bytes, else in a single heap block. So a typical IRI or literal costs no
// allocation, and no term costs more than one.
//
// The accessors return views into that buffer. A view stays valid while
// its term lives unmodified: assigning to, moving from or destroying the
// term invalidates it (a move relocates inline bytes).
class Term {
 public:
  static constexpr size_t kInlineCapacity = 88;

  Term() = default;  // empty IRI; use the factories below
  Term(const Term& other);
  Term(Term&& other) noexcept;
  Term& operator=(const Term& other);
  Term& operator=(Term&& other) noexcept;
  ~Term() { Release(); }

  static Term Iri(std::string_view iri);
  // The IRI `prefix` + `key` + `suffix`, written straight into the term.
  static Term Iri(std::string_view prefix, std::string_view key,
                  std::string_view suffix);
  // A literal with optional datatype IRI and language tag (at most one of
  // the two is customarily set).
  static Term Literal(std::string_view lexical, std::string_view datatype = {},
                      std::string_view lang = {});
  static Term Blank(std::string_view label);

  TermKind kind() const { return kind_; }
  bool is_iri() const { return kind_ == TermKind::kIri; }
  bool is_literal() const { return kind_ == TermKind::kLiteral; }
  bool is_blank() const { return kind_ == TermKind::kBlank; }

  // IRI string, lexical form, or blank label depending on kind.
  std::string_view value() const { return {data(), value_size_}; }
  std::string_view datatype() const {
    return {data() + value_size_, datatype_size_};
  }
  std::string_view lang() const {
    return {data() + value_size_ + datatype_size_, lang_size_};
  }

  // N-Triples rendering: <iri> | "lex" | "lex"^^<dt> | "lex"@lang | _:label
  std::string ToString() const;

  // Total order: by kind, then value, then datatype, then lang.
  int Compare(const Term& other) const;
  // Equal kinds and equal parts: one comparison of the packed buffers.
  bool operator==(const Term& other) const {
    return kind_ == other.kind_ && value_size_ == other.value_size_ &&
           datatype_size_ == other.datatype_size_ &&
           lang_size_ == other.lang_size_ &&
           std::memcmp(data(), other.data(), size()) == 0;
  }
  bool operator!=(const Term& other) const { return !(*this == other); }
  bool operator<(const Term& other) const { return Compare(other) < 0; }

  size_t Hash() const;

 private:
  size_t size() const {
    return static_cast<size_t>(value_size_) + datatype_size_ + lang_size_;
  }
  bool on_heap() const { return size() > kInlineCapacity; }
  const char* data() const {
    return on_heap() ? storage_.heap : storage_.bytes;
  }

  // Frees a heap block and leaves the term an empty IRI.
  void Release();
  // Sizes the (released) term for the three parts and returns where they
  // go, back to back.
  char* Allocate(TermKind kind, size_t value_size, size_t datatype_size,
                 size_t lang_size);
  // Takes over `other`'s buffer and leaves `other` an empty IRI.
  void Steal(Term* other);

  union Storage {
    char bytes[kInlineCapacity];
    char* heap = nullptr;
  } storage_;
  uint32_t value_size_ = 0;
  uint32_t datatype_size_ = 0;
  uint32_t lang_size_ = 0;
  TermKind kind_ = TermKind::kIri;
};

struct TermHash {
  size_t operator()(const Term& t) const { return t.Hash(); }
};

struct Triple {
  Term subject, predicate, object;

  bool operator==(const Triple& other) const {
    return subject == other.subject && predicate == other.predicate &&
           object == other.object;
  }

  std::string ToString() const;  // N-Triples line without trailing newline
};

// Well-known vocabulary IRIs.
inline constexpr char kRdfType[] =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
inline constexpr char kXsdInteger[] = "http://www.w3.org/2001/XMLSchema#integer";
inline constexpr char kXsdDouble[] = "http://www.w3.org/2001/XMLSchema#double";
inline constexpr char kXsdString[] = "http://www.w3.org/2001/XMLSchema#string";

}  // namespace lakefed::rdf

#endif  // LAKEFED_RDF_TERM_H_
