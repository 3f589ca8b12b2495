#include "rdf/binding.h"

namespace lakefed::rdf {
namespace {

// LEB128 length, then the bytes: a prefix-free encoding of one string.
void AppendLengthPrefixed(std::string_view s, std::string* key) {
  size_t n = s.size();
  while (n >= 0x80) {
    key->push_back(static_cast<char>((n & 0x7f) | 0x80));
    n >>= 7;
  }
  key->push_back(static_cast<char>(n));
  key->append(s);
}

}  // namespace

Binding MergeBindings(const Binding& left, const Binding& right) {
  Binding out;
  out.reserve(left.size() + right.size());
  auto l = left.begin();
  auto r = right.begin();
  while (l != left.end() && r != right.end()) {
    if (r->first < l->first) {
      out.emplace_hint(out.end(), r->first, r->second);
      ++r;
    } else {
      if (l->first == r->first) ++r;  // shared variable: left wins
      out.emplace_hint(out.end(), l->first, l->second);
      ++l;
    }
  }
  for (; l != left.end(); ++l) out.emplace_hint(out.end(), l->first, l->second);
  for (; r != right.end(); ++r) {
    out.emplace_hint(out.end(), r->first, r->second);
  }
  return out;
}

void AppendTermKey(const Term& term, std::string* key) {
  key->push_back(static_cast<char>(term.kind()));
  AppendLengthPrefixed(term.value(), key);
  AppendLengthPrefixed(term.datatype(), key);
  AppendLengthPrefixed(term.lang(), key);
}

void AppendRowKey(const Binding& row, std::string* key) {
  for (const auto& [var, term] : row) {
    AppendLengthPrefixed(var, key);
    AppendTermKey(term, key);
  }
}

}  // namespace lakefed::rdf
