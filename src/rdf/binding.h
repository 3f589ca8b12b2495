// Binding: a SPARQL solution mapping (variable name without '?' -> term).
//
// A flat vector of (variable, term) entries kept sorted by variable, with
// the subset of the std::map<std::string, Term> interface the engine uses:
// lookups, non-overwriting insert/emplace, operator[], erase, sorted
// iteration, and lexicographic == and <. Semantics are std::map's exactly,
// so DISTINCT, ORDER BY and answer digests see the same rows in the same
// order. Rows hold a handful of variables, so one contiguous allocation
// beats a node per entry, and a merge of two rows is a linear pass.
//
// Iterators expose the entries as mutable pairs; assigning to an entry's
// variable name breaks the ordering invariant and is not allowed.

#ifndef LAKEFED_RDF_BINDING_H_
#define LAKEFED_RDF_BINDING_H_

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rdf/term.h"

namespace lakefed::rdf {

class Binding {
 public:
  using value_type = std::pair<std::string, Term>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  Binding() = default;
  Binding(std::initializer_list<value_type> entries) {
    insert(entries.begin(), entries.end());
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }
  void reserve(size_t n) { entries_.reserve(n); }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  iterator find(std::string_view var) {
    iterator it = LowerBound(var);
    return it != entries_.end() && it->first == var ? it : entries_.end();
  }
  const_iterator find(std::string_view var) const {
    return const_cast<Binding*>(this)->find(var);
  }
  size_t count(std::string_view var) const {
    return find(var) != end() ? 1 : 0;
  }

  Term& at(std::string_view var) {
    iterator it = find(var);
    if (it == entries_.end()) throw std::out_of_range("Binding::at");
    return it->second;
  }
  const Term& at(std::string_view var) const {
    return const_cast<Binding*>(this)->at(var);
  }

  // Default-inserts an empty term for an unbound variable.
  Term& operator[](std::string var) {
    return emplace(std::move(var), Term()).first->second;
  }

  // Inserts unless the variable is already bound (the bound term stays).
  std::pair<iterator, bool> insert(const value_type& entry) {
    return emplace(entry.first, entry.second);
  }
  std::pair<iterator, bool> insert(value_type&& entry) {
    return emplace(std::move(entry.first), std::move(entry.second));
  }
  template <typename InputIt>
  void insert(InputIt first, InputIt last) {
    for (; first != last; ++first) insert(*first);
  }

  template <typename K, typename V>
  std::pair<iterator, bool> emplace(K&& var, V&& term) {
    std::string_view key(var);
    iterator it = LowerBound(key);
    if (it != entries_.end() && it->first == key) return {it, false};
    it = entries_.emplace(it, std::forward<K>(var), std::forward<V>(term));
    return {it, true};
  }

  // Like emplace; O(1) when appending in variable order at end().
  template <typename K, typename V>
  iterator emplace_hint(const_iterator hint, K&& var, V&& term) {
    if (hint == entries_.end() &&
        (entries_.empty() || entries_.back().first < std::string_view(var))) {
      entries_.emplace_back(std::forward<K>(var), std::forward<V>(term));
      return entries_.end() - 1;
    }
    return emplace(std::forward<K>(var), std::forward<V>(term)).first;
  }

  size_t erase(std::string_view var) {
    iterator it = find(var);
    if (it == entries_.end()) return 0;
    entries_.erase(it);
    return 1;
  }
  iterator erase(const_iterator pos) { return entries_.erase(pos); }

  friend bool operator==(const Binding& a, const Binding& b) {
    return a.entries_ == b.entries_;
  }
  // Lexicographic over (variable, term) entries, as for std::map.
  friend bool operator<(const Binding& a, const Binding& b) {
    return a.entries_ < b.entries_;
  }

 private:
  iterator LowerBound(std::string_view var) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), var,
        [](const value_type& e, std::string_view v) { return e.first < v; });
  }

  std::vector<value_type> entries_;
};

// Union of two compatible rows in one linear pass. On a variable both
// bind, the left row's term wins (as `out = left; out.insert(right)`).
Binding MergeBindings(const Binding& left, const Binding& right);

// Appends an injective encoding of `term` to `key`: the kind, then the
// value, datatype and language tag, each length-prefixed. Distinct terms
// never encode alike, and neither do distinct sequences of terms, so
// concatenated encodings key DISTINCT and IN-list membership without
// rendering N-Triples text.
void AppendTermKey(const Term& term, std::string* key);

// Appends an injective encoding of the whole row (variables and terms) to
// `key`: two rows encode alike iff they are equal.
void AppendRowKey(const Binding& row, std::string* key);

}  // namespace lakefed::rdf

#endif  // LAKEFED_RDF_BINDING_H_
