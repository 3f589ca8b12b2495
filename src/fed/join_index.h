// JoinIndex: the mediator's one hash table for joins. The symmetric hash
// join, OPTIONAL and the dependent-join probe all store one input's rows
// in it and probe it with the other's.

#ifndef LAKEFED_FED_JOIN_INDEX_H_
#define LAKEFED_FED_JOIN_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rdf/binding.h"

namespace lakefed::fed {

// The rows of one join input, bucketed by a Term::Hash combination of
// their join terms; a lookup confirms each candidate by term equality, so
// a hash collision never makes a match. A row with an unbound join
// variable has no hash: it is never stored and never matches. No join
// variables = every row in one bucket (cross product). Rows live in one
// vector and buckets chain through it in insertion order, so storing a
// row costs no allocation of its own.
class JoinIndex {
 public:
  explicit JoinIndex(const std::vector<std::string>* vars) : vars_(vars) {}

  // The join hash of `row`; nullopt if a join variable is unbound.
  std::optional<size_t> HashOf(const rdf::Binding& row) const {
    size_t h = 0x9e3779b97f4a7c15ull;
    for (const std::string& v : *vars_) {
      auto it = row.find(v);
      if (it == row.end()) return std::nullopt;
      h ^= it->second.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
  }

  // Stores `row` (hash from HashOf) and returns the stored row, valid
  // until the next Insert or Clear.
  const rdf::Binding& Insert(size_t hash, rdf::Binding row) {
    if (entries_.size() >= buckets_.size()) Rehash();
    entries_.push_back({hash, kNone, std::move(row)});
    Link(static_cast<uint32_t>(entries_.size() - 1));
    return entries_.back().row;
  }

  // Calls fn(stored) for each stored row whose join terms equal `probe`'s,
  // in insertion order; `hash` is HashOf(probe).
  template <typename Fn>
  void ForEachMatch(const rdf::Binding& probe, size_t hash, Fn&& fn) const {
    if (buckets_.empty()) return;
    for (uint32_t i = buckets_[BucketOf(hash)].head; i != kNone;
         i = entries_[i].next) {
      const Entry& e = entries_[i];
      if (e.hash == hash && SameJoinTerms(probe, e.row)) fn(e.row);
    }
  }

  // Frees every stored row.
  void Clear() {
    std::vector<Entry>().swap(entries_);
    std::vector<Bucket>().swap(buckets_);
  }

 private:
  static constexpr uint32_t kNone = ~static_cast<uint32_t>(0);
  struct Entry {
    size_t hash;
    uint32_t next;  // next entry of the bucket's chain
    rdf::Binding row;
  };
  struct Bucket {
    uint32_t head = kNone;
    uint32_t tail = kNone;
  };

  size_t BucketOf(size_t hash) const {
    hash ^= hash >> 33;  // fold the high bits into the mask's range
    return hash & (buckets_.size() - 1);
  }

  void Link(uint32_t i) {
    Bucket& b = buckets_[BucketOf(entries_[i].hash)];
    entries_[i].next = kNone;
    if (b.tail == kNone) {
      b.head = i;
    } else {
      entries_[b.tail].next = i;
    }
    b.tail = i;
  }

  // Doubles the bucket array (load factor at most 1) and relinks every
  // entry in insertion order.
  void Rehash() {
    buckets_.assign(std::max<size_t>(16, buckets_.size() * 2), Bucket{});
    for (uint32_t i = 0; i < entries_.size(); ++i) Link(i);
  }

  bool SameJoinTerms(const rdf::Binding& a, const rdf::Binding& b) const {
    for (const std::string& v : *vars_) {
      if (a.find(v)->second != b.find(v)->second) return false;
    }
    return true;
  }

  const std::vector<std::string>* vars_;
  std::vector<Entry> entries_;
  std::vector<Bucket> buckets_;  // size 0 or a power of two
};

}  // namespace lakefed::fed

#endif  // LAKEFED_FED_JOIN_INDEX_H_
