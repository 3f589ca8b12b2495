#include "stats/analyze.h"

#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "rdf/term.h"

namespace lakefed::stats {
namespace {

// Mixes the analyze seed with structural names (FNV-1a) so every attribute
// gets its own deterministic sampling stream, independent of scan order.
uint64_t SampleSeed(uint64_t seed, std::initializer_list<std::string_view> parts) {
  uint64_t h = 1469598103934665603ull ^ seed;
  for (std::string_view part : parts) {
    for (char c : part) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0x1f;
    h *= 1099511628211ull;
  }
  return h;
}

// Algorithm-R reservoir over a stream of values, seeded per attribute.
class Reservoir {
 public:
  Reservoir(uint64_t seed, size_t capacity) : rng_(seed), capacity_(capacity) {}

  void Add(rel::Value v) {
    ++seen_;
    if (sample_.size() < capacity_) {
      sample_.push_back(std::move(v));
      return;
    }
    const size_t j = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(seen_) - 1));
    if (j < capacity_) sample_[j] = std::move(v);
  }

  std::vector<rel::Value> Take() { return std::move(sample_); }

 private:
  Rng rng_;
  size_t capacity_;
  size_t seen_ = 0;
  std::vector<rel::Value> sample_;
};

}  // namespace

rel::Value ValueFromObjectTerm(const rdf::Term& term) {
  if (term.is_literal()) {
    return mapping::ValueFromLexical(term.value(), term.datatype());
  }
  return rel::Value(std::string(term.value()));
}

Result<SourceStats> AnalyzeRelationalSource(
    const std::string& source_id, const rel::Database& db,
    const mapping::SourceMapping& source_mapping,
    const AnalyzeOptions& options) {
  SourceStats stats;
  stats.source_id = source_id;
  for (const mapping::ClassMapping& cm : source_mapping.classes) {
    const rel::Table* base = db.catalog().GetTable(cm.base_table);
    if (base == nullptr) {
      return Status::InvalidArgument("analyze: source '" + source_id +
                                     "' maps class '" + cm.class_iri +
                                     "' to missing table '" + cm.base_table +
                                     "'");
    }
    ClassStats cs;
    cs.class_iri = cm.class_iri;
    cs.entity_count = base->num_rows();
    for (const mapping::PredicateMapping& pm : cm.predicates) {
      AttributeStats attr;
      Reservoir sample(
          SampleSeed(options.seed, {source_id, cm.class_iri, pm.predicate}),
          options.max_sample);
      if (pm.InBaseTable()) {
        auto col = base->schema().FindColumn(pm.column);
        if (!col.has_value()) {
          return Status::InvalidArgument(
              "analyze: predicate '" + pm.predicate + "' maps to missing "
              "column '" + pm.column + "' of table '" + cm.base_table + "'");
        }
        // Exact NDV and null counts are already maintained by the table.
        const rel::ColumnStats& col_stats = base->column_stats(*col);
        attr.null_count = col_stats.num_nulls;
        attr.triple_count = base->num_rows() - col_stats.num_nulls;
        attr.distinct_subjects = attr.triple_count;  // one value per row
        attr.distinct_objects = col_stats.num_distinct;
        for (const rel::Row& row : base->rows()) {
          const rel::Value& v = row[*col];
          if (v.is_null()) continue;
          sample.Add(pm.object_is_iri ? rel::Value(pm.iri_template.Format(v))
                                      : v);
        }
      } else {
        // Multi-valued predicate: one (fk, value) side-table row per triple.
        const rel::Table* side = db.catalog().GetTable(pm.link_table);
        if (side == nullptr) {
          return Status::InvalidArgument(
              "analyze: predicate '" + pm.predicate + "' maps to missing "
              "side table '" + pm.link_table + "'");
        }
        auto fk_col = side->schema().FindColumn(pm.link_fk);
        auto val_col = side->schema().FindColumn(pm.column);
        if (!fk_col.has_value() || !val_col.has_value()) {
          return Status::InvalidArgument(
              "analyze: side table '" + pm.link_table + "' lacks column '" +
              (fk_col.has_value() ? pm.column : pm.link_fk) + "'");
        }
        std::set<rel::Value> subjects;
        std::set<rel::Value> objects;
        for (const rel::Row& row : side->rows()) {
          const rel::Value& v = row[*val_col];
          if (v.is_null()) continue;
          ++attr.triple_count;
          subjects.insert(row[*fk_col]);
          objects.insert(v);
          sample.Add(pm.object_is_iri ? rel::Value(pm.iri_template.Format(v))
                                      : v);
        }
        attr.distinct_subjects = subjects.size();
        attr.distinct_objects = objects.size();
        attr.null_count = cs.entity_count >= attr.distinct_subjects
                              ? cs.entity_count - attr.distinct_subjects
                              : 0;
      }
      attr.histogram =
          Histogram::FromValues(sample.Take(), options.histogram_buckets);
      cs.attributes[pm.predicate] = std::move(attr);
    }
    stats.classes[cs.class_iri] = std::move(cs);
  }
  return stats;
}

Result<SourceStats> AnalyzeRdfSource(const std::string& source_id,
                                     const rdf::TripleStore& store,
                                     const AnalyzeOptions& options) {
  SourceStats stats;
  stats.source_id = source_id;
  const rdf::Term type = rdf::Term::Iri(rdf::kRdfType);

  // Pass 1: class membership (a subject may carry several rdf:type's).
  std::map<std::string, std::vector<std::string>> classes_of;
  store.MatchVisit(std::nullopt, type, std::nullopt,
                   [&](const rdf::Triple& t) {
                     std::string cls(t.object.value());
                     classes_of[t.subject.ToString()].push_back(cls);
                     ClassStats& cs = stats.classes[cls];
                     cs.class_iri = cls;
                     ++cs.entity_count;
                     return true;
                   });

  // Pass 2: accumulate per-(class, predicate) statistics.
  struct Accum {
    AttributeStats attr;
    std::set<std::string> subjects;
    std::set<std::string> objects;
    std::unique_ptr<Reservoir> sample;
  };
  std::map<std::pair<std::string, std::string>, Accum> accums;
  store.MatchVisit(
      std::nullopt, std::nullopt, std::nullopt, [&](const rdf::Triple& t) {
        if (t.predicate == type) return true;
        auto it = classes_of.find(t.subject.ToString());
        if (it == classes_of.end()) return true;  // untyped subject
        for (const std::string& cls : it->second) {
          Accum& a = accums[{cls, std::string(t.predicate.value())}];
          if (a.sample == nullptr) {
            a.sample = std::make_unique<Reservoir>(
                SampleSeed(options.seed,
                           {source_id, cls, t.predicate.value()}),
                options.max_sample);
          }
          ++a.attr.triple_count;
          a.subjects.insert(t.subject.ToString());
          a.objects.insert(t.object.ToString());
          a.sample->Add(ValueFromObjectTerm(t.object));
        }
        return true;
      });

  for (auto& [key, a] : accums) {
    ClassStats& cs = stats.classes[key.first];
    a.attr.distinct_subjects = a.subjects.size();
    a.attr.distinct_objects = a.objects.size();
    a.attr.null_count = cs.entity_count >= a.attr.distinct_subjects
                            ? cs.entity_count - a.attr.distinct_subjects
                            : 0;
    a.attr.histogram =
        Histogram::FromValues(a.sample->Take(), options.histogram_buckets);
    cs.attributes[key.second] = std::move(a.attr);
  }
  return stats;
}

}  // namespace lakefed::stats
