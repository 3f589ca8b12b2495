// SqlWrapper: fronts a relational endpoint of the Data Lake. Translates
// star-shaped sub-queries (and Heuristic-1-merged multi-star sub-queries)
// into SQL over the source's 3NF tables using the class mappings, executes
// them on the embedded relational engine, and decodes rows back into RDF
// solution mappings.

#ifndef LAKEFED_WRAPPER_SQL_WRAPPER_H_
#define LAKEFED_WRAPPER_SQL_WRAPPER_H_

#include <mutex>
#include <string>
#include <vector>

#include "fed/wrapper.h"
#include "mapping/relational_mapping.h"
#include "rel/database.h"

namespace lakefed::wrapper {

class SqlWrapper : public fed::SourceWrapper {
 public:
  // Borrows `db`, which must outlive the wrapper.
  SqlWrapper(std::string id, const rel::Database* db,
             mapping::SourceMapping mapping);

  const std::string& id() const override { return id_; }
  fed::SourceKind kind() const override {
    return fed::SourceKind::kRelational;
  }
  std::vector<mapping::RdfMt> Molecules() const override;

  bool IsPredicateAttributeIndexed(const std::string& class_iri,
                                   const std::string& predicate)
      const override;
  bool IsSubjectKeyIndexed(const std::string& class_iri) const override;
  bool SupportsJoinPushdown() const override { return true; }
  bool CanPushDownJoin(const fed::StarSubQuery& a,
                       const fed::StarSubQuery& b,
                       const std::string& var) const override;

  // Profiles the relational source (exact counts from column stats, sampled
  // equi-depth histograms) for the cost-based planner.
  Status CollectStatistics(const stats::AnalyzeOptions& options,
                           stats::SourceStats* out) const override;

  // Executes the sub-query as one pipeline: each row the relational plan
  // produces is decoded, checked against instantiations and residual
  // filters, and handed to the morsel emitter while the plan is still
  // running. The token is polled between rows; cancellation or a dead
  // downstream stops the plan without draining it. Honours
  // SubQuery::naive_translation for merged multi-star sub-queries: instead
  // of one SQL join, every star is fetched with its own SQL and joined by
  // a naive nested loop inside the wrapper — emulating the unoptimized
  // translation the paper reports as Ontario's limitation.
  Status Execute(const fed::SubQuery& subquery,
                 const fed::WrapperContext& ctx) override;

  // --- introspection for tests, examples and EXPLAIN ---

  // The SQL most recently sent to the endpoint.
  std::string last_sql() const;
  // Execution counters of the most recent single-statement run (rows
  // scanned stop short of the table when the scan was stopped early).
  rel::ExecCounters last_counters() const;

  struct Translation {
    rel::SelectStatement statement;
    // Output variable i decodes from statement column i.
    std::vector<std::string> variables;
    // How column i's values become RDF terms.
    struct Decoder {
      bool is_subject = false;
      const mapping::ClassMapping* cm = nullptr;
      const mapping::PredicateMapping* pm = nullptr;
    };
    std::vector<Decoder> decoders;  // parallel to `variables`
    // Filters that were placed at the source but could not be translated
    // to SQL; the wrapper evaluates them on decoded rows before shipping.
    std::vector<sparql::FilterExprPtr> residual_filters;
    // Variables bound to a constant (e.g. `?t` in `?d a ?t` with a known
    // class): decoded without a SQL column.
    std::map<std::string, rdf::Term> fixed;
  };

  // SPARQL -> SQL translation (exposed for tests).
  Result<Translation> Translate(const fed::SubQuery& subquery) const;

  const mapping::SourceMapping& source_mapping() const { return mapping_; }

 private:
  struct VarInfo;

  // The naive merged execution path (see Execute).
  Status ExecuteNaiveMerged(const fed::SubQuery& subquery,
                            const fed::WrapperContext& ctx);

  std::string id_;
  const rel::Database* db_;
  mapping::SourceMapping mapping_;
  mutable std::mutex mu_;
  std::string last_sql_;
  rel::ExecCounters last_counters_;
};

}  // namespace lakefed::wrapper

#endif  // LAKEFED_WRAPPER_SQL_WRAPPER_H_
