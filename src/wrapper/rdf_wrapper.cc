#include "wrapper/rdf_wrapper.h"

#include <set>

namespace lakefed::wrapper {

RdfWrapper::RdfWrapper(std::string id, const rdf::TripleStore* store)
    : id_(std::move(id)), store_(store) {}

std::vector<mapping::RdfMt> RdfWrapper::Molecules() const {
  return mapping::RdfMtCatalog::ExtractFromTripleStore(id_, *store_);
}

Status RdfWrapper::CollectStatistics(const stats::AnalyzeOptions& options,
                                     stats::SourceStats* out) const {
  LAKEFED_ASSIGN_OR_RETURN(*out,
                           stats::AnalyzeRdfSource(id_, *store_, options));
  return Status::OK();
}

Status RdfWrapper::Execute(const fed::SubQuery& subquery,
                           const fed::WrapperContext& ctx) {
  // Gather the BGP of every star (normally one; merged stars also work —
  // BGP evaluation joins them locally).
  std::vector<rdf::TriplePattern> patterns;
  for (const fed::StarSubQuery& star : subquery.stars) {
    patterns.insert(patterns.end(), star.patterns.begin(),
                    star.patterns.end());
  }
  if (patterns.empty()) {
    return Status::InvalidArgument("empty sub-query for source " + id_);
  }
  std::vector<sparql::FilterExprPtr> filters = subquery.SourceFilters();

  fed::InstantiationFilter instantiations(subquery);

  std::vector<std::string> variables = subquery.Variables();
  fed::BatchEmitter emitter(ctx);
  Status scan = rdf::EvaluateBgpVisit(
      *store_, patterns, [&](const rdf::Binding& binding) {
        if (ctx.token.IsCancelled()) return false;  // stop the scan
        // Rejected rows keep the scan going.
        if (!instantiations.Allows(binding)) return true;
        for (const sparql::FilterExprPtr& filter : filters) {
          Result<bool> pass = filter->EvalBool(binding);
          if (!pass.ok() || !*pass) return true;
        }
        // Project to the sub-query's variables and hand the answer to the
        // emitter; it ships morsels through the simulated network.
        rdf::Binding projected;
        for (const std::string& var : variables) {
          auto it = binding.find(var);
          if (it != binding.end()) projected.emplace(var, it->second);
        }
        // A dead downstream (cancel/close) or network fault aborts the scan.
        return emitter.Emit(std::move(projected));
      });
  Status fault = emitter.Finish();
  LAKEFED_RETURN_NOT_OK(scan);
  return fault;
}

}  // namespace lakefed::wrapper
