// A genuinely heterogeneous Semantic Data Lake: some datasets stay in
// relational databases, others are served natively as RDF — one federated
// SPARQL query spans both data models. Also shows the RDF-MT source
// descriptions the mediator uses for source selection.
//
//   $ ./examples/heterogeneous_lake

#include <cstdio>

#include "fed/engine.h"
#include "lslod/generator.h"
#include "lslod/queries.h"
#include "lslod/vocab.h"

using namespace lakefed;

int main() {
  // KEGG and GOA become native RDF endpoints; the other eight datasets stay
  // relational. The data is identical either way (materialized through the
  // same mappings).
  lslod::LakeConfig config;
  config.scale = 0.2;
  config.rdf_sources = {lslod::kKegg, lslod::kGoa};
  auto lake = lslod::BuildLake(config);
  if (!lake.ok()) {
    std::fprintf(stderr, "error: %s\n", lake.status().ToString().c_str());
    return 1;
  }
  fed::FederatedEngine& engine = *(*lake)->engine;

  std::printf("sources: %zu relational + %zu RDF\n",
              (*lake)->databases.size() - (*lake)->stores.size(),
              (*lake)->stores.size());
  std::printf("kegg triple store holds %zu triples\n\n",
              (*lake)->stores.at(lslod::kKegg)->size());

  std::printf("-- RDF molecule templates (source descriptions) --\n");
  for (const auto& [class_iri, molecule] : engine.catalog().molecules()) {
    std::printf("  %-55s %2zu predicates, sources:", class_iri.c_str(),
                molecule.predicates.size());
    for (const std::string& s : molecule.sources) {
      std::printf(" %s", s.c_str());
    }
    std::printf("\n");
  }

  // Q4 joins KEGG (now RDF) with GOA (now RDF); FIG1 spans RDB-only
  // sources; this query mixes the models: KEGG (RDF) x DrugBank (RDB).
  const std::string query = R"(
PREFIX kegg: <http://lslod.example.org/kegg/vocab#>
PREFIX db: <http://lslod.example.org/drugbank/vocab#>
SELECT ?cname ?dname WHERE {
  ?c a kegg:Compound ; kegg:name ?cname ; kegg:relatedSymbol ?sym .
  ?d a db:Drug ; db:name ?dname ; db:target ?sym .
} LIMIT 15)";

  fed::PlanOptions options;
  options.network = net::NetworkProfile::Gamma1();
  auto plan = engine.Plan(query, options);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan error: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\n-- mixed-model QEP (RDF kegg x RDB drugbank) --\n%s",
              plan->Explain().c_str());

  auto answer = engine.Execute(query, options);
  if (!answer.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 answer.status().ToString().c_str());
    return 1;
  }
  std::printf("\n-- answers (%zu) --\n", answer->rows.size());
  for (const rdf::Binding& row : answer->rows) {
    std::printf("  compound %-22s targets the same gene as drug %s\n",
                std::string(row.at("cname").value()).c_str(),
                std::string(row.at("dname").value()).c_str());
  }
  return 0;
}
