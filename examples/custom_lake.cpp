// Building your own Semantic Data Lake from scratch with the public API:
// create a relational database, define its 3NF schema and mappings, load an
// RDF source, register both with the mediator, query federatedly.
//
//   $ ./examples/custom_lake

#include <cstdio>

#include "fed/engine.h"
#include "mapping/relational_mapping.h"
#include "rdf/ntriples.h"
#include "rel/database.h"
#include "wrapper/rdf_wrapper.h"
#include "wrapper/sql_wrapper.h"

using namespace lakefed;
using rel::ColumnType;
using rel::Schema;
using rel::Value;

int main() {
  // --- 1. A relational source: a tiny product catalog ------------------
  auto db = std::make_unique<rel::Database>("shopdb");
  auto product = db->catalog().CreateTable(
      "product",
      Schema({{"id", ColumnType::kInt64, false},
              {"name", ColumnType::kString, false},
              {"price", ColumnType::kDouble, false}}),
      "id");
  if (!product.ok()) return 1;
  const char* names[] = {"laptop", "phone", "tablet", "watch", "camera"};
  double prices[] = {1200, 800, 500, 250, 950};
  for (int i = 0; i < 5; ++i) {
    if (!(*product)
             ->Insert({Value(int64_t{i}), Value(names[i]), Value(prices[i])})
             .ok()) {
      return 1;
    }
  }
  // Physical design: index the attribute our workload filters on.
  if (!(*product)->CreateIndex("price").ok()) return 1;

  // Mappings: how the rows become RDF.
  mapping::SourceMapping sm;
  sm.source_id = "shopdb";
  mapping::ClassMapping cm;
  cm.class_iri = "http://shop.example.org/vocab#Product";
  cm.base_table = "product";
  cm.pk_column = "id";
  cm.subject_template = mapping::IriTemplate("http://shop.example.org/p/{}");
  mapping::PredicateMapping name;
  name.predicate = "http://shop.example.org/vocab#name";
  name.column = "name";
  mapping::PredicateMapping price;
  price.predicate = "http://shop.example.org/vocab#price";
  price.column = "price";
  price.literal_datatype = "http://www.w3.org/2001/XMLSchema#double";
  cm.predicates = {name, price};
  sm.classes.push_back(cm);

  // --- 2. An RDF source: reviews in N-Triples --------------------------
  auto store = std::make_unique<rdf::TripleStore>();
  const std::string ntriples = R"(
<http://shop.example.org/r/1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://shop.example.org/vocab#Review> .
<http://shop.example.org/r/1> <http://shop.example.org/vocab#about> <http://shop.example.org/p/0> .
<http://shop.example.org/r/1> <http://shop.example.org/vocab#stars> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://shop.example.org/r/2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://shop.example.org/vocab#Review> .
<http://shop.example.org/r/2> <http://shop.example.org/vocab#about> <http://shop.example.org/p/1> .
<http://shop.example.org/r/2> <http://shop.example.org/vocab#stars> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://shop.example.org/r/3> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://shop.example.org/vocab#Review> .
<http://shop.example.org/r/3> <http://shop.example.org/vocab#about> <http://shop.example.org/p/0> .
<http://shop.example.org/r/3> <http://shop.example.org/vocab#stars> "4"^^<http://www.w3.org/2001/XMLSchema#integer> .
)";
  auto loaded = rdf::LoadNTriples(ntriples, store.get());
  if (!loaded.ok()) {
    std::fprintf(stderr, "load error: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }

  // --- 3. Register both with the mediator ------------------------------
  fed::FederatedEngine engine;
  if (!engine
           .RegisterSource(std::make_unique<wrapper::SqlWrapper>(
               "shopdb", db.get(), sm))
           .ok() ||
      !engine
           .RegisterSource(
               std::make_unique<wrapper::RdfWrapper>("reviews", store.get()))
           .ok()) {
    return 1;
  }

  // --- 4. Federated query across the two models ------------------------
  const std::string query = R"(
PREFIX shop: <http://shop.example.org/vocab#>
SELECT ?pname ?price ?stars WHERE {
  ?p a shop:Product ; shop:name ?pname ; shop:price ?price .
  ?r a shop:Review ; shop:about ?p ; shop:stars ?stars .
  FILTER (?price >= 600)
})";

  fed::PlanOptions options;
  options.network = net::NetworkProfile::Gamma3();  // slow: H2 pushes
  auto plan = engine.Plan(query, options);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan error: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("-- QEP --\n%s", plan->Explain().c_str());

  auto answer = engine.Execute(query, options);
  if (!answer.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 answer.status().ToString().c_str());
    return 1;
  }
  std::printf("\n-- reviews of expensive products --\n");
  for (const rdf::Binding& row : answer->rows) {
    std::printf("  %-8s $%-7s %s stars\n", std::string(row.at("pname").value()).c_str(),
                std::string(row.at("price").value()).c_str(),
                std::string(row.at("stars").value()).c_str());
  }
  return 0;
}
