// Randomized correctness harness: generates random federated queries over
// the LSLOD schema and checks that every plan mode returns exactly the
// oracle's answers. Catches interaction bugs no hand-written case covers.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fed_test_util.h"
#include "lslod/vocab.h"
#include "sparql/parser.h"

namespace lakefed::fed {
namespace {

// Schema knowledge for the generator: per class, its prefix/vocab local
// names and which literal predicates exist with which kind of values.
struct ClassInfo {
  std::string dataset;
  std::string class_local;
  std::string subject_kind;  // entity path segment
  // predicate local name, is-numeric, sample literal values
  struct Pred {
    std::string local;
    bool numeric;
    std::string sample;  // usable in equality/contains filters
  };
  std::vector<Pred> predicates;
  std::string link_var;  // literal join key variable kind ("sym", "name"...)
  std::string link_predicate_local;  // predicate binding the join key
};

const std::vector<ClassInfo>& Classes() {
  static const auto* kClasses = new std::vector<ClassInfo>{
      {lslod::kDiseasome,
       "Gene",
       "gene",
       {{"geneSymbol", false, "GENE0001"}, {"chromosome", false, "chr3"},
        {"degree", true, "25"}},
       "sym",
       "geneSymbol"},
      {lslod::kAffymetrix,
       "Probeset",
       "probeset",
       {{"symbol", false, "GENE0001"},
        {"scientificName", false, "Homo sapiens"},
        {"chromosome", false, "chr5"}},
       "sym",
       "symbol"},
      {lslod::kDrugbank,
       "Drug",
       "drug",
       {{"name", false, "drug001"}, {"meltingPoint", true, "150.0"},
        {"target", false, "GENE0001"}},
       "sym",
       "target"},
      {lslod::kTcga,
       "Expression",
       "expr",
       {{"gene", false, "GENE0001"}, {"value", true, "6.0"},
        {"patient", false, "TCGA-0001"}},
       "sym",
       "gene"},
      {lslod::kGoa,
       "Annotation",
       "ann",
       {{"symbol", false, "GENE0001"}, {"evidence", false, "IEA"}},
       "sym",
       "symbol"},
      {lslod::kPharmgkb,
       "GeneInfo",
       "gene",
       {{"symbol", false, "GENE0001"}, {"pathway", false, "pathway7"}},
       "sym",
       "symbol"},
  };
  return *kClasses;
}

// Builds a random query: 1-3 stars joined on the shared literal key ?sym,
// each with a random subset of predicates and possibly a filter.
std::string RandomQuery(Rng* rng) {
  int num_stars = static_cast<int>(rng->UniformInt(1, 3));
  std::vector<size_t> chosen;
  while (chosen.size() < static_cast<size_t>(num_stars)) {
    size_t c = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int>(Classes().size()) - 1));
    bool dup = false;
    for (size_t prev : chosen) dup |= prev == c;
    if (!dup) chosen.push_back(c);
  }

  std::string body;
  std::vector<std::string> projected;
  for (size_t s = 0; s < chosen.size(); ++s) {
    const ClassInfo& cls = Classes()[chosen[s]];
    std::string var = "e" + std::to_string(s);
    projected.push_back(var);
    body += "  ?" + var + " a <" + lslod::Vocab(cls.dataset, cls.class_local) +
            "> .\n";
    // Join key pattern (always present when joining).
    if (chosen.size() > 1) {
      body += "  ?" + var + " <" +
              lslod::Vocab(cls.dataset, cls.link_predicate_local) +
              "> ?sym .\n";
    }
    // Random extra predicates.
    for (const ClassInfo::Pred& pred : cls.predicates) {
      if (pred.local == cls.link_predicate_local && chosen.size() > 1) {
        continue;  // already used for the join
      }
      int dice = static_cast<int>(rng->UniformInt(0, 5));
      std::string pvar = var + "_" + pred.local;
      if (dice <= 1) continue;  // skip predicate
      body += "  ?" + var + " <" + lslod::Vocab(cls.dataset, pred.local) +
              "> ?" + pvar + " .\n";
      if (dice == 5) {  // add a filter on it
        if (pred.numeric) {
          body += "  FILTER (?" + pvar + " >= " + pred.sample + ")\n";
        } else if (rng->Bernoulli(0.5)) {
          body += "  FILTER (?" + pvar + " = \"" + pred.sample + "\")\n";
        } else {
          body += "  FILTER CONTAINS(?" + pvar + ", \"" +
                  pred.sample.substr(0, 4) + "\")\n";
        }
      } else if (dice == 4) {
        projected.push_back(pvar);
      }
    }
  }
  std::string query = "SELECT";
  if (chosen.size() > 1) projected.push_back("sym");
  for (const std::string& v : projected) query += " ?" + v;
  query += " WHERE {\n" + body + "}";
  return query;
}

// Builds a random chain over the one cross-dataset IRI link: side effects
// whose sider:drug IRI names a DrugBank drug, the drug star optionally
// joined on its target ?sym with one more star.
std::string RandomChainQuery(Rng* rng) {
  auto term = [](const std::string& dataset, const std::string& local) {
    return "<" + lslod::Vocab(dataset, local) + ">";
  };
  std::string body = "  ?se a " + term(lslod::kSider, "SideEffect") +
                     " ; " + term(lslod::kSider, "drug") + " ?d .\n" +
                     "  ?d a " + term(lslod::kDrugbank, "Drug") + " .\n";
  std::vector<std::string> projected = {"se", "d"};
  if (rng->Bernoulli(0.5)) {
    body += "  ?se " + term(lslod::kSider, "effectName") + " ?effect .\n";
    projected.push_back("effect");
  }
  if (rng->Bernoulli(0.5)) {
    body += "  ?d " + term(lslod::kDrugbank, "name") + " ?name .\n";
    if (rng->Bernoulli(0.5)) body += "  FILTER CONTAINS(?name, \"drug0\")\n";
    projected.push_back("name");
  }
  if (rng->Bernoulli(0.5)) {
    // Drug is Classes()[2]; join any other class on the target symbol.
    size_t c = static_cast<size_t>(rng->UniformInt(0, 4));
    const ClassInfo& cls = Classes()[c >= 2 ? c + 1 : c];
    body += "  ?d " + term(lslod::kDrugbank, "target") + " ?sym .\n" +
            "  ?e a " + term(cls.dataset, cls.class_local) + " ; " +
            term(cls.dataset, cls.link_predicate_local) + " ?sym .\n";
    projected.push_back("e");
  }
  std::string query = "SELECT";
  for (const std::string& v : projected) query += " ?" + v;
  return query + " WHERE {\n" + body + "}";
}

TEST(FedFuzzTest, RandomQueriesMatchOracleInAllModes) {
  auto lake = BuildTinyLake(0.05);
  ASSERT_NE(lake, nullptr);
  Rng rng(20260707);
  int non_empty = 0;
  for (int i = 0; i < 40; ++i) {
    std::string query = RandomQuery(&rng);
    SCOPED_TRACE("query #" + std::to_string(i) + ":\n" + query);
    auto oracle = OracleAnswers(*lake, query);
    for (PlanMode mode : {PlanMode::kPhysicalDesignUnaware,
                          PlanMode::kPhysicalDesignAware}) {
      PlanOptions options;
      options.mode = mode;
      options.network = net::NetworkProfile::Gamma3();
      options.network.time_scale = 0.0005;
      auto answer = lake->engine->Execute(query, options);
      ASSERT_TRUE(answer.ok()) << answer.status();
      ASSERT_EQ(SerializeAnswers(*answer), oracle)
          << PlanModeToString(mode);
      if (!answer->rows.empty()) ++non_empty;
    }
  }
  // The generator must not be vacuous.
  EXPECT_GT(non_empty, 20);
}

TEST(FedFuzzTest, RandomQueriesWithDependentJoinsAndTripleDecomposition) {
  auto lake = BuildTinyLake(0.05);
  ASSERT_NE(lake, nullptr);
  Rng rng(99);
  for (int i = 0; i < 15; ++i) {
    std::string query = RandomQuery(&rng);
    SCOPED_TRACE("query #" + std::to_string(i) + ":\n" + query);
    auto oracle = OracleAnswers(*lake, query);
    PlanOptions dependent;
    dependent.use_dependent_join = true;
    PlanOptions triple;
    triple.decomposition = DecompositionKind::kTripleBased;
    for (const PlanOptions& options : {dependent, triple}) {
      auto answer = lake->engine->Execute(query, options);
      ASSERT_TRUE(answer.ok()) << answer.status();
      ASSERT_EQ(SerializeAnswers(*answer), oracle);
    }
  }
}

// The same generator over the other physical designs: a mixed lake whose
// RdfWrapper sources answer from TripleStore terms (DrugBank among them, so
// the chains join SQL-built template IRIs with the store's IRIs), and the
// denormalized lake, whose flat tables keep rel's Distinct.
TEST(FedFuzzTest, RandomQueriesMatchOracleOnMixedAndDenormalizedLakes) {
  auto mixed = BuildTinyLake(0.05, {lslod::kDrugbank, lslod::kGoa,
                                    lslod::kTcga, lslod::kPharmgkb});
  ASSERT_NE(mixed, nullptr);
  lslod::LakeConfig flat_config;
  flat_config.scale = 0.05;
  flat_config.seed = 7;
  flat_config.denormalized = true;
  auto flat = lslod::BuildLake(flat_config);
  ASSERT_TRUE(flat.ok()) << flat.status();
  Rng rng(20261020);
  int non_empty = 0;
  for (const lslod::DataLake* lake : {mixed.get(), flat->get()}) {
    for (int i = 0; i < 16; ++i) {
      std::string query = i % 2 == 0 ? RandomQuery(&rng)
                                     : RandomChainQuery(&rng);
      SCOPED_TRACE((lake == mixed.get() ? "mixed lake, query #"
                                        : "denormalized lake, query #") +
                   std::to_string(i) + ":\n" + query);
      auto oracle = OracleAnswers(*lake, query);
      PlanOptions unaware;
      unaware.mode = PlanMode::kPhysicalDesignUnaware;
      PlanOptions aware;
      aware.mode = PlanMode::kPhysicalDesignAware;
      PlanOptions dependent = aware;
      dependent.use_dependent_join = true;
      for (const PlanOptions& options : {unaware, aware, dependent}) {
        auto answer = lake->engine->Execute(query, options);
        ASSERT_TRUE(answer.ok()) << answer.status();
        ASSERT_EQ(SerializeAnswers(*answer), oracle)
            << PlanModeToString(options.mode)
            << (options.use_dependent_join ? " + dependent joins" : "");
        if (!answer->rows.empty()) ++non_empty;
      }
    }
  }
  // The slice must not be vacuous.
  EXPECT_GT(non_empty, 40);
}

}  // namespace
}  // namespace lakefed::fed
