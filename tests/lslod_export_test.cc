#include "lslod/export.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "lslod/vocab.h"
#include "rdf/ntriples.h"
#include "rel/csv.h"

namespace lakefed::lslod {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test and process: ctest -j runs the cases of this
    // suite concurrently, and each removes its directory on tear-down.
    dir_ = fs::temp_directory_path() /
           ("lakefed_export_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    LakeConfig config;
    config.scale = 0.03;
    auto lake = BuildLake(config);
    ASSERT_TRUE(lake.ok()) << lake.status();
    lake_ = std::move(*lake);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::unique_ptr<DataLake> lake_;
};

TEST_F(ExportTest, WritesCsvAndNtPerDataset) {
  auto files = DumpLake(*lake_, dir_.string());
  ASSERT_TRUE(files.ok()) << files.status();
  // 10 datasets: 16 tables total (+10 .nt files) in the 3NF layout.
  EXPECT_GT(*files, 20u);
  EXPECT_TRUE(fs::exists(dir_ / "diseasome" / "gene.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "diseasome" / "disease.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "diseasome" / "disease_gene.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "diseasome.nt"));
  EXPECT_TRUE(fs::exists(dir_ / "tcga" / "expression.csv"));
}

TEST_F(ExportTest, CsvRoundTripsIntoEqualTable) {
  ASSERT_TRUE(DumpLake(*lake_, dir_.string()).ok());
  const rel::Table* original =
      lake_->databases.at(kDiseasome)->catalog().GetTable("gene");
  rel::Table loaded("gene2", original->schema(), original->primary_key());
  ASSERT_TRUE(
      rel::LoadTableCsv(ReadFile(dir_ / "diseasome" / "gene.csv"), &loaded)
          .ok());
  ASSERT_EQ(loaded.num_rows(), original->num_rows());
  for (size_t i = 0; i < loaded.num_rows(); ++i) {
    EXPECT_EQ(loaded.row(static_cast<rel::RowId>(i)),
              original->row(static_cast<rel::RowId>(i)));
  }
}

TEST_F(ExportTest, NtFilesParseBack) {
  ASSERT_TRUE(DumpLake(*lake_, dir_.string()).ok());
  auto triples = rdf::ParseNTriples(ReadFile(dir_ / "pharmgkb.nt"));
  ASSERT_TRUE(triples.ok()) << triples.status();
  EXPECT_GT(triples->size(), 0u);
  // Every subject is a pharmgkb gene IRI or similar from the dataset.
  for (const rdf::Triple& t : *triples) {
    EXPECT_TRUE(t.subject.is_iri());
    EXPECT_NE(t.subject.value().find("lslod.example.org/pharmgkb"),
              std::string::npos);
  }
}

TEST_F(ExportTest, BadDirectoryFails) {
  // A path under a regular file cannot be created.
  fs::create_directories(dir_);
  std::ofstream(dir_ / "blocker").put('x');
  auto files = DumpLake(*lake_, (dir_ / "blocker" / "sub").string());
  EXPECT_FALSE(files.ok());
}

}  // namespace
}  // namespace lakefed::lslod
