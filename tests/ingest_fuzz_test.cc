// Corruption-fuzz harness for the ingestion pipeline (ctest label: fuzz).
//
// The contract under test: for ANY corruption of the input bytes —
// bit flips at every offset, truncation at every offset, injected short
// reads and read-side bit flips — loading terminates with either a
// definite error Status or a valid Dataset, never a crash, hang or
// sanitizer report, and the quarantine invariant
// `kept + quarantined == total_records` holds for every file on every
// outcome. Run under ASAN/UBSAN via `scripts/check.sh --fuzz`.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/ingest.h"
#include "data/loader.h"
#include "tests/temp_path.h"
#include "util/fault_injector.h"

namespace imcat {
namespace {

std::string WriteFile(const std::string& name, const std::string& content) {
  const std::string path = TestTempPath(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  if (!content.empty()) {
    EXPECT_EQ(std::fwrite(content.data(), 1, content.size(), f),
              content.size());
  }
  std::fclose(f);
  return path;
}

/// A small but structurally representative pair of edge files, produced by
/// the library's own writer so the corpus matches the documented grammar.
struct Corpus {
  std::string ui;  // interactions bytes
  std::string it;  // item-tags bytes
};

Corpus MakeCorpus() {
  Dataset ds;
  ds.num_users = 3;
  ds.num_items = 4;
  ds.num_tags = 2;
  ds.interactions = {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 3}};
  ds.item_tags = {{0, 0}, {1, 0}, {2, 1}, {3, 1}};
  const std::string ui_path = TestTempPath("fuzz_seed_ui.tsv");
  const std::string it_path = TestTempPath("fuzz_seed_it.tsv");
  Status st = SaveDatasetToTsv(ds, ui_path, it_path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  return Corpus{slurp(ui_path), slurp(it_path)};
}

/// Checks the whole contract for one corrupted input pair: the load either
/// fails with a real Status or yields a structurally valid dataset, and
/// quarantine accounting balances either way.
void CheckOutcome(const std::string& ui_path, const std::string& it_path,
                  ParsePolicy policy, const std::string& what) {
  LoaderOptions options;
  options.policy = policy;
  IngestReport report;
  StatusOr<Dataset> result =
      LoadDatasetFromTsv(ui_path, it_path, options, &report);
  for (const IngestFileReport* file :
       {&report.interactions, &report.item_tags}) {
    EXPECT_EQ(file->kept + file->quarantined, file->total_records)
        << what << ": invariant broken for " << file->path << "\n"
        << file->Summary();
    EXPECT_GE(file->kept, 0) << what;
    EXPECT_GE(file->quarantined, 0) << what;
  }
  if (!result.ok()) {
    // A definite, classified error — never an OK-but-garbage state.
    EXPECT_NE(result.status().code(), StatusCode::kOk) << what;
    EXPECT_FALSE(result.status().message().empty()) << what;
    return;
  }
  const Dataset& ds = result.value();
  EXPECT_GE(ds.num_users, 0) << what;
  EXPECT_GE(ds.num_items, 0) << what;
  EXPECT_GE(ds.num_tags, 0) << what;
  for (const auto& [u, v] : ds.interactions) {
    EXPECT_GE(u, 0) << what;
    EXPECT_LT(u, ds.num_users) << what;
    EXPECT_GE(v, 0) << what;
    EXPECT_LT(v, ds.num_items) << what;
  }
  for (const auto& [v, t] : ds.item_tags) {
    EXPECT_GE(v, 0) << what;
    EXPECT_LT(v, ds.num_items) << what;
    EXPECT_GE(t, 0) << what;
    EXPECT_LT(t, ds.num_tags) << what;
  }
}

class IngestFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// Every byte of the interactions file XORed with a sign-flipping and a
// low-bit mask, under both policies. ~2 * 2 * |file| loads.
TEST_F(IngestFuzzTest, BitFlipSweepInteractions) {
  const Corpus corpus = MakeCorpus();
  const std::string it_path = WriteFile("fz_flip_it.tsv", corpus.it);
  for (const unsigned char mask : {0xFF, 0x01}) {
    for (size_t offset = 0; offset < corpus.ui.size(); ++offset) {
      std::string mutated = corpus.ui;
      mutated[offset] = static_cast<char>(
          static_cast<unsigned char>(mutated[offset]) ^ mask);
      const std::string ui_path = WriteFile("fz_flip_ui.tsv", mutated);
      for (ParsePolicy policy :
           {ParsePolicy::kStrict, ParsePolicy::kPermissive}) {
        CheckOutcome(ui_path, it_path, policy,
                     "flip mask=" + std::to_string(mask) + " offset=" +
                         std::to_string(offset) + " policy=" +
                         std::to_string(static_cast<int>(policy)));
      }
    }
  }
}

// Every byte of the item-tags file XORed with 0xFF.
TEST_F(IngestFuzzTest, BitFlipSweepItemTags) {
  const Corpus corpus = MakeCorpus();
  const std::string ui_path = WriteFile("fz_flip2_ui.tsv", corpus.ui);
  for (size_t offset = 0; offset < corpus.it.size(); ++offset) {
    std::string mutated = corpus.it;
    mutated[offset] = static_cast<char>(
        static_cast<unsigned char>(mutated[offset]) ^ 0xFF);
    const std::string it_path = WriteFile("fz_flip2_it.tsv", mutated);
    for (ParsePolicy policy :
         {ParsePolicy::kStrict, ParsePolicy::kPermissive}) {
      CheckOutcome(ui_path, it_path, policy,
                   "it-flip offset=" + std::to_string(offset));
    }
  }
}

// Truncation at every byte offset (including the empty file) of each input.
TEST_F(IngestFuzzTest, TruncationSweep) {
  const Corpus corpus = MakeCorpus();
  const std::string full_it = WriteFile("fz_trunc_full_it.tsv", corpus.it);
  const std::string full_ui = WriteFile("fz_trunc_full_ui.tsv", corpus.ui);
  for (size_t cut = 0; cut <= corpus.ui.size(); ++cut) {
    const std::string ui_path =
        WriteFile("fz_trunc_ui.tsv", corpus.ui.substr(0, cut));
    for (ParsePolicy policy :
         {ParsePolicy::kStrict, ParsePolicy::kPermissive}) {
      CheckOutcome(ui_path, full_it, policy,
                   "ui-truncate at " + std::to_string(cut));
    }
  }
  for (size_t cut = 0; cut <= corpus.it.size(); ++cut) {
    const std::string it_path =
        WriteFile("fz_trunc_it.tsv", corpus.it.substr(0, cut));
    for (ParsePolicy policy :
         {ParsePolicy::kStrict, ParsePolicy::kPermissive}) {
      CheckOutcome(full_ui, it_path, policy,
                   "it-truncate at " + std::to_string(cut));
    }
  }
}

// Garbage-byte splices: binary junk injected at several positions.
TEST_F(IngestFuzzTest, GarbageSpliceSweep) {
  const Corpus corpus = MakeCorpus();
  const std::string it_path = WriteFile("fz_splice_it.tsv", corpus.it);
  const std::string junk = std::string("\x00\x7F\xFE\n\r\t \xC3\x28", 9);
  for (size_t offset = 0; offset <= corpus.ui.size(); ++offset) {
    std::string mutated = corpus.ui;
    mutated.insert(offset, junk);
    const std::string ui_path = WriteFile("fz_splice_ui.tsv", mutated);
    for (ParsePolicy policy :
         {ParsePolicy::kStrict, ParsePolicy::kPermissive}) {
      CheckOutcome(ui_path, it_path, policy,
                   "splice at " + std::to_string(offset));
    }
  }
}

// Injected short reads at every boundary: the stream appears to end after
// N bytes even though the file is longer. Must always be kDataLoss or — at
// exactly the full size — a clean load.
TEST_F(IngestFuzzTest, ShortReadSweep) {
  const Corpus corpus = MakeCorpus();
  const std::string ui_path = WriteFile("fz_short_ui.tsv", corpus.ui);
  const std::string it_path = WriteFile("fz_short_it.tsv", corpus.it);
  for (size_t after = 0; after < corpus.ui.size(); ++after) {
    FaultInjector::Instance().Reset();
    FaultInjector::Instance().ArmShortRead(static_cast<int64_t>(after));
    LoaderOptions options;
    options.policy = ParsePolicy::kPermissive;
    IngestReport report;
    StatusOr<Dataset> result =
        LoadDatasetFromTsv(ui_path, it_path, options, &report);
    ASSERT_FALSE(result.ok()) << "short read at " << after << " not detected";
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "short read at " << after << ": " << result.status().ToString();
    EXPECT_EQ(report.interactions.kept + report.interactions.quarantined,
              report.interactions.total_records)
        << "short read at " << after;
  }
  FaultInjector::Instance().Reset();
}

// Read-side bit flips (file on disk intact, bytes seen by the reader
// corrupted in flight): same termination contract as at-rest corruption.
TEST_F(IngestFuzzTest, ReadBitFlipSweep) {
  const Corpus corpus = MakeCorpus();
  const std::string ui_path = WriteFile("fz_rflip_ui.tsv", corpus.ui);
  const std::string it_path = WriteFile("fz_rflip_it.tsv", corpus.it);
  for (size_t offset = 0; offset < corpus.ui.size(); ++offset) {
    FaultInjector::Instance().Reset();
    // count=1: the interactions file is read first, so it consumes the
    // armed offset; the item-tags stream then reads clean bytes.
    FaultInjector::Instance().ArmReadBitFlip(static_cast<int64_t>(offset),
                                             0xFF, 1);
    CheckOutcome(ui_path, it_path, ParsePolicy::kPermissive,
                 "read-flip at " + std::to_string(offset));
  }
  FaultInjector::Instance().Reset();
}

// Degenerate whole-file corpora that have historically crashed naive
// parsers: empty, newline-only, NUL-only, no trailing newline, BOM-only.
TEST_F(IngestFuzzTest, DegenerateFiles) {
  const std::vector<std::pair<std::string, std::string>> corpora = {
      {"empty", ""},
      {"newlines", "\n\n\n"},
      {"nuls", std::string(64, '\0')},
      {"no-final-newline", "0\t1"},
      {"bom-only", "\xEF\xBB\xBF"},
      {"crlf-only", "\r\n\r\n"},
      {"spaces", "   \n \t \n"},
      {"huge-token", std::string(300, '9') + "\t1\n"},
  };
  for (const auto& [name, ui_bytes] : corpora) {
    for (const auto& [name2, it_bytes] : corpora) {
      const std::string ui_path = WriteFile("fz_degen_ui.tsv", ui_bytes);
      const std::string it_path = WriteFile("fz_degen_it.tsv", it_bytes);
      for (ParsePolicy policy :
           {ParsePolicy::kStrict, ParsePolicy::kPermissive}) {
        CheckOutcome(ui_path, it_path, policy, "degenerate " + name + "/" +
                                                   name2);
      }
    }
  }
}

}  // namespace
}  // namespace imcat
