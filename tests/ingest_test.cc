// Unit tests for the hardened ingestion subsystem: the streaming
// LineReader (resource guards, CRLF/BOM tolerance, truncation detection),
// the per-record error taxonomy, quarantine accounting, and the atomic
// TSV save path.

#include "data/ingest.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

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

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Runs ReadEdgeFile over `content` and returns everything it produced.
struct RunResult {
  Status status;
  EdgeList edges;
  IngestFileReport report;
};

RunResult RunIngest(const std::string& name, const std::string& content,
              const IngestOptions& options) {
  RunResult result;
  const std::string path = WriteFile(name, content);
  result.status = ReadEdgeFile(path, options, &result.edges, &result.report);
  return result;
}

void ExpectInvariant(const IngestFileReport& report) {
  EXPECT_EQ(report.kept + report.quarantined, report.total_records)
      << report.Summary();
}

// ---------------------------------------------------------------------------
// LineReader.
// ---------------------------------------------------------------------------

TEST(LineReaderTest, DeliversLinesWithNumbersAndOffsets) {
  const std::string path = WriteFile("lr_basic.txt", "ab\ncd\n\nef\n");
  LineReader reader;
  ASSERT_TRUE(reader.Open(path, IngestLimits{}).ok());
  RawLine line;
  bool has_line = false;
  ASSERT_TRUE(reader.Next(&line, &has_line).ok());
  ASSERT_TRUE(has_line);
  EXPECT_EQ(line.text, "ab");
  EXPECT_EQ(line.number, 1);
  EXPECT_EQ(line.offset, 0);
  EXPECT_TRUE(line.terminated);
  ASSERT_TRUE(reader.Next(&line, &has_line).ok());
  EXPECT_EQ(line.text, "cd");
  EXPECT_EQ(line.offset, 3);
  ASSERT_TRUE(reader.Next(&line, &has_line).ok());
  EXPECT_EQ(line.text, "");
  ASSERT_TRUE(reader.Next(&line, &has_line).ok());
  EXPECT_EQ(line.text, "ef");
  EXPECT_EQ(line.number, 4);
  ASSERT_TRUE(reader.Next(&line, &has_line).ok());
  EXPECT_FALSE(has_line);
}

TEST(LineReaderTest, ToleratesCrlfAndUtf8Bom) {
  const std::string path =
      WriteFile("lr_crlf.txt", "\xEF\xBB\xBF" "1\t2\r\n3 4\r\n");
  LineReader reader;
  ASSERT_TRUE(reader.Open(path, IngestLimits{}).ok());
  RawLine line;
  bool has_line = false;
  ASSERT_TRUE(reader.Next(&line, &has_line).ok());
  EXPECT_EQ(line.text, "1\t2");  // BOM and CR both stripped.
  ASSERT_TRUE(reader.Next(&line, &has_line).ok());
  EXPECT_EQ(line.text, "3 4");
}

TEST(LineReaderTest, FlagsUnterminatedFinalLine) {
  const std::string path = WriteFile("lr_unterminated.txt", "1 2\n3 4");
  LineReader reader;
  ASSERT_TRUE(reader.Open(path, IngestLimits{}).ok());
  RawLine line;
  bool has_line = false;
  ASSERT_TRUE(reader.Next(&line, &has_line).ok());
  EXPECT_TRUE(line.terminated);
  ASSERT_TRUE(reader.Next(&line, &has_line).ok());
  ASSERT_TRUE(has_line);
  EXPECT_EQ(line.text, "3 4");
  EXPECT_FALSE(line.terminated);
}

TEST(LineReaderTest, OverlongLineIsTruncatedAndSkippedNotBuffered) {
  IngestLimits limits;
  limits.max_line_bytes = 8;
  const std::string path = WriteFile(
      "lr_overlong.txt", std::string(100, 'x') + "\n1 2\n");
  LineReader reader;
  ASSERT_TRUE(reader.Open(path, limits).ok());
  RawLine line;
  bool has_line = false;
  ASSERT_TRUE(reader.Next(&line, &has_line).ok());
  EXPECT_TRUE(line.overlong);
  EXPECT_EQ(line.text.size(), 8u);
  // The next line is still delivered cleanly after the skip.
  ASSERT_TRUE(reader.Next(&line, &has_line).ok());
  EXPECT_EQ(line.text, "1 2");
  EXPECT_FALSE(line.overlong);
}

TEST(LineReaderTest, FileSizeGuardIsResourceExhausted) {
  IngestLimits limits;
  limits.max_file_bytes = 4;
  const std::string path = WriteFile("lr_big.txt", "0123456789\n");
  LineReader reader;
  Status st = reader.Open(path, limits);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(LineReaderTest, InjectedShortReadIsDataLoss) {
  const std::string path = WriteFile("lr_short.txt", "1 2\n3 4\n5 6\n");
  FaultInjector::Instance().Reset();
  FaultInjector::Instance().ArmShortRead(5);  // Mid second line.
  LineReader reader;
  ASSERT_TRUE(reader.Open(path, IngestLimits{}).ok());
  RawLine line;
  bool has_line = false;
  Status st = Status::OK();
  while (st.ok()) {
    st = reader.Next(&line, &has_line);
    if (st.ok() && !has_line) break;
  }
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_EQ(FaultInjector::Instance().faults_fired(), 1);
  FaultInjector::Instance().Reset();
}

// ---------------------------------------------------------------------------
// Error taxonomy: strict mode fails fast with file:line:column context.
// ---------------------------------------------------------------------------

TEST(IngestTaxonomyTest, BadColumnCountStrict) {
  RunResult one = RunIngest("tx_one_col.tsv", "1 2\n7\n", IngestOptions{});
  ASSERT_FALSE(one.status.ok());
  EXPECT_EQ(one.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(one.status.message().find(":2:"), std::string::npos);
  EXPECT_NE(one.status.message().find("expected two columns"),
            std::string::npos);
  RunResult three = RunIngest("tx_three_col.tsv", "1 2 3\n", IngestOptions{});
  ASSERT_FALSE(three.status.ok());
  // Column points at the third token.
  EXPECT_NE(three.status.message().find(":1:5:"), std::string::npos)
      << three.status.message();
}

TEST(IngestTaxonomyTest, NonIntegerVersusOverflow) {
  RunResult text = RunIngest("tx_text.tsv", "abc 2\n", IngestOptions{});
  ASSERT_FALSE(text.status.ok());
  EXPECT_EQ(text.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(text.report.error_counts[static_cast<int>(
                IngestError::kNonIntegerToken)],
            1);
  // 26 digits: integer-shaped but unrepresentable.
  RunResult overflow =
      RunIngest("tx_overflow.tsv", "99999999999999999999999999 2\n",
          IngestOptions{});
  ASSERT_FALSE(overflow.status.ok());
  EXPECT_EQ(
      overflow.report.error_counts[static_cast<int>(IngestError::kIdOverflow)],
      1);
  EXPECT_NE(overflow.status.message().find("overflow"), std::string::npos);
}

TEST(IngestTaxonomyTest, NegativeAndOutOfRangeIds) {
  RunResult negative = RunIngest("tx_neg.tsv", "1 10\n2 -7\n", IngestOptions{});
  ASSERT_FALSE(negative.status.ok());
  EXPECT_NE(negative.status.message().find(":2:3:"), std::string::npos)
      << negative.status.message();
  EXPECT_NE(negative.status.message().find("-7"), std::string::npos);
  IngestOptions bounded;
  bounded.max_raw_id = 100;
  RunResult range = RunIngest("tx_range.tsv", "1 101\n", bounded);
  ASSERT_FALSE(range.status.ok());
  EXPECT_NE(range.status.message().find("max raw id"), std::string::npos);
  EXPECT_EQ(
      range.report.error_counts[static_cast<int>(IngestError::kIdOutOfRange)],
      1);
}

TEST(IngestTaxonomyTest, SelfLoopOnlyWhenRejected) {
  IngestOptions options;
  RunResult allowed = RunIngest("tx_self_ok.tsv", "5 5\n", options);
  ASSERT_TRUE(allowed.status.ok());
  EXPECT_EQ(allowed.report.kept, 1);
  options.reject_self_loops = true;
  RunResult rejected = RunIngest("tx_self_bad.tsv", "5 5\n", options);
  ASSERT_FALSE(rejected.status.ok());
  EXPECT_EQ(rejected.report.error_counts[static_cast<int>(
                IngestError::kSelfLoop)],
            1);
}

TEST(IngestTaxonomyTest, TruncatedFinalLineIsDataLossInStrict) {
  RunResult result = RunIngest("tx_trunc.tsv", "1 2\n3 4", IngestOptions{});
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status.message().find("truncation"), std::string::npos);
  ExpectInvariant(result.report);
}

TEST(IngestTaxonomyTest, OverlongLineIsResourceExhaustedInStrict) {
  IngestOptions options;
  options.limits.max_line_bytes = 8;
  RunResult result =
      RunIngest("tx_long.tsv", std::string(50, '1') + " 2\n", options);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(
      result.report.error_counts[static_cast<int>(IngestError::kLineTooLong)],
      1);
}

TEST(IngestTaxonomyTest, MaxRecordsGuard) {
  IngestOptions options;
  options.limits.max_records = 2;
  RunResult result = RunIngest("tx_cap.tsv", "1 2\n3 4\n5 6\n", options);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  ExpectInvariant(result.report);
}

TEST(IngestTaxonomyTest, DuplicateIsDroppedAndCountedUnderBothPolicies) {
  for (ParsePolicy policy : {ParsePolicy::kStrict, ParsePolicy::kPermissive}) {
    IngestOptions options;
    options.policy = policy;
    RunResult result =
        RunIngest("tx_dup.tsv", "1 2\n1 2\n3 4\n1 2\n", options);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.edges.size(), 2u);
    EXPECT_EQ(result.report.kept, 2);
    EXPECT_EQ(result.report.quarantined, 2);
    EXPECT_EQ(result.report.error_counts[static_cast<int>(
                  IngestError::kDuplicateEdge)],
              2);
    ExpectInvariant(result.report);
  }
}

TEST(IngestTaxonomyTest, ErrorNamesCoverTheWholeTaxonomy) {
  for (int i = 0; i < kNumIngestErrors; ++i) {
    EXPECT_STRNE(IngestErrorName(static_cast<IngestError>(i)), "unknown")
        << "IngestError " << i << " has no name";
  }
}

// ---------------------------------------------------------------------------
// Permissive mode: quarantine accounting.
// ---------------------------------------------------------------------------

TEST(IngestPermissiveTest, QuarantinesEveryBadRecordAndKeepsTheRest) {
  IngestOptions options;
  options.policy = ParsePolicy::kPermissive;
  options.max_raw_id = 1000;
  const std::string content =
      "# header comment\n"
      "1 10\n"
      "not-a-number 3\n"       // non-integer token
      "2 20\n"
      "3 30\n"
      "4\n"                    // bad column count
      "5 -6\n"                 // negative id
      "7 5000\n"               // out of range
      "1 10\n"                 // duplicate
      "\n"
      "8 30\n";
  RunResult result = RunIngest("perm_mixed.tsv", content, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.report.total_records, 9);
  EXPECT_EQ(result.report.kept, 4);
  EXPECT_EQ(result.report.quarantined, 5);
  ExpectInvariant(result.report);
  EXPECT_EQ(result.edges.size(), 4u);
  EXPECT_EQ(result.report.error_counts[static_cast<int>(
                IngestError::kNonIntegerToken)],
            1);
  EXPECT_EQ(result.report.error_counts[static_cast<int>(
                IngestError::kBadColumnCount)],
            1);
  EXPECT_EQ(
      result.report.error_counts[static_cast<int>(IngestError::kNegativeId)],
      1);
  EXPECT_EQ(
      result.report.error_counts[static_cast<int>(IngestError::kIdOutOfRange)],
      1);
  EXPECT_EQ(result.report.error_counts[static_cast<int>(
                IngestError::kDuplicateEdge)],
            1);
  // Samples carry line numbers and details for the first offenders.
  ASSERT_GE(result.report.samples.size(), 1u);
  EXPECT_EQ(result.report.samples[0].line, 3);
  EXPECT_NE(result.report.samples[0].detail.find("not-a-number"),
            std::string::npos);
  // The summary names every observed class.
  const std::string summary = result.report.Summary();
  EXPECT_NE(summary.find("non-integer-token:1"), std::string::npos) << summary;
  EXPECT_NE(summary.find("duplicate-edge:1"), std::string::npos) << summary;
}

TEST(IngestPermissiveTest, SampleCountIsCapped) {
  IngestOptions options;
  options.policy = ParsePolicy::kPermissive;
  options.max_quarantine_samples = 2;
  RunResult result =
      RunIngest("perm_cap.tsv", "x 1\nx 2\nx 3\nx 4\nx 5\n", options);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.report.quarantined, 5);
  EXPECT_EQ(result.report.samples.size(), 2u);
  ExpectInvariant(result.report);
}

// ---------------------------------------------------------------------------
// Loader on top of ingest: policy plumb-through, dedup-before-filter,
// atomic save.
// ---------------------------------------------------------------------------

TEST(LoaderHardeningTest, PermissiveLoadSurvivesCorruptLinesWithReport) {
  const std::string ui = WriteFile(
      "lh_ui.tsv", "1 10\nGARBAGE\n1 11\n2 10\nbroken line here\n2 12\n");
  const std::string it = WriteFile("lh_it.tsv", "10 100\nnope\n11 100\n");
  LoaderOptions options;
  options.policy = ParsePolicy::kPermissive;
  IngestReport report;
  StatusOr<Dataset> result = LoadDatasetFromTsv(ui, it, options, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().interactions.size(), 4u);
  EXPECT_EQ(result.value().item_tags.size(), 2u);
  EXPECT_EQ(report.interactions.quarantined, 2);
  EXPECT_EQ(report.item_tags.quarantined, 1);
  ExpectInvariant(report.interactions);
  ExpectInvariant(report.item_tags);
  // The same files fail fast in strict mode.
  options.policy = ParsePolicy::kStrict;
  EXPECT_FALSE(LoadDatasetFromTsv(ui, it, options).ok());
}

TEST(LoaderHardeningTest, DuplicatesAreRemovedBeforeDegreeFiltering) {
  // User 2's only distinct edge is repeated three times; with inflated
  // counts it would survive a min-degree-2 filter, deduplicated it must
  // not.
  const std::string ui = WriteFile(
      "lh_dedup_ui.tsv", "1 10\n1 11\n2 10\n2 10\n2 10\n");
  const std::string it = WriteFile("lh_dedup_it.tsv", "10 100\n");
  LoaderOptions options;
  options.min_user_interactions = 2;
  IngestReport report;
  StatusOr<Dataset> result = LoadDatasetFromTsv(ui, it, options, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_users, 1);
  EXPECT_EQ(result.value().interactions.size(), 2u);
  EXPECT_EQ(report.interactions.error_counts[static_cast<int>(
                IngestError::kDuplicateEdge)],
            2);
  EXPECT_EQ(report.interactions.kept, 3);
  EXPECT_EQ(report.interactions.filtered_by_degree, 1);
  ExpectInvariant(report.interactions);
}

TEST(LoaderHardeningTest, SaveIsAtomicUnderInjectedWriteFailure) {
  Dataset ds;
  ds.num_users = 2;
  ds.num_items = 3;
  ds.num_tags = 1;
  ds.interactions = {{0, 0}, {0, 1}, {1, 2}};
  ds.item_tags = {{0, 0}};
  const std::string ui = TestTempPath("lh_atomic_ui.tsv");
  const std::string it = TestTempPath("lh_atomic_it.tsv");
  ASSERT_TRUE(SaveDatasetToTsv(ds, ui, it).ok());
  const std::string ui_before = ReadFileBytes(ui);
  ASSERT_FALSE(ui_before.empty());

  Dataset bigger = ds;
  bigger.interactions.emplace_back(1, 0);
  FaultInjector::Instance().Reset();
  FaultInjector::Instance().ArmWriteFailure(4);
  Status st = SaveDatasetToTsv(bigger, ui, it);
  FaultInjector::Instance().Reset();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // The previous good file is untouched and no temp file is left behind.
  EXPECT_EQ(ReadFileBytes(ui), ui_before);
  EXPECT_FALSE(std::ifstream(ui + ".tmp").good());

  // A fault-free retry succeeds and the result is loadable.
  ASSERT_TRUE(SaveDatasetToTsv(bigger, ui, it).ok());
  StatusOr<Dataset> reloaded = LoadDatasetFromTsv(ui, it);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().interactions.size(), 4u);
}

TEST(LoaderHardeningTest, SaveReportsUnwritablePath) {
  Dataset ds;
  ds.num_users = 1;
  ds.num_items = 1;
  ds.interactions = {{0, 0}};
  Status st = SaveDatasetToTsv(ds, "/nonexistent-dir/a.tsv",
                               "/nonexistent-dir/b.tsv");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(LoaderHardeningTest, InvalidLimitsRejected) {
  const std::string ui = WriteFile("lh_lim_ui.tsv", "1 2\n");
  LoaderOptions options;
  options.limits.max_line_bytes = 0;
  StatusOr<Dataset> result = LoadDatasetFromTsv(ui, ui, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LoaderHardeningTest, FileSizeGuardSurfacesThroughLoader) {
  const std::string ui = WriteFile("lh_guard_ui.tsv", "1 2\n3 4\n5 6\n");
  const std::string it = WriteFile("lh_guard_it.tsv", "2 1\n");
  LoaderOptions options;
  options.limits.max_file_bytes = 4;
  StatusOr<Dataset> result = LoadDatasetFromTsv(ui, it, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace imcat
