#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/fault_injector.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace imcat {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(10);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // All values hit over 1000 draws.
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(8);
  double mean = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    mean += u;
  }
  EXPECT_NEAR(mean / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(9);
  double mean = 0.0, var = 0.0;
  const int n = 20000;
  std::vector<double> xs(n);
  for (int i = 0; i < n; ++i) xs[i] = rng.Normal();
  for (double x : xs) mean += x;
  mean /= n;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= n;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(10);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.35);
}

bool SameState(const Rng& a, const Rng& b) {
  const RngState sa = a.GetState(), sb = b.GetState();
  return std::equal(sa.s, sa.s + 4, sb.s) &&
         sa.have_cached_normal == sb.have_cached_normal;
}

TEST(CategoricalTableTest, MatchesCategoricalDrawForDraw) {
  std::vector<double> power_law(6204);
  for (size_t i = 0; i < power_law.size(); ++i) {
    power_law[i] = std::pow(static_cast<double>((i * 2654435761u) % 6204 + 1),
                            -0.9);
  }
  const std::vector<std::vector<double>> cases = {
      {0.0, 0.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.25, 0.0, 0.0},  // Zeros all over.
      {0.0, 0.0, 0.0, 3.0, 0.0},                            // One positive.
      {7.0},                                                // Length one.
      {1.0, 2.0, 3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0},   // Integers.
      power_law,
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    const CategoricalTable table(cases[c]);
    ASSERT_EQ(table.size(), static_cast<int64_t>(cases[c].size()));
    Rng a(100 + c), b(100 + c);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(table.Sample(&a), b.Categorical(cases[c]))
          << "case " << c << " draw " << i;
      ASSERT_TRUE(SameState(a, b)) << "case " << c << " draw " << i;
    }
  }
}

/// The inverse of an odd `a` modulo 2^64 (Newton's iteration).
uint64_t InverseMod64(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

/// Points `rng` so that its next Uniform() returns exactly m * 2^-53. The
/// xoshiro256** output is Rotl(s[1] * 5, 7) * 9, so s[1] is solved for.
void AimNextUniform(uint64_t m, Rng* rng) {
  const uint64_t out = m << 11;
  const uint64_t y = out * InverseMod64(9);
  RngState state = rng->GetState();
  state.s[1] = ((y >> 7) | (y << 57)) * InverseMod64(5);
  rng->SetState(state);
}

TEST(CategoricalTableTest, MatchesCategoricalAtPrefixBoundaries) {
  // Sums of 0.1 multiples are inexact, so near a boundary the prefix-sum
  // comparison and the scan's running remainder can round differently; the
  // table must detect that and fall back to the scan.
  std::vector<double> w(200);
  for (int i = 0; i < 200; ++i) w[i] = 0.1 * (i % 7 + 1);
  std::vector<double> prefix(w.size());
  double sum = 0.0;
  for (size_t i = 0; i < w.size(); ++i) prefix[i] = (sum += w[i]);
  const double total = prefix.back();
  const CategoricalTable table(w);
  Rng a(5), b(5);
  int64_t draws = 0, plain_search_wrong = 0;
  for (double boundary : prefix) {
    const auto center = static_cast<int64_t>(boundary / total * 0x1.0p53);
    for (int64_t m = center - 64; m <= center + 64; ++m) {
      if (m < 0 || m >= (int64_t{1} << 53)) continue;
      AimNextUniform(static_cast<uint64_t>(m), &a);
      AimNextUniform(static_cast<uint64_t>(m), &b);
      const int64_t expected = b.Categorical(w);
      ASSERT_EQ(table.Sample(&a), expected) << "m " << m;
      ++draws;
      const double x = static_cast<double>(m) * 0x1.0p-53 * total;
      const int64_t plain =
          std::upper_bound(prefix.begin(), prefix.end(), x) - prefix.begin();
      if (plain != expected) ++plain_search_wrong;
    }
  }
  EXPECT_GT(draws, 25000);
  // Without the guard a bare binary search would be wrong here.
  EXPECT_GT(plain_search_wrong, 0);
}

TEST(CategoricalTableDeathTest, RejectsNegativeWeight) {
  const std::vector<double> w = {1.0, -0.5, 2.0};
  EXPECT_DEATH(CategoricalTable table(w), "CHECK failed");
}

TEST(CategoricalTableDeathTest, RejectsZeroTotal) {
  const std::vector<double> w = {0.0, 0.0, 0.0};
  EXPECT_DEATH(CategoricalTable table(w), "CHECK failed");
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(11);
  std::vector<double> p;
  rng.Dirichlet(0.5, 6, &p);
  double s = 0.0;
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    s += v;
  }
  EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(12);
  double mean = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) mean += rng.Gamma(2.5);
  EXPECT_NEAR(mean / n, 2.5, 0.1);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(13);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, StateRoundTripResumesStream) {
  Rng rng(21);
  for (int i = 0; i < 17; ++i) rng.NextUint64();
  rng.Normal();  // Populate the Box-Muller cache (odd draw count).
  const RngState state = rng.GetState();
  std::vector<double> expected;
  for (int i = 0; i < 50; ++i) expected.push_back(rng.Normal());

  Rng other(999);  // Different seed; state restore must override it fully.
  other.SetState(state);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(other.Normal(), expected[i]);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("file x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: file x");
}

TEST(StatusTest, ToStringCoversAllCodes) {
  EXPECT_EQ(Status::OK().ToString(), "OK");
  EXPECT_EQ(Status::InvalidArgument("m").ToString(), "InvalidArgument: m");
  EXPECT_EQ(Status::NotFound("m").ToString(), "NotFound: m");
  EXPECT_EQ(Status::IoError("m").ToString(), "IoError: m");
  EXPECT_EQ(Status::FailedPrecondition("m").ToString(),
            "FailedPrecondition: m");
  EXPECT_EQ(Status::DataLoss("m").ToString(), "DataLoss: m");
  EXPECT_EQ(Status::DeadlineExceeded("m").ToString(), "DeadlineExceeded: m");
  EXPECT_EQ(Status::Unavailable("m").ToString(), "Unavailable: m");
  EXPECT_EQ(Status::ResourceExhausted("m").ToString(),
            "ResourceExhausted: m");
}

TEST(StatusTest, EveryCodeStringifies) {
  // Enumerate every code value up to the sentinel: a newly added code that
  // is missing from CodeName's switch shows up here as "Unknown".
  for (int code = 0; code < kNumStatusCodes; ++code) {
    Status s(static_cast<StatusCode>(code), "msg");
    EXPECT_EQ(s.ToString().find("Unknown"), std::string::npos)
        << "StatusCode " << code << " has no ToString name";
    if (code != 0) {
      EXPECT_NE(s.ToString().find(": msg"), std::string::npos)
          << "StatusCode " << code << " dropped its message";
    }
  }
}

TEST(StatusTest, DataLossFactory) {
  Status s = Status::DataLoss("checksum mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.message(), "checksum mismatch");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::InvalidArgument("bad");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a\t\tb", '\t');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("123", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(StdDev(xs), 2.13809, 1e-4);
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({1.0}), 0.0);
}

TEST(StatsTest, PearsonCorrelation) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("| name      | v  |"), std::string::npos);
  EXPECT_NE(s.find("| long-name | 22 |"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"x"});
  EXPECT_NE(t.ToString().find("| x |"), std::string::npos);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  volatile double use = sink;
  (void)use;
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  EXPECT_EQ(sw.ElapsedMillis() > 0.0, true);
}

// ---------------------------------------------------------------------------
// FaultInjector tests. Each test resets the process-wide injector so no
// armed fault leaks into other tests.
// ---------------------------------------------------------------------------

class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_F(FaultInjectorTest, DisabledByDefaultAndPassesWritesThrough) {
  FaultInjector& fi = FaultInjector::Instance();
  EXPECT_FALSE(fi.enabled());
  unsigned char buf[4] = {1, 2, 3, 4};
  bool fail = true;
  EXPECT_EQ(fi.FilterWrite(0, buf, sizeof(buf), &fail), sizeof(buf));
  EXPECT_FALSE(fail);
  EXPECT_FALSE(fi.ConsumeNanLoss());
  EXPECT_EQ(fi.faults_fired(), 0);
}

TEST_F(FaultInjectorTest, WriteFailureFiresOnceAtOffset) {
  FaultInjector& fi = FaultInjector::Instance();
  fi.ArmWriteFailure(6);
  EXPECT_TRUE(fi.enabled());
  unsigned char buf[4] = {0, 0, 0, 0};
  bool fail = false;
  // First 4 bytes are below the limit: untouched.
  EXPECT_EQ(fi.FilterWrite(0, buf, 4, &fail), 4u);
  EXPECT_FALSE(fail);
  // Next write crosses byte 6: only 2 bytes allowed, then the error.
  EXPECT_EQ(fi.FilterWrite(4, buf, 4, &fail), 2u);
  EXPECT_TRUE(fail);
  EXPECT_EQ(fi.faults_fired(), 1);
  // Disarmed after firing.
  EXPECT_FALSE(fi.enabled());
}

TEST_F(FaultInjectorTest, ShortWriteTruncatesSilently) {
  FaultInjector& fi = FaultInjector::Instance();
  fi.ArmShortWrite(2);
  unsigned char buf[8] = {0};
  bool fail = false;
  EXPECT_EQ(fi.FilterWrite(0, buf, 8, &fail), 2u);
  EXPECT_FALSE(fail);  // The writer never learns about the torn write.
  EXPECT_EQ(fi.faults_fired(), 1);
}

TEST_F(FaultInjectorTest, BitFlipCorruptsExactlyOneByte) {
  FaultInjector& fi = FaultInjector::Instance();
  fi.ArmBitFlip(/*offset=*/10, /*mask=*/0x01);
  unsigned char buf[4] = {7, 7, 7, 7};
  bool fail = false;
  // Write not covering offset 10: untouched and still armed.
  EXPECT_EQ(fi.FilterWrite(0, buf, 4, &fail), 4u);
  EXPECT_EQ(buf[0], 7);
  EXPECT_TRUE(fi.enabled());
  // Write covering offset 10 (stream bytes 8..11): byte 2 flipped.
  EXPECT_EQ(fi.FilterWrite(8, buf, 4, &fail), 4u);
  EXPECT_FALSE(fail);
  EXPECT_EQ(buf[2], 7 ^ 0x01);
  EXPECT_EQ(buf[0], 7);
  EXPECT_EQ(buf[3], 7);
  EXPECT_EQ(fi.faults_fired(), 1);
}

TEST_F(FaultInjectorTest, NanLossFiresAfterCountdown) {
  FaultInjector& fi = FaultInjector::Instance();
  fi.ArmNanLoss(/*after_steps=*/2);
  EXPECT_FALSE(fi.ConsumeNanLoss());
  EXPECT_FALSE(fi.ConsumeNanLoss());
  EXPECT_TRUE(fi.ConsumeNanLoss());
  EXPECT_FALSE(fi.ConsumeNanLoss());  // One-shot.
  EXPECT_EQ(fi.faults_fired(), 1);
}

}  // namespace
}  // namespace imcat
