// Foundation tests: Status/StatusOr, strings, CSV, math, RNG/samplers,
// bitsets, text tables, flags.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "cksafe/util/bitset.h"
#include "cksafe/util/csv.h"
#include "cksafe/util/flags.h"
#include "cksafe/util/math_util.h"
#include "cksafe/util/random.h"
#include "cksafe/util/status.h"
#include "cksafe/util/string_util.h"
#include "cksafe/util/text_table.h"
#include "testing_util.h"

namespace cksafe {
namespace {

// --- Status / StatusOr ---

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "ok");
  const Status err = Status::InvalidArgument("bad k");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.message(), "bad k");
  EXPECT_EQ(err.ToString(), "invalid_argument: bad k");
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "not_found");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIOError), "io_error");
}

TEST(StatusOrTest, ValueAndError) {
  StatusOr<int> ok_value(42);
  ASSERT_TRUE(ok_value.ok());
  EXPECT_EQ(*ok_value, 42);

  StatusOr<int> err(Status::NotFound("missing"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

StatusOr<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  CKSAFE_ASSIGN_OR_RETURN(*out, HalfOf(x));
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(UseHalf(7, &out).ok());
}

// --- strings ---

TEST(StringTest, SplitTrimJoin) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("one", ','), (std::vector<std::string>{"one"}));
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringTest, ParseNumbers) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("  -7 "), -7);
  EXPECT_FALSE(ParseInt64("42x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_NEAR(*ParseDouble("0.25"), 0.25, 1e-15);
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
}

TEST(StringTest, ParseDoubleRejectsNonFinite) {
  // strtod parses all of these; none is a usable threshold/weight/scale,
  // so ParseDouble must reject them rather than let a NaN poison every
  // comparison downstream.
  for (const char* bad : {"nan", "NaN", "-nan", "nan(0x1)", "inf", "-inf",
                          "INF", "infinity", "-Infinity"}) {
    const auto parsed = ParseDouble(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted " << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  // Overflow to infinity is equally non-finite.
  EXPECT_FALSE(ParseDouble("1e999").ok());
  // Finite values keep parsing, including extremes.
  EXPECT_NEAR(*ParseDouble("-1e308"), -1e308, 1e293);
  EXPECT_EQ(*ParseDouble("0"), 0.0);
}

TEST(StringTest, MiscHelpers) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
  EXPECT_EQ(StrFormat("%d/%d=%.2f", 1, 4, 0.25), "1/4=0.25");
}

// --- math ---

TEST(MathTest, Entropy) {
  EXPECT_NEAR(EntropyNats({1, 1}), std::log(2.0), 1e-12);
  EXPECT_NEAR(EntropyBits({1, 1}), 1.0, 1e-12);
  EXPECT_NEAR(EntropyNats({4, 0, 0}), 0.0, 1e-12);
  EXPECT_NEAR(EntropyNats({}), 0.0, 1e-12);
  EXPECT_NEAR(EntropyNats({2, 1, 1}),
              -(0.5 * std::log(0.5) + 2 * 0.25 * std::log(0.25)), 1e-12);
}

TEST(MathTest, Combinatorics) {
  EXPECT_DOUBLE_EQ(BinomialCoefficient(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(3, 5), 0.0);
  EXPECT_DOUBLE_EQ(MultisetPermutationCount({2, 2, 1}), 30.0);
  EXPECT_DOUBLE_EQ(MultisetPermutationCount({2, 1, 1, 1}), 60.0);
  EXPECT_DOUBLE_EQ(MultisetPermutationCount({3}), 1.0);
  EXPECT_DOUBLE_EQ(MultisetPermutationCount({}), 1.0);
}

TEST(MathTest, SafeDivAndApprox) {
  EXPECT_DOUBLE_EQ(SafeDiv(6.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(SafeDiv(0.0, 0.0), 0.0);
  EXPECT_TRUE(ApproxEqual(0.1 + 0.2, 0.3));
  EXPECT_FALSE(ApproxEqual(0.1, 0.2));
}

// --- RNG / samplers ---

TEST(RandomTest, Determinism) {
  Rng a(123);
  Rng b(123);
  Rng c(124);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.NextUint64();
    EXPECT_EQ(va, b.NextUint64());
    if (va != c.NextUint64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomTest, RangesAndShuffle) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBelow(7);
    EXPECT_LT(v, 7u);
    const int64_t r = rng.NextInRange(-3, 3);
    EXPECT_GE(r, -3);
    EXPECT_LE(r, 3);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  std::vector<int> v = {1, 2, 3, 4, 5};
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(RandomTest, DiscreteSamplerFrequencies) {
  DiscreteSampler sampler({1.0, 3.0, 0.0, 4.0});
  EXPECT_NEAR(sampler.Probability(0), 0.125, 1e-12);
  EXPECT_NEAR(sampler.Probability(2), 0.0, 1e-12);
  Rng rng(77);
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_EQ(counts[2], 0);  // zero-weight index never drawn
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.125, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.375, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.5, 0.01);
}

// Regression: the end-of-range guard in Sample used to step back onto the
// *last* cumulative entry even when its weight was zero, so a draw landing
// exactly on the total returned a zero-probability index. The boundary is
// unreachable through Rng::NextDouble's 53-bit draws, so probe it through
// the IndexForPoint seam.
TEST(RandomTest, DiscreteSamplerBoundaryNeverPicksZeroWeight) {
  // Trailing zero weights: a draw at the total must step back to index 1.
  DiscreteSampler trailing({2.0, 3.0, 0.0, 0.0});
  EXPECT_EQ(trailing.IndexForPoint(trailing.total()), 1u);
  // Interior zero weight, boundary draw: index 3 is the last positive one.
  DiscreteSampler interior({1.0, 0.0, 2.0, 1.0});
  EXPECT_EQ(interior.IndexForPoint(interior.total()), 3u);
  // Interior points keep their usual upper-bound semantics.
  EXPECT_EQ(interior.IndexForPoint(0.0), 0u);
  EXPECT_EQ(interior.IndexForPoint(1.0), 2u);  // skips the zero-weight slot
  EXPECT_EQ(interior.IndexForPoint(2.9), 2u);
  EXPECT_EQ(interior.IndexForPoint(3.5), 3u);
  // Exhaustive agreement: for every probe, the returned index has positive
  // probability.
  Rng rng(testing::TestSeed(20260809));
  SCOPED_TRACE(testing::SeedTrace(20260809));
  DiscreteSampler mixed({0.0, 1.0, 0.0, 2.0, 0.0});
  for (int i = 0; i < 2000; ++i) {
    const size_t index = mixed.IndexForPoint(rng.NextDouble() * mixed.total());
    EXPECT_GT(mixed.Probability(index), 0.0) << "index " << index;
  }
  EXPECT_GT(mixed.Probability(mixed.IndexForPoint(mixed.total())), 0.0);
}

// --- Bitset ---

TEST(BitsetTest, SetTestCount) {
  Bitset bits(130);
  EXPECT_EQ(bits.Count(), 0u);
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 3u);
  bits.Clear(64);
  EXPECT_EQ(bits.Count(), 2u);
}

TEST(BitsetTest, BitwiseAlgebra) {
  Bitset a(70);
  Bitset b(70);
  a.Set(1);
  a.Set(65);
  b.Set(65);
  b.Set(2);
  EXPECT_EQ((a & b).Count(), 1u);
  EXPECT_EQ((a | b).Count(), 3u);
  EXPECT_EQ(Bitset::AndCount(a, b), 1u);
  // Not() respects the logical size: 70 - 2 = 68.
  EXPECT_EQ(a.Not().Count(), 68u);
  EXPECT_EQ((a.Not() & a).Count(), 0u);
}

TEST(BitsetTest, AllOnesConstructor) {
  Bitset ones(67, /*all_ones=*/true);
  EXPECT_EQ(ones.Count(), 67u);
  EXPECT_TRUE(ones.Test(66));
}

TEST(BitsetTest, EveryPopcountPathCountsLikeABitLoop) {
  const uint64_t seed = testing::TestSeed(20261019);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  std::vector<uint64_t> a(37), b(37);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextUint64();
    b[i] = i % 5 == 0 ? ~0ULL : rng.NextUint64();
  }
  a[3] = 0;
  size_t want_a = 0, want_and = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    for (int bit = 0; bit < 64; ++bit) {
      want_a += (a[i] >> bit) & 1;
      want_and += ((a[i] & b[i]) >> bit) & 1;
    }
  }
  EXPECT_TRUE(PopcountPathUsable(PopcountPath::kPortable));
  const PopcountPath active = SetPopcountPathForTest(PopcountPath::kPortable);
  for (PopcountPath path : {PopcountPath::kPortable, PopcountPath::kHardware}) {
    if (!PopcountPathUsable(path)) continue;
    SCOPED_TRACE(path == PopcountPath::kHardware ? "hardware" : "portable");
    SetPopcountPathForTest(path);
    EXPECT_EQ(PopcountWords(a.data(), a.size()), want_a);
    EXPECT_EQ(AndPopcountWords(a.data(), b.data(), b.size()), want_and);
    EXPECT_EQ(PopcountWords(a.data(), 0), 0u);
  }
  SetPopcountPathForTest(active);
}

// --- CSV ---

TEST(CsvTest, ParseLine) {
  EXPECT_EQ(ParseCsvLine(" a , b ,c "),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cksafe_csv_test.csv";
  const std::vector<std::vector<std::string>> rows = {
      {"39", "State-gov", "Male"}, {"50", "Private", "Female"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto read = ReadCsvFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, rows);
  std::remove(path.c_str());
}

TEST(CsvTest, QuotedFields) {
  // "" escapes a quote; quoted fields keep delimiters and padding.
  EXPECT_EQ(ParseCsvLine(R"("a,b",plain," pad ","say ""hi""")"),
            (std::vector<std::string>{"a,b", "plain", " pad ", "say \"hi\""}));
  // Padding around a quoted field is tolerated.
  EXPECT_EQ(ParseCsvLine(R"(  "x" , y )"),
            (std::vector<std::string>{"x", "y"}));
  // Empty and trailing fields.
  EXPECT_EQ(ParseCsvLine("a,,c,"),
            (std::vector<std::string>{"a", "", "c", ""}));
  EXPECT_EQ(ParseCsvLine(R"("",)"), (std::vector<std::string>{"", ""}));
}

TEST(CsvTest, QuotingRoundTripsAwkwardCells) {
  const std::string path = ::testing::TempDir() + "/cksafe_csv_quoted.csv";
  const std::vector<std::vector<std::string>> rows = {
      {"plain", "comma,inside", "quote\"inside"},
      {" leading", "trailing ", "both sides "},
      {"line\nbreak", "crlf\r\nstyle", ""},
      {"\"fully quoted\""},
      {""},  // a lone empty field must not vanish as a blank line
  };
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  const auto read = ReadCsvFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, rows);
  std::remove(path.c_str());
}

// Property: any cell content written with WriteCsvFile reads back
// verbatim, whatever mix of delimiters, quotes, whitespace and newlines
// the foundry throws at it.
TEST(CsvTest, RandomizedWriteReadRoundTrip) {
  const uint64_t seed = testing::TestSeed(20260809);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const std::string alphabet = "ab,\"\n\r '\t;x";
  const std::string path = ::testing::TempDir() + "/cksafe_csv_fuzz.csv";
  for (size_t iter = 0; iter < testing::TestIters(25); ++iter) {
    std::vector<std::vector<std::string>> rows(1 +
                                               rng.NextBelow(6));
    for (auto& row : rows) {
      row.resize(1 + rng.NextBelow(5));
      for (auto& cell : row) {
        const size_t len = rng.NextBelow(12);
        for (size_t i = 0; i < len; ++i) {
          cell += alphabet[rng.NextBelow(alphabet.size())];
        }
      }
    }
    ASSERT_TRUE(WriteCsvFile(path, rows).ok());
    const auto read = ReadCsvFile(path);
    ASSERT_TRUE(read.ok()) << read.status();
    ASSERT_EQ(*read, rows) << "round trip diverged at iteration " << iter;
  }
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIOError) {
  auto read = ReadCsvFile("/nonexistent/path.csv");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

// --- TextTable ---

TEST(TextTableTest, AlignsColumns) {
  TextTable t;
  t.SetHeader({"k", "disclosure"});
  t.AddRow({"0", "0.4000"});
  t.AddRow({"10", "1.0000"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("k   disclosure"), std::string::npos);
  EXPECT_NE(out.find("10  1.0000"), std::string::npos);
  EXPECT_EQ(TextTable::FormatDouble(0.123456, 3), "0.123");
}

// --- Flags ---

TEST(FlagsTest, ParsesAllKinds) {
  int64_t k = 3;
  double c = 0.7;
  std::string name = "default";
  bool verbose = false;
  FlagParser parser;
  parser.AddInt64("k", &k, "attacker power");
  parser.AddDouble("c", &c, "threshold");
  parser.AddString("name", &name, "label");
  parser.AddBool("verbose", &verbose, "chatty");

  const char* argv[] = {"prog",        "--k=5",  "--c", "0.55",
                        "--name=fig5", "--verbose", "pos"};
  ASSERT_TRUE(parser.Parse(7, const_cast<char**>(argv)).ok());
  EXPECT_EQ(k, 5);
  EXPECT_NEAR(c, 0.55, 1e-12);
  EXPECT_EQ(name, "fig5");
  EXPECT_TRUE(verbose);
  EXPECT_EQ(parser.positional(), (std::vector<std::string>{"pos"}));
}

TEST(FlagsTest, RejectsUnknownAndMalformed) {
  int64_t k = 0;
  FlagParser parser;
  parser.AddInt64("k", &k, "");
  const char* unknown[] = {"prog", "--zz=1"};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(unknown)).ok());
  const char* bad[] = {"prog", "--k=abc"};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(bad)).ok());
  const char* dangling[] = {"prog", "--k"};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(dangling)).ok());
  EXPECT_NE(parser.Usage("prog").find("--k"), std::string::npos);
}

TEST(FlagsTest, FlagShapedTokenIsNeverAValue) {
  // Regression (PR 7): `--rows --k=4` used to consume `--k=4` as the
  // value of --rows, silently dropping a flag. A token starting with --
  // must be rejected as a value with a clear Status, and the targets must
  // stay untouched.
  int64_t rows = 7;
  int64_t k = 3;
  FlagParser parser;
  parser.AddInt64("rows", &rows, "");
  parser.AddInt64("k", &k, "");
  const char* argv[] = {"prog", "--rows", "--k=4"};
  const Status status = parser.Parse(3, const_cast<char**>(argv));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("missing value for --rows"),
            std::string::npos);
  EXPECT_NE(status.message().find("--k=4"), std::string::npos);
  EXPECT_EQ(rows, 7);
  EXPECT_EQ(k, 3);

  // Dash-prefixed values that are not flag-shaped still parse
  // space-separated (negative numbers), and --name=VALUE passes
  // anything, including values beginning with --.
  const char* negative[] = {"prog", "--rows", "-5"};
  ASSERT_TRUE(parser.Parse(3, const_cast<char**>(negative)).ok());
  EXPECT_EQ(rows, -5);
  std::string label;
  parser.AddString("label", &label, "");
  const char* dashed[] = {"prog", "--label=--weird"};
  ASSERT_TRUE(parser.Parse(2, const_cast<char**>(dashed)).ok());
  EXPECT_EQ(label, "--weird");
}

TEST(FlagsTest, EmptyEqualsValueOnBoolMeansTrue) {
  // Locked-in behavior: an explicit empty value on a bool (`--verbose=`)
  // enables it, matching bare `--verbose`. On non-bool flags an empty
  // value is a parse error for numbers but a legal empty string.
  bool verbose = false;
  int64_t k = 3;
  std::string name = "x";
  FlagParser parser;
  parser.AddBool("verbose", &verbose, "");
  parser.AddInt64("k", &k, "");
  parser.AddString("name", &name, "");
  const char* bool_empty[] = {"prog", "--verbose="};
  ASSERT_TRUE(parser.Parse(2, const_cast<char**>(bool_empty)).ok());
  EXPECT_TRUE(verbose);
  const char* int_empty[] = {"prog", "--k="};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(int_empty)).ok());
  EXPECT_EQ(k, 3);
  const char* string_empty[] = {"prog", "--name="};
  ASSERT_TRUE(parser.Parse(2, const_cast<char**>(string_empty)).ok());
  EXPECT_EQ(name, "");
}

}  // namespace
}  // namespace cksafe
