// Unit tests for the util substrate: rng, stats, csv, table, cli, kvform.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/csv.h"
#include "util/kvform.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/types.h"

namespace mcdc {
namespace {

TEST(Types, AlmostEqual) {
  EXPECT_TRUE(almost_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(almost_equal(1.0, 1.0001));
  EXPECT_TRUE(almost_equal(kInfiniteCost, kInfiniteCost));
  EXPECT_FALSE(almost_equal(kInfiniteCost, 1.0));
  EXPECT_TRUE(definitely_less(1.0, 2.0));
  EXPECT_FALSE(definitely_less(2.0, 1.0));
  EXPECT_FALSE(definitely_less(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(less_or_equal(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(less_or_equal(1.0 + 1e-12, 1.0));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_int(std::uint64_t{10}), 10u);
    const auto v = rng.uniform_int(std::int64_t{-3}, std::int64_t{3});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  EXPECT_THROW(rng.uniform_int(std::uint64_t{0}), std::invalid_argument);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, BernoulliRate) {
  Rng rng(17);
  int c = 0;
  for (int i = 0; i < 10000; ++i) c += rng.bernoulli(0.3);
  EXPECT_NEAR(c / 10000.0, 0.3, 0.03);
}

TEST(Rng, WeightedIndex) {
  Rng rng(19);
  std::vector<double> w{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 10000.0, 0.75, 0.03);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({-1.0, 2.0}), std::invalid_argument);
}

TEST(Rng, ForkIndependence) {
  Rng a(23);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 4);
}

TEST(Zipf, SkewOrdering) {
  Rng rng(29);
  ZipfSampler z(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[z.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[99] * 5);
}

TEST(Zipf, AlphaZeroIsUniform) {
  Rng rng(31);
  ZipfSampler z(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[z.sample(rng)];
  for (int c : counts) EXPECT_NEAR(c / 50000.0, 0.1, 0.02);
}

TEST(Stats, RunningBasics) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Stats, Merge) {
  RunningStats a, b, all;
  Rng rng(37);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal();
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile(v, 101), std::invalid_argument);
}

TEST(Stats, Summarize) {
  const Summary s = summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.mean, 5.5);
  EXPECT_DOUBLE_EQ(s.p50, 5.5);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(Stats, LogLogSlope) {
  // y = 3 x^2 exactly.
  std::vector<double> x{1, 2, 4, 8, 16};
  std::vector<double> y;
  for (double v : x) y.push_back(3 * v * v);
  EXPECT_NEAR(loglog_slope(x, y), 2.0, 1e-9);
  EXPECT_THROW(loglog_slope({1}, {1}), std::invalid_argument);
}

TEST(Csv, RoundTrip) {
  std::vector<std::vector<std::string>> rows{
      {"a", "b,c", "d\"e"}, {"1", "2", "3"}};
  std::ostringstream out;
  csv_write(out, rows);
  std::istringstream in(out.str());
  EXPECT_EQ(csv_read(in), rows);
}

TEST(Csv, SplitQuoted) {
  const auto f = csv_split_line("x,\"a,b\",\"he said \"\"hi\"\"\"");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[1], "a,b");
  EXPECT_EQ(f[2], "he said \"hi\"");
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"x", Table::num(1.23456, 2)});
  t.add_row({"longer-name", Table::integer(42)});
  const std::string out = t.render();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_EQ(Table::num(kInfiniteCost), "inf");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  ArgParser p;
  p.add_flag("n", "count", "10");
  p.add_flag("name", "a name");
  p.add_bool_flag("verbose", "talk more");
  const char* argv[] = {"prog", "--n=25", "--verbose", "pos1", "--name", "abc"};
  const auto pos = p.parse(6, argv);
  EXPECT_EQ(p.get_int("n"), 25);
  EXPECT_TRUE(p.get_bool("verbose"));
  EXPECT_EQ(p.get("name"), "abc");
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(pos[0], "pos1");
  EXPECT_FALSE(p.usage("prog").empty());
}

TEST(Cli, Errors) {
  ArgParser p;
  p.add_flag("n", "count", "10");
  const char* bad[] = {"prog", "--unknown=1"};
  EXPECT_THROW(p.parse(2, bad), std::invalid_argument);
  const char* dangling[] = {"prog", "--n"};
  EXPECT_THROW(p.parse(2, dangling), std::invalid_argument);
  const char* ok[] = {"prog", "--n=xyz"};
  p.parse(2, ok);
  EXPECT_THROW(p.get_int("n"), std::invalid_argument);
}

void expect_kv_error(const std::function<void()>& f,
                     const std::string& needle_a,
                     const std::string& needle_b) {
  try {
    f();
    FAIL() << "no exception";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle_a), std::string::npos) << what;
    EXPECT_NE(what.find(needle_b), std::string::npos) << what;
  }
}

TEST(Kvform, U64RoundTripsAndRejectsPartialParses) {
  Rng rng(404);
  for (int it = 0; it < 200; ++it) {
    const std::uint64_t v = rng.uniform_int(~std::uint64_t{0});
    EXPECT_EQ(kvform::parse_u64("Ctx", "k", std::to_string(v), "a count"), v);
  }
  for (const char* bad : {"", "4x", "x4", "-1", "1.5", " 7", "7 "}) {
    expect_kv_error(
        [&] { kvform::parse_u64("Ctx", "k", bad, "a count"); }, bad, "a count");
  }
}

TEST(Kvform, F64ShortestFormRoundTripsBitForBit) {
  Rng rng(405);
  std::vector<double> values = {0.0, 1.0, -1.0, 0.1, 1e-300, 1e300,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::epsilon()};
  for (int it = 0; it < 500; ++it) {
    // Mix magnitudes: uniform mantissas across a wide exponent sweep.
    const double mag = std::pow(10.0, rng.uniform(-30.0, 30.0));
    values.push_back(rng.uniform(-1.0, 1.0) * mag);
  }
  for (const double v : values) {
    const std::string text = kvform::fmt_double(v);
    const double back = kvform::parse_f64("Ctx", "k", text, "a number");
    // Bit-exact round-trip is the contract every config surface leans on
    // (parse(to_string()) == identity for ScenarioConfig and the cost spec).
    EXPECT_EQ(back, v) << text;
  }
  for (const char* bad : {"", "1.5x", "nanx", "--3", "1e", "0x10"}) {
    expect_kv_error(
        [&] { kvform::parse_f64("Ctx", "k", bad, "a number"); }, bad,
        "a number");
  }
}

TEST(Kvform, OnOffIsStrict) {
  EXPECT_TRUE(kvform::parse_on_off("Ctx", "k", "on"));
  EXPECT_FALSE(kvform::parse_on_off("Ctx", "k", "off"));
  expect_kv_error([] { kvform::parse_on_off("Ctx", "k", "True"); }, "True",
                  "on|off");
}

TEST(Kvform, SplitKeepsEmptyFields) {
  using V = std::vector<std::string>;
  EXPECT_EQ(kvform::split("a|b|c", '|'), (V{"a", "b", "c"}));
  EXPECT_EQ(kvform::split("a||b", '|'), (V{"a", "", "b"}));
  EXPECT_EQ(kvform::split("", '|'), (V{""}));
  EXPECT_EQ(kvform::split("|", '|'), (V{"", ""}));
}

TEST(Kvform, ForEachKvVisitsTokensAndSkipsEmpties) {
  std::vector<std::pair<std::string, std::string>> seen;
  kvform::for_each_kv("Ctx", ",a=1,,b=,c=x=y,", ',', "a|b|c",
                      [&](const std::string& k, const std::string& v) {
                        seen.push_back({k, v});
                        return true;
                      });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(seen[1], (std::pair<std::string, std::string>{"b", ""}));
  // Only the FIRST '=' splits: values may carry '=' (nested specs).
  EXPECT_EQ(seen[2], (std::pair<std::string, std::string>{"c", "x=y"}));
}

TEST(Kvform, ErrorShapesNameContextTokenAndChoices) {
  // The three uniform shapes every config surface shares. Exact strings:
  // EngineConfig/ScenarioConfig tests grep for needles, this pins the form.
  try {
    kvform::bad_value("Ctx", "k", "blok", "block|drop");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "Ctx: unknown value \"blok\" for key \"k\" "
                 "(expected block|drop)");
  }
  try {
    kvform::for_each_kv("Ctx", "bare", ',', "a|b",
                        [](const std::string&, const std::string&) {
                          return true;
                        });
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "Ctx: malformed token \"bare\" "
                 "(expected key=value with key in a|b)");
  }
  try {
    kvform::for_each_kv("Ctx", "z=1", ',', "a|b",
                        [](const std::string&, const std::string&) {
                          return false;
                        });
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "Ctx: unknown key \"z\" (expected a|b)");
  }
}

}  // namespace
}  // namespace mcdc
