// Regression tests for the shared bench flag parser and JSON writer
// (bench/bench_flags.h): every accepted form parses, and — the regression
// that motivated the file — EVERY parse-failure path dies printing the one
// full usage string, which must list the complete flag set including --k and
// --weights-seed. The writer's layout, "bench"/"host" order and failure path
// are pinned below.

#include "../bench/bench_flags.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace planorder::bench {
namespace {

BenchFlags Parse(std::vector<std::string> args) {
  std::vector<std::string> storage;
  storage.push_back("bench_under_test");
  for (std::string& arg : args) storage.push_back(std::move(arg));
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (std::string& arg : storage) argv.push_back(arg.data());
  return ParseBenchFlags(static_cast<int>(argv.size()), argv.data(),
                         "default.json", {1, 2}, 3, {10});
}

/// Writes `fields` through WriteBenchJson into the test's temp directory and
/// returns the file's text.
std::string WriteAndRead(
    BenchFlags flags,
    std::initializer_list<std::pair<std::string, Json>> fields) {
  flags.output = testing::TempDir() + "bench_flags_test_out.json";
  WriteBenchJson(flags, "unit", fields);
  std::ifstream in(flags.output);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(BenchFlagsTest, DefaultsSurviveAnEmptyCommandLine) {
  const BenchFlags flags = Parse({});
  EXPECT_EQ(flags.output, "default.json");
  EXPECT_EQ(flags.threads, (std::vector<int>{1, 2}));
  EXPECT_EQ(flags.repeats, 3);
  EXPECT_EQ(flags.ks, (std::vector<int>{10}));
  EXPECT_EQ(flags.weights_seed, 1u);
}

TEST(BenchFlagsTest, EveryAcceptedFormParses) {
  const BenchFlags flags =
      Parse({"out.json", "--threads=1,2,8", "--repeats=5", "--k=1,10,100",
             "--weights-seed=42"});
  EXPECT_EQ(flags.output, "out.json");
  EXPECT_EQ(flags.threads, (std::vector<int>{1, 2, 8}));
  EXPECT_EQ(flags.repeats, 5);
  EXPECT_EQ(flags.ks, (std::vector<int>{1, 10, 100}));
  EXPECT_EQ(flags.weights_seed, 42u);
}

TEST(BenchFlagsTest, UsageStringListsTheFullFlagSet) {
  const std::string usage = BenchUsage("b");
  EXPECT_NE(usage.find("--threads="), std::string::npos);
  EXPECT_NE(usage.find("--repeats="), std::string::npos);
  EXPECT_NE(usage.find("--k="), std::string::npos);
  EXPECT_NE(usage.find("--weights-seed="), std::string::npos);
}

TEST(BenchFlagsTest, DegradedParallelismFlagsOversubscription) {
  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware == 0) GTEST_SKIP() << "hardware_concurrency unknown here";

  // At or below the hardware thread count: honest parallelism.
  BenchFlags sane;
  sane.threads = {1, int(hardware)};
  EXPECT_FALSE(DegradedParallelism(sane));
  EXPECT_NE(WriteAndRead(sane, {})
                .find("\"degraded_parallelism\": false"),
            std::string::npos);

  // One past it: the sweep oversubscribes, and the artifact must say so —
  // the JSON outlives the stderr warning.
  BenchFlags oversubscribed;
  oversubscribed.threads = {1, int(hardware) + 1};
  EXPECT_TRUE(DegradedParallelism(oversubscribed));
  EXPECT_NE(WriteAndRead(oversubscribed, {})
                .find("\"degraded_parallelism\": true"),
            std::string::npos);

  // No thread sweep at all: nothing to oversubscribe.
  BenchFlags empty;
  EXPECT_FALSE(DegradedParallelism(empty));
}

TEST(BenchFlagsTest, OversubscribedParseWarnsOnStderr) {
  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware == 0) GTEST_SKIP() << "hardware_concurrency unknown here";
  testing::internal::CaptureStderr();
  const BenchFlags flags =
      Parse({"--threads=" + std::to_string(hardware + 4)});
  const std::string stderr_text = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(DegradedParallelism(flags));
  EXPECT_NE(stderr_text.find("degraded_parallelism"), std::string::npos)
      << "no oversubscription warning reached stderr: " << stderr_text;

  testing::internal::CaptureStderr();
  Parse({"--threads=1"});
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(BenchJsonTest, LayoutAndNumberFormatting) {
  struct Case {
    const char* what;
    Json value;
    const char* expected;  // the value's text as a member of the document
  };
  const std::vector<Case> cases = {
      {"int", 42, "42"},
      {"int64", int64_t{13017893}, "13017893"},
      {"size_t", size_t{4096}, "4096"},
      {"uint64", uint64_t{18446744073709551615u}, "18446744073709551615"},
      // Doubles print as `std::ostream <<` does: six significant digits,
      // no trailing zeros, exponent form for small magnitudes.
      {"double", 3178.2, "3178.2"},
      {"double rounded", 1058.7712, "1058.77"},
      {"double whole", 539901.0, "539901"},
      {"double large", 13017893.0, "1.30179e+07"},
      {"double small", 1e-7, "1e-07"},
      {"bool", false, "false"},
      {"string", "sum", "\"sum\""},
      {"escaped string", std::string("a\"b\\c\n"),
       "\"a\\\"b\\\\c\\u000a\""},
      {"nested object",
       Json::Object({{"seed", 21},
                     {"inner", Json::Object({{"ok", true}})},
                     {"k", Json::Array(std::vector<int>{1, 10, 100})}}),
       "{\"seed\": 21, \"inner\": {\"ok\": true}, \"k\": [1, 10, 100]}"},
      {"array of objects",
       Json::Array().Push(Json::Object({{"k", 1}})).Push(
           Json::Object({{"k", 10}, {"ms", 0.5}})),
       "[\n    {\"k\": 1},\n    {\"k\": 10, \"ms\": 0.5}\n  ]"},
      {"empty array", Json::Array(), "[]"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Json::Object({{"v", c.value}}).Dump(),
              std::string("{\n  \"v\": ") + c.expected + "\n}\n")
        << c.what;
  }
}

TEST(BenchJsonTest, BenchAndHostComeFirst) {
  BenchFlags flags;
  flags.repeats = 3;
  flags.ks = {1, 10};
  const std::string text =
      WriteAndRead(flags, {{"host_like", 1}, {"bench_like", 2}});
  const std::string head =
      "{\n  \"bench\": \"unit\",\n  \"host\": {\"hardware_threads\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"repeats\": 3, \"threads\": [], \"k\": [1, 10], "
      "\"weights_seed\": 1, \"degraded_parallelism\": false},\n";
  EXPECT_EQ(text, head + "  \"host_like\": 1,\n  \"bench_like\": 2\n}\n");
}

TEST(BenchJsonDeathTest, UnwritablePathDiesNamingIt) {
  BenchFlags flags;
  flags.output = testing::TempDir() + "no_such_dir/out.json";
  EXPECT_DEATH(WriteBenchJson(flags, "unit", {}),
               "cannot write .*no_such_dir/out.json");
}

// The regex asserted on every death: the full usage line (with the PR-6
// flags) must reach stderr no matter which path failed.
constexpr const char* kUsagePattern =
    "usage: .*--threads=.*--repeats=.*--k=.*--weights-seed=";

TEST(BenchFlagsDeathTest, UnknownFlagDiesWithUsage) {
  EXPECT_DEATH(Parse({"--bogus=1"}), kUsagePattern);
}

TEST(BenchFlagsDeathTest, SecondPositionalArgumentDiesWithUsage) {
  EXPECT_DEATH(Parse({"a.json", "b.json"}), kUsagePattern);
}

TEST(BenchFlagsDeathTest, NonNumericListEntryDiesWithUsage) {
  EXPECT_DEATH(Parse({"--threads=abc"}), kUsagePattern);
}

TEST(BenchFlagsDeathTest, EmptyListEntryDiesWithUsage) {
  EXPECT_DEATH(Parse({"--threads=1,,2"}), kUsagePattern);
}

TEST(BenchFlagsDeathTest, EmptyListDiesWithUsage) {
  EXPECT_DEATH(Parse({"--k="}), kUsagePattern);
}

TEST(BenchFlagsDeathTest, ZeroValueDiesWithUsage) {
  EXPECT_DEATH(Parse({"--threads=0"}), kUsagePattern);
}

TEST(BenchFlagsDeathTest, NonNumericRepeatsDiesWithUsage) {
  EXPECT_DEATH(Parse({"--repeats=x"}), kUsagePattern);
}

TEST(BenchFlagsDeathTest, ZeroRepeatsDiesWithUsage) {
  EXPECT_DEATH(Parse({"--repeats=0"}), kUsagePattern);
}

TEST(BenchFlagsDeathTest, OverflowingValueDiesWithUsage) {
  EXPECT_DEATH(Parse({"--repeats=99999999999"}), kUsagePattern);
}

TEST(BenchFlagsDeathTest, NonNumericSeedDiesWithUsage) {
  EXPECT_DEATH(Parse({"--weights-seed=deadbeef"}), kUsagePattern);
}

}  // namespace
}  // namespace planorder::bench
