#include "adaptive/plan_store.h"

#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace planorder::adaptive {
namespace {

/// Unique per-test path in the ctest working directory; removed on teardown.
class StoreFile {
 public:
  explicit StoreFile(const std::string& name)
      : path_("plan_store_test_" + name + ".planstore") {
    std::remove(path_.c_str());
  }
  ~StoreFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

StoreContents MakeContents() {
  StoreContents contents;
  contents.num_sources = 6;

  StoredReformulation entry;
  entry.canonical_text = "q(X0,X1) :- p0(X0), p1(X0,X1).";
  entry.buckets = {{0, 2, 4}, {1, 5}};
  stats::SourceStats s0;
  s0.cardinality = 123.456789;
  s0.transmission_cost = 0.1 + 0.2;  // deliberately not exactly 0.3
  s0.failure_prob = 1.0 / 3.0;
  s0.fee = 1e-7;
  s0.regions.bits = 0xdeadbeefULL;
  stats::SourceStats s1;
  s1.cardinality = 1e12;
  s1.transmission_cost = 5e-324;  // denormal min: hexfloat must survive it
  s1.failure_prob = 0.95;
  s1.fee = 2.5;
  s1.regions.bits = 0x1;
  entry.stat_buckets = {{s0, s1, s0}, {s1, s0}};
  entry.region_weights = {{0.25, 1.0 / 7.0}, {3.14159265358979}};
  entry.domain_sizes = {100.5, 7.0};
  entry.access_overhead = 5.0;
  contents.entries.push_back(entry);

  StoredReformulation second = entry;
  second.canonical_text = "q(X0) :- p0(X0).";
  second.buckets = {{3}};
  second.stat_buckets = {{s1}};
  second.region_weights = {{0.5}};
  second.domain_sizes = {42.0};
  contents.entries.push_back(second);

  SourceEstimate estimate;
  estimate.windows = 9;
  estimate.card_windows = 7;
  estimate.calls = 31;
  estimate.cardinality = 17.000000000000004;
  estimate.latency_ms = 2.75;
  estimate.failure_prob = 0.125;
  contents.observed.emplace_back("src_a", estimate);
  estimate.windows = 1;
  estimate.cardinality = 0.001;
  contents.observed.emplace_back("src_b", estimate);
  return contents;
}

void ExpectSameContents(const StoreContents& got, const StoreContents& want) {
  EXPECT_EQ(got.num_sources, want.num_sources);
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (size_t e = 0; e < want.entries.size(); ++e) {
    const StoredReformulation& a = got.entries[e];
    const StoredReformulation& b = want.entries[e];
    EXPECT_EQ(a.canonical_text, b.canonical_text);
    EXPECT_EQ(a.buckets, b.buckets);
    ASSERT_EQ(a.stat_buckets.size(), b.stat_buckets.size());
    for (size_t i = 0; i < b.stat_buckets.size(); ++i) {
      ASSERT_EQ(a.stat_buckets[i].size(), b.stat_buckets[i].size());
      for (size_t j = 0; j < b.stat_buckets[i].size(); ++j) {
        // Bit-exact round trip: the whole point of the hexfloat format.
        EXPECT_EQ(a.stat_buckets[i][j].cardinality,
                  b.stat_buckets[i][j].cardinality);
        EXPECT_EQ(a.stat_buckets[i][j].transmission_cost,
                  b.stat_buckets[i][j].transmission_cost);
        EXPECT_EQ(a.stat_buckets[i][j].failure_prob,
                  b.stat_buckets[i][j].failure_prob);
        EXPECT_EQ(a.stat_buckets[i][j].fee, b.stat_buckets[i][j].fee);
        EXPECT_EQ(a.stat_buckets[i][j].regions.bits,
                  b.stat_buckets[i][j].regions.bits);
      }
    }
    EXPECT_EQ(a.region_weights, b.region_weights);
    EXPECT_EQ(a.domain_sizes, b.domain_sizes);
    EXPECT_EQ(a.access_overhead, b.access_overhead);
  }
  ASSERT_EQ(got.observed.size(), want.observed.size());
  for (size_t i = 0; i < want.observed.size(); ++i) {
    EXPECT_EQ(got.observed[i].first, want.observed[i].first);
    EXPECT_EQ(got.observed[i].second.windows, want.observed[i].second.windows);
    EXPECT_EQ(got.observed[i].second.card_windows,
              want.observed[i].second.card_windows);
    EXPECT_EQ(got.observed[i].second.calls, want.observed[i].second.calls);
    EXPECT_EQ(got.observed[i].second.cardinality,
              want.observed[i].second.cardinality);
    EXPECT_EQ(got.observed[i].second.latency_ms,
              want.observed[i].second.latency_ms);
    EXPECT_EQ(got.observed[i].second.failure_prob,
              want.observed[i].second.failure_prob);
  }
}

TEST(PlanStoreTest, SaveLoadRoundTripsBitExactly) {
  StoreFile file("roundtrip");
  PlanStore store(file.path());
  const StoreContents contents = MakeContents();
  ASSERT_TRUE(store.Save(contents).ok());

  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameContents(*loaded, contents);

  // Saving what was loaded reproduces the identical file: a fixpoint, which
  // is what "bit-exact round trip" means end to end.
  StoreFile copy("roundtrip_copy");
  PlanStore second(copy.path());
  ASSERT_TRUE(second.Save(*loaded).ok());
  std::ifstream a(file.path()), b(copy.path());
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(PlanStoreTest, HexDoubleMatchesPrintfA) {
  std::vector<double> values = {
      0.0,      -0.0,    4.9e-324, -4.9e-324, 1e-310,  -1e-310,
      DBL_MIN,  DBL_MAX, -DBL_MAX, 1.0,       -2.5,    0.1,
      1.0 / 3,  1e300,   5.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  // Random bit patterns: every exponent, subnormals and NaN payloads alike.
  std::mt19937_64 bits(20240521);
  for (int i = 0; i < 7680; ++i) values.push_back(std::bit_cast<double>(bits()));
  for (const double v : values) {
    char want[64];
    std::snprintf(want, sizeof(want), "%a", v);
    std::string got;
    AppendHexDouble(got, v);
    ASSERT_EQ(got, want) << "bits " << std::bit_cast<uint64_t>(v);
  }
}

TEST(PlanStoreTest, SaveWritesThePinnedBytes) {
  // The exact file a printf-formatted Save wrote for MakeContents(); any
  // format drift breaks every store on disk.
  const std::string expected = R"(planorder-planstore v1
sources 6
observed 2
o src_a 9 7 31 0x1.1000000000001p+4 0x1.6p+1 0x1p-3
o src_b 1 7 31 0x1.0624dd2f1a9fcp-10 0x1.6p+1 0x1p-3
entries 2
entry q(X0,X1) :- p0(X0), p1(X0,X1).
buckets 2
b 3 0 2 4
b 2 1 5
s 3 0x1.edd3c07ee0b0bp+6 0x1.3333333333334p-2 0x1.5555555555555p-2 0x1.ad7f29abcaf48p-24 deadbeef 0x1.d1a94a2p+39 0x0.0000000000001p-1022 0x1.e666666666666p-1 0x1.4p+1 1 0x1.edd3c07ee0b0bp+6 0x1.3333333333334p-2 0x1.5555555555555p-2 0x1.ad7f29abcaf48p-24 deadbeef
s 2 0x1.d1a94a2p+39 0x0.0000000000001p-1022 0x1.e666666666666p-1 0x1.4p+1 1 0x1.edd3c07ee0b0bp+6 0x1.3333333333334p-2 0x1.5555555555555p-2 0x1.ad7f29abcaf48p-24 deadbeef
w 2 0x1p-2 0x1.2492492492492p-3
w 1 0x1.921fb54442d11p+1
domain 0x1.92p+6 0x1.cp+2
overhead 0x1.4p+2
end
entry q(X0) :- p0(X0).
buckets 1
b 1 3
s 1 0x1.d1a94a2p+39 0x0.0000000000001p-1022 0x1.e666666666666p-1 0x1.4p+1 1
w 1 0x1p-1
domain 0x1.5p+5
overhead 0x1.4p+2
end
checksum b9abc3833b4e9304
)";
  StoreFile file("pinned");
  ASSERT_TRUE(PlanStore(file.path()).Save(MakeContents()).ok());
  std::ifstream in(file.path(), std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), expected);
}

TEST(PlanStoreTest, MissingFileIsNotFoundNotCorruption) {
  PlanStore store("plan_store_test_never_written.planstore");
  auto loaded = store.Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(PlanStoreTest, TruncationIsDetected) {
  StoreFile file("truncate");
  PlanStore store(file.path());
  ASSERT_TRUE(store.Save(MakeContents()).ok());

  std::ifstream in(file.path());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string full = buffer.str();
  in.close();

  // Every cut that loses payload or checksum digits must be rejected. (A cut
  // of exactly the trailing newline is the one prefix that still parses: the
  // checksum line itself is complete, so the store is intact.)
  for (size_t keep : {size_t(0), size_t(10), full.size() / 2,
                      full.size() - 2}) {
    std::ofstream out(file.path(), std::ios::trunc);
    out << full.substr(0, keep);
    out.close();
    auto loaded = store.Load();
    ASSERT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes parsed";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PlanStoreTest, BitFlipFailsTheChecksum) {
  StoreFile file("corrupt");
  PlanStore store(file.path());
  ASSERT_TRUE(store.Save(MakeContents()).ok());

  std::ifstream in(file.path());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string data = buffer.str();
  in.close();
  // Flip one payload byte (inside the first entry's numbers, well before the
  // checksum line).
  data[data.size() / 2] ^= 0x4;
  std::ofstream out(file.path(), std::ios::trunc);
  out << data;
  out.close();

  auto loaded = store.Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanStoreTest, VersionMismatchIsRejected) {
  StoreFile file("version");
  std::ofstream out(file.path());
  out << "planorder-planstore v999\nsources 0\nobserved 0\nentries 0\n";
  out.close();
  PlanStore store(file.path());
  auto loaded = store.Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanStoreTest, SaveRejectsUnserializableNames) {
  StoreFile file("badnames");
  PlanStore store(file.path());
  StoreContents contents = MakeContents();
  contents.observed[0].first = "has space";
  EXPECT_FALSE(store.Save(contents).ok());

  contents = MakeContents();
  contents.entries[0].canonical_text = "line one\nline two";
  EXPECT_FALSE(store.Save(contents).ok());
}

TEST(PlanStoreTest, EmptyStoreRoundTrips) {
  StoreFile file("empty");
  PlanStore store(file.path());
  StoreContents contents;
  contents.num_sources = 0;
  ASSERT_TRUE(store.Save(contents).ok());
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->entries.size(), 0u);
  EXPECT_EQ(loaded->observed.size(), 0u);
}

}  // namespace
}  // namespace planorder::adaptive
