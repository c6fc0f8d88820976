#include "stats/workload.h"

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace planorder::stats {
namespace {

WorkloadOptions SmallOptions() {
  WorkloadOptions options;
  options.query_length = 3;
  options.bucket_size = 8;
  options.overlap_rate = 0.3;
  options.regions_per_bucket = 16;
  options.seed = 17;
  return options;
}

TEST(WorkloadGenerateTest, ShapeMatchesOptions) {
  auto w = Workload::Generate(SmallOptions());
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(w->num_buckets(), 3);
  for (int b = 0; b < 3; ++b) {
    EXPECT_EQ(w->bucket_size(b), 8);
    EXPECT_EQ(w->region_weights()[b].size(), 16u);
    EXPECT_GT(w->domain_size(b), 0.0);
  }
}

TEST(WorkloadGenerateTest, StatsWithinConfiguredRanges) {
  WorkloadOptions options = SmallOptions();
  options.alpha_min = 0.2;
  options.alpha_max = 0.4;
  options.failure_min = 0.1;
  options.failure_max = 0.3;
  options.fee_min = 1.0;
  options.fee_max = 2.0;
  auto w = Workload::Generate(options);
  ASSERT_TRUE(w.ok());
  for (int b = 0; b < w->num_buckets(); ++b) {
    for (int i = 0; i < w->bucket_size(b); ++i) {
      const SourceStats& s = w->source(b, i);
      EXPECT_GE(s.transmission_cost, 0.2);
      EXPECT_LE(s.transmission_cost, 0.4);
      EXPECT_GE(s.failure_prob, 0.1);
      EXPECT_LE(s.failure_prob, 0.3);
      EXPECT_GE(s.fee, 1.0);
      EXPECT_LE(s.fee, 2.0);
      EXPECT_GE(s.cardinality, 1.0);
      EXPECT_FALSE(s.regions.empty());
      EXPECT_LE(s.regions.count(), 16);
    }
  }
}

TEST(WorkloadGenerateTest, RegionWeightsNormalized) {
  auto w = Workload::Generate(SmallOptions());
  ASSERT_TRUE(w.ok());
  for (const auto& weights : w->region_weights()) {
    double total = 0;
    for (double x : weights) total += x;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(WorkloadGenerateTest, Deterministic) {
  auto a = Workload::Generate(SmallOptions());
  auto b = Workload::Generate(SmallOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  for (int bk = 0; bk < a->num_buckets(); ++bk) {
    for (int i = 0; i < a->bucket_size(bk); ++i) {
      EXPECT_EQ(a->source(bk, i).regions.bits, b->source(bk, i).regions.bits);
      EXPECT_EQ(a->source(bk, i).cardinality, b->source(bk, i).cardinality);
    }
  }
  WorkloadOptions other = SmallOptions();
  other.seed = 18;
  auto c = Workload::Generate(other);
  ASSERT_TRUE(c.ok());
  bool any_difference = false;
  for (int bk = 0; bk < a->num_buckets() && !any_difference; ++bk) {
    for (int i = 0; i < a->bucket_size(bk); ++i) {
      if (a->source(bk, i).regions.bits != c->source(bk, i).regions.bits) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(WorkloadGenerateTest, OverlapRateRoughlyHonored) {
  // Empirical pairwise overlap frequency should land near the target.
  WorkloadOptions options = SmallOptions();
  options.bucket_size = 40;
  options.overlap_rate = 0.3;
  options.regions_per_bucket = 32;
  auto w = Workload::Generate(options);
  ASSERT_TRUE(w.ok());
  int overlapping = 0;
  int pairs = 0;
  for (int b = 0; b < w->num_buckets(); ++b) {
    for (int i = 0; i < w->bucket_size(b); ++i) {
      for (int j = i + 1; j < w->bucket_size(b); ++j) {
        ++pairs;
        if (w->source(b, i).regions.Intersects(w->source(b, j).regions)) {
          ++overlapping;
        }
      }
    }
  }
  const double rate = double(overlapping) / pairs;
  EXPECT_GT(rate, 0.15);
  EXPECT_LT(rate, 0.5);
}

TEST(WorkloadGenerateTest, SixtyFourRegionsSupported) {
  WorkloadOptions options = SmallOptions();
  options.regions_per_bucket = 64;
  auto w = Workload::Generate(options);
  ASSERT_TRUE(w.ok()) << w.status();
  for (int b = 0; b < w->num_buckets(); ++b) {
    EXPECT_EQ(w->region_weights()[b].size(), 64u);
    for (int i = 0; i < w->bucket_size(b); ++i) {
      EXPECT_FALSE(w->source(b, i).regions.empty());
    }
  }
  // The universe built from it evaluates cleanly.
  stats::CoverageUniverse universe = w->MakeUniverse();
  std::vector<RegionMask> box;
  for (int b = 0; b < w->num_buckets(); ++b) {
    box.push_back(w->source(b, 0).regions);
  }
  EXPECT_GE(universe.UncoveredBoxVolume(box), 0.0);
}

TEST(WorkloadGenerateTest, RejectsBadOptions) {
  WorkloadOptions options = SmallOptions();
  options.query_length = 0;
  EXPECT_FALSE(Workload::Generate(options).ok());
  options = SmallOptions();
  options.bucket_size = 0;
  EXPECT_FALSE(Workload::Generate(options).ok());
  options = SmallOptions();
  options.regions_per_bucket = 65;
  EXPECT_FALSE(Workload::Generate(options).ok());
  options = SmallOptions();
  options.overlap_rate = 1.5;
  EXPECT_FALSE(Workload::Generate(options).ok());
  options = SmallOptions();
  options.failure_max = 1.0;
  EXPECT_FALSE(Workload::Generate(options).ok());
}

TEST(WorkloadFromPartsTest, ValidatesMasksAndAlignment) {
  std::vector<std::vector<SourceStats>> buckets(1);
  SourceStats s;
  s.regions.bits = 0b100;  // region 2, but only 2 regions declared
  buckets[0].push_back(s);
  EXPECT_FALSE(
      Workload::FromParts(buckets, {{0.5, 0.5}}, 1.0, {10.0}).ok());
  // Aligned version works.
  buckets[0][0].regions.bits = 0b10;
  auto w = Workload::FromParts(buckets, {{0.5, 0.5}}, 1.0, {10.0});
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(w->num_buckets(), 1);
}

TEST(WorkloadFromPartsTest, RejectsEmptyAndMisaligned) {
  EXPECT_FALSE(Workload::FromParts({}, {}, 1.0, {}).ok());
  std::vector<std::vector<SourceStats>> buckets(1);
  buckets[0].push_back(SourceStats{});
  EXPECT_FALSE(Workload::FromParts(buckets, {}, 1.0, {1.0}).ok());
  EXPECT_FALSE(Workload::FromParts(buckets, {{1.0}}, 1.0, {}).ok());
  std::vector<std::vector<SourceStats>> with_empty(2);
  with_empty[0].push_back(SourceStats{});
  EXPECT_FALSE(
      Workload::FromParts(with_empty, {{1.0}, {1.0}}, 1.0, {1.0, 1.0}).ok());
}

TEST(WorkloadFromPartsTest, SummariesArePointIntervals) {
  std::vector<std::vector<SourceStats>> buckets(1);
  SourceStats s;
  s.cardinality = 7.0;
  s.transmission_cost = 0.5;
  s.failure_prob = 0.25;
  s.fee = 1.5;
  s.regions.bits = 0b1;
  buckets[0].push_back(s);
  auto w = Workload::FromParts(buckets, {{1.0}}, 2.0, {10.0});
  ASSERT_TRUE(w.ok());
  const StatSummary& summary = w->summary(0, 0);
  EXPECT_TRUE(summary.cardinality.is_point());
  EXPECT_EQ(summary.cardinality.lo(), 7.0);
  EXPECT_EQ(summary.mask_union.bits, summary.mask_intersection.bits);
  EXPECT_EQ(summary.members, std::vector<int>{0});
}

TEST(WorkloadFromPartsTest, RejectsNonFiniteAndNegativeStatistics) {
  // One row per field x {nan, inf, negative}; FromParts must return
  // kInvalidArgument for every row (NaN passes plain range checks).
  struct Parts {
    std::vector<std::vector<SourceStats>> buckets;
    std::vector<std::vector<double>> region_weights;
    double access_overhead;
    std::vector<double> domain_sizes;
  };
  const auto valid = [] {
    SourceStats s;
    s.cardinality = 7.0;
    s.transmission_cost = 0.5;
    s.failure_prob = 0.25;
    s.fee = 1.5;
    s.regions.bits = 0b1;
    return Parts{{{s}}, {{1.0}}, 2.0, {10.0}};
  };
  const std::vector<std::pair<std::string, void (*)(Parts&, double)>> fields =
      {{"cardinality",
        [](Parts& p, double v) { p.buckets[0][0].cardinality = v; }},
       {"transmission_cost",
        [](Parts& p, double v) { p.buckets[0][0].transmission_cost = v; }},
       {"failure_prob",
        [](Parts& p, double v) { p.buckets[0][0].failure_prob = v; }},
       {"fee", [](Parts& p, double v) { p.buckets[0][0].fee = v; }},
       {"region_weight", [](Parts& p, double v) { p.region_weights[0][0] = v; }},
       {"access_overhead", [](Parts& p, double v) { p.access_overhead = v; }},
       {"domain_size", [](Parts& p, double v) { p.domain_sizes[0] = v; }}};
  const std::vector<std::pair<std::string, double>> values = {
      {"nan", std::numeric_limits<double>::quiet_NaN()},
      {"inf", std::numeric_limits<double>::infinity()},
      {"negative", -1.0}};
  Parts base = valid();
  ASSERT_TRUE(Workload::FromParts(base.buckets, base.region_weights,
                                  base.access_overhead, base.domain_sizes)
                  .ok());
  for (const auto& [field, set] : fields) {
    for (const auto& [label, value] : values) {
      Parts parts = valid();
      set(parts, value);
      const StatusOr<Workload> w =
          Workload::FromParts(parts.buckets, parts.region_weights,
                              parts.access_overhead, parts.domain_sizes);
      ASSERT_FALSE(w.ok()) << field << "=" << label;
      EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument)
          << field << "=" << label;
    }
  }
}

TEST(StatSummaryTest, MergeHullsStatsAndCombinesMasks) {
  SourceStats a;
  a.cardinality = 2.0;
  a.transmission_cost = 0.1;
  a.failure_prob = 0.0;
  a.fee = 1.0;
  a.regions.bits = 0b0011;
  SourceStats b;
  b.cardinality = 10.0;
  b.transmission_cost = 0.05;
  b.failure_prob = 0.5;
  b.fee = 3.0;
  b.regions.bits = 0b0110;
  StatSummary sa = StatSummary::ForConcrete(0, 0, a, 0.5);
  StatSummary sb = StatSummary::ForConcrete(0, 1, b, 0.7);
  StatSummary merged = StatSummary::Merge(sa, sb);
  EXPECT_DOUBLE_EQ(merged.mask_weight_max, 0.7);
  EXPECT_EQ(merged.cardinality, Interval(2.0, 10.0));
  EXPECT_EQ(merged.transmission_cost, Interval(0.05, 0.1));
  EXPECT_EQ(merged.failure_prob, Interval(0.0, 0.5));
  EXPECT_EQ(merged.fee, Interval(1.0, 3.0));
  EXPECT_EQ(merged.mask_union.bits, uint64_t{0b0111});
  EXPECT_EQ(merged.mask_intersection.bits, uint64_t{0b0010});
  EXPECT_EQ(merged.members, (std::vector<int>{0, 1}));
  EXPECT_FALSE(merged.is_concrete());
}

}  // namespace
}  // namespace planorder::stats
