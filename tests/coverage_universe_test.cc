#include "reference/coverage_universe.h"

#include <cmath>
#include <random>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

namespace planorder::stats {
namespace {

std::vector<double> Uniform(int n) {
  return std::vector<double>(n, 1.0 / n);
}

TEST(RegionMaskTest, Basics) {
  RegionMask a{0b0110};
  RegionMask b{0b0100};
  RegionMask c{0b1000};
  EXPECT_EQ(a.count(), 2);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Contains(b));
  EXPECT_FALSE(b.Contains(a));
  EXPECT_EQ(a.Union(c).bits, uint64_t{0b1110});
  EXPECT_EQ(a.Intersection(b).bits, uint64_t{0b0100});
  EXPECT_TRUE(RegionMask{}.empty());
}

TEST(CoverageUniverseTest, BoxVolumeIsProductOfMaskWeights) {
  CoverageUniverse u({Uniform(4), Uniform(4)});
  // Half of each dimension: volume 1/4.
  EXPECT_DOUBLE_EQ(u.BoxVolume({RegionMask{0b0011}, RegionMask{0b0011}}), 0.25);
  // Full boxes have volume 1.
  EXPECT_DOUBLE_EQ(u.BoxVolume({RegionMask{0b1111}, RegionMask{0b1111}}), 1.0);
  EXPECT_DOUBLE_EQ(u.BoxVolume({RegionMask{0}, RegionMask{0b1111}}), 0.0);
}

TEST(CoverageUniverseTest, WeightedMaskWeight) {
  CoverageUniverse u({{0.5, 0.3, 0.2}});
  EXPECT_DOUBLE_EQ(u.MaskWeight(0, RegionMask{0b001}), 0.5);
  EXPECT_DOUBLE_EQ(u.MaskWeight(0, RegionMask{0b110}), 0.5);
  EXPECT_DOUBLE_EQ(u.MaskWeight(0, RegionMask{0b111}), 1.0);
}

TEST(CoverageUniverseTest, UncoveredStartsEqualToVolume) {
  CoverageUniverse u({Uniform(4), Uniform(4), Uniform(4)});
  std::vector<RegionMask> box = {RegionMask{0b0011}, RegionMask{0b1100},
                                 RegionMask{0b0110}};
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(box), u.BoxVolume(box));
}

TEST(CoverageUniverseTest, AddBoxCoversExactlyItself) {
  CoverageUniverse u({Uniform(4), Uniform(4)});
  std::vector<RegionMask> executed = {RegionMask{0b0011}, RegionMask{0b0011}};
  u.AddBox(executed);
  // Same box now fully covered.
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(executed), 0.0);
  // Disjoint box untouched.
  std::vector<RegionMask> disjoint = {RegionMask{0b1100}, RegionMask{0b1100}};
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(disjoint), 0.25);
  // Overlapping box loses the shared cells: box {0,1}x{1,2} shares cell
  // (0..1)x(1) with the executed box -> 2 of 4 cells remain... carefully:
  // overlap = {0,1} x {1} = 2 cells of weight 1/16 each.
  std::vector<RegionMask> overlapping = {RegionMask{0b0011}, RegionMask{0b0110}};
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(overlapping), 0.25 - 2.0 / 16.0);
}

TEST(CoverageUniverseTest, ClearForgetsExecutions) {
  CoverageUniverse u({Uniform(2), Uniform(2)});
  std::vector<RegionMask> box = {RegionMask{0b11}, RegionMask{0b11}};
  u.AddBox(box);
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(box), 0.0);
  u.Clear();
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(box), 1.0);
}

TEST(CoverageUniverseTest, SingleDimension) {
  CoverageUniverse u({{0.25, 0.25, 0.25, 0.25}});
  std::vector<RegionMask> box = {RegionMask{0b0111}};
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(box), 0.75);
  u.AddBox({RegionMask{0b0011}});
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(box), 0.25);
}

TEST(CoverageUniverseTest, EmptyMaskGivesZero) {
  CoverageUniverse u({Uniform(4), Uniform(4)});
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume({RegionMask{0}, RegionMask{0b1111}}),
                   0.0);
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume({RegionMask{0b1111}, RegionMask{0}}),
                   0.0);
}

/// Property test: the incremental bitmask implementation must agree with a
/// brute-force cell-set model across random boxes and dimensions.
class CoverageUniversePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CoverageUniversePropertyTest, MatchesBruteForceCellModel) {
  const int dims = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  std::mt19937_64 rng(seed);
  const int regions = 5;
  std::vector<std::vector<double>> weights(dims);
  for (auto& w : weights) {
    w.resize(regions);
    double total = 0;
    for (double& x : w) {
      x = std::uniform_real_distribution<double>(0.1, 1.0)(rng);
      total += x;
    }
    for (double& x : w) x /= total;
  }
  CoverageUniverse u(weights);
  std::set<std::vector<int>> covered;  // brute-force covered cells

  auto random_box = [&] {
    std::vector<RegionMask> box(dims);
    for (int d = 0; d < dims; ++d) {
      box[d].bits = std::uniform_int_distribution<uint64_t>(
          0, (1u << regions) - 1)(rng);
    }
    return box;
  };
  auto brute_uncovered = [&](const std::vector<RegionMask>& box) {
    double total = 0.0;
    std::vector<int> cell(dims, 0);
    std::function<void(int, double)> walk = [&](int d, double w) {
      if (d == dims) {
        if (!covered.contains(cell)) total += w;
        return;
      }
      for (int r = 0; r < regions; ++r) {
        if (box[d].bits & (1u << r)) {
          cell[d] = r;
          walk(d + 1, w * weights[d][r]);
        }
      }
    };
    walk(0, 1.0);
    return total;
  };
  auto brute_add = [&](const std::vector<RegionMask>& box) {
    std::vector<int> cell(dims, 0);
    std::function<void(int)> walk = [&](int d) {
      if (d == dims) {
        covered.insert(cell);
        return;
      }
      for (int r = 0; r < regions; ++r) {
        if (box[d].bits & (1u << r)) {
          cell[d] = r;
          walk(d + 1);
        }
      }
    };
    walk(0);
  };

  for (int step = 0; step < 40; ++step) {
    const std::vector<RegionMask> probe = random_box();
    EXPECT_NEAR(u.UncoveredBoxVolume(probe), brute_uncovered(probe), 1e-12)
        << "dims=" << dims << " step=" << step;
    const std::vector<RegionMask> executed = random_box();
    u.AddBox(executed);
    brute_add(executed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSeeds, CoverageUniversePropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(7, 13)));

TEST(CoverageUniverseTest, SixtyFourRegionBoundary) {
  // The full-word mask edge: 64 regions exercise the n % 64 == 0 paths.
  CoverageUniverse u({Uniform(64), Uniform(64)});
  std::vector<RegionMask> all = {RegionMask{~uint64_t{0}},
                                 RegionMask{~uint64_t{0}}};
  EXPECT_NEAR(u.BoxVolume(all), 1.0, 1e-9);
  EXPECT_NEAR(u.UncoveredBoxVolume(all), 1.0, 1e-9);
  std::vector<RegionMask> half = {RegionMask{~uint64_t{0} << 32},
                                  RegionMask{~uint64_t{0}}};
  u.AddBox(half);
  EXPECT_NEAR(u.UncoveredBoxVolume(all), 0.5, 1e-9);
  u.AddBox(all);
  EXPECT_NEAR(u.UncoveredBoxVolume(all), 0.0, 1e-9);
  // Highest single region still addressable.
  std::vector<RegionMask> top_bit = {RegionMask{uint64_t{1} << 63},
                                     RegionMask{uint64_t{1} << 63}};
  EXPECT_NEAR(u.BoxVolume(top_bit), 1.0 / (64.0 * 64.0), 1e-12);
}

TEST(CoverageUniverseTest, MonotoneUnderExecutions) {
  // Diminishing returns at the universe level: adding boxes never increases
  // any uncovered volume.
  std::mt19937_64 rng(99);
  CoverageUniverse u({Uniform(6), Uniform(6), Uniform(6)});
  std::vector<RegionMask> probe = {RegionMask{0b010111}, RegionMask{0b111000},
                                   RegionMask{0b001011}};
  double last = u.UncoveredBoxVolume(probe);
  for (int i = 0; i < 30; ++i) {
    std::vector<RegionMask> executed(3);
    for (auto& m : executed) {
      m.bits = std::uniform_int_distribution<uint64_t>(0, 63)(rng);
    }
    u.AddBox(executed);
    const double now = u.UncoveredBoxVolume(probe);
    EXPECT_LE(now, last + 1e-12);
    last = now;
  }
}

TEST(CoverageUniverseFastPathTest, EmptyUniverseReturnsBoxVolume) {
  // Unnormalized weights (documented as allowed) take the same fast path.
  CoverageUniverse u({{2.0, 3.0}, {0.5, 4.0, 1.5}});
  EXPECT_EQ(u.num_covered_boxes(), 0);
  const std::vector<RegionMask> box = {RegionMask{0b11}, RegionMask{0b101}};
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(box), u.BoxVolume(box));
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(box), 10.0);  // (2+3) * (0.5+1.5)
}

TEST(CoverageUniverseFastPathTest, DisjointDimensionReturnsFullVolume) {
  CoverageUniverse u({Uniform(4), Uniform(4)});
  u.AddBox({RegionMask{0b0011}, RegionMask{0b0011}});
  u.AddBox({RegionMask{0b0001}, RegionMask{0b1100}});
  EXPECT_EQ(u.num_covered_boxes(), 2);
  // Disjoint from every executed box in dimension 0 -> nothing covered,
  // regardless of dimension-1 overlap.
  const std::vector<RegionMask> probe = {RegionMask{0b1100},
                                         RegionMask{0b1111}};
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(probe), u.BoxVolume(probe));
}

TEST(CoverageUniverseFastPathTest, ContainedBoxIsFullyCovered) {
  CoverageUniverse u({Uniform(4), Uniform(4)});
  u.AddBox({RegionMask{0b0111}, RegionMask{0b1110}});
  // Inside the executed box in every dimension -> exactly zero uncovered.
  EXPECT_DOUBLE_EQ(
      u.UncoveredBoxVolume({RegionMask{0b0011}, RegionMask{0b0110}}), 0.0);
  // One region poking out in dimension 1 leaves just that column uncovered.
  EXPECT_DOUBLE_EQ(
      u.UncoveredBoxVolume({RegionMask{0b0011}, RegionMask{0b0001}}),
      2.0 / 16.0);
}

TEST(CoverageUniverseFastPathTest, ZeroWeightRegionsContributeNothing) {
  // Zero-weight prefixes are pruned subtrees; the result is exactly the
  // weighted-cell sum. Weights deliberately unnormalized.
  CoverageUniverse u({{0.0, 2.0}, {1.0, 0.0, 3.0}});
  u.AddBox({RegionMask{0b10}, RegionMask{0b100}});  // covers cell (1,2) = 6
  const std::vector<RegionMask> all = {RegionMask{0b11}, RegionMask{0b111}};
  // Total volume 2*(1+0+3) = 8 minus the covered cell's 6.
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(all), 2.0);
  u.Clear();
  EXPECT_EQ(u.num_covered_boxes(), 0);
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(all), u.BoxVolume(all));
}

}  // namespace
}  // namespace planorder::stats
