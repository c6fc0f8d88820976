#include "stats/bitmask_universe.h"

#include <cstdint>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "reference/coverage_universe.h"

namespace planorder::stats {
namespace {

// Differential suite: BitmaskUniverse is the compiled form of the coverage
// universe the ordering core evaluates against (DESIGN.md §11); the cell-set
// CoverageUniverse stays in src/reference/ as the executable specification.
// The two must agree on every query — to rounding, since the trie sums
// residuals with different (but equally deterministic) floating-point
// grouping.
constexpr double kTol = 1e-9;

std::vector<double> Uniform(int n) {
  return std::vector<double>(n, 1.0 / n);
}

// One random universe driven through an interleaved add/query schedule, every
// query answered by both implementations.
struct Differential {
  explicit Differential(std::vector<std::vector<double>> weights)
      : reference(weights), compiled(std::move(weights)) {}

  void Add(const std::vector<RegionMask>& box) {
    reference.AddBox(box);
    compiled.AddBox(box);
  }

  void ExpectAgree(const std::vector<RegionMask>& box) {
    EXPECT_NEAR(compiled.BoxVolume(box), reference.BoxVolume(box), kTol);
    EXPECT_NEAR(compiled.UncoveredBoxVolume(box),
                reference.UncoveredBoxVolume(box), kTol);
    EXPECT_EQ(compiled.num_covered_boxes(), reference.num_covered_boxes());
  }

  CoverageUniverse reference;
  BitmaskUniverse compiled;
};

TEST(CoverageBitmaskTest, RandomizedDifferential) {
  // 100 universes x 10 interleaved add/query steps = 1000 randomized cases.
  std::mt19937_64 rng(20260809);
  for (int scenario = 0; scenario < 100; ++scenario) {
    const int dims = std::uniform_int_distribution<int>(1, 5)(rng);
    std::vector<std::vector<double>> weights(dims);
    std::vector<int> regions(dims);
    for (int d = 0; d < dims; ++d) {
      regions[d] = std::uniform_int_distribution<int>(1, 8)(rng);
      weights[d].resize(regions[d]);
      double total = 0.0;
      for (double& w : weights[d]) {
        // A zero weight every few regions exercises the zero-prefix skips.
        w = std::uniform_int_distribution<int>(0, 4)(rng) == 0
                ? 0.0
                : std::uniform_real_distribution<double>(0.1, 1.0)(rng);
        total += w;
      }
      if (total > 0.0) {
        for (double& w : weights[d]) w /= total;
      } else {
        weights[d][0] = 1.0;
      }
    }
    Differential diff(weights);
    auto random_box = [&] {
      std::vector<RegionMask> box(dims);
      for (int d = 0; d < dims; ++d) {
        // Bias toward non-empty masks but keep empty ones reachable.
        const uint64_t all = (uint64_t{1} << regions[d]) - 1;
        box[d].bits = std::uniform_int_distribution<uint64_t>(0, all)(rng);
      }
      return box;
    };
    for (int step = 0; step < 10; ++step) {
      diff.ExpectAgree(random_box());
      diff.Add(random_box());
    }
    diff.ExpectAgree(random_box());
    diff.compiled.Clear();
    diff.reference.Clear();
    diff.ExpectAgree(random_box());
  }
}

TEST(CoverageBitmaskTest, MaskWeightMatchesReference) {
  std::mt19937_64 rng(91);
  std::vector<std::vector<double>> weights(1);
  weights[0].resize(64);
  for (double& w : weights[0]) {
    w = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  }
  CoverageUniverse reference(weights);
  BitmaskUniverse compiled(weights);
  for (int i = 0; i < 1000; ++i) {
    const RegionMask mask{rng()};
    EXPECT_NEAR(compiled.MaskWeight(0, mask), reference.MaskWeight(0, mask),
                kTol);
  }
}

TEST(CoverageBitmaskTest, EmptyUniverseFastPathReturnsBoxVolume) {
  // No executed boxes: residual == volume, exactly (same code path).
  BitmaskUniverse u({{2.0, 3.0}, {0.5, 4.0, 1.5}});
  const std::vector<RegionMask> box = {RegionMask{0b11}, RegionMask{0b101}};
  EXPECT_EQ(u.num_covered_boxes(), 0);
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(box), u.BoxVolume(box));
  EXPECT_DOUBLE_EQ(u.BoxVolume(box), 5.0 * 2.0);
}

TEST(CoverageBitmaskTest, DisjointDimensionFastPathReturnsFullVolume) {
  Differential diff({Uniform(4), Uniform(4)});
  diff.Add({RegionMask{0b0011}, RegionMask{0b1111}});
  // Disjoint from the executed union in dimension 0: nothing is covered.
  const std::vector<RegionMask> probe = {RegionMask{0b1100},
                                         RegionMask{0b1111}};
  EXPECT_DOUBLE_EQ(diff.compiled.UncoveredBoxVolume(probe),
                   diff.compiled.BoxVolume(probe));
  diff.ExpectAgree(probe);
}

TEST(CoverageBitmaskTest, ContainedBoxFastPathIsExactlyZero) {
  Differential diff({Uniform(4), Uniform(4)});
  diff.Add({RegionMask{0b0111}, RegionMask{0b1110}});
  // Inside the executed box in every dimension: covered, exactly 0.
  const std::vector<RegionMask> probe = {RegionMask{0b0011},
                                         RegionMask{0b0110}};
  EXPECT_EQ(diff.compiled.UncoveredBoxVolume(probe), 0.0);
  diff.ExpectAgree(probe);
}

TEST(CoverageBitmaskTest, FullySaturatedUniverseIsExactlyZeroEverywhere) {
  // Once every cell is covered, the trie's root is full and every residual
  // is exactly 0.0 (the full-subtree skip, not a rounded sum).
  const int regions = 6;
  BitmaskUniverse u({Uniform(regions), Uniform(regions), Uniform(regions)});
  const uint64_t all = (uint64_t{1} << regions) - 1;
  for (int r = 0; r < regions; ++r) {
    // Cover slab by slab so fullness has to propagate across levels.
    u.AddBox({RegionMask{uint64_t{1} << r}, RegionMask{all}, RegionMask{all}});
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100; ++i) {
    std::vector<RegionMask> probe(3);
    for (auto& mask : probe) {
      mask.bits = std::uniform_int_distribution<uint64_t>(1, all)(rng);
    }
    EXPECT_EQ(u.UncoveredBoxVolume(probe), 0.0);
  }
}

TEST(CoverageBitmaskTest, UntouchedSubtreeClosedFormMatchesCellWalk) {
  // Execute only under region 0 of dimension 0; probes under other regions
  // hit the closed-form (never-visited subtree) path.
  Differential diff({Uniform(8), Uniform(8), Uniform(8)});
  diff.Add({RegionMask{0b1}, RegionMask{0x0f}, RegionMask{0x33}});
  std::mt19937_64 rng(11);
  for (int i = 0; i < 200; ++i) {
    std::vector<RegionMask> probe(3);
    for (auto& mask : probe) {
      mask.bits = std::uniform_int_distribution<uint64_t>(0, 0xff)(rng);
    }
    diff.ExpectAgree(probe);
  }
}

TEST(CoverageBitmaskTest, SixtyFourRegionBoundary) {
  Differential diff({Uniform(64), Uniform(64)});
  const std::vector<RegionMask> all = {RegionMask{~uint64_t{0}},
                                       RegionMask{~uint64_t{0}}};
  diff.ExpectAgree(all);
  diff.Add({RegionMask{~uint64_t{0}}, RegionMask{uint64_t{1} << 63}});
  diff.ExpectAgree(all);
  diff.Add(all);
  diff.ExpectAgree(all);
  EXPECT_EQ(diff.compiled.UncoveredBoxVolume(all), 0.0);
}

TEST(CoverageBitmaskTest, EmptyMaskBoxesCoverNothingButCountAsExecuted) {
  Differential diff({Uniform(4), Uniform(4)});
  // A box empty in one dimension has no cells; it must still advance the
  // executed count and the union/intersection fast-path state identically.
  diff.Add({RegionMask{0}, RegionMask{0b1111}});
  std::mt19937_64 rng(3);
  for (int i = 0; i < 50; ++i) {
    std::vector<RegionMask> probe(2);
    for (auto& mask : probe) {
      mask.bits = std::uniform_int_distribution<uint64_t>(0, 0b1111)(rng);
    }
    diff.ExpectAgree(probe);
  }
}

TEST(CoverageBitmaskTest, ClearForgetsExecutions) {
  BitmaskUniverse u({Uniform(2), Uniform(2)});
  const std::vector<RegionMask> box = {RegionMask{0b11}, RegionMask{0b11}};
  u.AddBox(box);
  EXPECT_EQ(u.UncoveredBoxVolume(box), 0.0);
  u.Clear();
  EXPECT_EQ(u.num_covered_boxes(), 0);
  EXPECT_DOUBLE_EQ(u.UncoveredBoxVolume(box), u.BoxVolume(box));
}

}  // namespace
}  // namespace planorder::stats
