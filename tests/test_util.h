#ifndef PLANORDER_TESTS_TEST_UTIL_H_
#define PLANORDER_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/abstraction.h"
#include "core/greedy.h"
#include "core/idrips.h"
#include "core/orderer.h"
#include "core/streamer.h"
#include "reference/pi.h"
#include "utility/cost_models.h"
#include "utility/coverage_model.h"
#include "utility/measures.h"

namespace planorder::test {

inline stats::Workload MakeWorkload(int query_length, int bucket_size,
                                    double overlap, uint64_t seed,
                                    bool uniform_alpha = false) {
  stats::WorkloadOptions options;
  options.query_length = query_length;
  options.bucket_size = bucket_size;
  options.overlap_rate = overlap;
  options.regions_per_bucket = 12;
  options.seed = seed;
  if (uniform_alpha) {
    // One transmission cost for every source: what kCost2UniformAlpha needs.
    options.alpha_min = 0.4;
    options.alpha_max = 0.4;
  }
  auto w = stats::Workload::Generate(options);
  EXPECT_TRUE(w.ok()) << w.status();
  return std::move(*w);
}

/// A random abstract plan over `forest`: per bucket, a walk down from the
/// root that stops at each level with probability 1/2 (leaves included).
inline core::AbstractPlan RandomAbstractPlan(
    const core::AbstractionForest& forest, std::mt19937_64& rng) {
  core::AbstractPlan plan;
  plan.forest = &forest;
  for (int b = 0; b < forest.num_buckets(); ++b) {
    int node = forest.root(b);
    while (!forest.is_leaf(node) && rng() % 2 == 0) {
      node = rng() % 2 == 0 ? forest.left(node) : forest.right(node);
    }
    plan.nodes.push_back(node);
  }
  return plan;
}

/// The utility measures of Section 6, via the library factory.
using Measure = utility::MeasureKind;

/// Every measure, in declaration order.
inline constexpr Measure kAllMeasures[] = {
    Measure::kAdditive,       Measure::kCost2UniformAlpha,
    Measure::kCost2,          Measure::kFailureNoCache,
    Measure::kFailureCache,   Measure::kMonetary,
    Measure::kMonetaryCache,  Measure::kCoverage,
};

inline std::string MeasureName(Measure m) {
  return utility::MeasureKindName(m);
}

inline std::unique_ptr<utility::UtilityModel> MustMakeMeasure(
    Measure measure, const stats::Workload* w) {
  auto model = ::planorder::utility::MakeMeasure(measure, w);
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(*model);
}

/// Failure context for seeded randomized tests. Construct one at the top of
/// a TEST_P body with the test target's name and the seed actually used;
/// every assertion that fails in scope then reports the seed plus a
/// copy-paste replay command pinning the exact parameterized instance:
///
///   TEST_P(MyFuzzTest, Property) {
///     SeededScenario scenario("my_fuzz_test", GetParam());
///     std::mt19937_64& rng = scenario.rng();
///     ...
///   }
///
/// This is the gtest-side counterpart of planorder_sim's --replay=seed:step
/// reporting (DESIGN.md §7): a randomized failure is only actionable if its
/// report alone reproduces it.
class SeededScenario {
 public:
  SeededScenario(const std::string& test_binary, uint64_t seed)
      : seed_(seed),
        rng_(seed),
        trace_(__FILE__, __LINE__, ReplayMessage(test_binary, seed)) {}

  uint64_t seed() const { return seed_; }
  /// The scenario's generator, seeded with seed().
  std::mt19937_64& rng() { return rng_; }

 private:
  static std::string ReplayMessage(const std::string& test_binary,
                                   uint64_t seed) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string filter = "<unknown test>";
    if (info != nullptr) {
      filter = std::string(info->test_suite_name()) + "." + info->name();
    }
    return "seed=" + std::to_string(seed) + "  replay: ./tests/" +
           test_binary + " --gtest_filter='" + filter + "'";
  }

  uint64_t seed_;
  std::mt19937_64 rng_;
  ::testing::ScopedTrace trace_;
};

/// Emits up to `k` plans from `orderer` (all plans when k < 0).
inline std::vector<core::OrderedPlan> Drain(core::Orderer& orderer,
                                            int k = -1) {
  std::vector<core::OrderedPlan> plans;
  while (k < 0 || static_cast<int>(plans.size()) < k) {
    auto next = orderer.Next();
    if (!next.ok()) {
      EXPECT_EQ(next.status().code(), StatusCode::kNotFound) << next.status();
      break;
    }
    plans.push_back(*next);
  }
  return plans;
}

}  // namespace planorder::test

#endif  // PLANORDER_TESTS_TEST_UTIL_H_
