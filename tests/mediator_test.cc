#include "exec/mediator.h"

#include <gtest/gtest.h>

#include "core/orderer_factory.h"
#include "core/streamer.h"
#include "exec/source_access.h"
#include "exec/synthetic_domain.h"
#include "reference/pi.h"
#include "utility/coverage_model.h"

namespace planorder::exec {
namespace {

stats::WorkloadOptions SmallOptions(uint64_t seed = 41) {
  stats::WorkloadOptions options;
  options.query_length = 3;
  options.bucket_size = 4;
  options.overlap_rate = 0.4;
  options.regions_per_bucket = 8;
  options.seed = seed;
  return options;
}

TEST(MediatorTest, StreamsAnswersAndAccountsSteps) {
  auto domain = BuildSyntheticDomain(SmallOptions(), 300);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  utility::CoverageModel model(&d.workload);
  auto orderer = core::MakeOrderer(
      {}, &d.workload, &model, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer.ok());

  Mediator mediator(&d.catalog, d.query, d.source_ids);
  const auto facts = MakeSetOrientedExecutor(&d.source_facts);
  auto result = mediator.Run(**orderer, {.max_plans = 10}, *facts);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->steps.size(), 10u);
  // Identity views: every plan sound.
  EXPECT_EQ(result->sound_plans, 10u);
  size_t running = 0;
  for (const MediatorStep& step : result->steps) {
    EXPECT_TRUE(step.sound);
    EXPECT_GE(step.total_answers, running);
    running = step.total_answers;
    EXPECT_LE(step.new_answers, step.answers_from_plan);
  }
  EXPECT_EQ(result->total_answers, running);
  EXPECT_GT(result->total_answers, 0u);
}

TEST(MediatorTest, CoverageOrderingFrontLoadsAnswers) {
  // The whole point of the paper: executing plans in decreasing coverage
  // order collects answers early. The first quarter of the emitted plans
  // must collect well over a proportional share of what those plans collect
  // in total.
  auto domain = BuildSyntheticDomain(SmallOptions(43), 500);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  utility::CoverageModel model(&d.workload);
  auto orderer = core::MakeOrderer(
      {}, &d.workload, &model, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer.ok());
  Mediator mediator(&d.catalog, d.query, d.source_ids);
  const auto facts = MakeSetOrientedExecutor(&d.source_facts);
  const int total_plans = 32;
  auto result = mediator.Run(**orderer, {.max_plans = total_plans}, *facts);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->steps.size(), size_t{total_plans});
  const size_t after_quarter = result->steps[total_plans / 4 - 1].total_answers;
  const size_t after_all = result->steps.back().total_answers;
  ASSERT_GT(after_all, 0u);
  // A quarter of the plans, ordered by conditional coverage, should already
  // collect far more than a quarter of the answers.
  EXPECT_GT(double(after_quarter), 0.5 * double(after_all));
}

TEST(MediatorTest, EstimatedUtilityTracksNewAnswers) {
  // Estimated conditional coverage ~ new answers / num_answers per step.
  auto domain = BuildSyntheticDomain(SmallOptions(44), 600);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  utility::CoverageModel model(&d.workload);
  auto orderer = core::MakeOrderer(
      {}, &d.workload, &model, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer.ok());
  Mediator mediator(&d.catalog, d.query, d.source_ids);
  const auto facts = MakeSetOrientedExecutor(&d.source_facts);
  auto result = mediator.Run(**orderer, {.max_plans = 12}, *facts);
  ASSERT_TRUE(result.ok());
  for (const MediatorStep& step : result->steps) {
    const double realized = double(step.new_answers) / double(d.num_answers);
    EXPECT_NEAR(realized, step.estimated_utility, 0.07);
  }
}

TEST(MediatorTest, StopsWhenOrdererExhausted) {
  auto domain = BuildSyntheticDomain(SmallOptions(45), 50);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  utility::CoverageModel model(&d.workload);
  auto orderer = core::MakeOrderer(
      {}, &d.workload, &model, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer.ok());
  Mediator mediator(&d.catalog, d.query, d.source_ids);
  const auto facts = MakeSetOrientedExecutor(&d.source_facts);
  auto result = mediator.Run(**orderer, {.max_plans = 1'000'000}, *facts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->steps.size(), 64u);  // 4^3 plans
  // Identity views: every plan passes the gate, in non-increasing
  // conditional utility (coverage has diminishing returns).
  double last = result->steps.front().estimated_utility;
  for (const MediatorStep& step : result->steps) {
    EXPECT_TRUE(step.sound && step.executable);
    EXPECT_LE(step.estimated_utility, last + 1e-12);
    last = step.estimated_utility;
  }
}

TEST(MediatorTest, RejectsNonPositiveMaxPlans) {
  auto domain = BuildSyntheticDomain(SmallOptions(50), 20);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  utility::CoverageModel model(&d.workload);
  auto orderer = core::MakeOrderer(
      {}, &d.workload, &model, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer.ok());
  Mediator mediator(&d.catalog, d.query, d.source_ids);
  const auto facts = MakeSetOrientedExecutor(&d.source_facts);
  Mediator::RunLimits limits;
  limits.max_plans = 0;
  EXPECT_FALSE(mediator.Run(**orderer, limits, *facts).ok());
}

TEST(MediatorTest, AccessPatternPathMatchesSetOrientedPath) {
  // The dependent-join execution path must collect exactly the same answer
  // stream as set-oriented evaluation, and report access accounting.
  auto domain = BuildSyntheticDomain(SmallOptions(47), 250);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;

  auto built = BuildSourceRegistry(d.catalog, d.source_facts);
  ASSERT_TRUE(built.ok()) << built.status();
  SourceRegistry& registry = *built;

  Mediator mediator(&d.catalog, d.query, d.source_ids);
  const auto facts = MakeSetOrientedExecutor(&d.source_facts);
  utility::CoverageModel model_a(&d.workload);
  auto orderer_a = core::MakeOrderer(
      {}, &d.workload, &model_a, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer_a.ok());
  auto set_oriented = mediator.Run(**orderer_a, {.max_plans = 16}, *facts);

  utility::CoverageModel model_b(&d.workload);
  auto orderer_b = core::MakeOrderer(
      {}, &d.workload, &model_b, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer_b.ok());
  auto dependent = mediator.Run(**orderer_b, {.max_plans = 16},
                                *MakeDependentJoinExecutor(&registry));

  ASSERT_TRUE(set_oriented.ok() && dependent.ok());
  ASSERT_EQ(set_oriented->steps.size(), dependent->steps.size());
  for (size_t i = 0; i < set_oriented->steps.size(); ++i) {
    EXPECT_EQ(set_oriented->steps[i].plan, dependent->steps[i].plan);
    EXPECT_EQ(set_oriented->steps[i].answers_from_plan,
              dependent->steps[i].answers_from_plan);
    EXPECT_EQ(set_oriented->steps[i].total_answers,
              dependent->steps[i].total_answers);
  }
  EXPECT_EQ(set_oriented->total_answers, dependent->total_answers);
  // Accounting populated only on the access-pattern path.
  EXPECT_EQ(set_oriented->source_calls, 0);
  EXPECT_GT(dependent->source_calls, 0);
  EXPECT_GT(dependent->tuples_shipped, 0);
}

TEST(MediatorTest, PiAndStreamerCollectSameAnswers) {
  auto domain = BuildSyntheticDomain(SmallOptions(46), 200);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  utility::CoverageModel model_a(&d.workload);
  utility::CoverageModel model_b(&d.workload);
  auto streamer = core::StreamerOrderer::Create(
      &d.workload, &model_a, {core::PlanSpace::FullSpace(d.workload)});
  auto pi = core::PiOrderer::Create(&d.workload, &model_b,
                                    {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(streamer.ok() && pi.ok());
  Mediator mediator(&d.catalog, d.query, d.source_ids);
  const auto facts = MakeSetOrientedExecutor(&d.source_facts);
  auto ra = mediator.Run(**streamer, {.max_plans = 64}, *facts);
  auto rb = mediator.Run(**pi, {.max_plans = 64}, *facts);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->total_answers, rb->total_answers);
  // And the per-step answer curves agree (exact same ordering).
  for (size_t i = 0; i < ra->steps.size(); ++i) {
    EXPECT_EQ(ra->steps[i].total_answers, rb->steps[i].total_answers)
        << "step " << i;
  }
}

}  // namespace
}  // namespace planorder::exec
