/// Pull-API edge cases of exec::MediatorStream: exhaustion is sticky,
/// TakeResult cancels mid-run at a step boundary, and a query with no sound
/// plan at all still streams its (all-discarded) steps and finishes with an
/// empty answer set.

#include "exec/mediator.h"

#include <gtest/gtest.h>

#include "core/orderer_factory.h"
#include "datalog/parser.h"
#include "exec/synthetic_domain.h"
#include "test_util.h"
#include "utility/coverage_model.h"

namespace planorder::exec {
namespace {

stats::WorkloadOptions SmallOptions(uint64_t seed) {
  stats::WorkloadOptions options;
  options.query_length = 3;
  options.bucket_size = 4;
  options.overlap_rate = 0.4;
  options.regions_per_bucket = 8;
  options.seed = seed;
  return options;
}

TEST(MediatorStreamTest, ExhaustionIsSticky) {
  auto domain = BuildSyntheticDomain(SmallOptions(61), 100);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  utility::CoverageModel model(&d.workload);
  auto orderer = core::MakeOrderer(
      {}, &d.workload, &model, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer.ok());
  Mediator mediator(&d.catalog, d.query, d.source_ids);
  auto executor = MakeSetOrientedExecutor(&d.source_facts);
  Mediator::RunLimits limits;
  limits.max_plans = 5;
  auto stream = mediator.OpenStream(**orderer, limits, *executor);
  ASSERT_TRUE(stream.ok());

  for (int i = 0; i < limits.max_plans; ++i) {
    auto step = stream->NextStep();
    ASSERT_TRUE(step.ok()) << step.status();
    EXPECT_FALSE(stream->done());
  }
  // The limit trips on the next pull — and every pull after that keeps
  // returning kNotFound instead of touching the orderer again.
  for (int i = 0; i < 3; ++i) {
    auto over = stream->NextStep();
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), StatusCode::kNotFound);
    EXPECT_TRUE(stream->done());
  }
  EXPECT_EQ(stream->result().steps.size(), 5u);
}

TEST(MediatorStreamTest, TakeResultCancelsMidRun) {
  auto domain = BuildSyntheticDomain(SmallOptions(62), 200);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  utility::CoverageModel model(&d.workload);
  auto orderer = core::MakeOrderer(
      {}, &d.workload, &model, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer.ok());
  Mediator mediator(&d.catalog, d.query, d.source_ids);
  auto executor = MakeSetOrientedExecutor(&d.source_facts);
  Mediator::RunLimits limits;
  limits.max_plans = 64;
  auto stream = mediator.OpenStream(**orderer, limits, *executor);
  ASSERT_TRUE(stream.ok());

  auto first = stream->NextStep();
  auto second = stream->NextStep();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_FALSE(stream->done());

  // Cancelling between steps finalizes exactly what was pulled: two steps,
  // the answers they contributed, nothing from the 62 never-executed plans.
  MediatorResult result = stream->TakeResult();
  EXPECT_TRUE(stream->done());
  ASSERT_EQ(result.steps.size(), 2u);
  EXPECT_EQ(result.total_answers, second->total_answers);

  auto after = stream->NextStep();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound);
}

TEST(MediatorStreamTest, StreamedStepsMatchBatchRun) {
  auto domain = BuildSyntheticDomain(SmallOptions(63), 150);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  Mediator mediator(&d.catalog, d.query, d.source_ids);

  utility::CoverageModel model_a(&d.workload);
  auto orderer_a = core::MakeOrderer(
      {}, &d.workload, &model_a, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer_a.ok());
  auto executor = MakeSetOrientedExecutor(&d.source_facts);
  auto batch = mediator.Run(**orderer_a, {.max_plans = 16}, *executor);
  ASSERT_TRUE(batch.ok());

  utility::CoverageModel model_b(&d.workload);
  auto orderer_b = core::MakeOrderer(
      {}, &d.workload, &model_b, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer_b.ok());
  Mediator::RunLimits limits;
  limits.max_plans = 16;
  auto stream = mediator.OpenStream(**orderer_b, limits, *executor);
  ASSERT_TRUE(stream.ok());
  std::vector<MediatorStep> steps;
  while (true) {
    auto step = stream->NextStep();
    if (!step.ok()) {
      ASSERT_EQ(step.status().code(), StatusCode::kNotFound) << step.status();
      break;
    }
    steps.push_back(*step);
  }
  MediatorResult streamed = stream->TakeResult();

  ASSERT_EQ(steps.size(), batch->steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].plan, batch->steps[i].plan) << "step " << i;
    EXPECT_EQ(steps[i].total_answers, batch->steps[i].total_answers)
        << "step " << i;
  }
  EXPECT_EQ(streamed.total_answers, batch->total_answers);
}

TEST(MediatorStreamTest, ZeroSoundPlanQueryStreamsDiscardsOnly) {
  // Every source projects away the join variable, so no combination can be
  // enforced soundly: the stream still yields one step per plan (all
  // discarded) and finishes with zero answers.
  datalog::Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  ASSERT_TRUE(catalog.schema().AddRelation("r", 2).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vp1(A) :- p(A, B)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vp2(A) :- p(A, B)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vr1(C) :- r(B, C)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vr2(C) :- r(B, C)").ok());
  auto query = datalog::ParseRule("q(A,C) :- p(A,B), r(B,C)");
  ASSERT_TRUE(query.ok());

  // The orderer speaks bucket-index over any 2x2 workload; the catalog
  // translation is what matters here.
  const stats::Workload workload = test::MakeWorkload(2, 2, 0.4, 64);
  utility::CoverageModel model(&workload);
  auto orderer = core::MakeOrderer({}, &workload, &model,
                                   {core::PlanSpace::FullSpace(workload)});
  ASSERT_TRUE(orderer.ok());

  datalog::Database facts;
  Mediator mediator(&catalog, *query, {{0, 1}, {2, 3}});
  auto executor = MakeSetOrientedExecutor(&facts);
  Mediator::RunLimits limits;
  limits.max_plans = 16;
  auto stream = mediator.OpenStream(**orderer, limits, *executor);
  ASSERT_TRUE(stream.ok());

  int steps = 0;
  while (true) {
    auto step = stream->NextStep();
    if (!step.ok()) {
      ASSERT_EQ(step.status().code(), StatusCode::kNotFound) << step.status();
      break;
    }
    EXPECT_FALSE(step->sound);
    EXPECT_EQ(step->answers_from_plan, 0u);
    ++steps;
  }
  EXPECT_EQ(steps, 4);  // 2^2 plans, all pulled, all discarded
  MediatorResult result = stream->TakeResult();
  EXPECT_EQ(result.sound_plans, 0u);
  EXPECT_EQ(result.total_answers, 0u);
}

TEST(MediatorStreamTest, RejectsNonPositiveMaxPlans) {
  auto domain = BuildSyntheticDomain(SmallOptions(64), 20);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  utility::CoverageModel model(&d.workload);
  auto orderer = core::MakeOrderer(
      {}, &d.workload, &model, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer.ok());
  Mediator mediator(&d.catalog, d.query, d.source_ids);
  auto executor = MakeSetOrientedExecutor(&d.source_facts);
  Mediator::RunLimits limits;
  limits.max_plans = 0;
  auto stream = mediator.OpenStream(**orderer, limits, *executor);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace planorder::exec
