/// Validates the bound-join cost model (measure (2)) against *measured*
/// execution: plans executed by dependent joins against materialized
/// sources produce access traces (calls, shipped tuples) whose costs the
/// model is supposed to estimate. The estimates need not be exact (the
/// model's join-size term n_j * t / N is a coarse estimate), but
///  - the first atom's shipped count must equal the modeled cardinality
///    (sources ship their full answer for the bound pattern), and
///  - ordering plans by modeled cost must put genuinely cheap plans first:
///    the measured cost of the model's best quartile must beat the worst
///    quartile.

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "exec/dependent_join.h"
#include "exec/synthetic_domain.h"
#include "reformulation/rewriting.h"
#include "utility/cost_models.h"

namespace planorder::exec {
namespace {

struct MeasuredPlan {
  utility::ConcretePlan plan;
  double modeled_utility = 0.0;  // -cost from the model
  double measured_cost = 0.0;    // from the execution trace
  ExecutionTrace trace;
};

class CostValidationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CostValidationTest, ModeledCostTracksMeasuredAccessCost) {
  stats::WorkloadOptions options;
  options.query_length = 3;
  options.bucket_size = 4;
  options.overlap_rate = 0.4;
  options.regions_per_bucket = 8;
  options.seed = GetParam();
  auto domain = BuildSyntheticDomain(options, /*num_answers=*/400);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;

  // Materialize the registry from the domain's source facts.
  auto built = BuildSourceRegistry(d.catalog, d.source_facts);
  ASSERT_TRUE(built.ok()) << built.status();
  SourceRegistry& registry = *built;

  auto model = utility::BoundJoinCostModel::Create(
      &d.workload, utility::MeasureKind::kCost2);
  ASSERT_TRUE(model.ok());
  utility::ExecutionContext ctx(&d.workload);
  const double h = d.workload.access_overhead();

  std::vector<MeasuredPlan> measured;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      for (int c = 0; c < 4; ++c) {
        MeasuredPlan mp;
        mp.plan = {a, b, c};
        mp.modeled_utility = (*model)->EvaluateConcrete(mp.plan, ctx);
        std::vector<datalog::SourceId> choice = {
            d.source_ids[0][a], d.source_ids[1][b], d.source_ids[2][c]};
        auto qp = reformulation::BuildSoundPlan(d.query, d.catalog, choice);
        ASSERT_TRUE(qp.ok());
        ASSERT_TRUE(qp->has_value());
        auto answers =
            ExecutePlanDependent((*qp)->rewriting, registry, &mp.trace);
        ASSERT_TRUE(answers.ok()) << answers.status();
        std::vector<double> alphas(3);
        for (int i = 0; i < 3; ++i) {
          alphas[i] =
              d.workload.source(i, mp.plan[i]).transmission_cost;
        }
        mp.measured_cost = mp.trace.ModeledCost(h, alphas);

        // First atom: shipped count equals the modeled cardinality exactly
        // (empty sources carry a floor cardinality of 1).
        const double n0 = d.workload.source(0, a).cardinality;
        if (mp.trace.atoms[0].tuples_shipped > 0) {
          EXPECT_DOUBLE_EQ(double(mp.trace.atoms[0].tuples_shipped), n0);
        } else {
          EXPECT_DOUBLE_EQ(n0, 1.0);  // floor for empty sources
        }
        measured.push_back(std::move(mp));
      }
    }
  }

  // Rank by modeled utility (best first); the best quartile must be
  // genuinely cheaper to execute than the worst quartile.
  std::sort(measured.begin(), measured.end(),
            [](const MeasuredPlan& x, const MeasuredPlan& y) {
              return x.modeled_utility > y.modeled_utility;
            });
  const size_t quartile = measured.size() / 4;
  double best_sum = 0, worst_sum = 0;
  for (size_t i = 0; i < quartile; ++i) {
    best_sum += measured[i].measured_cost;
    worst_sum += measured[measured.size() - 1 - i].measured_cost;
  }
  EXPECT_LT(best_sum, worst_sum)
      << "model-best quartile should execute cheaper than model-worst";

  // And a coarse monotonicity signal: Spearman-style rank agreement above
  // chance. Compute the fraction of concordant pairs on a sample.
  int concordant = 0, discordant = 0;
  for (size_t i = 0; i < measured.size(); ++i) {
    for (size_t j = i + 1; j < measured.size(); ++j) {
      if (measured[i].measured_cost < measured[j].measured_cost) {
        ++concordant;
      } else if (measured[i].measured_cost > measured[j].measured_cost) {
        ++discordant;
      }
    }
  }
  EXPECT_GT(concordant, discordant);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostValidationTest,
                         ::testing::Values(61, 62, 63));

}  // namespace
}  // namespace planorder::exec
