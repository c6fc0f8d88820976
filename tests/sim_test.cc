// The simulation harness itself (src/sim/): scenario generation and replay
// serialization, the exhaustive-order oracle's ability to actually reject
// wrong orderings (a differential checker that never fires is worthless),
// the greedy shrinker's fixpoint against a synthetic failure predicate, the
// virtual clock's interleaving independence, and an end-to-end RunScenario
// smoke over generated scenarios.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/clock.h"
#include "sim/harness.h"
#include "sim/oracle.h"
#include "sim/scenario.h"
#include "sim/shrink.h"
#include "test_util.h"

namespace planorder::sim {
namespace {

using test::MakeWorkload;

TEST(ScenarioTest, GenerationIsDeterministic) {
  for (int step = 0; step < 4; ++step) {
    const Scenario a = MakeScenario(17, step);
    const Scenario b = MakeScenario(17, step);
    EXPECT_EQ(a.Serialize(), b.Serialize()) << "step " << step;
    EXPECT_EQ(a.base_seed, 17u);
    EXPECT_EQ(a.step, step);
  }
  // Steps draw from independent streams; adjacent steps should not collide.
  EXPECT_NE(MakeScenario(17, 0).Serialize(), MakeScenario(17, 1).Serialize());
  EXPECT_NE(MakeScenario(17, 0).Serialize(), MakeScenario(18, 0).Serialize());
}

TEST(ScenarioTest, SerializeRoundTrips) {
  for (uint64_t seed : {1u, 42u, 20260806u}) {
    for (int step = 0; step < 3; ++step) {
      const Scenario original = MakeScenario(seed, step);
      auto parsed = Scenario::Deserialize(original.Serialize());
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      EXPECT_EQ(parsed->Serialize(), original.Serialize())
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(ScenarioTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Scenario::Deserialize("").ok());
  EXPECT_FALSE(Scenario::Deserialize("not a scenario").ok());
  EXPECT_FALSE(Scenario::Deserialize("query_length=banana").ok());
}

TEST(OracleTest, AcceptsCorrectOrderRejectsCorruptions) {
  const stats::Workload w = MakeWorkload(3, 4, 0.4, 31);
  const std::vector<core::PlanSpace> spaces = {core::PlanSpace::FullSpace(w)};
  // Coverage is conditional — the hardest case for the oracle's step-wise
  // recomputation (every emission changes later utilities).
  auto model = test::MustMakeMeasure(test::Measure::kCoverage, &w);
  auto orderer =
      core::MakeOrderer({core::OrdererKind::kPi}, &w, model.get(), spaces);
  ASSERT_TRUE(orderer.ok()) << orderer.status();
  auto emissions = Drain(**orderer);
  ASSERT_TRUE(emissions.ok()) << emissions.status();
  ASSERT_EQ(emissions->size(), 4u * 4u * 4u);

  EXPECT_TRUE(
      VerifyExactOrder(w, test::Measure::kCoverage, spaces, *emissions, 1e-9)
          .ok());

  {
    // Swapping the first and last emission breaks the argmax property.
    auto corrupted = *emissions;
    std::swap(corrupted.front(), corrupted.back());
    EXPECT_FALSE(VerifyExactOrder(w, test::Measure::kCoverage, spaces,
                                  corrupted, 1e-9)
                     .ok());
  }
  {
    // A misreported utility must be caught even when the order is right.
    auto corrupted = *emissions;
    corrupted[3].utility += 0.125;
    EXPECT_FALSE(VerifyExactOrder(w, test::Measure::kCoverage, spaces,
                                  corrupted, 1e-9)
                     .ok());
  }
  {
    // Emitting a plan twice (dropping another) is not a permutation.
    auto corrupted = *emissions;
    corrupted[1] = corrupted[0];
    EXPECT_FALSE(VerifyExactOrder(w, test::Measure::kCoverage, spaces,
                                  corrupted, 1e-9)
                     .ok());
  }
}

TEST(ShrinkTest, ReachesSyntheticFixpoint) {
  // A fully-loaded scenario; the synthetic bug "fails iff coverage is among
  // the measures and the query joins at least two buckets" ignores every
  // other axis, so the greedy walk must strip all of them.
  Scenario failing = MakeScenario(7, 0);
  failing.query_length = 4;
  failing.bucket_size = 5;
  failing.measures = AllMeasureKinds();
  failing.algos = AllAlgoKinds();
  failing.thread_counts = {2, 8};
  failing.check_oracle = true;
  failing.check_monotone = true;
  failing.check_relabel = true;
  failing.check_runtime = true;

  int predicate_calls = 0;
  const ShrinkResult result = ShrinkWith(
      failing, SimOptions{},
      [&predicate_calls](const Scenario& s, const SimOptions&) -> Status {
        ++predicate_calls;
        const bool has_coverage =
            std::find(s.measures.begin(), s.measures.end(),
                      utility::MeasureKind::kCoverage) != s.measures.end();
        if (has_coverage && s.query_length >= 2) {
          return InternalError("synthetic coverage-join bug");
        }
        return OkStatus();
      });

  EXPECT_EQ(result.scenario.measures,
            std::vector<utility::MeasureKind>{utility::MeasureKind::kCoverage});
  EXPECT_EQ(result.scenario.query_length, 2);
  EXPECT_EQ(result.scenario.bucket_size, 2);
  EXPECT_EQ(result.scenario.algos.size(), 1u);
  EXPECT_TRUE(result.scenario.thread_counts.empty());
  EXPECT_FALSE(result.scenario.check_oracle);
  EXPECT_FALSE(result.scenario.check_monotone);
  EXPECT_FALSE(result.scenario.check_relabel);
  EXPECT_FALSE(result.scenario.check_runtime);
  EXPECT_EQ(result.scenario.regions_per_bucket, 2);
  EXPECT_EQ(result.failure, "synthetic coverage-join bug");
  EXPECT_EQ(result.attempts, predicate_calls);
  EXPECT_GE(result.rounds, 2);  // at least one adopting pass + the fixpoint
}

TEST(VirtualClockTest, ConcurrentAdvanceIsInterleavingIndependent) {
  // Atomic integer-nanosecond accumulation commutes, so the elapsed total
  // after a fixed multiset of sleeps must be exact and thread-schedule
  // independent — the property CheckRuntimeEquivalence leans on.
  double expected = 0.0;
  for (int run = 0; run < 3; ++run) {
    runtime::VirtualClock clock;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&clock, t] {
        for (int i = 0; i < 1000; ++i) {
          clock.SleepMs(0.25 * (t + 1), /*dilation=*/3.0);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    if (run == 0) {
      expected = clock.NowMs();
      // 1000 * 0.25ms * (1+2+...+8) = 9000ms, undilated.
      EXPECT_DOUBLE_EQ(expected, 9000.0);
    } else {
      EXPECT_DOUBLE_EQ(clock.NowMs(), expected) << "run " << run;
    }
  }
}

TEST(SimHarnessTest, RunScenarioSmoke) {
  SimReport report;
  for (int step = 0; step < 2; ++step) {
    const Scenario scenario = MakeScenario(20260806, step);
    Status status = RunScenario(scenario, SimOptions{}, &report);
    EXPECT_TRUE(status.ok()) << scenario.Summary() << ": " << status;
  }
  EXPECT_GT(report.checks, 0);
}

/// A small scenario with the multi-session cluster check forced on: serial
/// oracle, concurrent replay and answer comparison all hold on correct code.
Scenario MultiScenario() {
  Scenario scenario = MakeScenario(31, 0);
  scenario.query_length = 2;
  scenario.bucket_size = 3;
  scenario.num_answers = 60;
  scenario.measures.clear();  // the multi check alone
  scenario.check_oracle = false;
  scenario.check_monotone = false;
  scenario.check_relabel = false;
  scenario.check_runtime = false;
  scenario.check_ranked = false;
  scenario.check_multi = true;
  scenario.num_sessions = 3;
  scenario.num_shards = 2;
  scenario.multi_inject_stale = false;
  return scenario;
}

TEST(SimMultiSessionTest, PropertyHoldsOnCorrectCode) {
  SimReport report;
  const Scenario scenario = MultiScenario();
  Status status = RunScenario(scenario, SimOptions{}, &report);
  EXPECT_TRUE(status.ok()) << scenario.Summary() << ": " << status;
  EXPECT_GT(report.checks, 0);
}

TEST(SimMultiSessionTest, InjectedStaleUtilityBugIsCaughtAndShrinks) {
  // The planted bug: sessions poll a residency view frozen at open time
  // instead of the live shared cache, so emitted utilities stop reflecting
  // cache state at eval time. The
  // serial view-read oracle must fail — and the shrinker must walk the
  // reproducer down while the failure persists.
  Scenario scenario = MultiScenario();
  scenario.multi_inject_stale = true;
  Status status = RunScenario(scenario, SimOptions{}, /*report=*/nullptr);
  ASSERT_FALSE(status.ok())
      << "stale cross-session utilities went undetected: "
      << scenario.Summary();
  EXPECT_NE(std::string(status.message()).find("check=multi"),
            std::string::npos)
      << status;

  const ShrinkResult minimized = Shrink(scenario, SimOptions{});
  EXPECT_FALSE(minimized.failure.empty());
  // The failing axis cannot be shrunk away: the multi check must survive
  // minimization, and the stale injection rides on the scenario unchanged.
  EXPECT_TRUE(minimized.scenario.check_multi);
  EXPECT_TRUE(minimized.scenario.multi_inject_stale);
  EXPECT_LE(minimized.scenario.num_sessions, scenario.num_sessions);
  EXPECT_LE(minimized.scenario.num_shards, scenario.num_shards);
  EXPECT_GE(minimized.rounds, 1);
}

/// A pinned scenario with only the adaptive re-ranking check on. Seed 31
/// step 0 draws 27 plans with a cardinality-sensitive measure and a drift
/// schedule that actually crosses the divergence band — the property has
/// teeth here (the stale variant below fails at this exact scenario).
Scenario DriftScenario() {
  Scenario scenario = MakeScenario(31, 0);
  scenario.measures.clear();  // the drift check alone
  scenario.check_oracle = false;
  scenario.check_monotone = false;
  scenario.check_relabel = false;
  scenario.check_runtime = false;
  scenario.check_ranked = false;
  scenario.check_multi = false;
  scenario.check_drift = true;
  scenario.drift_inject_stale = false;
  return scenario;
}

TEST(SimDriftTest, PropertyHoldsOnCorrectCode) {
  SimReport report;
  const Scenario scenario = DriftScenario();
  Status status = RunScenario(scenario, SimOptions{}, &report);
  EXPECT_TRUE(status.ok()) << scenario.Summary() << ": " << status;
  EXPECT_GT(report.checks, 0);
}

TEST(SimDriftTest, InjectedStaleStatsBugIsCaughtAndShrinks) {
  // The planted bug: the adaptive orderer is built without the observed
  // statistics (they fold but never trigger a mid-stream re-rank), so once
  // observed cardinalities drift out of band its emissions diverge from the
  // rebuild-from-observed-stats oracle. The check must fail — and the
  // shrinker must keep both the drift check and the injection while it
  // minimizes.
  Scenario scenario = DriftScenario();
  scenario.drift_inject_stale = true;
  Status status = RunScenario(scenario, SimOptions{}, /*report=*/nullptr);
  ASSERT_FALSE(status.ok())
      << "stale adaptive statistics went undetected: " << scenario.Summary();
  EXPECT_NE(std::string(status.message()).find("check=drift"),
            std::string::npos)
      << status;

  const ShrinkResult minimized = Shrink(scenario, SimOptions{});
  EXPECT_FALSE(minimized.failure.empty());
  EXPECT_TRUE(minimized.scenario.check_drift);
  EXPECT_TRUE(minimized.scenario.drift_inject_stale);
  EXPECT_LE(minimized.scenario.drift_sources, scenario.drift_sources);
  EXPECT_GE(minimized.rounds, 1);
}

}  // namespace
}  // namespace planorder::sim
