// Tests of exec::BindingBatch, the one payload type of every batched source
// call: Add's dedup and order, Slice, the position checks of
// AccessibleSource::FetchBatch, the content hash behind the runtime's
// simulated draws, and the row sequence of serial and partitioned fetches.

#include "exec/binding_batch.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/term.h"
#include "exec/dependent_join.h"
#include "exec/source_access.h"
#include "runtime/remote_source.h"
#include "runtime/retry_policy.h"
#include "runtime/source_runtime.h"

namespace planorder::exec {
namespace {

using datalog::Term;

Term C(const std::string& name) { return Term::Constant(name); }

BindingBatch MakeBatch(std::vector<int> positions,
                       const std::vector<std::vector<Term>>& combinations) {
  BindingBatch batch(std::move(positions));
  for (const auto& values : combinations) batch.Add(values);
  return batch;
}

TEST(BindingBatchTest, AddKeepsDistinctCombinationsInFirstOccurrenceOrder) {
  BindingBatch batch({0, 2});
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.Add({C("b"), C("x")}));
  EXPECT_TRUE(batch.Add({C("a"), C("x")}));
  EXPECT_FALSE(batch.Add({C("b"), C("x")}));
  EXPECT_TRUE(batch.Add({C("b"), C("y")}));
  EXPECT_FALSE(batch.Add({C("a"), C("x")}));
  EXPECT_EQ(batch.size(), 3u);
  const std::vector<std::vector<Term>> want = {
      {C("b"), C("x")}, {C("a"), C("x")}, {C("b"), C("y")}};
  EXPECT_EQ(batch.combinations(), want);
  EXPECT_EQ(batch.positions(), (std::vector<int>{0, 2}));

  // Over no positions the only combination is the empty one (a full scan).
  BindingBatch scan(std::vector<int>{});
  EXPECT_TRUE(scan.Add({}));
  EXPECT_FALSE(scan.Add({}));
  EXPECT_EQ(scan.size(), 1u);
}

TEST(BindingBatchTest, SliceKeepsPositionsAndOrder) {
  const BindingBatch batch =
      MakeBatch({1}, {{C("a")}, {C("b")}, {C("c")}, {C("d")}});
  EXPECT_EQ(batch.Slice(1, 3), MakeBatch({1}, {{C("b")}, {C("c")}}));
  EXPECT_EQ(batch.Slice(0, 4), batch);
  EXPECT_TRUE(batch.Slice(2, 2).empty());
  EXPECT_EQ(batch.Slice(2, 2).positions(), batch.positions());
  // A slice dedups like any batch: adding a held combination is refused.
  BindingBatch tail = batch.Slice(2, 4);
  EXPECT_FALSE(tail.Add({C("d")}));
  EXPECT_TRUE(tail.Add({C("a")}));
}

TEST(BindingBatchTest, EqualityAndOrderCoverPositionsAndCombinations) {
  const BindingBatch a = MakeBatch({0}, {{C("a")}, {C("b")}});
  EXPECT_EQ(a, MakeBatch({0}, {{C("a")}, {C("b")}, {C("a")}}));
  EXPECT_NE(a, MakeBatch({0}, {{C("b")}, {C("a")}}));  // order matters
  EXPECT_NE(a, MakeBatch({1}, {{C("a")}, {C("b")}}));
  EXPECT_TRUE(a < MakeBatch({1}, {{C("a")}}));
  EXPECT_TRUE(a < MakeBatch({0}, {{C("b")}}));
  EXPECT_FALSE(a < a);
}

TEST(BindingBatchTest, FetchBatchRejectsBadPositionSets) {
  struct Case {
    const char* name;
    std::vector<int> positions;
  };
  const std::vector<Case> cases = {
      {"negative", {-1}},
      {"equal to the arity", {2}},
      {"one of two past the arity", {0, 2}},
      {"duplicate", {0, 0}},
      {"decreasing", {1, 0}},
  };
  AccessibleSource source("v", 2);
  ASSERT_TRUE(source.Add({C("ford"), C("m1")}).ok());
  for (const Case& c : cases) {
    BindingBatch batch(c.positions);
    batch.Add(std::vector<Term>(c.positions.size(), C("ford")));
    auto rows = source.FetchBatch(batch);
    ASSERT_FALSE(rows.ok()) << c.name;
    EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument) << c.name;
  }
  // The source still serves in-range lookups.
  auto rows = source.FetchBatch(MakeBatch({1}, {{C("m1")}}));
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 1u);
}

// The runtime's content hash of a batch is private to remote_source.cc; its
// only consumers are the simulated draws. Each golden value below is the
// hash the parent commit computed for the equivalent batch of position ->
// value maps, and the test pins it through the latency draw it produces:
// with base latency 1 and jitter 1 an attempt costs 1 + (2u - 1) for
// u = HashToUnit(CombineHash(CombineHash(hash, attempt), kLatencySalt)).
TEST(BindingBatchTest, BatchHashMatchesGoldenValues) {
  constexpr uint64_t kLatencySalt = 0x6c61746e63793031ULL;
  struct Golden {
    const char* name;
    uint64_t seed;
    BindingBatch batch;
    uint64_t hash;
  };
  const std::vector<Golden> goldens = {
      {"no combinations", 7, BindingBatch({0}), 0x63cbe1e459320dd7ULL},
      {"empty position set", 7, MakeBatch({}, {{}}), 0xdba5b3fbf8c09fcbULL},
      {"one position", 7, MakeBatch({0}, {{C("ford")}}),
       0x16f265caf23571daULL},
      {"one position, two combinations", 7,
       MakeBatch({0}, {{C("ford")}, {C("kate")}}), 0x963a65d3ab6f7c2dULL},
      {"two positions, quoted", 11,
       MakeBatch({0, 2}, {{C("Star Wars"), C("m1")}, {C("o'neil"), C("x y")}}),
       0xc0a9986687171129ULL},
      {"three positions", 11, MakeBatch({0, 1, 2}, {{C("a"), C("b c"), C("1999")}}),
       0xf598d279e50e6523ULL},
      {"two positions, three combinations", 0xdeadbeefULL,
       MakeBatch({1, 2},
                 {{C("m1"), C("")}, {C("m2"), C("Z")}, {C("m3"), C("-")}}),
       0x1d520cf806a3ba6cULL},
      {"three positions, two combinations", 0xdeadbeefULL,
       MakeBatch({0, 1, 2},
                 {{C("p"), C("q"), C("r s")}, {C("P"), C("Q"), C("R")}}),
       0xbf72490e46447edbULL},
  };
  AccessibleSource source("v", 3);
  ASSERT_TRUE(source.Add({C("ford"), C("m1"), C("x y")}).ok());
  for (const Golden& g : goldens) {
    runtime::NetworkModel model;
    model.base_latency_ms = 1.0;
    model.latency_jitter = 1.0;
    runtime::RemoteSource remote(&source, g.seed, model,
                                 /*time_dilation=*/0.0);
    RuntimeAccounting accounting;
    ASSERT_TRUE(
        remote.FetchBatch(g.batch, runtime::RetryPolicy{}, &accounting).ok())
        << g.name;
    const double u = runtime::HashToUnit(
        runtime::CombineHash(runtime::CombineHash(g.hash, 1), kLatencySalt));
    EXPECT_EQ(accounting.latency_ms_total, 1.0 + (2.0 * u - 1.0)) << g.name;
  }
}

/// Rows of `tuples` matching each combination of `batch`, combination by
/// combination, each in load order: FetchBatch's contract, by brute force.
std::vector<std::vector<Term>> ScanAndFilter(
    const std::vector<std::vector<Term>>& tuples, const BindingBatch& batch) {
  std::vector<std::vector<Term>> rows;
  for (const std::vector<Term>& values : batch.combinations()) {
    for (const std::vector<Term>& tuple : tuples) {
      bool match = true;
      for (size_t i = 0; i < values.size() && match; ++i) {
        match = tuple[size_t(batch.positions()[i])] == values[i];
      }
      if (match) rows.push_back(tuple);
    }
  }
  return rows;
}

TEST(BindingBatchTest, FetchBatchEqualsScanAndFilterOnRandomSources) {
  std::mt19937_64 rng(2024);
  auto value = [&rng] { return C("c" + std::to_string(rng() % 4)); };
  for (int round = 0; round < 50; ++round) {
    AccessibleSource source("s", 3);
    std::vector<std::vector<Term>> tuples;
    const int num_tuples = 1 + int(rng() % 24);
    for (int t = 0; t < num_tuples; ++t) {
      std::vector<Term> tuple = {value(), value(), value()};
      ASSERT_TRUE(source.Add(tuple).ok());
      if (std::find(tuples.begin(), tuples.end(), tuple) == tuples.end()) {
        tuples.push_back(std::move(tuple));
      }
    }
    // Every position subset, each with a random distinct batch.
    for (int mask = 0; mask < 8; ++mask) {
      std::vector<int> positions;
      for (int p = 0; p < 3; ++p) {
        if (mask & (1 << p)) positions.push_back(p);
      }
      BindingBatch batch(positions);
      const int draws = 1 + int(rng() % 10);
      for (int d = 0; d < draws; ++d) {
        std::vector<Term> values;
        for (size_t i = 0; i < positions.size(); ++i) values.push_back(value());
        batch.Add(std::move(values));
      }
      auto rows = source.FetchBatch(batch);
      ASSERT_TRUE(rows.ok()) << rows.status();
      EXPECT_EQ(*rows, ScanAndFilter(tuples, batch))
          << "round " << round << " mask " << mask;
    }
  }
}

TEST(BindingBatchTest, PartitionedRuntimeEqualsSerialOnRandomChains) {
  std::mt19937_64 rng(4242);
  // Eight values, so a prefix can feed up to eight distinct bindings.
  auto value = [&rng] { return C("c" + std::to_string(rng() % 8)); };
  for (int round = 0; round < 20; ++round) {
    // A chain q(X0, Xm) :- s0(X0, _, X1), s1(X1, _, X2), ...: every later
    // atom is bound on position 0 by the prefix, and sometimes on position
    // 1 by a constant, over sources with repeated values.
    const int m = 2 + int(rng() % 2);
    SourceRegistry registry;
    datalog::ConjunctiveQuery plan;
    plan.head.predicate = "q";
    plan.head.args = {Term::Variable("X0"),
                      Term::Variable("X" + std::to_string(m))};
    for (int b = 0; b < m; ++b) {
      const std::string name = "s" + std::to_string(b);
      auto source = registry.Register(name, 3);
      ASSERT_TRUE(source.ok());
      const int num_tuples = 8 + int(rng() % 32);
      for (int t = 0; t < num_tuples; ++t) {
        ASSERT_TRUE((*source)->Add({value(), value(), value()}).ok());
      }
      const Term middle = (b > 0 && rng() % 2 == 0)
                              ? value()
                              : Term::Variable("Y" + std::to_string(b));
      plan.body.push_back(datalog::Atom(
          name, {Term::Variable("X" + std::to_string(b)), middle,
                 Term::Variable("X" + std::to_string(b + 1))}));
    }

    ExecutionTrace serial_trace;
    auto serial = ExecutePlanDependent(plan, registry, &serial_trace);
    ASSERT_TRUE(serial.ok()) << serial.status();
    for (int partitions : {1, 2, 4, 8}) {
      runtime::RuntimeOptions options;
      options.num_threads = partitions;
      options.max_partitions_per_call = partitions;
      options.time_dilation = 0.0;
      runtime::SourceRuntime runtime(&registry, options);
      auto execution = runtime.ExecutePlan(plan);
      ASSERT_TRUE(execution.ok()) << execution.status();
      ASSERT_FALSE(execution->failed) << execution->failure_reason;
      EXPECT_EQ(execution->tuples, *serial)
          << "round " << round << " partitions " << partitions;
      EXPECT_EQ(execution->tuples_shipped, serial_trace.TotalTuplesShipped())
          << "round " << round << " partitions " << partitions;
    }
  }
}

}  // namespace
}  // namespace planorder::exec
