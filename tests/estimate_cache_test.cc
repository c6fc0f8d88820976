// Oracle tests of the estimator's binding-hash memo: an estimate taken
// through a memo, in whatever state, must equal a fresh
// EstimateWorkloadFromInstances bit for bit — every SourceStats field, every
// region weight and every domain size.

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "datalog/unify.h"
#include "exec/synthetic_domain.h"
#include "reformulation/statistics.h"

namespace planorder::reformulation {
namespace {

using datalog::Atom;
using datalog::ConjunctiveQuery;
using datalog::Term;

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectBitIdentical(const stats::Workload& got,
                        const stats::Workload& want) {
  ASSERT_EQ(got.num_buckets(), want.num_buckets());
  EXPECT_EQ(Bits(got.access_overhead()), Bits(want.access_overhead()));
  for (int b = 0; b < want.num_buckets(); ++b) {
    ASSERT_EQ(got.bucket_size(b), want.bucket_size(b)) << "bucket " << b;
    for (int i = 0; i < want.bucket_size(b); ++i) {
      const stats::SourceStats& g = got.source(b, i);
      const stats::SourceStats& w = want.source(b, i);
      EXPECT_EQ(Bits(g.cardinality), Bits(w.cardinality)) << b << "/" << i;
      EXPECT_EQ(Bits(g.transmission_cost), Bits(w.transmission_cost));
      EXPECT_EQ(Bits(g.failure_prob), Bits(w.failure_prob));
      EXPECT_EQ(Bits(g.fee), Bits(w.fee));
      EXPECT_EQ(g.regions.bits, w.regions.bits) << b << "/" << i;
    }
    ASSERT_EQ(got.region_weights()[b].size(), want.region_weights()[b].size());
    for (size_t r = 0; r < want.region_weights()[b].size(); ++r) {
      EXPECT_EQ(Bits(got.region_weights()[b][r]),
                Bits(want.region_weights()[b][r]))
          << "bucket " << b << " region " << r;
    }
    EXPECT_EQ(Bits(got.domain_size(b)), Bits(want.domain_size(b)));
  }
}

/// Buckets + estimate through `memo` (nullptr = the fresh public entry).
stats::Workload Estimate(const ConjunctiveQuery& query,
                         const datalog::Catalog& catalog,
                         const datalog::Database& facts,
                         BindingHashMemo* memo) {
  auto buckets = BuildBuckets(query, catalog);
  EXPECT_TRUE(buckets.ok()) << buckets.status();
  auto workload =
      memo == nullptr
          ? EstimateWorkloadFromInstances(query, catalog, *buckets, facts)
          : EstimateWorkloadFromInstances(query, catalog, *buckets, facts, {},
                                          *memo);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return *std::move(workload);
}

/// Cached (through `memo`) against fresh for `query`.
void ExpectCachedEqualsFresh(const ConjunctiveQuery& query,
                             const datalog::Catalog& catalog,
                             const datalog::Database& facts,
                             BindingHashMemo& memo) {
  SCOPED_TRACE(query.ToString());
  ExpectBitIdentical(Estimate(query, catalog, facts, &memo),
                     Estimate(query, catalog, facts, nullptr));
}

int64_t Members(const ConjunctiveQuery& query,
                const datalog::Catalog& catalog) {
  auto buckets = BuildBuckets(query, catalog);
  EXPECT_TRUE(buckets.ok());
  int64_t members = 0;
  for (const auto& bucket : buckets->buckets) members += int64_t(bucket.size());
  return members;
}

std::unique_ptr<exec::SyntheticDomain> MakeDomain(uint64_t seed,
                                                  int bucket_size = 8) {
  stats::WorkloadOptions options;
  options.query_length = 3;
  options.bucket_size = bucket_size;
  options.overlap_rate = 0.4;
  options.regions_per_bucket = 8;
  options.seed = seed;
  auto domain = exec::BuildSyntheticDomain(options, /*num_answers=*/150);
  EXPECT_TRUE(domain.ok()) << domain.status();
  return std::move(*domain);
}

/// `query` with every variable renamed by `rename`.
ConjunctiveQuery Renamed(const ConjunctiveQuery& query,
                         std::string (*rename)(const std::string&)) {
  datalog::Substitution subst;
  for (const std::string& v : query.Variables()) {
    subst[v] = Term::Variable(rename(v));
  }
  ConjunctiveQuery out;
  out.head = datalog::ApplySubstitution(query.head, subst);
  for (const Atom& atom : query.body) {
    out.body.push_back(datalog::ApplySubstitution(atom, subst));
  }
  return out;
}

/// The chain under every head of one variable or an ordered pair of
/// distinct variables: 16 projections of a 3-subgoal chain, one body.
std::vector<ConjunctiveQuery> HeadProjections(const ConjunctiveQuery& chain) {
  std::vector<Term> variables = {chain.body.front().args.front()};
  for (const Atom& atom : chain.body) variables.push_back(atom.args.back());
  std::vector<ConjunctiveQuery> projections;
  for (const Term& first : variables) {
    ConjunctiveQuery one = chain;
    one.head.args = {first};
    projections.push_back(one);
    for (const Term& second : variables) {
      if (second == first) continue;
      ConjunctiveQuery two = chain;
      two.head.args = {first, second};
      projections.push_back(two);
    }
  }
  return projections;
}

TEST(EstimateCacheTest, SyntheticDomainsAtSeveralSeeds) {
  for (const uint64_t seed : {1u, 7u, 42u, 7919u}) {
    SCOPED_TRACE(seed);
    auto domain = MakeDomain(seed);
    BindingHashMemo memo;
    // Cold memo, then warm: both equal the fresh estimate.
    ExpectCachedEqualsFresh(domain->query, domain->catalog,
                            domain->source_facts, memo);
    const BindingHashMemo::Stats cold = memo.stats();
    EXPECT_EQ(cold.hits, 0);
    EXPECT_EQ(cold.misses, Members(domain->query, domain->catalog));
    ExpectCachedEqualsFresh(domain->query, domain->catalog,
                            domain->source_facts, memo);
    EXPECT_EQ(memo.stats().hits, cold.misses);
    EXPECT_EQ(memo.stats().misses, cold.misses);
    for (const ConjunctiveQuery& projection : HeadProjections(domain->query)) {
      ExpectCachedEqualsFresh(projection, domain->catalog,
                              domain->source_facts, memo);
    }
  }
}

TEST(EstimateCacheTest, IsomorphicRenamingHits) {
  auto domain = MakeDomain(11);
  BindingHashMemo memo;
  ExpectCachedEqualsFresh(domain->query, domain->catalog, domain->source_facts,
                          memo);
  const BindingHashMemo::Stats before = memo.stats();
  // Prefixing every name keeps the sorted order of every subgoal's
  // variables, so every (source, pattern) key repeats.
  const ConjunctiveQuery renamed = Renamed(
      domain->query, [](const std::string& v) { return "Renamed" + v; });
  ExpectCachedEqualsFresh(renamed, domain->catalog, domain->source_facts,
                          memo);
  EXPECT_EQ(memo.stats().misses, before.misses);
  EXPECT_EQ(memo.stats().hits,
            before.hits + Members(renamed, domain->catalog));
}

TEST(EstimateCacheTest, PermutedSortedOrderMissesOrStaysIdentical) {
  auto domain = MakeDomain(13);
  BindingHashMemo memo;
  ExpectCachedEqualsFresh(domain->query, domain->catalog, domain->source_facts,
                          memo);
  const BindingHashMemo::Stats before = memo.stats();
  // X0..X3 -> Z9..Z6 reverses the sorted order inside every two-variable
  // subgoal: its projection columns swap, so its hashes differ and the key
  // must too.
  const ConjunctiveQuery reversed =
      Renamed(domain->query, [](const std::string& v) {
        return "Z" + std::to_string(9 - std::stoi(v.substr(1)));
      });
  for (const Atom& atom : domain->query.body) {
    ASSERT_EQ(atom.args.size(), 2u);
    ASSERT_TRUE(atom.args[0].is_variable() && atom.args[1].is_variable());
    ASSERT_LT(atom.args[0].name(), atom.args[1].name());
  }
  ExpectCachedEqualsFresh(reversed, domain->catalog, domain->source_facts,
                          memo);
  EXPECT_EQ(memo.stats().hits, before.hits);
  EXPECT_EQ(memo.stats().misses,
            before.misses + Members(reversed, domain->catalog));
}

/// A hand-built catalog over one binary relation, with a source per shape.
struct SmallDomain {
  datalog::Catalog catalog;
  datalog::Database facts;

  SmallDomain() {
    EXPECT_TRUE(catalog.schema().AddRelation("p", 2).ok());
    EXPECT_TRUE(catalog.schema().AddRelation("r", 1).ok());
    for (const char* view :
         {"a(X,Y) :- p(X,Y)", "b(X,Y) :- p(X,Y)", "c(X) :- p(X,X)",
          "d(Y) :- p(k1,Y)", "e(X) :- r(X)"}) {
      EXPECT_TRUE(catalog.AddSourceFromText(view).ok());
    }
    for (const char* fact :
         {"a(k1,k2)", "a(k1,k3)", "a(k2,k2)", "a(k3,k3)", "a(k2,k1)",
          "b(k1,k2)", "b(k3,k3)", "b(k2,k4)", "c(k2)", "c(k4)", "d(k2)",
          "d(k5)", "e(k1)", "e(k2)", "e(k3)"}) {
      auto atom = datalog::ParseAtom(fact);
      EXPECT_TRUE(atom.ok());
      facts.AddFact(*atom);
    }
  }

  ConjunctiveQuery Query(const char* text) const {
    auto query = datalog::ParseRule(text);
    EXPECT_TRUE(query.ok()) << query.status();
    return *query;
  }
};

TEST(EstimateCacheTest, ConstantsRepeatedVariablesAndGroundSubgoals) {
  SmallDomain domain;
  BindingHashMemo memo;
  const char* queries[] = {
      "q(Y) :- p(k1,Y)",           // constant in the goal
      "q(Y) :- p(k2,Y)",           // another constant: another key
      "q(X) :- p(X,X)",            // repeated variable
      "q(X) :- r(X), p(k1,k2)",    // fully ground subgoal
      "q(X) :- r(X), p(k9,k9)",    // ground and unmatched
      "q(X,Y) :- p(X,Y), r(X)",    // plain pattern
      "q(B) :- p(A,B), r(A)",      // same pattern under other names
      "q(Y) :- p(Y,X), r(Y)",      // sorted order swapped against the args
      "q(Y) :- p(k1,Y)",           // repeat: every key resident
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (const char* text : queries) {
      ExpectCachedEqualsFresh(domain.Query(text), domain.catalog, domain.facts,
                              memo);
    }
  }
  // p(k1,Y) and p(k2,Y) differ in their constant, p(X,X) is not p(X,Y),
  // and p(A,B) is p(X,Y).
  auto pattern = [&domain](const char* text) {
    return BindingHashMemo::PatternOf(domain.Query(text).body[0]);
  };
  EXPECT_NE(pattern("q(Y) :- p(k1,Y)"), pattern("q(Y) :- p(k2,Y)"));
  EXPECT_NE(pattern("q(X) :- p(X,X)"), pattern("q(X) :- p(X,Y)"));
  EXPECT_EQ(pattern("q(B) :- p(A,B)"), pattern("q(Y) :- p(X,Y)"));
  EXPECT_NE(pattern("q(B) :- p(B,A)"), pattern("q(Y) :- p(X,Y)"));
  EXPECT_GT(memo.stats().hits, 0);
}

TEST(EstimateCacheTest, VariablesNamedLikeRenamedViewVariables) {
  // The estimator renames view variables apart with an `_s` suffix (X to
  // X_s); a query variable of that form must not capture one. Scanning the
  // pattern makes each of these the estimate of p(C,A) or its transpose.
  SmallDomain domain;
  const stats::Workload plain =
      Estimate(domain.Query("q(A) :- p(C,A)"), domain.catalog, domain.facts,
               nullptr);
  BindingHashMemo memo;
  for (const char* text : {"q(A) :- p(Y_s,A)", "q(A) :- p(A,X_s)"}) {
    SCOPED_TRACE(text);
    const ConjunctiveQuery query = domain.Query(text);
    ExpectBitIdentical(Estimate(query, domain.catalog, domain.facts, nullptr),
                       plain);
    ExpectCachedEqualsFresh(query, domain.catalog, domain.facts, memo);
  }
}

TEST(EstimateCacheTest, PredicateAtTwoArities) {
  // The query uses p at arity 2 and at arity 3; source 0 (a view over p/2)
  // is put in both buckets by hand. Only the binary subgoal unifies with the
  // view, so the two keys must stay apart.
  SmallDomain domain;
  const ConjunctiveQuery query = domain.Query("q(X) :- p(X,Y), p(X,Y,Z)");
  BucketResult buckets;
  buckets.buckets = {{0}, {0}};
  BindingHashMemo memo;
  for (int pass = 0; pass < 2; ++pass) {
    auto cached = EstimateWorkloadFromInstances(query, domain.catalog, buckets,
                                                domain.facts, {}, memo);
    auto fresh = EstimateWorkloadFromInstances(query, domain.catalog, buckets,
                                               domain.facts);
    ASSERT_TRUE(cached.ok() && fresh.ok());
    ExpectBitIdentical(*cached, *fresh);
    EXPECT_DOUBLE_EQ(cached->source(0, 0).cardinality, 5.0);
    EXPECT_DOUBLE_EQ(cached->source(1, 0).cardinality, 1.0);  // empty: floor
  }
  EXPECT_EQ(memo.stats().misses, 2);
  EXPECT_EQ(memo.stats().hits, 2);
}

TEST(EstimateCacheTest, EvictionUnderATinyCapacity) {
  auto domain = MakeDomain(17);
  constexpr size_t kCapacity = 300;
  BindingHashMemo memo(kCapacity);
  for (int pass = 0; pass < 2; ++pass) {
    for (const ConjunctiveQuery& projection : HeadProjections(domain->query)) {
      ExpectCachedEqualsFresh(projection, domain->catalog,
                              domain->source_facts, memo);
      EXPECT_LE(memo.stats().bytes, kCapacity);
    }
  }
  EXPECT_GT(memo.stats().evictions, 0);
  // A zero-byte memo keeps nothing and still estimates exactly.
  BindingHashMemo none(0);
  ExpectCachedEqualsFresh(domain->query, domain->catalog, domain->source_facts,
                          none);
  ExpectCachedEqualsFresh(domain->query, domain->catalog, domain->source_facts,
                          none);
  EXPECT_EQ(none.stats().hits, 0);
  EXPECT_EQ(none.stats().bytes, 0u);
}

TEST(EstimateCacheTest, ConcurrentEstimatesThroughOneMemoMatchSerial) {
  auto domain = MakeDomain(7919, /*bucket_size=*/16);
  const std::vector<ConjunctiveQuery> projections =
      HeadProjections(domain->query);
  ASSERT_EQ(projections.size(), 16u);
  std::vector<stats::Workload> serial;
  for (const ConjunctiveQuery& projection : projections) {
    serial.push_back(Estimate(projection, domain->catalog,
                              domain->source_facts, nullptr));
  }
  BindingHashMemo memo;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different projection, so misses on one key
      // race with hits on another.
      for (size_t k = 0; k < projections.size(); ++k) {
        const size_t c = (k + size_t(t) * 2) % projections.size();
        ExpectBitIdentical(Estimate(projections[c], domain->catalog,
                                    domain->source_facts, &memo),
                           serial[c]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const BindingHashMemo::Stats stats = memo.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            kThreads * int64_t(projections.size()) *
                Members(domain->query, domain->catalog));
  EXPECT_GT(stats.hits, 0);
  EXPECT_EQ(stats.evictions, 0);
}

}  // namespace
}  // namespace planorder::reformulation
