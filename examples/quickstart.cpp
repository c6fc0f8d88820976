// Quickstart: the paper's Figure 1 movie domain, end to end.
//
//  1. declare the mediated schema and the six LAV sources,
//  2. pose the query "reviews of movies starring Ford",
//  3. build the buckets (the reformulation step),
//  4. order the 3 x 3 plan space by a cost measure with the Greedy
//     algorithm (Section 4) and print the plans as they stream out,
//     soundness-checked and rewritten over the sources.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "core/orderer_factory.h"
#include "datalog/parser.h"
#include "reformulation/bucket.h"
#include "reformulation/executable_order.h"
#include "utility/cost_models.h"

namespace {

using namespace planorder;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  // --- Schema and sources (Figure 1). -----------------------------------
  datalog::Catalog catalog;
  for (auto [name, arity] : {std::pair<const char*, size_t>{"play-in", 2},
                             {"review-of", 2},
                             {"american", 1},
                             {"russian", 1}}) {
    if (Status s = catalog.schema().AddRelation(name, arity); !s.ok()) {
      return Fail(s);
    }
  }
  const char* source_texts[] = {
      "v1(A,M) :- play-in(A,M), american(M)",
      "v2(A,M) :- play-in(A,M), russian(M)",
      "v3(A,M) :- play-in(A,M)",
      "v4(R,M) :- review-of(R,M)",
      "v5(R,M) :- review-of(R,M)",
      "v6(R,M) :- review-of(R,M)",
  };
  for (const char* text : source_texts) {
    if (auto id = catalog.AddSourceFromText(text); !id.ok()) {
      return Fail(id.status());
    }
  }

  // --- Query and buckets. ------------------------------------------------
  auto query = datalog::ParseRule("q(M,R) :- play-in(ford,M), review-of(R,M)");
  if (!query.ok()) return Fail(query.status());
  auto buckets = reformulation::BuildBuckets(*query, catalog);
  if (!buckets.ok()) return Fail(buckets.status());
  std::printf("query: %s\n", query->ToString().c_str());
  for (size_t b = 0; b < buckets->buckets.size(); ++b) {
    std::printf("bucket %zu:", b);
    for (datalog::SourceId id : buckets->buckets[b]) {
      std::printf(" %s", catalog.source(id).name.c_str());
    }
    std::printf("\n");
  }

  // --- Per-source statistics (hand-written for the demo). ----------------
  // Access overhead h = 5; alpha and cardinality vary per source, making
  // cheap small sources attractive.
  std::vector<std::vector<stats::SourceStats>> bucket_stats(2);
  const double cardinalities[] = {40, 25, 120, 300, 80, 150};
  const double alphas[] = {0.30, 0.50, 0.20, 0.10, 0.40, 0.25};
  for (size_t b = 0; b < 2; ++b) {
    for (size_t i = 0; i < 3; ++i) {
      stats::SourceStats s;
      s.cardinality = cardinalities[3 * b + i];
      s.transmission_cost = alphas[3 * b + i];
      s.regions.bits = 1;  // coverage unused by this example
      bucket_stats[b].push_back(s);
    }
  }
  auto workload = stats::Workload::FromParts(
      bucket_stats, {{1.0}, {1.0}}, /*access_overhead=*/5.0,
      /*domain_sizes=*/{500.0, 500.0});
  if (!workload.ok()) return Fail(workload.status());

  // --- Order plans with Greedy under the additive cost measure (1). ------
  utility::AdditiveCostModel model(&*workload);
  auto greedy =
      core::MakeOrderer({core::OrdererKind::kGreedy}, &*workload, &model,
                        {core::PlanSpace::FullSpace(*workload)});
  if (!greedy.ok()) return Fail(greedy.status());

  std::printf("\nplans in decreasing utility (increasing cost):\n");
  int rank = 0;
  while (true) {
    auto next = (*greedy)->Next();
    if (!next.ok()) break;
    // Map bucket positions to catalog sources and build the sound rewriting.
    auto resolved = reformulation::ResolvePlan(*query, catalog,
                                               buckets->buckets, next->plan);
    if (!resolved.ok()) return Fail(resolved.status());
    const bool usable =
        resolved->verdict == reformulation::PlanVerdict::kUsable;
    std::printf("%2d. cost=%7.2f  %s\n", ++rank, -next->utility,
                usable ? resolved->plan.rewriting.ToString().c_str()
                       : "(unsound combination, discarded)");
    if (!usable) (*greedy)->ReportDiscarded();
  }
  std::printf("\n%lld plan evaluations for %d plans (brute force: 9)\n",
              static_cast<long long>((*greedy)->plan_evaluations()), rank);
  return 0;
}
