// The "bring your own data" pipeline: no hand-written statistics at all.
//
//  1. declare schema + LAV sources, load their instances,
//  2. ESTIMATE the ordering statistics from the instances
//     (cardinalities per subgoal; coverage regions from binding
//     co-occurrence signatures — bindings held by the same set of sources
//     form a coverage cluster),
//  3. order plans by conditional coverage with Streamer and execute.
//
// The domain: two communities of publications. Sources cite-db-a/b cover
// community A (heavily overlapping), cite-db-c covers community B; review
// aggregators split the same way. Watch the ordering interleave one plan
// per community before bothering with redundant source combinations.
//
// Build & run:  cmake --build build && ./build/examples/estimated_stats

#include <cstdio>

#include "core/orderer_factory.h"
#include "datalog/parser.h"
#include "exec/mediator.h"
#include "reference/orderer_factory.h"
#include "reformulation/bucket.h"
#include "reformulation/statistics.h"
#include "utility/coverage_model.h"

namespace {

using namespace planorder;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  datalog::Catalog catalog;
  if (Status s = catalog.schema().AddRelation("about", 2); !s.ok()) {
    return Fail(s);
  }
  if (Status s = catalog.schema().AddRelation("rated", 2); !s.ok()) {
    return Fail(s);
  }
  for (const char* text : {
           "cite-db-a(P,T) :- about(P,T)",
           "cite-db-b(P,T) :- about(P,T)",
           "cite-db-c(P,T) :- about(P,T)",
           "ratings-x(P,S) :- rated(P,S)",
           "ratings-y(P,S) :- rated(P,S)",
       }) {
    if (auto id = catalog.AddSourceFromText(text); !id.ok()) {
      return Fail(id.status());
    }
  }
  auto query = datalog::ParseRule("q(P,S) :- about(P,databases), rated(P,S)");
  if (!query.ok()) return Fail(query.status());

  // Instances: community A papers a0..a19 (in cite-db-a AND cite-db-b),
  // community B papers b0..b29 (cite-db-c only). Ratings split likewise,
  // with ratings-x covering community A plus a slice of B.
  datalog::Database facts;
  auto add = [&](const std::string& source, const std::string& x,
                 const std::string& y) {
    facts.AddFact(datalog::Atom(
        source, {datalog::Term::Constant(x), datalog::Term::Constant(y)}));
  };
  for (int i = 0; i < 20; ++i) {
    const std::string paper = "a" + std::to_string(i);
    add("cite-db-a", paper, "databases");
    add("cite-db-b", paper, "databases");
    add("ratings-x", paper, "s" + std::to_string(i % 5));
  }
  for (int i = 0; i < 30; ++i) {
    const std::string paper = "b" + std::to_string(i);
    add("cite-db-c", paper, "databases");
    add((i < 10) ? "ratings-x" : "ratings-y", paper,
        "s" + std::to_string(i % 5));
  }

  auto buckets = reformulation::BuildBuckets(*query, catalog);
  if (!buckets.ok()) return Fail(buckets.status());
  auto workload = reformulation::EstimateWorkloadFromInstances(
      *query, catalog, *buckets, facts);
  if (!workload.ok()) return Fail(workload.status());

  std::printf("estimated statistics:\n");
  for (size_t b = 0; b < buckets->buckets.size(); ++b) {
    for (size_t i = 0; i < buckets->buckets[b].size(); ++i) {
      const stats::SourceStats& s = workload->source(int(b), int(i));
      std::printf("  %-10s cardinality=%5.0f regions=0x%llx\n",
                  catalog.source(buckets->buckets[b][i]).name.c_str(),
                  s.cardinality,
                  static_cast<unsigned long long>(s.regions.bits));
    }
  }

  utility::CoverageModel model(&*workload);
  auto orderer = core::MakeReferenceOrderer(
      {core::OrdererKind::kStreamer}, &*workload, &model,
      {core::PlanSpace::FullSpace(*workload)});
  if (!orderer.ok()) return Fail(orderer.status());

  std::vector<std::vector<datalog::SourceId>> source_ids;
  for (const auto& bucket : buckets->buckets) source_ids.push_back(bucket);
  exec::Mediator mediator(&catalog, *query, source_ids);
  auto result = mediator.Run(**orderer, {.max_plans = 6},
                             *exec::MakeSetOrientedExecutor(&facts));
  if (!result.ok()) return Fail(result.status());

  std::printf("\nplan stream (estimated conditional coverage):\n");
  for (size_t i = 0; i < result->steps.size(); ++i) {
    const exec::MediatorStep& step = result->steps[i];
    std::printf("%2zu. %-10s x %-9s est=%5.2f  +%zu new answers (cum %zu)\n",
                i + 1,
                catalog.source(buckets->buckets[0][step.plan[0]]).name.c_str(),
                catalog.source(buckets->buckets[1][step.plan[1]]).name.c_str(),
                step.estimated_utility, step.new_answers, step.total_answers);
  }
  std::printf("\n%zu of 50 rated papers found after %zu plans\n",
              result->total_answers, result->steps.size());
  return 0;
}
