// Section 7: adapting the plan-ordering machinery to the MiniCon
// reformulation algorithm.
//
// MiniCon builds MCDs (source descriptions covering SETS of subgoals),
// groups them into generalized buckets, and combines buckets that partition
// the query's subgoals into plan spaces whose every combination is sound —
// no containment check needed. This demo shows:
//   - an MCD forced to cover two subgoals at once (existential join
//     variable), producing a single-atom rewriting the naive bucket
//     combination cannot assemble,
//   - the generalized buckets and plan spaces,
//   - every MiniCon rewriting of the query.
//
// Build & run:  cmake --build build && ./build/examples/minicon_demo

#include <cstdio>

#include "datalog/parser.h"
#include "reference/minicon.h"

namespace {

using namespace planorder;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  datalog::Catalog catalog;
  for (auto [name, arity] : {std::pair<const char*, size_t>{"cites", 2},
                             {"same-topic", 2}}) {
    if (Status s = catalog.schema().AddRelation(name, arity); !s.ok()) {
      return Fail(s);
    }
  }
  // w joins internally: its existential B forces two-subgoal MCDs.
  const char* sources[] = {
      "w(P1,P2)   :- cites(P1,B), same-topic(B,P2)",
      "vc(P,Q)    :- cites(P,Q)",
      "vt(P,Q)    :- same-topic(P,Q)",
      "vt2(P,Q)   :- same-topic(P,Q)",
  };
  for (const char* text : sources) {
    if (auto id = catalog.AddSourceFromText(text); !id.ok()) {
      return Fail(id.status());
    }
  }
  auto query =
      datalog::ParseRule("q(X,Y) :- cites(X,B), same-topic(B,Y)");
  if (!query.ok()) return Fail(query.status());
  std::printf("query: %s\n\n", query->ToString().c_str());

  auto mcds = reformulation::FormMcds(*query, catalog);
  if (!mcds.ok()) return Fail(mcds.status());
  std::printf("MCDs:\n");
  for (const reformulation::Mcd& mcd : *mcds) {
    std::printf("  source %-4s covers subgoals {",
                catalog.source(mcd.source).name.c_str());
    for (size_t g = 0; g < query->body.size(); ++g) {
      if (mcd.subgoals & (uint64_t{1} << g)) std::printf(" %zu", g);
    }
    std::printf(" }\n");
  }

  const auto buckets = reformulation::GroupMcds(*mcds);
  std::printf("\ngeneralized buckets: %zu\n", buckets.size());
  const auto spaces = reformulation::BuildMcdPlanSpaces(*query, buckets);
  std::printf("plan spaces (partitions of the subgoals): %zu\n\n",
              spaces.size());

  auto plans = reformulation::EnumerateMiniConPlans(*query, catalog);
  if (!plans.ok()) return Fail(plans.status());
  std::printf("MiniCon rewritings (all sound by construction):\n");
  for (const reformulation::QueryPlan& plan : *plans) {
    std::printf("  %s\n", plan.rewriting.ToString().c_str());
  }
  std::printf(
      "\nnote the single-atom rewriting over w: the naive bucket-combination "
      "step cannot produce it (see tests/minicon_test.cc), which is why "
      "Section 7 adapts the orderers to MiniCon's generalized buckets.\n");
  return 0;
}
