#include "core/abstraction.h"

#include <algorithm>
#include <numeric>

#include "base/logging.h"
#include "base/rng.h"

namespace planorder::core {
namespace {

/// Sort key for kByMaskSimilarity: sources whose region arcs start nearby end
/// up adjacent, so groups have large intersections and small unions.
uint64_t MaskKey(stats::RegionMask mask) {
  if (mask.bits == 0) return 0;
  const int first = __builtin_ctzll(mask.bits);
  return (static_cast<uint64_t>(first) << 8) |
         static_cast<uint64_t>(mask.count());
}

}  // namespace

AbstractionForest AbstractionForest::Build(const stats::Workload& workload,
                                           const PlanSpace& space,
                                           AbstractionHeuristic heuristic,
                                           uint64_t seed) {
  AbstractionForest forest;
  forest.roots_.resize(space.num_buckets());
  Rng rng(seed ^ 0xabcdef12345ull);
  for (int b = 0; b < space.num_buckets(); ++b) {
    std::vector<int> ordered = space.buckets[b];
    switch (heuristic) {
      case AbstractionHeuristic::kByCardinality:
        std::sort(ordered.begin(), ordered.end(), [&](int x, int y) {
          return workload.source(b, x).cardinality <
                 workload.source(b, y).cardinality;
        });
        break;
      case AbstractionHeuristic::kByMaskSimilarity:
        std::sort(ordered.begin(), ordered.end(), [&](int x, int y) {
          return MaskKey(workload.source(b, x).regions) <
                 MaskKey(workload.source(b, y).regions);
        });
        break;
      case AbstractionHeuristic::kRandom:
        std::shuffle(ordered.begin(), ordered.end(), rng.engine());
        break;
    }
    forest.roots_[b] = forest.BuildRange(workload, b, ordered, 0,
                                         static_cast<int>(ordered.size()));
  }
  return forest;
}

int AbstractionForest::BuildRange(const stats::Workload& workload, int bucket,
                                  const std::vector<int>& ordered, int lo,
                                  int hi) {
  PLANORDER_CHECK_LT(lo, hi);
  if (hi - lo == 1) {
    summaries_.push_back(workload.summary(bucket, ordered[lo]));
    left_.push_back(kNoChild);
    right_.push_back(kNoChild);
    return static_cast<int>(summaries_.size() - 1);
  }
  const int mid = lo + (hi - lo) / 2;
  const int left = BuildRange(workload, bucket, ordered, lo, mid);
  const int right = BuildRange(workload, bucket, ordered, mid, hi);
  summaries_.push_back(stats::StatSummary::Merge(
      summaries_[static_cast<size_t>(left)],
      summaries_[static_cast<size_t>(right)]));
  left_.push_back(static_cast<uint32_t>(left));
  right_.push_back(static_cast<uint32_t>(right));
  return static_cast<int>(summaries_.size() - 1);
}

bool AbstractPlan::IsConcrete() const {
  for (int node : nodes) {
    if (!forest->is_leaf(node)) return false;
  }
  return true;
}

ConcretePlan AbstractPlan::ToConcrete() const {
  ConcretePlan plan(nodes.size());
  for (size_t b = 0; b < nodes.size(); ++b) {
    PLANORDER_CHECK(forest->is_leaf(nodes[b]));
    plan[b] = forest->leaf_source(nodes[b]);
  }
  return plan;
}

std::vector<const stats::StatSummary*> AbstractPlan::Summaries() const {
  std::vector<const stats::StatSummary*> out(nodes.size());
  for (size_t b = 0; b < nodes.size(); ++b) {
    out[b] = &forest->summary(nodes[b]);
  }
  return out;
}

uint64_t AbstractPlan::NumConcretePlans() const {
  uint64_t n = 1;
  for (int node : nodes) n *= forest->summary(node).members.size();
  return n;
}

}  // namespace planorder::core
