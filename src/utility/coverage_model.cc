#include "utility/coverage_model.h"

#include <algorithm>
#include <functional>

#include "base/logging.h"

namespace planorder::utility {

Interval CoverageModel::Evaluate(NodeSpan nodes,
                                 const ExecutionContext& ctx) const {
  // Stack boxes — this is the innermost evaluation path of every orderer and
  // must not allocate (DESIGN.md §11).
  constexpr size_t kMaxDims =
      static_cast<size_t>(stats::BitmaskUniverse::kMaxDims);
  PLANORDER_CHECK_LE(nodes.size(), kMaxDims);
  stats::RegionMask upper_box[kMaxDims];
  stats::RegionMask lower_box[kMaxDims];
  bool concrete = true;
  double member_bound = 1.0;  // every member's box volume is at most this
  for (size_t b = 0; b < nodes.size(); ++b) {
    upper_box[b] = nodes[b]->mask_union;
    lower_box[b] = nodes[b]->mask_intersection;
    member_bound *= nodes[b]->mask_weight_max;
    concrete = concrete && nodes[b]->is_concrete();
  }
  if (concrete) {
    return Interval::Point(ctx.universe().UncoveredBoxVolume(upper_box));
  }
  // Upper bound: the unconditioned member bound, tightened by the residual
  // of the union box when that box is small enough to enumerate cheaply
  // (near the root the union covers most of the universe and the residual
  // adds nothing over member_bound anyway; both are sound enclosures).
  double hi = member_bound;
  uint64_t union_cells = 1;
  for (size_t b = 0; b < nodes.size(); ++b) {
    union_cells *= static_cast<uint64_t>(upper_box[b].count());
  }
  if (union_cells <= 2048) {
    hi = std::min(hi, ctx.universe().UncoveredBoxVolume(upper_box));
  }
  const double lo = ctx.universe().UncoveredBoxVolume(lower_box);
  // lo <= hi mathematically; guard against floating-point jitter.
  return Interval(std::min(lo, hi), hi);
}

bool CoverageModel::GroupIndependentOf(NodeSpan nodes,
                                       const ConcretePlan& plan) const {
  for (size_t b = 0; b < nodes.size(); ++b) {
    const stats::RegionMask mp =
        workload().source(static_cast<int>(b), plan[b]).regions;
    if (!nodes[b]->mask_union.Intersects(mp)) return true;
  }
  return false;
}

std::optional<ConcretePlan> CoverageModel::FindIndependentGroupPlan(
    NodeSpan nodes, const std::vector<const ConcretePlan*>& others) const {
  const size_t n = others.size();
  const size_t m = nodes.size();
  ConcretePlan witness(m);
  for (size_t b = 0; b < m; ++b) witness[b] = nodes[b]->members[0];
  if (n == 0) return witness;
  const size_t words = (n + 63) / 64;

  // kill set of a member source s at bucket b: the plans in `others` whose
  // source at b is region-disjoint from s (those plans cannot affect — nor be
  // affected by — any plan using s at b).
  using Bits = std::vector<uint64_t>;
  auto all_killed = [&](const Bits& bits) {
    for (size_t w = 0; w + 1 < words; ++w) {
      if (~bits[w] != 0) return false;
    }
    const uint64_t last_mask =
        (n % 64 == 0) ? ~uint64_t{0} : ((uint64_t{1} << (n % 64)) - 1);
    return (bits[words - 1] & last_mask) == last_mask;
  };

  struct Kill {
    Bits bits;
    int member;
  };
  std::vector<std::vector<Kill>> bucket_kills(m);
  std::vector<Bits> suffix_union(m + 1, Bits(words, 0));
  for (size_t b = 0; b < m; ++b) {
    std::vector<Kill>& kills = bucket_kills[b];
    for (int member : nodes[b]->members) {
      const stats::RegionMask ms =
          workload().source(static_cast<int>(b), member).regions;
      Bits bits(words, 0);
      for (size_t e = 0; e < n; ++e) {
        const stats::RegionMask me = workload()
                                         .source(static_cast<int>(b),
                                                 (*others[e])[b])
                                         .regions;
        if (!ms.Intersects(me)) bits[e / 64] |= uint64_t{1} << (e % 64);
      }
      // Keep only maximal kill sets: a subset of an existing set is useless.
      bool dominated = false;
      for (size_t i = 0; i < kills.size();) {
        bool bits_subset = true, kills_subset = true;
        for (size_t w = 0; w < words; ++w) {
          if ((bits[w] & ~kills[i].bits[w]) != 0) bits_subset = false;
          if ((kills[i].bits[w] & ~bits[w]) != 0) kills_subset = false;
        }
        if (bits_subset) {
          dominated = true;
          break;
        }
        if (kills_subset) {
          kills[i] = std::move(kills.back());
          kills.pop_back();
        } else {
          ++i;
        }
      }
      if (!dominated) kills.push_back(Kill{std::move(bits), member});
    }
  }
  for (size_t b = m; b-- > 0;) {
    suffix_union[b] = suffix_union[b + 1];
    for (const Kill& kill : bucket_kills[b]) {
      for (size_t w = 0; w < words; ++w) suffix_union[b][w] |= kill.bits[w];
    }
  }

  // DFS over buckets with a node budget; giving up is sound (link dropped,
  // extra recomputation, never a wrong ordering). Buckets beyond the point
  // where everything is killed keep the default member.
  int budget = 20'000;
  std::function<bool(size_t, const Bits&)> dfs = [&](size_t b,
                                                     const Bits& covered) {
    if (all_killed(covered)) return true;
    if (b == m || --budget <= 0) return false;
    // Prune: even killing with every remaining option cannot finish.
    Bits best = covered;
    for (size_t w = 0; w < words; ++w) best[w] |= suffix_union[b][w];
    if (!all_killed(best)) return false;
    for (const Kill& kill : bucket_kills[b]) {
      Bits next = covered;
      for (size_t w = 0; w < words; ++w) next[w] |= kill.bits[w];
      witness[b] = kill.member;
      if (dfs(b + 1, next)) return true;
    }
    witness[b] = nodes[b]->members[0];
    return false;
  };
  if (dfs(0, Bits(words, 0))) return witness;
  return std::nullopt;
}

}  // namespace planorder::utility
