#include "core/streamer.h"

#include <algorithm>

#include "core/evaluate.h"

namespace planorder::core {

StatusOr<std::unique_ptr<StreamerOrderer>> StreamerOrderer::Create(
    const stats::Workload* workload, utility::UtilityModel* model,
    std::vector<PlanSpace> spaces, AbstractionHeuristic heuristic) {
  if (!model->diminishing_returns()) {
    return FailedPreconditionError(
        "Streamer requires utility-diminishing returns; '" + model->name() +
        "' does not provide it");
  }
  PLANORDER_ASSIGN_OR_RETURN(spaces,
                             ValidateSpaces(*workload, std::move(spaces)));
  auto orderer =
      std::unique_ptr<StreamerOrderer>(new StreamerOrderer(workload, model));
  // Step 1 (Figure 5): abstract every bucket once; the top plan of each
  // space enters the graph with nil utility.
  for (const PlanSpace& space : spaces) {
    orderer->forests_.push_back(std::make_unique<AbstractionForest>(
        AbstractionForest::Build(*workload, space, heuristic)));
    const AbstractionForest& forest = *orderer->forests_.back();
    AbstractPlan top;
    top.forest = &forest;
    top.nodes.resize(forest.num_buckets());
    for (int b = 0; b < forest.num_buckets(); ++b) {
      top.nodes[b] = forest.root(b);
    }
    orderer->AddNode(std::move(top));
  }
  return orderer;
}

int StreamerOrderer::AddNode(AbstractPlan plan) {
  Node node;
  node.concrete = plan.IsConcrete();
  node.summaries = plan.Summaries();
  node.plan = std::move(plan);
  nodes_.push_back(std::move(node));
  out_links_.emplace_back();
  node_version_.push_back(0);
  const int id = static_cast<int>(nodes_.size() - 1);
  alive_.insert(id);
  nondominated_.insert(id);
  // No heap entry yet: the node has no utility until its first evaluation,
  // which pushes one.
  return id;
}

void StreamerOrderer::PushNodeEntry(int node_index) {
  const Node& node = nodes_[node_index];
  FrontierHeap::Entry entry;
  entry.rank = static_cast<uint64_t>(node_index);
  entry.slot = static_cast<uint32_t>(node_index);
  entry.version = node_version_[node_index];
  if (node.concrete) {
    entry.key1 = node.utility.lo();
    concrete_heap_.Push(entry);
  } else {
    entry.key1 = node.utility.hi();
    entry.key2 = node.utility.width();
    abstract_heap_.Push(entry);
  }
}

void StreamerOrderer::AddLink(int from, int to) {
  Link link;
  link.from = from;
  link.to = to;
  // The interval test justified the link, so any member of `from` dominates;
  // the first member of each group is the initial witness.
  const std::vector<const stats::StatSummary*>& groups = nodes_[from].summaries;
  link.witness.resize(groups.size());
  for (size_t b = 0; b < groups.size(); ++b) {
    link.witness[b] = groups[b]->members.front();
  }
  link.created_epoch = ctx().epoch();
  int index;
  if (!free_links_.empty()) {
    index = free_links_.back();
    free_links_.pop_back();
    links_[index] = std::move(link);
  } else {
    links_.push_back(std::move(link));
    index = static_cast<int>(links_.size() - 1);
  }
  out_links_[from].push_back(index);
  alive_links_.insert(index);
  if (nodes_[to].incoming++ == 0) nondominated_.erase(to);
}

void StreamerOrderer::KillLink(int link_index) {
  Link& link = links_[link_index];
  if (!link.alive) return;
  link.alive = false;
  link.witness.clear();
  alive_links_.erase(link_index);
  free_links_.push_back(link_index);
  if (--nodes_[link.to].incoming == 0 && nodes_[link.to].alive) {
    nondominated_.insert(link.to);
    // Back in the frontier: re-push its (unchanged) bounds, since the heap
    // entry may have been consumed by a Peek while the node was dominated.
    // A duplicate entry is benign — consuming one always ends in RemoveNode
    // or a version bump, which kills the other.
    if (node_version_[link.to] > 0) PushNodeEntry(link.to);
  }
  auto& out = out_links_[link.from];
  out.erase(std::remove(out.begin(), out.end(), link_index), out.end());
}

void StreamerOrderer::RemoveNode(int node_index) {
  nodes_[node_index].alive = false;
  alive_.erase(node_index);
  nondominated_.erase(node_index);
  // Copy: KillLink edits out_links_[node_index].
  const std::vector<int> out = out_links_[node_index];
  for (int link_index : out) KillLink(link_index);
}

void StreamerOrderer::EvaluateNode(int node_index) {
  Node& node = nodes_[node_index];
  node.utility = EvaluateCounted(
      utility::NodeSpan(node.summaries.data(), node.summaries.size()),
      model(), ctx(), &evaluations_);
  node.eval_epoch = ctx().epoch();
  ++node_version_[node_index];
  PushNodeEntry(node_index);
}

bool StreamerOrderer::UtilityCurrent(Node& node) {
  if (node.eval_epoch < 0) return false;
  const std::vector<ConcretePlan>& executed = ctx().executed();
  const utility::NodeSpan span(node.summaries.data(), node.summaries.size());
  for (size_t i = static_cast<size_t>(node.eval_epoch); i < executed.size();
       ++i) {
    if (!model().GroupIndependentOf(span, executed[i])) {
      node.eval_epoch = -1;
      return false;
    }
  }
  node.eval_epoch = static_cast<int64_t>(executed.size());
  return true;
}

bool StreamerOrderer::Dominates(int a, int b) const {
  const Interval& ua = nodes_[a].utility;
  const Interval& ub = nodes_[b].utility;
  if (!ua.DominatesOrEquals(ub)) return false;
  // Mutual domination (point-tied utilities): only the lower id dominates,
  // keeping the dominance relation acyclic.
  if (ub.DominatesOrEquals(ua)) return a < b;
  return true;
}

bool StreamerOrderer::Precedes(int a, int b) const {
  if (nodes_[a].utility.lo() != nodes_[b].utility.lo()) {
    return nodes_[a].utility.lo() > nodes_[b].utility.lo();
  }
  return a < b;
}

void StreamerOrderer::LinkFullPass(std::vector<int>& snapshot) {
  // Create domination links among the nondominated plans. Any dominating
  // pair is sound (Figure 5 links all of them); we link each dominated plan
  // from its CLOSEST preceding dominator in utility order, so the frontier
  // forms a chain rather than a star: emitting the best plan then frees only
  // its immediate successors instead of resurfacing the whole frontier.
  // Plans dominated earlier in the pass still serve as dominators — the
  // snapshot is fixed — which is what makes the per-node scans independent.
  std::sort(snapshot.begin(), snapshot.end(),
            [this](int a, int b) { return Precedes(a, b); });
  for (size_t j = 0; j < snapshot.size(); ++j) {
    for (size_t i = j; i-- > 0;) {
      if (Dominates(snapshot[i], snapshot[j])) {
        AddLink(snapshot[i], snapshot[j]);
        break;
      }
    }
  }
}

void StreamerOrderer::LinkFresh(const std::vector<int>& fresh,
                                const std::vector<int>& candidates) {
  // Equivalent to LinkFullPass over `candidates` given that survivor-vs-
  // survivor relations are already settled: a fresh node searches the whole
  // candidate set for its closest preceding dominator, a survivor only the
  // fresh set (no survivor dominates another — their utilities have not
  // changed since the pass that left them all nondominated). "Closest
  // preceding" is the latest dominator in (lower bound desc, id asc) order,
  // exactly the one the full pass's backward scan finds first.
  const auto is_fresh = [&fresh](int n) {
    return std::find(fresh.begin(), fresh.end(), n) != fresh.end();
  };
  for (int f : fresh) {
    int best = -1;
    for (int n : candidates) {
      if (n == f || !Precedes(n, f) || !Dominates(n, f)) continue;
      if (best < 0 || Precedes(best, n)) best = n;
    }
    if (best >= 0) AddLink(best, f);
  }
  for (int s : candidates) {
    if (is_fresh(s)) continue;
    int best = -1;
    for (int f : fresh) {
      if (f == s || !Precedes(f, s) || !Dominates(f, s)) continue;
      if (best < 0 || Precedes(best, f)) best = f;
    }
    if (best >= 0) AddLink(best, s);
  }
}

StatusOr<OrderedPlan> StreamerOrderer::ComputeNext() {
  // Step 2 of Figure 5, restructured around the selection heaps (DESIGN.md
  // §11): the staleness/refresh pass and the full dominance-link pass run
  // ONCE per emission, then a heap-driven loop refines abstract frontier
  // tops — evaluating and linking only the two children per round — until
  // every nondominated plan is concrete.
  if (nondominated_.empty()) return NotFoundError("plan spaces exhausted");

  const auto abstract_live = [this](const FrontierHeap::Entry& entry) {
    const Node& node = nodes_[entry.slot];
    return node.alive && node.incoming == 0 && !node.concrete &&
           entry.version == node_version_[entry.slot];
  };
  const auto concrete_live = [this](const FrontierHeap::Entry& entry) {
    const Node& node = nodes_[entry.slot];
    return node.alive && node.incoming == 0 && node.concrete &&
           entry.version == node_version_[entry.slot];
  };
  if (abstract_heap_.size() + concrete_heap_.size() >
      4 * alive_.size() + 64) {
    abstract_heap_.Compact(abstract_live);
    concrete_heap_.Compact(concrete_live);
  }

  // (2.a) Recompute nil (or stale) utilities of nondominated plans — once
  // per emission, not once per refinement (see num_staleness_checks()), in
  // nondominated (= id) order. The staleness walk is one group-independence
  // test per executed plan since a node's evaluation.
  std::vector<int>& snapshot = scratch_;
  snapshot.clear();
  snapshot.insert(snapshot.end(), nondominated_.begin(), nondominated_.end());
  num_staleness_checks_ += static_cast<int64_t>(snapshot.size());
  for (const int id : snapshot) {
    if (!UtilityCurrent(nodes_[id])) EvaluateNode(id);
  }

  // (2.b) One full dominance-link pass now that every frontier utility is
  // current; refinements below only re-link incrementally.
  LinkFullPass(snapshot);

  // (2.c) Refine the most promising abstract frontier plan — highest upper
  // bound, ties by widest interval then lowest id — until none remains.
  // Within one emission the surviving utilities are fixed, so each round
  // only evaluates the refinement's two children and links fresh nodes.
  std::vector<int> fresh;
  std::vector<int> candidates;
  while (true) {
    const FrontierHeap::Entry* top = abstract_heap_.Peek(abstract_live);
    if (top == nullptr) break;
    const int pick = static_cast<int>(top->slot);
    abstract_heap_.PopTop();

    // Refine the bucket whose abstract source has the most members. Copies
    // of the plan (and anything else read from nodes_) are taken before
    // AddNode, which may reallocate nodes_ and out_links_.
    const AbstractPlan& plan = nodes_[pick].plan;
    const AbstractionForest& forest = *plan.forest;
    const int bucket = RefinementBucket(forest, plan.nodes);
    PLANORDER_CHECK_GE(bucket, 0);
    AbstractPlan left = plan;
    left.nodes[bucket] = forest.left(plan.nodes[bucket]);
    AbstractPlan right = plan;
    right.nodes[bucket] = forest.right(plan.nodes[bucket]);
    const int left_id = AddNode(std::move(left));
    const int right_id = AddNode(std::move(right));
    // Transfer the refined node's outgoing links to the child containing
    // each link's witness (a concrete plan of the parent, which lies in
    // exactly one child). The justification carries over to either child,
    // since its members are a subset of the parent's.
    for (int link_index : out_links_[pick]) {
      Link& link = links_[link_index];
      const std::vector<int>& left_members =
          nodes_[left_id].summaries[bucket]->members;
      int new_from = left_id;
      if (!std::binary_search(left_members.begin(), left_members.end(),
                              link.witness[bucket])) {
        new_from = right_id;
      }
      link.from = new_from;
      out_links_[new_from].push_back(link_index);
    }
    out_links_[pick].clear();
    RemoveNode(pick);

    // Evaluate the children (counter order left-then-right matches the old
    // nondominated-order refresh).
    EvaluateNode(left_id);
    EvaluateNode(right_id);

    // Incremental link pass. Fresh is exactly the two children: the
    // parent's outgoing links were transferred (not killed), so no node
    // came back into the frontier this round.
    fresh.clear();
    fresh.push_back(left_id);
    fresh.push_back(right_id);
    candidates.clear();
    candidates.insert(candidates.end(), nondominated_.begin(),
                      nondominated_.end());
    LinkFresh(fresh, candidates);
  }

  // (2.d) All nondominated plans are concrete; emit the best (exact utility
  // desc, id asc — the order the old set scan produced).
  const FrontierHeap::Entry* best = concrete_heap_.Peek(concrete_live);
  PLANORDER_CHECK(best != nullptr);
  const int emit = static_cast<int>(best->slot);
  concrete_heap_.PopTop();
  OrderedPlan result{nodes_[emit].plan.ToConcrete(),
                     nodes_[emit].utility.lo()};
  RemoveNode(emit);
  return result;
}

void StreamerOrderer::OnExecuted(const ConcretePlan& plan) {
  // Fully independent measures: no utility ever changes, so every link is
  // valid forever and there is nothing to recycle or invalidate.
  if (model().fully_independent()) return;
  // Link recycling (step 2.d, lines 2-3): a link q -> q' survives the
  // execution of `plan` iff some concrete plan in q is independent of every
  // plan executed since the link was created, including this one. The cached
  // witness makes the common case one independence test; only when it fails
  // does the link search E(p,q) for a replacement.
  const std::vector<ConcretePlan>& executed = ctx().executed();
  std::vector<const ConcretePlan*> suffix;
  std::vector<int> to_check(alive_links_.begin(), alive_links_.end());
  for (int li : to_check) {
    Link& link = links_[li];
    if (!link.alive) continue;
    if (model().Independent(link.witness, plan)) continue;
    suffix.clear();
    for (size_t i = static_cast<size_t>(link.created_epoch);
         i < executed.size(); ++i) {
      suffix.push_back(&executed[i]);
    }
    const Node& from = nodes_[link.from];
    std::optional<ConcretePlan> replacement = model().FindIndependentGroupPlan(
        utility::NodeSpan(from.summaries.data(), from.summaries.size()),
        suffix);
    if (replacement.has_value()) {
      link.witness = std::move(*replacement);
    } else {
      KillLink(li);
    }
  }
  // Utility invalidation is lazy: UtilityCurrent() verifies independence
  // against the plans executed since a node's evaluation at access time, so
  // dominated nodes cost nothing here.
}

}  // namespace planorder::core
