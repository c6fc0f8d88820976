// The digital-camera shopping domain of Section 3 ("Source Similarity").
//
// Dozens of camera sellers fall into natural groups — discount resellers,
// specialized camera stores, national electronics chains, general-merchandise
// chains — and review sites split into free and paid. Similar sources can be
// abstracted and reasoned about as one, which is exactly what iDrips and
// Streamer exploit.
//
// This example builds a two-subgoal query (find a seller offering a camera
// and a review for it), materializes four seller groups x two review groups
// with distinct coverage/overlap behavior, and streams plans by conditional
// COVERAGE with Streamer: watch the first plans pair a big national chain
// with a free review site, and later plans chase the remaining niches.
//
// Build & run:  cmake --build build && ./build/examples/camera_shopping

#include <cstdio>
#include <string>

#include "core/orderer_factory.h"
#include "reference/orderer_factory.h"
#include "utility/coverage_model.h"

namespace {

using namespace planorder;

struct SellerSpec {
  const char* name;
  int first_region;  // camera-catalog segment the group starts at
  int arc;           // how many segments it carries
  double tuples;
};

}  // namespace

int main() {
  // Bucket 0: sellers over a camera catalog partitioned into 16 segments
  // (entry-level ... professional). Groups cover characteristic segments.
  const SellerSpec sellers[] = {
      // Discount resellers: entry-level only, small catalogs.
      {"bargain-cam", 0, 3, 120}, {"deal-depot", 1, 3, 100},
      {"cheap-shots", 2, 3, 90},
      // General-merchandise chains: mid-range, no high end.
      {"target-ish", 3, 6, 400}, {"wallmart-ish", 4, 6, 450},
      {"costco-ish", 5, 5, 350},
      // National electronics chains: extensive offerings.
      {"best-buy-ish", 2, 11, 900}, {"circuit-city-ish", 3, 11, 850},
      // Specialized camera stores: the high end.
      {"pro-photo", 11, 5, 150}, {"lens-masters", 12, 4, 130},
  };
  // Bucket 1: review sites over the same 16 segments.
  const SellerSpec reviewers[] = {
      {"dpreview-ish (free)", 0, 12, 700},
      {"camera-blog (free)", 2, 9, 400},
      {"consumerreports-ish (paid)", 4, 12, 800},
      {"photo-mag (paid)", 10, 6, 200},
  };

  auto make_bucket = [](const SellerSpec* specs, size_t n) {
    std::vector<stats::SourceStats> bucket;
    for (size_t i = 0; i < n; ++i) {
      stats::SourceStats s;
      for (int r = 0; r < specs[i].arc; ++r) {
        s.regions.bits |= uint64_t{1} << ((specs[i].first_region + r) % 16);
      }
      s.cardinality = specs[i].tuples;
      s.transmission_cost = 0.2;
      bucket.push_back(s);
    }
    return bucket;
  };

  std::vector<std::vector<stats::SourceStats>> buckets = {
      make_bucket(sellers, std::size(sellers)),
      make_bucket(reviewers, std::size(reviewers))};
  std::vector<std::vector<double>> weights(2,
                                           std::vector<double>(16, 1.0 / 16));
  auto workload =
      stats::Workload::FromParts(buckets, weights, 5.0, {2000.0, 2000.0});
  if (!workload.ok()) {
    std::fprintf(stderr, "error: %s\n", workload.status().ToString().c_str());
    return 1;
  }

  utility::CoverageModel coverage(&*workload);
  auto streamer = core::MakeReferenceOrderer(
      {core::OrdererKind::kStreamer}, &*workload, &coverage,
      {core::PlanSpace::FullSpace(*workload)});
  if (!streamer.ok()) {
    std::fprintf(stderr, "error: %s\n", streamer.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "plan stream by conditional coverage (seller x review site):\n\n");
  double cumulative = 0.0;
  int64_t first_plan_evals = 0;
  for (int rank = 1; rank <= 12; ++rank) {
    auto next = (*streamer)->Next();
    if (!next.ok()) break;
    if (rank == 1) first_plan_evals = (*streamer)->plan_evaluations();
    cumulative += next->utility;
    std::printf("%2d. %-18s x %-28s +%5.1f%% of answers (cum %5.1f%%)\n",
                rank, sellers[next->plan[0]].name,
                reviewers[next->plan[1]].name, 100.0 * next->utility,
                100.0 * cumulative);
  }
  std::printf(
      "\nbest plan found after %lld evaluations (of %d concrete plans); the "
      "first six plans already cover every answer the %d plans can return\n",
      static_cast<long long>(first_plan_evals),
      static_cast<int>(std::size(sellers) * std::size(reviewers)),
      static_cast<int>(std::size(sellers) * std::size(reviewers)));
  return 0;
}
