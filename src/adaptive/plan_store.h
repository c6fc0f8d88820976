#ifndef PLANORDER_ADAPTIVE_PLAN_STORE_H_
#define PLANORDER_ADAPTIVE_PLAN_STORE_H_

#include <string>
#include <utility>
#include <vector>

#include "adaptive/observed_stats.h"
#include "base/status.h"
#include "stats/source_stats.h"

namespace planorder::adaptive {

/// One persisted reformulation: everything a QueryService needs to serve the
/// query again without re-running bucket construction or the full-instance
/// statistics scan. The canonical text round-trips through
/// datalog::ParseRule + CanonicalizeQuery; bucket entries are SourceIds into
/// the catalog the store was written against (StoreContents::num_sources
/// guards against replaying ids into a different catalog).
struct StoredReformulation {
  std::string canonical_text;
  std::vector<std::vector<int>> buckets;
  /// stats::Workload::FromParts inputs, verbatim.
  std::vector<std::vector<stats::SourceStats>> stat_buckets;
  std::vector<std::vector<double>> region_weights;
  std::vector<double> domain_sizes;
  double access_overhead = 0.0;
};

/// Everything one store file holds: the catalog fingerprint, the persisted
/// reformulations (most-recently-used first) and the learned per-source
/// statistics.
struct StoreContents {
  int num_sources = 0;
  std::vector<StoredReformulation> entries;
  std::vector<std::pair<std::string, SourceEstimate>> observed;
};

/// Appends `v` as a C hexadecimal floating-point literal, byte-identical to
/// printf's `%a` (`0x1.8p+1`, `-0x0p+0`, `0x0.0000000000001p-1022`, `inf`):
/// the store's format for every double.
void AppendHexDouble(std::string& out, double v);

/// Versioned on-disk persistence of reformulations and learned statistics —
/// the plan memory that survives QueryService / ShardedService restarts
/// (ROADMAP "persistent plan memory"; the offline plan-store exemplar of
/// "Precomputing Datalog evaluation plans in large-scale scenarios").
///
/// Format: a line-oriented text file opening with `planorder-planstore v1`
/// and closing with a checksum line (FNV-1a over every preceding byte).
/// Doubles are written as C hexadecimal floating-point literals (`%a`, see
/// AppendHexDouble), so every statistic round-trips bit-exactly — a
/// warm-started service ranks plans byte-identically to the service that
/// wrote the store. Load verifies version, structure and checksum and
/// returns a non-OK status on any mismatch (truncation, corruption, format
/// drift); callers treat that as a cold start, never a crash. Save writes a
/// temp file and renames it into place, so readers never observe a
/// half-written store.
class PlanStore {
 public:
  static constexpr int kFormatVersion = 1;

  explicit PlanStore(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }

  /// Parses and verifies the store file. kNotFound when the file does not
  /// exist (a fresh deployment), kInvalidArgument on any damage.
  StatusOr<StoreContents> Load() const;

  /// Atomically replaces the store file with `contents`.
  Status Save(const StoreContents& contents) const;

 private:
  std::string path_;
};

}  // namespace planorder::adaptive

#endif  // PLANORDER_ADAPTIVE_PLAN_STORE_H_
