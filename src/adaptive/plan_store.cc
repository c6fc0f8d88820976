#include "adaptive/plan_store.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/hash.h"

namespace planorder::adaptive {

namespace {

/// Sanity cap on parsed counts: a store is a few queries and a few hundred
/// sources, so any count beyond this is corruption, not data.
constexpr int64_t kMaxCount = 1 << 20;

Status Malformed(const std::string& what) {
  return InvalidArgumentError("plan store: " + what);
}

/// C hexadecimal floating-point literal — exact binary round-trip.
std::string HexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

Status ParseHexDouble(const std::string& token, double* out) {
  if (token.empty()) return Malformed("empty numeric field");
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return Malformed("bad numeric field '" + token + "'");
  }
  return OkStatus();
}

Status ParseCount(const std::string& token, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || *out < 0 || *out > kMaxCount) {
    return Malformed("bad count '" + token + "'");
  }
  return OkStatus();
}

/// Pulls whitespace-separated tokens off one line, tracking exhaustion.
class TokenReader {
 public:
  explicit TokenReader(const std::string& line) : stream_(line) {}

  StatusOr<std::string> Token() {
    std::string token;
    if (!(stream_ >> token)) return Malformed("truncated line");
    return token;
  }

  StatusOr<int64_t> Count() {
    PLANORDER_ASSIGN_OR_RETURN(std::string token, Token());
    int64_t value = 0;
    PLANORDER_RETURN_IF_ERROR(ParseCount(token, &value));
    return value;
  }

  StatusOr<double> Double() {
    PLANORDER_ASSIGN_OR_RETURN(std::string token, Token());
    double value = 0.0;
    PLANORDER_RETURN_IF_ERROR(ParseHexDouble(token, &value));
    return value;
  }

 private:
  std::istringstream stream_;
};

/// Expects `line` to open with `keyword` and returns a reader over the rest.
StatusOr<TokenReader> Expect(const std::string& line,
                             const std::string& keyword) {
  TokenReader reader(line);
  PLANORDER_ASSIGN_OR_RETURN(std::string head, reader.Token());
  if (head != keyword) {
    return Malformed("expected '" + keyword + "', got '" + head + "'");
  }
  return reader;
}

class LineReader {
 public:
  explicit LineReader(const std::string& payload) : stream_(payload) {}

  StatusOr<std::string> Line() {
    std::string line;
    if (!std::getline(stream_, line)) return Malformed("truncated store");
    return line;
  }

 private:
  std::istringstream stream_;
};

}  // namespace

StatusOr<StoreContents> PlanStore::Load() const {
  std::ifstream in(path_, std::ios::binary);
  if (!in.is_open()) {
    return NotFoundError("no plan store at '" + path_ + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();

  // The last line authenticates everything before it; verify first so a
  // truncated or bit-flipped store is rejected before any parsing.
  const size_t mark = data.rfind("\nchecksum ");
  if (mark == std::string::npos) return Malformed("missing checksum");
  const std::string payload = data.substr(0, mark + 1);
  PLANORDER_ASSIGN_OR_RETURN(TokenReader sum_line,
                             Expect(data.substr(mark + 1), "checksum"));
  PLANORDER_ASSIGN_OR_RETURN(std::string sum_token, sum_line.Token());
  char* end = nullptr;
  const uint64_t declared = std::strtoull(sum_token.c_str(), &end, 16);
  if (end == nullptr || *end != '\0') return Malformed("bad checksum");
  if (declared != Fnv1a64(payload)) {
    return Malformed("checksum mismatch (corrupted store)");
  }

  LineReader lines(payload);
  PLANORDER_ASSIGN_OR_RETURN(std::string header, lines.Line());
  if (header != "planorder-planstore v" + std::to_string(kFormatVersion)) {
    return Malformed("unsupported version '" + header + "'");
  }

  StoreContents contents;
  {
    PLANORDER_ASSIGN_OR_RETURN(std::string line, lines.Line());
    PLANORDER_ASSIGN_OR_RETURN(TokenReader reader, Expect(line, "sources"));
    PLANORDER_ASSIGN_OR_RETURN(int64_t n, reader.Count());
    contents.num_sources = int(n);
  }
  {
    PLANORDER_ASSIGN_OR_RETURN(std::string line, lines.Line());
    PLANORDER_ASSIGN_OR_RETURN(TokenReader reader, Expect(line, "observed"));
    PLANORDER_ASSIGN_OR_RETURN(int64_t count, reader.Count());
    contents.observed.reserve(size_t(count));
    for (int64_t k = 0; k < count; ++k) {
      PLANORDER_ASSIGN_OR_RETURN(std::string entry_line, lines.Line());
      PLANORDER_ASSIGN_OR_RETURN(TokenReader r, Expect(entry_line, "o"));
      PLANORDER_ASSIGN_OR_RETURN(std::string name, r.Token());
      SourceEstimate e;
      PLANORDER_ASSIGN_OR_RETURN(e.windows, r.Count());
      PLANORDER_ASSIGN_OR_RETURN(e.card_windows, r.Count());
      PLANORDER_ASSIGN_OR_RETURN(e.calls, r.Count());
      PLANORDER_ASSIGN_OR_RETURN(e.cardinality, r.Double());
      PLANORDER_ASSIGN_OR_RETURN(e.latency_ms, r.Double());
      PLANORDER_ASSIGN_OR_RETURN(e.failure_prob, r.Double());
      contents.observed.emplace_back(name, e);
    }
  }
  int64_t num_entries = 0;
  {
    PLANORDER_ASSIGN_OR_RETURN(std::string line, lines.Line());
    PLANORDER_ASSIGN_OR_RETURN(TokenReader reader, Expect(line, "entries"));
    PLANORDER_ASSIGN_OR_RETURN(num_entries, reader.Count());
  }
  contents.entries.reserve(size_t(num_entries));
  for (int64_t k = 0; k < num_entries; ++k) {
    StoredReformulation entry;
    {
      PLANORDER_ASSIGN_OR_RETURN(std::string line, lines.Line());
      if (line.rfind("entry ", 0) != 0) return Malformed("expected 'entry'");
      entry.canonical_text = line.substr(6);
    }
    int64_t num_buckets = 0;
    {
      PLANORDER_ASSIGN_OR_RETURN(std::string line, lines.Line());
      PLANORDER_ASSIGN_OR_RETURN(TokenReader reader, Expect(line, "buckets"));
      PLANORDER_ASSIGN_OR_RETURN(num_buckets, reader.Count());
    }
    entry.buckets.resize(size_t(num_buckets));
    entry.stat_buckets.resize(size_t(num_buckets));
    entry.region_weights.resize(size_t(num_buckets));
    entry.domain_sizes.resize(size_t(num_buckets));
    for (int64_t b = 0; b < num_buckets; ++b) {
      PLANORDER_ASSIGN_OR_RETURN(std::string line, lines.Line());
      PLANORDER_ASSIGN_OR_RETURN(TokenReader reader, Expect(line, "b"));
      PLANORDER_ASSIGN_OR_RETURN(int64_t count, reader.Count());
      entry.buckets[b].reserve(size_t(count));
      for (int64_t i = 0; i < count; ++i) {
        PLANORDER_ASSIGN_OR_RETURN(int64_t id, reader.Count());
        entry.buckets[b].push_back(int(id));
      }
    }
    for (int64_t b = 0; b < num_buckets; ++b) {
      PLANORDER_ASSIGN_OR_RETURN(std::string line, lines.Line());
      PLANORDER_ASSIGN_OR_RETURN(TokenReader reader, Expect(line, "s"));
      PLANORDER_ASSIGN_OR_RETURN(int64_t count, reader.Count());
      entry.stat_buckets[b].reserve(size_t(count));
      for (int64_t i = 0; i < count; ++i) {
        stats::SourceStats s;
        PLANORDER_ASSIGN_OR_RETURN(s.cardinality, reader.Double());
        PLANORDER_ASSIGN_OR_RETURN(s.transmission_cost, reader.Double());
        PLANORDER_ASSIGN_OR_RETURN(s.failure_prob, reader.Double());
        PLANORDER_ASSIGN_OR_RETURN(s.fee, reader.Double());
        PLANORDER_ASSIGN_OR_RETURN(std::string mask, reader.Token());
        char* mask_end = nullptr;
        s.regions.bits = std::strtoull(mask.c_str(), &mask_end, 16);
        if (mask_end == nullptr || *mask_end != '\0') {
          return Malformed("bad region mask");
        }
        entry.stat_buckets[b].push_back(s);
      }
    }
    for (int64_t b = 0; b < num_buckets; ++b) {
      PLANORDER_ASSIGN_OR_RETURN(std::string line, lines.Line());
      PLANORDER_ASSIGN_OR_RETURN(TokenReader reader, Expect(line, "w"));
      PLANORDER_ASSIGN_OR_RETURN(int64_t count, reader.Count());
      entry.region_weights[b].reserve(size_t(count));
      for (int64_t i = 0; i < count; ++i) {
        PLANORDER_ASSIGN_OR_RETURN(double w, reader.Double());
        entry.region_weights[b].push_back(w);
      }
    }
    {
      PLANORDER_ASSIGN_OR_RETURN(std::string line, lines.Line());
      PLANORDER_ASSIGN_OR_RETURN(TokenReader reader, Expect(line, "domain"));
      for (int64_t b = 0; b < num_buckets; ++b) {
        PLANORDER_ASSIGN_OR_RETURN(entry.domain_sizes[b], reader.Double());
      }
    }
    {
      PLANORDER_ASSIGN_OR_RETURN(std::string line, lines.Line());
      PLANORDER_ASSIGN_OR_RETURN(TokenReader reader, Expect(line, "overhead"));
      PLANORDER_ASSIGN_OR_RETURN(entry.access_overhead, reader.Double());
    }
    {
      PLANORDER_ASSIGN_OR_RETURN(std::string line, lines.Line());
      if (line != "end") return Malformed("expected 'end'");
    }
    contents.entries.push_back(std::move(entry));
  }
  return contents;
}

Status PlanStore::Save(const StoreContents& contents) const {
  std::ostringstream out;
  out << "planorder-planstore v" << kFormatVersion << "\n";
  out << "sources " << contents.num_sources << "\n";
  out << "observed " << contents.observed.size() << "\n";
  for (const auto& [name, e] : contents.observed) {
    if (name.find_first_of(" \t\n") != std::string::npos) {
      return InvalidArgumentError("plan store: source name with whitespace '" +
                                  name + "'");
    }
    out << "o " << name << " " << e.windows << " " << e.card_windows << " "
        << e.calls << " " << HexDouble(e.cardinality) << " "
        << HexDouble(e.latency_ms) << " " << HexDouble(e.failure_prob) << "\n";
  }
  out << "entries " << contents.entries.size() << "\n";
  for (const StoredReformulation& entry : contents.entries) {
    if (entry.canonical_text.find('\n') != std::string::npos) {
      return InvalidArgumentError("plan store: multi-line canonical text");
    }
    out << "entry " << entry.canonical_text << "\n";
    out << "buckets " << entry.buckets.size() << "\n";
    for (const std::vector<int>& bucket : entry.buckets) {
      out << "b " << bucket.size();
      for (int id : bucket) out << " " << id;
      out << "\n";
    }
    for (const std::vector<stats::SourceStats>& bucket : entry.stat_buckets) {
      out << "s " << bucket.size();
      for (const stats::SourceStats& s : bucket) {
        char mask[32];
        std::snprintf(mask, sizeof(mask), "%llx",
                      static_cast<unsigned long long>(s.regions.bits));
        out << " " << HexDouble(s.cardinality) << " "
            << HexDouble(s.transmission_cost) << " "
            << HexDouble(s.failure_prob) << " " << HexDouble(s.fee) << " "
            << mask;
      }
      out << "\n";
    }
    for (const std::vector<double>& weights : entry.region_weights) {
      out << "w " << weights.size();
      for (double w : weights) out << " " << HexDouble(w);
      out << "\n";
    }
    out << "domain";
    for (double d : entry.domain_sizes) out << " " << HexDouble(d);
    out << "\n";
    out << "overhead " << HexDouble(entry.access_overhead) << "\n";
    out << "end\n";
  }
  const std::string payload = out.str();
  char sum[32];
  std::snprintf(sum, sizeof(sum), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(payload)));
  const std::string tmp_path = path_ + ".tmp";
  {
    std::ofstream file(tmp_path, std::ios::binary | std::ios::trunc);
    if (!file.is_open()) {
      return InternalError("plan store: cannot write '" + tmp_path + "'");
    }
    file << payload << "checksum " << sum << "\n";
    file.flush();
    if (!file.good()) {
      return InternalError("plan store: write failed for '" + tmp_path + "'");
    }
  }
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    return InternalError("plan store: rename to '" + path_ + "' failed");
  }
  return OkStatus();
}

}  // namespace planorder::adaptive
