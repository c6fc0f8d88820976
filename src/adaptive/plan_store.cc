#include "adaptive/plan_store.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "base/hash.h"

namespace planorder::adaptive {

namespace {

/// Sanity cap on parsed counts: a store is a few queries and a few hundred
/// sources, so any count beyond this is corruption, not data.
constexpr int64_t kMaxCount = 1 << 20;

Status Malformed(const std::string& what) {
  return InvalidArgumentError("plan store: " + what);
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

/// Appends the decimal (or other `base`) digits of an integer, as ostream
/// formats them.
template <typename Int>
void AppendInt(std::string& out, Int v, int base = 10) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v, base);
  out.append(buf, result.ptr);
}

/// A generous estimate of the formatted size of `contents`, so formatting
/// appends into one allocation.
size_t EstimatedBytes(const StoreContents& contents) {
  // A hexfloat literal takes at most 24 characters plus its separator.
  constexpr size_t kDoubleBytes = 25;
  size_t bytes = 64 + contents.observed.size() * (64 + 3 * kDoubleBytes);
  for (const StoredReformulation& entry : contents.entries) {
    bytes += 64 + entry.canonical_text.size();
    for (const std::vector<int>& bucket : entry.buckets) {
      bytes += 16 + 12 * bucket.size();
    }
    for (const std::vector<stats::SourceStats>& bucket : entry.stat_buckets) {
      bytes += 16 + (4 * kDoubleBytes + 17) * bucket.size();
    }
    for (const std::vector<double>& weights : entry.region_weights) {
      bytes += 16 + kDoubleBytes * weights.size();
    }
    bytes += 16 + kDoubleBytes * (entry.domain_sizes.size() + 1);
  }
  return bytes;
}

}  // namespace

void AppendHexDouble(std::string& out, double v) {
  char buf[32];
  if (std::fpclassify(v) == FP_SUBNORMAL) {
    // to_chars normalizes subnormals (0x1p-1074); printf keeps the 0x0.
    // mantissa with exponent -1022, and stores on disk hold printf's form.
    out.append(buf, size_t(std::snprintf(buf, sizeof(buf), "%a", v)));
    return;
  }
  const auto result =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::hex);
  std::string_view digits(buf, size_t(result.ptr - buf));
  if (!digits.empty() && digits.front() == '-') {
    out += '-';
    digits.remove_prefix(1);
  }
  // printf's %a prefixes finite values with 0x; inf and nan stay bare.
  if (std::isfinite(v)) out += "0x";
  out += digits;
}

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
  std::string out;
  out.reserve(EstimatedBytes(contents));
  out += "planorder-planstore v";
  AppendInt(out, kFormatVersion);
  out += "\nsources ";
  AppendInt(out, contents.num_sources);
  out += "\nobserved ";
  AppendInt(out, contents.observed.size());
  out += '\n';
  for (const auto& [name, e] : contents.observed) {
    if (name.find_first_of(" \t\n") != std::string::npos) {
      return InvalidArgumentError("plan store: source name with whitespace '" +
                                  name + "'");
    }
    out += "o ";
    out += name;
    for (const int64_t count : {e.windows, e.card_windows, e.calls}) {
      out += ' ';
      AppendInt(out, count);
    }
    for (const double v : {e.cardinality, e.latency_ms, e.failure_prob}) {
      out += ' ';
      AppendHexDouble(out, v);
    }
    out += '\n';
  }
  out += "entries ";
  AppendInt(out, contents.entries.size());
  out += '\n';
  for (const StoredReformulation& entry : contents.entries) {
    if (entry.canonical_text.find('\n') != std::string::npos) {
      return InvalidArgumentError("plan store: multi-line canonical text");
    }
    out += "entry ";
    out += entry.canonical_text;
    out += "\nbuckets ";
    AppendInt(out, entry.buckets.size());
    out += '\n';
    for (const std::vector<int>& bucket : entry.buckets) {
      out += "b ";
      AppendInt(out, bucket.size());
      for (int id : bucket) {
        out += ' ';
        AppendInt(out, id);
      }
      out += '\n';
    }
    for (const std::vector<stats::SourceStats>& bucket : entry.stat_buckets) {
      out += "s ";
      AppendInt(out, bucket.size());
      for (const stats::SourceStats& s : bucket) {
        for (const double v :
             {s.cardinality, s.transmission_cost, s.failure_prob, s.fee}) {
          out += ' ';
          AppendHexDouble(out, v);
        }
        out += ' ';
        AppendInt(out, s.regions.bits, 16);
      }
      out += '\n';
    }
    for (const std::vector<double>& weights : entry.region_weights) {
      out += "w ";
      AppendInt(out, weights.size());
      for (double w : weights) {
        out += ' ';
        AppendHexDouble(out, w);
      }
      out += '\n';
    }
    out += "domain";
    for (double d : entry.domain_sizes) {
      out += ' ';
      AppendHexDouble(out, d);
    }
    out += "\noverhead ";
    AppendHexDouble(out, entry.access_overhead);
    out += "\nend\n";
  }
  char sum[32];
  std::snprintf(sum, sizeof(sum), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(out)));
  const std::string tmp_path = path_ + ".tmp";
  {
    std::ofstream file(tmp_path, std::ios::binary | std::ios::trunc);
    if (!file.is_open()) {
      return InternalError("plan store: cannot write '" + tmp_path + "'");
    }
    file << out << "checksum " << sum << "\n";
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
