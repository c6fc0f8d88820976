#ifndef PLANORDER_BENCH_BENCH_FLAGS_H_
#define PLANORDER_BENCH_BENCH_FLAGS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/logging.h"

namespace planorder::bench {

/// Shared command-line handling of the plain-main benchmarks (the ones that
/// write a BENCH_*.json instead of going through the google-benchmark
/// driver). Accepted forms:
///   bench [output.json] [--threads=N[,M...]] [--repeats=R]
///         [--k=K[,K2...]] [--weights-seed=S]
/// The first non-flag argument is the output path; --threads sets the
/// thread-count sweep, --repeats the per-point repetitions, --k the ranked
/// answer-count sweep and --weights-seed the tuple-weight seed (the latter
/// two consumed by bench_anyk, accepted everywhere). Every parse failure —
/// unknown flag, malformed list, out-of-range value — aborts with the same
/// full usage message so CI typos fail loudly and identically across all
/// benches.
struct BenchFlags {
  std::string output;
  std::vector<int> threads;
  int repeats = 0;
  /// Ranked-enumeration sweep: the k values of "time to the k-th answer".
  std::vector<int> ks;
  uint64_t weights_seed = 1;
};

/// The one usage string of every ParseBenchFlags error path. Listing the
/// full flag set (including the PR-6 additions --k / --weights-seed) in one
/// place keeps the message consistent across all benches and all failure
/// modes.
inline std::string BenchUsage(const char* argv0) {
  return std::string("usage: ") + argv0 +
         " [output.json] [--threads=N[,M...]] [--repeats=R]" +
         " [--k=K[,K2...]] [--weights-seed=S]";
}

/// True when the run's thread sweep oversubscribes the machine — some
/// requested pool exceeds the hardware thread count, so throughput numbers
/// measure contention rather than scaling. Surfaced both as a stderr warning
/// at parse time and as a field of the JSON artifact, because the artifact
/// outlives the terminal that saw the warning.
inline bool DegradedParallelism(const BenchFlags& flags) {
  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware == 0 || flags.threads.empty()) return false;
  const int max_requested =
      *std::max_element(flags.threads.begin(), flags.threads.end());
  return max_requested > int(hardware);
}

inline BenchFlags ParseBenchFlags(int argc, char** argv,
                                  std::string default_output,
                                  std::vector<int> default_threads = {},
                                  int default_repeats = 0,
                                  std::vector<int> default_ks = {}) {
  BenchFlags flags;
  flags.output = std::move(default_output);
  flags.threads = std::move(default_threads);
  flags.repeats = default_repeats;
  flags.ks = std::move(default_ks);
  const std::string usage = BenchUsage(argv[0]);
  bool have_output = false;
  // Every malformed value funnels through these CHECKs, so every error path
  // — not just unknown flags — prints the full usage (a bare stoi would
  // abort with an opaque exception instead).
  auto parse_int = [&usage](const std::string& arg, const std::string& item) {
    PLANORDER_CHECK(!item.empty() && item.size() <= 9 &&
                    item.find_first_not_of("0123456789") == std::string::npos)
        << usage << "; bad value in '" << arg << "'";
    return std::stoi(item);
  };
  auto parse_int_list = [&usage, &parse_int](const std::string& arg,
                                             size_t prefix_len,
                                             std::vector<int>* out) {
    out->clear();
    std::string list = arg.substr(prefix_len);
    size_t pos = 0;
    while (pos < list.size()) {
      const size_t comma = list.find(',', pos);
      const std::string item =
          list.substr(pos, comma == std::string::npos ? comma : comma - pos);
      out->push_back(parse_int(arg, item));
      PLANORDER_CHECK_GE(out->back(), 1)
          << usage << "; bad value in '" << arg << "'";
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    PLANORDER_CHECK(!out->empty()) << usage << "; empty list in '" << arg << "'";
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      parse_int_list(arg, 10, &flags.threads);
    } else if (arg.rfind("--k=", 0) == 0) {
      parse_int_list(arg, 4, &flags.ks);
    } else if (arg.rfind("--repeats=", 0) == 0) {
      flags.repeats = parse_int(arg, arg.substr(10));
      PLANORDER_CHECK_GE(flags.repeats, 1)
          << usage << "; bad value in '" << arg << "'";
    } else if (arg.rfind("--weights-seed=", 0) == 0) {
      const std::string item = arg.substr(15);
      PLANORDER_CHECK(!item.empty() && item.size() <= 19 &&
                      item.find_first_not_of("0123456789") ==
                          std::string::npos)
          << usage << "; bad value in '" << arg << "'";
      flags.weights_seed = std::stoull(item);
    } else {
      PLANORDER_CHECK(!arg.empty() && arg[0] != '-' && !have_output)
          << usage << "; got '" << arg << "'";
      flags.output = arg;
      have_output = true;
    }
  }
  if (DegradedParallelism(flags)) {
    std::cerr << "warning: --threads requests "
              << *std::max_element(flags.threads.begin(), flags.threads.end())
              << " workers but the machine has "
              << std::thread::hardware_concurrency()
              << " hardware threads; timings will reflect oversubscription "
                 "(artifact flags degraded_parallelism=true)\n";
  }
  return flags;
}

/// An ordered JSON value for the BENCH_*.json artifacts: objects keep their
/// members in insertion order, and numbers print exactly as `std::ostream <<`
/// prints them (default precision), so a file reads the same whichever bench
/// wrote it. Layout: the document's members and the elements of a top-level
/// array go one per line; everything nested deeper stays on one line.
class Json {
 public:
  template <typename T,
            typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  Json(T number) {
    std::ostringstream text;
    text << number;
    text_ = text.str();
  }
  Json(bool value) : text_(value ? "true" : "false") {}
  Json(const char* text) : text_(Quote(text)) {}
  Json(const std::string& text) : text_(Quote(text)) {}

  static Json Object(
      std::initializer_list<std::pair<std::string, Json>> members = {}) {
    Json object(Kind::kObject);
    for (const auto& [key, value] : members) object.Set(key, value);
    return object;
  }
  static Json Array() { return Json(Kind::kArray); }
  template <typename T>
  static Json Array(const std::vector<T>& values) {
    Json array(Kind::kArray);
    for (const T& value : values) array.Push(value);
    return array;
  }

  /// Appends `key` to an object; the caller keeps keys unique.
  Json& Set(std::string key, Json value) {
    PLANORDER_CHECK(kind_ == Kind::kObject) << "Set on a non-object";
    keys_.push_back(std::move(key));
    values_.push_back(std::move(value));
    return *this;
  }
  /// Appends an element to an array.
  Json& Push(Json value) {
    PLANORDER_CHECK(kind_ == Kind::kArray) << "Push on a non-array";
    values_.push_back(std::move(value));
    return *this;
  }

  std::string Dump() const {
    std::string out;
    Render(0, &out);
    return out + "\n";
  }

 private:
  enum class Kind { kScalar, kObject, kArray };
  explicit Json(Kind kind) : kind_(kind) {}

  static std::string Quote(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char escaped[8];
        std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
        out += escaped;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  void Render(int depth, std::string* out) const {
    if (kind_ == Kind::kScalar) {
      *out += text_;
      return;
    }
    const bool object = kind_ == Kind::kObject;
    const bool one_per_line =
        !values_.empty() && (depth == 0 || (depth == 1 && !object));
    const std::string indent(size_t(2 * (depth + 1)), ' ');
    *out += object ? '{' : '[';
    for (size_t i = 0; i < values_.size(); ++i) {
      if (i > 0) *out += one_per_line ? "," : ", ";
      if (one_per_line) *out += "\n" + indent;
      if (object) *out += Quote(keys_[i]) + ": ";
      values_[i].Render(depth + 1, out);
    }
    if (one_per_line) *out += "\n" + std::string(size_t(2 * depth), ' ');
    *out += object ? '}' : ']';
  }

  Kind kind_ = Kind::kScalar;
  std::string text_;                 // a scalar's rendered text
  std::vector<std::string> keys_;    // an object's keys, in order
  std::vector<Json> values_;         // member values or array elements
};

/// Writes the run's artifact to `flags.output`: `"bench": name` first, then
/// the "host" object (the machine's hardware thread count plus the effective
/// flag values, so an artifact is self-describing when compared across runs),
/// then `fields` in order. Every bench writes through here, and an
/// unwritable path aborts naming it.
inline void WriteBenchJson(
    const BenchFlags& flags, const std::string& name,
    std::initializer_list<std::pair<std::string, Json>> fields) {
  Json document = Json::Object(
      {{"bench", name},
       {"host",
        Json::Object(
            {{"hardware_threads", std::thread::hardware_concurrency()},
             {"repeats", flags.repeats},
             {"threads", Json::Array(flags.threads)},
             {"k", Json::Array(flags.ks)},
             {"weights_seed", flags.weights_seed},
             {"degraded_parallelism", DegradedParallelism(flags)}})}});
  for (const auto& [key, value] : fields) document.Set(key, value);
  std::ofstream out(flags.output);
  out << document.Dump();
  out.close();
  PLANORDER_CHECK(!out.fail()) << "cannot write " << flags.output;
  std::cout << "wrote " << flags.output << "\n";
}

/// Wall-clock timestamp (milliseconds) for timing the benchmarks
/// themselves. Benches measure real elapsed time by definition, so this is
/// the one sanctioned wall-clock read outside runtime/clock.h — everything
/// under src/ must charge time through runtime::Clock instead.
inline double NowWallMs() {
  return std::chrono::duration<double, std::milli>(
             // detlint: allow(D1, benches measure real wall-clock time)
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace planorder::bench

#endif  // PLANORDER_BENCH_BENCH_FLAGS_H_
