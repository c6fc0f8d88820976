#include "scanner.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace planorder::detlint {
namespace {

namespace fs = std::filesystem;

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

/// Splits `text` into lines (no trailing '\n' kept). A final line without a
/// newline still counts.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

/// The comment/string stripper. Produces two same-shaped views of the file:
/// `code` (comments and literal contents blanked to spaces) and `comments`
/// (everything but comment text blanked). Newlines survive in both, so line
/// numbers line up with the original.
struct StrippedFile {
  std::string code;
  std::string comments;
};

StrippedFile StripCommentsAndStrings(const std::string& contents) {
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  StrippedFile out;
  out.code.reserve(contents.size());
  out.comments.reserve(contents.size());
  State state = State::kCode;
  std::string raw_delim;  // the )delim" closer of an active raw string
  size_t i = 0;
  const size_t n = contents.size();
  auto emit = [&out](char code_c, char comment_c) {
    out.code += code_c;
    out.comments += comment_c;
  };
  while (i < n) {
    const char c = contents[i];
    const char next = i + 1 < n ? contents[i + 1] : '\0';
    if (c == '\n') {
      emit('\n', '\n');
      if (state == State::kLine) state = State::kCode;
      ++i;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          emit(' ', ' ');
          emit(' ', ' ');
          i += 2;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          emit(' ', ' ');
          emit(' ', ' ');
          i += 2;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   contents[i - 1])) &&
                               contents[i - 1] != '_'))) {
          // Raw string literal: R"delim( ... )delim"
          size_t j = i + 2;
          std::string delim;
          while (j < n && contents[j] != '(' && contents[j] != '\n') {
            delim += contents[j];
            ++j;
          }
          raw_delim = ")" + delim + "\"";
          state = State::kRaw;
          for (size_t k = i; k <= j && k < n; ++k) emit(' ', ' ');
          i = j + 1;
        } else if (c == '"') {
          state = State::kString;
          emit(' ', ' ');
          ++i;
        } else if (c == '\'' && !(i > 0 &&
                                  (std::isdigit(static_cast<unsigned char>(
                                       contents[i - 1])) ||
                                   contents[i - 1] == '\''))) {
          // Skip digit separators like 1'000'000.
          state = State::kChar;
          emit(' ', ' ');
          ++i;
        } else {
          emit(c, ' ');
          ++i;
        }
        break;
      case State::kLine:
        emit(' ', c);
        ++i;
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          state = State::kCode;
          emit(' ', ' ');
          emit(' ', ' ');
          i += 2;
        } else {
          emit(' ', c);
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n) {
          emit(' ', ' ');
          emit(' ', ' ');
          i += 2;
        } else {
          if (c == '"') state = State::kCode;
          emit(' ', ' ');
          ++i;
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n) {
          emit(' ', ' ');
          emit(' ', ' ');
          i += 2;
        } else {
          if (c == '\'') state = State::kCode;
          emit(' ', ' ');
          ++i;
        }
        break;
      case State::kRaw:
        if (contents.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = 0; k < raw_delim.size(); ++k) emit(' ', ' ');
          i += raw_delim.size();
          state = State::kCode;
        } else {
          emit(c == '\n' ? '\n' : ' ', ' ');
          ++i;
        }
        break;
    }
  }
  return out;
}

struct Pattern {
  std::regex re;
  std::string message;
};

/// D1 — ambient nondeterminism. Word-ish boundaries are enforced in the
/// patterns so `sleep_time(` or `bitset<` style identifiers never match.
const std::vector<Pattern>& D1Patterns() {
  static const std::vector<Pattern>* patterns = new std::vector<Pattern>{
      {std::regex(R"(std\s*::\s*rand\b)"),
       "std::rand — use base/rng.h (seeded, splittable)"},
      {std::regex(R"((^|[^\w.>:])rand\s*\()"),
       "rand() — use base/rng.h (seeded, splittable)"},
      {std::regex(R"(\bsrand\s*\()"),
       "srand — seeding ambient state; use base/rng.h"},
      {std::regex(R"(\brandom_device\b)"),
       "std::random_device — ambient entropy; use base/rng.h"},
      {std::regex(R"(\bsystem_clock\b)"),
       "system_clock — wall time; inject runtime::Clock"},
      {std::regex(R"(\bsteady_clock\b)"),
       "steady_clock — wall time; inject runtime::Clock"},
      {std::regex(R"(\bhigh_resolution_clock\b)"),
       "high_resolution_clock — wall time; inject runtime::Clock"},
      {std::regex(R"(\bgetenv\b)"),
       "getenv — environment read; thread options through flags"},
      {std::regex(R"(std\s*::\s*time\s*\()"),
       "std::time — wall time; inject runtime::Clock"},
      {std::regex(R"((^|[^\w.>:])time\s*\()"),
       "time() — wall time; inject runtime::Clock"},
  };
  return *patterns;
}

/// D2 — unordered containers where hash order could reach an output.
const std::regex& D2Pattern() {
  static const std::regex* re =
      new std::regex(R"(\bunordered_(map|set|multimap|multiset)\b)");
  return *re;
}

/// D3 — floating-point accumulation in the weight fold paths.
const std::vector<Pattern>& D3Patterns() {
  static const std::vector<Pattern>* patterns = new std::vector<Pattern>{
      {std::regex(R"(\bfloat\b)"),
       "float narrows the dyadic-rational weight invariant; use double"},
      {std::regex(R"(std\s*::\s*(accumulate|reduce|inner_product|fma)\s*[(<])"),
       "fold primitive in a weight path; fold through AggregationCombine"},
  };
  return *patterns;
}

/// A floating literal with a real digit-and-dot or exponent shape. The
/// leading [^\w.] guard keeps hex literals (0x9e37...) from matching on
/// their embedded 'e'.
const std::regex& FloatLiteralPattern() {
  static const std::regex* re = new std::regex(
      R"((^|[^\w.])((\d+\.\d*|\.\d+)([eE][-+]?\d+)?|\d+[eE][-+]?\d+)[fF]?\b)");
  return *re;
}

const std::regex& CompoundAssignPattern() {
  // += -= *= /= as their own tokens (not ==, <=, >=, !=, <<=, etc.).
  static const std::regex* re =
      new std::regex(R"((^|[^-+*/<>=!&|^])[-+*/]=($|[^=]))");
  return *re;
}

/// D4 — associative containers keyed by pointer value. Matches a map/set
/// whose first template argument contains '*' before any comma or nested
/// angle bracket.
const std::regex& D4Pattern() {
  static const std::regex* re = new std::regex(
      R"(\b(unordered_)?(multi)?(map|set)\s*<\s*(const\s+)?[^,<>]*\*)");
  return *re;
}

bool IsPreprocessorLine(const std::string& code_line) {
  const std::string trimmed = Trim(code_line);
  return !trimmed.empty() && trimmed[0] == '#';
}

std::string ReadFileOrEmpty(const fs::path& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (ok != nullptr) *ok = false;
    return "";
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (ok != nullptr) *ok = true;
  return buffer.str();
}

std::vector<CheckId> ParseCheckList(const std::string& text) {
  std::vector<CheckId> checks;
  std::string token;
  std::istringstream in(text);
  while (std::getline(in, token, ',')) {
    CheckId check;
    if (ParseCheckId(Trim(token), &check)) checks.push_back(check);
  }
  return checks;
}

}  // namespace

std::string CheckName(CheckId check) {
  switch (check) {
    case CheckId::kD1:
      return "D1";
    case CheckId::kD2:
      return "D2";
    case CheckId::kD3:
      return "D3";
    case CheckId::kD4:
      return "D4";
  }
  return "D?";
}

std::string CheckTitle(CheckId check) {
  switch (check) {
    case CheckId::kD1:
      return "banned nondeterminism source (wall clock / ambient randomness / "
             "environment) outside src/runtime/clock.* and src/base/rng.h";
    case CheckId::kD2:
      return "unordered container in an ordering/emission/answer path "
             "(src/core, src/anyk, src/adaptive, src/exec, src/sim, "
             "src/cluster, src/stats coverage/bitmask universes)";
    case CheckId::kD3:
      return "floating-point accumulation in a weight fold path (src/anyk); "
             "breaks the dyadic-rational bit-exactness invariant";
    case CheckId::kD4:
      return "associative container keyed by pointer value; iteration order "
             "is the allocator's";
  }
  return "unknown check";
}

bool ParseCheckId(const std::string& text, CheckId* out) {
  if (text.size() != 2 || (text[0] != 'D' && text[0] != 'd')) return false;
  switch (text[1]) {
    case '1':
      *out = CheckId::kD1;
      return true;
    case '2':
      *out = CheckId::kD2;
      return true;
    case '3':
      *out = CheckId::kD3;
      return true;
    case '4':
      *out = CheckId::kD4;
      return true;
    default:
      return false;
  }
}

bool CheckAppliesTo(CheckId check, const std::string& relpath) {
  switch (check) {
    case CheckId::kD1:
      // Everywhere except the shims that exist precisely to own these calls.
      return relpath != "src/runtime/clock.h" &&
             relpath != "src/runtime/clock.cc" && relpath != "src/base/rng.h";
    case CheckId::kD2:
      // The bitmask universe feeds utility intervals that decide emission
      // order, so it is an ordering path like src/core proper; so are the
      // reference orderers and coverage universe of src/reference/, the
      // oracles the production order is checked against.
      // src/adaptive folds observations into blended statistics that re-rank
      // a live plan stream: hash-order iteration there would surface
      // directly as emission-order nondeterminism.
      return StartsWith(relpath, "src/core/") ||
             StartsWith(relpath, "src/anyk/") ||
             StartsWith(relpath, "src/adaptive/") ||
             StartsWith(relpath, "src/exec/") ||
             StartsWith(relpath, "src/sim/") ||
             StartsWith(relpath, "src/cluster/") ||
             StartsWith(relpath, "src/reference/") ||
             StartsWith(relpath, "src/stats/bitmask_universe");
    case CheckId::kD3:
      return StartsWith(relpath, "src/anyk/");
    case CheckId::kD4:
      return StartsWith(relpath, "src/");
  }
  return false;
}

bool ScanVisits(const std::string& relpath) {
  if (!EndsWith(relpath, ".h") && !EndsWith(relpath, ".cc")) return false;
  if (StartsWith(relpath, "tools/detlint/")) return false;  // linter + corpus
  return StartsWith(relpath, "src/") || StartsWith(relpath, "bench/") ||
         StartsWith(relpath, "tests/") || StartsWith(relpath, "examples/") ||
         StartsWith(relpath, "tools/");
}

Directives ParseDirectives(const std::string& contents) {
  static const std::regex kScanAs(R"(detlint-scan-as:\s*(\S+))");
  static const std::regex kExpect(
      R"(detlint-expect(-suppressed)?:\s*([Dd][1-4](\s*,\s*[Dd][1-4])*))");
  static const std::regex kOrderInsensitive(
      R"(detlint:\s*order-insensitive\(([^)]*)\))");
  static const std::regex kAllow(
      R"(detlint:\s*allow\(\s*([Dd][1-4])\s*,\s*([^)]*)\))");

  Directives out;
  const StrippedFile stripped = StripCommentsAndStrings(contents);
  const std::vector<std::string> comment_lines = SplitLines(stripped.comments);
  for (size_t idx = 0; idx < comment_lines.size(); ++idx) {
    const std::string& text = comment_lines[idx];
    const int line = static_cast<int>(idx) + 1;
    std::smatch m;
    if (out.scan_as.empty() && std::regex_search(text, m, kScanAs)) {
      out.scan_as = m[1].str();
    }
    if (std::regex_search(text, m, kExpect)) {
      const bool suppressed = m[1].matched;
      for (CheckId check : ParseCheckList(m[2].str())) {
        out.expectations.push_back({line, check, suppressed});
      }
    }
    if (std::regex_search(text, m, kOrderInsensitive)) {
      Directives::Suppression s;
      s.line = line;
      s.any_check = false;
      s.check = CheckId::kD2;
      s.reason = Trim(m[1].str());
      out.suppressions.push_back(std::move(s));
    }
    if (std::regex_search(text, m, kAllow)) {
      Directives::Suppression s;
      s.line = line;
      s.any_check = false;
      CheckId check;
      if (ParseCheckId(m[1].str(), &check)) {
        s.check = check;
        s.reason = Trim(m[2].str());
        out.suppressions.push_back(std::move(s));
      }
    }
  }
  return out;
}

bool IsSuppressed(const Directives& directives, CheckId check, int line) {
  for (const Directives::Suppression& s : directives.suppressions) {
    if (s.reason.empty()) continue;  // a reason is mandatory, not decoration
    if (s.line != line && s.line != line - 1) continue;
    if (s.any_check || s.check == check) return true;
  }
  return false;
}

std::vector<Finding> ScanFile(const std::string& relpath,
                              const std::string& contents,
                              const ScanOptions& options) {
  const Directives directives = ParseDirectives(contents);
  const StrippedFile stripped = StripCommentsAndStrings(contents);
  const std::vector<std::string> code_lines = SplitLines(stripped.code);

  // At most one finding per (check, line): multiple pattern hits on one line
  // are one problem, and it keeps the corpus expectations exact.
  std::map<std::pair<int, int>, Finding> by_site;
  auto record = [&](CheckId check, int line, const std::string& message) {
    auto key = std::make_pair(static_cast<int>(check), line);
    if (by_site.count(key) > 0) return;
    Finding f;
    f.file = relpath;
    f.line = line;
    f.check = check;
    f.message = message;
    f.suppressed = IsSuppressed(directives, check, line);
    by_site.emplace(std::move(key), std::move(f));
  };

  for (size_t idx = 0; idx < code_lines.size(); ++idx) {
    const std::string& code = code_lines[idx];
    const int line = static_cast<int>(idx) + 1;
    if (code.find_first_not_of(" \t") == std::string::npos) continue;
    const bool preprocessor = IsPreprocessorLine(code);

    if (CheckAppliesTo(CheckId::kD1, relpath)) {
      for (const Pattern& p : D1Patterns()) {
        if (std::regex_search(code, p.re)) {
          record(CheckId::kD1, line, p.message);
          break;
        }
      }
    }
    if (!preprocessor && CheckAppliesTo(CheckId::kD2, relpath) &&
        std::regex_search(code, D2Pattern())) {
      record(CheckId::kD2, line,
             "unordered container in an ordering/emission/answer path; use an "
             "ordered container or annotate order-insensitive(reason)");
    }
    if (!preprocessor && CheckAppliesTo(CheckId::kD3, relpath)) {
      for (const Pattern& p : D3Patterns()) {
        if (std::regex_search(code, p.re)) {
          record(CheckId::kD3, line, p.message);
          break;
        }
      }
      if (std::regex_search(code, CompoundAssignPattern()) &&
          std::regex_search(code, FloatLiteralPattern())) {
        record(CheckId::kD3, line,
               "floating-point compound accumulation in a weight path; fold "
               "through AggregationCombine (anyk/weights.h)");
      }
    }
    if (!preprocessor && CheckAppliesTo(CheckId::kD4, relpath) &&
        std::regex_search(code, D4Pattern())) {
      record(CheckId::kD4, line,
             "associative container keyed by pointer value; key by a stable "
             "id instead");
    }
  }

  // A suppression without a reason is itself a finding (under the check it
  // names), never silenceable by another directive.
  std::vector<Finding> findings;
  for (auto& [unused, f] : by_site) {
    if (!f.suppressed || options.include_suppressed) {
      findings.push_back(std::move(f));
    }
  }
  for (const Directives::Suppression& s : directives.suppressions) {
    if (!s.reason.empty()) continue;
    Finding f;
    f.file = relpath;
    f.line = s.line;
    f.check = s.check;
    f.message = "suppression directive without a reason";
    findings.push_back(std::move(f));
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return static_cast<int>(a.check) < static_cast<int>(b.check);
            });
  return findings;
}

std::vector<Finding> ScanTree(const std::string& root,
                              const ScanOptions& options) {
  std::vector<std::string> relpaths;
  for (const char* top : {"src", "bench", "tests", "examples", "tools"}) {
    const fs::path dir = fs::path(root) / top;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file(ec)) continue;
      const std::string rel =
          fs::relative(it->path(), root, ec).generic_string();
      if (!ec && ScanVisits(rel)) relpaths.push_back(rel);
    }
  }
  std::sort(relpaths.begin(), relpaths.end());

  std::vector<Finding> findings;
  for (const std::string& rel : relpaths) {
    bool ok = false;
    const std::string contents = ReadFileOrEmpty(fs::path(root) / rel, &ok);
    if (!ok) continue;
    std::vector<Finding> file_findings = ScanFile(rel, contents, options);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

std::vector<std::string> SelfTest(
    const std::string& corpus_dir,
    const std::vector<Finding>* external_findings) {
  std::vector<std::string> errors;
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::directory_iterator it(corpus_dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    const std::string name = it->path().filename().string();
    if (EndsWith(name, ".cc") || EndsWith(name, ".h")) {
      files.push_back(it->path());
    }
  }
  if (files.empty()) {
    errors.push_back("no corpus files found under " + corpus_dir);
    return errors;
  }
  std::sort(files.begin(), files.end());

  // External findings (the LibTooling mode) arrive with arbitrary path
  // prefixes; compare by basename.
  auto basename = [](const std::string& path) {
    return fs::path(path).filename().string();
  };
  std::set<std::tuple<std::string, int, int>> external;
  if (external_findings != nullptr) {
    for (const Finding& f : *external_findings) {
      external.emplace(basename(f.file), f.line, static_cast<int>(f.check));
    }
  }

  for (const fs::path& path : files) {
    const std::string name = path.filename().string();
    bool ok = false;
    const std::string contents = ReadFileOrEmpty(path, &ok);
    if (!ok) {
      errors.push_back(name + ": unreadable");
      continue;
    }
    const Directives directives = ParseDirectives(contents);
    if (directives.scan_as.empty()) {
      errors.push_back(name + ": corpus file lacks a detlint-scan-as header");
      continue;
    }
    if (directives.expectations.empty()) {
      errors.push_back(name + ": corpus file has no detlint-expect lines");
      continue;
    }

    std::set<std::pair<int, int>> active;      // (line, check) that fired
    std::set<std::pair<int, int>> suppressed;  // matched but silenced
    if (external_findings != nullptr) {
      // The external mode reports only active findings; suppressed sites are
      // validated by their *absence* from the external list.
      for (const auto& [file, line, check] : external) {
        if (file == name) active.emplace(line, check);
      }
    } else {
      ScanOptions options;
      options.include_suppressed = true;
      for (const Finding& f :
           ScanFile(directives.scan_as, contents, options)) {
        (f.suppressed ? suppressed : active)
            .emplace(f.line, static_cast<int>(f.check));
      }
    }

    std::set<std::pair<int, int>> expected_active;
    std::set<std::pair<int, int>> expected_suppressed;
    for (const Directives::Expectation& e : directives.expectations) {
      const auto site = std::make_pair(e.line, static_cast<int>(e.check));
      if (e.suppressed) {
        expected_suppressed.insert(site);
        if (active.count(site) > 0) {
          errors.push_back(name + ":" + std::to_string(e.line) + ": " +
                           CheckName(e.check) +
                           " fired despite a suppression directive");
        } else if (external_findings == nullptr &&
                   suppressed.count(site) == 0) {
          errors.push_back(name + ":" + std::to_string(e.line) + ": " +
                           CheckName(e.check) +
                           " expected-suppressed but the pattern never "
                           "matched at all");
        }
      } else {
        expected_active.insert(site);
        if (active.count(site) == 0) {
          errors.push_back(name + ":" + std::to_string(e.line) + ": " +
                           CheckName(e.check) + " expected but did not fire");
        }
      }
    }
    for (const auto& site : active) {
      // A leaked suppressed site is already reported above.
      if (expected_suppressed.count(site) > 0) continue;
      if (expected_active.count(site) == 0) {
        CheckId check = static_cast<CheckId>(site.second);
        errors.push_back(name + ":" + std::to_string(site.first) + ": " +
                         CheckName(check) +
                         " fired without a detlint-expect annotation");
      }
    }
  }
  return errors;
}

std::string FormatFinding(const Finding& finding) {
  std::string out = finding.file + ":" + std::to_string(finding.line) + ": " +
                    CheckName(finding.check) + ": " + finding.message;
  if (finding.suppressed) out += " [suppressed]";
  return out;
}

}  // namespace planorder::detlint
