// Tests for the detlint portable scanner (tools/detlint/scanner.h): the
// check catalog fires on exactly the seeded corpus lines, suppression
// directives silence it, path scoping routes checks, and the full-tree scan
// of THIS repository is clean — the zero-findings gate, enforced as a unit
// test so `ctest` alone catches a regression before CI does.

#include "scanner.h"

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"

// Both provided by tests/CMakeLists.txt.
#ifndef DETLINT_TESTDATA_DIR
#error "build must define DETLINT_TESTDATA_DIR"
#endif
#ifndef DETLINT_REPO_ROOT
#error "build must define DETLINT_REPO_ROOT"
#endif

namespace detlint = planorder::detlint;

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<detlint::Finding> ScanCorpusFile(const std::string& name,
                                             bool include_suppressed = true) {
  const std::string contents =
      ReadFile(std::string(DETLINT_TESTDATA_DIR) + "/" + name);
  const detlint::Directives directives = detlint::ParseDirectives(contents);
  EXPECT_FALSE(directives.scan_as.empty())
      << name << " lacks a detlint-scan-as header";
  detlint::ScanOptions options;
  options.include_suppressed = include_suppressed;
  return detlint::ScanFile(directives.scan_as, contents, options);
}

std::set<std::pair<int, std::string>> ActiveSites(
    const std::vector<detlint::Finding>& findings) {
  std::set<std::pair<int, std::string>> sites;
  for (const detlint::Finding& f : findings) {
    if (!f.suppressed) sites.emplace(f.line, detlint::CheckName(f.check));
  }
  return sites;
}

/// Line numbers of the corpus expectations, read back from the files
/// themselves so the test never drifts from the corpus.
std::set<std::pair<int, std::string>> ExpectedSites(const std::string& name,
                                                    bool suppressed) {
  const std::string contents =
      ReadFile(std::string(DETLINT_TESTDATA_DIR) + "/" + name);
  std::set<std::pair<int, std::string>> sites;
  for (const detlint::Directives::Expectation& e :
       detlint::ParseDirectives(contents).expectations) {
    if (e.suppressed == suppressed) {
      sites.emplace(e.line, detlint::CheckName(e.check));
    }
  }
  return sites;
}

TEST(DetlintCorpusTest, D1FiresAtEveryAnnotatedLine) {
  const auto findings = ScanCorpusFile("d1_banned_sources.cc");
  EXPECT_EQ(ActiveSites(findings), ExpectedSites("d1_banned_sources.cc",
                                                 /*suppressed=*/false));
}

TEST(DetlintCorpusTest, D2FiresAtEveryAnnotatedLine) {
  const auto findings = ScanCorpusFile("d2_unordered_paths.cc");
  EXPECT_EQ(ActiveSites(findings), ExpectedSites("d2_unordered_paths.cc",
                                                 /*suppressed=*/false));
}

TEST(DetlintCorpusTest, D3FiresAtEveryAnnotatedLine) {
  const auto findings = ScanCorpusFile("d3_float_folds.cc");
  EXPECT_EQ(ActiveSites(findings), ExpectedSites("d3_float_folds.cc",
                                                 /*suppressed=*/false));
}

TEST(DetlintCorpusTest, D4FiresAtEveryAnnotatedLine) {
  const auto findings = ScanCorpusFile("d4_pointer_keys.cc");
  EXPECT_EQ(ActiveSites(findings), ExpectedSites("d4_pointer_keys.cc",
                                                 /*suppressed=*/false));
}

TEST(DetlintCorpusTest, SuppressionDirectivesSilenceEveryCheck) {
  for (const char* name :
       {"d1_banned_sources.cc", "d2_unordered_paths.cc", "d3_float_folds.cc",
        "d4_pointer_keys.cc"}) {
    const auto expected_suppressed = ExpectedSites(name, /*suppressed=*/true);
    ASSERT_FALSE(expected_suppressed.empty())
        << name << " seeds no suppressed site";
    std::set<std::pair<int, std::string>> suppressed;
    for (const detlint::Finding& f : ScanCorpusFile(name)) {
      if (f.suppressed) suppressed.emplace(f.line, detlint::CheckName(f.check));
    }
    EXPECT_EQ(suppressed, expected_suppressed) << name;
    // And the default scan (no include_suppressed) must not report them.
    EXPECT_TRUE(
        ActiveSites(ScanCorpusFile(name, /*include_suppressed=*/false))
            .count(*expected_suppressed.begin()) == 0)
        << name;
  }
}

TEST(DetlintCorpusTest, SelfTestPassesOnTheGoldenCorpus) {
  const std::vector<std::string> errors =
      detlint::SelfTest(DETLINT_TESTDATA_DIR);
  for (const std::string& error : errors) ADD_FAILURE() << error;
}

TEST(DetlintCorpusTest, SelfTestAcceptsMatchingExternalFindings) {
  // Simulate the LibTooling mode: feed the portable scanner's own active
  // findings back as "external" results; the corpus must validate them.
  std::vector<detlint::Finding> external;
  for (const char* name :
       {"d1_banned_sources.cc", "d2_unordered_paths.cc", "d3_float_folds.cc",
        "d4_pointer_keys.cc"}) {
    for (detlint::Finding f : ScanCorpusFile(name, false)) {
      f.file = name;
      external.push_back(std::move(f));
    }
  }
  const std::vector<std::string> errors =
      detlint::SelfTest(DETLINT_TESTDATA_DIR, &external);
  for (const std::string& error : errors) ADD_FAILURE() << error;
}

TEST(DetlintCorpusTest, SelfTestRejectsMissingAndExtraExternalFindings) {
  std::vector<detlint::Finding> complete;
  for (const char* name :
       {"d1_banned_sources.cc", "d2_unordered_paths.cc", "d3_float_folds.cc",
        "d4_pointer_keys.cc"}) {
    for (detlint::Finding f : ScanCorpusFile(name, false)) {
      f.file = name;
      complete.push_back(std::move(f));
    }
  }

  // Missing: drop one finding → exactly one "expected but did not fire".
  std::vector<detlint::Finding> missing = complete;
  missing.pop_back();
  std::vector<std::string> errors =
      detlint::SelfTest(DETLINT_TESTDATA_DIR, &missing);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("expected but did not fire"), std::string::npos);

  // Extra: invent a finding at a line with no expectation.
  std::vector<detlint::Finding> extra = complete;
  detlint::Finding bogus;
  bogus.file = "d2_unordered_paths.cc";
  bogus.line = 1;
  bogus.check = detlint::CheckId::kD2;
  bogus.message = "bogus";
  extra.push_back(bogus);
  errors = detlint::SelfTest(DETLINT_TESTDATA_DIR, &extra);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("without a detlint-expect"), std::string::npos);

  // A suppressed site re-firing externally is the directive breaking.
  std::vector<detlint::Finding> unsuppressed = complete;
  detlint::Finding leaked;
  leaked.file = "d1_banned_sources.cc";
  leaked.check = detlint::CheckId::kD1;
  leaked.message = "leak";
  for (const detlint::Directives::Expectation& e :
       detlint::ParseDirectives(
           ReadFile(std::string(DETLINT_TESTDATA_DIR) +
                    "/d1_banned_sources.cc"))
           .expectations) {
    if (e.suppressed) leaked.line = e.line;
  }
  ASSERT_GT(leaked.line, 1);
  unsuppressed.push_back(leaked);
  errors = detlint::SelfTest(DETLINT_TESTDATA_DIR, &unsuppressed);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("despite a suppression"), std::string::npos);
}

TEST(DetlintScopingTest, ChecksRouteByPath) {
  using detlint::CheckAppliesTo;
  using detlint::CheckId;
  // D1 everywhere but the shims that own these calls.
  EXPECT_TRUE(CheckAppliesTo(CheckId::kD1, "src/core/orderer.cc"));
  EXPECT_TRUE(CheckAppliesTo(CheckId::kD1, "bench/bench_anyk.cc"));
  EXPECT_FALSE(CheckAppliesTo(CheckId::kD1, "src/runtime/clock.h"));
  EXPECT_FALSE(CheckAppliesTo(CheckId::kD1, "src/runtime/clock.cc"));
  EXPECT_FALSE(CheckAppliesTo(CheckId::kD1, "src/base/rng.h"));
  // D2 only in the ordering/emission/answer paths.
  EXPECT_TRUE(CheckAppliesTo(CheckId::kD2, "src/anyk/executor.cc"));
  EXPECT_TRUE(CheckAppliesTo(CheckId::kD2, "src/sim/harness.cc"));
  EXPECT_TRUE(CheckAppliesTo(CheckId::kD2, "src/reference/pi.cc"));
  EXPECT_TRUE(CheckAppliesTo(CheckId::kD4, "src/reference/batch_topk.cc"));
  EXPECT_FALSE(CheckAppliesTo(CheckId::kD2, "src/service/session.cc"));
  EXPECT_FALSE(CheckAppliesTo(CheckId::kD2, "tests/mediator_test.cc"));
  // D3 only in the weight fold paths.
  EXPECT_TRUE(CheckAppliesTo(CheckId::kD3, "src/anyk/weights.cc"));
  EXPECT_FALSE(CheckAppliesTo(CheckId::kD3, "src/exec/mediator.cc"));
  // D4 across src/.
  EXPECT_TRUE(CheckAppliesTo(CheckId::kD4, "src/datalog/term.h"));
  EXPECT_FALSE(CheckAppliesTo(CheckId::kD4, "bench/bench_util.h"));
}

TEST(DetlintScopingTest, ScanVisitsSourcesButNotTheLinterItself) {
  using detlint::ScanVisits;
  EXPECT_TRUE(ScanVisits("src/core/orderer.cc"));
  EXPECT_TRUE(ScanVisits("tests/mediator_test.cc"));
  EXPECT_TRUE(ScanVisits("bench/bench_flags.h"));
  EXPECT_FALSE(ScanVisits("tools/detlint/scanner.cc"));
  EXPECT_FALSE(ScanVisits("tools/detlint/testdata/d1_banned_sources.cc"));
  EXPECT_FALSE(ScanVisits("src/core/README.md"));
  EXPECT_FALSE(ScanVisits("docs/DESIGN.md"));
}

TEST(DetlintDirectiveTest, CommentsAndStringsNeverFire) {
  const std::string contents =
      "// std::rand() in a comment\n"
      "/* steady_clock in a block comment */\n"
      "const char* s = \"std::random_device\";\n"
      "const char* r = R\"(getenv inside a raw string)\";\n";
  EXPECT_TRUE(detlint::ScanFile("src/core/x.cc", contents).empty());
}

TEST(DetlintDirectiveTest, SuppressionCoversSameAndNextLineOnly) {
  const std::string directive =
      "// detlint: order-insensitive(membership only)\n";
  const std::string hit = "std::unordered_set<int> s;\n";
  EXPECT_TRUE(
      detlint::ScanFile("src/core/x.cc", directive + hit).empty());
  // One intervening line and the suppression no longer reaches.
  EXPECT_FALSE(
      detlint::ScanFile("src/core/x.cc", directive + "int y;\n" + hit)
          .empty());
}

TEST(DetlintDirectiveTest, AllowIsCheckSpecific) {
  // An allow(D1) does not silence a D2 on the same line.
  const std::string contents =
      "// detlint: allow(D1, wrong check)\n"
      "std::unordered_set<int> s;\n";
  const auto findings = detlint::ScanFile("src/core/x.cc", contents);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, detlint::CheckId::kD2);
}

TEST(DetlintDirectiveTest, ReasonIsMandatory) {
  const std::string contents =
      "// detlint: allow(D1, )\n"
      "auto t = std::chrono::steady_clock::now();\n";
  const auto findings = detlint::ScanFile("src/service/x.cc", contents);
  // Both the undimmed D1 and the malformed-directive report surface.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].message, "suppression directive without a reason");
  EXPECT_EQ(findings[1].check, detlint::CheckId::kD1);
}

TEST(DetlintDirectiveTest, HexLiteralsDoNotTripTheFloatHeuristic) {
  // The avalanche constant of anyk/weights.cc — its embedded "9e37" must
  // not read as an exponent literal.
  const std::string contents = "x += 0x9e3779b97f4a7c15ull;\n";
  EXPECT_TRUE(detlint::ScanFile("src/anyk/x.cc", contents).empty());
}

TEST(DetlintTreeTest, RepositoryScanIsClean) {
  const std::vector<detlint::Finding> findings =
      detlint::ScanTree(DETLINT_REPO_ROOT);
  for (const detlint::Finding& f : findings) {
    ADD_FAILURE() << detlint::FormatFinding(f);
  }
}

}  // namespace
