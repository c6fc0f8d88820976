/// planorder_sim: the deterministic simulation & differential
/// property-testing driver (DESIGN.md §7). Sweeps seeded random scenarios —
/// synthetic LAV catalogs, all Section 6 utility measures, every ordering
/// algorithm, runtime fault/latency schedules at 1..N runtime threads —
/// and cross-checks each against the exhaustive-order oracle and the
/// metamorphic properties. On failure it greedily shrinks the scenario to a
/// minimal reproducer and prints a one-line replay command; the process
/// exits nonzero.
///
/// Usage:
///   planorder_sim --iters=500            # CI smoke sweep, seed 1
///   planorder_sim --seed=7 --iters=5000  # nightly sweep
///   planorder_sim --replay=7:123         # replay one failing step
///   planorder_sim --replay-file=min.scenario   # run a shrunk artifact
///   planorder_sim --corpus=tests/sim_corpus.txt
///   planorder_sim --artifact=min.scenario      # where to write reproducers

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/parse_number.h"
#include "sim/harness.h"
#include "sim/scenario.h"
#include "sim/shrink.h"

namespace planorder::sim {
namespace {

struct Flags {
  uint64_t seed = 1;
  int iters = 100;
  int start = 0;
  bool shrink = true;
  bool verbose = false;
  std::string replay;       // "seed:step"
  std::string replay_file;  // serialized Scenario
  std::string corpus;       // file of "seed:step" lines
  std::string artifact;     // where to write the minimized scenario
  std::vector<int> threads;  // overrides scenario runtime thread counts
  std::string anyk;         // "", "force" (ranked check on everywhere),
                            // or "only" (ranked check alone)
  std::string multi;        // "", "force" (multi-session check on
                            // everywhere), or "only" (that check alone)
  std::string drift;        // "", "force" (adaptive re-ranking check on
                            // everywhere), or "only" (that check alone)
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// Parses a SEED:STEP pair (the --replay value and each corpus line).
bool ParseSeedStep(const std::string& text, std::pair<uint64_t, int>* out) {
  const size_t colon = text.find(':');
  return colon != std::string::npos &&
         ParseNumber(text.substr(0, colon), &out->first) &&
         ParseNumber(text.substr(colon + 1), &out->second);
}

bool BadValue(const std::string& arg) {
  std::cerr << "bad value in " << arg << "\n";
  return false;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "seed", &value)) {
      if (!ParseNumber(value, &flags->seed)) return BadValue(arg);
    } else if (ParseFlag(arg, "iters", &value)) {
      if (!ParseNumber(value, &flags->iters)) return BadValue(arg);
    } else if (ParseFlag(arg, "start", &value)) {
      if (!ParseNumber(value, &flags->start)) return BadValue(arg);
    } else if (ParseFlag(arg, "replay", &value)) {
      flags->replay = value;
    } else if (ParseFlag(arg, "replay-file", &value)) {
      flags->replay_file = value;
    } else if (ParseFlag(arg, "corpus", &value)) {
      flags->corpus = value;
    } else if (ParseFlag(arg, "artifact", &value)) {
      flags->artifact = value;
    } else if (ParseFlag(arg, "threads", &value)) {
      flags->threads.clear();
      std::istringstream stream(value);
      std::string item;
      while (std::getline(stream, item, ',')) {
        if (item.empty()) continue;
        int threads = 0;
        if (!ParseNumber(item, &threads) || threads < 1) return BadValue(arg);
        flags->threads.push_back(threads);
      }
    } else if (ParseFlag(arg, "anyk", &value)) {
      if (value != "force" && value != "only") {
        std::cerr << "--anyk wants 'force' or 'only', got '" << value
                  << "'\n";
        return false;
      }
      flags->anyk = value;
    } else if (ParseFlag(arg, "multi", &value)) {
      if (value != "force" && value != "only") {
        std::cerr << "--multi wants 'force' or 'only', got '" << value
                  << "'\n";
        return false;
      }
      flags->multi = value;
    } else if (ParseFlag(arg, "drift", &value)) {
      if (value != "force" && value != "only") {
        std::cerr << "--drift wants 'force' or 'only', got '" << value
                  << "'\n";
        return false;
      }
      flags->drift = value;
    } else if (arg == "--no-shrink") {
      flags->shrink = false;
    } else if (arg == "--verbose") {
      flags->verbose = true;
    } else if (arg == "--help") {
      return false;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return false;
    }
  }
  return true;
}

void Usage() {
  std::cerr
      << "planorder_sim — differential simulation sweep of the plan-ordering "
         "library\n"
         "  --seed=S            sweep seed (default 1)\n"
         "  --iters=N           scenarios to run (default 100)\n"
         "  --start=K           first sweep step (default 0)\n"
         "  --threads=a,b       override scenario runtime thread counts\n"
         "  --anyk=force|only   force the ranked (any-k) check on in every\n"
         "                      scenario; 'only' also turns every other\n"
         "                      check off (the CI ranked slice)\n"
         "  --multi=force|only  likewise for the multi-session cluster\n"
         "                      check (the CI cluster slice)\n"
         "  --drift=force|only  likewise for the adaptive re-ranking\n"
         "                      check (the CI drift slice)\n"
         "  --replay=SEED:STEP  replay one sweep step\n"
         "  --replay-file=PATH  run a serialized (e.g. shrunk) scenario\n"
         "  --corpus=PATH       run every SEED:STEP line of a corpus file\n"
         "  --artifact=PATH     write the minimized failing scenario here\n"
         "  --no-shrink         report the raw failure without minimizing\n"
         "  --verbose           per-scenario progress\n";
}

/// Runs one scenario; on failure prints the report (shrinking unless
/// disabled), writes the artifact, and returns false.
bool RunOne(const Scenario& scenario, const Flags& flags,
            const SimOptions& options, SimReport* report) {
  Status status = RunScenario(scenario, options, report);
  if (status.ok()) return true;

  std::cerr << "\nFAIL " << scenario.Summary() << "\n  " << status.message()
            << "\n  replay: planorder_sim --replay=" << scenario.base_seed
            << ":" << scenario.step << "\n";
  std::string artifact_body = scenario.Serialize();
  if (flags.shrink) {
    std::cerr << "  shrinking..." << std::flush;
    const ShrinkResult minimized = Shrink(scenario, options);
    std::cerr << " done (" << minimized.attempts << " attempts, "
              << minimized.rounds << " rounds)\n";
    std::cerr << "  minimized: " << minimized.scenario.Summary() << "\n  "
              << minimized.failure << "\n  scenario: "
              << minimized.scenario.Serialize() << "\n";
    artifact_body = minimized.scenario.Serialize();
  }
  if (!flags.artifact.empty()) {
    std::ofstream out(flags.artifact);
    out << artifact_body << "\n";
    std::cerr << "  artifact written to " << flags.artifact << "\n";
  }
  return false;
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    Usage();
    return 2;
  }
  SimOptions options;
  SimReport report;

  auto apply_overrides = [&flags](Scenario scenario) {
    if (!flags.threads.empty()) scenario.thread_counts = flags.threads;
    if (!flags.anyk.empty()) {
      scenario.check_ranked = true;
      if (flags.anyk == "only") {
        // Ranked check alone: no (measure, algo) sweeps, no runtime check.
        scenario.measures.clear();
        scenario.check_runtime = false;
        scenario.check_multi = false;
        scenario.check_drift = false;
      }
    }
    if (!flags.multi.empty()) {
      scenario.check_multi = true;
      if (flags.multi == "only") {
        scenario.measures.clear();
        scenario.check_runtime = false;
        scenario.check_ranked = false;
        scenario.check_drift = false;
      }
    }
    if (!flags.drift.empty()) {
      scenario.check_drift = true;
      if (flags.drift == "only") {
        scenario.measures.clear();
        scenario.check_runtime = false;
        scenario.check_ranked = false;
        scenario.check_multi = false;
      }
    }
    return scenario;
  };

  if (!flags.replay_file.empty()) {
    std::ifstream in(flags.replay_file);
    if (!in) {
      std::cerr << "cannot open " << flags.replay_file << "\n";
      return 2;
    }
    std::string line;
    std::getline(in, line);
    StatusOr<Scenario> scenario = Scenario::Deserialize(line);
    if (!scenario.ok()) {
      std::cerr << "bad scenario file: " << scenario.status().message()
                << "\n";
      return 2;
    }
    if (!RunOne(apply_overrides(*scenario), flags, options, &report)) {
      return 1;
    }
    std::cout << "scenario OK (" << report.checks << " checks, "
              << report.skipped << " skipped)\n";
    return 0;
  }

  std::vector<std::pair<uint64_t, int>> steps;
  if (!flags.replay.empty()) {
    std::pair<uint64_t, int> step;
    if (!ParseSeedStep(flags.replay, &step)) {
      std::cerr << "--replay wants SEED:STEP\n";
      return 2;
    }
    steps.push_back(step);
  } else if (!flags.corpus.empty()) {
    std::ifstream in(flags.corpus);
    if (!in) {
      std::cerr << "cannot open " << flags.corpus << "\n";
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::pair<uint64_t, int> step;
      if (!ParseSeedStep(line, &step)) {
        std::cerr << "bad corpus line (want SEED:STEP): " << line << "\n";
        return 2;
      }
      steps.push_back(step);
    }
  } else {
    for (int i = 0; i < flags.iters; ++i) {
      steps.emplace_back(flags.seed, flags.start + i);
    }
  }

  for (size_t i = 0; i < steps.size(); ++i) {
    const Scenario scenario =
        apply_overrides(MakeScenario(steps[i].first, steps[i].second));
    if (flags.verbose) {
      std::cout << "[" << (i + 1) << "/" << steps.size() << "] "
                << scenario.Summary() << "\n";
    } else if (i > 0 && i % 50 == 0) {
      std::cout << "  ..." << i << "/" << steps.size() << " scenarios, "
                << report.checks << " checks\n"
                << std::flush;
    }
    if (!RunOne(scenario, flags, options, &report)) return 1;
  }
  std::cout << steps.size() << " scenarios OK (" << report.checks
            << " checks, " << report.skipped << " inapplicable pairs "
            << "skipped)\n";
  return 0;
}

}  // namespace
}  // namespace planorder::sim

int main(int argc, char** argv) { return planorder::sim::Main(argc, argv); }
