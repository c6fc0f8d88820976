// planorder_cli: order the query plans of a text-described integration
// domain.
//
// Usage:  planorder_cli <domain-file>
//
// Domain file directives (line oriented, '%' starts a comment):
//
//   relation <name> <arity>
//   source <view rule>                 e.g. source v1(A,M) :- play-in(A,M)
//   binding <source> <pattern>         access adornment, e.g. binding v4 fb
//                                      ('b' = caller must bind the position)
//   stats <source> key=value...        keys: cardinality alpha failure fee
//                                      regions=<a>-<b> or regions=i,j,k
//   regions-per-bucket <n>             1..64, default 16
//   overhead <h>                       access overhead, default 5
//   measure <name>                     additive | cost2 | cost2-uniform-alpha
//                                      | failure-nocache | failure-cache
//                                      | monetary | monetary-cache | coverage
//   algorithm <name>                   greedy | streamer | idrips | pi | naive
//                                      | idrips-rebuild | auto (greedy when
//                                      fully monotonic, else idrips)
//   emit <k>                           how many plans to print (default 10)
//   query <rule>                       the user query (required, once)
//   fact <atom>                        a source tuple, e.g. fact v1(ford, m1)
//   execute                            run the mediator over the facts and
//                                      print the anytime answer table
//
// The tool builds the buckets, derives a workload from the per-source
// statistics, streams the first k plans from the chosen algorithm, tests
// each for soundness and prints the rewriting. See examples/movies.domain.
// Every number is parsed in full; a malformed or out-of-range value is an
// error naming the file and line.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "base/parse_number.h"
#include "core/orderer_factory.h"
#include "datalog/parser.h"
#include "exec/mediator.h"
#include "reference/orderer_factory.h"
#include "reformulation/bucket.h"
#include "reformulation/executable_order.h"
#include "utility/measures.h"

namespace {

using namespace planorder;

struct CliConfig {
  datalog::Catalog catalog;
  std::optional<datalog::ConjunctiveQuery> query;
  std::map<std::string, stats::SourceStats> stats_by_source;
  datalog::Database facts;
  bool execute = false;
  int regions_per_bucket = 16;
  double overhead = 5.0;
  std::string measure = "cost2";
  std::string algorithm = "streamer";
  int emit = 10;
};

/// `limit` is the validated regions-per-bucket (1..64), so every shift below
/// stays inside the 64-bit mask.
StatusOr<stats::RegionMask> ParseRegions(const std::string& spec, int limit) {
  stats::RegionMask mask;
  std::stringstream ss(spec);
  std::string part;
  while (std::getline(ss, part, ',')) {
    const size_t dash = part.find('-');
    const std::string first = part.substr(0, dash);  // all of it if no dash
    const std::string last =
        dash == std::string::npos ? first : part.substr(dash + 1);
    int lo = 0, hi = 0;
    if (!ParseNumber(first, &lo) || !ParseNumber(last, &hi) || lo < 0 ||
        hi >= limit || lo > hi) {
      return InvalidArgumentError("bad region spec '" + spec + "'");
    }
    for (int r = lo; r <= hi; ++r) mask.bits |= uint64_t{1} << r;
  }
  if (mask.empty()) return InvalidArgumentError("empty region spec");
  return mask;
}

StatusOr<utility::MeasureKind> ParseMeasure(const std::string& name) {
  for (utility::MeasureKind kind :
       {utility::MeasureKind::kAdditive, utility::MeasureKind::kCost2,
        utility::MeasureKind::kCost2UniformAlpha,
        utility::MeasureKind::kFailureNoCache,
        utility::MeasureKind::kFailureCache, utility::MeasureKind::kMonetary,
        utility::MeasureKind::kMonetaryCache,
        utility::MeasureKind::kCoverage}) {
    if (utility::MeasureKindName(kind) == name) return kind;
  }
  return InvalidArgumentError("unknown measure '" + name + "'");
}

StatusOr<CliConfig> ParseDomainFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  CliConfig config;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t comment = line.find('%');
    if (comment != std::string::npos) line = line.substr(0, comment);
    std::stringstream ss(line);
    std::string directive;
    if (!(ss >> directive)) continue;
    auto fail = [&](const std::string& message) {
      return InvalidArgumentError(path + ":" + std::to_string(line_number) +
                                  ": " + message);
    };
    // The directive's next token, for the numeric directives.
    std::string number;
    if (directive == "relation") {
      std::string name;
      int arity = 0;
      if (!(ss >> name >> number)) return fail("relation <name> <arity>");
      if (!ParseNumber(number, &arity) || arity < 1) {
        return fail("arity must be a positive integer, got '" + number + "'");
      }
      PLANORDER_RETURN_IF_ERROR(config.catalog.schema().AddRelation(
          name, static_cast<size_t>(arity)));
    } else if (directive == "source") {
      std::string rest;
      std::getline(ss, rest);
      auto id = config.catalog.AddSourceFromText(rest);
      if (!id.ok()) return fail(id.status().ToString());
    } else if (directive == "binding") {
      std::string source, pattern;
      if (!(ss >> source >> pattern)) return fail("binding <source> <pattern>");
      datalog::SourceId id = -1;
      for (datalog::SourceId i = 0; i < config.catalog.num_sources(); ++i) {
        if (config.catalog.source(i).name == source) id = i;
      }
      if (id < 0) return fail("unknown source '" + source + "'");
      if (Status s = config.catalog.SetBindingPattern(id, pattern); !s.ok()) {
        return fail(s.ToString());
      }
    } else if (directive == "stats") {
      std::string source;
      if (!(ss >> source)) return fail("stats <source> key=value...");
      stats::SourceStats& s = config.stats_by_source[source];
      std::string kv;
      while (ss >> kv) {
        const size_t eq = kv.find('=');
        if (eq == std::string::npos) return fail("expected key=value");
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        double* field = nullptr;
        if (key == "cardinality") {
          field = &s.cardinality;
        } else if (key == "alpha") {
          field = &s.transmission_cost;
        } else if (key == "failure") {
          field = &s.failure_prob;
        } else if (key == "fee") {
          field = &s.fee;
        } else if (key == "regions") {
          StatusOr<stats::RegionMask> regions =
              ParseRegions(value, config.regions_per_bucket);
          if (!regions.ok()) return fail(regions.status().message());
          s.regions = *regions;
        } else {
          return fail("unknown stats key '" + key + "'");
        }
        if (field != nullptr && !ParseNumber(value, field)) {
          return fail("bad " + key + " '" + value + "'");
        }
      }
    } else if (directive == "regions-per-bucket") {
      if (!(ss >> number) || !ParseNumber(number, &config.regions_per_bucket) ||
          config.regions_per_bucket < 1 || config.regions_per_bucket > 64) {
        return fail("regions-per-bucket must be in 1..64, got '" + number +
                    "'");
      }
    } else if (directive == "overhead") {
      if (!(ss >> number) || !ParseNumber(number, &config.overhead)) {
        return fail("bad overhead '" + number + "'");
      }
    } else if (directive == "measure") {
      if (!(ss >> config.measure)) return fail("expected measure name");
    } else if (directive == "algorithm") {
      if (!(ss >> config.algorithm)) return fail("expected algorithm name");
    } else if (directive == "emit") {
      if (!(ss >> number) || !ParseNumber(number, &config.emit) ||
          config.emit < 1) {
        return fail("emit must be a positive integer, got '" + number + "'");
      }
    } else if (directive == "fact") {
      std::string rest;
      std::getline(ss, rest);
      auto atom = datalog::ParseAtom(rest);
      if (!atom.ok()) return fail(atom.status().ToString());
      if (!atom->IsGround()) return fail("facts must be ground");
      config.facts.AddFact(*atom);
    } else if (directive == "execute") {
      config.execute = true;
    } else if (directive == "query") {
      std::string rest;
      std::getline(ss, rest);
      auto query = datalog::ParseRule(rest);
      if (!query.ok()) return fail(query.status().ToString());
      config.query = *query;
    } else {
      return fail("unknown directive '" + directive + "'");
    }
  }
  if (!config.query.has_value()) {
    return InvalidArgumentError(path + ": missing 'query' directive");
  }
  return config;
}

Status Run(const std::string& path) {
  PLANORDER_ASSIGN_OR_RETURN(CliConfig config, ParseDomainFile(path));
  PLANORDER_ASSIGN_OR_RETURN(
      reformulation::BucketResult buckets,
      reformulation::BuildBuckets(*config.query, config.catalog));

  std::printf("query: %s\n", config.query->ToString().c_str());
  std::vector<std::vector<stats::SourceStats>> bucket_stats;
  std::vector<std::vector<double>> weights;
  std::vector<double> domain_sizes;
  for (size_t b = 0; b < buckets.buckets.size(); ++b) {
    if (buckets.buckets[b].empty()) {
      std::printf("subgoal %zu has no relevant source: no plans.\n", b);
      return OkStatus();
    }
    std::printf("bucket %zu:", b);
    std::vector<stats::SourceStats> members;
    double max_cardinality = 1.0;
    for (datalog::SourceId id : buckets.buckets[b]) {
      const std::string& name = config.catalog.source(id).name;
      std::printf(" %s", name.c_str());
      stats::SourceStats s;
      auto it = config.stats_by_source.find(name);
      if (it != config.stats_by_source.end()) s = it->second;
      if (s.regions.empty()) s.regions.bits = 1;
      max_cardinality = std::max(max_cardinality, s.cardinality);
      members.push_back(s);
    }
    std::printf("\n");
    bucket_stats.push_back(std::move(members));
    weights.emplace_back(config.regions_per_bucket,
                         1.0 / config.regions_per_bucket);
    domain_sizes.push_back(4.0 * max_cardinality);
  }
  PLANORDER_ASSIGN_OR_RETURN(
      stats::Workload workload,
      stats::Workload::FromParts(std::move(bucket_stats), std::move(weights),
                                 config.overhead, std::move(domain_sizes)));

  PLANORDER_ASSIGN_OR_RETURN(utility::MeasureKind kind,
                             ParseMeasure(config.measure));
  PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<utility::UtilityModel> model,
                             utility::MakeMeasure(kind, &workload));
  PLANORDER_ASSIGN_OR_RETURN(core::OrdererKind algorithm,
                             core::OrdererKindFromName(config.algorithm));
  PLANORDER_ASSIGN_OR_RETURN(
      std::unique_ptr<core::Orderer> orderer,
      core::MakeReferenceOrderer({algorithm}, &workload, model.get(),
                                 {core::PlanSpace::FullSpace(workload)}));

  if (config.execute) {
    // Full mediation: execute the ordered plans over the declared facts and
    // print the anytime answer table.
    std::vector<std::vector<datalog::SourceId>> source_ids = buckets.buckets;
    exec::Mediator mediator(&config.catalog, *config.query, source_ids);
    PLANORDER_ASSIGN_OR_RETURN(
        exec::MediatorResult result,
        mediator.Run(*orderer, {.max_plans = config.emit},
                     *exec::MakeSetOrientedExecutor(&config.facts)));
    std::printf("\nmediation with %s under '%s':\n", orderer->name().c_str(),
                model->name().c_str());
    std::printf("%4s  %10s  %6s  %6s  %6s\n", "plan", "utility", "sound",
                "new", "total");
    for (size_t i = 0; i < result.steps.size(); ++i) {
      const exec::MediatorStep& step = result.steps[i];
      std::printf("%4zu  %10.4f  %6s  %6zu  %6zu\n", i + 1,
                  step.estimated_utility,
                  !step.sound ? "no" : (step.executable ? "yes" : "stuck"),
                  step.new_answers, step.total_answers);
    }
    std::printf("\n%zu distinct answers from %zu sound plans; %lld plan "
                "evaluations\n",
                result.total_answers, result.sound_plans,
                static_cast<long long>(orderer->plan_evaluations()));
    return OkStatus();
  }

  std::printf("\n%s ordering under '%s' (first %d plans):\n",
              orderer->name().c_str(), model->name().c_str(), config.emit);
  int emitted = 0;
  while (emitted < config.emit) {
    auto next = orderer->Next();
    if (!next.ok()) {
      if (next.status().code() == StatusCode::kNotFound) break;
      return next.status();
    }
    PLANORDER_ASSIGN_OR_RETURN(
        reformulation::ResolvedPlan resolved,
        reformulation::ResolvePlan(*config.query, config.catalog,
                                   buckets.buckets, next->plan));
    if (resolved.verdict != reformulation::PlanVerdict::kUsable) {
      orderer->ReportDiscarded();
      continue;  // unsound, or not executable under the access patterns
    }
    ++emitted;
    std::printf("%3d. utility=%10.4f  %s\n", emitted, next->utility,
                resolved.plan.rewriting.ToString().c_str());
  }
  std::printf("\n%d sound plans emitted; %lld plan evaluations\n", emitted,
              static_cast<long long>(orderer->plan_evaluations()));
  return OkStatus();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <domain-file>\n", argv[0]);
    return 2;
  }
  Status status = Run(argv[1]);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
