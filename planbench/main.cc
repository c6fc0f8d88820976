/// planbench: the planorder benchmark program.
///
///   planbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Sets the workload up several times (the median is setup_s), runs its
/// correctness oracles, then measures it in a closed loop. With --trace 0
/// the last stdout line is a JSON object with the end-to-end metrics; with
/// --trace 1 it carries the per-layer metrics of a traced run instead. A
/// wrong output exits 1. See README.md for the workloads and metrics.

#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "trace.h"
#include "workload.h"

namespace planbench {
namespace {

/// Set-ups per run: at least kMinSetups, then more until kSetupBudgetS of
/// set-up has passed, at most kMaxSetups. setup_s is their median, so a
/// workload that sets up in milliseconds takes the median of many.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value != "0";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0.0;
}

/// The per-layer metrics of a traced run, in report order, with units.
struct LayerSpec {
  const char* name;
  const char* unit;
};
constexpr LayerSpec kLayerSpecs[] = {
    {"core.create_ms_p50", "ms"},
    {"core.next_us_p50", "us"},
    {"core.next_us_tail", "us"},
    {"core.evals_per_plan", "count"},
    {"core.evals_per_s", "1/s"},
    {"core.self_share", "ratio"},
    {"utility.self_share", "ratio"},
    {"datalog.canonicalize_us_p50", "us"},
    {"datalog.verify_us_p50", "us"},
    {"datalog.self_share", "ratio"},
    {"service.open_ms_p50", "ms"},
    {"service.reform_hit_rate", "ratio"},
    {"service.reform_evictions_per_op", "count"},
    {"service.queued_frac", "ratio"},
    {"service.self_share", "ratio"},
    {"reformulation.buckets_ms_p50", "ms"},
    {"reformulation.estimate_ms_p50", "ms"},
    {"reformulation.sound_us_per_plan", "us"},
    {"reformulation.exec_order_us_per_plan", "us"},
    {"reformulation.sound_frac", "ratio"},
    {"reformulation.self_share", "ratio"},
    {"adaptive.store_save_ms_p50", "ms"},
    {"adaptive.store_saves_per_op", "count"},
    {"adaptive.store_bytes", "B"},
    {"adaptive.self_share", "ratio"},
    {"exec.step_us_p50", "us"},
    {"exec.execute_ms_per_plan", "ms"},
    {"exec.dedup_us_per_plan", "us"},
    {"exec.new_answer_frac", "ratio"},
    {"exec.source_calls_per_plan", "count"},
    {"exec.tuples_shipped_per_plan", "count"},
    {"exec.failed_plan_frac", "ratio"},
    {"exec.self_share", "ratio"},
    {"runtime.retries_per_plan", "count"},
    {"runtime.self_share", "ratio"},
    {"cluster.srccache_hit_rate", "ratio"},
    {"cluster.srccache_evictions_per_op", "count"},
    {"cluster.single_flight_waits_per_op", "count"},
    {"cluster.self_share", "ratio"},
    {"anyk.open_ms_p50", "ms"},
    {"anyk.next_us_p50", "us"},
    {"anyk.open_plans_per_op", "count"},
    {"anyk.witnesses_per_answer", "count"},
    {"anyk.self_share", "ratio"},
    {"client.self_share", "ratio"},
    {"trace.ops_per_s", "1/s"},
    {"trace.overhead", "ratio"},
    {"trace.replayed_ops", "count"},
    {"trace.spans", "count"},
    {"trace.self_sum_error_us", "us"},
};

/// Layers whose self time the traced run splits (span layer names).
constexpr const char* kLayers[] = {"core",    "utility", "datalog",
                                   "service", "reformulation",
                                   "adaptive", "exec",   "runtime",
                                   "cluster", "anyk",    "client"};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << JsonNumber(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void PrintHost(const Args& args, const Workload& workload, size_t samples) {
  std::cout << "{\"workload\": \"" << args.workload << "\", \"seed\": "
            << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"host\": {\"nproc\": "
            << std::thread::hardware_concurrency() << ", \"build_type\": \""
            << PLANBENCH_BUILD_TYPE << "\", \"compiler\": \""
            << PLANBENCH_COMPILER << "\", \"client_threads\": "
            << workload.clients() << ", \"pool_threads\": "
            << workload.pool_threads() << "}, \"tail_percentile\": "
            << workload.tail_percentile() << ", \"samples\": " << samples
            << "}" << std::endl;
}

int Fail(const std::string& message) {
  std::cerr << "planbench: " << message << std::endl;
  PrintResult(false, 1, 0, {});
  return 1;
}

/// Runs `workload` for `seconds`, traced when `tracer` is non-null.
LoopResult Measure(Workload& workload, double seconds, Tracer* tracer) {
  return RunClosedLoop(
      workload.clients(), seconds,
      [&workload, tracer](int client, int64_t n, OpSample* sample) {
        if (tracer != nullptr && n == 0) tracer->Attach();
        return workload.Op(client, n, sample);
      });
}

int RunTraced(const Args& args, Workload& workload) {
  // Untraced and traced halves on the same warm instance; their throughput
  // ratio is the tracing overhead. Then each client replays its sampled
  // sessions stage by stage.
  LoopResult untraced = Measure(workload, args.seconds * 0.4, nullptr);
  if (!untraced.error.ok()) return Fail(untraced.error.ToString());
  Tracer tracer;
  workload.BeginWindow();
  LoopResult traced = Measure(workload, args.seconds * 0.4, &tracer);
  if (!traced.error.ok()) return Fail(traced.error.ToString());
  const double replay_deadline_ms = NowMs() + args.seconds * 200.0;
  std::vector<Status> replay_status(size_t(workload.clients()));
  std::vector<std::thread> replayers;
  for (int c = 0; c < workload.clients(); ++c) {
    replayers.emplace_back([&, c] {
      tracer.Attach();
      replay_status[size_t(c)] = workload.Replay(c, replay_deadline_ms);
      Tracer::Detach();
    });
  }
  for (std::thread& replayer : replayers) replayer.join();
  for (const Status& status : replay_status) {
    if (!status.ok()) return Fail(status.ToString());
  }

  const Tracer::Summary summary = tracer.Summarize();
  LayerValues values;
  workload.LayerMetrics(summary, int64_t(traced.samples.size()), &values);
  for (const char* layer : kLayers) {
    const auto it = summary.self_us_by_layer.find(layer);
    values[std::string(layer) + ".self_share"] =
        it == summary.self_us_by_layer.end() || summary.breakdown_root_us <= 0
            ? 0.0
            : it->second / summary.breakdown_root_us;
  }
  const double untraced_rate = double(untraced.samples.size()) /
                               untraced.window_s;
  const double traced_rate = double(traced.samples.size()) / traced.window_s;
  values["trace.ops_per_s"] = traced_rate;
  values["trace.overhead"] =
      traced_rate > 0.0 ? untraced_rate / traced_rate - 1.0 : 0.0;
  values["trace.replayed_ops"] = double(SpanCount(summary, "replay"));
  values["trace.spans"] = double(summary.spans);
  values["trace.self_sum_error_us"] = summary.max_self_sum_error_us;
  // An op's layer self times must add up to its span.
  if (summary.max_self_sum_error_us > 1.0) {
    return Fail("trace: layer self times do not add up to the op span");
  }

  std::filesystem::create_directories(".bench_build/trace");
  const std::string path =
      ".bench_build/trace/" + args.workload + ".spans.jsonl";
  if (!tracer.WriteJsonLines(path)) return Fail("cannot write " + path);

  int64_t failed = 0;
  for (const OpSample& s : traced.samples) failed += s.failed ? 1 : 0;
  PrintHost(args, workload, traced.samples.size());
  std::vector<Metric> metrics;
  for (const LayerSpec& spec : kLayerSpecs) {
    const auto it = values.find(spec.name);
    metrics.push_back(
        {spec.name, it == values.end() ? 0.0 : it->second, spec.unit});
  }
  PrintResult(true, int64_t(traced.samples.size()), failed, metrics);
  return 0;
}

int RunUntraced(const Args& args, Workload& workload, double setup_s) {
  workload.BeginWindow();
  LoopResult loop = Measure(workload, args.seconds, nullptr);
  if (!loop.error.ok()) return Fail(loop.error.ToString());
  std::vector<double> latency_ms;
  std::vector<double> first_ms;
  int64_t failed = 0;
  for (const OpSample& s : loop.samples) {
    if (s.failed) {
      ++failed;
      continue;
    }
    latency_ms.push_back(s.latency_ms);
    first_ms.push_back(s.first_ms);
  }
  const auto attempted = int64_t(loop.samples.size());
  if (attempted == 0) return Fail("no op completed in the window");
  const double tail = workload.tail_percentile();
  PrintHost(args, workload, loop.samples.size());
  PrintResult(
      true, attempted, failed,
      {{"ops_per_s", double(attempted - failed) / loop.window_s, "1/s"},
       {"latency_ms_p50", Percentile(latency_ms, 50.0), "ms"},
       {"latency_ms_tail", Percentile(latency_ms, tail), "ms"},
       {"first_result_ms_p50", Percentile(first_ms, 50.0), "ms"},
       {"first_result_ms_tail", Percentile(first_ms, tail), "ms"},
       {"completed_frac", double(attempted - failed) / double(attempted),
        "ratio"},
       {"peak_rss_mb", PeakRssMb(), "MB"},
       {"setup_s", setup_s, "s"}});
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: planbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }
  // Set up several times afresh; the median is setup_s and the last
  // instance is measured.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < (args.trace ? 1 : kMaxSetups); ++i) {
    if (i >= kMinSetups && setup_total_s >= kSetupBudgetS) break;
    workload.reset();
    const double start_ms = NowMs();
    auto made = MakeWorkload(args.workload, args.seed);
    if (!made.ok()) return Fail(made.status().ToString());
    workload = std::move(*made);
    setup_s.push_back((NowMs() - start_ms) / 1000.0);
    setup_total_s += setup_s.back();
  }
  const Status verified = workload->Verify();
  if (!verified.ok()) return Fail(verified.ToString());
  ResetPeakRss();
  return args.trace ? RunTraced(args, *workload)
                    : RunUntraced(args, *workload, Percentile(setup_s, 50.0));
}

}  // namespace

StatusOr<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                                 uint64_t seed) {
  if (name == "fig6-order") return MakeFig6Order(seed);
  if (name == "service-hot") return MakeServiceHot(seed);
  if (name == "service-cold") return MakeServiceCold(seed);
  if (name == "ranked") return MakeRanked(seed);
  return planorder::NotFoundError("unknown workload '" + name + "'");
}

double SpanPercentile(const Tracer::Summary& trace, const std::string& name,
                      double p, double scale) {
  const auto it = trace.durations_us.find(name);
  if (it == trace.durations_us.end()) return 0.0;
  return Percentile(it->second, p) * scale;
}

double SpanTotalUs(const Tracer::Summary& trace, const std::string& name) {
  const auto it = trace.durations_us.find(name);
  if (it == trace.durations_us.end()) return 0.0;
  double total = 0.0;
  for (double us : it->second) total += us;
  return total;
}

int64_t SpanCount(const Tracer::Summary& trace, const std::string& name) {
  const auto it = trace.durations_us.find(name);
  return it == trace.durations_us.end() ? 0 : int64_t(it->second.size());
}

void CoreLayerMetrics(const Tracer::Summary& trace, int64_t evaluations,
                      LayerValues* values) {
  LayerValues& v = *values;
  v["core.create_ms_p50"] =
      SpanPercentile(trace, "Orderer::Create", 50.0, 1e-3);
  v["core.next_us_p50"] = SpanPercentile(trace, "Orderer::Next", 50.0);
  v["core.next_us_tail"] = SpanPercentile(trace, "Orderer::Next", 99.0);
  const double core_us = SpanTotalUs(trace, "Orderer::Create") +
                         SpanTotalUs(trace, "Orderer::Next");
  v["core.evals_per_s"] =
      core_us > 0.0 ? double(evaluations) / (core_us * 1e-6) : 0.0;
}

}  // namespace planbench

int main(int argc, char** argv) { return planbench::Main(argc, argv); }
