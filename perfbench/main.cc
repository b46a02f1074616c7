// The benchmark harness binary. perfbench/run.py builds it and passes its
// own command-line arguments through:
//
//   perfbench --workload <stream|churn|fs> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-file <path>]
//
// It sets the workload up kSetups times (reporting the median as setup_s),
// runs the last set-up once, checks its outputs, and prints one JSON
// result object as the last line of standard output: end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1. A traced run also
// writes every operation's spans to --trace-file when given.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "perfbench.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
/// Consecutive windows the measured latency samples are split into. Each
/// window's quantile is scaled by the control arm's speed in that window,
/// and the median over the windows is reported.
constexpr size_t kWindows = 10;

struct Args {
  std::string workload;
  RunConfig config;
  std::string trace_file;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->config.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args->config.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args->config.seconds > 0;
    } else if (flag == "--trace") {
      args->config.trace = std::strcmp(value, "1") == 0;
      have_trace = args->config.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_seconds && have_trace;
}

/// Linear-interpolated quantile of a sample, q in [0, 1].
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(at));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}

/// The q-quantile of the samples, scaled to the control arm's reference
/// speed window by window (see kWindows). With `scaled` false the
/// windows' raw quantiles are used instead.
double WindowedQuantile(std::vector<Sample> samples, const ControlArm& control,
                        double q, bool scaled) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.at < b.at; });
  const size_t n = samples.size();
  const size_t windows = std::min(kWindows, n);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = w * n / windows;
    const size_t end = (w + 1) * n / windows;
    std::vector<double> values;
    for (size_t i = begin; i < end; ++i) values.push_back(samples[i].seconds);
    const double speed =
        scaled ? kControlReferenceSeconds /
                     control.SecondsNear(samples[begin].at, samples[end - 1].at)
               : 1.0;
    per_window.push_back(Quantile(std::move(values), q) * speed);
  }
  return Quantile(std::move(per_window), 0.5);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEnd(const Outcome& outcome,
                             const std::vector<double>& setups) {
  const auto latency_ms = [&](double q) {
    return WindowedQuantile(outcome.latencies, outcome.control, q, true) * 1e3;
  };
  return {
      {"latency_p50_ms", latency_ms(0.5), "ms"},
      {"latency_p90_ms", latency_ms(0.9), "ms"},
      {"setup_s", Quantile(setups, 0.5), "s"},
  };
}

/// Per-operation means over the traced operations, so the layer times
/// add up to op_ms.
std::vector<Metric> PerLayer(const Outcome& outcome) {
  double sum[6] = {0, 0, 0, 0, 0, 0};
  double records = 0, pairs = 0, matches = 0;
  for (const OpSpans& op : outcome.ops) {
    const double parts[6] = {op.total,   op.candidate, op.eval,
                             op.cluster, op.deliver,   op.Unattributed()};
    for (int i = 0; i < 6; ++i) sum[i] += parts[i];
    records += static_cast<double>(op.records);
    pairs += static_cast<double>(op.pairs_evaluated);
    matches += static_cast<double>(op.matches_added);
  }
  const double n = static_cast<double>(outcome.ops.size());
  return {
      {"op_ms", sum[0] / n * 1e3, "ms"},
      {"candidate_ms", sum[1] / n * 1e3, "ms"},
      {"eval_ms", sum[2] / n * 1e3, "ms"},
      {"cluster_ms", sum[3] / n * 1e3, "ms"},
      {"deliver_ms", sum[4] / n * 1e3, "ms"},
      {"unattributed_ms", sum[5] / n * 1e3, "ms"},
      {"records_per_op", records / n, "count"},
      {"pairs_per_op", pairs / n, "count"},
      {"matches_per_op", matches / n, "count"},
      {"match_yield", matches / std::max(1.0, pairs), "ratio"},
      {"control_ms", outcome.control.MedianSeconds() * 1e3, "ms"},
  };
}

/// Writes every traced operation's spans, in milliseconds, as a JSON
/// array (one object per operation).
void WriteTrace(const std::string& path, const Outcome& outcome) {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < outcome.ops.size(); ++i) {
    const OpSpans& op = outcome.ops[i];
    char line[640];
    std::snprintf(
        line, sizeof(line),
        "{\"op\": %zu, \"start_ms\": %.4f, \"total_ms\": %.4f, "
        "\"candidate_ms\": %.4f, \"eval_ms\": %.4f, \"cluster_ms\": %.4f, "
        "\"deliver_ms\": %.4f, \"unattributed_ms\": %.4f, "
        "\"stage_ms\": %.4f, \"merge_ms\": %.4f, \"scan_ms\": %.4f, "
        "\"rerank_ms\": %.4f, \"publish_ms\": %.4f, \"diff_ms\": %.4f, "
        "\"apply_ms\": %.4f, \"reader_ms\": %.4f, \"records\": %zu, "
        "\"pairs_evaluated\": %zu, "
        "\"matches_added\": %zu, \"publish_bytes\": %zu}",
        i, (op.start - outcome.ops.front().start) * 1e3, op.total * 1e3,
        op.candidate * 1e3, op.eval * 1e3, op.cluster * 1e3,
        op.deliver * 1e3, op.Unattributed() * 1e3, op.stage * 1e3,
        op.merge * 1e3, op.scan * 1e3, op.rerank * 1e3, op.publish * 1e3,
        op.diff * 1e3, op.apply * 1e3, op.reader * 1e3, op.records,
        op.pairs_evaluated,
        op.matches_added, op.publish_bytes);
    out << line << (i + 1 < outcome.ops.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <stream|churn|fs> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-file <path>]\n");
    return 2;
  }
  Result<std::unique_ptr<Workload>> (*setup)(const RunConfig&) = nullptr;
  if (args.workload == "stream") {
    setup = SetupStream;
  } else if (args.workload == "churn") {
    setup = SetupChurn;
  } else if (args.workload == "fs") {
    setup = SetupOneShotFs;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Set-up times are scaled like the latencies, by the control arm run
  // right before and after each set-up.
  std::unique_ptr<Workload> workload;
  ControlArm setup_control;
  std::vector<double> setups;
  std::vector<double> raw_setups;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();  // one set-up's state alive at a time
    const double before = setup_control.Run();
    const double start = MonotonicSeconds();
    auto made = setup(args.config);
    raw_setups.push_back(MonotonicSeconds() - start);
    const double control = (before + setup_control.Run()) / 2;
    setups.push_back(raw_setups.back() * kControlReferenceSeconds / control);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    workload = std::move(*made);
  }

  Outcome outcome = workload->Run(args.config);
  const bool measured = args.config.trace ? !outcome.ops.empty()
                                          : !outcome.latencies.empty();
  if (!measured || outcome.attempted == 0) {
    outcome.Fail("the run measured no operations");
  }
  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  std::printf("# workload %s, seed %llu, %zu operations, %zu latency "
              "samples\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.config.seed),
              outcome.ops.size(), outcome.latencies.size());
  if (!outcome.latencies.empty()) {
    outcome.notes.emplace_back(
        "raw_latency_p50_ms",
        WindowedQuantile(outcome.latencies, outcome.control, 0.5, false) * 1e3);
    outcome.notes.emplace_back(
        "raw_latency_p90_ms",
        WindowedQuantile(outcome.latencies, outcome.control, 0.9, false) * 1e3);
  }
  outcome.notes.emplace_back("raw_setup_s", Quantile(raw_setups, 0.5));
  for (const auto& [name, value] : outcome.notes) {
    std::printf("# %s %.6g\n", name.c_str(), value);
  }
  if (args.config.trace && !args.trace_file.empty() && !outcome.ops.empty()) {
    WriteTrace(args.trace_file, outcome);
  }

  std::vector<Metric> metrics;
  if (measured) {
    metrics = args.config.trace ? PerLayer(outcome)
                                : EndToEnd(outcome, setups);
  }
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<size_t>(1, outcome.attempted));
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char entry[160];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += entry;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
