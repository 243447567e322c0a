// End-to-end benchmark driver (see README.md). Usage:
//
//   ppml_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--scratch <dir>]
//
// Runs one workload, checks its outputs, writes a human-readable summary to
// stderr and, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). A per-layer metric a workload does not exercise
// reads 0.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

Clock::time_point g_process_start;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"rounds_s", "s"},
    {"round_ms_p50", "ms"},    {"test_accuracy", "fraction"},
    {"peak_rss_mb", "MiB"},    {"serve_qps", "1/s"},
    {"batch_ms_p50", "ms"},    {"batch_ms_p99", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"data.generate_s", "s"},
    {"data.prepare_s", "s"},
    {"mapreduce.serialize_s", "s"},
    {"net.bytes", "bytes"},
    {"net.messages", "count"},
    {"blockstore.spill.bytes", "bytes"},
    {"core.engine_build_s", "s"},
    {"core.learner_build_s", "s"},
    {"core.local_step_s", "s"},
    {"core.local_step_crit_ms_p50", "ms"},
    {"qp.box.sweeps", "count"},
    {"qp.factored.sweeps", "count"},
    {"core.combine_s", "s"},
    {"core.round_rest_ms_p50", "ms"},
    {"crypto.key_agreement_s", "s"},
    {"crypto.share_dealing_s", "s"},
    {"crypto.contribute_ms_p50", "ms"},
    {"crypto.reduce_ms_p50", "ms"},
    {"crypto.masks_generated", "count/round"},
    {"crypto.shamir_reconstructions", "count/drop"},
    {"serve.model_train_s", "s"},
    {"serve.submit_s", "s"},
    {"serve.secure_sum_s", "s"},
    {"serve.cache_hit_ratio", "fraction"},
    {"serve.cache.bypass", "count"},
    {"unattributed_s", "s"},
    {"trace_overhead_s", "s"},
};

[[noreturn]] void usage(const char* reason) {
  std::fprintf(stderr,
               "ppml_perfbench: %s\nusage: ppml_perfbench --workload "
               "<agg-m256-dropout|train-paper-m4|train-higgs-1m|"
               "serve-kernel-mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--scratch <dir>]\n",
               reason);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0))
        usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace takes 0 or 1");
      options.trace = value[0] == '1';
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

}  // namespace

Clock::time_point process_start() { return g_process_start; }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  g_process_start = Clock::now();
  const Options options = parse(argc, argv);

  RunReport report;
  try {
    if (options.workload == "agg-m256-dropout")
      report = run_agg(options);
    else if (options.workload == "train-paper-m4")
      report = run_train(options, /*paper_scale=*/true);
    else if (options.workload == "train-higgs-1m")
      report = run_train(options, /*paper_scale=*/false);
    else if (options.workload == "serve-kernel-mixed")
      report = run_serve(options);
    else
      usage(("unknown workload " + options.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppml_perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& failure : report.failures)
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());

  std::string metrics;
  // Every end-to-end metric is required; a per-layer metric the workload
  // does not exercise reads 0.
  const auto emit = [&](const MetricSpec& spec, bool required) {
    const auto it = report.values.find(spec.name);
    if (it == report.values.end() && required) {
      std::fprintf(stderr, "ppml_perfbench: %s did not report %s\n",
                   options.workload.c_str(), spec.name);
      std::exit(3);
    }
    const double value = it == report.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "ppml_perfbench: %s is not finite\n", spec.name);
      std::exit(3);
    }
    std::fprintf(stderr, "  %-32s %.6g %s\n", spec.name, value, spec.unit);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  };
  std::fprintf(stderr, "%s seed=%llu trace=%d\n", options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0);
  if (options.trace)
    for (const MetricSpec& spec : kPerLayer) emit(spec, false);
  else
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true);

  // An operation that throws ends the run with exit code 1, so every run
  // that prints a result has failed no operation.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": 0, "
              "\"metrics\": {%s}}\n",
              report.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              metrics.c_str());
  return 0;
}
