// fedbench: the repository benchmark.
//
//   fedbench --workload <paper_sync|fleet_lazy|serve_tcp> --seed <n>
//            --seconds <s> --trace <0|1> [--scratch <dir>]
//   fedbench --list-metrics      registry as "<kind> <name> <unit>" lines
//   fedbench --selftest          percentile rule, names, seed determinism
//
// Normally launched through fedbench/run.py, which builds this binary
// first. Prints a run header, the checks, every metric by name and unit,
// and as its last stdout line one JSON object (see report.hpp).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace fedbench;

int usage() {
  std::fprintf(stderr,
               "usage: fedbench --workload <paper_sync|fleet_lazy|serve_tcp> "
               "--seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]\n"
               "       fedbench --list-metrics | --selftest\n");
  return 2;
}

const char* env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

void print_header(const std::string& workload, const RunOptions& options) {
  std::printf(
      "# fedbench {\"git_sha\": \"%s\", \"source_sha1\": \"%s\", "
      "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      env_or("FEDBENCH_GIT_SHA", "unknown"),
      env_or("FEDBENCH_SOURCE_SHA1", "unknown"),
      std::thread::hardware_concurrency(), FEDBENCH_COMPILER,
      FEDBENCH_BUILD_TYPE, workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
}

int list_metrics() {
  for (const MetricSpec& spec : metric_specs())
    std::printf("%s %s %s\n",
                spec.kind == Kind::kEndToEnd ? "end_to_end" : "per_layer",
                spec.name, spec.unit);
  return 0;
}

int selftest(const std::string& scratch) {
  Result r;
  std::vector<std::string> names;
  for (const MetricSpec& spec : metric_specs()) {
    r.check(valid_metric_name(spec.name),
            std::string("metric name ") + spec.name + " is [A-Za-z0-9_.-]+");
    names.emplace_back(spec.name);
  }
  std::sort(names.begin(), names.end());
  r.check(std::adjacent_find(names.begin(), names.end()) == names.end(),
          "metric names are unique");
  r.check(!valid_metric_name("bad name") && !valid_metric_name("_lead") &&
              !valid_metric_name("") &&
              !valid_metric_name(std::string(65, 'a')),
          "invalid metric names are rejected");

  // Percentile rank rule: nearest rank, ceil(p/100 * n), 1-based.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  r.check(percentile(hundred, 50) == 50 && percentile(hundred, 90) == 90 &&
              percentile(hundred, 99) == 99 &&
              percentile(hundred, 100) == 100 &&
              percentile(hundred, 0) == 1,
          "nearest-rank percentiles of 1..100");
  r.check(percentile({10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 90) == 90 &&
              percentile({10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 91) == 100,
          "p90 of ten samples is the 9th, p91 the 10th");
  r.check(percentile({3, 1, 2}, 50) == 2 && percentile({7}, 99) == 7 &&
              percentile({}, 50) == 0,
          "small samples: p50 of {3,1,2} is 2, any percentile of one sample "
          "is that sample");
  r.check(median({4, 1, 3, 2}) == 2.5 && median({5, 1, 3}) == 3,
          "median averages the middle pair");

  // Same seed => same committed model, final_reward and wire bytes, on
  // short configs of both run_federated workloads.
  const SyncSpec a = paper_sync_spec(7, 30, scratch + "/selftest-a");
  const SyncSpec b = paper_sync_spec(7, 30, scratch + "/selftest-b");
  const SyncOutcome oa = run_federated_once(a);
  const SyncOutcome ob = run_federated_once(b);
  r.check(oa.digest == ob.digest && oa.final_reward == ob.final_reward &&
              oa.traffic.total_bytes() == ob.traffic.total_bytes(),
          "paper_sync (30 rounds): same seed, same digest, final_reward and "
          "wire bytes");
  const SyncOutcome oc =
      run_federated_once(paper_sync_spec(8, 30, scratch + "/selftest-c"));
  r.check(oc.digest != oa.digest, "paper_sync: another seed, another digest");
  const SyncOutcome fa = run_federated_once(fleet_lazy_spec(7, 3, 2000));
  const SyncOutcome fb = run_federated_once(fleet_lazy_spec(7, 3, 2000));
  r.check(fa.digest == fb.digest &&
              fa.traffic.total_bytes() == fb.traffic.total_bytes(),
          "fleet_lazy (2000 devices, 3 rounds): same seed, same digest and "
          "wire bytes");
  std::printf("selftest %s\n", r.correct ? "ok" : "FAILED");
  return r.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  std::string scratch = ".bench_build/run";
  std::string mode;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list-metrics" || arg == "--selftest") {
      mode = arg;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--scratch" && has_value) {
      scratch = argv[++i];
    } else {
      return usage();
    }
  }
  if (mode == "--list-metrics") return list_metrics();

  // Files a run writes (checkpoints) live in a per-process directory that
  // is removed at exit.
  options.scratch_dir = scratch + "/" + std::to_string(::getpid());
  std::filesystem::create_directories(options.scratch_dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{options.scratch_dir};

  if (mode == "--selftest") return selftest(options.scratch_dir);
  if (workload.empty() || !have_seed || !have_seconds ||
      (trace != 0 && trace != 1) || options.seconds <= 0)
    return usage();
  options.trace = trace == 1;
  options.trace_path =
      scratch + "/" + workload + "-seed" + std::to_string(options.seed) +
      ".trace.json";

  print_header(workload, options);
  if (workload == "paper_sync")
    return run_sync_workload(
        paper_sync_spec(options.seed, kPaperSyncRounds,
                        options.scratch_dir + "/ckpt"),
        options);
  if (workload == "fleet_lazy")
    return run_sync_workload(
        fleet_lazy_spec(options.seed, kFleetLazyRounds, kFleetLazyDevices),
        options);
  if (workload == "serve_tcp") return run_serve_tcp(options);
  std::fprintf(stderr, "fedbench: unknown workload '%s'\n", workload.c_str());
  return 2;
}
