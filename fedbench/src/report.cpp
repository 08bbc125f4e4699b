#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace fedbench {

const std::vector<MetricSpec>& metric_specs() {
  static const std::vector<MetricSpec> specs = {
      // End to end: what a user of each workload sees. Every one applies
      // to every workload, so each run can report all of them.
      {"setup_s", "s", Kind::kEndToEnd},
      {"rounds_per_s", "1/s", Kind::kEndToEnd},
      {"uplinks_per_s", "1/s", Kind::kEndToEnd},
      {"wire_kib_per_round", "KiB", Kind::kEndToEnd},
      {"peak_rss_mib", "MiB", Kind::kEndToEnd},
      // Per layer, from the traced run. 0 = the layer is not on this
      // workload's path (see NOTES.md, "Interaction table").
      {"sim.run_interval_ns", "ns", Kind::kLayer},
      {"nn.forward_row_ns", "ns", Kind::kLayer},
      {"nn.forward_batch_us", "us", Kind::kLayer},
      {"nn.backward_us", "us", Kind::kLayer},
      {"nn.adam_step_us", "us", Kind::kLayer},
      {"nn.allocs_per_train_step", "count", Kind::kLayer},
      {"rl.select_action_ns", "ns", Kind::kLayer},
      {"rl.replay_sample_us", "us", Kind::kLayer},
      {"rl.train_step_us", "us", Kind::kLayer},
      {"rl.replay_storage_kib", "KiB", Kind::kLayer},
      {"core.controller_step_ns", "ns", Kind::kLayer},
      {"core.allocs_per_step", "count", Kind::kLayer},
      {"core.train_ms_per_round", "ms", Kind::kLayer},
      {"core.eval_episode_us", "us", Kind::kLayer},
      {"core.eval_ms_per_round", "ms", Kind::kLayer},
      {"runtime.hydrate_us", "us", Kind::kLayer},
      {"runtime.hydrations_per_round", "count", Kind::kLayer},
      {"runtime.dehydrate_ms_per_round", "ms", Kind::kLayer},
      {"runtime.hot_devices", "count", Kind::kLayer},
      {"fed.broadcast_us", "us", Kind::kLayer},
      {"fed.local_params_us", "us", Kind::kLayer},
      {"fed.encode_us", "us", Kind::kLayer},
      {"fed.decode_us", "us", Kind::kLayer},
      {"fed.transfer_us", "us", Kind::kLayer},
      {"fed.transfers_per_round", "count", Kind::kLayer},
      {"fed.round_self_ms", "ms", Kind::kLayer},
      {"fed.aggregate_ms", "ms", Kind::kLayer},
      {"fed.defense_screen_us", "us", Kind::kLayer},
      {"fed.bytes_per_transfer", "B", Kind::kLayer},
      {"ckpt.serialize_ms", "ms", Kind::kLayer},
      {"ckpt.write_ms", "ms", Kind::kLayer},
      {"ckpt.snapshot_kib", "KiB", Kind::kLayer},
      {"ckpt.ms_per_round", "ms", Kind::kLayer},
      {"serve.arrival_wait_ms", "ms", Kind::kLayer},
      {"serve.commit_us", "us", Kind::kLayer},
      {"serve.client_codec_us", "us", Kind::kLayer},
      {"serve.uplink_p50_us", "us", Kind::kLayer},
      {"serve.uplink_p90_us", "us", Kind::kLayer},
      {"serve.uplink_p99_us", "us", Kind::kLayer},
      {"serve.fetch_p50_us", "us", Kind::kLayer},
      {"serve.fetch_p90_us", "us", Kind::kLayer},
      {"serve.fetch_p99_us", "us", Kind::kLayer},
      {"serve.deferred", "count", Kind::kLayer},
      {"serve.duplicates", "count", Kind::kLayer},
      {"serve.reconnects", "count", Kind::kLayer},
      {"serve.protocol_errors", "count", Kind::kLayer},
      {"trace.overhead_pct", "%", Kind::kLayer},
      {"trace.accounted_pct", "%", Kind::kLayer},
  };
  return specs;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::uint64_t digest(const std::vector<double>& model) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : model) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

void Result::note(const std::string& name, double value,
                  const std::string& unit) {
  char text[64];
  std::snprintf(text, sizeof text, "%.6g %s", value, unit.c_str());
  notes.emplace_back(name, text);
}

void Result::note_text(const std::string& name, const std::string& text) {
  notes.emplace_back(name, text);
}

void Result::check(bool ok, const std::string& what) {
  std::printf("check %-6s %s\n", ok ? "ok" : "FAILED", what.c_str());
  if (!ok) correct = false;
}

int emit(const Result& result, Kind kind) {
  std::printf("-- %s metrics --\n",
              kind == Kind::kEndToEnd ? "end-to-end" : "per-layer");
  std::string json;
  bool missing = false;
  for (const MetricSpec& spec : metric_specs()) {
    if (spec.kind != kind) continue;
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "fedbench: metric %s was not measured\n",
                   spec.name);
      missing = true;
      continue;
    }
    std::printf("  %-32s %16.6g %s\n", spec.name, it->second, spec.unit);
    char entry[256];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", spec.name, it->second, spec.unit);
    json += entry;
  }
  if (!result.notes.empty()) {
    std::printf("-- also measured (not in BENCHMARK.json) --\n");
    for (const auto& [name, text] : result.notes)
      std::printf("  %-32s %s\n", name.c_str(), text.c_str());
  }
  if (missing) return 3;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace fedbench
