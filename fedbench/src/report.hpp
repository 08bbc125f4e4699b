// Metric registry, statistics helpers and result printing.
//
// The registry below is the benchmark's single list of reported metrics;
// BENCHMARK.json mirrors it (fedbench/selftest.py checks that the two
// agree name for name and unit for unit). A traced run (--trace 1) prints
// every per-layer metric, an untraced run every end-to-end metric. The
// last stdout line is one JSON object: correct, attempted, failed, metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fedbench {

enum class Kind { kEndToEnd, kLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  Kind kind;
};

/// Every metric the benchmark reports, end-to-end first.
const std::vector<MetricSpec>& metric_specs();

/// Names are [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64
/// characters.
bool valid_metric_name(std::string_view name);

/// Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n) of
/// the sorted sample (rank 1 for p = 0). Every reported percentile is an
/// observed value; 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// Conventional median (mean of the two middle values for even n); 0 for
/// an empty sample.
double median(std::vector<double> values);

/// FNV-1a over the IEEE-754 bytes of a model: the committed-model digest.
std::uint64_t digest(const std::vector<double>& model);

/// Peak resident set of this process, MiB.
double peak_rss_mib();

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  ///< registry metrics
  /// Human-readable extras that are not in the registry: name -> value,unit.
  std::vector<std::pair<std::string, std::string>> notes;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(const std::string& name, double value, const std::string& unit);
  void note_text(const std::string& name, const std::string& text);
  /// Records an output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
};

/// Prints the human-readable report and the final JSON line for the
/// metrics of the given kind. Returns the process exit code: 0 when every
/// check passed, 1 when one failed, 3 when a registry metric is missing
/// (a benchmark bug; no JSON line is printed then).
int emit(const Result& result, Kind kind);

}  // namespace fedbench
