// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each layer (decorators, direct calls); nothing inside the
// program is instrumented. Each thread appends to its own buffer, so
// recording takes no lock; buffers are merged when the run ends and
// written as Chrome trace-event JSON (complete "X" events), which loads
// offline in Perfetto or chrome://tracing.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace fedbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";   ///< static string: the layer boundary
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;     ///< recording thread (dense index)
  std::int64_t round = -1;   ///< round the span belongs to, -1 = none

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-wide recorder. Disabled by default: begin() returns 0 and
/// end(0) is a no-op, so untraced code paths pay one branch.
class Tracer {
 public:
  static Tracer& instance();

  /// Call before starting any thread that records spans.
  void enable();
  [[nodiscard]] bool enabled() const;

  /// Opens a span as a child of this thread's innermost open span.
  std::uint64_t begin(const char* name, std::int64_t round = -1);
  void end(std::uint64_t id);

  /// Records a span measured elsewhere (e.g. the gap between two
  /// boundaries) as a child of this thread's innermost open span.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t round = -1);

  /// Every closed span from every thread, ordered by start time.
  [[nodiscard]] std::vector<Span> collect() const;

  /// Writes the spans of rounds below round_limit (and spans of no round)
  /// as Chrome trace-event JSON. Returns false when the file cannot be
  /// written.
  bool write_chrome_trace(const std::string& path,
                          std::int64_t round_limit) const;
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t round = -1)
      : id_(Tracer::instance().begin(name, round)) {}
  ~ScopedSpan() { Tracer::instance().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t id_;
};

/// Per-name view of a span set: durations, and self time (duration minus
/// the part covered by child spans).
struct SpanIndex {
  explicit SpanIndex(std::vector<Span> spans);

  [[nodiscard]] std::vector<const Span*> named(const char* name) const;
  /// Duration minus the summed durations of direct children (children on
  /// one thread nest, so they never overlap).
  [[nodiscard]] std::int64_t self_ns(const Span& span) const;
  /// Summed durations of the spans with this name, per round index
  /// (only rounds that have at least one such span).
  [[nodiscard]] std::vector<double> per_round_total_ms(
      const char* name) const;
  /// Durations of the spans with any of these names, microseconds.
  [[nodiscard]] std::vector<double> durations_us(
      std::initializer_list<const char*> names) const;
  /// Share of the "round" spans' wall time covered by their child spans,
  /// percent; the rest is the round loop's own bookkeeping.
  [[nodiscard]] double accounted_pct() const;

  std::vector<Span> spans;
  std::vector<std::int64_t> child_ns;  ///< by position in `spans`
};

}  // namespace fedbench
