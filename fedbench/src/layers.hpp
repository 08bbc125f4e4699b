// Layers inside a client, timed by isolated calls on the Table I shapes
// (5 -> 32 -> 15 MLP, batch 128, replay 4000, H = 20): nn forward/backward
// and Adam, replay sampling, agent training, the simulator interval and
// the whole controller step, plus exact allocation counts per training
// update and per controller step.
#pragma once

#include <cstdint>
#include <vector>

#include "core/controller.hpp"
#include "report.hpp"
#include "sim/processor.hpp"
#include "trace.hpp"

namespace fedbench {

/// Times fn over `batches` batches of `calls` calls each (after one warm-up
/// batch) and returns the median per-call time in nanoseconds.
template <class Fn>
double per_call_ns(Fn&& fn, std::size_t calls, std::size_t batches = 15) {
  for (std::size_t i = 0; i < calls; ++i) fn();
  std::vector<double> per_call;
  per_call.reserve(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) fn();
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(calls));
  }
  return median(per_call);
}

/// Fills the sim/nn/rl/core per-layer metrics of a client with the given
/// controller and processor configuration, driven by `apps`.
void measure_client_layers(const fedpower::core::ControllerConfig& controller,
                           const fedpower::sim::ProcessorConfig& processor,
                           const std::vector<fedpower::sim::AppProfile>& apps,
                           std::uint64_t seed, Result& result);

/// Zeroes the client-layer metrics for a workload whose clients run no
/// simulator or neural code.
void zero_client_layers(Result& result);

}  // namespace fedbench
