// Model aggregation rules. The paper uses unweighted federated averaging
// (Algorithm 2, line 8: theta_{r+1} = 1/N * sum theta_r^n); a
// sample-count-weighted variant (the original FedAvg of McMahan et al.) is
// provided for the ablation bench.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/executor.hpp"

namespace fedpower::fed {

enum class AggregationMode {
  kUnweightedMean,  ///< every client counts equally (the paper's choice)
  kSampleWeighted,  ///< clients weighted by local sample counts
  kCoordinateMedian,///< per-coordinate median (Byzantine-robust)
  kTrimmedMean,     ///< per-coordinate 20%-trimmed mean (Byzantine-robust)
  kKrum,            ///< Krum: the single most-central model (Byzantine-robust)
  kMultiKrum,       ///< multi-Krum: mean of the most-central models
};

/// Element-wise mean of equally sized parameter vectors.
/// Requires at least one vector; all must have the same length.
[[nodiscard]] std::vector<double> average_unweighted(
    const std::vector<std::vector<double>>& models);

/// The unweighted mean's arithmetic, one model at a time. Starting from a
/// sum of +0.0s, fold every model in with add_to_mean_sum in model order,
/// then finish_mean; average_unweighted runs exactly these operations, so a
/// caller that sees the models one by one (LocalCommitter's streamed mean)
/// gets its bits without keeping the models. `model` must match `sum` in
/// length.
void add_to_mean_sum(std::span<double> sum, std::span<const double> model);

/// out[i] = sum[i] * (1.0 / model_count); `out` may alias `sum`.
void finish_mean(std::span<const double> sum, std::size_t model_count,
                 std::span<double> out);

/// Element-wise weighted mean; weights must be non-negative with a positive
/// sum and match the number of models.
[[nodiscard]] std::vector<double> average_weighted(
    const std::vector<std::vector<double>>& models,
    std::span<const double> weights);

/// Per-coordinate median. Robust to up to floor((N-1)/2) arbitrary
/// (Byzantine) client models — the paper's §I threat model includes
/// malicious participants, and plain averaging lets a single one steer the
/// global policy anywhere.
[[nodiscard]] std::vector<double> aggregate_median(
    const std::vector<std::vector<double>>& models);

/// Per-coordinate trimmed mean: drops the trim_count smallest and largest
/// values in every coordinate before averaging. A trim_count that would
/// consume the whole survivor set (2 * trim_count >= N — dropouts can
/// shrink N below what the caller planned for) is clamped to the largest
/// valid value, floor((N-1)/2), instead of aborting the round; use
/// clamp_trim_count to observe the clamp.
[[nodiscard]] std::vector<double> aggregate_trimmed_mean(
    const std::vector<std::vector<double>>& models, std::size_t trim_count);

/// The trim count aggregate_trimmed_mean will actually use for N models:
/// min(trim_count, floor((N-1)/2)).
[[nodiscard]] std::size_t clamp_trim_count(std::size_t trim_count,
                                           std::size_t model_count) noexcept;

/// Krum (Blanchard et al., NeurIPS 2017): scores every model by the sum of
/// its squared distances to its N - byzantine_count - 2 nearest peers and
/// selects the select_count best-scoring models (ties broken by model
/// index), averaging them in model-index order. select_count = 1 is plain
/// Krum; multi-Krum uses select_count = N - byzantine_count - 2.
/// byzantine_count is clamped so at least one honest neighbour remains
/// (f <= N - 3; 0 below N = 3), select_count to [1, N]. Distances and the
/// final average are accumulated in model order — a pairwise tree would
/// change the FP summation order and break the serial/parallel
/// bit-identity contract (DESIGN.md §7).
[[nodiscard]] std::vector<double> aggregate_krum(
    const std::vector<std::vector<double>>& models,
    std::size_t byzantine_count, std::size_t select_count = 1);

// --- parallel reduction path ----------------------------------------------
//
// Every rule above is per-coordinate independent, so large aggregations
// shard the coordinate range across an executor while each coordinate keeps
// accumulating over the models in index order. That choice is deliberate:
// sharding the *model* dimension (a pairwise tree over clients) would
// change the floating-point summation order and break the bit-exactness
// guarantee between serial and parallel runs (DESIGN.md §7). Coordinate
// shards are disjoint, so any thread count — including the serial fallback
// when the executor is empty or the problem is small — produces identical
// bits.

/// Coordinate count × model count below which the parallel overloads run
/// serially (sharding overhead beats the win on small aggregations).
inline constexpr std::size_t kParallelAggregationMinWork = 16384;

[[nodiscard]] std::vector<double> average_unweighted(
    const std::vector<std::vector<double>>& models,
    const util::ParallelFor& parallel_for);

[[nodiscard]] std::vector<double> average_weighted(
    const std::vector<std::vector<double>>& models,
    std::span<const double> weights, const util::ParallelFor& parallel_for);

[[nodiscard]] std::vector<double> aggregate_median(
    const std::vector<std::vector<double>>& models,
    const util::ParallelFor& parallel_for);

[[nodiscard]] std::vector<double> aggregate_trimmed_mean(
    const std::vector<std::vector<double>>& models, std::size_t trim_count,
    const util::ParallelFor& parallel_for);

/// Parallel Krum: pairwise distance rows are sharded across the executor
/// (each row's coordinate loop keeps the serial accumulation order, so any
/// thread count produces identical bits); scoring and selection stay
/// serial in model order.
[[nodiscard]] std::vector<double> aggregate_krum(
    const std::vector<std::vector<double>>& models,
    std::size_t byzantine_count, std::size_t select_count,
    const util::ParallelFor& parallel_for);

/// One aggregation step under `mode`, including the per-mode parameter
/// policy (default trim budget, Krum's byzantine/select counts). Both the
/// synchronous server (FederatedAveraging) and the sharded serve pipeline's
/// deterministic commit call this, which is what makes their results
/// bit-identical by construction: identical inputs in identical order flow
/// through the exact same floating-point operations.
///
/// `weights` is consulted only by kSampleWeighted and must then match
/// `models` in length. The trimmed mean stores the trim count it used in
/// `trim_count`; the other modes leave it alone.
[[nodiscard]] std::vector<double> aggregate_with_mode(
    AggregationMode mode, const std::vector<std::vector<double>>& models,
    std::span<const double> weights, const util::ParallelFor& parallel_for,
    std::size_t& trim_count);

}  // namespace fedpower::fed
