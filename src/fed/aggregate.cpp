#include "fed/aggregate.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace fedpower::fed {

namespace {

/// Runs column_fn(i) for every coordinate, sharded across the executor when
/// the aggregation is large enough to amortize the scheduling. Each column
/// is computed exactly as in the serial loop, so the split cannot change
/// results.
void for_each_column(std::size_t dim, std::size_t model_count,
                     const util::ParallelFor& parallel_for,
                     const std::function<void(std::size_t)>& column_fn) {
  if (parallel_for && dim * model_count >= kParallelAggregationMinWork) {
    parallel_for(dim, column_fn);
    return;
  }
  for (std::size_t i = 0; i < dim; ++i) column_fn(i);
}

/// Collects coordinate i of every model into a scratch buffer.
void gather_coordinate(const std::vector<std::vector<double>>& models,
                       std::size_t i, std::vector<double>& scratch) {
  scratch.clear();
  for (const auto& model : models) scratch.push_back(model[i]);
}

}  // namespace

void add_to_mean_sum(std::span<double> sum, std::span<const double> model) {
  FEDPOWER_EXPECTS(model.size() == sum.size());
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += model[i];
}

void finish_mean(std::span<const double> sum, std::size_t model_count,
                 std::span<double> out) {
  FEDPOWER_EXPECTS(model_count > 0 && out.size() == sum.size());
  const double inv_n = 1.0 / static_cast<double>(model_count);
  for (std::size_t i = 0; i < sum.size(); ++i) out[i] = sum[i] * inv_n;
}

std::vector<double> average_unweighted(
    const std::vector<std::vector<double>>& models,
    const util::ParallelFor& parallel_for) {
  FEDPOWER_EXPECTS(!models.empty());
  const std::size_t dim = models.front().size();
  for (const auto& model : models) FEDPOWER_EXPECTS(model.size() == dim);
  // Row-major over coordinate blocks: a block's sum stays in L1 while
  // every model is folded into it in model order, so coordinate i still
  // adds m0[i], m1[i], ... onto +0.0 in that order. Blocks are disjoint,
  // which makes them the executor's unit without moving a bit.
  constexpr std::size_t kBlock = 128;
  std::vector<double> global(dim, 0.0);
  const auto mean_block = [&](std::size_t b) {
    const std::size_t begin = b * kBlock;
    const std::span<double> sum =
        std::span(global).subspan(begin, std::min(kBlock, dim - begin));
    for (const auto& model : models)
      add_to_mean_sum(sum, std::span(model).subspan(begin, sum.size()));
    finish_mean(sum, models.size(), sum);
  };
  const std::size_t blocks = (dim + kBlock - 1) / kBlock;
  if (parallel_for && dim * models.size() >= kParallelAggregationMinWork) {
    parallel_for(blocks, mean_block);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) mean_block(b);
  }
  return global;
}

std::vector<double> average_unweighted(
    const std::vector<std::vector<double>>& models) {
  return average_unweighted(models, util::ParallelFor{});
}

std::vector<double> average_weighted(
    const std::vector<std::vector<double>>& models,
    std::span<const double> weights, const util::ParallelFor& parallel_for) {
  FEDPOWER_EXPECTS(!models.empty());
  FEDPOWER_EXPECTS(weights.size() == models.size());
  const std::size_t dim = models.front().size();
  for (const auto& model : models) FEDPOWER_EXPECTS(model.size() == dim);
  double weight_sum = 0.0;
  for (const double w : weights) {
    FEDPOWER_EXPECTS(w >= 0.0);
    weight_sum += w;
  }
  FEDPOWER_EXPECTS(weight_sum > 0.0);
  std::vector<double> normalized(weights.begin(), weights.end());
  for (double& w : normalized) w /= weight_sum;
  std::vector<double> global(dim, 0.0);
  for_each_column(dim, models.size(), parallel_for, [&](std::size_t i) {
    double sum = 0.0;
    for (std::size_t m = 0; m < models.size(); ++m)
      sum += normalized[m] * models[m][i];
    global[i] = sum;
  });
  return global;
}

std::vector<double> average_weighted(
    const std::vector<std::vector<double>>& models,
    std::span<const double> weights) {
  return average_weighted(models, weights, util::ParallelFor{});
}

std::vector<double> aggregate_median(
    const std::vector<std::vector<double>>& models,
    const util::ParallelFor& parallel_for) {
  FEDPOWER_EXPECTS(!models.empty());
  const std::size_t dim = models.front().size();
  for (const auto& model : models) FEDPOWER_EXPECTS(model.size() == dim);
  std::vector<double> global(dim);
  for_each_column(dim, models.size(), parallel_for, [&](std::size_t i) {
    std::vector<double> scratch;
    scratch.reserve(models.size());
    gather_coordinate(models, i, scratch);
    const std::size_t mid = scratch.size() / 2;
    std::nth_element(scratch.begin(),
                     scratch.begin() + static_cast<std::ptrdiff_t>(mid),
                     scratch.end());
    if (scratch.size() % 2 == 1) {
      global[i] = scratch[mid];
    } else {
      const double upper = scratch[mid];
      const double lower = *std::max_element(
          scratch.begin(),
          scratch.begin() + static_cast<std::ptrdiff_t>(mid));
      global[i] = (lower + upper) / 2.0;
    }
  });
  return global;
}

std::vector<double> aggregate_median(
    const std::vector<std::vector<double>>& models) {
  return aggregate_median(models, util::ParallelFor{});
}

std::size_t clamp_trim_count(std::size_t trim_count,
                             std::size_t model_count) noexcept {
  if (model_count == 0) return 0;
  return std::min(trim_count, (model_count - 1) / 2);
}

std::vector<double> aggregate_trimmed_mean(
    const std::vector<std::vector<double>>& models, std::size_t trim_count,
    const util::ParallelFor& parallel_for) {
  FEDPOWER_EXPECTS(!models.empty());
  // Dropouts can shrink the survivor set below 2 * trim_count + 1 mid-run;
  // clamping (instead of asserting) keeps the round alive with the widest
  // trim the survivors support.
  trim_count = clamp_trim_count(trim_count, models.size());
  const std::size_t dim = models.front().size();
  for (const auto& model : models) FEDPOWER_EXPECTS(model.size() == dim);
  const std::size_t keep = models.size() - 2 * trim_count;
  std::vector<double> global(dim);
  for_each_column(dim, models.size(), parallel_for, [&](std::size_t i) {
    std::vector<double> scratch;
    scratch.reserve(models.size());
    gather_coordinate(models, i, scratch);
    std::sort(scratch.begin(), scratch.end());
    double sum = 0.0;
    for (std::size_t k = trim_count; k < trim_count + keep; ++k)
      sum += scratch[k];
    global[i] = sum / static_cast<double>(keep);
  });
  return global;
}

std::vector<double> aggregate_trimmed_mean(
    const std::vector<std::vector<double>>& models, std::size_t trim_count) {
  return aggregate_trimmed_mean(models, trim_count, util::ParallelFor{});
}

std::vector<double> aggregate_krum(
    const std::vector<std::vector<double>>& models,
    std::size_t byzantine_count, std::size_t select_count,
    const util::ParallelFor& parallel_for) {
  FEDPOWER_EXPECTS(!models.empty());
  const std::size_t n = models.size();
  const std::size_t dim = models.front().size();
  for (const auto& model : models) FEDPOWER_EXPECTS(model.size() == dim);
  if (n == 1) return models.front();

  // Krum needs at least one honest neighbour per model: f <= n - 3. Small
  // survivor sets degrade gracefully (f = 0: pick the most central model).
  const std::size_t f = n >= 3 ? std::min(byzantine_count, n - 3)
                               : std::size_t{0};
  const std::size_t neighbors = n > f + 2 ? n - f - 2 : std::size_t{1};

  // Pairwise squared distances. Each row is computed independently (row i
  // owns dist[i*n .. i*n+n)), so sharding rows across the executor writes
  // disjoint slots; within a row the coordinate loop keeps the serial
  // accumulation order, making the matrix bit-identical at every thread
  // count. The symmetric half is recomputed rather than shared — cheaper
  // than a synchronization point, and order-stable.
  std::vector<double> dist(n * n, 0.0);
  const auto fill_row = [&](std::size_t i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      double sum = 0.0;
      const std::vector<double>& a = models[i];
      const std::vector<double>& b = models[j];
      for (std::size_t c = 0; c < dim; ++c) {
        const double d = a[c] - b[c];
        sum += d * d;
      }
      dist[i * n + j] = sum;
    }
  };
  if (parallel_for && dim * n * n >= kParallelAggregationMinWork) {
    parallel_for(n, fill_row);
  } else {
    for (std::size_t i = 0; i < n; ++i) fill_row(i);
  }

  // Score_i = sum of the `neighbors` smallest distances, accumulated in
  // ascending order after a full sort — the order is a pure function of
  // the values, never of the schedule.
  std::vector<double> score(n, 0.0);
  std::vector<double> scratch;
  scratch.reserve(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.clear();
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) scratch.push_back(dist[i * n + j]);
    std::sort(scratch.begin(), scratch.end());
    double sum = 0.0;
    for (std::size_t k = 0; k < neighbors && k < scratch.size(); ++k)
      sum += scratch[k];
    score[i] = sum;
  }

  // Select the best-scoring models, ties broken by model index, then
  // average the selection in model-index order.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              if (score[a] != score[b]) return score[a] < score[b];
              return a < b;
            });
  const std::size_t select =
      std::min<std::size_t>(std::max<std::size_t>(select_count, 1), n);
  std::vector<std::size_t> chosen(order.begin(),
                                  order.begin() +
                                      static_cast<std::ptrdiff_t>(select));
  std::sort(chosen.begin(), chosen.end());

  const double inv = 1.0 / static_cast<double>(chosen.size());
  std::vector<double> global(dim, 0.0);
  for_each_column(dim, chosen.size(), parallel_for, [&](std::size_t i) {
    double sum = 0.0;
    for (const std::size_t m : chosen) sum += models[m][i];
    global[i] = sum * inv;
  });
  return global;
}

std::vector<double> aggregate_krum(
    const std::vector<std::vector<double>>& models,
    std::size_t byzantine_count, std::size_t select_count) {
  return aggregate_krum(models, byzantine_count, select_count,
                        util::ParallelFor{});
}

std::vector<double> aggregate_with_mode(
    AggregationMode mode, const std::vector<std::vector<double>>& models,
    std::span<const double> weights, const util::ParallelFor& parallel_for,
    std::size_t& trim_count) {
  switch (mode) {
    case AggregationMode::kUnweightedMean:
      return average_unweighted(models, parallel_for);
    case AggregationMode::kSampleWeighted:
      return average_weighted(models, weights, parallel_for);
    case AggregationMode::kCoordinateMedian:
      return aggregate_median(models, parallel_for);
    case AggregationMode::kTrimmedMean: {
      // ~20% trimmed, at least one from three clients up; the plain mean
      // below three. max(1, n/5) never exceeds clamp_trim_count's
      // (n-1)/2, so the budget is always feasible.
      trim_count = models.size() >= 3
                       ? std::max<std::size_t>(1, models.size() / 5)
                       : 0;
      return aggregate_trimmed_mean(models, trim_count, parallel_for);
    }
    case AggregationMode::kKrum:
    case AggregationMode::kMultiKrum: {
      // Budget a quarter of the surviving uploads as potentially Byzantine
      // (aggregate_krum clamps further when the survivor set is small).
      const std::size_t f = models.size() / 4;
      const std::size_t select =
          mode == AggregationMode::kKrum
              ? 1
              : (models.size() > f + 2 ? models.size() - f - 2
                                       : std::size_t{1});
      return aggregate_krum(models, f, select, parallel_for);
    }
  }
  FEDPOWER_ASSERT(false);  // unreachable: all enumerators handled above
  return {};
}

}  // namespace fedpower::fed
