// Workspace lifetime: layers return references into buffers they own and
// reuse (DESIGN.md §5). These tests pin the rules that make that safe: a
// workspace that has grown or shrunk computes exactly what a fresh one
// does, copies never share buffers with their source, and two networks
// never alias each other's results.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "nn/dense.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace fedpower::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.size() * sizeof(double)) == 0;
}

Mlp paper_mlp(std::uint64_t seed) {
  util::Rng rng(seed);
  return make_mlp(5, {32}, 15, rng);
}

/// Output, input gradient and parameter gradients of one forward/backward.
struct Pass {
  Matrix output;
  Matrix grad_input;
  std::vector<double> grads;
};

Pass run_pass(Mlp& mlp, const Matrix& input, const Matrix& grad) {
  Pass pass;
  pass.output = mlp.forward(input);
  mlp.zero_gradients();
  pass.grad_input = mlp.backward(grad);
  pass.grads = mlp.gradients();
  return pass;
}

TEST(Workspaces, BatchSizeChangesMatchAFreshModel) {
  util::Rng rng(11);
  const Matrix row = random_matrix(1, 5, rng);
  const Matrix batch = random_matrix(128, 5, rng);
  const Matrix row_grad = random_matrix(1, 15, rng);
  const Matrix batch_grad = random_matrix(128, 15, rng);

  Mlp warm = paper_mlp(3);
  const Pass first = run_pass(warm, row, row_grad);    // workspaces grow
  const Pass big = run_pass(warm, batch, batch_grad);  // ... to 128 rows
  const Pass last = run_pass(warm, row, row_grad);     // and shrink again

  Mlp fresh_row = paper_mlp(3);
  const Pass fresh = run_pass(fresh_row, row, row_grad);
  Mlp fresh_batch_model = paper_mlp(3);
  const Pass fresh_batch = run_pass(fresh_batch_model, batch, batch_grad);
  for (const Pass* pass : {&first, &last}) {
    EXPECT_TRUE(bitwise_equal(pass->output, fresh.output));
    EXPECT_TRUE(bitwise_equal(pass->grad_input, fresh.grad_input));
    EXPECT_EQ(pass->grads, fresh.grads);
  }
  EXPECT_TRUE(bitwise_equal(big.output, fresh_batch.output));
  EXPECT_TRUE(bitwise_equal(big.grad_input, fresh_batch.grad_input));
  EXPECT_EQ(big.grads, fresh_batch.grads);
}

TEST(Workspaces, ReleasedModelHoldsAndComputesWhatAFreshOneDoes) {
  util::Rng rng(12);
  const Matrix batch = random_matrix(128, 5, rng);
  const Matrix batch_grad = random_matrix(128, 15, rng);
  Mlp trained = paper_mlp(5);
  (void)run_pass(trained, batch, batch_grad);
  trained.release_workspaces();
  // The gradient accumulators are gone (they read as zero), the weights
  // are kept, and the next pass grows the workspaces again.
  EXPECT_EQ(trained.gradients(), std::vector<double>(687, 0.0));
  EXPECT_EQ(trained.parameters(), paper_mlp(5).parameters());
  Mlp fresh = paper_mlp(5);
  const Pass again = run_pass(trained, batch, batch_grad);
  const Pass first = run_pass(fresh, batch, batch_grad);
  EXPECT_TRUE(bitwise_equal(again.output, first.output));
  EXPECT_TRUE(bitwise_equal(again.grad_input, first.grad_input));
  EXPECT_EQ(again.grads, first.grads);
}

TEST(Workspaces, ForwardReturnsTheSameBufferEachCall) {
  Mlp mlp = paper_mlp(4);
  util::Rng rng(4);
  const Matrix& a = mlp.forward(random_matrix(2, 5, rng));
  const Matrix& b = mlp.forward(random_matrix(3, 5, rng));
  EXPECT_EQ(&a, &b);  // the documented lifetime: valid until the next call
  EXPECT_EQ(b.rows(), 3u);
}

TEST(Workspaces, CopiedMlpDoesNotShareWorkspaces) {
  util::Rng rng(5);
  const Matrix x = random_matrix(4, 5, rng);
  const Matrix y = random_matrix(4, 5, rng);
  Mlp original = paper_mlp(5);
  const Matrix& original_out = original.forward(x);
  const Matrix snapshot = original_out;

  Mlp copy = original;
  const Matrix& copy_out = copy.forward(y);
  EXPECT_NE(&copy_out, &original_out);
  EXPECT_TRUE(bitwise_equal(original_out, snapshot));

  Mlp assigned = paper_mlp(6);
  assigned = original;
  EXPECT_NE(&assigned.forward(y), &original_out);
  EXPECT_TRUE(bitwise_equal(original_out, snapshot));
}

TEST(Workspaces, ClonedLayerDoesNotShareWorkspaces) {
  util::Rng rng(7);
  Dense dense(5, 8, Init::kHe, rng);
  const Matrix x = random_matrix(3, 5, rng);
  const Matrix& out = dense.forward(x);
  const Matrix snapshot = out;
  const std::unique_ptr<Layer> clone = dense.clone();
  const Matrix& clone_out = clone->forward(random_matrix(3, 5, rng));
  EXPECT_NE(&clone_out, &out);
  EXPECT_TRUE(bitwise_equal(out, snapshot));
  // backward() on the original still sees its own cached input.
  const Matrix grad = random_matrix(3, 8, rng);
  Dense reference(dense);
  EXPECT_TRUE(bitwise_equal(dense.backward(grad), reference.backward(grad)));
}

TEST(Workspaces, OnlineAndTargetNetworksDoNotAlias) {
  // NeuralQAgent's pattern: the target network starts as a copy of the
  // online one, then both run forward before either result is consumed.
  util::Rng rng(8);
  Mlp online = paper_mlp(9);
  Mlp target(online);
  const Matrix next_states = random_matrix(16, 5, rng);
  const Matrix states = random_matrix(16, 5, rng);
  const Matrix& next_q = target.forward(next_states);
  const Matrix next_q_snapshot = next_q;
  const Matrix& q = online.forward(states);
  EXPECT_NE(&q, &next_q);
  EXPECT_TRUE(bitwise_equal(next_q, next_q_snapshot));
  Mlp fresh = paper_mlp(9);
  EXPECT_TRUE(bitwise_equal(q, fresh.forward(states)));
}

TEST(Workspaces, DenseForwardCopiesTemporaryInput) {
  // backward() must not depend on the caller keeping the input alive.
  util::Rng rng(10);
  Dense a(2, 3, Init::kHe, rng);
  Dense b(a);
  a.forward(Matrix{{1.0, -2.0}});
  const Matrix keep{{1.0, -2.0}};
  b.forward(keep);
  const Matrix grad{{0.5, 0.0, -1.0}};
  EXPECT_TRUE(bitwise_equal(a.backward(grad), b.backward(grad)));
  EXPECT_EQ(a.weight_grads(), b.weight_grads());
}

}  // namespace
}  // namespace fedpower::nn
