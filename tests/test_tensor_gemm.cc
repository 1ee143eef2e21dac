// Tiled-GEMM correctness: the register-blocked MatMul / MatMulBiasAct
// kernels must match naive triple loops (forward and backward) on ragged
// shapes, NoGradScope must be bitwise transparent, and the inference arena
// must reach a zero-allocation steady state.
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "nn/made.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace duet::tensor {
namespace {

Tensor RandomTensor(std::vector<int64_t> shape, Rng& rng, bool requires_grad) {
  Tensor t = Tensor::Zeros(std::move(shape), requires_grad);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = rng.UniformFloat() * 2.0f - 1.0f;
  }
  return t;
}

/// Asserts |a - b| <= tol * max(1, |b|) elementwise.
void ExpectAllClose(const std::vector<float>& a, const std::vector<float>& b, float tol,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(b[i]));
    ASSERT_NEAR(a[i], b[i], tol * scale) << what << " at index " << i;
  }
}

/// Naive reference for y = a x w with a:[m,k], w:[k,n] row-major, and its
/// backward under dY = ones (what SumAll(y).Backward() seeds):
/// dA = dY x W^T, dW = A^T x dY.
struct NaiveMatMul {
  std::vector<float> out, da, dw;

  NaiveMatMul(const std::vector<float>& a, const std::vector<float>& w, int64_t m, int64_t k,
              int64_t n)
      : out(static_cast<size_t>(m * n), 0.0f),
        da(static_cast<size_t>(m * k), 0.0f),
        dw(static_cast<size_t>(k * n), 0.0f) {
    for (int64_t r = 0; r < m; ++r) {
      for (int64_t c = 0; c < n; ++c) {
        float acc = 0.0f;
        for (int64_t j = 0; j < k; ++j) acc += a[r * k + j] * w[j * n + c];
        out[r * n + c] = acc;
      }
      for (int64_t j = 0; j < k; ++j) {
        float acc = 0.0f;
        for (int64_t c = 0; c < n; ++c) acc += w[j * n + c];
        da[r * k + j] = acc;
      }
    }
    for (int64_t j = 0; j < k; ++j) {
      for (int64_t c = 0; c < n; ++c) {
        float acc = 0.0f;
        for (int64_t r = 0; r < m; ++r) acc += a[r * k + j];
        dw[j * n + c] = acc;
      }
    }
  }
};

constexpr int64_t kShapes[] = {1, 3, 17, 64, 129};

TEST(TiledGemm, ForwardAndBackwardMatchScalarReferenceOnRaggedShapes) {
  Rng rng(11);
  for (int64_t b : kShapes) {
    for (int64_t k : kShapes) {
      for (int64_t o : kShapes) {
        Tensor a = RandomTensor({b, k}, rng, true);
        Tensor w = RandomTensor({k, o}, rng, true);
        const NaiveMatMul ref(a.value_vector(), w.value_vector(), b, k, o);
        Tensor out = MatMul(a, w);
        SumAll(out).Backward();
        ExpectAllClose(out.value_vector(), ref.out, 1e-5f, "forward");
        ExpectAllClose(a.grad_vector(), ref.da, 1e-5f, "dA");
        ExpectAllClose(w.grad_vector(), ref.dw, 1e-5f, "dW");
      }
    }
  }
}

TEST(TiledGemm, FusedBiasActMatchesComposedOps) {
  Rng rng(23);
  const Activation acts[] = {Activation::kNone, Activation::kRelu, Activation::kSigmoid,
                             Activation::kTanh};
  for (Activation act : acts) {
    for (int64_t b : {1, 5, 64}) {
      for (int64_t o : {3, 17, 129}) {
        const int64_t k = 33;
        const Tensor a0 = RandomTensor({b, k}, rng, false);
        const Tensor w0 = RandomTensor({k, o}, rng, false);
        const Tensor bias0 = RandomTensor({o}, rng, false);

        auto run = [&](bool fused) {
          Tensor a = a0.Clone();
          Tensor w = w0.Clone();
          Tensor bias = bias0.Clone();
          a.impl()->requires_grad = true;
          w.impl()->requires_grad = true;
          bias.impl()->requires_grad = true;
          Tensor out;
          if (fused) {
            out = MatMulBiasAct(a, w, bias, act);
          } else {
            out = AddBias(MatMul(a, w), bias);
            switch (act) {
              case Activation::kNone: break;
              case Activation::kRelu: out = Relu(out); break;
              case Activation::kSigmoid: out = Sigmoid(out); break;
              case Activation::kTanh: out = Tanh(out); break;
            }
          }
          SumAll(out).Backward();
          return std::make_tuple(out.value_vector(), a.grad_vector(), w.grad_vector(),
                                 bias.grad_vector());
        };
        const auto [out_f, ga_f, gw_f, gb_f] = run(true);
        const auto [out_c, ga_c, gw_c, gb_c] = run(false);
        ExpectAllClose(out_f, out_c, 1e-5f, "fused forward");
        ExpectAllClose(ga_f, ga_c, 1e-5f, "fused dA");
        ExpectAllClose(gw_f, gw_c, 1e-5f, "fused dW");
        ExpectAllClose(gb_f, gb_c, 1e-5f, "fused db");
      }
    }
  }
}

TEST(TiledGemm, RowResultsIndependentOfBatchSize) {
  // A query batched with 63 others must see the exact logits it gets alone;
  // this is the invariant the batch-first estimator API relies on.
  Rng rng(31);
  const int64_t k = 57, o = 43;
  const Tensor w = RandomTensor({k, o}, rng, false);
  const Tensor big = RandomTensor({64, k}, rng, false);
  const Tensor out_big = MatMul(big, w);
  for (int64_t r : {int64_t{0}, int64_t{13}, int64_t{63}}) {
    Tensor row = Tensor::Zeros({1, k});
    std::copy(big.data() + r * k, big.data() + (r + 1) * k, row.data());
    const Tensor out_row = MatMul(row, w);
    for (int64_t c = 0; c < o; ++c) {
      ASSERT_EQ(out_row.data()[c], out_big.data()[r * o + c]) << "row " << r << " col " << c;
    }
  }
}

nn::MadeOptions SmallMadeOptions() {
  nn::MadeOptions opt;
  opt.input_widths = {7, 5, 9};
  opt.output_widths = {4, 6, 3};
  opt.hidden_sizes = {32, 32};
  return opt;
}

TEST(NoGradScopeTest, LogitsBitwiseIdenticalToTrackedMode) {
  Rng rng(101);
  const nn::Made made(SmallMadeOptions(), rng);
  const Tensor x = RandomTensor({5, 21}, rng, false);

  const Tensor tracked = made.Forward(x);
  ASSERT_TRUE(NoGradGuard::GradEnabled());

  NoGradScope scope;
  const Tensor inferred = made.Forward(x);
  EXPECT_FALSE(NoGradGuard::GradEnabled());
  ASSERT_EQ(tracked.numel(), inferred.numel());
  for (int64_t i = 0; i < tracked.numel(); ++i) {
    EXPECT_EQ(tracked.data()[i], inferred.data()[i]) << "logit " << i;
  }
  // Inference mode builds no graph: the result has no parents or backward.
  EXPECT_TRUE(inferred.impl()->parents.empty());
  EXPECT_FALSE(static_cast<bool>(inferred.impl()->backward));
}

TEST(NoGradScopeTest, ArenaReachesZeroAllocSteadyState) {
  Rng rng(103);
  const nn::Made made(SmallMadeOptions(), rng);
  const Tensor x = RandomTensor({8, 21}, rng, false);

  InferenceArena::Clear();
  {
    NoGradScope scope;
    made.Forward(x);  // warm-up populates the free lists
  }
  InferenceArena::ResetStats();
  {
    NoGradScope scope;
    for (int pass = 0; pass < 3; ++pass) made.Forward(x);
  }
  const InferenceArena::Stats stats = InferenceArena::stats();
  EXPECT_EQ(stats.fresh_allocs, 0u) << "steady-state forward must not heap-allocate";
  EXPECT_GT(stats.reuses, 0u);
  InferenceArena::Clear();
}

TEST(NoGradScopeTest, PooledBuffersDoNotAliasLiveTensors) {
  // Two forwards whose intermediates die at different times must never share
  // a live buffer; values of the first result stay intact after the second.
  NoGradScope scope;
  Tensor a = Tensor::Full({4, 4}, 2.0f);
  Tensor b = Tensor::Full({4, 4}, 3.0f);
  Tensor first = Mul(a, b);  // 6s, kept alive
  const std::vector<float> snapshot = first.value_vector();
  for (int i = 0; i < 4; ++i) {
    Tensor scratch = Mul(a, a);  // dies each iteration, recycles its buffer
    ASSERT_EQ(scratch.data()[0], 4.0f);
  }
  EXPECT_EQ(first.value_vector(), snapshot);
}

}  // namespace
}  // namespace duet::tensor
