// Differentiable operations over Tensor.
//
// The set is exactly what the reproduced models need: dense affine layers
// (MADE / MLP / LSTM), per-column-block softmax heads, the masked-sum +
// product selectivity estimator of Duet (Algorithm 3), embedding lookups,
// and the scalar machinery for the hybrid Q-error loss. Every op records a
// backward closure unless gradients are globally disabled (NoGradGuard) and
// no input requires a gradient.
#ifndef DUET_TENSOR_OPS_H_
#define DUET_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace duet::tensor {

/// Half-open column range `[offset, offset+len)` inside a feature vector;
/// models describe their per-column output heads with these.
struct BlockSpec {
  int64_t offset = 0;
  int64_t len = 0;
};

/// C = A x W for A:[B,I], W:[I,O]. Runs the register-blocked, cache-tiled
/// SIMD kernel (2-D parallel split over row/column blocks); per-row results
/// are bitwise independent of the batch size, which is what makes batched
/// and per-query estimation agree exactly.
Tensor MatMul(const Tensor& a, const Tensor& w);

/// x + b broadcast over rows; x:[B,O], b:[O].
Tensor AddBias(const Tensor& x, const Tensor& b);

/// Epilogue activation fused into MatMulBiasAct's output pass.
enum class Activation : int32_t {
  kNone = 0,
  kRelu = 1,
  kSigmoid = 2,
  kTanh = 3,
};

/// Fused dense layer: act(a x w + bias) computed with the tiled GEMM and a
/// single cache-hot epilogue pass instead of three separate ops (and three
/// activation buffers). a:[B,I], w:[I,O], bias:[O].
Tensor MatMulBiasAct(const Tensor& a, const Tensor& w, const Tensor& bias, Activation act);

/// Raw-buffer fused dense layer for the no-autograd execution layer (packed
/// weights / compiled inference plans): overwrites out[m*n] with
/// act(a x w + bias), running the exact same GEMM + epilogue code as
/// MatMulBiasAct — bitwise-identical, no Tensor temporaries, no graph.
void RawMatMulBiasAct(const float* a, const float* w, const float* bias, int64_t m,
                      int64_t k, int64_t n, Activation act, float* out);

/// Raw-buffer fused bias+activation epilogue over c:[b, o] rows in place —
/// the same single pass MatMulBiasAct fuses after its GEMM. Exposed so the
/// packed/compiled-plan kernels share one epilogue implementation.
void RawBiasAct(float* c, const float* bias, int64_t b, int64_t o, Activation act,
                bool parallel);

/// One row of RawBiasAct: row[0, o) = act(row + bias), the per-element
/// expressions every epilogue runs. Callers that own their rows (the
/// predicate-sparse kernels) call it directly.
void BiasActRow(float* row, const float* bias, int64_t o, Activation act);

/// Elementwise ops over equal shapes.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

/// Scalar broadcast ops.
Tensor AddScalar(const Tensor& x, float c);
Tensor MulScalar(const Tensor& x, float c);

/// Elementwise nonlinearities / transforms.
Tensor Relu(const Tensor& x);
Tensor Sigmoid(const Tensor& x);
Tensor Tanh(const Tensor& x);
Tensor Exp(const Tensor& x);
Tensor Log(const Tensor& x);
/// max(x, c); gradient flows only through the unclamped side.
Tensor ClampMin(const Tensor& x, float c);

/// Concatenation along the feature (last) dimension; all inputs [B, *].
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Concatenation along the batch dimension; all inputs [*, H].
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Column slice [start, start+len) of x:[B,D].
Tensor SliceCols(const Tensor& x, int64_t start, int64_t len);

/// Embedding lookup: weight:[V,E], idx (row per output) -> [B,E].
Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int32_t>& idx);

/// Row-wise softmax over each block independently; x:[B,D].
Tensor SoftmaxBlocks(const Tensor& x, const std::vector<BlockSpec>& blocks);

/// Row-wise log-softmax over each block independently.
Tensor LogSoftmaxBlocks(const Tensor& x, const std::vector<BlockSpec>& blocks);

/// Full-row softmax (single block).
Tensor Softmax(const Tensor& x);

/// Mean over batch of the summed per-block negative log-likelihood:
///   (1/B) * sum_b sum_n -logp[b, blocks[n].offset + targets[b*N+n]].
/// This is the L_data cross-entropy of both Duet and Naru.
Tensor NllLossBlocks(const Tensor& logp, const std::vector<BlockSpec>& blocks,
                     const std::vector<int32_t>& targets);

/// out[b,n] = sum_{j in block n} p[b,j]*mask[b,j]; `mask` is a constant
/// tensor (no gradient). This is Algorithm 3's "zero-out" step.
Tensor MaskedSumBlocks(const Tensor& p, const Tensor& mask,
                       const std::vector<BlockSpec>& blocks);

/// Row-sum: [B,N] -> [B].
Tensor SumCols(const Tensor& x);

/// Mean of all elements -> scalar.
Tensor MeanAll(const Tensor& x);

/// Sum of all elements -> scalar.
Tensor SumAll(const Tensor& x);

/// Elementwise select on a constant condition: cond[i] != 0 ? a[i] : b[i].
Tensor Select(const std::vector<float>& cond, const Tensor& a, const Tensor& b);

/// Segment mean pooling for set models (MSCN): x:[B*S,H] -> [B,H], where
/// element (b,s) participates iff mask[b*S+s] != 0; empty segments yield 0.
Tensor MeanPoolSegments(const Tensor& x, const std::vector<float>& mask, int64_t batch,
                        int64_t set_size);

/// Same data, new shape (sizes must agree). Copying op; identity gradient.
Tensor Reshape(const Tensor& x, std::vector<int64_t> shape);

/// Block-diagonal matrix multiply: x:[B, N*in], w:[N, in, out] ->
/// [B, N*out], where output block k = x_block_k x w[k]. This is Duet's
/// "merged MPSN" acceleration (Sec. IV-F): N per-column MLP layers execute
/// as one fused operation instead of N kernel calls, with identical math.
Tensor BlockDiagMatMul(const Tensor& x, const Tensor& w, int64_t num_blocks, int64_t in,
                       int64_t out);

}  // namespace duet::tensor

#endif  // DUET_TENSOR_OPS_H_
