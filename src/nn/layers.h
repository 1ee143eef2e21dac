// Core layers: Linear, MaskedLinear (MADE building block), MLP, Embedding,
// LSTMCell (used by the RNN variant of Duet's MPSN).
#ifndef DUET_NN_LAYERS_H_
#define DUET_NN_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "nn/inference_plan.h"
#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/packed_weights.h"
#include "tensor/tensor.h"

namespace duet::nn {

/// Packed-weights cache slot shared by Linear and MaskedLinear (inference
/// only). `version` is the tensor::ParameterVersion() stamp under which
/// `packed` was built; 0 means never built. The slot is rebuilt whenever the
/// global counter moves (optimizer step, checkpoint load, any
/// ParameterMutationGuard) or the requested backend changes, under `mu`; a
/// rebuilt pack is published as a fresh shared_ptr, so readers holding the
/// previous pack are never invalidated mid-forward. Heap-allocated so
/// layers stay movable (std::mutex is not) — MADE stores layers in vectors.
///
/// SetInferenceBackend vs concurrent Forward: `requested` is written with
/// release order and read with acquire order, and every pack/plan is
/// published as a fresh immutable shared_ptr under `mu` — so a backend
/// switch racing in-flight forwards can never hand out a torn pack; each
/// forward observes either the old or the new backend's pack, both valid.
/// What the layer-level caches do NOT guarantee under such a race is that
/// one multi-layer forward uses a single backend throughout (each layer
/// resolves independently, so a mid-switch forward may mix backends across
/// layers — every layer's output is still a valid value for its backend).
/// Compiled plans (nn/inference_plan.h) close that gap: a planned forward
/// resolves its backend exactly once. Either way, configure a model before
/// sharing it with serving threads.
struct PackedWeightsCache {
  std::mutex mu;
  std::shared_ptr<const tensor::PackedWeights> packed;
  uint64_t version = 0;
  /// Backend selected by SetInferenceBackend (release-store) and read on
  /// every no-grad forward (acquire-load).
  std::atomic<tensor::WeightBackend> requested{tensor::WeightBackend::kDenseF32};
};

/// Fully connected layer y = x W + b with PyTorch-style U(-1/sqrt(I), ..)
/// initialization. W is stored [in, out] to match tensor::MatMul.
///
/// Inference backends: with gradients disabled, Forward dispatches on the
/// backend chosen via SetInferenceBackend. kDenseF32 (default) multiplies
/// by W directly — no cache, no extra memory, bitwise-identical to the
/// tracked math. kCsrF32 / kInt8 serve a packed form of W from the
/// packed-weights cache (same coherence rules as MaskedLinear below); CSR
/// on an unmasked dense weight stores every entry and is only useful for
/// uniformity, int8 quarters the streamed weight bytes.
class Linear : public Module {
 public:
  Linear(int64_t in, int64_t out, Rng& rng);

  /// Fused act(x W + b); kNone gives the plain affine layer.
  tensor::Tensor Forward(const tensor::Tensor& x,
                         tensor::Activation act = tensor::Activation::kNone) const;

  void SetInferenceBackend(tensor::WeightBackend backend) const override;
  /// Bytes held by the packed cache (0 until a non-dense no-grad forward).
  uint64_t CachedBytes() const override;

  /// Frees the cached pack (rebuilt lazily on the next cache-path forward).
  /// Containers call this when a compiled plan takes over the no-grad path
  /// and the per-layer pack would sit allocated unused.
  void DropPackedCache() const;

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  const tensor::Tensor& weight() const { return w_; }
  const tensor::Tensor& bias() const { return b_; }

  /// Non-pooled copy of W for plan compilation (plain layers: the effective
  /// weight IS the parameter; dense plans share the live handle instead).
  tensor::Tensor EffectiveWeightCopy() const;

 private:
  /// Returns the packed W for the requested backend, repacking if the
  /// parameter version moved or the backend changed.
  std::shared_ptr<const tensor::PackedWeights> PackedWeight() const;

  int64_t in_;
  int64_t out_;
  tensor::Tensor w_;
  tensor::Tensor b_;
  std::unique_ptr<PackedWeightsCache> cache_;
};

/// Linear layer whose weight is elementwise-gated by a constant binary mask
/// (the MADE connectivity constraint): y = x (W o M) + b.
///
/// Inference-side packed-weights cache: when gradient tracking is off
/// (NoGradGuard / NoGradScope — every estimator inference path), Forward
/// serves a cached pack of the effective weight W o M instead of recomputing
/// the elementwise product on every call. At batch 1 that product dominates
/// the forward pass (~95% of estimation latency, see docs/architecture.md),
/// so the cache is what makes single-query serving latency flat. The pack
/// format follows SetInferenceBackend: kDenseF32 (default) materializes
/// W o M exactly as the PR-2 masked-weight cache did — bitwise-identical
/// forwards; kCsrF32 stores only the ~50% nonzero entries and is also
/// bitwise-identical (k-ascending accumulation, only zeros skipped); kInt8
/// quantizes per output channel and is accuracy-bounded, not exact.
///
/// Cache coherence: the cached pack is stamped with
/// tensor::ParameterVersion() and rebuilt whenever the global counter has
/// moved — i.e. after any optimizer Step(), Module::Load(), or scope holding
/// a tensor::ParameterMutationGuard. Code mutating W through a raw data()
/// pointer must hold such a guard (or call tensor::BumpParameterVersion()).
/// A backend change likewise triggers a lazy repack on the next forward.
/// The cached pack is allocated outside the inference arena, so it may
/// outlive any NoGradScope and be shared across threads.
///
/// Thread-safety: Forward is safe to call concurrently from many threads
/// while parameters are frozen (the cache is rebuilt under an internal
/// mutex, and a rebuilt pack is published atomically as a fresh immutable
/// shared_ptr). Concurrent parameter *updates* of THIS layer are never
/// synchronized with in-flight forwards — which is why online serving
/// never trains a served model in place: updates go to a clone that is
/// published as a new zoo artifact (serve/model_registry.h).
class MaskedLinear : public Module {
 public:
  /// `mask` must be an [in, out] tensor of 0/1 floats.
  MaskedLinear(int64_t in, int64_t out, tensor::Tensor mask, Rng& rng);

  /// Fused act(x (W o M) + b); kNone gives the plain affine layer. With
  /// gradients enabled the product W o M is part of the graph (so W trains);
  /// with gradients disabled it is served from the packed-weights cache.
  tensor::Tensor Forward(const tensor::Tensor& x,
                         tensor::Activation act = tensor::Activation::kNone) const;

  void SetInferenceBackend(tensor::WeightBackend backend) const override;
  /// Bytes held by the packed cache (0 until the first no-grad forward).
  /// This is the cache's memory cost on top of the fp32 parameters: the
  /// dense backend doubles a layer's weight memory, CSR halves the extra
  /// copy (~50% structural zeros), int8 quarters it, f16 halves it.
  uint64_t CachedBytes() const override;

  /// Frees the cached pack (rebuilt lazily on the next cache-path forward);
  /// see Linear::DropPackedCache.
  void DropPackedCache() const;

  const tensor::Tensor& mask() const { return mask_; }
  const tensor::Tensor& weight() const { return w_; }
  const tensor::Tensor& bias() const { return b_; }

  /// Materializes W o M into a fresh non-pooled tensor (what inference
  /// multiplies by); plan compilation packs from this.
  tensor::Tensor EffectiveWeightCopy() const;

 private:
  /// Returns the packed W o M for the requested backend, rebuilding it if
  /// the parameter version moved or the backend changed.
  std::shared_ptr<const tensor::PackedWeights> PackedEffectiveWeight() const;

  int64_t in_;
  int64_t out_;
  tensor::Tensor w_;
  tensor::Tensor b_;
  tensor::Tensor mask_;  // constant
  std::unique_ptr<PackedWeightsCache> cache_;
};

/// Plain ReLU MLP; `sizes` = {in, h1, ..., out}. No activation after the
/// final layer.
///
/// No-grad forwards execute through a compiled inference plan by default
/// (see nn/inference_plan.h): the layer loop is flattened once per
/// (backend, parameter version) into a packed-op program — bitwise-equal to
/// the layer-by-layer path for dense, and routing the whole forward through
/// one atomically published program (a backend switch can never mix
/// backends inside one planned forward). SetPlanEnabled(false) restores the
/// PR-3 per-layer path.
class Mlp : public Module {
 public:
  Mlp(const std::vector<int64_t>& sizes, Rng& rng);

  tensor::Tensor Forward(const tensor::Tensor& x) const;

  void SetInferenceBackend(tensor::WeightBackend backend) const override;
  /// Layer packed caches + compiled plan bytes.
  uint64_t CachedBytes() const override;

  std::shared_ptr<const InferencePlan> Compile(tensor::WeightBackend backend) const override;
  void SetPlanEnabled(bool enabled) const override;
  uint64_t PlanBytes() const override;
  PlanTelemetry PlanInfo() const override;

 private:
  std::vector<Linear> layers_;
  std::unique_ptr<InferencePlanCache> plan_cache_;
};

/// Embedding table: rows of a [num_embeddings, dim] matrix.
class Embedding : public Module {
 public:
  Embedding(int64_t num_embeddings, int64_t dim, Rng& rng);

  tensor::Tensor Forward(const std::vector<int32_t>& idx) const;

  int64_t dim() const { return dim_; }
  const tensor::Tensor& weight() const { return w_; }

 private:
  int64_t dim_;
  tensor::Tensor w_;
};

/// Single LSTM cell; state is carried explicitly by the caller.
class LstmCell : public Module {
 public:
  LstmCell(int64_t input, int64_t hidden, Rng& rng);

  struct State {
    tensor::Tensor h;
    tensor::Tensor c;
  };

  /// Zero state for a batch.
  State InitialState(int64_t batch) const;

  /// One step: returns the new state.
  State Forward(const tensor::Tensor& x, const State& prev) const;

  int64_t hidden() const { return hidden_; }

 private:
  int64_t hidden_;
  tensor::Tensor wx_;  // [input, 4H]
  tensor::Tensor wh_;  // [hidden, 4H]
  tensor::Tensor b_;   // [4H]
};

}  // namespace duet::nn

#endif  // DUET_NN_LAYERS_H_
