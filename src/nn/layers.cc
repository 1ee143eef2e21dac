#include "nn/layers.h"

#include <cmath>

#include "common/logging.h"

namespace duet::nn {

using tensor::Tensor;

namespace {

Tensor UniformInit(std::vector<int64_t> shape, float bound, Rng& rng) {
  Tensor t = Tensor::Zeros(std::move(shape));
  float* p = t.data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) p[i] = (rng.UniformFloat() * 2.0f - 1.0f) * bound;
  return t;
}

}  // namespace

Linear::Linear(int64_t in, int64_t out, Rng& rng)
    : in_(in), out_(out), cache_(std::make_unique<PackedWeightsCache>()) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(in));
  w_ = RegisterParam(UniformInit({in, out}, bound, rng));
  b_ = RegisterParam(UniformInit({out}, bound, rng));
}

tensor::Tensor Linear::EffectiveWeightCopy() const {
  return Tensor::FromVector(w_.shape(), w_.value_vector());
}

std::shared_ptr<const tensor::PackedWeights> Linear::PackedWeight() const {
  const tensor::WeightBackend backend = cache_->requested.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(cache_->mu);
  const uint64_t version = tensor::ParameterVersion();
  if (cache_->version != version || !cache_->packed || cache_->packed->backend != backend) {
    // Pack from a non-pooled copy of W: the pack outlives any NoGradScope
    // and is read from many threads, so it must not borrow from a
    // thread-local inference arena or alias the mutable parameter storage.
    cache_->packed = tensor::PackWeights(
        Tensor::FromVector(w_.shape(), w_.value_vector()), backend);
    cache_->version = version;
  }
  return cache_->packed;
}

void Linear::SetInferenceBackend(tensor::WeightBackend backend) const {
  cache_->requested.store(backend, std::memory_order_release);
  if (backend == tensor::WeightBackend::kDenseF32) {
    // The dense path multiplies by W directly and never reads the cache, so
    // a pack left over from a csr/int8 configuration would sit allocated
    // forever and keep counting toward CachedBytes(); drop it now.
    std::lock_guard<std::mutex> lock(cache_->mu);
    cache_->packed.reset();
    cache_->version = 0;
  }
}

uint64_t Linear::CachedBytes() const {
  std::lock_guard<std::mutex> lock(cache_->mu);
  return cache_->packed ? cache_->packed->bytes() : 0;
}

void Linear::DropPackedCache() const {
  std::lock_guard<std::mutex> lock(cache_->mu);
  cache_->packed.reset();
  cache_->version = 0;
}

Tensor Linear::Forward(const Tensor& x, tensor::Activation act) const {
  if (!tensor::NoGradGuard::GradEnabled() &&
      cache_->requested.load(std::memory_order_acquire) != tensor::WeightBackend::kDenseF32) {
    return tensor::PackedMatMulBiasAct(x, *PackedWeight(), b_, act);
  }
  // Dense inference multiplies by W directly — the unpacked weight IS the
  // dense packed form, so no cache copy is ever built on this path.
  return tensor::MatMulBiasAct(x, w_, b_, act);
}

MaskedLinear::MaskedLinear(int64_t in, int64_t out, Tensor mask, Rng& rng)
    : in_(in), out_(out), mask_(std::move(mask)),
      cache_(std::make_unique<PackedWeightsCache>()) {
  DUET_CHECK_EQ(mask_.ndim(), 2);
  DUET_CHECK_EQ(mask_.dim(0), in);
  DUET_CHECK_EQ(mask_.dim(1), out);
  const float bound = 1.0f / std::sqrt(static_cast<float>(in));
  w_ = RegisterParam(UniformInit({in, out}, bound, rng));
  b_ = RegisterParam(UniformInit({out}, bound, rng));
}

tensor::Tensor MaskedLinear::EffectiveWeightCopy() const {
  // Materialize W o M into a fresh non-pooled buffer: packs built from it
  // outlive any NoGradScope and are read from many threads, so the product
  // must not borrow from a thread-local inference arena (see arena rules in
  // tensor.h).
  const float* w = w_.data();
  const float* m = mask_.data();
  std::vector<float> wm(static_cast<size_t>(w_.numel()));
  for (size_t i = 0; i < wm.size(); ++i) wm[i] = w[i] * m[i];
  return Tensor::FromVector(w_.shape(), std::move(wm));
}

std::shared_ptr<const tensor::PackedWeights> MaskedLinear::PackedEffectiveWeight() const {
  const tensor::WeightBackend backend = cache_->requested.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(cache_->mu);
  const uint64_t version = tensor::ParameterVersion();
  if (cache_->version != version || !cache_->packed || cache_->packed->backend != backend) {
    // For kDenseF32 the pack adopts the W o M materialization as-is —
    // exactly the PR-2 masked-weight cache; for CSR/int8/f16 the buffer is
    // a pack-time temporary.
    cache_->packed = tensor::PackWeights(EffectiveWeightCopy(), backend);
    cache_->version = version;
  }
  return cache_->packed;
}

void MaskedLinear::SetInferenceBackend(tensor::WeightBackend backend) const {
  cache_->requested.store(backend, std::memory_order_release);
}

uint64_t MaskedLinear::CachedBytes() const {
  std::lock_guard<std::mutex> lock(cache_->mu);
  return cache_->packed ? cache_->packed->bytes() : 0;
}

void MaskedLinear::DropPackedCache() const {
  std::lock_guard<std::mutex> lock(cache_->mu);
  cache_->packed.reset();
  cache_->version = 0;
}

Tensor MaskedLinear::Forward(const Tensor& x, tensor::Activation act) const {
  if (!tensor::NoGradGuard::GradEnabled()) {
    // Inference: the mask is constant and W is frozen between optimizer
    // steps, so W o M is packed once per parameter version. The dense
    // backend performs the same float multiplies as the tracked path below
    // and dispatches through the same GEMM, so cached and uncached forwards
    // agree bitwise; CSR skips only exact zeros and agrees bitwise too.
    return tensor::PackedMatMulBiasAct(x, *PackedEffectiveWeight(), b_, act);
  }
  return tensor::MatMulBiasAct(x, tensor::Mul(w_, mask_), b_, act);
}

Mlp::Mlp(const std::vector<int64_t>& sizes, Rng& rng)
    : plan_cache_(std::make_unique<InferencePlanCache>()) {
  DUET_CHECK_GE(sizes.size(), 2u);
  layers_.reserve(sizes.size() - 1);
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    layers_.emplace_back(sizes[i], sizes[i + 1], rng);
  }
  for (auto& l : layers_) RegisterChild(l);
}

Tensor Mlp::Forward(const Tensor& x) const {
  if (!tensor::NoGradGuard::GradEnabled() &&
      plan_cache_->enabled.load(std::memory_order_acquire)) {
    const auto plan = GetOrCompilePlan(
        *plan_cache_, [this](tensor::WeightBackend backend) { return Compile(backend); });
    return plan->Execute(x);
  }
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    h = layers_[i].Forward(h, last ? tensor::Activation::kNone : tensor::Activation::kRelu);
  }
  return h;
}

std::shared_ptr<const InferencePlan> Mlp::Compile(tensor::WeightBackend backend) const {
  PlanBuilder b(backend, layers_.front().in_features());
  int h = PlanBuilder::kInput;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    // Plain Linear weights have no structural zeros, so the degree-sorted
    // permutation is never profitable; dense packs share the live parameter
    // handle (no weight copy), other backends pack from a fresh copy.
    const bool dense = backend == tensor::WeightBackend::kDenseF32;
    h = b.Linear(h, dense ? layers_[i].weight() : layers_[i].EffectiveWeightCopy(),
                 layers_[i].bias(),
                 last ? tensor::Activation::kNone : tensor::Activation::kRelu,
                 /*permute_outputs=*/false, /*weight_is_parameter=*/dense);
  }
  return b.Finish(h);
}

void Mlp::SetInferenceBackend(tensor::WeightBackend backend) const {
  for (const Linear& l : layers_) l.SetInferenceBackend(backend);
  plan_cache_->requested.store(backend, std::memory_order_release);
}

void Mlp::SetPlanEnabled(bool enabled) const {
  plan_cache_->enabled.store(enabled, std::memory_order_release);
  if (!enabled) {
    // Reclaim the compiled program: a disabled plan would otherwise sit
    // allocated forever and keep counting toward PlanBytes()/CachedBytes().
    // In-flight forwards holding the shared_ptr stay valid.
    std::lock_guard<std::mutex> lock(plan_cache_->mu);
    plan_cache_->plan.reset();
    plan_cache_->version = 0;
  } else {
    // Symmetric reclaim: the plan path never reads the per-layer packs, so
    // packs built while plans were off would sit allocated unused (and
    // double-count in CachedBytes on top of the plan's packs).
    for (const Linear& l : layers_) l.DropPackedCache();
  }
}

uint64_t Mlp::PlanBytes() const {
  std::lock_guard<std::mutex> lock(plan_cache_->mu);
  return plan_cache_->plan ? plan_cache_->plan->bytes() : 0;
}

PlanTelemetry Mlp::PlanInfo() const { return plan_cache_->Snapshot(); }

uint64_t Mlp::CachedBytes() const {
  uint64_t bytes = PlanBytes();
  for (const Linear& l : layers_) bytes += l.CachedBytes();
  return bytes;
}

Embedding::Embedding(int64_t num_embeddings, int64_t dim, Rng& rng) : dim_(dim) {
  // Normal(0, 1) scaled down keeps embedding magnitudes comparable to the
  // binary encodings they can replace.
  Tensor t = Tensor::Zeros({num_embeddings, dim});
  float* p = t.data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(rng.Gaussian()) * 0.1f;
  w_ = RegisterParam(t);
}

Tensor Embedding::Forward(const std::vector<int32_t>& idx) const {
  return tensor::EmbeddingLookup(w_, idx);
}

LstmCell::LstmCell(int64_t input, int64_t hidden, Rng& rng) : hidden_(hidden) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(hidden));
  wx_ = RegisterParam(UniformInit({input, 4 * hidden}, bound, rng));
  wh_ = RegisterParam(UniformInit({hidden, 4 * hidden}, bound, rng));
  b_ = RegisterParam(UniformInit({4 * hidden}, bound, rng));
}

LstmCell::State LstmCell::InitialState(int64_t batch) const {
  return {Tensor::Zeros({batch, hidden_}), Tensor::Zeros({batch, hidden_})};
}

LstmCell::State LstmCell::Forward(const Tensor& x, const State& prev) const {
  using namespace tensor;  // NOLINT
  Tensor gates = AddBias(Add(MatMul(x, wx_), MatMul(prev.h, wh_)), b_);
  Tensor i = Sigmoid(SliceCols(gates, 0, hidden_));
  Tensor f = Sigmoid(SliceCols(gates, hidden_, hidden_));
  Tensor g = Tanh(SliceCols(gates, 2 * hidden_, hidden_));
  Tensor o = Sigmoid(SliceCols(gates, 3 * hidden_, hidden_));
  Tensor c = Add(Mul(f, prev.c), Mul(i, g));
  Tensor h = Mul(o, Tanh(c));
  return {h, c};
}

}  // namespace duet::nn
