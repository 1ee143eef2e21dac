// A small reverse-mode automatic-differentiation tensor engine.
//
// This is the substrate the paper gets from PyTorch/LibTorch: dense float32
// tensors, a dynamically built computation graph, and backpropagation. The
// reproduction implements it from scratch (see DESIGN.md Sec. 1) so that the
// MADE models, the Duet estimator, the Gumbel-Softmax progressive sampler of
// UAE, and the hybrid Q-error loss all run on one deterministic CPU engine.
//
// Design notes:
//  * A Tensor is a shared handle to an Impl node holding value, grad, and an
//    optional backward closure plus parent links (the graph is embedded in
//    the nodes; releasing the loss tensor frees the graph).
//  * Shapes are 1-D to 3-D; almost everything in the library is [batch, dim].
//  * Gradient tracking is opt-in per-leaf (requires_grad) and can be
//    suppressed globally with NoGradGuard for inference paths, which is how
//    the latency benches measure pure forward cost.
#ifndef DUET_TENSOR_TENSOR_H_
#define DUET_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace duet::tensor {

class Tensor;

/// Reference-counted tensor storage + autograd node.
struct TensorImpl {
  std::vector<int64_t> shape;
  std::vector<float> value;
  std::vector<float> grad;  // lazily sized to value.size()
  bool requires_grad = false;
  /// Value buffer came from the inference arena; returned on destruction.
  bool pooled = false;
  std::function<void()> backward;  // accumulates into parents' grads
  std::vector<std::shared_ptr<TensorImpl>> parents;

  TensorImpl() = default;
  ~TensorImpl();
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  /// Sizes `value` to n floats filled with `fill`. Inside a NoGradScope the
  /// buffer is recycled from the thread-local inference arena when possible.
  void AllocValue(size_t n, float fill);

  int64_t numel() const {
    int64_t n = 1;
    for (int64_t d : shape) n *= d;
    return n;
  }
  void EnsureGrad() {
    if (grad.size() != value.size()) grad.assign(value.size(), 0.0f);
  }
};

/// Thread-local buffer pool for forward-only (inference) passes. While a
/// NoGradScope is active, tensor value buffers are drawn from per-size free
/// lists and recycled when their TensorImpl dies, so a steady-state batched
/// forward performs zero heap allocations for activations. The counters
/// below are the allocation hook benches/tests assert against.
class InferenceArena {
 public:
  struct Stats {
    uint64_t fresh_allocs = 0;  // pool miss: a new buffer was heap-allocated
    uint64_t reuses = 0;        // pool hit: buffer served from a free list
    uint64_t returns = 0;       // buffers recycled back into the pool
  };

  /// True while a NoGradScope is active on this thread.
  static bool Active();
  static Stats stats();
  static void ResetStats();
  /// Frees every pooled buffer on this thread.
  static void Clear();

 private:
  friend struct TensorImpl;
  friend class NoGradScope;
  static std::vector<float> Acquire(size_t n);
  static void Release(std::vector<float>&& buf);
};

/// Monotonic counter identifying the current "version" of the model
/// parameters in this process. Every optimizer step (`Adam::Step`,
/// `Sgd::Step`) and every checkpoint load (`nn::Module::Load`) bumps it;
/// inference-side caches derived from parameters (the compiled-plan caches
/// of `nn::Made` / `nn::Mlp`) compare their stamp against this counter and
/// rebuild when stale. Code that mutates parameter storage directly through
/// raw `data()` pointers must call BumpParameterVersion() itself, otherwise
/// such caches will serve stale derived values.
///
/// Thread-safety: both functions are atomic and safe to call from any
/// thread. Note the counter orders cache invalidation only — a parameter
/// update racing an in-flight forward pass over the SAME storage still
/// yields torn reads of the weights themselves. Serving therefore never
/// mutates a served model in place: online updates train a clone and
/// publish it as a new zoo artifact (serve/model_registry.h), and only code
/// that owns a model exclusively may train it while it is being read.
uint64_t ParameterVersion();
void BumpParameterVersion();

/// RAII form of the invalidation contract above: construct one in any scope
/// that mutates parameter storage through raw `data()` pointers (checkpoint
/// restores, fine-tuning drivers, optimizer steps); its destructor bumps
/// ParameterVersion() exactly once, after the mutation — including on early
/// returns and exceptions — so parameter-derived caches can never observe a
/// completed mutation under a stale version. Prefer this over calling
/// BumpParameterVersion() by hand, which is easy to forget on one exit path.
class ParameterMutationGuard {
 public:
  ParameterMutationGuard() = default;
  ~ParameterMutationGuard() { BumpParameterVersion(); }
  ParameterMutationGuard(const ParameterMutationGuard&) = delete;
  ParameterMutationGuard& operator=(const ParameterMutationGuard&) = delete;
};

/// RAII guard disabling graph construction (inference mode).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// True when graph construction is currently enabled.
  static bool GradEnabled();

 private:
  bool prev_;
};

/// Explicit inference mode: disables graph construction like NoGradGuard and
/// additionally activates the thread-local InferenceArena so activation
/// buffers are recycled across forward passes. Numerics are identical to
/// tracked mode — only allocation behaviour changes.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  NoGradGuard guard_;
  bool prev_active_;
};

/// Value-semantics handle over TensorImpl.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  /// Allocates a zero-filled tensor.
  static Tensor Zeros(std::vector<int64_t> shape, bool requires_grad = false);

  /// Allocates a constant-filled tensor.
  static Tensor Full(std::vector<int64_t> shape, float fill, bool requires_grad = false);

  /// Wraps existing data (copied).
  static Tensor FromVector(std::vector<int64_t> shape, std::vector<float> data,
                           bool requires_grad = false);

  /// A scalar (shape [1]).
  static Tensor Scalar(float v, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  const std::vector<int64_t>& shape() const;
  int64_t dim(int i) const;
  int ndim() const;
  int64_t numel() const;
  bool requires_grad() const;

  float* data();
  const float* data() const;
  /// Grad buffer (allocated on first use).
  float* grad_data();
  const std::vector<float>& grad_vector() const;
  const std::vector<float>& value_vector() const;

  /// Scalar value accessor (requires numel()==1).
  float item() const;

  /// Zeroes this tensor's grad buffer.
  void ZeroGrad();

  /// Runs reverse-mode autodiff from this tensor. The seed gradient is 1 for
  /// every element (callers typically invoke this on a scalar loss).
  void Backward();

  /// Deep copy of values only (no graph, no grad).
  Tensor Clone() const;

  /// Same storage, detached from the graph (no parents / backward).
  Tensor Detach() const;

  std::shared_ptr<TensorImpl>& impl() { return impl_; }
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

  /// Human-readable short description ("Tensor[2x3]").
  std::string DebugString() const;

 private:
  std::shared_ptr<TensorImpl> impl_;
};

}  // namespace duet::tensor

#endif  // DUET_TENSOR_TENSOR_H_
