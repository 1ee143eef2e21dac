#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "serve/fault_injector.h"

namespace duet::tensor {

namespace {

thread_local bool t_grad_enabled = true;

/// Per-thread inference arena: free lists keyed by exact buffer size. Shapes
/// repeat across batched forward calls, so exact-size buckets reach a 100%
/// hit rate after one warm-up pass. Total pooled bytes are capped so a
/// long-running server that sees many distinct shapes cannot accumulate
/// unbounded per-thread memory; buffers past the cap are simply freed.
constexpr size_t kMaxPooledBytes = size_t{256} << 20;  // 256 MiB per thread

struct ArenaState {
  bool active = false;
  size_t pooled_bytes = 0;
  std::unordered_map<size_t, std::vector<std::vector<float>>> pool;
  InferenceArena::Stats stats;
};
thread_local ArenaState t_arena;

}  // namespace

namespace {
// Starts at 1 so a zero-initialized cache stamp is always stale.
std::atomic<uint64_t> g_parameter_version{1};
}  // namespace

uint64_t ParameterVersion() { return g_parameter_version.load(std::memory_order_acquire); }
void BumpParameterVersion() { g_parameter_version.fetch_add(1, std::memory_order_acq_rel); }

NoGradGuard::NoGradGuard() : prev_(t_grad_enabled) { t_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { t_grad_enabled = prev_; }
bool NoGradGuard::GradEnabled() { return t_grad_enabled; }

NoGradScope::NoGradScope() : prev_active_(t_arena.active) { t_arena.active = true; }
NoGradScope::~NoGradScope() { t_arena.active = prev_active_; }

bool InferenceArena::Active() { return t_arena.active; }
InferenceArena::Stats InferenceArena::stats() { return t_arena.stats; }
void InferenceArena::ResetStats() { t_arena.stats = Stats{}; }
void InferenceArena::Clear() {
  t_arena.pool.clear();
  t_arena.pooled_bytes = 0;
}

std::vector<float> InferenceArena::Acquire(size_t n) {
  // Fault point: buffer acquisition is where a real allocation failure
  // (std::bad_alloc) would surface on the inference path; the serving
  // layer must degrade the affected shard, not crash.
  serve::FaultInjector::MaybeThrow(serve::FaultPoint::kAllocation,
                                   "injected arena allocation failure");
  auto it = t_arena.pool.find(n);
  if (it != t_arena.pool.end() && !it->second.empty()) {
    std::vector<float> buf = std::move(it->second.back());
    it->second.pop_back();
    t_arena.pooled_bytes -= n * sizeof(float);
    ++t_arena.stats.reuses;
    return buf;
  }
  ++t_arena.stats.fresh_allocs;
  return std::vector<float>(n);
}

void InferenceArena::Release(std::vector<float>&& buf) {
  const size_t bytes = buf.size() * sizeof(float);
  if (t_arena.pooled_bytes + bytes > kMaxPooledBytes) return;  // drop: cap reached
  t_arena.pooled_bytes += bytes;
  ++t_arena.stats.returns;
  t_arena.pool[buf.size()].push_back(std::move(buf));
}

TensorImpl::~TensorImpl() {
  if (pooled) InferenceArena::Release(std::move(value));
}

void TensorImpl::AllocValue(size_t n, float fill) {
  if (InferenceArena::Active() && !requires_grad) {
    value = InferenceArena::Acquire(n);
    pooled = true;
    std::fill(value.begin(), value.end(), fill);
    return;
  }
  value.assign(n, fill);
}

Tensor Tensor::Zeros(std::vector<int64_t> shape, bool requires_grad) {
  return Full(std::move(shape), 0.0f, requires_grad);
}

Tensor Tensor::Full(std::vector<int64_t> shape, float fill, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  int64_t n = 1;
  for (int64_t d : impl->shape) {
    DUET_CHECK_GE(d, 0);
    n *= d;
  }
  impl->requires_grad = requires_grad;
  impl->AllocValue(static_cast<size_t>(n), fill);
  return Tensor(std::move(impl));
}

Tensor Tensor::FromVector(std::vector<int64_t> shape, std::vector<float> data,
                          bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  int64_t n = 1;
  for (int64_t d : impl->shape) n *= d;
  DUET_CHECK_EQ(static_cast<size_t>(n), data.size());
  impl->value = std::move(data);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float v, bool requires_grad) {
  return FromVector({1}, {v}, requires_grad);
}

const std::vector<int64_t>& Tensor::shape() const {
  DUET_CHECK(impl_ != nullptr);
  return impl_->shape;
}

int64_t Tensor::dim(int i) const {
  DUET_CHECK(impl_ != nullptr);
  DUET_CHECK_GE(i, 0);
  DUET_CHECK_LT(static_cast<size_t>(i), impl_->shape.size());
  return impl_->shape[static_cast<size_t>(i)];
}

int Tensor::ndim() const {
  DUET_CHECK(impl_ != nullptr);
  return static_cast<int>(impl_->shape.size());
}

int64_t Tensor::numel() const {
  DUET_CHECK(impl_ != nullptr);
  return impl_->numel();
}

bool Tensor::requires_grad() const {
  DUET_CHECK(impl_ != nullptr);
  return impl_->requires_grad;
}

float* Tensor::data() {
  DUET_CHECK(impl_ != nullptr);
  return impl_->value.data();
}

const float* Tensor::data() const {
  DUET_CHECK(impl_ != nullptr);
  return impl_->value.data();
}

float* Tensor::grad_data() {
  DUET_CHECK(impl_ != nullptr);
  impl_->EnsureGrad();
  return impl_->grad.data();
}

const std::vector<float>& Tensor::grad_vector() const {
  DUET_CHECK(impl_ != nullptr);
  return impl_->grad;
}

const std::vector<float>& Tensor::value_vector() const {
  DUET_CHECK(impl_ != nullptr);
  return impl_->value;
}

float Tensor::item() const {
  DUET_CHECK(impl_ != nullptr);
  DUET_CHECK_EQ(impl_->numel(), 1);
  return impl_->value[0];
}

void Tensor::ZeroGrad() {
  DUET_CHECK(impl_ != nullptr);
  std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
}

void Tensor::Backward() {
  DUET_CHECK(impl_ != nullptr);
  // Iterative post-order DFS to get a topological order of the graph.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({impl_.get(), 0});
  visited.insert(impl_.get());
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      TensorImpl* parent = top.node->parents[top.next_parent++].get();
      if (visited.insert(parent).second) stack.push_back({parent, 0});
    } else {
      order.push_back(top.node);
      stack.pop_back();
    }
  }
  // Fresh gradient buffers for the whole graph, then seed the root with 1s.
  for (TensorImpl* node : order) {
    node->grad.assign(node->value.size(), 0.0f);
  }
  std::fill(impl_->grad.begin(), impl_->grad.end(), 1.0f);
  // Reverse topological order: root last in `order`.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward) (*it)->backward();
  }
}

Tensor Tensor::Clone() const {
  DUET_CHECK(impl_ != nullptr);
  return FromVector(impl_->shape, impl_->value, false);
}

Tensor Tensor::Detach() const {
  DUET_CHECK(impl_ != nullptr);
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->value = impl_->value;
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

std::string Tensor::DebugString() const {
  if (!defined()) return "Tensor[undefined]";
  std::ostringstream os;
  os << "Tensor[";
  for (size_t i = 0; i < impl_->shape.size(); ++i) {
    if (i > 0) os << "x";
    os << impl_->shape[i];
  }
  os << "]";
  return os.str();
}

}  // namespace duet::tensor
