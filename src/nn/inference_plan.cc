#include "nn/inference_plan.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "serve/fault_injector.h"

namespace duet::nn {

using tensor::Tensor;

namespace {

/// Elementwise work threshold: these ops are memory-bound, so only large
/// batches benefit from the pool (numerics are element-independent either
/// way).
inline bool ElementwiseParallel(int64_t n) { return n > (1 << 16); }

}  // namespace

std::shared_ptr<const InferencePlan> InferencePlan::FromParts(
    std::vector<PackedOp> ops, int num_slabs, int64_t slab_width, int64_t input_dim,
    int64_t output_dim, tensor::WeightBackend backend) {
  DUET_CHECK(!ops.empty());
  DUET_CHECK_GE(num_slabs, 0);
  DUET_CHECK_GT(input_dim, 0);
  DUET_CHECK_GT(output_dim, 0);
  for (const PackedOp& op : ops) {
    DUET_CHECK(op.src >= kOutputSlab && op.src < num_slabs);
    DUET_CHECK(op.dst >= kOutputSlab && op.dst < num_slabs);
    DUET_CHECK_LE(op.in, op.src == kInputSlab ? input_dim : slab_width);
    if (op.kind == PackedOp::Kind::kLinear) DUET_CHECK(op.weights != nullptr);
    if (op.kind == PackedOp::Kind::kAdd) {
      DUET_CHECK(op.src2 >= kOutputSlab && op.src2 < num_slabs);
    }
  }
  auto plan = std::make_shared<InferencePlan>();
  plan->ops_ = std::move(ops);
  plan->num_slabs_ = num_slabs;
  plan->slab_width_ = slab_width;
  plan->input_dim_ = input_dim;
  plan->output_dim_ = output_dim;
  plan->backend_ = backend;
  return plan;
}

uint64_t InferencePlan::bytes() const {
  uint64_t total = 0;
  for (const PackedOp& op : ops_) {
    if (op.weights && !op.weights_shared) total += op.weights->bytes();
  }
  return total;
}

Tensor InferencePlan::Execute(const Tensor& x) const {
  DUET_CHECK(!tensor::NoGradGuard::GradEnabled())
      << "InferencePlan::Execute is inference-only (no autograd graph)";
  DUET_CHECK_EQ(x.ndim(), 2);
  DUET_CHECK_EQ(x.dim(1), input_dim_);
  const int64_t batch = x.dim(0);
  Tensor out = Tensor::Zeros({batch, output_dim_});
  ExecuteInto(x.data(), batch, out.data());
  return out;
}

namespace {

/// Per-thread scratch slabs for one forward of `batch` rows: a forward runs
/// entirely inside these, so the steady state performs zero allocations and
/// concurrent executions (the serving engine's sharded workers) never share
/// state.
float* ScratchSlabs(int num_slabs, int64_t batch, int64_t slab_width) {
  // Fault point: like InferenceArena::Acquire, this is where a real
  // allocation failure would surface inside a forward; serving must degrade
  // the affected shard, not crash.
  serve::FaultInjector::MaybeThrow(serve::FaultPoint::kAllocation,
                                   "injected scratch allocation failure");
  thread_local std::vector<float> slabs;
  const size_t need = static_cast<size_t>(num_slabs) * static_cast<size_t>(batch) *
                      static_cast<size_t>(slab_width);
  if (slabs.size() < need) slabs.resize(need);
  return slabs.data();
}

/// Runs one op over `batch` rows of src (and src2) into dst.
void RunOp(const PackedOp& op, const float* src, const float* src2, float* dst,
           int64_t batch) {
  switch (op.kind) {
    case PackedOp::Kind::kLinear:
      tensor::PackedLinearForward(*op.weights, src, batch, op.bias.data(), op.act, dst);
      break;
    case PackedOp::Kind::kRelu: {
      const int64_t n = batch * op.out;
      ParallelForChunked(
          0, n,
          [&](int64_t lo, int64_t hi) {
#pragma omp simd
            for (int64_t i = lo; i < hi; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
          },
          ElementwiseParallel(n), /*grain=*/4096);
      break;
    }
    case PackedOp::Kind::kAdd: {
      const int64_t n = batch * op.out;
      ParallelForChunked(
          0, n,
          [&](int64_t lo, int64_t hi) {
#pragma omp simd
            for (int64_t i = lo; i < hi; ++i) dst[i] = src[i] + src2[i];
          },
          ElementwiseParallel(n), /*grain=*/4096);
      break;
    }
  }
}

/// Same work threshold as the packed GEMM: a sparse linear op goes to the
/// pool only when its multiply-adds would.
inline bool SparseParallel(int64_t terms, int64_t width) { return terms * width > (1 << 18); }

}  // namespace

void InferencePlan::ExecuteInto(const float* x, int64_t batch, float* out) const {
  float* slabs = ScratchSlabs(num_slabs_, batch, slab_width_);
  const int64_t slab_stride = batch * slab_width_;
  auto buffer = [&](int id) -> float* {
    if (id == kInputSlab) return const_cast<float*>(x);
    if (id == kOutputSlab) return out;
    return slabs + static_cast<size_t>(id) * slab_stride;
  };
  for (const PackedOp& op : ops_) {
    RunOp(op, buffer(op.src), op.src2 == -1 ? nullptr : buffer(op.src2), buffer(op.dst), batch);
  }
}

bool InferencePlan::sparse_executable() const {
  if (ops_.size() < 2) return false;
  const PackedOp& first = ops_.front();
  const PackedOp& last = ops_.back();
  if (first.kind != PackedOp::Kind::kLinear || first.src != kInputSlab || first.dst < 0 ||
      first.in != input_dim_) {
    return false;
  }
  if (last.kind != PackedOp::Kind::kLinear || last.dst != kOutputSlab || last.src < 0 ||
      last.out != output_dim_) {
    return false;
  }
  for (size_t i = 1; i + 1 < ops_.size(); ++i) {
    const PackedOp& op = ops_[i];
    if (op.src < 0 || op.dst < 0 || (op.kind == PackedOp::Kind::kAdd && op.src2 < 0)) {
      return false;
    }
  }
  return true;
}

void InferencePlan::ExecuteSparse(const SparseBatch& rows, float* out) const {
  DUET_CHECK(!tensor::NoGradGuard::GradEnabled())
      << "InferencePlan::ExecuteSparse is inference-only (no autograd graph)";
  DUET_CHECK(sparse_executable()) << "plan has no predicate-sparse form";
  const int64_t batch = rows.rows();
  if (batch == 0) return;
  float* slabs = ScratchSlabs(num_slabs_, batch, slab_width_);
  const int64_t slab_stride = batch * slab_width_;
  auto slab = [&](int id) { return slabs + static_cast<size_t>(id) * slab_stride; };

  const PackedOp& first = ops_.front();
  float* h = slab(first.dst);
  ParallelForChunked(
      0, batch,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const int64_t e0 = rows.entry_begin[static_cast<size_t>(r)];
          const int64_t e1 = rows.entry_begin[static_cast<size_t>(r) + 1];
          tensor::PackedLinearEntries(*first.weights, rows.entry_k.data() + e0,
                                      rows.entry_v.data() + e0, e1 - e0, first.bias.data(),
                                      first.act, h + r * first.out);
        }
      },
      SparseParallel(static_cast<int64_t>(rows.entry_k.size()), first.out), /*grain=*/8);

  for (size_t i = 1; i + 1 < ops_.size(); ++i) {
    const PackedOp& op = ops_[i];
    RunOp(op, slab(op.src), op.src2 == -1 ? nullptr : slab(op.src2), slab(op.dst), batch);
  }

  const PackedOp& last = ops_.back();
  const float* src = slab(last.src);
  ParallelForChunked(
      0, batch,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const size_t ri = static_cast<size_t>(r);
          const int64_t s0 = rows.span_begin[ri];
          tensor::PackedLinearSpans(*last.weights, src + r * last.in, rows.spans.data() + s0,
                                    rows.span_begin[ri + 1] - s0, last.bias.data(), last.act,
                                    out + rows.out_begin[ri]);
        }
      },
      SparseParallel(rows.output_size(), last.in), /*grain=*/8);
}

PlanBuilder::PlanBuilder(tensor::WeightBackend backend, int64_t input_dim)
    : backend_(backend), input_dim_(input_dim) {
  DUET_CHECK_GT(input_dim, 0);
}

int64_t PlanBuilder::WidthOf(int value) const {
  if (value == kInput) return input_dim_;
  DUET_CHECK_GE(value, 0);
  DUET_CHECK_LT(static_cast<size_t>(value), value_width_.size());
  return value_width_[static_cast<size_t>(value)];
}

int PlanBuilder::Linear(int src, const Tensor& effective_weight, const Tensor& bias,
                        tensor::Activation act, bool permute_outputs,
                        bool weight_is_parameter) {
  DUET_CHECK_EQ(effective_weight.ndim(), 2);
  DUET_CHECK_EQ(effective_weight.dim(0), WidthOf(src));
  DUET_CHECK_EQ(bias.ndim(), 1);
  DUET_CHECK_EQ(bias.dim(0), effective_weight.dim(1));

  PackedOp op;
  op.kind = PackedOp::Kind::kLinear;
  op.src = src;
  op.in = effective_weight.dim(0);
  op.out = effective_weight.dim(1);
  op.bias = bias;  // shared handle; the epilogue indexes original columns
  op.act = act;
  std::vector<int32_t> perm;
  if (permute_outputs) perm = tensor::DegreeSortPermutation(effective_weight);
  op.weights = tensor::PackWeights(effective_weight, backend_, perm.empty() ? nullptr : &perm);
  op.weights_shared = weight_is_parameter && !op.weights->permuted() &&
                      backend_ == tensor::WeightBackend::kDenseF32;

  op.dst = static_cast<int>(value_width_.size());
  value_width_.push_back(op.out);
  ops_.push_back(std::move(op));
  return ops_.back().dst;
}

int PlanBuilder::Relu(int src) {
  PackedOp op;
  op.kind = PackedOp::Kind::kRelu;
  op.src = src;
  op.in = op.out = WidthOf(src);
  op.dst = static_cast<int>(value_width_.size());
  value_width_.push_back(op.out);
  ops_.push_back(std::move(op));
  return ops_.back().dst;
}

int PlanBuilder::Add(int a, int b) {
  DUET_CHECK_EQ(WidthOf(a), WidthOf(b));
  PackedOp op;
  op.kind = PackedOp::Kind::kAdd;
  op.src = a;
  op.src2 = b;
  op.in = op.out = WidthOf(a);
  op.dst = static_cast<int>(value_width_.size());
  value_width_.push_back(op.out);
  ops_.push_back(std::move(op));
  return ops_.back().dst;
}

std::shared_ptr<const InferencePlan> PlanBuilder::Finish(int output) {
  // Fault point: every compilation — the lazy plan-cache path and the
  // artifact writer a registry publish runs — ends here, so an injected
  // failure surfaces exactly where a real one would.
  serve::FaultInjector::MaybeThrow(serve::FaultPoint::kPlanCompile,
                                   "injected plan-compile failure");
  DUET_CHECK(!ops_.empty());
  DUET_CHECK_EQ(output, ops_.back().dst) << "output must be the last appended value";

  // Last use of each value id (ops are in execution order).
  std::vector<int> last_use(value_width_.size(), -1);
  auto note = [&](int value, int op_index) {
    if (value >= 0) last_use[static_cast<size_t>(value)] = op_index;
  };
  for (size_t i = 0; i < ops_.size(); ++i) {
    note(ops_[i].src, static_cast<int>(i));
    note(ops_[i].src2, static_cast<int>(i));
  }

  // Greedy slab assignment with reuse at last use. Elementwise ops (Relu,
  // Add) may write in place over an input that dies here; Linear reads its
  // whole input per output element, so its dst must not alias a live input —
  // inputs are released only after its allocation.
  auto plan = std::make_shared<InferencePlan>();
  std::vector<int> value_slab(value_width_.size(), -1);
  std::vector<bool> slab_free;
  auto acquire = [&]() -> int {
    for (size_t s = 0; s < slab_free.size(); ++s) {
      if (slab_free[s]) {
        slab_free[s] = false;
        return static_cast<int>(s);
      }
    }
    slab_free.push_back(false);
    return static_cast<int>(slab_free.size()) - 1;
  };
  auto release = [&](int value, int op_index) {
    if (value >= 0 && last_use[static_cast<size_t>(value)] == op_index &&
        value_slab[static_cast<size_t>(value)] >= 0) {
      slab_free[static_cast<size_t>(value_slab[static_cast<size_t>(value)])] = true;
    }
  };
  auto slab_of = [&](int value) -> int {
    if (value == kInput) return InferencePlan::kInputSlab;
    return value_slab[static_cast<size_t>(value)];
  };

  for (size_t i = 0; i < ops_.size(); ++i) {
    PackedOp& op = ops_[i];
    const int src_slab = slab_of(op.src);
    const int src2_slab = op.src2 >= 0 ? slab_of(op.src2) : -1;
    const bool alias_safe = op.kind != PackedOp::Kind::kLinear;
    const int oi = static_cast<int>(i);
    if (alias_safe) {
      release(op.src, oi);
      release(op.src2, oi);
    }
    if (op.dst == output) {
      value_slab[static_cast<size_t>(op.dst)] = InferencePlan::kOutputSlab;
    } else {
      value_slab[static_cast<size_t>(op.dst)] = acquire();
    }
    if (!alias_safe) {
      release(op.src, oi);
      release(op.src2, oi);
    }
    const int dst_slab = value_slab[static_cast<size_t>(op.dst)];
    op.src = src_slab;
    op.src2 = src2_slab;
    op.dst = dst_slab;
  }

  plan->ops_ = std::move(ops_);
  plan->num_slabs_ = static_cast<int>(slab_free.size());
  plan->slab_width_ = 0;
  for (size_t v = 0; v < value_width_.size(); ++v) {
    if (value_slab[v] >= 0) plan->slab_width_ = std::max(plan->slab_width_, value_width_[v]);
  }
  plan->input_dim_ = input_dim_;
  plan->output_dim_ = value_width_[static_cast<size_t>(output)];
  plan->backend_ = backend_;
  return plan;
}

std::shared_ptr<const InferencePlan> GetOrCompilePlan(
    InferencePlanCache& cache,
    const std::function<std::shared_ptr<const InferencePlan>(tensor::WeightBackend)>&
        compile) {
  const tensor::WeightBackend backend = cache.requested.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(cache.mu);
  const uint64_t version = tensor::ParameterVersion();
  if (cache.plan && cache.version == version && cache.plan->backend() == backend) {
    cache.hits.fetch_add(1, std::memory_order_relaxed);
    return cache.plan;
  }
  Timer timer;
  // A throw from `compile` (PlanBuilder::Finish's fault point) leaves the
  // cache holding its previous plan — the swap below never runs.
  std::shared_ptr<const InferencePlan> plan = compile(backend);
  DUET_CHECK(plan != nullptr);
  // Atomic publication: the shared_ptr swap under `mu` means a concurrent
  // forward holds either the previous immutable plan or this one — a
  // backend switch or parameter bump can never hand out a torn view.
  cache.plan = plan;
  cache.version = version;
  cache.compiles.fetch_add(1, std::memory_order_relaxed);
  cache.compile_micros.fetch_add(static_cast<uint64_t>(timer.Micros()),
                                 std::memory_order_relaxed);
  return plan;
}

}  // namespace duet::nn
