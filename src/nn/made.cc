#include "nn/made.h"

#include <algorithm>

#include "common/logging.h"

namespace duet::nn {

using tensor::BlockSpec;
using tensor::Tensor;

std::vector<int32_t> MadeInputDegrees(const std::vector<int64_t>& widths) {
  std::vector<int32_t> degrees;
  for (size_t col = 0; col < widths.size(); ++col) {
    for (int64_t j = 0; j < widths[col]; ++j) degrees.push_back(static_cast<int32_t>(col) + 1);
  }
  return degrees;
}

std::vector<int32_t> MadeHiddenDegrees(int64_t size, int num_columns) {
  // Hidden degrees cycle over [1, N-1]; for N == 1 there is nothing useful a
  // hidden unit could see, so everything gets degree 1 (the output layer's
  // strict rule then disconnects it, leaving a bias-only head).
  const int32_t span = std::max(num_columns - 1, 1);
  std::vector<int32_t> degrees(static_cast<size_t>(size));
  for (int64_t k = 0; k < size; ++k) degrees[static_cast<size_t>(k)] = static_cast<int32_t>(k % span) + 1;
  return degrees;
}

std::vector<int32_t> MadeOutputDegrees(const std::vector<int64_t>& widths) {
  return MadeInputDegrees(widths);  // output block i carries degree i+1
}

Tensor BuildMadeMask(const std::vector<int32_t>& in_deg, const std::vector<int32_t>& out_deg,
                     bool strict) {
  const int64_t in_dim = static_cast<int64_t>(in_deg.size());
  const int64_t out_dim = static_cast<int64_t>(out_deg.size());
  Tensor mask = Tensor::Zeros({in_dim, out_dim});
  float* m = mask.data();
  for (int64_t j = 0; j < in_dim; ++j) {
    for (int64_t k = 0; k < out_dim; ++k) {
      const bool allowed = strict ? out_deg[static_cast<size_t>(k)] > in_deg[static_cast<size_t>(j)]
                                  : out_deg[static_cast<size_t>(k)] >= in_deg[static_cast<size_t>(j)];
      m[j * out_dim + k] = allowed ? 1.0f : 0.0f;
    }
  }
  return mask;
}

Made::Made(MadeOptions options, Rng& rng)
    : options_(std::move(options)), plan_cache_(std::make_unique<InferencePlanCache>()) {
  const auto& opt = options_;
  DUET_CHECK(!opt.input_widths.empty());
  DUET_CHECK_EQ(opt.input_widths.size(), opt.output_widths.size());
  DUET_CHECK(!opt.hidden_sizes.empty());
  const int n = static_cast<int>(opt.input_widths.size());

  for (int64_t w : opt.input_widths) {
    in_blocks_.push_back({input_dim_, w});
    input_dim_ += w;
  }
  for (int64_t w : opt.output_widths) {
    out_blocks_.push_back({output_dim_, w});
    output_dim_ += w;
  }

  const std::vector<int32_t> in_deg = MadeInputDegrees(opt.input_widths);
  const std::vector<int32_t> out_deg = MadeOutputDegrees(opt.output_widths);

  if (!opt.residual) {
    std::vector<int32_t> prev = in_deg;
    int64_t prev_dim = input_dim_;
    for (int64_t h : opt.hidden_sizes) {
      std::vector<int32_t> cur = MadeHiddenDegrees(h, n);
      // Hidden layers use the >= rule. Inputs carry degrees 1..N while
      // hidden units span 1..N-1, so the last column's input block feeds
      // nothing — correct, since no output may depend on column N-1.
      layers_.emplace_back(prev_dim, h, BuildMadeMask(prev, cur, /*strict=*/false), rng);
      prev = std::move(cur);
      prev_dim = h;
    }
    layers_.emplace_back(prev_dim, output_dim_, BuildMadeMask(prev, out_deg, /*strict=*/true),
                         rng);
    for (auto& l : layers_) RegisterChild(l);
  } else {
    for (size_t i = 1; i < opt.hidden_sizes.size(); ++i) {
      DUET_CHECK_EQ(opt.hidden_sizes[i], opt.hidden_sizes[0])
          << "ResMADE requires uniform hidden sizes";
    }
    const int64_t h = opt.hidden_sizes[0];
    const std::vector<int32_t> hid = MadeHiddenDegrees(h, n);
    res_input_ = std::make_unique<MaskedLinear>(input_dim_, h,
                                                BuildMadeMask(in_deg, hid, /*strict=*/false), rng);
    const Tensor hh_mask = BuildMadeMask(hid, hid, /*strict=*/false);
    for (size_t blk = 0; blk < opt.hidden_sizes.size(); ++blk) {
      res_layers_.emplace_back(h, h, hh_mask, rng);
      res_layers_.emplace_back(h, h, hh_mask, rng);
    }
    res_output_ = std::make_unique<MaskedLinear>(h, output_dim_,
                                                 BuildMadeMask(hid, out_deg, /*strict=*/true), rng);
    RegisterChild(*res_input_);
    for (auto& l : res_layers_) RegisterChild(l);
    RegisterChild(*res_output_);
  }
}

void Made::SetInferenceBackend(tensor::WeightBackend backend) const {
  plan_cache_->requested.store(backend, std::memory_order_release);
}

uint64_t Made::PlanBytes() const {
  std::lock_guard<std::mutex> lock(plan_cache_->mu);
  return plan_cache_->plan ? plan_cache_->plan->bytes() : 0;
}

PlanTelemetry Made::PlanInfo() const { return plan_cache_->Snapshot(); }

std::shared_ptr<const InferencePlan> Made::Compile(tensor::WeightBackend backend) const {
  // Every masked layer gets the degree-sorted output permutation: the
  // derived column sort turns each mask row into a single contiguous run in
  // packed space (CSR degenerates to one (start,len) per row; dense/int8/
  // f16 skip the structural-zero tail), and the fused gathering epilogue
  // keeps activations in the original layout — so the program below mirrors
  // the tracked layer walk in Forward() op for op and dense/CSR plans stay
  // bitwise-equal to it.
  PlanBuilder b(backend, input_dim_);
  if (!options_.residual) {
    int h = PlanBuilder::kInput;
    for (size_t i = 0; i < layers_.size(); ++i) {
      const bool last = i + 1 == layers_.size();
      h = b.Linear(h, layers_[i].EffectiveWeightCopy(), layers_[i].bias(),
                   last ? tensor::Activation::kNone : tensor::Activation::kRelu,
                   /*permute_outputs=*/true, /*weight_is_parameter=*/false);
    }
    return b.Finish(h);
  }
  int h = b.Linear(PlanBuilder::kInput, res_input_->EffectiveWeightCopy(),
                   res_input_->bias(), tensor::Activation::kNone,
                   /*permute_outputs=*/true, /*weight_is_parameter=*/false);
  for (size_t blk = 0; blk + 1 < res_layers_.size(); blk += 2) {
    int t = b.Relu(h);
    t = b.Linear(t, res_layers_[blk].EffectiveWeightCopy(), res_layers_[blk].bias(),
                 tensor::Activation::kRelu, /*permute_outputs=*/true,
                 /*weight_is_parameter=*/false);
    t = b.Linear(t, res_layers_[blk + 1].EffectiveWeightCopy(), res_layers_[blk + 1].bias(),
                 tensor::Activation::kNone, /*permute_outputs=*/true,
                 /*weight_is_parameter=*/false);
    h = b.Add(h, t);
  }
  const int pre = b.Relu(h);
  return b.Finish(b.Linear(pre, res_output_->EffectiveWeightCopy(), res_output_->bias(),
                           tensor::Activation::kNone, /*permute_outputs=*/true,
                           /*weight_is_parameter=*/false));
}

std::shared_ptr<const InferencePlan> Made::Plan() const {
  return GetOrCompilePlan(*plan_cache_,
                          [this](tensor::WeightBackend backend) { return Compile(backend); });
}

Tensor Made::Forward(const Tensor& x) const {
  DUET_CHECK_EQ(x.ndim(), 2);
  DUET_CHECK_EQ(x.dim(1), input_dim_);
  if (!tensor::NoGradGuard::GradEnabled()) return Plan()->Execute(x);
  if (!options_.residual) {
    Tensor h = x;
    for (size_t i = 0; i < layers_.size(); ++i) {
      const bool last = i + 1 == layers_.size();
      h = layers_[i].Forward(h, last ? tensor::Activation::kNone : tensor::Activation::kRelu);
    }
    return h;
  }
  // Pre-activation residual blocks: h itself feeds the skip connection, so
  // only the inner ReLU (whose input is consumed exactly once) is fused.
  Tensor h = res_input_->Forward(x);
  for (size_t blk = 0; blk + 1 < res_layers_.size(); blk += 2) {
    Tensor y = res_layers_[blk].Forward(tensor::Relu(h), tensor::Activation::kRelu);
    y = res_layers_[blk + 1].Forward(y);
    h = tensor::Add(h, y);
  }
  return res_output_->Forward(tensor::Relu(h));
}

}  // namespace duet::nn
