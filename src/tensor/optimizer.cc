#include "tensor/optimizer.h"

#include <cmath>

#include "common/logging.h"

namespace duet::tensor {

void Optimizer::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2, float eps,
           float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(static_cast<size_t>(params_[i].numel()), 0.0f);
    v_[i].assign(static_cast<size_t>(params_[i].numel()), 0.0f);
  }
}

void Adam::Step() {
  // Bumps ParameterVersion() on scope exit — i.e. after the weights moved —
  // so a concurrent cache rebuild can never stamp half-updated weights with
  // the new version (served models are never stepped in place: online
  // updates step a clone and publish it as a new artifact).
  ParameterMutationGuard mutation;
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (p.grad_vector().empty()) continue;  // never touched by backward
    float* w = p.data();
    const float* g = p.grad_vector().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const int64_t n = p.numel();
    for (int64_t j = 0; j < n; ++j) {
      float gj = g[j] + weight_decay_ * w[j];
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * gj;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * gj * gj;
      const float mh = m[j] / bc1;
      const float vh = v[j] / bc2;
      w[j] -= lr_ * mh / (std::sqrt(vh) + eps_);
    }
  }
}

Sgd::Sgd(std::vector<Tensor> params, float lr, float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  velocity_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    velocity_[i].assign(static_cast<size_t>(params_[i].numel()), 0.0f);
  }
}

void Sgd::Step() {
  ParameterMutationGuard mutation;  // bumps ParameterVersion() on scope exit
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (p.grad_vector().empty()) continue;
    float* w = p.data();
    const float* g = p.grad_vector().data();
    float* vel = velocity_[i].data();
    const int64_t n = p.numel();
    for (int64_t j = 0; j < n; ++j) {
      vel[j] = momentum_ * vel[j] + g[j];
      w[j] -= lr_ * vel[j];
    }
  }
}

}  // namespace duet::tensor
