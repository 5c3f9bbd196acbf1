// Optimizers over the Param blocks of a Sequential model.
//
// The contract: gradients are accumulated into Param::grad (the batched
// trainer reduces its per-slice GradientBuffers there in fixed order
// first; tests may drive the per-sample reference backward instead), then
// step() applies one update and clears the gradients. The optimizer
// itself is oblivious to batching and thread count — determinism is
// settled before it runs.
#pragma once

#include <cmath>
#include <vector>

#include "nn/layer.hpp"

namespace dl2f::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Param*> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  /// Apply one update from the accumulated gradients, then clear them.
  virtual void step() = 0;

  void zero_grad() {
    for (auto* p : params_) p->zero_grad();
  }

 protected:
  std::vector<Param*> params_;
};

/// Plain SGD with optional momentum.
class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<Param*> params, float lr, float momentum = 0.0F);
  void step() override;

 private:
  float lr_;
  float momentum_;
  std::vector<std::vector<float>> velocity_;
};

/// Adam (Kingma & Ba) — the default trainer for both CNNs; the tiny models
/// converge in a few dozen epochs without tuning.
class Adam final : public Optimizer {
 public:
  Adam(std::vector<Param*> params, float lr, float beta1 = 0.9F, float beta2 = 0.999F,
       float eps = 1e-8F);
  void step() override;

 private:
  float lr_, beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace dl2f::nn
