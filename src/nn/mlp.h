// Minimal neural-network substrate: dense layers with manual
// backpropagation, tanh activations, and an Adam optimizer. This replaces
// the paper's PyTorch dependency (see DESIGN.md): at the scale of the
// ASQP-RL policy/value networks (an input layer matching the action space
// followed by two small fully-connected layers) a hand-rolled MLP is
// faster than framework dispatch on CPU, and keeps the repository
// self-contained.
#pragma once

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace asqp {
namespace util {
class ThreadPool;
}  // namespace util

namespace nn {

// Minibatch kernels. A minibatch of n vectors of dimension d is held either
// feature-major ([d][n]: element (i, s) at i * n + s) or sample-major
// ([n][d]: at s * d + i). Every float sum runs in the order that n
// one-sample passes would take, so a minibatch produces the same bits as
// those passes:
//   - forward: y[o] starts at b[o] and adds w[o][i] * x[i] for i = 0, 1, ...;
//   - dw, db: samples add in minibatch order, and a sample whose upstream
//     gradient g is 0 (or -0) adds nothing;
//   - input gradient: dx[i] starts at 0 and adds g[o] * w[o][i] for
//     o = 0, 1, ..., with the same g == 0 skip.
// The gradient kernels add four nonzero terms per pass over a dw or dx row
// (each element loaded and stored once for all four, which it adds one
// after another) and the last 0-3 terms one at a time.
// Work splits over an optional pool by output element (a row of y or dw,
// one sample's dx), each written by one thread, so results do not depend on
// the pool's size. The build adds no -ffast-math or -march: reassociation
// or FMA contraction would change the bits.

/// \brief One dense layer y = W x + b with gradient accumulators.
struct Linear {
  size_t in = 0;
  size_t out = 0;
  std::vector<float> w;   // row-major [out][in]
  std::vector<float> b;   // [out]
  std::vector<float> dw;  // gradient accumulators
  std::vector<float> db;

  Linear(size_t in_dim, size_t out_dim, util::Rng* rng);

  /// y = W x + b for n samples; x is feature-major [in][n], y feature-major
  /// [out][n].
  void Forward(const float* x, size_t n, float* y,
               util::ThreadPool* pool) const;

  /// Accumulate dW and db from n samples' inputs x (sample-major [n][in])
  /// and upstream gradients dy (sample-major [n][out]).
  void AccumulateGrad(const float* x, const float* dy, size_t n,
                      util::ThreadPool* pool);

  /// dx = W^T dy for n samples; dy is sample-major [n][out], dx
  /// sample-major [n][in]. Parameter gradients are untouched.
  void InputGrad(const float* dy, size_t n, float* dx,
                 util::ThreadPool* pool) const;

  void ZeroGrad();
};

enum class Activation { kTanh, kRelu, kNone };

/// \brief Multi-layer perceptron with a shared hidden activation and a
/// linear output layer. Every pass takes a minibatch of n samples stored
/// sample-major (n = x.size() / input_dim()); a single sample is a batch of
/// one.
class Mlp {
 public:
  /// dims = {input, hidden..., output}.
  Mlp(const std::vector<size_t>& dims, Activation hidden_activation,
      uint64_t seed);

  size_t input_dim() const { return layers_.front().in; }
  size_t output_dim() const { return layers_.back().out; }

  /// The {input, hidden..., output} dimension list this net was built with.
  std::vector<size_t> Dims() const {
    std::vector<size_t> dims;
    dims.push_back(layers_.front().in);
    for (const Linear& l : layers_) dims.push_back(l.out);
    return dims;
  }
  Activation activation() const { return activation_; }

  /// What Backward needs from a forward pass.
  struct Cache {
    size_t n = 0;
    /// inputs[l] is layer l's input, sample-major [n][dims[l]]; inputs[0]
    /// is the minibatch itself, and each later one a post-activation.
    std::vector<std::vector<float>> inputs;
  };

  /// Forward pass over the minibatch x; returns the outputs, sample-major
  /// [n][output_dim].
  std::vector<float> Forward(const std::vector<float>& x, Cache* cache,
                             util::ThreadPool* pool = nullptr) const;

  /// Inference-only forward (no cache).
  std::vector<float> Forward(const std::vector<float>& x) const;

  /// Backprop dL/d(output) (sample-major [n][output_dim]) through the cached
  /// pass, accumulating parameter gradients. Layer 0's input gradient, which
  /// nothing reads, is not computed.
  void Backward(const Cache& cache, const std::vector<float>& dout,
                util::ThreadPool* pool = nullptr);

  /// dL/d(input), sample-major, for a cached forward pass, *without*
  /// accumulating parameter gradients (used when a downstream network's
  /// loss must flow into an upstream network, e.g. VAE decoder -> encoder).
  std::vector<float> BackwardInput(const Cache& cache,
                                   const std::vector<float>& dout) const;

  void ZeroGrad();

  /// Flat views over parameters and their gradients (for the optimizer and
  /// for copying weights to rollout workers). Blocks come in (weights,
  /// bias) pairs per layer; BlockLengths() gives each block's length.
  std::vector<float*> Parameters();
  std::vector<float*> Gradients();
  std::vector<size_t> BlockLengths() const;
  size_t num_parameters() const;

  /// Copy all weights from another identically-shaped MLP.
  void CopyWeightsFrom(const Mlp& other);

  /// True when any weight or bias is NaN/Inf (divergence detection).
  bool HasNonFiniteParameters() const;

  /// True when any accumulated gradient is NaN/Inf.
  bool HasNonFiniteGradients() const;

 private:
  std::vector<Linear> layers_;
  Activation activation_;
};

/// \brief Adam optimizer over a set of parameter blocks.
class Adam {
 public:
  struct Options {
    double lr = 3e-4;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    /// Global gradient-norm clip (0 disables).
    double max_grad_norm = 1.0;
  };

  Adam(Mlp* net, Options options);

  void set_lr(double lr) { options_.lr = lr; }
  double lr() const { return options_.lr; }

  /// Apply one update from the net's accumulated gradients, then zero them.
  /// The global-norm sum runs sequentially; the element-wise update splits
  /// over `pool` when one is given.
  void Step(util::ThreadPool* pool = nullptr);

  /// First/second-moment accumulators plus the step counter — everything
  /// beyond Options needed to resume optimization deterministically.
  struct State {
    std::vector<float> m;
    std::vector<float> v;
    int64_t t = 0;
  };
  State GetState() const { return {m_, v_, t_}; }
  /// Restore a snapshot taken from an identically-shaped optimizer.
  /// Returns false (and changes nothing) on a size mismatch.
  bool SetState(const State& state) {
    if (state.m.size() != m_.size() || state.v.size() != v_.size()) {
      return false;
    }
    m_ = state.m;
    v_ = state.v;
    t_ = state.t;
    return true;
  }

 private:
  Mlp* net_;
  Options options_;
  std::vector<float> m_;
  std::vector<float> v_;
  int64_t t_ = 0;
};

/// Masked softmax: entries with mask[i] == 0 get probability 0. If every
/// entry is masked the result is all zeros.
std::vector<float> MaskedSoftmax(const std::vector<float>& logits,
                                 const std::vector<uint8_t>& mask);

/// Entropy of a probability vector (natural log). Also returns log(p) for
/// every entry above 1e-12 (0 elsewhere), so that a caller needing both
/// computes each log once.
float EntropyAndLogs(const std::vector<float>& probs,
                     std::vector<float>* log_probs);

/// Sample an index from a probability vector.
size_t SampleCategorical(const std::vector<float>& probs, util::Rng* rng);

}  // namespace nn
}  // namespace asqp
