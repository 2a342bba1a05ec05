#include "nn/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/fault_injector.h"
#include "util/thread_pool.h"

namespace asqp {
namespace nn {

namespace {

/// Rough multiply-add equivalents of one activation (tanh) and of one
/// element of Adam's update (three divisions and a square root).
constexpr size_t kActivateWork = 64;
constexpr size_t kAdamWork = 16;

/// Samples per lane block of the forward kernel.
constexpr size_t kLanes = 16;

/// y[o][s + k] = b[o] + sum_i w[o][i] * x[i][s + k] for k < kLanes, with x
/// feature-major [in][n] and y [out][n]. Each lane is its own sum, in i
/// order; the compiler vectorizes across lanes without reordering any one
/// of them.
void DotLanes(const Linear& layer, size_t o, const float* x, size_t n,
              size_t s, float* y) {
  const float* row = &layer.w[o * layer.in];
  float acc[kLanes];
  for (size_t k = 0; k < kLanes; ++k) acc[k] = layer.b[o];
  for (size_t i = 0; i < layer.in; ++i) {
    const float w_i = row[i];
    const float* x_i = x + i * n + s;
    for (size_t k = 0; k < kLanes; ++k) acc[k] += w_i * x_i[k];
  }
  for (size_t k = 0; k < kLanes; ++k) y[o * n + s + k] = acc[k];
}

/// Nonzero terms per pass of the gradient kernels over a row of dw or dx.
constexpr size_t kTerms = 4;

/// row[i] += g[0] * v[0][i], then += g[1] * v[1][i], ... for m <= kTerms
/// terms. A full pass loads and stores each element once for all kTerms
/// terms and adds them one after another; fewer terms add one pass each.
/// Either way every element rounds after each term, as m one-term passes
/// would.
void AddTerms(float* row, size_t len, const float* g, const float* const* v,
              size_t m) {
  if (m == kTerms) {
    const float g0 = g[0], g1 = g[1], g2 = g[2], g3 = g[3];
    const float* v0 = v[0];
    const float* v1 = v[1];
    const float* v2 = v[2];
    const float* v3 = v[3];
    for (size_t i = 0; i < len; ++i) {
      float d = row[i];
      d += g0 * v0[i];
      d += g1 * v1[i];
      d += g2 * v2[i];
      d += g3 * v3[i];
      row[i] = d;
    }
    return;
  }
  for (size_t j = 0; j < m; ++j) {
    const float g_j = g[j];
    const float* v_j = v[j];
    for (size_t i = 0; i < len; ++i) row[i] += g_j * v_j[i];
  }
}

/// The same sums for one sample s and kRows rows o, o + 1, ...: for a
/// single sample the independent rows, not lanes, keep the adders busy.
template <size_t kRows>
void DotRows(const Linear& layer, size_t o, const float* x, size_t n,
             size_t s, float* y) {
  const float* rows = &layer.w[o * layer.in];
  float acc[kRows];
  for (size_t r = 0; r < kRows; ++r) acc[r] = layer.b[o + r];
  for (size_t i = 0; i < layer.in; ++i) {
    const float x_i = x[i * n + s];
    for (size_t r = 0; r < kRows; ++r) {
      acc[r] += rows[r * layer.in + i] * x_i;
    }
  }
  for (size_t r = 0; r < kRows; ++r) y[(o + r) * n + s] = acc[r];
}

}  // namespace

Linear::Linear(size_t in_dim, size_t out_dim, util::Rng* rng)
    : in(in_dim), out(out_dim) {
  w.resize(in * out);
  b.assign(out, 0.0f);
  dw.assign(in * out, 0.0f);
  db.assign(out, 0.0f);
  // Xavier/Glorot initialization.
  const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
  for (float& weight : w) {
    weight = static_cast<float>(rng->UniformDouble(-bound, bound));
  }
}

void Linear::Forward(const float* x, size_t n, float* y,
                     util::ThreadPool* pool) const {
  // Samples in blocks of kLanes; the last n % kLanes one at a time, eight
  // rows together.
  const size_t lanes_end = n - n % kLanes;
  util::ForEachRange(pool, out, n * in * out, [&](size_t begin, size_t end) {
    for (size_t o = begin; o < end; ++o) {
      for (size_t s = 0; s < lanes_end; s += kLanes) {
        DotLanes(*this, o, x, n, s, y);
      }
    }
    for (size_t s = lanes_end; s < n; ++s) {
      size_t o = begin;
      for (; o + 8 <= end; o += 8) DotRows<8>(*this, o, x, n, s, y);
      for (; o < end; ++o) DotRows<1>(*this, o, x, n, s, y);
    }
  });
}

void Linear::AccumulateGrad(const float* x, const float* dy, size_t n,
                            util::ThreadPool* pool) {
  util::ForEachRange(pool, out, n * in * out, [&](size_t begin, size_t end) {
    float g[kTerms] = {};
    const float* x_of[kTerms] = {};
    for (size_t o = begin; o < end; ++o) {
      float* drow = &dw[o * in];
      size_t m = 0;
      for (size_t s = 0; s < n; ++s) {
        const float g_s = dy[s * out + o];
        if (g_s == 0.0f) continue;
        db[o] += g_s;
        g[m] = g_s;
        x_of[m] = x + s * in;
        if (++m == kTerms) {
          AddTerms(drow, in, g, x_of, m);
          m = 0;
        }
      }
      AddTerms(drow, in, g, x_of, m);
    }
  });
}

void Linear::InputGrad(const float* dy, size_t n, float* dx,
                       util::ThreadPool* pool) const {
  util::ForEachRange(pool, n, n * in * out, [&](size_t begin, size_t end) {
    float g[kTerms] = {};
    const float* row_of[kTerms] = {};
    for (size_t s = begin; s < end; ++s) {
      float* dx_s = dx + s * in;
      std::fill(dx_s, dx_s + in, 0.0f);
      const float* dy_s = dy + s * out;
      size_t m = 0;
      for (size_t o = 0; o < out; ++o) {
        if (dy_s[o] == 0.0f) continue;
        g[m] = dy_s[o];
        row_of[m] = &w[o * in];
        if (++m == kTerms) {
          AddTerms(dx_s, in, g, row_of, m);
          m = 0;
        }
      }
      AddTerms(dx_s, in, g, row_of, m);
    }
  });
}

void Linear::ZeroGrad() {
  std::fill(dw.begin(), dw.end(), 0.0f);
  std::fill(db.begin(), db.end(), 0.0f);
}

Mlp::Mlp(const std::vector<size_t>& dims, Activation hidden_activation,
         uint64_t seed)
    : activation_(hidden_activation) {
  assert(dims.size() >= 2);
  util::Rng rng(seed);
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    layers_.emplace_back(dims[l], dims[l + 1], &rng);
  }
}

namespace {

float Activate(float v, Activation a) {
  switch (a) {
    case Activation::kTanh: return std::tanh(v);
    case Activation::kRelu: return v > 0.0f ? v : 0.0f;
    case Activation::kNone: return v;
  }
  return v;
}

/// The activation's derivative from its output alone: tanh' = 1 - y^2, and
/// relu's pre-activation is positive exactly when its output is.
float ActivateGrad(float post, Activation a) {
  switch (a) {
    case Activation::kTanh: return 1.0f - post * post;
    case Activation::kRelu: return post > 0.0f ? 1.0f : 0.0f;
    case Activation::kNone: return 1.0f;
  }
  return 1.0f;
}

/// dst ([cols][rows]) = the transpose of src ([rows][cols]).
void Transpose(const float* src, size_t rows, size_t cols, float* dst) {
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

}  // namespace

std::vector<float> Mlp::Forward(const std::vector<float>& x, Cache* cache,
                                util::ThreadPool* pool) const {
  const size_t n = x.size() / input_dim();
  assert(n * input_dim() == x.size());
  cache->n = n;
  cache->inputs.resize(layers_.size());
  cache->inputs[0] = x;
  // Between layers the minibatch is feature-major; the cache keeps each
  // layer's input sample-major for Backward.
  std::vector<float> cur(x.size());
  Transpose(x.data(), n, input_dim(), cur.data());
  std::vector<float> next;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Linear& layer = layers_[l];
    next.resize(layer.out * n);
    layer.Forward(cur.data(), n, next.data(), pool);
    std::swap(cur, next);
    if (l + 1 == layers_.size()) break;
    // Hidden layer: activate each row and write it into the cache.
    std::vector<float>& post = cache->inputs[l + 1];
    post.resize(cur.size());
    util::ForEachRange(pool, layer.out, n * layer.out * kActivateWork,
                 [&](size_t begin, size_t end) {
                   for (size_t o = begin; o < end; ++o) {
                     for (size_t s = 0; s < n; ++s) {
                       float& v = cur[o * n + s];
                       v = Activate(v, activation_);
                       post[s * layer.out + o] = v;
                     }
                   }
                 });
  }
  std::vector<float> y(cur.size());
  Transpose(cur.data(), output_dim(), n, y.data());
  return y;
}

std::vector<float> Mlp::Forward(const std::vector<float>& x) const {
  Cache cache;
  return Forward(x, &cache);
}

namespace {

/// Scale the sample-major gradient of a hidden layer's output by the
/// activation's derivative, read from that output (`post`).
void ScaleByActivationGrad(const std::vector<float>& post, Activation a,
                           std::vector<float>* grad) {
  for (size_t k = 0; k < grad->size(); ++k) {
    (*grad)[k] *= ActivateGrad(post[k], a);
  }
}

}  // namespace

void Mlp::Backward(const Cache& cache, const std::vector<float>& dout,
                   util::ThreadPool* pool) {
  const size_t n = cache.n;
  assert(dout.size() == n * output_dim());
  std::vector<float> grad = dout;
  std::vector<float> dx;
  for (size_t l = layers_.size(); l-- > 0;) {
    if (l + 1 < layers_.size()) {
      ScaleByActivationGrad(cache.inputs[l + 1], activation_, &grad);
    }
    layers_[l].AccumulateGrad(cache.inputs[l].data(), grad.data(), n, pool);
    if (l == 0) break;
    dx.resize(n * layers_[l].in);
    layers_[l].InputGrad(grad.data(), n, dx.data(), pool);
    std::swap(grad, dx);
  }
}

std::vector<float> Mlp::BackwardInput(const Cache& cache,
                                      const std::vector<float>& dout) const {
  const size_t n = cache.n;
  assert(dout.size() == n * output_dim());
  std::vector<float> grad = dout;
  std::vector<float> dx;
  for (size_t l = layers_.size(); l-- > 0;) {
    if (l + 1 < layers_.size()) {
      ScaleByActivationGrad(cache.inputs[l + 1], activation_, &grad);
    }
    dx.resize(n * layers_[l].in);
    layers_[l].InputGrad(grad.data(), n, dx.data(), /*pool=*/nullptr);
    std::swap(grad, dx);
  }
  return grad;
}

void Mlp::ZeroGrad() {
  for (Linear& l : layers_) l.ZeroGrad();
}

std::vector<float*> Mlp::Parameters() {
  std::vector<float*> out;
  for (Linear& l : layers_) {
    out.push_back(l.w.data());
    out.push_back(l.b.data());
  }
  return out;
}

std::vector<float*> Mlp::Gradients() {
  std::vector<float*> out;
  for (Linear& l : layers_) {
    out.push_back(l.dw.data());
    out.push_back(l.db.data());
  }
  return out;
}

std::vector<size_t> Mlp::BlockLengths() const {
  std::vector<size_t> out;
  for (const Linear& l : layers_) {
    out.push_back(l.w.size());
    out.push_back(l.b.size());
  }
  return out;
}

size_t Mlp::num_parameters() const {
  size_t n = 0;
  for (const Linear& l : layers_) n += l.w.size() + l.b.size();
  return n;
}

void Mlp::CopyWeightsFrom(const Mlp& other) {
  assert(layers_.size() == other.layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].w = other.layers_[l].w;
    layers_[l].b = other.layers_[l].b;
  }
}

namespace {

bool AnyNonFinite(const std::vector<float>& values) {
  for (float v : values) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

}  // namespace

bool Mlp::HasNonFiniteParameters() const {
  for (const Linear& l : layers_) {
    if (AnyNonFinite(l.w) || AnyNonFinite(l.b)) return true;
  }
  return false;
}

bool Mlp::HasNonFiniteGradients() const {
  for (const Linear& l : layers_) {
    if (AnyNonFinite(l.dw) || AnyNonFinite(l.db)) return true;
  }
  return false;
}

Adam::Adam(Mlp* net, Options options) : net_(net), options_(options) {
  const size_t n = net->num_parameters();
  m_.assign(n, 0.0f);
  v_.assign(n, 0.0f);
}

void Adam::Step(util::ThreadPool* pool) {
  ++t_;
  std::vector<float*> params = net_->Parameters();
  std::vector<float*> grads = net_->Gradients();
  const std::vector<size_t> lengths = net_->BlockLengths();

  if (ASQP_FAULT_POINT("nn.adam.nan_grad")) {
    grads[0][0] = std::numeric_limits<float>::quiet_NaN();
  }

  double norm_sq = 0.0;
  for (size_t blk = 0; blk < grads.size(); ++blk) {
    for (size_t i = 0; i < lengths[blk]; ++i) {
      norm_sq += static_cast<double>(grads[blk][i]) * grads[blk][i];
    }
  }
  float scale = 1.0f;
  if (options_.max_grad_norm > 0.0) {
    const double norm = std::sqrt(norm_sq);
    if (norm > options_.max_grad_norm) {
      scale = static_cast<float>(options_.max_grad_norm / (norm + 1e-12));
    }
  }

  const double bc1 = 1.0 - std::pow(options_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(options_.beta2, static_cast<double>(t_));
  size_t offset = 0;
  for (size_t blk = 0; blk < grads.size(); ++blk) {
    float* param = params[blk];
    float* grad = grads[blk];
    float* m_blk = &m_[offset];
    float* v_blk = &v_[offset];
    const auto update = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const float g = grad[i] * scale;
        float& m = m_blk[i];
        float& v = v_blk[i];
        m = static_cast<float>(options_.beta1 * m +
                               (1.0 - options_.beta1) * g);
        v = static_cast<float>(options_.beta2 * v +
                               (1.0 - options_.beta2) * g * g);
        const double mhat = m / bc1;
        const double vhat = v / bc2;
        param[i] -= static_cast<float>(options_.lr * mhat /
                                       (std::sqrt(vhat) + options_.eps));
        grad[i] = 0.0f;
      }
    };
    util::ForEachRange(pool, lengths[blk], lengths[blk] * kAdamWork, update);
    offset += lengths[blk];
  }
}

std::vector<float> MaskedSoftmax(const std::vector<float>& logits,
                                 const std::vector<uint8_t>& mask) {
  std::vector<float> probs(logits.size(), 0.0f);
  float max_logit = -std::numeric_limits<float>::infinity();
  for (size_t i = 0; i < logits.size(); ++i) {
    if (mask[i] && logits[i] > max_logit) max_logit = logits[i];
  }
  if (max_logit == -std::numeric_limits<float>::infinity()) return probs;
  double total = 0.0;
  for (size_t i = 0; i < logits.size(); ++i) {
    if (!mask[i]) continue;
    probs[i] = std::exp(logits[i] - max_logit);
    total += probs[i];
  }
  if (total <= 0.0) return probs;
  for (float& p : probs) p = static_cast<float>(p / total);
  return probs;
}

float EntropyAndLogs(const std::vector<float>& probs,
                     std::vector<float>* log_probs) {
  log_probs->assign(probs.size(), 0.0f);
  float h = 0.0f;
  for (size_t i = 0; i < probs.size(); ++i) {
    const float p = probs[i];
    if (p > 1e-12f) {
      (*log_probs)[i] = std::log(p);
      h -= p * (*log_probs)[i];
    }
  }
  return h;
}

size_t SampleCategorical(const std::vector<float>& probs, util::Rng* rng) {
  double u = rng->UniformDouble();
  for (size_t i = 0; i < probs.size(); ++i) {
    u -= probs[i];
    if (u <= 0.0) return i;
  }
  // Numeric slack: return the last non-zero entry.
  for (size_t i = probs.size(); i-- > 0;) {
    if (probs[i] > 0.0f) return i;
  }
  return 0;
}

}  // namespace nn
}  // namespace asqp
