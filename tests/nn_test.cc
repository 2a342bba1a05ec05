#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>

#include "nn/mlp.h"
#include "tests/testing.h"
#include "util/thread_pool.h"

namespace asqp {
namespace nn {
namespace {

TEST(LinearTest, ForwardComputesAffine) {
  util::Rng rng(1);
  Linear layer(2, 2, &rng);
  layer.w = {1.0f, 2.0f,   // row 0
             3.0f, 4.0f};  // row 1
  layer.b = {0.5f, -0.5f};
  const std::vector<float> x = {1.0f, 1.0f};
  std::vector<float> y(2);
  layer.Forward(x.data(), /*n=*/1, y.data(), /*pool=*/nullptr);
  EXPECT_FLOAT_EQ(y[0], 3.5f);
  EXPECT_FLOAT_EQ(y[1], 6.5f);
}

TEST(LinearTest, BackwardAccumulatesGradients) {
  util::Rng rng(1);
  Linear layer(2, 1, &rng);
  layer.w = {2.0f, -1.0f};
  layer.b = {0.0f};
  const std::vector<float> x = {3.0f, 4.0f};
  const std::vector<float> dy = {1.0f};
  std::vector<float> dx(2);
  layer.AccumulateGrad(x.data(), dy.data(), /*n=*/1, /*pool=*/nullptr);
  layer.InputGrad(dy.data(), /*n=*/1, dx.data(), /*pool=*/nullptr);
  EXPECT_FLOAT_EQ(layer.dw[0], 3.0f);
  EXPECT_FLOAT_EQ(layer.dw[1], 4.0f);
  EXPECT_FLOAT_EQ(layer.db[0], 1.0f);
  EXPECT_FLOAT_EQ(dx[0], 2.0f);
  EXPECT_FLOAT_EQ(dx[1], -1.0f);
}

/// Finite-difference gradient check of the full MLP backward pass against
/// the scalar loss L = sum(output).
TEST(MlpTest, GradientCheck) {
  Mlp net({3, 5, 2}, Activation::kTanh, 7);
  const std::vector<float> x = {0.3f, -0.7f, 1.1f};

  // Analytic gradients.
  Mlp::Cache cache;
  const std::vector<float> out = net.Forward(x, &cache);
  net.ZeroGrad();
  net.Backward(cache, std::vector<float>(out.size(), 1.0f));

  auto loss = [&](Mlp& n) {
    const std::vector<float> y = n.Forward(x);
    float total = 0.0f;
    for (float v : y) total += v;
    return total;
  };

  const std::vector<float*> params = net.Parameters();
  const std::vector<float*> grads = net.Gradients();
  const std::vector<size_t> lengths = net.BlockLengths();
  const float eps = 1e-3f;
  size_t checked = 0;
  for (size_t blk = 0; blk < params.size(); ++blk) {
    for (size_t i = 0; i < lengths[blk]; i += 7) {  // spot-check every 7th
      const float orig = params[blk][i];
      params[blk][i] = orig + eps;
      const float hi = loss(net);
      params[blk][i] = orig - eps;
      const float lo = loss(net);
      params[blk][i] = orig;
      const float numeric = (hi - lo) / (2.0f * eps);
      EXPECT_NEAR(grads[blk][i], numeric, 5e-2f)
          << "block " << blk << " index " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 5u);
}

TEST(MlpTest, CopyWeightsProducesIdenticalOutputs) {
  Mlp a({4, 8, 3}, Activation::kTanh, 1);
  Mlp b({4, 8, 3}, Activation::kTanh, 2);
  const std::vector<float> x = {1.0f, 2.0f, -1.0f, 0.5f};
  EXPECT_NE(a.Forward(x), b.Forward(x));
  b.CopyWeightsFrom(a);
  EXPECT_EQ(a.Forward(x), b.Forward(x));
}

TEST(MlpTest, NumParametersMatchesShape) {
  Mlp net({3, 5, 2}, Activation::kTanh, 3);
  // (3*5 + 5) + (5*2 + 2) = 20 + 12
  EXPECT_EQ(net.num_parameters(), 32u);
}

TEST(AdamTest, FitsLinearRegression) {
  // y = 2x - 1 from noisy samples; a 1-layer net must drive MSE near 0.
  Mlp net({1, 1}, Activation::kNone, 5);
  Adam::Options opts;
  opts.lr = 0.05;
  Adam adam(&net, opts);
  util::Rng rng(11);
  double final_loss = 1e9;
  for (int step = 0; step < 500; ++step) {
    net.ZeroGrad();
    double loss = 0.0;
    for (int s = 0; s < 8; ++s) {
      const float x = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
      const float target = 2.0f * x - 1.0f;
      Mlp::Cache cache;
      const float y = net.Forward({x}, &cache)[0];
      const float err = y - target;
      loss += 0.5 * err * err;
      net.Backward(cache, {err / 8.0f});
    }
    adam.Step();
    final_loss = loss / 8.0;
  }
  EXPECT_LT(final_loss, 1e-3);
}

TEST(MaskedSoftmaxTest, RespectsMask) {
  const std::vector<float> logits = {1.0f, 100.0f, 2.0f};
  const std::vector<uint8_t> mask = {1, 0, 1};
  const std::vector<float> probs = MaskedSoftmax(logits, mask);
  EXPECT_FLOAT_EQ(probs[1], 0.0f);
  EXPECT_NEAR(probs[0] + probs[2], 1.0f, 1e-6f);
  EXPECT_GT(probs[2], probs[0]);
}

TEST(MaskedSoftmaxTest, AllMaskedIsZeros) {
  const std::vector<float> probs = MaskedSoftmax({1.0f, 2.0f}, {0, 0});
  EXPECT_FLOAT_EQ(probs[0], 0.0f);
  EXPECT_FLOAT_EQ(probs[1], 0.0f);
}

TEST(MaskedSoftmaxTest, NumericallyStableForLargeLogits) {
  const std::vector<float> probs =
      MaskedSoftmax({1000.0f, 1000.0f}, {1, 1});
  EXPECT_NEAR(probs[0], 0.5f, 1e-6f);
  EXPECT_FALSE(std::isnan(probs[0]));
}

TEST(EntropyTest, UniformIsMaximal) {
  std::vector<float> log_probs;
  const float uniform =
      EntropyAndLogs({0.25f, 0.25f, 0.25f, 0.25f}, &log_probs);
  const float peaked = EntropyAndLogs({0.97f, 0.01f, 0.01f, 0.01f}, &log_probs);
  EXPECT_NEAR(uniform, std::log(4.0f), 1e-5f);
  EXPECT_LT(peaked, uniform);
  EXPECT_FLOAT_EQ(EntropyAndLogs({1.0f, 0.0f}, &log_probs), 0.0f);
  // log(p) for entries above 1e-12, 0 for the rest.
  EXPECT_FLOAT_EQ(log_probs[0], 0.0f);
  EXPECT_FLOAT_EQ(log_probs[1], 0.0f);
  EntropyAndLogs({0.5f, 0.5f}, &log_probs);
  EXPECT_FLOAT_EQ(log_probs[0], std::log(0.5f));
}

TEST(SampleCategoricalTest, MatchesDistribution) {
  util::Rng rng(13);
  const std::vector<float> probs = {0.1f, 0.7f, 0.2f};
  std::vector<int> counts(3, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[SampleCategorical(probs, &rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.7, 0.02);
}

TEST(SampleCategoricalTest, ZeroProbabilityNeverSampled) {
  util::Rng rng(17);
  const std::vector<float> probs = {0.0f, 1.0f, 0.0f};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(SampleCategorical(probs, &rng), 1u);
  }
}

// ---------------------------------------------------------------------------
// Kernel oracle: the minibatch kernels against the one-sample loops they
// replaced, bit for bit, on every pool size.

/// The one-sample dense layer the minibatch kernels replaced, its loops
/// kept verbatim as the reference.
struct ReferenceLinear {
  size_t in = 0;
  size_t out = 0;
  std::vector<float> w;
  std::vector<float> b;
  std::vector<float> dw;
  std::vector<float> db;

  ReferenceLinear(size_t in_dim, size_t out_dim, const float* weights,
                  const float* bias)
      : in(in_dim),
        out(out_dim),
        w(weights, weights + in_dim * out_dim),
        b(bias, bias + out_dim),
        dw(in_dim * out_dim, 0.0f),
        db(out_dim, 0.0f) {}

  void Forward(const std::vector<float>& x, std::vector<float>* y) const {
    y->assign(out, 0.0f);
    for (size_t o = 0; o < out; ++o) {
      const float* row = &w[o * in];
      float sum = b[o];
      for (size_t i = 0; i < in; ++i) sum += row[i] * x[i];
      (*y)[o] = sum;
    }
  }

  void Backward(const std::vector<float>& x, const std::vector<float>& dy,
                std::vector<float>* dx) {
    dx->assign(in, 0.0f);
    for (size_t o = 0; o < out; ++o) {
      const float g = dy[o];
      if (g == 0.0f) continue;
      float* drow = &dw[o * in];
      const float* row = &w[o * in];
      db[o] += g;
      for (size_t i = 0; i < in; ++i) {
        drow[i] += g * x[i];
        (*dx)[i] += g * row[i];
      }
    }
  }
};

/// The one-sample MLP passes over ReferenceLinear layers, including relu's
/// derivative read from the pre-activation.
struct ReferenceMlp {
  std::vector<ReferenceLinear> layers;
  Activation activation;

  struct Cache {
    std::vector<std::vector<float>> pre;
    std::vector<std::vector<float>> post;
  };

  /// Reference layers holding `net`'s weights, with zeroed gradients.
  explicit ReferenceMlp(Mlp& net) : activation(net.activation()) {
    const std::vector<size_t> dims = net.Dims();
    const std::vector<float*> params = net.Parameters();
    for (size_t l = 0; l + 1 < dims.size(); ++l) {
      layers.emplace_back(dims[l], dims[l + 1], params[2 * l],
                          params[2 * l + 1]);
    }
  }

  float Activate(float v) const {
    return activation == Activation::kTanh ? std::tanh(v)
                                           : (v > 0.0f ? v : 0.0f);
  }

  float ActivateGrad(float pre, float post) const {
    return activation == Activation::kTanh ? 1.0f - post * post
                                           : (pre > 0.0f ? 1.0f : 0.0f);
  }

  std::vector<float> Forward(const std::vector<float>& x, Cache* cache) const {
    cache->pre.resize(layers.size());
    cache->post.resize(layers.size() + 1);
    cache->post[0] = x;
    std::vector<float> cur = x;
    for (size_t l = 0; l < layers.size(); ++l) {
      layers[l].Forward(cur, &cache->pre[l]);
      cur = cache->pre[l];
      if (l + 1 < layers.size()) {
        for (float& v : cur) v = Activate(v);
      }
      cache->post[l + 1] = cur;
    }
    return cur;
  }

  /// Accumulates every layer's gradients; returns dL/d(input).
  std::vector<float> Backward(const Cache& cache,
                              const std::vector<float>& dout) {
    std::vector<float> grad = dout;
    for (size_t l = layers.size(); l-- > 0;) {
      if (l + 1 < layers.size()) {
        for (size_t i = 0; i < grad.size(); ++i) {
          grad[i] *= ActivateGrad(cache.pre[l][i], cache.post[l + 1][i]);
        }
      }
      std::vector<float> dx;
      layers[l].Backward(cache.post[l], grad, &dx);
      grad = std::move(dx);
    }
    return grad;
  }
};

std::vector<float> RandomVector(size_t count, util::Rng* rng) {
  std::vector<float> v(count);
  for (float& x : v) x = static_cast<float>(rng->UniformDouble(-1.0, 1.0));
  return v;
}

/// Upstream gradients as masked logits produce them: exact 0.0 and -0.0
/// entries among nonzero ones.
std::vector<float> MaskedGradients(size_t count, util::Rng* rng) {
  std::vector<float> g(count);
  for (float& v : g) {
    const double u = rng->UniformDouble();
    v = u < 0.3   ? 0.0f
        : u < 0.5 ? -0.0f
                  : static_cast<float>(rng->UniformDouble(-1.0, 1.0));
  }
  return g;
}

std::vector<float> Slice(const std::vector<float>& v, size_t s, size_t dim) {
  return std::vector<float>(v.begin() + s * dim, v.begin() + (s + 1) * dim);
}

void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what << " differs from the per-sample reference";
}

std::unique_ptr<util::ThreadPool> MakePool(size_t threads) {
  return threads == 0 ? nullptr : std::make_unique<util::ThreadPool>(threads);
}

/// (minibatch size n, pool threads; 0 = no pool). The sizes cover the
/// gradient kernels' four-term passes with 0-3 terms left over, and the
/// forward kernel's 16-sample lane blocks with and without a remainder.
class KernelOracleTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(KernelOracleTest, LinearKernelsMatchPerSampleLoops) {
  const auto [n, threads] = GetParam();
  const std::unique_ptr<util::ThreadPool> pool = MakePool(threads);
  util::Rng rng(17 + n);
  Linear layer(/*in_dim=*/397, /*out_dim=*/131, &rng);
  layer.b = RandomVector(layer.out, &rng);
  ReferenceLinear ref(layer.in, layer.out, layer.w.data(), layer.b.data());
  // Accumulate onto earlier gradients, as a second minibatch would.
  layer.dw = ref.dw = RandomVector(layer.dw.size(), &rng);
  layer.db = ref.db = RandomVector(layer.db.size(), &rng);
  const std::vector<float> x = RandomVector(n * layer.in, &rng);
  const std::vector<float> dy = MaskedGradients(n * layer.out, &rng);

  // Reference: one sample at a time, in minibatch order. y is
  // feature-major, dx sample-major.
  std::vector<float> want_y(layer.out * n);
  std::vector<float> want_dx;
  for (size_t s = 0; s < n; ++s) {
    const std::vector<float> x_s = Slice(x, s, layer.in);
    std::vector<float> y_s;
    std::vector<float> dx_s;
    ref.Forward(x_s, &y_s);
    ref.Backward(x_s, Slice(dy, s, layer.out), &dx_s);
    for (size_t o = 0; o < layer.out; ++o) want_y[o * n + s] = y_s[o];
    want_dx.insert(want_dx.end(), dx_s.begin(), dx_s.end());
  }

  std::vector<float> x_feature_major(layer.in * n);
  for (size_t s = 0; s < n; ++s) {
    for (size_t i = 0; i < layer.in; ++i) {
      x_feature_major[i * n + s] = x[s * layer.in + i];
    }
  }
  std::vector<float> y(layer.out * n);
  std::vector<float> dx(n * layer.in);
  layer.Forward(x_feature_major.data(), n, y.data(), pool.get());
  layer.AccumulateGrad(x.data(), dy.data(), n, pool.get());
  layer.InputGrad(dy.data(), n, dx.data(), pool.get());

  ExpectSameBits(y, want_y, "y");
  ExpectSameBits(layer.dw, ref.dw, "dw");
  ExpectSameBits(layer.db, ref.db, "db");
  ExpectSameBits(dx, want_dx, "dx");
}

TEST_P(KernelOracleTest, MlpMinibatchMatchesPerSamplePasses) {
  const auto [n, threads] = GetParam();
  const std::unique_ptr<util::ThreadPool> pool = MakePool(threads);
  for (Activation activation : {Activation::kTanh, Activation::kRelu}) {
    SCOPED_TRACE(activation == Activation::kTanh ? "tanh" : "relu");
    Mlp net({397, 131, 67, 383}, activation, 5);
    ReferenceMlp ref(net);
    util::Rng rng(29 + n);
    const std::vector<float> x = RandomVector(n * net.input_dim(), &rng);
    const std::vector<float> dout =
        MaskedGradients(n * net.output_dim(), &rng);

    std::vector<float> want_out;
    std::vector<float> want_din;
    for (size_t s = 0; s < n; ++s) {
      ReferenceMlp::Cache cache;
      const std::vector<float> out_s =
          ref.Forward(Slice(x, s, net.input_dim()), &cache);
      const std::vector<float> din_s =
          ref.Backward(cache, Slice(dout, s, net.output_dim()));
      want_out.insert(want_out.end(), out_s.begin(), out_s.end());
      want_din.insert(want_din.end(), din_s.begin(), din_s.end());
    }

    Mlp::Cache cache;
    const std::vector<float> out = net.Forward(x, &cache, pool.get());
    net.Backward(cache, dout, pool.get());
    ExpectSameBits(out, want_out, "output");
    const std::vector<float*> grads = net.Gradients();
    const std::vector<size_t> lengths = net.BlockLengths();
    for (size_t l = 0; l < ref.layers.size(); ++l) {
      ExpectSameBits(std::vector<float>(grads[2 * l],
                                        grads[2 * l] + lengths[2 * l]),
                     ref.layers[l].dw, "dw of layer " + std::to_string(l));
      ExpectSameBits(std::vector<float>(grads[2 * l + 1],
                                        grads[2 * l + 1] + lengths[2 * l + 1]),
                     ref.layers[l].db, "db of layer " + std::to_string(l));
    }
    ExpectSameBits(net.BackwardInput(cache, dout), want_din,
                   "input gradient");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelOracleTest,
    ::testing::Combine(::testing::Values<size_t>(1, 5, 7, 13, 64),
                       ::testing::Values<size_t>(0, 1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& info) {
      return std::string("n") + std::to_string(std::get<0>(info.param)) +
             "_pool" + std::to_string(std::get<1>(info.param));
    });

TEST(AdamTest, StepIsIndependentOfThePool) {
  for (size_t threads : {1, 2, 4}) {
    const std::unique_ptr<util::ThreadPool> pool = MakePool(threads);
    Mlp serial({397, 131, 67, 383}, Activation::kTanh, 9);
    Mlp pooled = serial;
    Adam serial_opt(&serial, {});
    Adam pooled_opt(&pooled, {});
    util::Rng rng(41);
    for (int step = 0; step < 3; ++step) {
      const std::vector<float*> a = serial.Gradients();
      const std::vector<float*> b = pooled.Gradients();
      const std::vector<size_t> lengths = serial.BlockLengths();
      for (size_t blk = 0; blk < a.size(); ++blk) {
        for (size_t i = 0; i < lengths[blk]; ++i) {
          a[blk][i] = b[blk][i] =
              static_cast<float>(rng.UniformDouble(-0.1, 0.1));
        }
      }
      serial_opt.Step();
      pooled_opt.Step(pool.get());
    }
    const std::vector<float*> a = serial.Parameters();
    const std::vector<float*> b = pooled.Parameters();
    const std::vector<size_t> lengths = serial.BlockLengths();
    for (size_t blk = 0; blk < a.size(); ++blk) {
      EXPECT_EQ(std::memcmp(a[blk], b[blk], lengths[blk] * sizeof(float)), 0)
          << "block " << blk << " with " << threads << " pool threads";
    }
  }
}

}  // namespace
}  // namespace nn
}  // namespace asqp
