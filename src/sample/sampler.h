// Subsampling strategies over candidate tuple pools.
//
// `VariationalSubsample` is our stand-in for the paper's "variational
// subsampling" [VerdictDB]: instead of fitting a latent-variable
// probabilistic model, we cluster the tuple embeddings into latent strata
// and allocate the sample budget across strata by the square-root rule
// (sqrt allocation preserves rare strata that uniform sampling would
// starve — the property the pipeline needs from variational subsampling).
#pragma once

#include <cstddef>
#include <vector>

#include "embed/vector_ops.h"
#include "util/random.h"
#include "util/status.h"

namespace asqp {
namespace util {
class ThreadPool;
}  // namespace util

namespace sample {

/// Uniformly sample `target` distinct indices from [0, n).
std::vector<size_t> UniformSample(size_t n, size_t target, util::Rng* rng);

/// Stratified sampling: `strata[i]` is the stratum of item i. The budget is
/// split across strata proportionally to sqrt(stratum size), each stratum
/// sampled uniformly. Returns sorted distinct indices.
std::vector<size_t> StratifiedSample(const std::vector<size_t>& strata,
                                     size_t num_strata, size_t target,
                                     util::Rng* rng);

struct VariationalOptions {
  /// Number of latent strata (clusters); clamped to the pool size.
  size_t num_strata = 16;
  uint64_t seed = 23;
  /// The k-means assignment steps split over this pool; null runs them on
  /// the calling thread. The sample is the same either way.
  util::ThreadPool* pool = nullptr;
};

/// Variational subsampling over embedded tuples: k-means into latent
/// strata, then sqrt-allocated stratified sampling. Returns sorted indices
/// into `points`.
[[nodiscard]] util::Result<std::vector<size_t>> VariationalSubsample(
    const std::vector<embed::Vector>& points, size_t target,
    VariationalOptions options = {});

}  // namespace sample
}  // namespace asqp
