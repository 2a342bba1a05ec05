#include "sample/sampler.h"

#include <algorithm>
#include <cmath>

#include "cluster/kmeans.h"

namespace asqp {
namespace sample {

std::vector<size_t> UniformSample(size_t n, size_t target, util::Rng* rng) {
  return rng->SampleIndices(n, target);
}

std::vector<size_t> StratifiedSample(const std::vector<size_t>& strata,
                                     size_t num_strata, size_t target,
                                     util::Rng* rng) {
  if (strata.empty() || target == 0) return {};
  // Bucket items by stratum.
  std::vector<std::vector<size_t>> buckets(num_strata);
  for (size_t i = 0; i < strata.size(); ++i) {
    if (strata[i] < num_strata) buckets[strata[i]].push_back(i);
  }
  // sqrt allocation.
  double total_weight = 0.0;
  std::vector<double> weights(num_strata, 0.0);
  for (size_t s = 0; s < num_strata; ++s) {
    weights[s] = std::sqrt(static_cast<double>(buckets[s].size()));
    total_weight += weights[s];
  }
  if (total_weight == 0.0) return {};

  std::vector<size_t> out;
  out.reserve(std::min(target, strata.size()));
  size_t assigned = 0;
  for (size_t s = 0; s < num_strata; ++s) {
    if (buckets[s].empty()) continue;
    size_t quota = static_cast<size_t>(
        std::floor(static_cast<double>(target) * weights[s] / total_weight));
    quota = std::max<size_t>(quota, 1);  // never starve a non-empty stratum
    quota = std::min(quota, buckets[s].size());
    const std::vector<size_t> picks = rng->SampleIndices(buckets[s].size(), quota);
    for (size_t p : picks) out.push_back(buckets[s][p]);
    assigned += quota;
  }
  // Top up (or trim) to exactly min(target, n): floor allocation may
  // under-fill; per-stratum minimums may over-fill.
  const size_t want = std::min(target, strata.size());
  if (out.size() > want) {
    rng->Shuffle(&out);
    out.resize(want);
  } else if (out.size() < want) {
    std::vector<bool> chosen(strata.size(), false);
    for (size_t i : out) chosen[i] = true;
    std::vector<size_t> rest;
    for (size_t i = 0; i < strata.size(); ++i) {
      if (!chosen[i]) rest.push_back(i);
    }
    rng->Shuffle(&rest);
    for (size_t i = 0; i < rest.size() && out.size() < want; ++i) {
      out.push_back(rest[i]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

util::Result<std::vector<size_t>> VariationalSubsample(
    const std::vector<embed::Vector>& points, size_t target,
    VariationalOptions options) {
  if (points.empty()) {
    return util::Status::InvalidArgument(
        "variational subsampling over an empty pool");
  }
  util::Rng rng(options.seed);
  if (target >= points.size()) {
    std::vector<size_t> all(points.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }
  const size_t k = std::min(options.num_strata, points.size());
  cluster::KMeansOptions kopts;
  kopts.seed = options.seed;
  kopts.pool = options.pool;
  ASQP_ASSIGN_OR_RETURN(cluster::ClusteringResult clustering,
                        cluster::KMeans(points, k, kopts));
  return StratifiedSample(clustering.assignment, k, target, &rng);
}

}  // namespace sample
}  // namespace asqp
