#include "cluster/kmeans.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>

#include "util/thread_pool.h"

namespace asqp {
namespace cluster {

namespace {

using embed::L2Distance;
using embed::Vector;

/// Empty input, k == 0 and ragged points are rejected up front: L2Distance
/// would silently truncate to the shorter vector, and the assignment kernel
/// reads `dim` floats of every point.
util::Status ValidateInput(const std::vector<Vector>& points, size_t k,
                           const char* what) {
  if (points.empty()) {
    return util::Status::InvalidArgument(std::string(what) +
                                         " over empty point set");
  }
  if (k == 0) return util::Status::InvalidArgument("k must be positive");
  for (const Vector& p : points) {
    if (p.size() != points[0].size()) {
      return util::Status::InvalidArgument(
          std::string(what) + " over points of unequal dimension");
    }
  }
  return util::Status::OK();
}

/// Four lanes of the assignment kernel, one centroid each: a GCC/Clang
/// vector extension, which is SSE on x86-64 without -march. GCC 12 at -O3
/// compiled the same kernel written as plain 16-lane loops to code about
/// 3.5x slower than four named Lanes4 accumulators (15k points of 64
/// dimensions against 16 centroids: 8.5-10.8 ms against 2.3-3.0 ms a pass);
/// an array of four accumulators stayed in memory at -O2.
typedef float Lanes4 __attribute__((vector_size(4 * sizeof(float))));

/// Centroids per block of the assignment kernel: four Lanes4.
constexpr size_t kBlock = 16;

/// The centroids transposed for the assignment kernel: `[dim][k rounded up
/// to kBlock]`, zero-padded, as Lanes4 groups of four centroids.
class CentroidLanes {
 public:
  CentroidLanes(const std::vector<Vector>& centroids, size_t dim)
      : k_(centroids.size()),
        dim_(dim),
        groups_((k_ + kBlock - 1) / kBlock * (kBlock / 4)),
        lanes_(dim * groups_, Lanes4{}) {
    for (size_t c = 0; c < k_; ++c) {
      for (size_t i = 0; i < dim; ++i) {
        lanes_[i * groups_ + c / 4][c % 4] = centroids[c][i];
      }
    }
  }

  /// The centroid nearest to p (dim floats): each lane sums
  /// (p[i] - c[i]) * (p[i] - c[i]) in i order from 0 and takes the square
  /// root, as L2Distance does, and the first strictly smaller distance in
  /// centroid order wins.
  size_t Nearest(const float* p) const {
    size_t best = 0;
    float best_d = std::numeric_limits<float>::infinity();
    for (size_t g = 0; g < groups_; g += kBlock / 4) {
      Lanes4 acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
      const Lanes4* col = &lanes_[g];
      for (size_t i = 0; i < dim_; ++i, col += groups_) {
        const Lanes4 p_i = {p[i], p[i], p[i], p[i]};
        const Lanes4 d0 = p_i - col[0];
        acc0 += d0 * d0;
        const Lanes4 d1 = p_i - col[1];
        acc1 += d1 * d1;
        const Lanes4 d2 = p_i - col[2];
        acc2 += d2 * d2;
        const Lanes4 d3 = p_i - col[3];
        acc3 += d3 * d3;
      }
      const Lanes4 acc[kBlock / 4] = {acc0, acc1, acc2, acc3};
      for (size_t j = 0; j < kBlock && g * 4 + j < k_; ++j) {
        const float d = std::sqrt(acc[j / 4][j % 4]);
        if (d < best_d) {
          best_d = d;
          best = g * 4 + j;
        }
      }
    }
    return best;
  }

 private:
  size_t k_;
  size_t dim_;
  /// Lanes4 groups per dimension: k rounded up to kBlock, over 4.
  size_t groups_;
  std::vector<Lanes4> lanes_;
};

/// k-means++ seeding: first center uniform, then proportional to squared
/// distance from the nearest chosen center.
std::vector<size_t> PlusPlusSeeds(const std::vector<Vector>& points, size_t k,
                                  util::Rng* rng) {
  std::vector<size_t> seeds;
  seeds.push_back(rng->NextBounded(points.size()));
  std::vector<double> d2(points.size(),
                         std::numeric_limits<double>::infinity());
  while (seeds.size() < k) {
    const Vector& last = points[seeds.back()];
    for (size_t i = 0; i < points.size(); ++i) {
      const double d = L2Distance(points[i], last);
      d2[i] = std::min(d2[i], static_cast<double>(d) * d);
    }
    const size_t next = rng->WeightedIndex(d2);
    seeds.push_back(next);
  }
  return seeds;
}

double Inertia(const std::vector<Vector>& points,
               const std::vector<size_t>& assignment,
               const std::vector<Vector>& centroids) {
  double total = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    const float d = L2Distance(points[i], centroids[assignment[i]]);
    total += static_cast<double>(d) * d;
  }
  return total;
}

}  // namespace

util::Result<ClusteringResult> KMeans(const std::vector<Vector>& points,
                                      size_t k, KMeansOptions options) {
  ASQP_RETURN_NOT_OK(ValidateInput(points, k, "k-means"));
  k = std::min(k, points.size());
  const size_t dim = points[0].size();

  util::Rng rng(options.seed);
  ClusteringResult result;
  const std::vector<size_t> seeds = PlusPlusSeeds(points, k, &rng);
  result.centroids.reserve(k);
  for (size_t s : seeds) result.centroids.push_back(points[s]);
  result.assignment.assign(points.size(), 0);

  for (size_t iter = 0; iter < options.max_iters; ++iter) {
    // Assignment: each point's nearest centroid, written by the one thread
    // that owns the point's range.
    const CentroidLanes lanes(result.centroids, dim);
    std::atomic<bool> changed{false};
    util::ForEachRange(
        options.pool, points.size(), points.size() * k * dim,
        [&](size_t begin, size_t end) {
          bool moved = false;
          for (size_t i = begin; i < end; ++i) {
            const size_t c = lanes.Nearest(points[i].data());
            if (c != result.assignment[i]) {
              result.assignment[i] = c;
              moved = true;
            }
          }
          if (moved) changed.store(true, std::memory_order_relaxed);
        });
    if (!changed.load(std::memory_order_relaxed) && iter > 0) break;
    // Update step: each centroid sums its points in index order.
    std::vector<Vector> sums(k, Vector(dim, 0.0f));
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < points.size(); ++i) {
      float* sum = sums[result.assignment[i]].data();
      const float* p = points[i].data();
      for (size_t d = 0; d < dim; ++d) sum[d] += p[d];
      ++counts[result.assignment[i]];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point.
        result.centroids[c] = points[rng.NextBounded(points.size())];
        continue;
      }
      embed::ScaleInPlace(&sums[c], 1.0f / static_cast<float>(counts[c]));
      result.centroids[c] = std::move(sums[c]);
    }
  }

  // Nearest point to each centroid doubles as a medoid.
  result.medoids.assign(k, 0);
  std::vector<float> best(k, std::numeric_limits<float>::infinity());
  for (size_t i = 0; i < points.size(); ++i) {
    const size_t c = result.assignment[i];
    const float d = L2Distance(points[i], result.centroids[c]);
    if (d < best[c]) {
      best[c] = d;
      result.medoids[c] = i;
    }
  }
  result.inertia = Inertia(points, result.assignment, result.centroids);
  return result;
}

util::Result<ClusteringResult> KMedoids(const std::vector<Vector>& points,
                                        size_t k, KMeansOptions options) {
  ASQP_RETURN_NOT_OK(ValidateInput(points, k, "k-medoids"));
  k = std::min(k, points.size());

  util::Rng rng(options.seed);
  std::vector<size_t> medoids = PlusPlusSeeds(points, k, &rng);
  std::vector<size_t> assignment(points.size(), 0);

  for (size_t iter = 0; iter < options.max_iters; ++iter) {
    // Assign each point to the nearest medoid.
    for (size_t i = 0; i < points.size(); ++i) {
      size_t best = 0;
      float best_d = std::numeric_limits<float>::infinity();
      for (size_t m = 0; m < k; ++m) {
        const float d = L2Distance(points[i], points[medoids[m]]);
        if (d < best_d) {
          best_d = d;
          best = m;
        }
      }
      assignment[i] = best;
    }
    // Update each medoid to the in-cluster point minimizing total distance.
    bool changed = false;
    for (size_t m = 0; m < k; ++m) {
      std::vector<size_t> members;
      for (size_t i = 0; i < points.size(); ++i) {
        if (assignment[i] == m) members.push_back(i);
      }
      if (members.empty()) continue;
      size_t best_point = medoids[m];
      double best_cost = std::numeric_limits<double>::infinity();
      for (size_t candidate : members) {
        double cost = 0.0;
        for (size_t other : members) {
          cost += L2Distance(points[candidate], points[other]);
        }
        if (cost < best_cost) {
          best_cost = cost;
          best_point = candidate;
        }
      }
      if (best_point != medoids[m]) {
        medoids[m] = best_point;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
  }

  ClusteringResult result;
  result.assignment = std::move(assignment);
  result.medoids = medoids;
  result.centroids.reserve(k);
  for (size_t m : medoids) result.centroids.push_back(points[m]);
  result.inertia = Inertia(points, result.assignment, result.centroids);
  return result;
}

}  // namespace cluster
}  // namespace asqp
