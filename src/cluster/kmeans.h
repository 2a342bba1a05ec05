// k-means++ and PAM-style k-medoids over embedding vectors. Used for query
// representative selection (pre-processing), the QRD baseline, and the
// interest-drift experiment's workload partitioning.
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

namespace cluster {

struct ClusteringResult {
  /// assignment[i] = cluster of point i.
  std::vector<size_t> assignment;
  std::vector<embed::Vector> centroids;
  /// For k-medoids: index of each cluster's medoid point. For k-means:
  /// index of the point nearest each centroid.
  std::vector<size_t> medoids;
  double inertia = 0.0;  // sum of squared distances to assigned centroid
};

struct KMeansOptions {
  size_t max_iters = 50;
  uint64_t seed = 17;
  /// KMeans splits each assignment step over this pool; null runs it on the
  /// calling thread. The result is the same bits either way.
  util::ThreadPool* pool = nullptr;
};

/// Lloyd's algorithm with k-means++ seeding. `k` is clamped to the number
/// of points; fails on empty input, k == 0, or points of unequal dimension.
/// Each assignment computes every centroid's L2 distance as
/// embed::L2Distance does (squares summed in dimension order from 0, then
/// the square root) and takes the first nearest centroid in index order;
/// the kernel computes 16 centroids at once as independent vector lanes.
[[nodiscard]] util::Result<ClusteringResult> KMeans(const std::vector<embed::Vector>& points,
                                      size_t k, KMeansOptions options = {});

/// k-medoids via k-means++ seeding followed by alternating
/// assignment / medoid-update (Voronoi iteration). Distances are L2. Fails
/// as KMeans does; `options.pool` is not used.
[[nodiscard]] util::Result<ClusteringResult> KMedoids(
    const std::vector<embed::Vector>& points, size_t k,
    KMeansOptions options = {});

}  // namespace cluster
}  // namespace asqp
