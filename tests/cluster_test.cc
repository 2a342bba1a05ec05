#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "cluster/kmeans.h"
#include "tests/testing.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace asqp {
namespace cluster {
namespace {

/// Three well-separated Gaussian blobs in 2D.
std::vector<embed::Vector> MakeBlobs(size_t per_blob, uint64_t seed) {
  util::Rng rng(seed);
  const float centers[3][2] = {{0.0f, 0.0f}, {10.0f, 0.0f}, {0.0f, 10.0f}};
  std::vector<embed::Vector> points;
  for (int b = 0; b < 3; ++b) {
    for (size_t i = 0; i < per_blob; ++i) {
      points.push_back({centers[b][0] + static_cast<float>(rng.Normal(0, 0.5)),
                        centers[b][1] + static_cast<float>(rng.Normal(0, 0.5))});
    }
  }
  return points;
}

TEST(KMeansTest, RecoversSeparatedBlobs) {
  const auto points = MakeBlobs(30, 7);
  ASSERT_OK_AND_ASSIGN(auto result, KMeans(points, 3));
  // Each blob's 30 points must share one label, and the three labels differ.
  std::set<size_t> labels;
  for (int b = 0; b < 3; ++b) {
    const size_t label = result.assignment[b * 30];
    labels.insert(label);
    for (size_t i = 0; i < 30; ++i) {
      EXPECT_EQ(result.assignment[b * 30 + i], label) << "blob " << b;
    }
  }
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_LT(result.inertia / points.size(), 1.0);
}

TEST(KMeansTest, DeterministicForSeed) {
  const auto points = MakeBlobs(20, 9);
  KMeansOptions opts;
  opts.seed = 123;
  ASSERT_OK_AND_ASSIGN(auto a, KMeans(points, 3, opts));
  ASSERT_OK_AND_ASSIGN(auto b, KMeans(points, 3, opts));
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(KMeansTest, KClampedToPointCount) {
  std::vector<embed::Vector> points = {{0.0f}, {1.0f}};
  ASSERT_OK_AND_ASSIGN(auto result, KMeans(points, 10));
  EXPECT_EQ(result.centroids.size(), 2u);
}

TEST(KMeansTest, ErrorsOnBadInput) {
  EXPECT_FALSE(KMeans({}, 3).ok());
  EXPECT_FALSE(KMeans({{1.0f}}, 0).ok());
  // Points of unequal dimension: shorter or longer than the first.
  for (const std::vector<embed::Vector>& ragged :
       {std::vector<embed::Vector>{{1.0f, 2.0f}, {3.0f}, {4.0f, 5.0f}},
        std::vector<embed::Vector>{{1.0f}, {2.0f}, {3.0f, 4.0f}},
        std::vector<embed::Vector>{{}, {1.0f}}}) {
    const auto result = KMeans(ragged, 2);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(KMedoids(ragged, 2).status().code(),
              util::StatusCode::kInvalidArgument);
  }
}

TEST(KMeansTest, MedoidsAreRealPoints) {
  const auto points = MakeBlobs(15, 11);
  ASSERT_OK_AND_ASSIGN(auto result, KMeans(points, 3));
  ASSERT_EQ(result.medoids.size(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    const size_t m = result.medoids[c];
    ASSERT_LT(m, points.size());
    EXPECT_EQ(result.assignment[m], c);
  }
}

TEST(KMedoidsTest, RecoversSeparatedBlobs) {
  const auto points = MakeBlobs(25, 13);
  ASSERT_OK_AND_ASSIGN(auto result, KMedoids(points, 3));
  std::set<size_t> labels;
  for (int b = 0; b < 3; ++b) {
    labels.insert(result.assignment[b * 25]);
    for (size_t i = 1; i < 25; ++i) {
      EXPECT_EQ(result.assignment[b * 25 + i], result.assignment[b * 25]);
    }
  }
  EXPECT_EQ(labels.size(), 3u);
  // Medoids are members of their own clusters.
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(result.assignment[result.medoids[c]], c);
  }
}

TEST(KMedoidsTest, CentroidsEqualMedoidPoints) {
  const auto points = MakeBlobs(10, 15);
  ASSERT_OK_AND_ASSIGN(auto result, KMedoids(points, 3));
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(result.centroids[c], points[result.medoids[c]]);
  }
}

// ---- Oracle: scalar k-means ----------------------------------------------
//
// The reference for KMeans's lane kernel: one L2Distance per
// (point, centroid) and a strict-< argmin in centroid order, seeding and
// update as in the library. KMeans must reproduce its every bit at any
// pool size.

using embed::L2Distance;
using embed::Vector;

std::vector<size_t> ReferenceSeeds(const std::vector<Vector>& points, size_t k,
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

size_t NearestCentroid(const Vector& p, const std::vector<Vector>& centroids) {
  size_t best = 0;
  float best_d = std::numeric_limits<float>::infinity();
  for (size_t c = 0; c < centroids.size(); ++c) {
    const float d = L2Distance(p, centroids[c]);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

ClusteringResult ReferenceKMeans(const std::vector<Vector>& points, size_t k,
                                 KMeansOptions options) {
  k = std::min(k, points.size());
  const size_t dim = points[0].size();

  util::Rng rng(options.seed);
  ClusteringResult result;
  const std::vector<size_t> seeds = ReferenceSeeds(points, k, &rng);
  result.centroids.reserve(k);
  for (size_t s : seeds) result.centroids.push_back(points[s]);
  result.assignment.assign(points.size(), 0);

  for (size_t iter = 0; iter < options.max_iters; ++iter) {
    bool changed = false;
    for (size_t i = 0; i < points.size(); ++i) {
      const size_t c = NearestCentroid(points[i], result.centroids);
      if (c != result.assignment[i]) {
        result.assignment[i] = c;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    // Update step.
    std::vector<Vector> sums(k, Vector(dim, 0.0f));
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < points.size(); ++i) {
      embed::AddInPlace(&sums[result.assignment[i]], points[i]);
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
  double total = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    const float d = L2Distance(points[i], result.centroids[result.assignment[i]]);
    total += static_cast<double>(d) * d;
  }
  result.inertia = total;
  return result;
}

/// n points of dimension dim around a few centers, with exact duplicates
/// (every third point repeats an earlier one, so distances tie) and a
/// coarse grid that makes distinct points tie too.
std::vector<Vector> MakeTiedPoints(size_t n, size_t dim, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Vector> centers(5, Vector(dim));
  for (Vector& c : centers) {
    for (float& x : c) x = static_cast<float>(rng.UniformDouble(-4.0, 4.0));
  }
  std::vector<Vector> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % 3 == 2) {
      points.push_back(points[rng.NextBounded(points.size())]);
      continue;
    }
    Vector p = centers[rng.NextBounded(centers.size())];
    for (float& x : p) {
      x += i % 2 == 0 ? static_cast<float>(rng.Normal(0.0, 1.0))
                      : 0.5f * static_cast<float>(rng.NextBounded(5));
    }
    points.push_back(std::move(p));
  }
  return points;
}

template <typename T>
void ExpectSameBytes(const std::vector<T>& got, const std::vector<T>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)), 0)
      << what << " differs from the scalar reference";
}

/// (k, dim, pool threads; 0 = no pool).
class KMeansOracleTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(KMeansOracleTest, MatchesTheScalarLoop) {
  const auto [k, dim, threads] = GetParam();
  // 1201 points: not a multiple of any pool's range count, and enough
  // (point, centroid, dimension) work to split for most shapes.
  const std::vector<Vector> points = MakeTiedPoints(1201, dim, 31 + k + dim);
  const std::unique_ptr<util::ThreadPool> pool =
      threads == 0 ? nullptr : std::make_unique<util::ThreadPool>(threads);
  KMeansOptions options;
  options.seed = 5 + k;
  options.pool = pool.get();
  const ClusteringResult want = ReferenceKMeans(points, k, options);
  ASSERT_OK_AND_ASSIGN(const ClusteringResult got, KMeans(points, k, options));
  ExpectSameBytes(got.assignment, want.assignment, "assignment");
  ASSERT_EQ(got.centroids.size(), want.centroids.size());
  for (size_t c = 0; c < want.centroids.size(); ++c) {
    ExpectSameBytes(got.centroids[c], want.centroids[c],
                    "centroid " + std::to_string(c));
  }
  ExpectSameBytes(got.medoids, want.medoids, "medoids");
  EXPECT_EQ(std::memcmp(&got.inertia, &want.inertia, sizeof(double)), 0)
      << "inertia " << got.inertia << " vs " << want.inertia;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KMeansOracleTest,
    ::testing::Combine(::testing::Values<size_t>(1, 3, 16, 17, 40),
                       ::testing::Values<size_t>(7, 64),
                       ::testing::Values<size_t>(0, 1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t, size_t>>&
           info) {
      return std::string("k") + std::to_string(std::get<0>(info.param)) +
             "_dim" + std::to_string(std::get<1>(info.param)) + "_pool" +
             std::to_string(std::get<2>(info.param));
    });

TEST(KMeansTest, DuplicatePointsTieAtEveryCentroid) {
  // Three distinct points, each repeated, and k = 16: k-means++ seeds
  // duplicate centroids, whose distances tie exactly.
  std::vector<Vector> points;
  for (size_t i = 0; i < 1501; ++i) {
    points.push_back(Vector(64, static_cast<float>(i % 3)));
  }
  util::ThreadPool pool(4);
  KMeansOptions options;
  options.pool = &pool;
  const ClusteringResult want = ReferenceKMeans(points, 16, options);
  ASSERT_OK_AND_ASSIGN(const ClusteringResult got, KMeans(points, 16, options));
  ExpectSameBytes(got.assignment, want.assignment, "assignment");
  ExpectSameBytes(got.medoids, want.medoids, "medoids");
  EXPECT_EQ(got.inertia, want.inertia);
}

class KSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KSweepTest, InertiaDecreasesWithMoreClusters) {
  const auto points = MakeBlobs(20, 21);
  const size_t k = GetParam();
  ASSERT_OK_AND_ASSIGN(auto small, KMeans(points, k));
  ASSERT_OK_AND_ASSIGN(auto large, KMeans(points, k + 4));
  // More clusters should never substantially increase inertia.
  EXPECT_LE(large.inertia, small.inertia * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Ks, KSweepTest, ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace cluster
}  // namespace asqp
