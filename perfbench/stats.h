// Sample summaries for the benchmark's reports: nearest-rank percentiles
// that refuse to report a tail thinner than kMinTailSamples, and medians.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; below that, one outlier decides the figure.
inline constexpr size_t kMinTailSamples = 10;

/// One percentile of a sample, with the counts that say how much of the
/// sample supports it.
struct Percentile {
  double pct = 0.0;
  double value = 0.0;
  /// Samples in the whole set.
  size_t samples = 0;
  /// Samples ranked strictly above this percentile's rank.
  size_t beyond = 0;
};

/// Nearest-rank percentile `pct` (0 < pct <= 100) of an ascending-sorted
/// sample: the value at rank ceil(pct/100 * n). Nullopt when the sample is
/// empty.
std::optional<Percentile> PercentileOf(const std::vector<double>& sorted,
                                       double pct);

/// PercentileOf, refused (nullopt) when fewer than kMinTailSamples samples
/// lie beyond it.
std::optional<Percentile> SupportedTail(const std::vector<double>& sorted,
                                        double pct);

/// The highest of 99.99, 99.9, 99, 95, 90, 75 and 50 that SupportedTail
/// accepts; nullopt when the sample is too small for any of them.
std::optional<Percentile> HighestSupportedTail(
    const std::vector<double>& sorted);

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

/// "p99=1.234 (n=25000, beyond=250)" for logs.
std::string Describe(const Percentile& p, const char* unit);

/// SplitMix64 finalizer: a well-mixed 64-bit hash for deriving
/// independent seeds and sampling decisions from one run seed.
uint64_t Mix64(uint64_t x);

/// A uniform sample of at most `capacity` items of a stream (Vitter's
/// Algorithm R). A session's latency log and its kept answers stay
/// bounded however fast it runs, so the harness's own memory, which
/// counts in peak_rss_mb, does not grow with the request rate, and the
/// kept items cover the whole stream, not only its start.
template <typename T>
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed)
      : capacity_(capacity), state_(seed) {
    items_.reserve(capacity);
  }

  void Add(T item) {
    ++seen_;
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
      return;
    }
    const uint64_t slot = Mix64(state_++) % seen_;
    if (slot < capacity_) items_[slot] = std::move(item);
  }
  /// Items offered so far.
  size_t seen() const { return seen_; }
  /// The sample (every item while seen() <= capacity).
  const std::vector<T>& items() const { return items_; }
  std::vector<T>& items() { return items_; }

 private:
  size_t capacity_;
  size_t seen_ = 0;
  uint64_t state_;
  std::vector<T> items_;
};

}  // namespace perfbench
