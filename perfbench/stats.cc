#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::optional<Percentile> PercentileOf(const std::vector<double>& sorted,
                                       double pct) {
  const size_t n = sorted.size();
  if (n == 0) return std::nullopt;
  const double exact = pct / 100.0 * static_cast<double>(n);
  // Round before ceil so that 0.99 * 1000 (= 990.0000000000001 in doubles)
  // ranks 990, not 991.
  size_t rank = static_cast<size_t>(std::ceil(std::round(exact * 1e6) / 1e6));
  rank = std::clamp<size_t>(rank, 1, n);
  return Percentile{pct, sorted[rank - 1], n, n - rank};
}

std::optional<Percentile> SupportedTail(const std::vector<double>& sorted,
                                        double pct) {
  std::optional<Percentile> p = PercentileOf(sorted, pct);
  if (!p || p->beyond < kMinTailSamples) return std::nullopt;
  return p;
}

std::optional<Percentile> HighestSupportedTail(
    const std::vector<double>& sorted) {
  for (double pct : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (std::optional<Percentile> p = SupportedTail(sorted, pct)) return p;
  }
  return std::nullopt;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

std::string Describe(const Percentile& p, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p%g=%.6g %s (n=%zu, beyond=%zu)", p.pct,
                p.value, unit, p.samples, p.beyond);
  return buf;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
