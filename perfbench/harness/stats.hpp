#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

/// \file stats.hpp
/// Order statistics the benchmark reports. Percentiles are nearest-rank and
/// expressed in basis points (9900 = p99) so "samples beyond" is exact
/// integer arithmetic.

namespace perfbench {

/// Rank (1-based) of the nearest-rank percentile \p bp over \p n samples:
/// ceil(bp * n / 10000), at least 1.
inline std::size_t nearest_rank(std::size_t n, std::uint32_t bp) {
  const std::size_t r = (static_cast<std::size_t>(bp) * n + 9999) / 10000;
  return std::max<std::size_t>(r, 1);
}

/// Samples strictly above the nearest-rank percentile \p bp.
inline std::size_t samples_beyond(std::size_t n, std::uint32_t bp) {
  return n - std::min(n, nearest_rank(n, bp));
}

/// The highest of p50/p90/p99/p99.9/p99.99 (in basis points) with at least
/// ten samples beyond it; 0 when even the median has fewer.
inline std::uint32_t supported_percentile(std::size_t n) {
  for (std::uint32_t bp : {9999u, 9990u, 9900u, 9000u, 5000u}) {
    if (samples_beyond(n, bp) >= 10) return bp;
  }
  return 0;
}

/// Nearest-rank percentile of \p samples (any order).
inline double percentile(std::vector<double> samples, std::uint32_t bp) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  const std::size_t r = std::min(nearest_rank(samples.size(), bp), samples.size());
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(r - 1),
                   samples.end());
  return samples[r - 1];
}

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench
