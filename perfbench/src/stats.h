// Order statistics for the benchmark's repeated measurements.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// The q-th quartile (q in 0..4) by linear interpolation between order
/// statistics; 0 for an empty sample.
[[nodiscard]] inline double quartile(std::vector<double> v, int q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = static_cast<double>(v.size() - 1) * q / 4.0;
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quartile(v, 2);
}

}  // namespace perfbench
