#ifndef SPATIAL_BENCH_E2E_PERCENTILE_H_
#define SPATIAL_BENCH_E2E_PERCENTILE_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace spatial {
namespace e2e {

// Percentile p in [0, 1] of exact samples, linearly interpolated between
// closest ranks; 0 for no samples.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

inline double Median(const std::vector<double>& samples) {
  return Percentile(samples, 0.5);
}

}  // namespace e2e
}  // namespace spatial

#endif  // SPATIAL_BENCH_E2E_PERCENTILE_H_
