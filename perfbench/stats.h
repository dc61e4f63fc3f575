// Sample summaries and the percentile rule: a percentile is reported only
// when at least ten samples lie beyond it.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr int64_t kMinSamplesBeyond = 10;

// Nearest-rank index of percentile `p` (a whole percent, 0 < p < 100)
// among `n` sorted samples: the smallest rank r with r >= p% of n, as a
// 0-based index. Integer arithmetic, so 99% of 1000 is exactly rank 990.
inline int64_t RankIndex(int p, int64_t n) {
  int64_t rank = (p * n + 99) / 100;
  return std::clamp<int64_t>(rank, 1, n) - 1;
}

// Samples strictly beyond percentile `p` of `n` samples.
inline int64_t SamplesBeyond(int p, int64_t n) {
  return n == 0 ? 0 : n - 1 - RankIndex(p, n);
}

// Fewest samples for which percentile `p` has kMinSamplesBeyond beyond it.
inline int64_t MinSamplesFor(int p) {
  int64_t n = 1;
  while (SamplesBeyond(p, n) < kMinSamplesBeyond) ++n;
  return n;
}

// Percentile `p` of `samples` (copied and sorted); 0 for no samples.
inline double Percentile(std::vector<double> samples, int p) {
  if (samples.empty()) return 0;
  int64_t index = RankIndex(p, static_cast<int64_t>(samples.size()));
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[static_cast<size_t>(index)];
}

// Median as the mean of the two middle samples for an even count.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
