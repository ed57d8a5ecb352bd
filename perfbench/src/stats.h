// Summary statistics for repeated benchmark samples.
#pragma once

#include <cstddef>
#include <vector>

namespace cpg::perfbench {

// A timing reported the way the benchmark reports every repeated figure:
// the median, plus the highest percentile of a fixed ladder (50, 75, 90,
// 95, 99, 99.9) that still has at least ten samples strictly beyond it, and
// the sample count. `has_tail` is false below 20 samples, where even the
// median has fewer than ten samples above it.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  bool has_tail = false;
  double tail_pct = 0.0;
  double tail = 0.0;
};

// Nearest-rank percentile of an ascending-sorted, non-empty sample:
// sorted[ceil(p/100 * n) - 1], clamped to the sample.
double percentile_sorted(const std::vector<double>& sorted, double p);

// Number of samples ranked strictly after the nearest-rank p-th percentile.
std::size_t samples_beyond(std::size_t n, double p);

// Median (mean of the two middle values for even n) and tail percentile of
// `samples`. An empty sample yields a zero Summary.
Summary summarize(std::vector<double> samples);

}  // namespace cpg::perfbench
