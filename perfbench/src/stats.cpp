#include "stats.h"

#include <algorithm>
#include <cmath>

namespace cpg::perfbench {

namespace {

constexpr double k_ladder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
constexpr std::size_t k_min_beyond = 10;

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = s.n / 2;
  s.median = s.n % 2 == 1 ? samples[mid]
                          : 0.5 * (samples[mid - 1] + samples[mid]);
  for (double p : k_ladder) {
    if (samples_beyond(s.n, p) >= k_min_beyond) {
      s.has_tail = true;
      s.tail_pct = p;
      s.tail = percentile_sorted(samples, p);
      break;
    }
  }
  return s;
}

}  // namespace cpg::perfbench
