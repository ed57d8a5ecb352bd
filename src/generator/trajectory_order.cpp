#include "generator/trajectory_order.h"

#include <algorithm>
#include <array>
#include <numeric>

namespace cpg::gen {

void sort_trajectory_order(std::vector<TrajectoryKey>& keys) {
  // Group (device d, modeled m) is bucket first[d] + m.
  std::array<std::uint64_t, k_num_device_types + 1> first{};
  for (const TrajectoryKey& k : keys) {
    std::uint64_t& end = first[index_of(k.device) + 1];
    end = std::max<std::uint64_t>(end, std::uint64_t{k.modeled_ue} + 1);
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  const std::uint64_t groups = first.back();
  if (groups > keys.size()) {
    std::sort(keys.begin(), keys.end(), trajectory_less);
    return;
  }
  const auto group_of = [&](const TrajectoryKey& k) {
    return static_cast<std::size_t>(first[index_of(k.device)] + k.modeled_ue);
  };
  std::vector<std::size_t> start(static_cast<std::size_t>(groups) + 1, 0);
  for (const TrajectoryKey& k : keys) ++start[group_of(k) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<TrajectoryKey> out(keys.size());
  {
    std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
    for (const TrajectoryKey& k : keys) out[cursor[group_of(k)]++] = k;
  }
  for (std::size_t g = 0; g + 1 < start.size(); ++g) {
    const auto lo = out.begin() + static_cast<std::ptrdiff_t>(start[g]);
    const auto hi = out.begin() + static_cast<std::ptrdiff_t>(start[g + 1]);
    if (!std::is_sorted(lo, hi, trajectory_less)) {
      std::sort(lo, hi, trajectory_less);
    }
  }
  keys.swap(out);
}

}  // namespace cpg::gen
