// Trajectory-grouped generation order, shared by the batch generator
// (generate_trace) and the streaming runtime's generator activation.
//
// Every synthetic UE follows the cluster trajectory of one modeled UE of
// its device type. UEs following the same trajectory resolve the same law
// rows and sampling tables every hour, so generating them back to back
// keeps those tables cache-hot. Both callers re-sort their output by the
// canonical (time, UE, type) key, so this order never reaches the emitted
// events; in the stream it does fix the order of checkpointed generators.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "core/trace.h"
#include "model/semi_markov.h"

namespace cpg::gen {

// The modeled UE a synthetic UE follows: a uniform pick from its device's
// fitted population, drawn first from the UE's private stream (`dev` must
// have UEs). The draw is cheap and replayable, so callers order by it and
// later redraw it from a fresh Rng instead of carrying the RNG along.
inline std::uint32_t draw_modeled_ue(const model::DeviceModel& dev,
                                     Rng& rng) {
  return static_cast<std::uint32_t>(rng.uniform_index(dev.ue_traj.size()));
}

// One UE (or one stream segment) to generate. 16 bytes, so ordering a
// million-UE activation sorts small keys, not the generators themselves.
struct TrajectoryKey {
  std::uint32_t modeled_ue = 0;
  UeId ue = 0;
  // Last tie-break: the key's position in the caller's input. The stream
  // uses it for a UE opening two segments in the same slice; batch has one
  // key per UE and leaves it 0. 32 bits bound one stream burst to 2^32
  // opening segments per shard, far past what the generators of one burst
  // (368 bytes each) could hold in memory.
  std::uint32_t seq = 0;
  DeviceType device = DeviceType::phone;
};

// Orders keys by (device, modeled_ue, ue, seq).
inline bool trajectory_less(const TrajectoryKey& a, const TrajectoryKey& b) {
  if (a.device != b.device) return index_of(a.device) < index_of(b.device);
  if (a.modeled_ue != b.modeled_ue) return a.modeled_ue < b.modeled_ue;
  if (a.ue != b.ue) return a.ue < b.ue;
  return a.seq < b.seq;
}

// Sorts `keys` by trajectory_less. Modeled-UE indices are dense (they index
// a fitted population), so this is a stable counting pass over the
// (device, modeled_ue) groups, after which each group holds its keys in
// input order; a group whose input order is not already (ue, seq) order is
// sorted in place. Keys arriving in UE order, as they do from both callers
// for a stationary population, need no comparison sort at all. When there
// are more groups than keys (a small burst against a large fitted
// population), the O(keys + groups) pass would cost more than it saves,
// and the keys go to std::sort instead.
void sort_trajectory_order(std::vector<TrajectoryKey>& keys);

}  // namespace cpg::gen
