#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "generator/traffic_generator.h"
#include "generator/trajectory_order.h"
#include "model/fit.h"
#include "statemachine/replay.h"
#include "test_util.h"

namespace cpg::gen {
namespace {

const model::ModelSet& ours_model() {
  static const model::ModelSet set = [] {
    model::FitOptions opts;
    opts.method = model::Method::ours;
    opts.clustering.theta_n = 30;
    return model::fit_model(testutil::small_ground_truth(200, 48.0, 11),
                            opts);
  }();
  return set;
}

GenerationRequest small_request() {
  GenerationRequest req;
  req.ue_counts = {120, 50, 30};
  req.start_hour = 10;
  req.duration_hours = 1.0;
  req.seed = 99;
  req.num_threads = 2;
  return req;
}

TEST(Generator, ProducesFinalizedTraceInWindow) {
  const Trace t = generate_trace(ours_model(), small_request());
  ASSERT_TRUE(t.finalized());
  EXPECT_EQ(t.num_ues(), 200u);
  ASSERT_FALSE(t.empty());
  EXPECT_GE(t.begin_time(), 10 * k_ms_per_hour);
  EXPECT_LT(t.end_time(), 11 * k_ms_per_hour);
}

TEST(Generator, EveryEventHasValidOwner) {
  // Design goal 2 (§3.2): event-owner labeling.
  const Trace t = generate_trace(ours_model(), small_request());
  for (const ControlEvent& e : t.events()) {
    ASSERT_LT(e.ue_id, t.num_ues());
  }
  // Most UEs are active in a busy hour (the first-event model always emits
  // unless the window truncates it).
  std::vector<bool> active(t.num_ues(), false);
  for (const ControlEvent& e : t.events()) active[e.ue_id] = true;
  std::size_t count = 0;
  for (bool a : active) count += a ? 1 : 0;
  EXPECT_GT(count, t.num_ues() / 2);
}

TEST(Generator, OursTraceConformsToTwoLevelMachine) {
  const Trace t = generate_trace(ours_model(), small_request());
  EXPECT_EQ(sm::count_violations(sm::lte_two_level_spec(), t), 0u);
}

TEST(Generator, DeterministicAcrossThreadCounts) {
  GenerationRequest req = small_request();
  req.num_threads = 1;
  const Trace a = generate_trace(ours_model(), req);
  req.num_threads = 4;
  const Trace b = generate_trace(ours_model(), req);
  ASSERT_EQ(a.num_events(), b.num_events());
  for (std::size_t i = 0; i < a.num_events(); ++i) {
    EXPECT_EQ(a.events()[i], b.events()[i]);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GenerationRequest req = small_request();
  const Trace a = generate_trace(ours_model(), req);
  req.seed = 100;
  const Trace b = generate_trace(ours_model(), req);
  EXPECT_NE(a.num_events(), b.num_events());
}

TEST(Generator, ScalabilityTenfoldPopulation) {
  // Design goal 3 (§3.2): arbitrary UE population with proportional volume.
  GenerationRequest req = small_request();
  const Trace small = generate_trace(ours_model(), req);
  const Trace big = generate_trace(ours_model(), scaled(req, 10.0));
  EXPECT_EQ(big.num_ues(), 10 * small.num_ues());
  const double ratio = static_cast<double>(big.num_events()) /
                       static_cast<double>(small.num_events());
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 15.0);
}

TEST(Generator, ScaledHelperRounds) {
  GenerationRequest req;
  req.ue_counts = {10, 5, 1};
  const auto big = scaled(req, 2.5);
  EXPECT_EQ(big.ue_counts[0], 25u);
  EXPECT_EQ(big.ue_counts[1], 13u);  // llround(2.5)
  EXPECT_EQ(big.ue_counts[2], 3u);
}

TEST(Generator, EmptyRequestIsRejected) {
  // A request for zero UEs is a caller bug, not a silent empty trace.
  GenerationRequest req;
  try {
    generate_trace(ours_model(), req);
    FAIL() << "empty request must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ue_counts"), std::string::npos);
  }
}

TEST(Generator, ValidationNamesTheBadField) {
  // Each malformed field is rejected before any work, and the error says
  // which field is at fault.
  const auto field_of = [](const GenerationRequest& req) -> std::string {
    try {
      validate(req);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  GenerationRequest req = small_request();
  EXPECT_EQ(field_of(req), "");

  for (int hour : {-1, 24, 100}) {
    GenerationRequest bad = req;
    bad.start_hour = hour;
    EXPECT_NE(field_of(bad).find("start_hour"), std::string::npos)
        << "start_hour = " << hour;
  }
  for (double dur : {0.0, -2.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    GenerationRequest bad = req;
    bad.duration_hours = dur;
    EXPECT_NE(field_of(bad).find("duration_hours"), std::string::npos)
        << "duration_hours = " << dur;
  }
  GenerationRequest bad = req;
  bad.ue_counts = {0, 0, 0};
  EXPECT_NE(field_of(bad).find("ue_counts"), std::string::npos);
}

TEST(Generator, MultiHourGenerationCrossesHours) {
  GenerationRequest req = small_request();
  req.duration_hours = 3.0;
  const Trace t = generate_trace(ours_model(), req);
  ASSERT_FALSE(t.empty());
  EXPECT_GE(t.end_time(), 12 * k_ms_per_hour);
  EXPECT_EQ(sm::count_violations(sm::lte_two_level_spec(), t), 0u);
}

TEST(Generator, BaseMethodEmitsHoInIdle) {
  // The EMM-ECM baseline cannot tie HO to CONNECTED: replay must observe
  // HO-in-IDLE violations (this is what Tables 4/11 show for Base).
  model::FitOptions opts;
  opts.method = model::Method::base;
  const auto base_set =
      model::fit_model(testutil::small_ground_truth(200, 48.0, 11), opts);
  const Trace t = generate_trace(base_set, small_request());
  const auto bd = sm::compute_state_breakdown(sm::lte_two_level_spec(), t);
  std::uint64_t ho_idle = 0;
  for (DeviceType d : k_all_device_types) {
    ho_idle += bd.counts[index_of(d)][5];
  }
  EXPECT_GT(ho_idle, 0u);
}

TEST(Generator, RespectActivityProbabilityReducesActiveUes) {
  GenerationRequest req = small_request();
  req.ue_options.respect_activity_probability = false;
  const Trace always = generate_trace(ours_model(), req);
  req.ue_options.respect_activity_probability = true;
  const Trace gated = generate_trace(ours_model(), req);
  auto active_count = [](const Trace& t) {
    std::vector<bool> active(t.num_ues(), false);
    for (const ControlEvent& e : t.events()) active[e.ue_id] = true;
    std::size_t n = 0;
    for (bool a : active) n += a ? 1 : 0;
    return n;
  };
  EXPECT_LT(active_count(gated), active_count(always));
}

TEST(Generator, MaxEventsCapIsHonored) {
  GenerationRequest req = small_request();
  req.ue_counts = {5, 0, 0};
  req.ue_options.max_events = 3;
  const Trace t = generate_trace(ours_model(), req);
  EXPECT_LE(t.num_events(), 5u * 3u);
}

TEST(Generator, MaxEventsCapIsPerUeNotPerWorker) {
  // Regression: the cap used to be checked against the worker's shared
  // output buffer, silently truncating every UE scheduled after the buffer
  // crossed the cap — which muted whole device classes in long generations.
  GenerationRequest req = small_request();
  req.ue_counts = {160, 0, 40};  // tablets are registered last
  req.num_threads = 1;           // single shared buffer = worst case
  req.ue_options.max_events = 4;
  const Trace t = generate_trace(ours_model(), req);
  std::vector<std::size_t> per_ue(t.num_ues(), 0);
  for (const ControlEvent& e : t.events()) ++per_ue[e.ue_id];
  std::size_t active_tablets = 0;
  for (std::size_t u = 0; u < t.num_ues(); ++u) {
    EXPECT_LE(per_ue[u], 4u);
    if (t.device(static_cast<UeId>(u)) == DeviceType::tablet &&
        per_ue[u] > 0) {
      ++active_tablets;
    }
  }
  // The late-registered device class still produces traffic.
  EXPECT_GT(active_tablets, 5u);
}

// sort_trajectory_order must put keys in (device, modeled_ue, ue, seq)
// order, checked here against a tuple sort rather than trajectory_less, on
// every input shape: keys in UE order (the counting pass alone), shuffled
// keys and repeated UEs (per-group fix-up), more groups than keys (the
// std::sort fallback), and no keys.
TEST(TrajectoryOrder, SortsByDeviceModeledUeUeSeq) {
  const auto tuple_of = [](const TrajectoryKey& k) {
    return std::make_tuple(index_of(k.device), k.modeled_ue, k.ue, k.seq);
  };
  const auto check = [&](std::vector<TrajectoryKey> keys, const char* label) {
    std::vector<decltype(tuple_of(TrajectoryKey{}))> want;
    for (const TrajectoryKey& k : keys) want.push_back(tuple_of(k));
    std::sort(want.begin(), want.end());
    sort_trajectory_order(keys);
    ASSERT_EQ(keys.size(), want.size()) << label;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(tuple_of(keys[i]), want[i]) << label << " at " << i;
    }
  };
  Rng rng(17);
  std::vector<TrajectoryKey> in_order;
  for (std::uint32_t u = 0; u < 5000; ++u) {
    in_order.push_back({static_cast<std::uint32_t>(rng.uniform_index(40)), u,
                        0, k_all_device_types[rng.uniform_index(3)]});
  }
  check(in_order, "ue order");

  std::vector<TrajectoryKey> shuffled = in_order;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.uniform_index(i)]);
  }
  // Every UE twice: two segments of one UE opening together, the later
  // position first.
  std::vector<TrajectoryKey> repeated = shuffled;
  for (const TrajectoryKey& k : shuffled) repeated.push_back(k);
  for (std::size_t i = 0; i < repeated.size(); ++i) {
    repeated[i].seq = static_cast<std::uint32_t>(repeated.size() - i);
  }
  check(repeated, "shuffled, repeated UEs");

  std::vector<TrajectoryKey> sparse = shuffled;
  sparse.resize(100);
  for (TrajectoryKey& k : sparse) {
    k.modeled_ue = static_cast<std::uint32_t>(rng.uniform_index(1000));
  }
  sparse[0].modeled_ue = std::numeric_limits<std::uint32_t>::max();
  check(sparse, "more groups than keys");
  check({}, "empty");
}

}  // namespace
}  // namespace cpg::gen
