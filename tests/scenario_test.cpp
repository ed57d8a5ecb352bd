// Tests for the scenario engine (src/scenario/): spec parsing with
// line/field diagnostics, fingerprint semantics, compilation to population
// plans, and the executor-level guarantees — configuration-independent
// determinism for churning/migrating populations, lifecycle windows
// honored, phase notifications, and checkpoint/resume safety including the
// rejection of a resume under an edited spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/failpoint.h"
#include "generator/traffic_generator.h"
#include "model/fit.h"
#include "scenario/scenario.h"
#include "scenario/spec.h"
#include "spatial/config.h"
#include "spatial/motion.h"
#include "stream/stream_generator.h"
#include "test_util.h"

namespace cpg::scenario {
namespace {

const model::ModelSet& lte_model() {
  static const model::ModelSet set = [] {
    model::FitOptions opts;
    opts.method = model::Method::ours;
    opts.clustering.theta_n = 30;
    return model::fit_model(testutil::small_ground_truth(200, 48.0, 11),
                            opts);
  }();
  return set;
}

// A scenario exercising every feature at once: a steady base with a leave
// wave, a flash crowd, an NSA migration wave, and an SA migration wave,
// under a phase timeline with a trailing gap.
constexpr const char* k_churny_spec = R"(# full-feature scenario
scenario churny
start-hour 9
duration 3

phase warmup 0 1
  mcn-scale 1.0
phase flash 1 2
  accel 50
  mcn-scale 2.5

cohort base
  device phone
  count 40
  join 0
  leave 2.5 2.9
cohort crowd
  device phone
  count 30
  join 1 1.2
  leave 1.8 2.0
cohort cars
  device car
  count 20
  migrate 1.5 nsa
cohort tabs
  device tablet
  count 10
  migrate 1 sa
)";

std::vector<ControlEvent> run_plan(const stream::PopulationPlan& plan,
                                   std::size_t shards, unsigned threads,
                                   TimeMs slice_ms) {
  stream::StreamOptions opts;
  opts.num_shards = shards;
  opts.num_threads = threads;
  opts.slice_ms = slice_ms;
  std::vector<ControlEvent> store;
  stream::CallbackSink sink(
      [&](const ControlEvent& e) { store.push_back(e); });
  stream::stream_generate(plan, opts, sink);
  return store;
}

// ---------------------------------------------------------------------------
// Parsing: every malformed input class dies with one line naming line+field.

struct BadSpec {
  const char* label;
  std::string text;
  int line;           // expected ":<line>:" in the diagnostic
  const char* field;  // expected "field '<field>'"
};

TEST(ScenarioSpec, MalformedInputsNameLineAndField) {
  const std::string ok_cohort = "cohort c\n  count 5\n";
  const std::vector<BadSpec> cases = {
      {"unknown key", "duration 2\nfrobnicate 3\n" + ok_cohort, 2,
       "frobnicate"},
      {"non-numeric value", "duration abc\n" + ok_cohort, 1, "duration"},
      {"zero duration", "duration 0\n" + ok_cohort, 1, "duration"},
      {"negative duration", "duration -4\n" + ok_cohort, 1, "duration"},
      {"missing duration", ok_cohort, 1, "duration"},
      {"fractional start hour", "start-hour 9.5\nduration 2\n" + ok_cohort,
       1, "start-hour"},
      {"out-of-range start hour", "start-hour 24\nduration 2\n" + ok_cohort,
       1, "start-hour"},
      {"wrong arity", "duration 2\nphase p 0\n" + ok_cohort, 2, "phase"},
      {"inverted phase", "duration 2\nphase p 1.5 0.5\n" + ok_cohort, 2,
       "phase"},
      {"phase past the end", "duration 2\nphase p 1 9\n" + ok_cohort, 2,
       "phase"},
      {"overlapping phases",
       "duration 4\nphase a 0 2\nphase b 1 3\n" + ok_cohort, 3, "phase"},
      {"accel outside a phase", "duration 2\naccel 10\n" + ok_cohort, 2,
       "accel"},
      {"non-positive accel", "duration 2\nphase p 0 1\naccel 0\n" +
                                 ok_cohort,
       3, "accel"},
      {"non-positive mcn-scale",
       "duration 2\nphase p 0 1\nmcn-scale -1\n" + ok_cohort, 3,
       "mcn-scale"},
      {"cohort key at top level", "duration 2\ncount 5\n" + ok_cohort, 2,
       "count"},
      {"no cohorts", "duration 2\n", 1, "cohort"},
      {"negative cohort size", "duration 2\ncohort c\n  count -5\n", 3,
       "count"},
      {"fractional cohort size", "duration 2\ncohort c\n  count 2.5\n", 3,
       "count"},
      {"missing cohort size", "duration 2\ncohort c\n  device phone\n", 2,
       "count"},
      {"unknown device", "duration 2\ncohort c\n  count 5\n  device toaster\n",
       4, "device"},
      {"unknown model", "duration 2\ncohort c\n  count 5\n  model 6g\n", 4,
       "model"},
      {"negative hour", "duration 2\ncohort c\n  count 5\n  join -1\n", 4,
       "join"},
      {"inverted join window",
       "duration 2\ncohort c\n  count 5\n  join 1.5 0.5\n", 4, "join"},
      {"join past the end", "duration 2\ncohort c\n  count 5\n  join 0 5\n",
       2, "join"},
      {"join at the end", "duration 2\ncohort c\n  count 5\n  join 2\n", 2,
       "join"},
      {"leave before join",
       "duration 3\ncohort c\n  count 5\n  join 1 2\n  leave 1.5 2.5\n", 2,
       "leave"},
      {"leave past the end",
       "duration 2\ncohort c\n  count 5\n  leave 1 9\n", 2, "leave"},
      {"migrate before join",
       "duration 3\ncohort c\n  count 5\n  join 1 2\n  migrate 1.5 nsa\n",
       2, "migrate"},
      {"migrate after leave",
       "duration 3\ncohort c\n  count 5\n  leave 1 2\n  migrate 2.5 nsa\n",
       2, "migrate"},
      {"migrate to the same model",
       "duration 2\ncohort c\n  count 5\n  migrate 1 lte\n", 2, "migrate"},
  };

  for (const BadSpec& bad : cases) {
    SCOPED_TRACE(bad.label);
    try {
      parse_scenario_string(bad.text, "spec.scn");
      FAIL() << "expected rejection";
    } catch (const ScenarioError& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
      EXPECT_NE(
          msg.find("spec.scn:" + std::to_string(bad.line) + ":"),
          std::string::npos)
          << msg;
      EXPECT_NE(msg.find("field '" + std::string(bad.field) + "'"),
                std::string::npos)
          << msg;
    }
  }
}

TEST(ScenarioSpec, ParsesTheFullGrammar) {
  const ScenarioSpec spec = parse_scenario_string(k_churny_spec);
  EXPECT_EQ(spec.name, "churny");
  EXPECT_EQ(spec.start_hour, 9);
  EXPECT_DOUBLE_EQ(spec.duration_hours, 3.0);
  ASSERT_EQ(spec.phases.size(), 2u);
  EXPECT_EQ(spec.phases[0].name, "warmup");
  EXPECT_DOUBLE_EQ(spec.phases[1].accel, 50.0);
  EXPECT_DOUBLE_EQ(spec.phases[1].mcn_scale, 2.5);
  ASSERT_EQ(spec.cohorts.size(), 4u);
  EXPECT_EQ(spec.cohorts[1].name, "crowd");
  EXPECT_TRUE(spec.cohorts[1].has_leave);
  EXPECT_EQ(spec.cohorts[2].device, DeviceType::connected_car);
  ASSERT_TRUE(spec.cohorts[3].has_migrate);
  EXPECT_EQ(spec.cohorts[3].migrate_model, ModelKind::sa);
  EXPECT_NE(spec.fingerprint, 0u);
}

TEST(ScenarioSpec, FingerprintTracksContentNotFormatting) {
  const ScenarioSpec a = parse_scenario_string(k_churny_spec);
  // Same content, different bytes: comments, blank lines, indentation.
  std::string reformatted = "# reformatted\n\n";
  reformatted += k_churny_spec;
  reformatted += "\n# trailing comment\n";
  const ScenarioSpec b = parse_scenario_string(reformatted);
  EXPECT_EQ(a.fingerprint, b.fingerprint);

  std::string edited = k_churny_spec;
  const auto pos = edited.find("count 30");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 8, "count 31");
  const ScenarioSpec c = parse_scenario_string(edited);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

// ---------------------------------------------------------------------------
// Compilation.

TEST(ScenarioCompile, BuildsTheExpectedPlan) {
  const ScenarioSpec spec = parse_scenario_string(k_churny_spec);
  CompileOptions copts;
  copts.seed = 7;
  const CompiledScenario sc = compile(spec, lte_model(), copts);
  const stream::PopulationPlan& plan = sc.plan;

  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.fingerprint, spec.fingerprint);
  EXPECT_EQ(plan.t_begin, 9 * k_ms_per_hour);
  EXPECT_EQ(plan.t_end, 12 * k_ms_per_hour);
  ASSERT_EQ(plan.device_of.size(), 100u);  // 40 + 30 + 20 + 10
  EXPECT_EQ(plan.device_of[0], DeviceType::phone);
  EXPECT_EQ(plan.device_of[75], DeviceType::connected_car);
  EXPECT_EQ(plan.device_of[95], DeviceType::tablet);
  // lte + derived nsa + derived sa.
  EXPECT_EQ(plan.models.size(), 3u);
  EXPECT_EQ(sc.derived_models.size(), 2u);
  EXPECT_EQ(plan.models[0].models, &lte_model());
  ASSERT_EQ(plan.phases.size(), 2u);
  EXPECT_EQ(plan.phases[0].t_start, plan.t_begin);
  EXPECT_DOUBLE_EQ(plan.phases[1].accel, 50.0);

  // 40 + 30 single-segment UEs, 20 + 10 migrating (two segments each).
  ASSERT_EQ(plan.segments.size(), 130u);
  EXPECT_TRUE(std::is_sorted(
      plan.segments.begin(), plan.segments.end(),
      [](const stream::UeSegment& a, const stream::UeSegment& b) {
        return a.t_start != b.t_start ? a.t_start < b.t_start
                                      : a.ue < b.ue;
      }));

  std::map<UeId, std::vector<stream::UeSegment>> by_ue;
  for (const stream::UeSegment& s : plan.segments) by_ue[s.ue].push_back(s);
  ASSERT_EQ(by_ue.size(), 100u);
  std::uint64_t joins = 0, leaves = 0, migrations = 0;
  for (const auto& [ue, segs] : by_ue) {
    for (const stream::UeSegment& s : segs) {
      ASSERT_LT(s.model, plan.models.size());
      ASSERT_LT(s.t_start, s.t_end);
      joins += s.counts_join ? 1 : 0;
      leaves += s.counts_leave ? 1 : 0;
      migrations += s.counts_migration ? 1 : 0;
    }
    if (segs.size() == 2) {
      // A migration pair: contiguous, salts 0 then 1, models differ.
      EXPECT_EQ(segs[0].t_end, segs[1].t_start);
      EXPECT_EQ(segs[0].rng_salt, 0u);
      EXPECT_EQ(segs[1].rng_salt, 1u);
      EXPECT_NE(segs[0].model, segs[1].model);
      EXPECT_TRUE(segs[1].counts_migration);
    }
  }
  EXPECT_EQ(joins, 30u);       // the flash crowd
  EXPECT_EQ(leaves, 70u);      // base + crowd
  EXPECT_EQ(migrations, 30u);  // cars + tabs
}

TEST(ScenarioCompile, LifecycleDrawsAreInsideTheirWindows) {
  const ScenarioSpec spec = parse_scenario_string(k_churny_spec);
  const CompiledScenario sc = compile(spec, lte_model());
  const TimeMs t0 = sc.plan.t_begin;
  for (const stream::UeSegment& s : sc.plan.segments) {
    if (s.ue >= 40 && s.ue < 70) {  // the crowd cohort
      EXPECT_GE(s.t_start, t0 + k_ms_per_hour);
      EXPECT_LT(s.t_start, t0 + k_ms_per_hour + (k_ms_per_hour * 12) / 10);
      EXPECT_GE(s.t_end, t0 + (k_ms_per_hour * 18) / 10);
      EXPECT_LT(s.t_end, t0 + 2 * k_ms_per_hour);
    }
  }
}

// ---------------------------------------------------------------------------
// Execution.

TEST(ScenarioRun, StationaryScenarioMatchesStationaryStreamAndBatch) {
  // A scenario whose cohorts mirror the device-block registry of a
  // stationary request compiles to the same UE layout and RNG streams, so
  // the delivered sequence must be byte-identical to both the stationary
  // streaming runtime and the batch generator.
  const char* text = R"(
duration 2
start-hour 10
cohort phones
  count 25
cohort cars
  device car
  count 10
cohort tabs
  device tablet
  count 8
)";
  CompileOptions copts;
  copts.seed = 99;
  const CompiledScenario sc =
      compile(parse_scenario_string(text), lte_model(), copts);
  const auto scenario_events = run_plan(sc.plan, 4, 2, 7 * k_ms_per_minute);

  gen::GenerationRequest req;
  req.ue_counts = {25, 10, 8};
  req.start_hour = 10;
  req.duration_hours = 2.0;
  req.seed = 99;
  std::vector<ControlEvent> stationary;
  stream::CallbackSink sink(
      [&](const ControlEvent& e) { stationary.push_back(e); });
  stream::stream_generate(lte_model(), req, stream::StreamOptions{}, sink);
  ASSERT_FALSE(scenario_events.empty());
  EXPECT_EQ(scenario_events, stationary);

  const Trace batch = gen::generate_trace(lte_model(), req);
  ASSERT_EQ(scenario_events.size(), batch.num_events());
  const auto be = batch.events();
  EXPECT_TRUE(std::equal(scenario_events.begin(), scenario_events.end(),
                         be.begin()));
}

TEST(ScenarioRun, ChurnIsDeterministicAcrossShardsThreadsSlices) {
  const CompiledScenario sc =
      compile(parse_scenario_string(k_churny_spec), lte_model());
  const auto want = run_plan(sc.plan, 1, 1, 30 * k_ms_per_minute);
  ASSERT_GT(want.size(), 100u);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    for (const unsigned threads : {1u, 3u}) {
      for (const TimeMs slice :
           {7 * k_ms_per_minute, 25 * k_ms_per_minute}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads) +
                     " slice=" + std::to_string(slice));
        EXPECT_EQ(run_plan(sc.plan, shards, threads, slice), want);
      }
    }
  }
}

TEST(ScenarioRun, StatsCountTheLifecycle) {
  const CompiledScenario sc =
      compile(parse_scenario_string(k_churny_spec), lte_model());
  stream::StreamOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 2;
  stream::CountingSink sink;
  const stream::StreamStats stats =
      stream::stream_generate(sc.plan, opts, sink);
  EXPECT_EQ(stats.num_ues, 100u);
  EXPECT_EQ(stats.cohort_joins, 30u);
  EXPECT_EQ(stats.cohort_leaves, 70u);
  EXPECT_EQ(stats.migrations, 30u);
}

TEST(ScenarioRun, NoEventsOutsideLifecycleWindows) {
  const CompiledScenario sc =
      compile(parse_scenario_string(k_churny_spec), lte_model());
  std::map<UeId, std::pair<TimeMs, TimeMs>> window;
  for (const stream::UeSegment& s : sc.plan.segments) {
    auto [it, fresh] = window.try_emplace(s.ue, s.t_start, s.t_end);
    if (!fresh) {
      it->second.first = std::min(it->second.first, s.t_start);
      it->second.second = std::max(it->second.second, s.t_end);
    }
  }
  for (const ControlEvent& e :
       run_plan(sc.plan, 4, 2, 10 * k_ms_per_minute)) {
    const auto& [lo, hi] = window.at(e.ue_id);
    EXPECT_GE(e.t_ms, lo) << "ue " << e.ue_id;
    EXPECT_LT(e.t_ms, hi) << "ue " << e.ue_id;
  }
}

TEST(ScenarioRun, SaMigrationSilencesTau) {
  // The tabs cohort hands off to the SA model (no TAU states) at +1 h: no
  // tablet may emit a TAU event at or after the wave.
  const CompiledScenario sc =
      compile(parse_scenario_string(k_churny_spec), lte_model());
  const TimeMs wave = sc.plan.t_begin + k_ms_per_hour;
  for (const ControlEvent& e :
       run_plan(sc.plan, 4, 2, 10 * k_ms_per_minute)) {
    if (sc.plan.device_of[e.ue_id] == DeviceType::tablet &&
        e.type == EventType::tau) {
      EXPECT_LT(e.t_ms, wave);
    }
  }
}

// Records the phase notifications a PhaseListener sink receives.
class PhaseRecorder final : public stream::EventSink,
                            public stream::PhaseListener {
 public:
  void on_event(const ControlEvent&) override {}
  void on_phase(const stream::PhaseRow* phase) override {
    names.push_back(phase != nullptr ? phase->name : "<gap>");
  }
  std::vector<std::string> names;
};

TEST(ScenarioRun, PhaseBoundariesReachListenerSinksThroughFanout) {
  const CompiledScenario sc =
      compile(parse_scenario_string(k_churny_spec), lte_model());
  PhaseRecorder recorder;
  stream::CountingSink counter;
  stream::FanoutSink fanout({&recorder, &counter});  // forwards on_phase
  stream::StreamOptions opts;
  opts.num_shards = 3;
  stream::stream_generate(sc.plan, opts, fanout);
  // warmup [9h,10h), flash [10h,11h), then the uncovered tail [11h,12h).
  EXPECT_EQ(recorder.names,
            (std::vector<std::string>{"warmup", "flash", "<gap>"}));
}

// ---------------------------------------------------------------------------
// Checkpoint/resume under churn.

class ScenarioCheckpointDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cpg_scenario_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    fault::disarm_all();
  }
  std::filesystem::path dir_;
};

// Durable event store that survives the simulated process death (same
// pattern as the resilience suite: the store plays the role of a file).
class StoreSink final : public stream::EventSink,
                        public stream::CheckpointParticipant {
 public:
  explicit StoreSink(std::vector<ControlEvent>& store) : store_(store) {}
  void on_start(const stream::StreamHeader&) override { store_.clear(); }
  void on_event(const ControlEvent& e) override { store_.push_back(e); }
  void on_events(std::span<const ControlEvent> es) override {
    store_.insert(store_.end(), es.begin(), es.end());
  }
  std::string checkpoint_save() override {
    return std::to_string(store_.size());
  }
  void checkpoint_resume(const std::string& token,
                         const stream::StreamHeader&) override {
    store_.resize(std::stoull(token));
  }

 private:
  std::vector<ControlEvent>& store_;
};

TEST_F(ScenarioCheckpointDir, KillAndResumeMidFlashCrowdIsByteIdentical) {
  const CompiledScenario sc =
      compile(parse_scenario_string(k_churny_spec), lte_model());
  const auto want = run_plan(sc.plan, 4, 2, 5 * k_ms_per_minute);
  ASSERT_GT(want.size(), 100u);

  stream::StreamOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 2;
  opts.slice_ms = 5 * k_ms_per_minute;  // 36 slices over the 3 h run
  opts.checkpoint.dir = dir_.string();
  opts.checkpoint.interval_slices = 3;

  // Kill inside the flash-crowd phase (slices 12..23), after the crowd has
  // joined and while per-slice activations are in flight.
  std::vector<ControlEvent> store;
  StoreSink sink(store);
  fault::FailpointSpec kill;
  kill.action = fault::Action::fatal;
  kill.skip = 15;
  kill.max_fires = 1;
  fault::arm("stream.deliver_slice", kill);
  EXPECT_THROW(stream::stream_generate(sc.plan, opts, sink),
               fault::InjectedFault);
  fault::disarm_all();
  ASSERT_LT(store.size(), want.size());

  stream::StreamOptions resume_opts = opts;
  resume_opts.resume = true;
  const stream::StreamStats stats =
      stream::stream_generate(sc.plan, resume_opts, sink);
  EXPECT_GT(stats.start_slice, 0u);
  EXPECT_EQ(store, want);
}

TEST_F(ScenarioCheckpointDir, ResumeUnderAnEditedSpecIsRejected) {
  const CompiledScenario sc =
      compile(parse_scenario_string(k_churny_spec), lte_model());
  stream::StreamOptions opts;
  opts.num_shards = 2;
  opts.slice_ms = 5 * k_ms_per_minute;
  opts.checkpoint.dir = dir_.string();
  opts.checkpoint.interval_slices = 2;

  std::vector<ControlEvent> store;
  StoreSink sink(store);
  fault::FailpointSpec kill;
  kill.action = fault::Action::fatal;
  kill.skip = 8;
  kill.max_fires = 1;
  fault::arm("stream.deliver_slice", kill);
  EXPECT_THROW(stream::stream_generate(sc.plan, opts, sink),
               fault::InjectedFault);
  fault::disarm_all();

  // The operator edits the spec (the flash crowd doubles) and tries to
  // resume from the old checkpoint: rejected, naming the scenario field.
  std::string edited = k_churny_spec;
  const auto pos = edited.find("count 30");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 8, "count 60");
  const CompiledScenario other =
      compile(parse_scenario_string(edited), lte_model());
  // The edited plan differs in ue_counts too, but the scenario fingerprint
  // is checked first, so the diagnostic names the real cause.
  stream::StreamOptions resume_opts = opts;
  resume_opts.resume = true;
  try {
    stream::stream_generate(other.plan, resume_opts, sink);
    FAIL() << "expected scenario fingerprint mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("scenario"), std::string::npos)
        << e.what();
  }
}

// A migration wave inside a slice: at +45 min (slice 6 of 7-minute slices)
// every car's LTE segment closes and its NSA segment opens, and every tablet
// opens both its join segment and its SA segment in that same slice.
constexpr const char* k_handoff_spec = R"(scenario handoff
start-hour 9
duration 2

cohort phones
  device phone
  count 60
cohort cars
  device car
  count 30
  migrate 0.75 nsa
cohort tabs
  device tablet
  count 24
  join 0.7 0.74
  migrate 0.75 sa
)";

TEST_F(ScenarioCheckpointDir,
       MidSliceMigrationCheckpointsResumeInTrajectoryOrder) {
  const CompiledScenario sc =
      compile(parse_scenario_string(k_handoff_spec), lte_model());
  const stream::PopulationPlan& plan = sc.plan;
  constexpr TimeMs k_slice = 7 * k_ms_per_minute;
  const auto slice_of = [&](TimeMs t) {
    return static_cast<std::uint64_t>((t - plan.t_begin) / k_slice);
  };
  const TimeMs wave = plan.t_begin + 45 * k_ms_per_minute;
  ASSERT_EQ(slice_of(wave), 6u);
  ASSERT_NE((wave - plan.t_begin) % k_slice, 0);
  std::map<UeId, std::vector<std::uint64_t>> opening_slices;
  for (const stream::UeSegment& seg : plan.segments) {
    opening_slices[seg.ue].push_back(slice_of(seg.t_start));
  }
  // Tablets (ids 90..113) open two segments in the wave slice.
  EXPECT_EQ(opening_slices.at(100), (std::vector<std::uint64_t>{6, 6}));

  stream::StreamOptions opts;
  opts.num_shards = 3;
  opts.num_threads = 2;
  opts.slice_ms = k_slice;
  opts.checkpoint.interval_slices = 1;

  // Reference run, handing every checkpoint to a callback instead of disk.
  std::vector<ControlEvent> want;
  StoreSink ref_sink(want);
  std::vector<stream::StreamCheckpoint> cks;
  stream::StreamOptions capture = opts;
  capture.checkpoint_sink = [&](const stream::StreamCheckpoint& ck) {
    cks.push_back(ck);
  };
  const stream::StreamStats ref =
      stream::stream_generate(plan, capture, ref_sink);
  ASSERT_GT(want.size(), 100u);
  ASSERT_EQ(cks.size(), ref.slices - 1);  // one per slice but the first
  EXPECT_EQ(want, run_plan(plan, 3, 2, k_slice));

  // A shard snapshot lists its live generators activation burst by burst,
  // and each burst in (device, modeled_ue, ue_id, segment) order.
  // UEs silent for the rest of the window finish early and leave the
  // snapshot, so only some of the 54 handed-off generators are still live.
  std::set<DeviceType> migrated_after_wave;
  for (const stream::StreamCheckpoint& ck : cks) {
    for (const stream::ShardCheckpoint& sh : ck.shards) {
      ASSERT_EQ(sh.gen_seg.size(), sh.gens.size());
      for (std::size_t j = 0; j < sh.gens.size(); ++j) {
        const stream::UeSegment& seg = plan.segments[sh.gen_seg[j]];
        ASSERT_EQ(seg.ue, sh.gens[j].ue_id);
        if (ck.resume_slice == 7 && seg.counts_migration) {
          migrated_after_wave.insert(sh.gens[j].device);
        }
        if (j == 0) continue;
        const gen::UeGenSnapshot& a = sh.gens[j - 1];
        const gen::UeGenSnapshot& b = sh.gens[j];
        const std::uint64_t burst_a =
            slice_of(plan.segments[sh.gen_seg[j - 1]].t_start);
        const std::uint64_t burst_b = slice_of(seg.t_start);
        if (burst_a != burst_b) {
          EXPECT_LT(burst_a, burst_b) << "slice " << ck.resume_slice;
          continue;
        }
        EXPECT_LT(std::tuple(index_of(a.device), a.modeled_ue, a.ue_id,
                             sh.gen_seg[j - 1]),
                  std::tuple(index_of(b.device), b.modeled_ue, b.ue_id,
                             sh.gen_seg[j]))
            << "slice " << ck.resume_slice << " position " << j;
      }
    }
  }
  EXPECT_EQ(migrated_after_wave,
            (std::set<DeviceType>{DeviceType::connected_car,
                                  DeviceType::tablet}));

  // Kill around the wave and resume: byte-identical to the reference.
  for (const std::uint64_t kill_slice : {5u, 6u, 7u, 8u}) {
    SCOPED_TRACE("kill at slice " + std::to_string(kill_slice));
    std::filesystem::remove_all(dir_);
    stream::StreamOptions ck_opts = opts;
    ck_opts.checkpoint.dir = dir_.string();
    std::vector<ControlEvent> store;
    StoreSink sink(store);
    fault::FailpointSpec kill;
    kill.action = fault::Action::fatal;
    kill.skip = kill_slice;
    kill.max_fires = 1;
    fault::arm("stream.deliver_slice", kill);
    EXPECT_THROW(stream::stream_generate(plan, ck_opts, sink),
                 fault::InjectedFault);
    fault::disarm_all();
    ASSERT_LT(store.size(), want.size());

    ck_opts.resume = true;
    const stream::StreamStats stats =
        stream::stream_generate(plan, ck_opts, sink);
    EXPECT_EQ(stats.start_slice, kill_slice);
    EXPECT_EQ(store, want);
  }
}

// ---------------------------------------------------------------------------
// Storms: spatially correlated joins
// ---------------------------------------------------------------------------

constexpr const char* k_storm_spec = R"(scenario stormy
start-hour 0
duration 2

cohort meters
  device tablet
  count 400
  join 0 1.5
  storm 0.5 0.6 0 0 1000 1000
)";

TEST(ScenarioSpec, ParsesStormAndFingerprintsIt) {
  const ScenarioSpec spec = parse_scenario_string(k_storm_spec);
  ASSERT_EQ(spec.cohorts.size(), 1u);
  const CohortSpec& c = spec.cohorts[0];
  ASSERT_TRUE(c.has_storm);
  EXPECT_DOUBLE_EQ(c.storm_from_h, 0.5);
  EXPECT_DOUBLE_EQ(c.storm_to_h, 0.6);
  EXPECT_DOUBLE_EQ(c.storm_x0, 0.0);
  EXPECT_DOUBLE_EQ(c.storm_x1, 1000.0);

  // The storm is part of the scenario identity (a resume under a changed
  // storm must be rejected), and dropping it changes the fingerprint.
  std::string without(k_storm_spec);
  without = without.substr(0, without.find("  storm"));
  EXPECT_NE(spec.fingerprint,
            parse_scenario_string(without).fingerprint);
  std::string wider(k_storm_spec);
  wider.replace(wider.find("0.5 0.6"), 7, "0.5 0.7");
  EXPECT_NE(spec.fingerprint, parse_scenario_string(wider).fingerprint);
}

TEST(ScenarioSpec, StormRejectsMalformedArguments) {
  const auto reject = [](const std::string& storm_line) {
    const std::string text = std::string("scenario s\nduration 2\n") +
                             "cohort c\n  count 5\n  " + storm_line + "\n";
    EXPECT_THROW(parse_scenario_string(text), ScenarioError) << storm_line;
  };
  reject("storm 0.5");                          // arity
  reject("storm 0.6 0.5 0 0 1000 1000");        // window inverted
  reject("storm 0.5 0.6 1000 0 1000 1000");     // empty rectangle (x)
  reject("storm 0.5 0.6 0 1000 1000 1000");     // empty rectangle (y)
  reject("storm 0.5 0.6 -5 0 1000 1000");       // negative coordinate
  reject("storm 0.5 9 0 0 1000 1000");          // past scenario end
}

TEST(ScenarioCompile, StormWithoutSpatialLayerIsRejected) {
  const ScenarioSpec spec = parse_scenario_string(k_storm_spec);
  try {
    compile(spec, lte_model());
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("spatial"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("meters"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioCompile, StormOverridesJoinsInsideTheRegionOnly) {
  const spatial::SpatialConfig cfg = spatial::load_spatial("grid:4x4x500");
  CompileOptions copts;
  copts.seed = 7;
  copts.spatial = &cfg;
  const ScenarioSpec spec = parse_scenario_string(k_storm_spec);
  const CompiledScenario cs = compile(spec, lte_model(), copts);

  const TimeMs storm_from = cs.plan.t_begin +
                            static_cast<TimeMs>(0.5 * k_ms_per_hour);
  const TimeMs storm_to = cs.plan.t_begin +
                          static_cast<TimeMs>(0.6 * k_ms_per_hour);
  std::size_t inside = 0, outside = 0;
  for (const stream::UeSegment& seg : cs.plan.segments) {
    const spatial::Vec2 home =
        spatial::home_position(cfg, copts.seed, seg.ue, DeviceType::tablet);
    const bool in_region =
        home.x >= 0.0 && home.x < 1000.0 && home.y >= 0.0 && home.y < 1000.0;
    if (in_region) {
      // Synchronized wakeup: the join lands inside the storm window.
      EXPECT_GE(seg.t_start, storm_from) << "ue " << seg.ue;
      EXPECT_LT(seg.t_start, storm_to) << "ue " << seg.ue;
      ++inside;
    } else {
      ++outside;
    }
  }
  // The 1 km x 1 km region is a quarter of the 2 km x 2 km grid; both
  // populations must be well represented for the test to mean anything.
  EXPECT_GT(inside, 40u);
  EXPECT_GT(outside, 40u);

  // Determinism: recompiling yields the identical join schedule.
  const CompiledScenario again = compile(spec, lte_model(), copts);
  ASSERT_EQ(again.plan.segments.size(), cs.plan.segments.size());
  for (std::size_t i = 0; i < cs.plan.segments.size(); ++i) {
    EXPECT_EQ(again.plan.segments[i].ue, cs.plan.segments[i].ue);
    EXPECT_EQ(again.plan.segments[i].t_start, cs.plan.segments[i].t_start);
  }
}

}  // namespace
}  // namespace cpg::scenario
