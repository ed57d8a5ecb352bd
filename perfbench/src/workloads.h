// The benchmark's workloads and the measured run over one of them.
//
// A run fits a fixture model from the seed, sets the workload up once
// untimed, warms up, then repeats measurement rounds until the time budget
// is spent. A round is one primary pass (the workload's headline stream,
// in-process or through forked ranks) and the disk passes over the
// workload's disk window (cpgt write, its read-back, CSV write), with a
// timed set-up (setup_s) before the primary pass. Short rounds sample the
// host's speed at many points of the run. Every pass runs in a forked
// child and every pass's output is checked.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "model/compiled.h"
#include "model/semi_markov.h"
#include "proc.h"
#include "scenario/scenario.h"
#include "spatial/config.h"
#include "stats.h"
#include "stream/population.h"

namespace cpg::perfbench {

// Generation threads of an in-process run; the calling thread delivers, so
// a pass keeps two threads busy. A ranked run forks k_ranks ranks, each one
// generation thread plus the thread that sends its frames, and the pass's
// process merges them. The host is a 4-vCPU VM whose cores other guests
// share, and a pass is as slow as its slowest busy thread: every thread
// more is one more vCPU whose contention the pass absorbs. With 3
// generation threads events_per_s on million_ue varied 15.9% pass to pass,
// with 2 it varied 4.2%; with 2 threads and 3 ranks the run medians of
// storm_ranks over five seeds still spread 26-45%, with 1 thread and 2
// ranks 15-27%. The one generation thread still runs k_shards shards, so
// the delivery thread merges shards as in a multi-threaded run.
inline constexpr unsigned k_gen_threads = 1;
inline constexpr unsigned k_shards = 2;
inline constexpr unsigned k_ranks = 2;
inline constexpr TimeMs k_slice_ms = 10 * k_ms_per_minute;

struct WorkloadSpec {
  std::string name;
  std::string why;
  // Stationary population (63/25/12 phone/car/tablet) and window; unused
  // when `scenario` is set.
  std::size_t ues = 0;
  int start_hour = 10;
  double hours = 0.0;
  // Scenario and spatial spec files, relative to the fixtures directory.
  std::string scenario;
  std::string spatial;
  // 0 = generate in-process; otherwise the primary pass forks this many
  // ranks (dist::run_worker) merged by dist::run_merge.
  unsigned ranks = 0;
  // Window of the disk passes, from the workload's start; 0 = the whole
  // window. Stationary workloads only.
  double disk_hours = 0.0;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

// Everything a pass needs, built by make_setup. Not movable: the plan
// points into the model bank.
struct Setup {
  std::unique_ptr<model::ModelSet> models;
  std::unique_ptr<model::CompiledModel> compiled;
  std::unique_ptr<spatial::SpatialConfig> spatial;  // null = none
  std::optional<scenario::CompiledScenario> scen;
  stream::PopulationPlan stationary;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  const stream::PopulationPlan& plan() const {
    return scen.has_value() ? scen->plan : stationary;
  }
};

struct Paths {
  std::string fixtures;  // scenario/spatial spec files
  std::string work;      // per-run scratch: model file, outputs
  std::string model() const { return work + "/model.txt"; }
};

// Stationary request of `w` over `hours` (0 = the workload's window).
gen::GenerationRequest stationary_request(const WorkloadSpec& w,
                                          std::uint64_t seed, double hours);

// Loads the model file, compiles it, loads the spatial spec and builds the
// plan (scenario compile or stationary plan over `hours`). Each step's
// wall time lands in `log` under its per-layer name when `log` is set.
std::unique_ptr<Setup> make_setup(const WorkloadSpec& w, const Paths& paths,
                                  std::uint64_t seed, double hours,
                                  SpanLog* log);

// Fits the fixture model on a synthetic ground truth drawn from `seed` and
// saves it to paths.model().
void write_fixture_model(const Paths& paths, std::uint64_t seed);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Paths paths;
  std::string trace_out;  // Chrome trace path of a traced run
};

struct MetricValue {
  std::string name;
  std::string unit;
  double value = 0.0;  // the median, or a stated percentile
  Summary summary;
  std::vector<double> samples;
};

struct RunOutcome {
  CheckLedger ledger;
  std::vector<MetricValue> end_to_end;
  std::vector<MetricValue> per_layer;
  std::string fingerprint;  // JSON object
  std::uint64_t rounds = 0;
};

RunOutcome run_workload(const RunConfig& cfg);

// Output checks of one stream pass, counted in `ledger`: the pass ran (a
// thrown exception or crash in the child is a failed check), events arrived
// in canonical order, per-type counts sum to the total, the digest covers
// every reported event, and it matches `ref`, the digest every delivery of
// the same plan must have; the first pass that passes the other checks sets
// `ref`. Returns whether every check passed.
bool check_stream(CheckLedger& ledger, const ChildReport& rep,
                  const std::string& what, std::optional<Digest>& ref);

// `s` as a JSON string literal (quotes and backslashes escaped, control
// characters dropped).
std::string json_quote(const std::string& s);

// Per-layer probes of a traced run that call into single layers directly
// (probes.cpp): generator, sort, merge, wire, spatial, scenario compile.
// Runs in the calling process; values are keyed by metric name.
std::map<std::string, double> run_layer_probes(const WorkloadSpec& w,
                                               const Setup& setup,
                                               const Paths& paths,
                                               std::uint64_t seed,
                                               SpanLog* log);

}  // namespace cpg::perfbench
