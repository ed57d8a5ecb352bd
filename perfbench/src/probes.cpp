// Per-layer probes of a traced run: each calls one layer's public entry
// points directly on the workload's own data and times it from outside.
#include <malloc.h>

#include <algorithm>
#include <sstream>

#include "core/rng.h"
#include "dist/wire.h"
#include "generator/ue_generator.h"
#include "obs/metrics.h"
#include "scenario/spec.h"
#include "spatial/spatializer.h"
#include "stream/merge.h"
#include "workloads.h"

namespace cpg::perfbench {

namespace {

constexpr int k_probe_reps = 5;
// Spatial spec the cell and wire probes use on workloads without one.
constexpr const char* k_probe_spatial = "storm.spatial";

double median_of(std::vector<double> v) { return summarize(std::move(v)).median; }

template <typename Fn>
double time_ns(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0);
}

// The stationary population of `w` as a scenario spec: one cohort per
// device type, all present from the start, which compiles to the same
// population the stationary plan holds.
std::string stationary_spec(const WorkloadSpec& w) {
  const gen::GenerationRequest req = stationary_request(w, 1, 0.0);
  std::ostringstream os;
  os << "scenario stationary-" << w.name << "\nstart-hour " << w.start_hour
     << "\nduration " << w.hours << "\n";
  const char* names[] = {"phone", "car", "tablet"};
  const DeviceType devices[] = {DeviceType::phone, DeviceType::connected_car,
                                DeviceType::tablet};
  for (int i = 0; i < 3; ++i) {
    const std::size_t n = req.ue_counts[index_of(devices[i])];
    if (n == 0) continue;
    os << "cohort " << names[i] << "s\n  device " << names[i] << "\n  count "
       << n << "\n  join 0\n";
  }
  return os.str();
}

Digest digest_of(const EventColumns& c) {
  Digest d;
  d.add(c.view());
  return d;
}

}  // namespace

std::map<std::string, double> run_layer_probes(const WorkloadSpec& w,
                                               const Setup& setup,
                                               const Paths& paths,
                                               std::uint64_t seed,
                                               SpanLog* log) {
  std::map<std::string, double> v;
  const stream::PopulationPlan& plan = setup.plan();

  // Set-up layers the workload's own set-up does not go through.
  std::unique_ptr<spatial::SpatialConfig> probe_spatial;
  const spatial::SpatialConfig* cells_cfg = setup.spatial.get();
  if (w.scenario.empty()) {
    ScopedSpan span(log, "probe.scenario", "probes");
    const std::int64_t t0 = now_ns();
    const scenario::ScenarioSpec spec =
        scenario::parse_scenario_string(stationary_spec(w), "stationary");
    scenario::CompileOptions copts;
    copts.seed = seed;
    const scenario::CompiledScenario compiled =
        scenario::compile(spec, *setup.models, copts);
    v["scenario.compile_s"] = static_cast<double>(now_ns() - t0) / 1e9;
    v["check.scenario_population"] =
        compiled.plan.device_of.size() == plan.device_of.size() ? 1 : 0;
    const std::int64_t t1 = now_ns();
    probe_spatial = std::make_unique<spatial::SpatialConfig>(
        spatial::load_spatial(paths.fixtures + "/" + k_probe_spatial));
    v["spatial.load_s"] = static_cast<double>(now_ns() - t1) / 1e9;
    cells_cfg = probe_spatial.get();
  } else {
    ScopedSpan span(log, "probe.plan", "probes");
    gen::GenerationRequest req;
    for (DeviceType d : plan.device_of) ++req.ue_counts[index_of(d)];
    req.start_hour = static_cast<int>(plan.t_begin / k_ms_per_hour);
    req.duration_hours = static_cast<double>(plan.t_end - plan.t_begin) /
                         static_cast<double>(k_ms_per_hour);
    req.seed = seed;
    const std::int64_t t0 = now_ns();
    const stream::PopulationPlan p = stream::stationary_plan(*setup.models, req);
    v["stream.plan_s"] = static_cast<double>(now_ns() - t0) / 1e9;
    v["check.plan_population"] =
        p.device_of.size() == plan.device_of.size() ? 1 : 0;
  }

  // Generator: the segments one shard of an in-process run owns
  // (ue % k_shards == 0), driven slice by slice like a worker.
  obs::Registry reg;
  const gen::GenMetrics gm = gen::GenMetrics::register_in(reg);
  std::vector<gen::UeGenOptions> opts(plan.models.size(), plan.ue_options);
  for (std::size_t m = 0; m < plan.models.size(); ++m) {
    opts[m].compiled = plan.models[m].compiled;  // set by make_setup
    opts[m].metrics = &gm;
  }
  std::vector<const stream::UeSegment*> segs;
  for (const stream::UeSegment& seg : plan.segments) {
    if (seg.ue % k_shards != 0) continue;
    if (!plan.models[seg.model].models->device(plan.device_of[seg.ue])
             .has_ues()) {
      continue;
    }
    segs.push_back(&seg);
  }
  std::vector<gen::UeSliceGenerator> gens;
  gens.reserve(segs.size());
  EventColumns slice;
  EventColumns biggest;
  double init_ns = 0;
  {
    ScopedSpan span(log, "probe.generator.init", "probes");
    const std::size_t heap0 = ::mallinfo2().uordblks;
    init_ns += time_ns([&] {
      for (const stream::UeSegment* seg : segs) {
        const DeviceType d = plan.device_of[seg->ue];
        const model::DeviceModel& dev =
            plan.models[seg->model].models->device(d);
        Rng rng(plan.seed, static_cast<std::uint64_t>(seg->ue) +
                               (static_cast<std::uint64_t>(seg->rng_salt)
                                << 32));
        const auto modeled = static_cast<std::uint32_t>(
            rng.uniform_index(dev.ue_traj.size()));
        gens.emplace_back(*plan.models[seg->model].models, d, modeled,
                          seg->t_start, seg->t_end,
                          static_cast<UeId>(seg->ue), rng, opts[seg->model]);
      }
    });
    const std::size_t heap1 = ::mallinfo2().uordblks;
    // Starting a generator draws its first event.
    init_ns += time_ns([&] {
      for (std::size_t i = 0; i < gens.size(); ++i) {
        gens[i].advance(segs[i]->t_start + 1, slice);
      }
    });
    const double n = std::max<double>(1.0, static_cast<double>(gens.size()));
    v["generator.ue_init_ns"] = init_ns / n;
    v["generator.state_bytes_per_ue"] =
        static_cast<double>(sizeof(gen::UeSliceGenerator)) +
        static_cast<double>(heap1 > heap0 ? heap1 - heap0 : 0) / n;
  }
  std::sort(gens.begin(), gens.end(),
            [](const gen::UeSliceGenerator& a, const gen::UeSliceGenerator& b) {
              if (a.device() != b.device()) {
                return index_of(a.device()) < index_of(b.device());
              }
              if (a.modeled_ue() != b.modeled_ue()) {
                return a.modeled_ue() < b.modeled_ue();
              }
              return a.ue_id() < b.ue_id();
            });
  const std::uint64_t start_events = slice.size();
  std::uint64_t events = 0;
  double advance_ns = 0;
  {
    ScopedSpan span(log, "probe.generator.advance", "probes");
    for (TimeMs limit = plan.t_begin + k_slice_ms;; limit += k_slice_ms) {
      const std::size_t before = slice.size();
      advance_ns += time_ns([&] {
        for (gen::UeSliceGenerator& g : gens) g.advance(limit, slice);
      });
      events += slice.size() - before;
      std::erase_if(gens,
                    [](const gen::UeSliceGenerator& g) { return g.done(); });
      if (slice.size() > biggest.size()) biggest = slice;
      slice.clear();
      if (limit >= plan.t_end) break;
    }
  }
  const double all_events =
      static_cast<double>(std::max<std::uint64_t>(1, events + start_events));
  v["generator.advance_ns_per_event"] =
      advance_ns / static_cast<double>(std::max<std::uint64_t>(1, events));
  v["generator.redraws_per_event"] =
      static_cast<double>(gm.sub_wait_redraws->value()) / all_events;
  v["probe.slice_events"] = static_cast<double>(biggest.size());
  if (biggest.empty()) {
    v["check.probe_slice_nonempty"] = 0;
    return v;
  }
  const double n = static_cast<double>(biggest.size());

  // core: radix sort of the busiest slice, exactly as the shard emitted it.
  EventColumns sorted;
  {
    ScopedSpan span(log, "probe.sort", "probes");
    ColumnSortScratch scratch;
    std::vector<double> ns;
    for (int r = 0; r < k_probe_reps; ++r) {
      sorted = biggest;
      ns.push_back(time_ns([&] { sort_columns(sorted, scratch); }));
    }
    v["core.sort_ns_per_event"] = median_of(ns) / n;
    v["check.sort_order"] = digest_of(sorted).ordered ? 1 : 0;
  }

  // stream: gallop merge of the slice split into one run per shard.
  {
    ScopedSpan span(log, "probe.merge", "probes");
    std::vector<EventColumns> runs(k_shards);
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      runs[(sorted.ue[i] / k_shards) % k_shards].push_back(
          sorted[i]);
    }
    EventColumns merged;
    merged.reserve(sorted.size());
    std::vector<double> ns;
    for (int r = 0; r < k_probe_reps; ++r) {
      merged.clear();
      ns.push_back(time_ns([&] {
        stream::gallop_merge(std::span<const EventColumns>(runs),
                             [&](std::size_t run, std::size_t b,
                                 std::size_t e) {
                               merged.append(
                                   runs[run].view().subview(b, e - b));
                             });
      }));
    }
    v["stream.merge_ns_per_event"] = median_of(ns) / n;
    v["check.merge_equals_sort"] =
        digest_of(merged).same_stream(digest_of(sorted)) ? 1 : 0;
  }

  // spatial: the serving/target cell of every event of the slice.
  {
    ScopedSpan span(log, "probe.spatial", "probes");
    std::vector<double> ns;
    sorted.cell.assign(sorted.size(), 0);
    for (int r = 0; r < k_probe_reps; ++r) {
      spatial::Spatializer sp(*cells_cfg, plan.seed, plan.device_of,
                              plan.t_begin);
      ns.push_back(time_ns([&] {
        for (std::size_t i = 0; i < sorted.size(); ++i) {
          sorted.cell[i] = sp.cell_for(sorted.ue[i], sorted.ts[i],
                                       sorted.type[i]);
        }
      }));
    }
    v["spatial.cell_ns_per_event"] = median_of(ns) / n;
  }

  // dist: the wire codec over the cell-annotated slice.
  {
    ScopedSpan span(log, "probe.wire", "probes");
    std::vector<double> enc, dec;
    std::string payload;
    EventColumns decoded;
    for (int r = 0; r < k_probe_reps; ++r) {
      payload.clear();
      decoded.clear();
      enc.push_back(time_ns(
          [&] { dist::append_events_cells(payload, sorted.view()); }));
      dec.push_back(time_ns(
          [&] { dist::decode_events_cells(payload, decoded); }));
    }
    v["dist.wire_encode_ns_per_event"] = median_of(enc) / n;
    v["dist.wire_decode_ns_per_event"] = median_of(dec) / n;
    v["dist.wire_bytes_per_event"] = static_cast<double>(payload.size()) / n;
    v["check.wire_roundtrip"] =
        digest_of(decoded).same_stream(digest_of(sorted)) ? 1 : 0;
  }
  return v;
}

}  // namespace cpg::perfbench
