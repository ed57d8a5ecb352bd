#include "generator/traffic_generator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "generator/trajectory_order.h"
#include "model/compiled.h"

namespace cpg::gen {

GenerationRequest scaled(GenerationRequest req, double factor) {
  for (auto& c : req.ue_counts) {
    c = static_cast<std::size_t>(std::llround(static_cast<double>(c) *
                                              factor));
  }
  return req;
}

void validate(const GenerationRequest& request) {
  if (request.start_hour < 0 || request.start_hour > 23) {
    throw std::invalid_argument(
        "GenerationRequest: start_hour must be an hour of day in [0, 23], "
        "got " +
        std::to_string(request.start_hour));
  }
  if (!(request.duration_hours > 0.0) ||
      !std::isfinite(request.duration_hours)) {
    throw std::invalid_argument(
        "GenerationRequest: duration_hours must be > 0 and finite");
  }
  std::size_t total = 0;
  for (std::size_t c : request.ue_counts) total += c;
  if (total == 0) {
    throw std::invalid_argument(
        "GenerationRequest: ue_counts must request at least one UE");
  }
}

Trace generate_trace(const model::ModelSet& models,
                     const GenerationRequest& request) {
  validate(request);
  Trace trace;
  // Register UEs in deterministic device-block order.
  std::vector<DeviceType> device_of;
  for (DeviceType d : k_all_device_types) {
    for (std::size_t i = 0; i < request.ue_counts[index_of(d)]; ++i) {
      trace.add_ue(d);
      device_of.push_back(d);
    }
  }
  const std::size_t total_ues = device_of.size();
  if (total_ues == 0) return trace;

  const TimeMs t_begin =
      static_cast<TimeMs>(request.start_hour) * k_ms_per_hour;
  const TimeMs t_end =
      t_begin +
      static_cast<TimeMs>(request.duration_hours *
                          static_cast<double>(k_ms_per_hour));

  unsigned workers = request.num_threads != 0
                         ? request.num_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min<unsigned>(
      workers, static_cast<unsigned>(std::max<std::size_t>(1, total_ues)));

  // Compile the sampling plan once per call; every worker samples from the
  // same read-only arenas. Declared before the worker lambda so it outlives
  // the threads.
  std::optional<model::CompiledModel> local_plan;
  UeGenOptions ue_options = request.ue_options;
  if (ue_options.compiled == nullptr && ue_options.use_compiled) {
    local_plan.emplace(model::compile(models));
    ue_options.compiled = &*local_plan;
  }

  // Generate in trajectory-grouped order (generator/trajectory_order.h).
  // The final sort restores canonical time order, making generation order
  // (and hence this grouping, the chunking, and the thread count)
  // output-invariant. Workers replay the trajectory draw from each UE's
  // private stream, so the ordering pass costs one extra draw per UE. UEs
  // of a device the model fitted no UEs for emit nothing and get no key.
  std::vector<TrajectoryKey> order;
  order.reserve(total_ues);
  for (std::size_t u = 0; u < total_ues; ++u) {
    const DeviceType d = device_of[u];
    const model::DeviceModel& dev = models.device(d);
    if (!dev.has_ues()) continue;
    Rng rng(request.seed, static_cast<std::uint64_t>(u));
    order.push_back({draw_modeled_ue(dev, rng), static_cast<UeId>(u), 0, d});
  }
  sort_trajectory_order(order);

  std::vector<std::vector<ControlEvent>> results(workers);
  std::atomic<std::size_t> next{0};
  constexpr std::size_t k_chunk = 256;

  auto work = [&](unsigned worker_idx) {
    auto& out = results[worker_idx];
    while (true) {
      const std::size_t begin = next.fetch_add(k_chunk);
      if (begin >= order.size()) break;
      const std::size_t end = std::min(begin + k_chunk, order.size());
      for (std::size_t i = begin; i < end; ++i) {
        const TrajectoryKey& key = order[i];
        Rng rng(request.seed, static_cast<std::uint64_t>(key.ue));
        draw_modeled_ue(models.device(key.device), rng);  // replay
        generate_ue(models, key.device, key.modeled_ue, t_begin, t_end,
                    key.ue, rng, ue_options, out);
      }
    }
  };

  if (workers == 1) {
    work(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) threads.emplace_back(work, w);
    for (auto& t : threads) t.join();
  }
  std::vector<TrajectoryKey>().swap(order);

  std::size_t total_events = 0;
  for (const auto& r : results) total_events += r.size();
  trace.reserve_events(total_events);
  for (auto& r : results) {
    trace.append_events(r);
    // Return each worker buffer eagerly so finalize()'s scatter scratch
    // reuses this memory instead of raising the peak RSS.
    std::vector<ControlEvent>().swap(r);
  }
  trace.finalize();
  return trace;
}

}  // namespace cpg::gen
