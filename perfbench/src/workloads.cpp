#include "workloads.h"

#include <malloc.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dist/coordinator.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "io/model_io.h"
#include "model/fit.h"
#include "obs/metrics.h"
#include "scenario/spec.h"
#include "stream/binary_sink.h"
#include "stream/csv_sink.h"
#include "stream/stream_generator.h"
#include "synthetic/workload.h"
#include "trace_fmt/reader.h"

#ifndef CPG_PERFBENCH_BUILD_TYPE
#define CPG_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef CPG_PERFBENCH_COMPILER
#define CPG_PERFBENCH_COMPILER "unknown"
#endif

namespace cpg::perfbench {

namespace fs = std::filesystem;

namespace {

// Fixture model: fitted on a synthetic ground truth of this many UEs over
// two days, the shape stream_gen's demo model uses.
constexpr std::size_t k_fixture_ues = 2000;
constexpr double k_fixture_hours = 48.0;
constexpr std::size_t k_fixture_theta_n = 50;
constexpr unsigned k_fixture_threads = 3;

constexpr int k_min_rounds = 3;
constexpr double k_warmup_s = 2.0;
constexpr int k_max_rounds = 64;
constexpr std::size_t k_min_reads = 3;
constexpr double k_min_read_s = 0.2;

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

stream::StreamOptions stream_options(const Setup& s) {
  stream::StreamOptions o;
  o.num_threads = k_gen_threads;
  o.num_shards = k_shards;
  o.slice_ms = k_slice_ms;
  o.spatial = s.spatial.get();
  return o;
}

// Times every call into the wrapped sink. Busy time is spent inside the
// sink; wait time is the delivery thread's time between sink calls (merge
// plus waiting for producers); a slice gap is the time between the first
// deliveries of two consecutive slices.
class TimedSink final : public stream::EventSink {
 public:
  TimedSink(stream::EventSink& inner, TimeMs t_begin, std::vector<Span>* spans,
            std::string name, std::string parent)
      : inner_(inner),
        t_begin_(t_begin),
        spans_(spans),
        name_(std::move(name)),
        parent_(std::move(parent)),
        pid_(static_cast<int>(::getpid())) {}

  void on_start(const stream::StreamHeader& header) override {
    inner_.on_start(header);
    last_end_ = now_ns();
  }
  void on_event(const ControlEvent& e) override {
    begin(e.t_ms, 1);
    inner_.on_event(e);
    end();
  }
  void on_events(std::span<const ControlEvent> events) override {
    if (events.empty()) return inner_.on_events(events);
    begin(events.front().t_ms, events.size());
    inner_.on_events(events);
    end();
  }
  void on_event_columns(const EventColumnsView& cols) override {
    if (cols.empty()) return inner_.on_event_columns(cols);
    begin(cols.ts[0], cols.n);
    inner_.on_event_columns(cols);
    end();
  }
  void on_finish() override {
    const std::int64_t t0 = now_ns();
    inner_.on_finish();
    finish_ns_ = now_ns() - t0;
  }

  double busy_s() const { return static_cast<double>(busy_ns_) / 1e9; }
  double wait_s() const { return static_cast<double>(wait_ns_) / 1e9; }
  double finish_s() const { return static_cast<double>(finish_ns_) / 1e9; }
  const std::vector<double>& slice_gaps_ms() const { return gaps_ms_; }

 private:
  void begin(TimeMs first_ts, std::size_t) {
    const std::int64_t t = now_ns();
    if (last_end_ != 0) wait_ns_ += t - last_end_;
    const TimeMs slice = (first_ts - t_begin_) / k_slice_ms;
    if (!have_slice_ || slice != last_slice_) {
      if (have_slice_) {
        gaps_ms_.push_back(static_cast<double>(t - slice_start_) / 1e6);
      }
      have_slice_ = true;
      last_slice_ = slice;
      slice_start_ = t;
    }
    call_start_ = t;
  }
  void end() {
    const std::int64_t t = now_ns();
    busy_ns_ += t - call_start_;
    last_end_ = t;
    if (spans_ != nullptr) {
      spans_->push_back(Span{name_, parent_, call_start_, t, pid_});
    }
  }

  stream::EventSink& inner_;
  TimeMs t_begin_;
  std::vector<Span>* spans_;
  std::string name_;
  std::string parent_;
  int pid_;
  std::int64_t call_start_ = 0;
  std::int64_t last_end_ = 0;
  std::int64_t busy_ns_ = 0;
  std::int64_t wait_ns_ = 0;
  std::int64_t finish_ns_ = 0;
  bool have_slice_ = false;
  TimeMs last_slice_ = 0;
  std::int64_t slice_start_ = 0;
  std::vector<double> gaps_ms_;
};

double registry_counter_sum(const obs::Registry& reg, const std::string& name) {
  double sum = 0;
  for (const obs::FamilySnapshot& f : reg.snapshot()) {
    if (f.name != name) continue;
    for (const obs::SeriesSnapshot& s : f.series) {
      sum += static_cast<double>(s.counter);
    }
  }
  return sum;
}

enum class SinkKind { digest, csv, cpgt };

// One measured stream pass: `plan` (built by make_setup over `hours`)
// streamed into a digest sink, optionally fanned out to a file sink, either
// in-process or through `ranks` forked ranks.
struct PassInput {
  const WorkloadSpec* w = nullptr;
  const Setup* setup = nullptr;
  const Paths* paths = nullptr;
  std::uint64_t seed = 0;
  double hours = 0.0;
  unsigned ranks = 0;
  SinkKind sink = SinkKind::digest;
  std::string prefix;  // output file prefix for the file sinks
  bool traced = false;
};

// Worker-rank process body: sets the workload up from the model file like
// any rank would, streams its slice to the coordinator, reports
// "<rank> <startup_s> <rank_s> <rss_mb>" (seconds since the fork) on
// `result_fd` and exits.
[[noreturn]] void rank_main(const PassInput& in, unsigned rank,
                            dist::RankTransport& transport, int result_fd,
                            std::int64_t t_fork) {
  char line[256];
  int code = 0;
  try {
    const long rss0 = status_kb("VmRSS");
    const std::unique_ptr<Setup> setup =
        make_setup(*in.w, *in.paths, in.seed, in.hours, nullptr);
    const std::int64_t t_ready = now_ns();
    obs::Registry reg;
    dist::WorkerOptions wo;
    wo.rank = rank;
    wo.num_ranks = in.ranks;
    wo.stream = stream_options(*setup);
    wo.stream.num_threads = 1;
    wo.stream.num_shards = 1;
    if (in.traced) wo.stream.metrics = &reg;
    dist::run_worker(setup->plan(), transport, wo);
    const std::int64_t t_done = now_ns();
    std::snprintf(line, sizeof line, "%u %.9f %.9f %.6f\n", rank,
                  seconds_between(t_fork, t_ready),
                  seconds_between(t_fork, t_done),
                  static_cast<double>(status_kb("VmHWM") - rss0) / 1024.0);
  } catch (const std::exception& e) {
    code = 1;
    std::snprintf(line, sizeof line, "%u error\n", rank);
    std::fprintf(stderr, "perfbench: rank %u: %s\n", rank, e.what());
  }
  [[maybe_unused]] const ssize_t n =
      ::write(result_fd, line, std::strlen(line));
  ::_exit(code);
}

void reap(pid_t pid, int* status) {
  while (::waitpid(pid, status, 0) < 0 && errno == EINTR) {
  }
}

// Forks in.ranks worker processes and merges their streams into `sink`.
// Returns the merged event count; rank timings land in `report`.
std::uint64_t run_ranks(const PassInput& in, stream::EventSink& sink,
                        obs::Registry* reg, ChildReport& report,
                        std::uint64_t* peak_buffered) {
  const unsigned n = in.ranks;
  int res[2];
  if (::pipe(res) != 0) throw std::runtime_error("pipe failed");
  std::vector<std::unique_ptr<dist::FdTransport>> wend(n);
  std::vector<std::unique_ptr<dist::FdTransport>> cend(n);
  for (unsigned r = 0; r < n; ++r) {
    auto [w, c] = dist::make_transport_pair();
    wend[r] = std::move(w);
    cend[r] = std::move(c);
  }
  std::vector<pid_t> pids(n, -1);
  std::fflush(nullptr);
  for (unsigned r = 0; r < n; ++r) {
    const std::int64_t t_fork = now_ns();
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (unsigned k = 0; k < r; ++k) ::kill(pids[k], SIGKILL);
      for (unsigned k = 0; k < r; ++k) reap(pids[k], nullptr);
      throw std::runtime_error("fork of a rank failed");
    }
    if (pid == 0) {
      ::close(res[0]);
      for (unsigned k = 0; k < n; ++k) {
        ::close(cend[k]->fd());
        if (k != r) ::close(wend[k]->fd());
      }
      rank_main(in, r, *wend[r], res[1], t_fork);
    }
    pids[r] = pid;
  }
  ::close(res[1]);
  for (auto& w : wend) w.reset();

  dist::CoordinatorOptions copts;
  copts.stream = stream_options(*in.setup);
  copts.stream.metrics = reg;
  std::vector<dist::RankTransport*> transports;
  for (auto& c : cend) transports.push_back(c.get());
  dist::DistStats stats;
  try {
    stats = dist::run_merge(in.setup->plan(), transports, sink, copts);
  } catch (...) {
    for (auto& c : cend) c->abort();
    for (pid_t p : pids) ::kill(p, SIGKILL);
    for (pid_t p : pids) reap(p, nullptr);
    ::close(res[0]);
    throw;
  }
  bool ranks_ok = true;
  for (pid_t p : pids) {
    int status = 0;
    reap(p, &status);
    ranks_ok = ranks_ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  std::string text;
  char buf[1024];
  while (true) {
    const ssize_t got = ::read(res[0], buf, sizeof buf);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    text.append(buf, static_cast<std::size_t>(got));
  }
  ::close(res[0]);
  if (!ranks_ok) throw std::runtime_error("a rank process failed");
  std::istringstream is(text);
  unsigned rank = 0;
  double startup = 0, wall = 0, rss = 0;
  double rss_sum = 0;
  unsigned reported = 0;
  while (is >> rank >> startup >> wall >> rss) {
    report.series["rank_startup_s"].push_back(startup);
    report.series["rank_s"].push_back(wall);
    rss_sum += rss;
    ++reported;
  }
  if (reported != n) throw std::runtime_error("missing rank timings");
  report.values["ranks_rss_mb"] = rss_sum;
  std::uint64_t buffered = 0;
  for (const stream::StreamStats& s : stats.ranks) {
    buffered += s.peak_buffered_events;
  }
  *peak_buffered = buffered;
  return stats.totals.events;
}

std::uint64_t count_lines(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::uint64_t lines = 0;
  char buf[1 << 16];
  while (is) {
    is.read(buf, sizeof buf);
    const std::streamsize got = is.gcount();
    lines += static_cast<std::uint64_t>(std::count(buf, buf + got, '\n'));
  }
  return lines;
}

ChildReport stream_pass(const PassInput& in) {
  return run_in_child([&](ChildReport& report) {
    const long rss0 = status_kb("VmRSS");
    const stream::PopulationPlan& plan = in.setup->plan();
    DigestSink digest;
    std::unique_ptr<stream::EventSink> file;
    if (in.sink == SinkKind::csv) {
      file = std::make_unique<stream::CsvSink>(in.prefix);
    } else if (in.sink == SinkKind::cpgt) {
      file = std::make_unique<stream::BinarySink>(in.prefix);
    }
    std::vector<Span>* spans = in.traced ? &report.spans : nullptr;
    std::optional<TimedSink> timed_file;
    std::vector<stream::EventSink*> parts{&digest};
    if (file) {
      stream::EventSink* f = file.get();
      if (in.traced) {
        timed_file.emplace(*file, plan.t_begin, nullptr, "sink.file",
                           "sink.deliver");
        f = &*timed_file;
      }
      parts.push_back(f);
    }
    stream::FanoutSink fan(parts);
    stream::EventSink* delivery = file ? static_cast<stream::EventSink*>(&fan)
                                       : &digest;
    std::optional<TimedSink> timed;
    if (in.traced) {
      timed.emplace(*delivery, plan.t_begin, spans, "sink.deliver",
                    "stream.generate");
      delivery = &*timed;
    }
    obs::Registry reg;
    std::uint64_t events = 0;
    std::uint64_t peak_buffered = 0;
    const std::int64_t t0 = now_ns();
    if (in.ranks > 0) {
      events = run_ranks(in, *delivery, in.traced ? &reg : nullptr, report,
                         &peak_buffered);
    } else {
      stream::StreamOptions opts = stream_options(*in.setup);
      if (in.traced) opts.metrics = &reg;
      const stream::StreamStats stats =
          stream::stream_generate(plan, opts, *delivery);
      events = stats.events;
      peak_buffered = stats.peak_buffered_events;
    }
    const std::int64_t t1 = now_ns();
    report.values["events"] = static_cast<double>(events);
    report.values["wall_s"] = seconds_between(t0, t1);
    report.values["rss_mb"] =
        static_cast<double>(status_kb("VmHWM") - rss0) / 1024.0 +
        (report.values.count("ranks_rss_mb") ? report.values["ranks_rss_mb"]
                                             : 0.0);
    report.digests["out"] = digest.digest();
    if (in.traced) {
      report.spans.push_back(Span{"stream.generate", "pass",
                                  t0, t1, static_cast<int>(::getpid())});
      report.values["sink_busy_s"] = timed->busy_s();
      report.values["consumer_wait_s"] = timed->wait_s();
      report.series["slice_gap_ms"] = timed->slice_gaps_ms();
      report.values["producer_stall_s"] =
          registry_counter_sum(reg, "cpg_stream_producer_stall_us_total") /
          1e6;
      report.values["peak_buffered_events"] =
          static_cast<double>(peak_buffered);
      if (timed_file) {
        report.values["file_busy_s"] = timed_file->busy_s();
        report.values["file_finish_s"] = timed_file->finish_s();
      }
    }
    // Output checks read the files back outside the timed region.
    if (in.sink == SinkKind::csv) {
      const std::string events_csv = in.prefix + "_events.csv";
      const std::uint64_t lines = count_lines(events_csv);
      report.values["csv_rows"] = static_cast<double>(lines > 0 ? lines - 1 : 0);
      fs::remove(events_csv);
      fs::remove(in.prefix + "_ues.csv");
    } else if (in.sink == SinkKind::cpgt) {
      report.values["file_bytes"] = static_cast<double>(
          fs::file_size(stream::BinarySink::path_for(in.prefix)));
    }
  });
}

// Reads a cpgt file back block by block, k_min_reads times and until
// k_min_read_s has passed; only the reader is timed, and the pass reports
// every read's time. Every read's digest must agree with the first.
ChildReport read_pass(const std::string& path, bool traced) {
  return run_in_child([&](ChildReport& report) {
    std::vector<double> walls;
    std::optional<Digest> first;
    std::uint64_t end_block_events = 0;
    const std::int64_t t_start = now_ns();
    while (walls.size() < k_min_reads ||
           seconds_between(t_start, now_ns()) < k_min_read_s) {
      Digest digest;
      std::vector<ControlEvent> buf;
      const std::int64_t t_open = now_ns();
      std::int64_t read_ns = 0;
      trace_fmt::TraceReader reader(path);
      read_ns += now_ns() - t_open;
      while (true) {
        const std::int64_t t0 = now_ns();
        const bool more = reader.next_events(buf);
        read_ns += now_ns() - t0;
        if (!more) break;
        digest.add(buf,
                   reader.cells().empty() ? nullptr : reader.cells().data());
      }
      walls.push_back(static_cast<double>(read_ns) / 1e9);
      end_block_events = reader.total_events();
      if (traced) {
        report.spans.push_back(Span{"trace_fmt.read", "pass", t_open,
                                    t_open + read_ns,
                                    static_cast<int>(::getpid())});
      }
      if (!first.has_value()) {
        first = digest;
      } else if (!digest.same_stream(*first)) {
        throw std::runtime_error("cpgt reads of one file disagree");
      }
    }
    report.values["events"] = static_cast<double>(first->total);
    report.values["end_block_events"] = static_cast<double>(end_block_events);
    report.series["read_s"] = walls;
    report.digests["out"] = *first;
  });
}

double value_or(const ChildReport& rep, const std::string& key,
                double fallback = 0.0) {
  const auto it = rep.values.find(key);
  return it == rep.values.end() ? fallback : it->second;
}

std::vector<double> span_durations(const SpanLog& log,
                                   const std::string& name) {
  std::vector<double> out;
  for (const Span& s : log.spans()) {
    if (s.name == name) out.push_back(seconds_between(s.start_ns, s.end_ns));
  }
  return out;
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string fingerprint_json(const RunConfig& cfg, const WorkloadSpec& w,
                             const Setup& setup, double disk_hours,
                             const std::optional<Digest>& primary,
                             const std::optional<Digest>& disk) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  const stream::PopulationPlan& plan = setup.plan();
  const double window_h = static_cast<double>(plan.t_end - plan.t_begin) /
                          static_cast<double>(k_ms_per_hour);
  std::ostringstream os;
  os << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"affinity_cpus\": " << affinity << ", \"cpu_model\": "
     << json_quote(cpu_model()) << ", \"build_type\": \""
     << CPG_PERFBENCH_BUILD_TYPE << "\", \"compiler\": "
     << json_quote(CPG_PERFBENCH_COMPILER) << ", \"workload\": \""
     << w.name << "\", \"seed\": " << cfg.seed
     << ", \"seconds\": " << cfg.seconds
     << ", \"trace\": " << (cfg.trace ? "true" : "false")
     << ", \"ues\": " << plan.device_of.size() << ", \"window_h\": "
     << window_h << ", \"start_hour\": "
     << plan.t_begin / k_ms_per_hour
     << ", \"disk_window_h\": " << (disk_hours > 0 ? disk_hours : window_h)
     << ", \"events\": " << (primary ? primary->total : 0)
     << ", \"disk_events\": " << (disk ? disk->total : 0)
     << ", \"gen_threads\": " << k_gen_threads
     << ", \"shards\": " << (w.ranks > 0 ? 1u : k_shards)
     << ", \"delivery_threads\": 1, \"ranks\": "
     << (w.ranks > 0 ? w.ranks : 1u)
     << ", \"slice_min\": " << k_slice_ms / k_ms_per_minute
     << ", \"fixture\": {\"ues\": " << k_fixture_ues
     << ", \"hours\": " << k_fixture_hours << "}}";
  return os.str();
}

MetricValue metric(std::string name, std::string unit,
                   std::vector<double> samples) {
  MetricValue m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.summary = summarize(samples);
  m.value = m.summary.median;
  m.samples = std::move(samples);
  return m;
}

// A percentile of a pooled sample, which the metric keeps as its samples.
MetricValue percentile_metric(std::string name, std::string unit,
                              std::vector<double> samples, double p) {
  MetricValue m = metric(std::move(name), std::move(unit), samples);
  std::sort(samples.begin(), samples.end());
  m.value = samples.empty() ? 0.0 : percentile_sorted(samples, p);
  return m;
}

}  // namespace

bool check_stream(CheckLedger& ledger, const ChildReport& rep,
                  const std::string& what, std::optional<Digest>& ref) {
  ledger.check(rep.error.empty(), what + " ran" +
                                      (rep.error.empty() ? "" : ": " + rep.error));
  if (!rep.error.empty()) return false;
  const auto it = rep.digests.find("out");
  ledger.check(it != rep.digests.end(), what + " reported a digest");
  if (it == rep.digests.end()) return false;
  const Digest& d = it->second;
  const double events = rep.values.at("events");
  bool ok = true;
  auto expect = [&](bool cond, const std::string& msg) {
    ledger.check(cond, what + ": " + msg);
    ok = ok && cond;
  };
  expect(d.ordered, "events delivered in canonical order");
  expect(d.counts_consistent(), "per-type counts sum to the total");
  expect(static_cast<double>(d.total) == events,
         "digest covers every reported event");
  expect(d.total > 0, "stream is not empty");
  if (ref.has_value()) {
    expect(d.same_stream(*ref), "digest matches the reference stream");
  } else if (ok) {
    ref = d;
  }
  return ok;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> k_workloads = [] {
    auto stationary = [](std::string name, std::string why, std::size_t ues,
                         double hours) {
      WorkloadSpec w;
      w.name = std::move(name);
      w.why = std::move(why);
      w.ues = ues;
      w.hours = hours;
      return w;
    };
    std::vector<WorkloadSpec> all;
    all.push_back(stationary(
        "long_window",
        "40K UEs x 24 h stationary into a counting sink: per-event "
        "sampling, slice sort and shard merge dominate",
        40'000, 24.0));
    all.back().disk_hours = 2.0;
    all.push_back(stationary(
        "million_ue",
        "1M UEs x 0.25 h stationary: per-UE setup, first-event draws and "
        "slice buffering dominate",
        1'000'000, 0.25));
    all.back().disk_hours = 0.1;
    WorkloadSpec storm;
    storm.name = "storm_ranks";
    storm.why =
        "alarm storm scaled 10x (140K UEs) over 2 forked ranks: dist wire "
        "and merge, scenario phases, spatial cells";
    storm.scenario = "storm.scn";
    storm.spatial = "storm.spatial";
    storm.ranks = k_ranks;
    all.push_back(std::move(storm));
    return all;
  }();
  return k_workloads;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

gen::GenerationRequest stationary_request(const WorkloadSpec& w,
                                          std::uint64_t seed, double hours) {
  gen::GenerationRequest req;
  const std::size_t phones = w.ues * 63 / 100;
  const std::size_t cars = w.ues * 25 / 100;
  req.ue_counts[index_of(DeviceType::phone)] = phones;
  req.ue_counts[index_of(DeviceType::connected_car)] = cars;
  req.ue_counts[index_of(DeviceType::tablet)] = w.ues - phones - cars;
  req.start_hour = w.start_hour;
  req.duration_hours = hours > 0 ? hours : w.hours;
  req.seed = seed;
  req.num_threads = k_gen_threads;
  return req;
}

std::unique_ptr<Setup> make_setup(const WorkloadSpec& w, const Paths& paths,
                                  std::uint64_t seed, double hours,
                                  SpanLog* log) {
  auto s = std::make_unique<Setup>();
  {
    ScopedSpan span(log, "model.load", "setup");
    s->models =
        std::make_unique<model::ModelSet>(io::load_model(paths.model()));
  }
  {
    ScopedSpan span(log, "model.compile", "setup");
    s->compiled =
        std::make_unique<model::CompiledModel>(model::compile(*s->models));
  }
  if (!w.spatial.empty()) {
    ScopedSpan span(log, "spatial.load", "setup");
    s->spatial = std::make_unique<spatial::SpatialConfig>(
        spatial::load_spatial(paths.fixtures + "/" + w.spatial));
  }
  stream::PopulationPlan* plan = &s->stationary;
  if (!w.scenario.empty()) {
    ScopedSpan span(log, "scenario.compile", "setup");
    const scenario::ScenarioSpec spec =
        scenario::parse_scenario_file(paths.fixtures + "/" + w.scenario);
    scenario::CompileOptions copts;
    copts.seed = seed;
    copts.spatial = s->spatial.get();
    s->scen.emplace(scenario::compile(spec, *s->models, copts));
    plan = &s->scen->plan;
  } else {
    ScopedSpan span(log, "stream.plan", "setup");
    s->stationary =
        stream::stationary_plan(*s->models, stationary_request(w, seed, hours));
  }
  for (stream::ModelRef& ref : plan->models) {
    if (ref.models == s->models.get()) ref.compiled = s->compiled.get();
  }
  return s;
}

void write_fixture_model(const Paths& paths, std::uint64_t seed) {
  synthetic::WorkloadOptions opts =
      synthetic::default_population(k_fixture_ues);
  opts.duration_hours = k_fixture_hours;
  opts.seed = seed;
  opts.num_threads = k_fixture_threads;
  model::FitOptions fit;
  fit.method = model::Method::ours;
  fit.clustering.theta_n = k_fixture_theta_n;
  fit.seed = seed;
  fit.num_threads = k_fixture_threads;
  const model::ModelSet set =
      model::fit_model(synthetic::generate_ground_truth(opts), fit);
  io::save_model(set, paths.model());
}

RunOutcome run_workload(const RunConfig& cfg) {
  const WorkloadSpec* wp = find_workload(cfg.workload);
  if (wp == nullptr) {
    throw std::invalid_argument("unknown workload " + cfg.workload);
  }
  const WorkloadSpec& w = *wp;
  RunOutcome out;
  CheckLedger& ledger = out.ledger;
  SpanLog log;
  SpanLog* tlog = cfg.trace ? &log : nullptr;
  fs::create_directories(cfg.paths.work);

  {
    ScopedSpan span(tlog, "fixture.fit");
    write_fixture_model(cfg.paths, cfg.seed);
  }
  ::malloc_trim(0);

  // The set-up every pass uses; not timed.
  const std::unique_ptr<Setup> setup =
      make_setup(w, cfg.paths, cfg.seed, 0.0, nullptr);

  // setup_s: model load + compile + plan, timed once in every round, before
  // the primary pass. The host's speed drifts over seconds, so samples
  // spread over the whole run are steadier than a burst of them. Sink
  // construction is not timed: CsvSink and BinarySink open their files in
  // on_start, inside the pass's timed generation call. Each timed set-up
  // is freed and the heap trimmed outside the timing, so every set-up, and
  // every pass forked after it, starts from the same heap: a pass cannot
  // reuse memory the parent freed but kept resident, which would hide part
  // of its peak RSS.
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    {
      const std::int64_t t0 = now_ns();
      const std::unique_ptr<Setup> s =
          make_setup(w, cfg.paths, cfg.seed, 0.0, tlog);
      setup_s.push_back(seconds_between(t0, now_ns()));
    }
    ::malloc_trim(0);
  };

  // The disk passes run over the workload's disk window.
  std::unique_ptr<Setup> disk_owned;
  double disk_hours = 0.0;
  if (w.scenario.empty() && w.disk_hours > 0 && w.disk_hours < w.hours) {
    disk_hours = w.disk_hours;
    disk_owned = make_setup(w, cfg.paths, cfg.seed, disk_hours, nullptr);
  }
  const Setup* disk = disk_owned ? disk_owned.get() : setup.get();

  PassInput primary{&w, setup.get(), &cfg.paths, cfg.seed, 0.0, w.ranks,
                    SinkKind::digest, "", false};
  PassInput csv{&w, disk, &cfg.paths, cfg.seed, disk_hours, 0,
                SinkKind::csv, cfg.paths.work + "/disk", cfg.trace};
  PassInput cpgt = csv;
  cpgt.sink = SinkKind::cpgt;

  std::optional<Digest> primary_ref;
  std::optional<Digest> disk_ref_owned;
  std::optional<Digest>& disk_ref = disk_owned ? disk_ref_owned : primary_ref;

  // A ranked workload's merged stream must equal the in-process stream of
  // the same plan and seed; generate that reference outside any timing.
  if (w.ranks > 0) {
    PassInput ref_pass = primary;
    ref_pass.ranks = 0;
    ref_pass.sink = SinkKind::digest;
    const ChildReport rep = stream_pass(ref_pass);
    check_stream(ledger, rep, "in-process reference", primary_ref);
  }

  // Warm-up: page cache, allocator, lazily built tables and a host that
  // has been idle; checked, not measured.
  const std::int64_t warm_start = now_ns();
  do {
    check_stream(ledger, stream_pass(primary), "warm-up pass", primary_ref);
  } while (seconds_between(warm_start, now_ns()) < k_warmup_s);

  std::vector<double> eps, rss, csv_eps, read_eps, bytes_per_event;
  std::vector<double> traced_eps;
  std::vector<double> consumer_wait, slice_gaps, stall, peak_buffered,
      sink_busy, csv_ns, cpgt_ns, finish_s, read_ns, rank_startup, rank_max,
      rank_skew;

  auto record_ranks = [&](const ChildReport& rep) {
    const auto st = rep.series.find("rank_startup_s");
    const auto rs = rep.series.find("rank_s");
    if (st == rep.series.end() || rs == rep.series.end()) return;
    rank_startup.insert(rank_startup.end(), st->second.begin(),
                        st->second.end());
    const auto [lo, hi] = std::minmax_element(rs->second.begin(),
                                              rs->second.end());
    rank_max.push_back(*hi);
    rank_skew.push_back(*lo > 0 ? *hi / *lo : 0.0);
  };

  auto record_primary = [&](const ChildReport& prim, bool traced) {
    const double rate = value_or(prim, "events") / value_or(prim, "wall_s");
    if (!traced) {
      eps.push_back(rate);
      rss.push_back(value_or(prim, "rss_mb"));
      return;
    }
    traced_eps.push_back(rate);
    consumer_wait.push_back(value_or(prim, "consumer_wait_s"));
    stall.push_back(value_or(prim, "producer_stall_s"));
    peak_buffered.push_back(value_or(prim, "peak_buffered_events"));
    sink_busy.push_back(value_or(prim, "sink_busy_s"));
    if (const auto g = prim.series.find("slice_gap_ms");
        g != prim.series.end()) {
      slice_gaps.insert(slice_gaps.end(), g->second.begin(), g->second.end());
    }
    record_ranks(prim);
  };

  // Reads a round's cpgt file back; every read is one sample.
  auto read_back = [&](const std::string& written,
                       const Digest& written_digest) {
    const ChildReport rd = read_pass(written, cfg.trace);
    if (tlog != nullptr) log.add_all(rd.spans);
    ledger.check(rd.error.empty(), "cpgt read-back ran" +
                                       (rd.error.empty() ? "" : ": " + rd.error));
    if (!rd.error.empty()) return;
    const Digest& d = rd.digests.at("out");
    ledger.check(d.same_stream(written_digest),
                 "cpgt read-back digest equals the written digest");
    ledger.check(value_or(rd, "end_block_events") ==
                     static_cast<double>(d.total),
                 "cpgt end block counts every decoded event");
    const double events = value_or(rd, "events");
    for (double wall : rd.series.at("read_s")) {
      read_eps.push_back(events / wall);
      read_ns.push_back(wall * 1e9 / events);
    }
  };

  // Rounds run while the next one is expected to end by the deadline.
  const std::int64_t measure_start = now_ns();
  const std::int64_t deadline =
      measure_start + static_cast<std::int64_t>(cfg.seconds * 1e9);
  int rounds = 0;
  while (rounds < k_max_rounds) {
    const std::int64_t round_start = now_ns();
    if (rounds >= k_min_rounds &&
        round_start + (round_start - measure_start) / rounds > deadline) {
      break;
    }
    timed_setup();
    // A traced run alternates traced and untraced primary passes so the
    // tracing overhead is measured under the same conditions.
    const bool traced_primary = cfg.trace && rounds % 2 == 1;
    primary.traced = traced_primary;
    const ChildReport prim = stream_pass(primary);
    if (tlog != nullptr) log.add_all(prim.spans);
    if (check_stream(ledger, prim, "primary pass", primary_ref)) {
      record_primary(prim, traced_primary);
    }

    const ChildReport cp = stream_pass(cpgt);
    if (tlog != nullptr) log.add_all(cp.spans);
    const std::string written = stream::BinarySink::path_for(cpgt.prefix);
    if (check_stream(ledger, cp, "cpgt write pass", disk_ref)) {
      ledger.check(value_or(cp, "file_bytes") > 0, "cpgt file written");
      bytes_per_event.push_back(value_or(cp, "file_bytes") /
                                value_or(cp, "events"));
      if (cfg.trace) {
        cpgt_ns.push_back(value_or(cp, "file_busy_s") * 1e9 /
                          value_or(cp, "events"));
        finish_s.push_back(value_or(cp, "file_finish_s"));
      }
      read_back(written, cp.digests.at("out"));
    }
    std::error_code ignored;
    fs::remove(written, ignored);

    const ChildReport cs = stream_pass(csv);
    if (tlog != nullptr) log.add_all(cs.spans);
    if (check_stream(ledger, cs, "csv write pass", disk_ref)) {
      const double events = value_or(cs, "events");
      ledger.check(value_or(cs, "csv_rows", -1) == events,
                   "csv row count equals the event count");
      csv_eps.push_back(events / value_or(cs, "wall_s"));
      if (cfg.trace) {
        csv_ns.push_back(value_or(cs, "file_busy_s") * 1e9 / events);
        finish_s.push_back(value_or(cs, "file_finish_s"));
      }
    }

    ++rounds;
  }
  out.rounds = static_cast<std::uint64_t>(rounds);
  out.fingerprint =
      fingerprint_json(cfg, w, *setup, disk_hours, primary_ref, disk_ref);

  out.end_to_end = {
      metric("events_per_s", "ev/s", eps),
      metric("peak_rss_mb", "MB", rss),
      metric("setup_s", "s", setup_s),
      metric("csv_events_per_s", "ev/s", csv_eps),
      metric("read_events_per_s", "ev/s", read_eps),
      metric("cpgt_bytes_per_event", "B/ev", bytes_per_event),
  };

  if (cfg.trace) {
    // In-process workloads get their dist figures from one ranked run of
    // the disk window, checked against the in-process digest of that plan.
    if (w.ranks == 0) {
      PassInput dist_probe = csv;
      dist_probe.sink = SinkKind::digest;
      dist_probe.ranks = k_ranks;
      const ChildReport rep = stream_pass(dist_probe);
      log.add_all(rep.spans);
      if (check_stream(ledger, rep, "ranked probe pass", disk_ref)) {
        record_ranks(rep);
      }
    }
    std::map<std::string, double> probe;
    const ChildReport probe_rep = run_in_child([&](ChildReport& report) {
      SpanLog probe_log;
      report.values =
          run_layer_probes(w, *setup, cfg.paths, cfg.seed, &probe_log);
      report.spans = probe_log.spans();
    });
    log.add_all(probe_rep.spans);
    ledger.check(probe_rep.error.empty(),
                 "layer probes ran" +
                     (probe_rep.error.empty() ? "" : ": " + probe_rep.error));
    probe = probe_rep.values;
    for (const auto& [k, v] : probe) {
      if (k.rfind("check.", 0) == 0) ledger.check(v == 1.0, "probe " + k);
    }
    auto probe_or_span = [&](const std::string& key, const std::string& span) {
      std::vector<double> d = span_durations(log, span);
      if (d.empty() && probe.count(key) != 0) d.push_back(probe.at(key));
      return d;
    };
    auto one = [&](const std::string& key) {
      return probe.count(key) != 0 ? std::vector<double>{probe.at(key)}
                                   : std::vector<double>{};
    };
    const double overhead =
        eps.empty() || traced_eps.empty()
            ? 0.0
            : (summarize(eps).median - summarize(traced_eps).median) /
                  summarize(eps).median * 100.0;
    out.per_layer = {
        metric("model.load_s", "s", span_durations(log, "model.load")),
        metric("model.compile_s", "s", span_durations(log, "model.compile")),
        metric("model.arena_bytes", "B",
               {static_cast<double>(setup->compiled->stats.arena_bytes)}),
        metric("stream.plan_s", "s", probe_or_span("stream.plan_s",
                                                   "stream.plan")),
        metric("scenario.compile_s", "s",
               probe_or_span("scenario.compile_s", "scenario.compile")),
        metric("spatial.load_s", "s",
               probe_or_span("spatial.load_s", "spatial.load")),
        metric("generator.ue_init_ns", "ns", one("generator.ue_init_ns")),
        metric("generator.state_bytes_per_ue", "B",
               one("generator.state_bytes_per_ue")),
        metric("generator.advance_ns_per_event", "ns/ev",
               one("generator.advance_ns_per_event")),
        metric("generator.redraws_per_event", "1/ev",
               one("generator.redraws_per_event")),
        metric("core.sort_ns_per_event", "ns/ev",
               one("core.sort_ns_per_event")),
        metric("stream.merge_ns_per_event", "ns/ev",
               one("stream.merge_ns_per_event")),
        metric("stream.consumer_wait_s", "s", consumer_wait),
        percentile_metric("stream.slice_gap_ms.p50", "ms", slice_gaps, 50),
        percentile_metric("stream.slice_gap_ms.p90", "ms", slice_gaps, 90),
        metric("stream.producer_stall_s", "s", stall),
        metric("stream.peak_buffered_events", "count", peak_buffered),
        metric("sink.busy_s", "s", sink_busy),
        metric("sink.csv_encode_ns_per_event", "ns/ev", csv_ns),
        metric("sink.cpgt_encode_ns_per_event", "ns/ev", cpgt_ns),
        metric("sink.finish_s", "s", finish_s),
        metric("trace_fmt.read_ns_per_event", "ns/ev", read_ns),
        metric("dist.rank_startup_s", "s", rank_startup),
        metric("dist.rank_s.max", "s", rank_max),
        metric("dist.rank_skew", "ratio", rank_skew),
        metric("dist.wire_encode_ns_per_event", "ns/ev",
               one("dist.wire_encode_ns_per_event")),
        metric("dist.wire_decode_ns_per_event", "ns/ev",
               one("dist.wire_decode_ns_per_event")),
        metric("dist.wire_bytes_per_event", "B/ev",
               one("dist.wire_bytes_per_event")),
        metric("spatial.cell_ns_per_event", "ns/ev",
               one("spatial.cell_ns_per_event")),
        metric("trace.overhead_pct", "%", {overhead}),
    };
    if (!cfg.trace_out.empty()) {
      fs::create_directories(fs::path(cfg.trace_out).parent_path());
      log.write_chrome_trace(cfg.trace_out);
    }
  }
  return out;
}

}  // namespace cpg::perfbench
