#include "io/model_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "io/file_util.h"

namespace cpg::io {

namespace {

using model::FirstEventLaw;
using model::HourClusterModel;
using model::ModelSet;
using model::StateLaw;
using model::TransitionLaw;

constexpr std::string_view k_magic = "cptraffgen-model";
constexpr int k_version = 1;

std::string_view spec_name(const sm::MachineSpec* spec) {
  if (spec == &sm::emm_ecm_spec()) return "emm_ecm";
  if (spec == &sm::lte_two_level_spec()) return "lte_two_level";
  if (spec == &sm::fiveg_sa_spec()) return "fiveg_sa";
  throw std::runtime_error("save_model: unknown machine spec");
}

const sm::MachineSpec* spec_by_name(std::string_view name) {
  if (name == "emm_ecm") return &sm::emm_ecm_spec();
  if (name == "lte_two_level") return &sm::lte_two_level_spec();
  if (name == "fiveg_sa") return &sm::fiveg_sa_spec();
  throw std::runtime_error("load_model: unknown machine spec");
}

// Caps applied while loading. A truncated or bit-flipped count field must
// fail with a diagnostic, not drive a multi-gigabyte allocation; the caps
// are far above anything fit_model produces.
constexpr std::size_t k_max_ues_per_device = std::size_t{1} << 24;
constexpr std::size_t k_max_clusters_per_hour = std::size_t{1} << 16;
constexpr std::size_t k_max_edges_per_state = std::size_t{1} << 12;
constexpr std::size_t k_max_quantile_knots = std::size_t{1} << 20;

// Single-pass parser over the whole model text held in one buffer. Tokens
// are whitespace-delimited views into it, and every number is parsed with
// std::from_chars and must use up its whole token ("0.5x" fails at that
// token, not at the next one). `at` is the start of the last token taken,
// so every failure names the model section being read and the exact byte
// where the offending token begins (the end of the text when it ran out)
// — a corrupt file then fails with an actionable diagnostic instead of a
// generic "bad header".
struct LoadContext {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t at = 0;
  std::string section = "header";

  static bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  void skip_space() {
    while (pos < text.size() && is_space(text[pos])) ++pos;
    at = pos;
  }

  // Empty once the text is exhausted, which matches no tag.
  std::string_view token() {
    skip_space();
    while (pos < text.size() && !is_space(text[pos])) ++pos;
    return text.substr(at, pos - at);
  }

  // Parses the next token in place: the number must end where the token
  // does, so the token is scanned once.
  template <typename T>
  bool number(T& out) {
    skip_space();
    const char* first = text.data() + pos;
    const char* last = text.data() + text.size();
    // A model file may spell a number with a leading '+', which
    // std::from_chars rejects.
    if (last - first > 1 && first[0] == '+' && first[1] != '+' &&
        first[1] != '-') {
      ++first;
    }
    const auto [ptr, ec] = std::from_chars(first, last, out);
    pos = static_cast<std::size_t>(ptr - text.data());
    return ec == std::errc() && (ptr == last || is_space(*ptr));
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("load_model: " + what + " (section '" + section +
                             "', near byte " + std::to_string(at) + ")");
  }

  void require_finite(double v, const char* what) {
    if (!std::isfinite(v)) fail(std::string(what) + " is not finite");
  }
  // Fitted and 5G-transformed models accumulate floating error that can
  // leave a probability an epsilon outside [0, 1]; those are clamped.
  // Anything further out is corruption and fails.
  void require_probability(double& v, const char* what) {
    if (!std::isfinite(v)) fail(std::string(what) + " is not finite");
    constexpr double tol = 1e-6;
    if (v < -tol || v > 1.0 + tol) {
      std::ostringstream msg;
      msg << what << " out of [0, 1]: " << std::setprecision(17) << v;
      fail(msg.str());
    }
    v = std::min(1.0, std::max(0.0, v));
  }
};

// --- distribution serialization --------------------------------------------

void write_distribution(const stats::Distribution& dist, std::ostream& os,
                        std::size_t knots) {
  if (const auto* exp = dynamic_cast<const stats::Exponential*>(&dist)) {
    os << "exp " << exp->lambda();
    return;
  }
  if (const auto* scaled = dynamic_cast<const stats::Scaled*>(&dist)) {
    // Flatten: scaled distributions serialize as quantile grids of the
    // composed law (keeps the reader trivial and lossless enough).
    os << "empq " << knots;
    for (std::size_t k = 0; k < knots; ++k) {
      const double p =
          (static_cast<double>(k) + 0.5) / static_cast<double>(knots);
      os << ' ' << scaled->quantile(p);
    }
    return;
  }
  if (const auto* emp = dynamic_cast<const stats::Empirical*>(&dist)) {
    const std::size_t n = std::min(knots, emp->size());
    os << "empq " << n;
    for (std::size_t k = 0; k < n; ++k) {
      const double p =
          (static_cast<double>(k) + 0.5) / static_cast<double>(n);
      os << ' ' << emp->quantile(p);
    }
    return;
  }
  // Generic fallback: sample the quantile function.
  os << "empq " << knots;
  for (std::size_t k = 0; k < knots; ++k) {
    const double p =
        (static_cast<double>(k) + 0.5) / static_cast<double>(knots);
    os << ' ' << dist.quantile(p);
  }
}

std::shared_ptr<const stats::Distribution> read_distribution(
    LoadContext& ctx) {
  const std::string_view kind = ctx.token();
  if (kind.empty()) ctx.fail("missing distribution");
  if (kind == "exp") {
    double lambda = 0.0;
    if (!ctx.number(lambda)) ctx.fail("truncated exp lambda");
    ctx.require_finite(lambda, "exp lambda");
    if (!(lambda > 0.0)) ctx.fail("exp lambda must be > 0");
    return std::make_shared<stats::Exponential>(lambda);
  }
  if (kind == "empq") {
    std::size_t n = 0;
    if (!ctx.number(n) || n == 0) ctx.fail("bad empq size");
    if (n > k_max_quantile_knots) ctx.fail("empq size exceeds sanity cap");
    std::vector<double> values(n);
    for (double& v : values) {
      if (!ctx.number(v)) ctx.fail("truncated empq values");
      ctx.require_finite(v, "empq value");
    }
    // save_model writes quantiles in order; only a damaged grid needs the
    // sort.
    const bool sorted = std::is_sorted(values.begin(), values.end());
    return std::make_shared<stats::Empirical>(std::move(values), sorted);
  }
  ctx.fail("unknown distribution kind '" + std::string(kind) + "'");
}

// --- law serialization ----------------------------------------------------

void write_state_law(const StateLaw& law, std::ostream& os,
                     std::size_t knots) {
  os << law.out.size() << '\n';
  for (const TransitionLaw& t : law.out) {
    os << "edge " << t.edge << ' ' << t.probability << ' ';
    write_distribution(*t.sojourn, os, knots);
    os << '\n';
  }
}

StateLaw read_state_law(LoadContext& ctx) {
  StateLaw law;
  std::size_t n = 0;
  if (!ctx.number(n)) ctx.fail("truncated state-law size");
  if (n > k_max_edges_per_state) ctx.fail("state-law size exceeds sanity cap");
  law.out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (ctx.token() != "edge") ctx.fail("expected 'edge' record");
    TransitionLaw t;
    if (!ctx.number(t.edge)) ctx.fail("truncated edge header");
    if (t.edge < 0) ctx.fail("negative edge index");
    if (!ctx.number(t.probability)) ctx.fail("truncated edge header");
    ctx.require_probability(t.probability, "edge probability");
    t.sojourn = read_distribution(ctx);
    law.out.push_back(std::move(t));
  }
  return law;
}

void write_hour_model(const HourClusterModel& m, std::ostream& os,
                      std::size_t knots) {
  for (const StateLaw& law : m.top) write_state_law(law, os, knots);
  for (const StateLaw& law : m.sub) write_state_law(law, os, knots);
  for (const auto& overlay : m.overlay) {
    if (overlay) {
      os << "overlay ";
      write_distribution(*overlay, os, knots);
      os << '\n';
    } else {
      os << "none\n";
    }
  }
  if (m.first_event.has_data()) {
    os << "first " << m.first_event.p_active;
    for (double p : m.first_event.type_prob) os << ' ' << p;
    os << ' ';
    write_distribution(*m.first_event.offset_s, os, knots);
    os << '\n';
  } else {
    os << "first_none\n";
  }
}

HourClusterModel read_hour_model(LoadContext& ctx) {
  HourClusterModel m;
  for (StateLaw& law : m.top) law = read_state_law(ctx);
  for (StateLaw& law : m.sub) law = read_state_law(ctx);
  for (auto& overlay : m.overlay) {
    const std::string_view tag = ctx.token();
    if (tag.empty()) ctx.fail("missing overlay record");
    if (tag == "overlay") {
      overlay = read_distribution(ctx);
    } else if (tag != "none") {
      ctx.fail("bad overlay tag '" + std::string(tag) + "'");
    }
  }
  const std::string_view tag = ctx.token();
  if (tag.empty()) ctx.fail("missing first-event record");
  if (tag == "first") {
    FirstEventLaw fe;
    if (!ctx.number(fe.p_active)) ctx.fail("truncated p_active");
    ctx.require_probability(fe.p_active, "p_active");
    for (double& p : fe.type_prob) {
      if (!ctx.number(p)) ctx.fail("truncated first-event type probabilities");
      ctx.require_probability(p, "first-event type probability");
    }
    auto dist = read_distribution(ctx);
    const auto* emp = dynamic_cast<const stats::Empirical*>(dist.get());
    if (emp == nullptr) ctx.fail("first-event offsets must be empirical");
    fe.offset_s = std::shared_ptr<const stats::Empirical>(
        std::move(dist), emp);
    m.first_event = std::move(fe);
  } else if (tag != "first_none") {
    ctx.fail("bad first-event tag '" + std::string(tag) + "'");
  }
  return m;
}

}  // namespace

void save_model(const ModelSet& set, std::ostream& os,
                const ModelIoOptions& options) {
  os << std::setprecision(17);
  os << k_magic << ' ' << k_version << '\n';
  os << "method " << static_cast<int>(set.method) << '\n';
  os << "spec " << spec_name(set.spec) << '\n';
  os << "num_days " << set.num_days_fitted << '\n';
  for (DeviceType d : k_all_device_types) {
    const model::DeviceModel& dev = set.device(d);
    os << "device " << to_string(d) << ' ' << dev.ue_traj.size() << '\n';
    for (const auto& traj : dev.ue_traj) {
      os << "traj";
      for (auto c : traj) os << ' ' << c;
      os << '\n';
    }
    for (int h = 0; h < 24; ++h) {
      os << "hour " << h << ' ' << dev.by_hour[h].size() << '\n';
      for (const HourClusterModel& m : dev.by_hour[h]) {
        write_hour_model(m, os, options.quantile_knots);
      }
      os << "pooled_hour\n";
      write_hour_model(dev.pooled_hour[h], os, options.quantile_knots);
    }
    os << "pooled_all\n";
    write_hour_model(dev.pooled_all, os, options.quantile_knots);
  }
  os << "end\n";
}

void save_model(const ModelSet& set, const std::string& path,
                const ModelIoOptions& options) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_model: cannot open " + path);
  save_model(set, os, options);
}

namespace {

ModelSet parse_model(std::string_view text) {
  LoadContext ctx{text};
  int version = 0;
  if (ctx.token() != k_magic || !ctx.number(version)) {
    ctx.fail("bad magic (not a cptraffgen model file?)");
  }
  if (version != k_version) {
    ctx.fail("unsupported version " + std::to_string(version));
  }
  ModelSet set;
  int method_int = 0;
  if (ctx.token() != "method" || !ctx.number(method_int)) {
    ctx.fail("truncated method record");
  }
  if (method_int < static_cast<int>(model::Method::base) ||
      method_int > static_cast<int>(model::Method::ours)) {
    ctx.fail("method id out of range: " + std::to_string(method_int));
  }
  set.method = static_cast<model::Method>(method_int);
  if (ctx.token() != "spec") ctx.fail("truncated spec record");
  const std::string_view spec = ctx.token();
  if (spec.empty()) ctx.fail("truncated spec record");
  set.spec = spec_by_name(spec);
  if (ctx.token() != "num_days" || !ctx.number(set.num_days_fitted)) {
    ctx.fail("truncated num_days record");
  }
  if (set.num_days_fitted < 0) ctx.fail("negative num_days");

  for (DeviceType d : k_all_device_types) {
    model::DeviceModel& dev = set.devices[index_of(d)];
    ctx.section = std::string("device ") + std::string(to_string(d));
    std::size_t num_ues = 0;
    if (ctx.token() != "device" || ctx.token() != to_string(d) ||
        !ctx.number(num_ues)) {
      ctx.fail("bad device header");
    }
    if (num_ues > k_max_ues_per_device) {
      ctx.fail("UE count exceeds sanity cap");
    }
    dev.ue_traj.resize(num_ues);
    for (auto& traj : dev.ue_traj) {
      if (ctx.token() != "traj") ctx.fail("bad trajectory record");
      for (auto& c : traj) {
        if (!ctx.number(c)) ctx.fail("truncated trajectory cluster ids");
      }
    }
    for (int h = 0; h < 24; ++h) {
      ctx.section = std::string("device ") + std::string(to_string(d)) +
                    ", hour " + std::to_string(h);
      int hour = -1;
      std::size_t clusters = 0;
      if (ctx.token() != "hour" || !ctx.number(hour) || hour != h ||
          !ctx.number(clusters)) {
        ctx.fail("bad hour header");
      }
      if (clusters > k_max_clusters_per_hour) {
        ctx.fail("cluster count exceeds sanity cap");
      }
      dev.by_hour[h].reserve(clusters);
      for (std::size_t c = 0; c < clusters; ++c) {
        dev.by_hour[h].push_back(read_hour_model(ctx));
      }
      if (ctx.token() != "pooled_hour") ctx.fail("missing pooled_hour");
      dev.pooled_hour[h] = read_hour_model(ctx);
    }
    ctx.section = std::string("device ") + std::string(to_string(d)) +
                  ", pooled_all";
    if (ctx.token() != "pooled_all") ctx.fail("missing pooled_all");
    dev.pooled_all = read_hour_model(ctx);

    // Trajectories index the clusters just read: reject dangling cluster
    // ids now rather than crashing generation later.
    for (const auto& traj : dev.ue_traj) {
      for (int h = 0; h < 24; ++h) {
        if (!dev.by_hour[h].empty() &&
            traj[static_cast<std::size_t>(h)] >= dev.by_hour[h].size()) {
          ctx.section = std::string("device ") + std::string(to_string(d));
          ctx.fail("trajectory cluster id out of range for hour " +
                   std::to_string(h));
        }
      }
    }
  }
  ctx.section = "trailer";
  if (ctx.token() != "end") ctx.fail("missing 'end' trailer");
  return set;
}

}  // namespace

ModelSet load_model(std::istream& is) {
  std::ostringstream text;
  text << is.rdbuf();
  return parse_model(text.view());
}

ModelSet load_model(const std::string& path) {
  std::string text;
  try {
    text = read_file(path);
  } catch (const std::system_error& e) {
    throw std::runtime_error("load_model: cannot read " + path + ": " +
                             e.code().message());
  }
  return parse_model(text);
}

}  // namespace cpg::io
