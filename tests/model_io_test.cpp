#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "generator/traffic_generator.h"
#include "io/model_io.h"
#include "model/fit.h"
#include "model/nextg.h"
#include "statemachine/replay.h"
#include "test_util.h"

namespace cpg::io {
namespace {

const model::ModelSet& fitted() {
  static const model::ModelSet set = [] {
    model::FitOptions opts;
    opts.method = model::Method::ours;
    opts.clustering.theta_n = 30;
    return model::fit_model(testutil::small_ground_truth(150, 24.0, 71),
                            opts);
  }();
  return set;
}

model::ModelSet round_trip(const model::ModelSet& set) {
  std::stringstream buffer;
  save_model(set, buffer);
  return load_model(buffer);
}

TEST(ModelIo, PreservesStructure) {
  const auto loaded = round_trip(fitted());
  EXPECT_EQ(loaded.method, fitted().method);
  EXPECT_EQ(loaded.spec, fitted().spec);
  EXPECT_EQ(loaded.num_days_fitted, fitted().num_days_fitted);
  for (DeviceType d : k_all_device_types) {
    const auto& a = fitted().device(d);
    const auto& b = loaded.device(d);
    ASSERT_EQ(a.ue_traj.size(), b.ue_traj.size()) << to_string(d);
    for (std::size_t u = 0; u < a.ue_traj.size(); ++u) {
      EXPECT_EQ(a.ue_traj[u], b.ue_traj[u]);
    }
    for (int h = 0; h < 24; ++h) {
      ASSERT_EQ(a.by_hour[h].size(), b.by_hour[h].size());
    }
  }
}

TEST(ModelIo, PreservesLaws) {
  const auto loaded = round_trip(fitted());
  const auto& a =
      fitted().device(DeviceType::phone).pooled_all.top[index_of(
          TopState::connected)];
  const auto& b = loaded.device(DeviceType::phone)
                      .pooled_all.top[index_of(TopState::connected)];
  ASSERT_EQ(a.out.size(), b.out.size());
  for (std::size_t i = 0; i < a.out.size(); ++i) {
    EXPECT_EQ(a.out[i].edge, b.out[i].edge);
    EXPECT_DOUBLE_EQ(a.out[i].probability, b.out[i].probability);
    // Quantile-grid round trip: tight in the bulk, looser in the heavy
    // tail where 256 knots interpolate across wide gaps.
    for (double p : {0.1, 0.5}) {
      EXPECT_NEAR(b.out[i].sojourn->quantile(p),
                  a.out[i].sojourn->quantile(p),
                  0.10 * std::abs(a.out[i].sojourn->quantile(p)) + 0.05);
    }
    EXPECT_NEAR(b.out[i].sojourn->quantile(0.9),
                a.out[i].sojourn->quantile(0.9),
                0.25 * std::abs(a.out[i].sojourn->quantile(0.9)) + 0.05);
  }
}

TEST(ModelIo, PreservesFirstEventLaw) {
  const auto loaded = round_trip(fitted());
  const auto& a = fitted().device(DeviceType::phone).pooled_all.first_event;
  const auto& b = loaded.device(DeviceType::phone).pooled_all.first_event;
  ASSERT_TRUE(a.has_data());
  ASSERT_TRUE(b.has_data());
  EXPECT_DOUBLE_EQ(a.p_active, b.p_active);
  for (std::size_t e = 0; e < k_num_event_types; ++e) {
    EXPECT_DOUBLE_EQ(a.type_prob[e], b.type_prob[e]);
  }
}

TEST(ModelIo, LoadedModelGeneratesConformingTraffic) {
  const auto loaded = round_trip(fitted());
  gen::GenerationRequest req;
  req.ue_counts = {100, 40, 20};
  req.start_hour = 12;
  req.seed = 5;
  const Trace t = gen::generate_trace(loaded, req);
  ASSERT_FALSE(t.empty());
  EXPECT_EQ(sm::count_violations(sm::lte_two_level_spec(), t), 0u);
}

TEST(ModelIo, LoadedModelStatisticallyEquivalent) {
  const auto loaded = round_trip(fitted());
  gen::GenerationRequest req;
  req.ue_counts = {300, 100, 50};
  req.start_hour = 12;
  req.seed = 5;
  const Trace a = gen::generate_trace(fitted(), req);
  const Trace b = gen::generate_trace(loaded, req);
  // Not bit-identical (quantile grids), but volumes agree closely.
  const double ratio = static_cast<double>(a.num_events()) /
                       static_cast<double>(std::max<std::size_t>(
                           1, b.num_events()));
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(ModelIo, FiveGModelsRoundTrip) {
  const auto sa = model::derive_5g(fitted(), model::sa_defaults());
  const auto loaded = round_trip(sa);
  EXPECT_EQ(loaded.spec, &sm::fiveg_sa_spec());
  gen::GenerationRequest req;
  req.ue_counts = {100, 40, 20};
  req.start_hour = 12;
  req.seed = 6;
  const Trace t = gen::generate_trace(loaded, req);
  for (const ControlEvent& e : t.events()) {
    ASSERT_NE(e.type, EventType::tau);
  }
}

// What load_model threw for a path or a stream, or "" when it loaded.
template <typename Source>
std::string load_error(Source&& source) {
  try {
    load_model(source);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ModelIo, RejectsGarbage) {
  std::istringstream bad("not-a-model 1\n");
  EXPECT_THROW(load_model(bad), std::runtime_error);
  std::istringstream truncated("cptraffgen-model 1\nmethod 3\n");
  EXPECT_THROW(load_model(truncated), std::runtime_error);
  const std::string missing = load_error(std::string("/nonexistent/model"));
  EXPECT_NE(missing.find("load_model: cannot read /nonexistent/model: "),
            std::string::npos)
      << missing;
  // A directory opens but cannot be read.
  const std::string dir = ::testing::TempDir();
  const std::string is_dir = load_error(dir);
  EXPECT_NE(is_dir.find("load_model: cannot read " + dir + ": "),
            std::string::npos)
      << is_dir;
  // An empty file reads fine and is then not a model.
  const std::string empty = ::testing::TempDir() + "/cpg_empty.model";
  std::ofstream{empty};
  const std::string no_magic = load_error(empty);
  EXPECT_NE(no_magic.find("bad magic"), std::string::npos) << no_magic;
  EXPECT_NE(no_magic.find("near byte 0"), std::string::npos) << no_magic;
}

TEST(ModelIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cpg_model_test.model";
  save_model(fitted(), path);
  const auto loaded = load_model(path);
  EXPECT_EQ(loaded.method, fitted().method);
}

// ---------------------------------------------------------------------------
// Corruption sweep: a damaged model file must never crash, hang, or load
// silently wrong — load_model either succeeds or throws a diagnostic
// std::runtime_error.
// ---------------------------------------------------------------------------

const std::string& serialized() {
  static const std::string bytes = [] {
    std::stringstream buffer;
    save_model(fitted(), buffer);
    return buffer.str();
  }();
  return bytes;
}

// Hour models in the order save_model writes them.
std::vector<const model::HourClusterModel*> hour_models(
    const model::ModelSet& set) {
  std::vector<const model::HourClusterModel*> out;
  for (DeviceType d : k_all_device_types) {
    const model::DeviceModel& dev = set.device(d);
    for (int h = 0; h < 24; ++h) {
      for (const auto& m : dev.by_hour[h]) out.push_back(&m);
      out.push_back(&dev.pooled_hour[h]);
    }
    out.push_back(&dev.pooled_all);
  }
  return out;
}

// The law of the first "edge" record and of the first "first" record.
const model::TransitionLaw* first_edge(const model::ModelSet& set) {
  for (const auto* m : hour_models(set)) {
    for (const model::StateLaw& law : m->top) {
      if (!law.out.empty()) return &law.out.front();
    }
    for (const model::StateLaw& law : m->sub) {
      if (!law.out.empty()) return &law.out.front();
    }
  }
  return nullptr;
}

const model::FirstEventLaw* first_first_event(const model::ModelSet& set) {
  for (const auto* m : hour_models(set)) {
    if (m->first_event.has_data()) return &m->first_event;
  }
  return nullptr;
}

// serialized() with the first edge record rewritten to
// "edge <i> <prob> exp <lambda>" and the first first-event record's p_active
// spelled `p_active`; *_at are the byte offsets of the rewritten numbers.
struct Respelled {
  std::string text;
  std::size_t prob_at = 0;
  std::size_t lambda_at = 0;
  std::size_t p_active_at = 0;
};

Respelled respell(const std::string& prob, const std::string& lambda,
                  const std::string& p_active) {
  Respelled r{serialized()};
  std::string& t = r.text;
  // p_active follows the first edge: rewrite it first, so the edge keeps
  // its offset, then find it again once the edge has been rewritten.
  const std::size_t edge_at = t.find("\nedge ") + 1;
  std::size_t p_active_at = t.find("\nfirst ") + 7;
  EXPECT_LT(edge_at, p_active_at);
  t.replace(p_active_at, t.find(' ', p_active_at) - p_active_at, p_active);
  r.prob_at = t.find(' ', edge_at + 5) + 1;
  t.replace(r.prob_at, t.find('\n', r.prob_at) - r.prob_at,
            prob + " exp " + lambda);
  r.lambda_at = r.prob_at + prob.size() + 5;
  r.p_active_at = t.find("\nfirst ") + 7;
  return r;
}

bool bit_equal(double loaded, const std::string& spelling) {
  const double expected = std::strtod(spelling.c_str(), nullptr);
  return std::memcmp(&loaded, &expected, sizeof(double)) == 0;
}

TEST(ModelIo, NumericTokensParseExactly) {
  const std::string& good = serialized();
  const std::size_t p_active_at = good.find("\nfirst ") + 7;
  const std::string p_active =
      good.substr(p_active_at, good.find(' ', p_active_at) - p_active_at);
  for (const std::string spelling :
       {"5e-1", "+0.5", "0.30000000000000004", "4.9406564584124654e-324",
        "1.7976931348623157e+308"}) {
    // Probabilities must stay in [0, 1]; a lambda takes any positive value.
    const bool is_prob = std::strtod(spelling.c_str(), nullptr) <= 1.0;
    const std::string prob = is_prob ? spelling : "0.25";
    const Respelled r =
        respell(prob, spelling, is_prob ? spelling : p_active);
    std::istringstream is(r.text);
    const model::ModelSet loaded = load_model(is);
    const model::TransitionLaw* edge = first_edge(loaded);
    const model::FirstEventLaw* first = first_first_event(loaded);
    ASSERT_NE(edge, nullptr);
    ASSERT_NE(first, nullptr);
    const auto* exp =
        dynamic_cast<const stats::Exponential*>(edge->sojourn.get());
    ASSERT_NE(exp, nullptr) << spelling;
    EXPECT_TRUE(bit_equal(edge->probability, prob)) << spelling;
    EXPECT_TRUE(bit_equal(exp->lambda(), spelling)) << spelling;
    if (is_prob) {
      EXPECT_TRUE(bit_equal(first->p_active, spelling)) << spelling;
    }
  }
  // Each bad spelling fails at its own token, in every numeric field.
  for (const std::string bad : {"inf", "nan", "1e309", "0.5x"}) {
    const Respelled as_prob = respell(bad, "2", p_active);
    const Respelled as_lambda = respell("0.25", bad, p_active);
    const Respelled as_p_active = respell("0.25", "2", bad);
    for (const auto& [r, at] :
         {std::pair{&as_prob, as_prob.prob_at},
          std::pair{&as_lambda, as_lambda.lambda_at},
          std::pair{&as_p_active, as_p_active.p_active_at}}) {
      const std::string msg = load_error(std::istringstream(r->text));
      EXPECT_EQ(msg.rfind("load_model: ", 0), 0u) << bad << ": " << msg;
      EXPECT_NE(msg.find("near byte " + std::to_string(at) + ")"),
                std::string::npos)
          << bad << ": " << msg;
    }
  }
}

TEST(ModelIo, DiagnosticNamesExactTokenOffset) {
  std::string bad = serialized();
  const std::size_t at = bad.find("\nedge ") + 1;
  bad.replace(at, 4, "edgy");
  const std::string msg = load_error(std::istringstream(bad));
  EXPECT_NE(msg.find("expected 'edge' record"), std::string::npos) << msg;
  EXPECT_NE(msg.find("near byte " + std::to_string(at) + ")"),
            std::string::npos)
      << msg;
}

TEST(ModelIoCorruption, TruncationAlwaysThrowsDiagnostic) {
  const std::string& good = serialized();
  ASSERT_GT(good.size(), 1000u);
  // Cut the file at a spread of points, including just past the header and
  // just short of the trailer.
  for (const std::size_t frac : {1u, 5u, 25u, 50u, 75u, 95u, 99u}) {
    const std::size_t cut = good.size() * frac / 100;
    std::istringstream is(good.substr(0, cut));
    try {
      load_model(is);
      FAIL() << "truncation at byte " << cut << " loaded successfully";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("load_model:"), std::string::npos)
          << "cut at " << cut << ": " << e.what();
    }
  }
}

TEST(ModelIoCorruption, DiagnosticNamesSectionAndOffset) {
  const std::string& good = serialized();
  std::istringstream is(good.substr(0, good.size() / 2));
  try {
    load_model(is);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("section"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte"), std::string::npos) << msg;
  }
}

TEST(ModelIoCorruption, ByteFlipsNeverCrashOrHang) {
  const std::string& good = serialized();
  // Deterministic sweep: flip one byte at a time at evenly spaced
  // positions. Every mutation must either load or throw std::runtime_error
  // — nothing else (no aborts, no unbounded allocation, no other exception
  // types escaping).
  const std::size_t step = std::max<std::size_t>(1, good.size() / 64);
  int loaded_ok = 0;
  int rejected = 0;
  for (std::size_t pos = 0; pos < good.size(); pos += step) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x15);
    std::istringstream is(bad);
    try {
      load_model(is);
      ++loaded_ok;  // benign flip (e.g. inside a mantissa)
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  // The sweep must exercise both outcomes' plumbing at least once overall;
  // rejection must dominate for structural damage.
  EXPECT_GT(rejected, 0);
  SUCCEED() << loaded_ok << " flips loaded, " << rejected << " rejected";
}

TEST(ModelIoCorruption, HugeCountsHitSanityCaps) {
  // Hand-build a file whose UE count claims 2^30 entries: the loader must
  // reject it by validation, not by attempting the allocation.
  std::string bad = serialized();
  const std::string marker = "device phone ";
  const std::size_t at = bad.find(marker);
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = bad.find('\n', at);
  bad.replace(at, end - at, marker + "1073741824");
  std::istringstream is(bad);
  try {
    load_model(is);
    FAIL() << "oversized count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sanity cap"), std::string::npos)
        << e.what();
  }
}

TEST(ModelIoCorruption, OutOfRangeProbabilityRejected) {
  // The first-event record is "first <p_active> <type probs...>"; push
  // p_active far outside [0, 1] (beyond the round-trip clamping tolerance).
  std::string bad = serialized();
  const std::string marker = "\nfirst ";
  const std::size_t at = bad.find(marker);
  ASSERT_NE(at, std::string::npos);
  const std::size_t num_begin = at + marker.size();
  const std::size_t num_end = bad.find(' ', num_begin);
  ASSERT_NE(num_end, std::string::npos);
  bad.replace(num_begin, num_end - num_begin, "1.75");
  std::istringstream is(bad);
  EXPECT_THROW(load_model(is), std::runtime_error);
}

}  // namespace
}  // namespace cpg::io
