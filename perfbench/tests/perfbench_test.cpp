// Unit tests of the benchmark's own helpers: the stream digest, the
// percentile summary, the output checks that feed the failure count, and
// the child-process channel.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "checks.h"
#include "model/fit.h"
#include "proc.h"
#include "stats.h"
#include "stream/population.h"
#include "stream/stream_generator.h"
#include "synthetic/workload.h"
#include "workloads.h"

namespace cpg::perfbench {
namespace {

EventColumns sample_columns() {
  EventColumns c;
  c.push_back(1000, 7, EventType::srv_req);
  c.push_back(1000, 9, EventType::s1_conn_rel);
  c.push_back(1500, 2, EventType::ho);
  c.push_back(2000, 7, EventType::s1_conn_rel);
  return c;
}

TEST(Digest, EqualStreamsDigestEqualAcrossDeliveryShapes) {
  const EventColumns c = sample_columns();
  Digest whole;
  whole.add(c.view());
  Digest split;
  split.add(c.view().subview(0, 1));
  split.add(c.view().subview(1, 3));
  std::vector<ControlEvent> aos;
  c.view().materialize(aos);
  Digest from_aos;
  from_aos.add(aos, nullptr);
  EXPECT_TRUE(whole.same_stream(split));
  EXPECT_TRUE(whole.same_stream(from_aos));
  EXPECT_TRUE(whole.ordered);
  EXPECT_TRUE(whole.counts_consistent());
  EXPECT_EQ(whole.total, 4u);
  EXPECT_EQ(whole.per_type[index_of(EventType::s1_conn_rel)], 2u);
}

TEST(Digest, DetectsReorderingAndChangedFields) {
  const EventColumns c = sample_columns();
  Digest ref;
  ref.add(c.view());

  EventColumns swapped = c;
  std::swap(swapped.ts[0], swapped.ts[2]);
  std::swap(swapped.ue[0], swapped.ue[2]);
  std::swap(swapped.type[0], swapped.type[2]);
  Digest d1;
  d1.add(swapped.view());
  EXPECT_FALSE(d1.ordered);
  EXPECT_FALSE(d1.same_stream(ref));

  EventColumns changed = c;
  changed.ue[3] = 8;
  Digest d2;
  d2.add(changed.view());
  EXPECT_TRUE(d2.ordered);
  EXPECT_FALSE(d2.same_stream(ref));
}

TEST(Digest, CellsAreDigested) {
  EventColumns c = sample_columns();
  Digest no_cells;
  no_cells.add(c.view());
  c.cell.assign(c.size(), 0);
  Digest zero_cells;
  zero_cells.add(c.view());
  c.cell[1] = 5;
  Digest other_cells;
  other_cells.add(c.view());
  EXPECT_FALSE(no_cells.same_stream(zero_cells));
  EXPECT_FALSE(zero_cells.same_stream(other_cells));
}

TEST(Digest, TextRoundTripAndCorruption) {
  const EventColumns c = sample_columns();
  Digest d;
  d.add(c.view());
  Digest back;
  ASSERT_TRUE(Digest::decode(d.encode(), back));
  EXPECT_TRUE(back.same_stream(d));
  EXPECT_FALSE(Digest::decode("12 not-a-number", back));

  // A corrupted per-type count no longer sums to the total.
  Digest corrupt = d;
  corrupt.per_type[0] += 1;
  EXPECT_FALSE(corrupt.counts_consistent());
  EXPECT_FALSE(corrupt.same_stream(d));
}

TEST(Summary, MedianAndTailLadder) {
  EXPECT_EQ(summarize({}).n, 0u);

  const Summary five = summarize({5, 1, 4, 2, 3});
  EXPECT_EQ(five.n, 5u);
  EXPECT_DOUBLE_EQ(five.median, 3.0);
  EXPECT_FALSE(five.has_tail);  // fewer than ten samples above any rank

  const Summary even = summarize({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(even.median, 2.5);

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Summary s100 = summarize(hundred);
  ASSERT_TRUE(s100.has_tail);
  EXPECT_DOUBLE_EQ(s100.tail_pct, 90.0);  // p95 would leave only 5 beyond
  EXPECT_DOUBLE_EQ(s100.tail, 90.0);
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);

  std::vector<double> twenty(20, 1.0);
  const Summary s20 = summarize(twenty);
  ASSERT_TRUE(s20.has_tail);
  EXPECT_DOUBLE_EQ(s20.tail_pct, 50.0);

  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  const Summary s1000 = summarize(thousand);
  EXPECT_DOUBLE_EQ(s1000.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(s1000.tail, 990.0);
}

TEST(CheckLedger, CorruptedDigestIsCountedAsAFailure) {
  const EventColumns c = sample_columns();
  Digest written;
  written.add(c.view());
  ChildReport good;
  good.values["events"] = 4;
  good.digests["out"] = written;
  CheckLedger ledger;
  std::optional<Digest> ref;
  ASSERT_TRUE(check_stream(ledger, good, "first pass", ref));
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ledger.failed(), 0u);

  // A later pass of the same plan whose digest was corrupted in transit.
  ChildReport corrupt = good;
  corrupt.digests["out"].hash ^= 1;
  EXPECT_FALSE(check_stream(ledger, corrupt, "second pass", ref));
  EXPECT_EQ(ledger.failed(), 1u);
  EXPECT_GT(ledger.attempted(), 2u);
  EXPECT_DOUBLE_EQ(ledger.failed_share(),
                   1.0 / static_cast<double>(ledger.attempted()));
  ASSERT_EQ(ledger.failures().size(), 1u);
  EXPECT_EQ(ledger.failures()[0],
            "second pass: digest matches the reference stream");

  // A per-type count that no longer sums to the total fails on its own.
  ChildReport miscounted = good;
  miscounted.digests["out"].per_type[0] += 1;
  EXPECT_FALSE(check_stream(ledger, miscounted, "third pass", ref));
  EXPECT_EQ(ledger.failed(), 3u);  // counts and reference both disagree
}

// Throws from every delivery hook, as a sink whose write fails would.
class ThrowingSink final : public stream::EventSink {
 public:
  void on_event(const ControlEvent&) override { fail(); }
  void on_events(std::span<const ControlEvent>) override { fail(); }
  void on_event_columns(const EventColumnsView&) override { fail(); }

 private:
  [[noreturn]] static void fail() {
    throw std::runtime_error("sink write failed");
  }
};

// A sink that throws while stream_generate delivers a pass surfaces as the
// child's error, and check_stream counts it as a failed check instead of
// ending the run.
TEST(ChildProcess, SinkThrowingDuringAPassIsCountedAsAFailure) {
  synthetic::WorkloadOptions truth = synthetic::default_population(200);
  truth.duration_hours = 48.0;
  truth.seed = 11;
  truth.num_threads = 1;
  model::FitOptions fit;
  fit.method = model::Method::ours;
  fit.clustering.theta_n = 30;
  fit.num_threads = 1;
  const model::ModelSet models =
      model::fit_model(synthetic::generate_ground_truth(truth), fit);
  gen::GenerationRequest req;
  req.ue_counts = {40, 16, 8};
  req.start_hour = 10;
  req.duration_hours = 2.0;
  req.seed = 99;
  req.num_threads = 1;
  const stream::PopulationPlan plan = stream::stationary_plan(models, req);
  stream::StreamOptions opts;
  opts.num_threads = 1;

  auto pass = [&](bool throwing) {
    return run_in_child([&](ChildReport& r) {
      DigestSink digest;
      ThrowingSink broken;
      stream::EventSink& sink =
          throwing ? static_cast<stream::EventSink&>(broken) : digest;
      r.values["events"] =
          static_cast<double>(stream::stream_generate(plan, opts, sink).events);
      r.digests["out"] = digest.digest();
    });
  };

  CheckLedger ledger;
  std::optional<Digest> ref;
  EXPECT_TRUE(check_stream(ledger, pass(false), "good pass", ref));
  EXPECT_EQ(ledger.failed(), 0u);

  const ChildReport bad = pass(true);
  EXPECT_NE(bad.error.find("sink write failed"), std::string::npos)
      << bad.error;
  EXPECT_FALSE(check_stream(ledger, bad, "throwing pass", ref));
  EXPECT_EQ(ledger.failed(), 1u);
  ASSERT_EQ(ledger.failures().size(), 1u);
  EXPECT_EQ(ledger.failures()[0].rfind("throwing pass ran: ", 0), 0u);

  // The run goes on: the next pass of the same plan still checks clean.
  EXPECT_TRUE(check_stream(ledger, pass(false), "next pass", ref));
  EXPECT_EQ(ledger.failed(), 1u);
}

TEST(ChildProcess, ReportRoundTripsValuesDigestsSeriesAndSpans) {
  const EventColumns c = sample_columns();
  Digest expected;
  expected.add(c.view());
  const ChildReport rep = run_in_child([&](ChildReport& r) {
    r.values["events"] = 4;
    r.values["wall_s"] = 0.125;
    r.digests["out"] = expected;
    r.series["gap"] = {1.5, 2.5};
    r.spans.push_back(Span{"stream.generate", "pass", 10, 20, 1});
  });
  ASSERT_TRUE(rep.error.empty()) << rep.error;
  EXPECT_DOUBLE_EQ(rep.values.at("wall_s"), 0.125);
  EXPECT_TRUE(rep.digests.at("out").same_stream(expected));
  EXPECT_EQ(rep.series.at("gap").size(), 2u);
  ASSERT_EQ(rep.spans.size(), 1u);
  EXPECT_EQ(rep.spans[0].name, "stream.generate");
  EXPECT_EQ(rep.spans[0].parent, "pass");
}

TEST(ChildProcess, CrashIsReportedAsAFailure) {
  const ChildReport rep = run_in_child([](ChildReport&) { std::abort(); });
  EXPECT_FALSE(rep.error.empty());
}

}  // namespace
}  // namespace cpg::perfbench
