// Output checks: a digest of every delivered stream and the ledger that
// turns check outcomes (and exceptions) into the benchmark's failure count.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/event_columns.h"
#include "core/trace.h"
#include "stream/event_sink.h"

namespace cpg::perfbench {

// Order-sensitive digest of an event stream over its ts/ue/type/cell
// columns, plus per-type counts and a canonical-order check. Two deliveries
// of the same stream (batch vs ranks, written vs read back) digest equal
// exactly when they carry the same events in the same order.
struct Digest {
  std::uint64_t hash = 0x84222325cbf29ce4ULL;
  std::uint64_t total = 0;
  std::array<std::uint64_t, k_num_event_types> per_type{};
  // Every event compared >= its predecessor under event_time_less.
  bool ordered = true;
  bool has_cells = false;

  // `cells` may be null (no spatial column).
  void add(const TimeMs* ts, const UeId* ue, const EventType* type,
           const std::uint32_t* cells, std::size_t n);
  void add(const EventColumnsView& v) {
    add(v.ts, v.ue, v.type, v.cell, v.n);
  }
  void add(std::span<const ControlEvent> events, const std::uint32_t* cells);

  // Per-type counts sum to the total.
  bool counts_consistent() const;
  // Same events in the same order (hash, total and per-type counts agree).
  bool same_stream(const Digest& other) const;

  // One-line text form, and its inverse (false on malformed input).
  std::string encode() const;
  static bool decode(const std::string& text, Digest& out);

 private:
  TimeMs last_ts_ = 0;
  UeId last_ue_ = 0;
  std::uint8_t last_type_ = 0;
};

// Sink that digests everything delivered to it (columnar and AoS paths).
class DigestSink final : public stream::EventSink {
 public:
  void on_event(const ControlEvent& e) override {
    digest_.add(std::span<const ControlEvent>(&e, 1), nullptr);
  }
  void on_events(std::span<const ControlEvent> events) override {
    digest_.add(events, nullptr);
  }
  void on_event_columns(const EventColumnsView& cols) override {
    digest_.add(cols);
  }

  const Digest& digest() const noexcept { return digest_; }

 private:
  Digest digest_;
};

// Counts checks attempted and failed. A pass runs in a child process whose
// exception becomes a failed check (see run_in_child), so one broken pass
// shows up in the failure count instead of ending the run.
class CheckLedger {
 public:
  void check(bool ok, const std::string& what);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  double failed_share() const noexcept {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace cpg::perfbench
