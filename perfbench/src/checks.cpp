#include "checks.h"

#include <iostream>
#include <numeric>
#include <sstream>

namespace cpg::perfbench {

namespace {

constexpr std::uint64_t k_mul_ts = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t k_mul_cell = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t k_mul_mix = 0x100000001B3ULL;
// Folded in place of the cell column when a stream has none, so a
// cell-free stream never digests equal to one whose cells are all zero.
constexpr std::uint64_t k_no_cell = 0xFFFFFFFFFFULL;

inline std::uint64_t fold(std::uint64_t h, TimeMs ts, UeId ue,
                          std::uint8_t type, std::uint64_t cell) {
  const std::uint64_t x = static_cast<std::uint64_t>(ts) * k_mul_ts +
                          ((static_cast<std::uint64_t>(ue) << 8) | type) +
                          cell * k_mul_cell;
  h = (h ^ x) * k_mul_mix;
  return h ^ (h >> 31);
}

}  // namespace

void Digest::add(const TimeMs* ts, const UeId* ue, const EventType* type,
                 const std::uint32_t* cells, std::size_t n) {
  if (n == 0) return;
  if (cells != nullptr) has_cells = true;
  std::uint64_t h = hash;
  TimeMs pt = last_ts_;
  UeId pu = last_ue_;
  std::uint8_t py = last_type_;
  bool ok = ordered;
  const bool first = total == 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto y = static_cast<std::uint8_t>(type[i]);
    const bool ge = ts[i] != pt ? ts[i] > pt
                                : (ue[i] != pu ? ue[i] > pu : y >= py);
    ok &= ge || (first && i == 0);
    h = fold(h, ts[i], ue[i], y, cells != nullptr ? cells[i] : k_no_cell);
    ++per_type[y < k_num_event_types ? y : 0];
    pt = ts[i];
    pu = ue[i];
    py = y;
  }
  hash = h;
  ordered = ok;
  total += n;
  last_ts_ = pt;
  last_ue_ = pu;
  last_type_ = py;
}

void Digest::add(std::span<const ControlEvent> events,
                 const std::uint32_t* cells) {
  std::vector<TimeMs> ts(events.size());
  std::vector<UeId> ue(events.size());
  std::vector<EventType> type(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ts[i] = events[i].t_ms;
    ue[i] = events[i].ue_id;
    type[i] = events[i].type;
  }
  add(ts.data(), ue.data(), type.data(), cells, events.size());
}

bool Digest::counts_consistent() const {
  return std::accumulate(per_type.begin(), per_type.end(),
                         std::uint64_t{0}) == total;
}

bool Digest::same_stream(const Digest& other) const {
  return hash == other.hash && total == other.total &&
         per_type == other.per_type && has_cells == other.has_cells;
}

std::string Digest::encode() const {
  std::ostringstream os;
  os << hash << ' ' << total << ' ' << (ordered ? 1 : 0) << ' '
     << (has_cells ? 1 : 0);
  for (std::uint64_t c : per_type) os << ' ' << c;
  return os.str();
}

bool Digest::decode(const std::string& text, Digest& out) {
  std::istringstream is(text);
  Digest d;
  int ordered = 0;
  int cells = 0;
  is >> d.hash >> d.total >> ordered >> cells;
  for (std::uint64_t& c : d.per_type) is >> c;
  if (!is) return false;
  d.ordered = ordered != 0;
  d.has_cells = cells != 0;
  out = d;
  return true;
}

void CheckLedger::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  failures_.push_back(what);
  std::cerr << "perfbench: check failed: " << what << "\n";
}

}  // namespace cpg::perfbench
