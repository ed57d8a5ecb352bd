// perfbench — the end-to-end benchmark of cptraffgen.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --fixtures <dir> --work <dir> [--trace-out <file>]
//
// Prints a human-readable table on stderr, then two JSON lines on stdout:
// a summary (host fingerprint, checks, every metric with its samples) and,
// last, the result line {"correct", "attempted", "failed", "metrics"} whose
// metrics are the end-to-end ones (--trace 0) or the per-layer ones
// (--trace 1). perfbench/run.py builds this program and runs it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "workloads.h"

namespace {

using namespace cpg::perfbench;

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_detail(const std::vector<MetricValue>& ms) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const MetricValue& m : ms) {
    os << (first ? "" : ", ") << json_quote(m.name) << ": {\"value\": "
       << num(m.value) << ", \"unit\": " << json_quote(m.unit)
       << ", \"median\": " << num(m.summary.median)
       << ", \"n\": " << m.summary.n;
    if (m.summary.has_tail) {
      os << ", \"tail_pct\": " << num(m.summary.tail_pct)
         << ", \"tail\": " << num(m.summary.tail);
    }
    auto list = [&](const char* key, const std::vector<double>& v) {
      os << ", \"" << key << "\": [";
      for (std::size_t i = 0; i < v.size() && i < 64; ++i) {
        os << (i == 0 ? "" : ", ") << num(v[i]);
      }
      os << "]";
    };
    list("samples", m.samples);
    os << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

void print_table(const std::vector<MetricValue>& ms) {
  for (const MetricValue& m : ms) {
    std::fprintf(stderr, "  %-34s %16.6g %-6s (n=%zu", m.name.c_str(), m.value,
                 m.unit.c_str(), m.summary.n);
    if (m.summary.has_tail) {
      std::fprintf(stderr, ", p%g=%.6g", m.summary.tail_pct, m.summary.tail);
    }
    std::fprintf(stderr, ")\n");
  }
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --fixtures <dir> --work <dir> "
               "[--trace-out <file>]\nworkloads:";
  for (const WorkloadSpec& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage(("bad argument " + a).c_str());
    }
    flags[a.substr(2)] = argv[++i];
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "fixtures", "work"}) {
    if (flags.count(required) == 0) {
      return usage((std::string("missing --") + required).c_str());
    }
  }
  RunConfig cfg;
  cfg.workload = flags["workload"];
  if (find_workload(cfg.workload) == nullptr) {
    return usage(("unknown workload " + cfg.workload).c_str());
  }
  char* end = nullptr;
  cfg.seed = std::strtoull(flags["seed"].c_str(), &end, 10);
  if (*end != '\0') return usage("--seed must be an unsigned integer");
  cfg.seconds = std::strtod(flags["seconds"].c_str(), &end);
  if (*end != '\0' || !(cfg.seconds > 0)) {
    return usage("--seconds must be a positive number");
  }
  if (flags["trace"] != "0" && flags["trace"] != "1") {
    return usage("--trace must be 0 or 1");
  }
  cfg.trace = flags["trace"] == "1";
  cfg.paths.fixtures = flags["fixtures"];
  cfg.paths.work = flags["work"];
  if (flags.count("trace-out") != 0) cfg.trace_out = flags["trace-out"];

  RunOutcome out;
  try {
    out = run_workload(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  const CheckLedger& ledger = out.ledger;
  const std::vector<MetricValue>& reported =
      cfg.trace ? out.per_layer : out.end_to_end;
  std::fprintf(stderr, "perfbench %s seed=%llu rounds=%llu checks=%llu "
                       "failed=%llu failed_share=%g\n",
               cfg.workload.c_str(),
               static_cast<unsigned long long>(cfg.seed),
               static_cast<unsigned long long>(out.rounds),
               static_cast<unsigned long long>(ledger.attempted()),
               static_cast<unsigned long long>(ledger.failed()),
               ledger.failed_share());
  print_table(reported);

  std::ostringstream summary;
  summary << "{\"summary\": {\"host\": " << out.fingerprint
          << ", \"rounds\": " << out.rounds << ", \"checks\": {\"attempted\": "
          << ledger.attempted() << ", \"failed\": " << ledger.failed()
          << ", \"failed_share\": " << num(ledger.failed_share())
          << ", \"failures\": [";
  for (std::size_t i = 0; i < ledger.failures().size(); ++i) {
    summary << (i == 0 ? "" : ", ") << json_quote(ledger.failures()[i]);
  }
  summary << "]}, \"end_to_end\": " << metrics_detail(out.end_to_end)
          << ", \"per_layer\": " << metrics_detail(out.per_layer) << "}}";
  std::cout << summary.str() << "\n";

  std::ostringstream last;
  last << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << ledger.attempted()
       << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  bool first = true;
  for (const MetricValue& m : reported) {
    last << (first ? "" : ", ") << json_quote(m.name) << ": {\"value\": "
         << num(m.value) << ", \"unit\": " << json_quote(m.unit) << "}";
    first = false;
  }
  last << "}}";
  std::cout << last.str() << std::endl;
  return 0;
}
