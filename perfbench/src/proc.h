// Process isolation and span recording for the benchmark.
//
// Every measured pass runs in a forked child so that passes cannot share a
// heap or a resident-memory high-water mark: fork resets VmHWM to the
// child's current RSS, so VmHWM at the end minus VmRSS at the start is the
// memory the pass added. The child reports back one text block over a pipe
// (values, digests, sample series, spans); the parent parses it after the
// child has exited.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "checks.h"

namespace cpg::perfbench {

// CLOCK_MONOTONIC in nanoseconds; comparable across forked processes.
std::int64_t now_ns();

// A /proc/self/status field in kB (VmRSS, VmHWM); -1 when unreadable.
long status_kb(const char* key);

// One timed interval at a layer boundary. `parent` names the enclosing
// span (empty for a root); `pid` is the process that recorded it.
struct Span {
  std::string name;
  std::string parent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int pid = 0;
};

// In-memory span store; written out once, when the benchmark ends.
class SpanLog {
 public:
  void add(Span s) { spans_.push_back(std::move(s)); }
  void add_all(const std::vector<Span>& spans) {
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  // Chrome trace-event JSON (complete "X" events, microseconds).
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Times a scope into a span of `log` (no-op when `log` is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string parent = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
};

// What a child reports; built in the child, parsed in the parent.
struct ChildReport {
  std::map<std::string, double> values;
  std::map<std::string, Digest> digests;
  std::map<std::string, std::vector<double>> series;
  std::vector<Span> spans;
  std::string error;  // non-empty = the child's body failed

  std::string serialize() const;
  static ChildReport parse(const std::string& text);
};

// Forks, runs `body` in the child and returns its report. An exception in
// the body, a crash, or a non-zero exit is reported through `error`; the
// parent never throws for a child's failure. The parent must be
// single-threaded when calling this (fork copies only the calling thread).
ChildReport run_in_child(const std::function<void(ChildReport&)>& body);

}  // namespace cpg::perfbench
