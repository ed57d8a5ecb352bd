#include "proc.h"

#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace cpg::perfbench {

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

long status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      std::sscanf(line + key_len + 1, " %ld", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const Span& s : spans_) {
    os << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": " << s.pid << ", \"tid\": " << s.pid
       << std::fixed << std::setprecision(3)
       << ", \"ts\": " << static_cast<double>(s.start_ns - base) / 1e3
       << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ", \"args\": {\"parent\": \"" << s.parent << "\"}}";
    first = false;
  }
  os << "\n]}\n";
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::string parent)
    : log_(log) {
  span_.name = std::move(name);
  span_.parent = std::move(parent);
  span_.pid = static_cast<int>(::getpid());
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = now_ns();
  log_->add(std::move(span_));
}

// Line grammar, one record per line (names never contain spaces):
//   v <key> <value>            d <key> <digest...>
//   q <key> <value>            s <start> <end> <pid> <name> [<parent>]
//   e <message...>
std::string ChildReport::serialize() const {
  std::ostringstream os;
  os << std::setprecision(17);
  for (const auto& [k, v] : values) os << "v " << k << ' ' << v << '\n';
  for (const auto& [k, d] : digests) os << "d " << k << ' ' << d.encode() << '\n';
  for (const auto& [k, vs] : series) {
    for (double v : vs) os << "q " << k << ' ' << v << '\n';
  }
  for (const Span& s : spans) {
    os << "s " << s.start_ns << ' ' << s.end_ns << ' ' << s.pid << ' '
       << s.name << ' ' << s.parent << '\n';
  }
  if (!error.empty()) {
    std::string one_line = error;
    for (char& c : one_line) {
      if (c == '\n') c = ' ';
    }
    os << "e " << one_line << '\n';
  }
  return os.str();
}

ChildReport ChildReport::parse(const std::string& text) {
  ChildReport r;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.size() < 2) continue;
    std::istringstream ls(line.substr(2));
    std::string key;
    switch (line[0]) {
      case 'v': {
        double v = 0;
        ls >> key >> v;
        r.values[key] = v;
        break;
      }
      case 'q': {
        double v = 0;
        ls >> key >> v;
        r.series[key].push_back(v);
        break;
      }
      case 'd': {
        ls >> key;
        std::string rest;
        std::getline(ls, rest);
        Digest d;
        if (Digest::decode(rest, d)) r.digests[key] = d;
        break;
      }
      case 's': {
        Span s;
        ls >> s.start_ns >> s.end_ns >> s.pid >> s.name >> s.parent;
        r.spans.push_back(std::move(s));
        break;
      }
      case 'e':
        r.error = line.substr(2);
        break;
      default:
        break;
    }
  }
  return r;
}

ChildReport run_in_child(const std::function<void(ChildReport&)>& body) {
  ChildReport failed;
  int fds[2];
  if (::pipe(fds) != 0) {
    failed.error = std::string("pipe: ") + std::strerror(errno);
    return failed;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    failed.error = std::string("fork: ") + std::strerror(errno);
    return failed;
  }
  if (pid == 0) {
    ::close(fds[0]);
    ChildReport report;
    try {
      body(report);
    } catch (const std::exception& e) {
      report.error = e.what();
    } catch (...) {
      report.error = "unknown exception";
    }
    if (report.error.empty()) report.values["child_ok"] = 1;
    const std::string text = report.serialize();
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = ::write(fds[1], text.data() + off, text.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) ::_exit(3);
      off += static_cast<std::size_t>(n);
    }
    ::close(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string text;
  char buf[1 << 15];
  while (true) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  ChildReport report = ChildReport::parse(text);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    report.error = "child process failed (status " + std::to_string(status) +
                   ")" + (report.error.empty() ? "" : ": " + report.error);
  } else if (report.error.empty() && report.values.count("child_ok") == 0) {
    report.error = "child reported nothing";
  }
  return report;
}

}  // namespace cpg::perfbench
