// Short-write- and EINTR-safe POSIX file helpers.
//
// std::ofstream swallows partial-write detail: a full disk mid-write leaves
// failbit set (when anyone checks) but gives the caller no way to know what
// landed, and an EINTR during a large buffered flush is invisible. The
// durable-write paths of the runtime — stream checkpoints, distributed
// manifests, the cpgt block writer — go through these helpers instead:
// every write(2) return value is inspected, EINTR resumes, short writes
// continue from the written prefix, and failures carry errno as a
// std::system_error (which the resilient-sink failure classifier treats as
// retryable, stream/resilient_sink.h).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace cpg::io {

// Writes all n bytes to fd, resuming across EINTR and short writes. Throws
// std::system_error (errno) on failure; `what` names the destination in the
// message.
void write_all_fd(int fd, const char* data, std::size_t n,
                  const std::string& what);

// Reads until EOF, resuming across EINTR; a regular file lands in one read
// into a buffer sized by fstat. Throws std::system_error on failure.
std::string read_file(const std::string& path);

// Atomically replaces `path` with `data`: write `path`.tmp via write_all_fd,
// fsync, close (checked — a buffered ENOSPC at close is a failure, not a
// silent truncation), rename over `path`. The rename is the commit point; a
// crash at any earlier step leaves the previous file intact. The
// "io.write_file" failpoint fires before the write for fault tests.
void write_file_atomic(const std::string& path, std::string_view data);

}  // namespace cpg::io
