#include "io/file_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <system_error>

#include "fault/failpoint.h"

namespace cpg::io {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

void write_all_fd(int fd, const char* data, std::size_t n,
                  const std::string& what) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::write(fd, data + done, n - done);
    if (r >= 0) {
      done += static_cast<std::size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    sys_fail("write failed for " + what);
  }
}

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) sys_fail("cannot open " + path);
  // Size the buffer from fstat, one byte over, so a regular file lands in
  // one read and the EOF read needs no growth. Anything beyond (a file that
  // grew, a pipe) doubles the buffer as it comes.
  struct stat st {};
  const std::size_t hint =
      ::fstat(fd, &st) == 0 && st.st_size > 0
          ? static_cast<std::size_t>(st.st_size) + 1
          : std::size_t{1} << 16;
  std::string out(hint, '\0');
  std::size_t got = 0;
  while (true) {
    if (got == out.size()) out.resize(2 * out.size());
    const ssize_t r = ::read(fd, out.data() + got, out.size() - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) break;
    if (errno == EINTR) continue;
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("read failed for " + path);
  }
  ::close(fd);
  out.resize(got);
  return out;
}

void write_file_atomic(const std::string& path, std::string_view data) {
  CPG_FAILPOINT("io.write_file");
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) sys_fail("cannot open " + tmp);
  try {
    write_all_fd(fd, data.data(), data.size(), tmp);
    // fsync before rename: without it the rename can land while the data is
    // still in the page cache, and a crash publishes a truncated file under
    // the final name — exactly what the atomic pattern exists to prevent.
    if (::fsync(fd) != 0) sys_fail("fsync failed for " + tmp);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::close(fd) != 0) sys_fail("close failed for " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    sys_fail("rename " + tmp + " -> " + path + " failed");
  }
}

}  // namespace cpg::io
