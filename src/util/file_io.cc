#include "util/file_io.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace wikimatch {
namespace util {

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::string buf;
  // A regular file's size only sizes the first allocation; the loop below
  // reads to EOF whatever the file turns out to hold.
  struct stat st;
  if (::fstat(::fileno(f), &st) == 0 && S_ISREG(st.st_mode)) {
    buf.reserve(static_cast<size_t>(st.st_size));
  }
  char chunk[1 << 16];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) buf.append(chunk, n);
  bool failed = std::ferror(f) != 0;
  int error = errno;
  std::fclose(f);
  if (failed) {
    return Status::IoError("read error on " + path + ": " +
                           std::strerror(error));
  }
  return buf;
}

}  // namespace util
}  // namespace wikimatch
