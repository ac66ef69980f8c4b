// Whole-file reading shared by the text-format loaders (dump XML, match
// sets).

#ifndef WIKIMATCH_UTIL_FILE_IO_H_
#define WIKIMATCH_UTIL_FILE_IO_H_

#include <string>

#include "util/result.h"

namespace wikimatch {
namespace util {

/// \brief Reads `path` to end of file. Works on regular files, pipes and
/// character devices alike (the size is never taken from a seek); returns
/// IoError when the path cannot be opened or a read fails, e.g. on a
/// directory.
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace util
}  // namespace wikimatch

#endif  // WIKIMATCH_UTIL_FILE_IO_H_
