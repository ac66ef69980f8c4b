// The snapshot reader: the one path every snapshot is read through.
//
// MappedSnapshot::Map mmaps a snapshot file, checks the 16-byte header and
// walks the section_count section headers in place. Each header already
// holds the section's kind, payload size and CRC-32, so the walk
// bounds-checks every section against the file size and confirms that a
// corpus and a dictionary section exist without reading any payload:
// mapping a large snapshot touches one page per section header, not the
// content. Content-section CRCs are validated *lazily*: the first
// Payload() touch of a section checks its CRC-32 and caches the verdict
// (sticky both ways), so corruption is still always detected before any
// decoded byte is trusted, just not before the process starts answering
// health checks. ReadSnapshotFile (store/snapshot.h) is Map + Decode.
//
// Layout compatibility: sections of unknown kind are bounds-checked,
// CRC-checked by Decode and otherwise skipped, and bytes after the last
// counted section are ignored. That is how files from directory-writing
// builds (pad kind 7, directory kind 6, a trailing 16-byte footer) read
// the same as the pre-directory layout current writers emit.
//
// Lifetime: the mapping holds the pages, not the directory entry — a
// snapshot file may be replaced (SnapshotWriter publishes by rename) or
// unlinked while mapped and every outstanding string_view stays valid
// until the MappedSnapshot is destroyed. The serving layer pins one
// shared_ptr<MappedSnapshot> per generation for exactly this reason
// (docs/SERVING.md).

#ifndef WIKIMATCH_STORE_SNAPSHOT_READER_H_
#define WIKIMATCH_STORE_SNAPSHOT_READER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "store/snapshot.h"
#include "util/result.h"

namespace wikimatch {
namespace store {

/// \brief A snapshot file mapped read-only into the address space.
class MappedSnapshot {
 public:
  /// \brief Maps `path` and validates the header and every section
  /// header. Errors: IoError (cannot open or map, or not a regular file),
  /// ParseError (bad magic, zero sections, no corpus or dictionary
  /// section), OutOfRange (truncated header or section), InvalidArgument
  /// (unsupported version).
  static util::Result<std::shared_ptr<MappedSnapshot>> Map(
      const std::string& path);

  ~MappedSnapshot();

  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  /// \brief Counted sections, in file order (unknown kinds included).
  size_t num_sections() const { return entries_.size(); }

  SectionKind section_kind(size_t idx) const {
    return static_cast<SectionKind>(entries_[idx].kind);
  }

  /// \brief The section's payload bytes, in place in the mapping. The
  /// first touch of a section CRC-validates it; the verdict is cached and
  /// sticky (a corrupt section stays an error on every later touch).
  /// Thread-safe; concurrent first touches may both compute the CRC.
  util::Result<std::string_view> Payload(size_t idx) const;

  /// \brief Decodes every section into an in-memory Snapshot, validating
  /// each section's CRC as it is touched (sections of unknown kind are
  /// checked and skipped).
  util::Result<Snapshot> Decode() const;

  const std::string& path() const { return path_; }
  uint64_t file_size() const { return size_; }

 private:
  struct Entry {
    uint32_t kind = 0;
    uint64_t payload_offset = 0;
    uint64_t payload_size = 0;
    uint32_t crc = 0;
  };

  MappedSnapshot() = default;

  std::string path_;
  const unsigned char* base_ = nullptr;
  uint64_t size_ = 0;
  std::vector<Entry> entries_;
  // Lazy per-section CRC state: 0 = unchecked, 1 = verified, 2 = corrupt.
  // unique_ptr<atomic[]> because vector<atomic> is not movable.
  std::unique_ptr<std::atomic<uint8_t>[]> crc_state_;
};

}  // namespace store
}  // namespace wikimatch

#endif  // WIKIMATCH_STORE_SNAPSHOT_READER_H_
