// Test-only references for the snapshot reader (header-only; included by
// store_test, serve_test and snapshot_differential_test):
//
//  * ReadSnapshotOracle — the original streaming fread reader, kept
//    verbatim as a differential oracle. The production reader
//    (ReadSnapshotFile = MappedSnapshot::Map + Decode) must agree with it
//    on accept/reject and on decoded content for every input.
//  * WithDirectoryLayout — rewrites a snapshot's bytes into the layout
//    older writers produced: a pad section (kind 7) that 8-aligns the
//    directory payload, a directory section (kind 6) and a 16-byte footer
//    after the last counted section. Current writers no longer emit these,
//    but files in that layout exist and must stay readable.

#ifndef WIKIMATCH_TESTS_SNAPSHOT_ORACLE_H_
#define WIKIMATCH_TESTS_SNAPSHOT_ORACLE_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "store/crc32.h"
#include "store/snapshot.h"
#include "util/binary_io.h"

namespace wikimatch {
namespace store {
namespace testing {

inline constexpr size_t kOracleHeaderSize = 16;
inline constexpr size_t kOracleSectionHeaderSize = 16;
inline constexpr uint32_t kDirectoryKind = 6;
inline constexpr uint32_t kPadKind = 7;
inline constexpr uint32_t kFooterMagic = 0x46534D57u;  // "WMSF"

/// \brief The streaming reader: fread the header, then exactly
/// section_count sections, checking each CRC before decoding it.
inline util::Result<Snapshot> ReadSnapshotOracle(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return util::Status::IoError("cannot open snapshot " + path);
  }
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{file};

  if (std::fseek(file, 0, SEEK_END) != 0) {
    return util::Status::IoError("cannot seek in snapshot " + path);
  }
  long file_size = std::ftell(file);
  if (file_size < 0) {
    return util::Status::IoError("cannot read size of snapshot " + path);
  }
  std::rewind(file);

  std::string header(kOracleHeaderSize, '\0');
  if (std::fread(header.data(), 1, kOracleHeaderSize, file) !=
      kOracleHeaderSize) {
    return util::Status::OutOfRange("truncated snapshot " + path +
                                    ": missing header");
  }
  util::BinaryReader hr(header);
  uint32_t magic = hr.ReadU32().ValueOrDie();
  uint32_t version = hr.ReadU32().ValueOrDie();
  uint32_t section_count = hr.ReadU32().ValueOrDie();
  if (magic != kSnapshotMagic) {
    return util::Status::ParseError(path + " is not a wikimatch snapshot "
                                    "(bad magic)");
  }
  if (version != kSnapshotVersion) {
    return util::Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) +
        " in " + path + " (this build reads version " +
        std::to_string(kSnapshotVersion) + ")");
  }
  if (section_count == 0) {
    return util::Status::ParseError("snapshot " + path +
                                    " is incomplete (zero sections; "
                                    "build-snapshot did not finish)");
  }

  Snapshot snapshot;
  bool have_corpus = false;
  bool have_dictionary = false;
  size_t bytes_left = static_cast<size_t>(file_size) - kOracleHeaderSize;
  for (uint32_t s = 0; s < section_count; ++s) {
    std::string section_header(kOracleSectionHeaderSize, '\0');
    if (bytes_left < kOracleSectionHeaderSize ||
        std::fread(section_header.data(), 1, kOracleSectionHeaderSize,
                   file) != kOracleSectionHeaderSize) {
      return util::Status::OutOfRange(
          "truncated snapshot " + path + ": section " + std::to_string(s) +
          " header missing");
    }
    bytes_left -= kOracleSectionHeaderSize;
    util::BinaryReader sr(section_header);
    uint32_t kind = sr.ReadU32().ValueOrDie();
    uint64_t payload_size = sr.ReadU64().ValueOrDie();
    uint32_t expected_crc = sr.ReadU32().ValueOrDie();
    if (payload_size > bytes_left) {
      return util::Status::OutOfRange(
          "truncated snapshot " + path + ": section " + std::to_string(s) +
          " claims " + std::to_string(payload_size) + " bytes but only " +
          std::to_string(bytes_left) + " remain");
    }
    std::string payload(payload_size, '\0');
    if (payload_size > 0 &&
        std::fread(payload.data(), 1, payload_size, file) != payload_size) {
      return util::Status::OutOfRange("truncated snapshot " + path +
                                      ": section " + std::to_string(s) +
                                      " payload short");
    }
    bytes_left -= payload_size;
    uint32_t actual_crc = Crc32(payload);
    if (actual_crc != expected_crc) {
      return util::Status::ParseError(
          "corrupt snapshot " + path + ": CRC mismatch in section " +
          std::to_string(s) + " (kind " + std::to_string(kind) + ")");
    }

    SectionKind k = static_cast<SectionKind>(kind);
    util::Status st = DecodeSnapshotSection(k, payload, &snapshot);
    if (!st.ok()) return st;
    if (k == SectionKind::kCorpus) have_corpus = true;
    if (k == SectionKind::kDictionary) have_dictionary = true;
  }
  if (!have_corpus || !have_dictionary) {
    return util::Status::ParseError("snapshot " + path +
                                    " lacks a corpus or dictionary section");
  }
  return snapshot;
}

/// \brief Offsets of the section headers of a well-formed snapshot, in
/// file order (the walk every reader does).
inline std::vector<size_t> SectionHeaderOffsets(const std::string& bytes) {
  uint32_t count;
  std::memcpy(&count, bytes.data() + 8, 4);
  std::vector<size_t> offsets;
  size_t at = kOracleHeaderSize;
  for (uint32_t s = 0; s < count; ++s) {
    offsets.push_back(at);
    uint64_t payload_size;
    std::memcpy(&payload_size, bytes.data() + at + 4, 8);
    at += kOracleSectionHeaderSize + payload_size;
  }
  return offsets;
}

/// \brief Appends the pad and directory sections and the footer to a
/// pre-directory snapshot's bytes and bumps its section count by two —
/// byte for byte what the directory-writing builds produced.
inline std::string WithDirectoryLayout(const std::string& bytes) {
  std::string out = bytes;
  auto append_section = [&out](uint32_t kind, const std::string& payload) {
    util::BinaryWriter h;
    h.PutU32(kind);
    h.PutU64(payload.size());
    h.PutU32(Crc32(payload));
    out += h.buffer();
    out += payload;
  };
  const std::vector<size_t> offsets = SectionHeaderOffsets(bytes);
  const size_t pad =
      (8 - (out.size() + 2 * kOracleSectionHeaderSize) % 8) % 8;
  append_section(kPadKind, std::string(pad, '\0'));
  const uint64_t dir_at = out.size();
  util::BinaryWriter dir;
  dir.PutU64(offsets.size());
  for (size_t at : offsets) {
    uint32_t kind, crc;
    uint64_t payload_size;
    std::memcpy(&kind, bytes.data() + at, 4);
    std::memcpy(&payload_size, bytes.data() + at + 4, 8);
    std::memcpy(&crc, bytes.data() + at + 12, 4);
    dir.PutU32(kind);
    dir.PutU32(0);
    dir.PutU64(at);
    dir.PutU64(payload_size);
    dir.PutU32(crc);
    dir.PutU32(0);
  }
  append_section(kDirectoryKind, dir.buffer());
  util::BinaryWriter offset_bytes;
  offset_bytes.PutU64(dir_at);
  util::BinaryWriter footer;
  footer.PutU64(dir_at);
  footer.PutU32(Crc32(offset_bytes.buffer()));
  footer.PutU32(kFooterMagic);
  out += footer.buffer();
  const uint32_t count = static_cast<uint32_t>(offsets.size() + 2);
  std::memcpy(out.data() + 8, &count, 4);
  return out;
}

}  // namespace testing
}  // namespace store
}  // namespace wikimatch

#endif  // WIKIMATCH_TESTS_SNAPSHOT_ORACLE_H_
