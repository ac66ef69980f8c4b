#include "store/snapshot_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "store/crc32.h"
#include "util/binary_io.h"

namespace wikimatch {
namespace store {
namespace {

constexpr size_t kHeaderSize = 16;         // magic, version, count, reserved
constexpr size_t kSectionHeaderSize = 16;  // kind u32, size u64, crc u32

}  // namespace

util::Result<std::shared_ptr<MappedSnapshot>> MappedSnapshot::Map(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return util::Status::IoError("cannot open snapshot " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return util::Status::IoError("cannot stat snapshot " + path);
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return util::Status::IoError("cannot read snapshot " + path +
                                 ": not a regular file");
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < kHeaderSize) {
    ::close(fd);
    return util::Status::OutOfRange("truncated snapshot " + path +
                                    ": missing header");
  }
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the pages; the fd is not needed
  if (mapping == MAP_FAILED) {
    return util::Status::IoError("cannot mmap snapshot " + path);
  }
  auto snap = std::shared_ptr<MappedSnapshot>(new MappedSnapshot());
  snap->path_ = path;
  snap->base_ = static_cast<const unsigned char*>(mapping);
  snap->size_ = size;

  const std::string_view bytes(reinterpret_cast<const char*>(snap->base_),
                               size);
  util::BinaryReader hr(bytes.substr(0, kHeaderSize));
  uint32_t magic = hr.ReadU32().ValueOrDie();
  uint32_t version = hr.ReadU32().ValueOrDie();
  uint32_t section_count = hr.ReadU32().ValueOrDie();
  if (magic != kSnapshotMagic) {
    return util::Status::ParseError(path +
                                    " is not a wikimatch snapshot (bad "
                                    "magic)");
  }
  if (version != kSnapshotVersion) {
    return util::Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) + " in " +
        path + " (this build reads version " +
        std::to_string(kSnapshotVersion) + ")");
  }
  if (section_count == 0) {
    return util::Status::ParseError("snapshot " + path +
                                    " is incomplete (zero sections; "
                                    "build-snapshot did not finish)");
  }

  // Walk the counted section headers in place. Bytes after the last one
  // (the footer of directory-writing builds) are never looked at.
  bool have_corpus = false;
  bool have_dictionary = false;
  uint64_t at = kHeaderSize;
  for (uint32_t s = 0; s < section_count; ++s) {
    const uint64_t bytes_left = size - at;
    if (bytes_left < kSectionHeaderSize) {
      return util::Status::OutOfRange(
          "truncated snapshot " + path + ": section " + std::to_string(s) +
          " header missing");
    }
    util::BinaryReader sr(bytes.substr(at, kSectionHeaderSize));
    Entry e;
    e.kind = sr.ReadU32().ValueOrDie();
    e.payload_size = sr.ReadU64().ValueOrDie();
    e.crc = sr.ReadU32().ValueOrDie();
    e.payload_offset = at + kSectionHeaderSize;
    if (e.payload_size > bytes_left - kSectionHeaderSize) {
      return util::Status::OutOfRange(
          "truncated snapshot " + path + ": section " + std::to_string(s) +
          " claims " + std::to_string(e.payload_size) + " bytes but only " +
          std::to_string(bytes_left - kSectionHeaderSize) + " remain");
    }
    if (e.kind == static_cast<uint32_t>(SectionKind::kCorpus)) {
      have_corpus = true;
    }
    if (e.kind == static_cast<uint32_t>(SectionKind::kDictionary)) {
      have_dictionary = true;
    }
    snap->entries_.push_back(e);
    at = e.payload_offset + e.payload_size;
  }
  if (!have_corpus || !have_dictionary) {
    return util::Status::ParseError("snapshot " + path +
                                    " lacks a corpus or dictionary section");
  }
  snap->crc_state_ =
      std::make_unique<std::atomic<uint8_t>[]>(snap->entries_.size());
  for (size_t i = 0; i < snap->entries_.size(); ++i) {
    snap->crc_state_[i].store(0, std::memory_order_relaxed);
  }
  return snap;
}

MappedSnapshot::~MappedSnapshot() {
  if (base_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(base_), size_);
  }
}

util::Result<std::string_view> MappedSnapshot::Payload(size_t idx) const {
  if (idx >= entries_.size()) {
    return util::Status::OutOfRange("snapshot section index " +
                                    std::to_string(idx) + " out of range");
  }
  const Entry& e = entries_[idx];
  std::string_view payload(
      reinterpret_cast<const char*>(base_) + e.payload_offset,
      e.payload_size);
  uint8_t state = crc_state_[idx].load(std::memory_order_acquire);
  if (state == 0) {
    // First touch: validate. Concurrent first touches both compute the
    // same CRC over immutable bytes and store the same verdict — the race
    // is benign and the result sticky.
    state = Crc32(payload) == e.crc ? 1 : 2;
    crc_state_[idx].store(state, std::memory_order_release);
  }
  if (state != 1) {
    return util::Status::ParseError(
        "corrupt snapshot " + path_ + ": CRC mismatch in section " +
        std::to_string(idx) + " (kind " + std::to_string(e.kind) + ")");
  }
  return payload;
}

util::Result<Snapshot> MappedSnapshot::Decode() const {
  Snapshot snapshot;
  for (size_t i = 0; i < entries_.size(); ++i) {
    auto payload = Payload(i);
    if (!payload.ok()) return payload.status();
    WIKIMATCH_RETURN_NOT_OK(DecodeSnapshotSection(
        section_kind(i), payload.ValueOrDie(), &snapshot));
  }
  return snapshot;
}

util::Result<Snapshot> ReadSnapshotFile(const std::string& path) {
  auto mapped = MappedSnapshot::Map(path);
  if (!mapped.ok()) return mapped.status();
  return mapped.ValueOrDie()->Decode();
}

}  // namespace store
}  // namespace wikimatch
