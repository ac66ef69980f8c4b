// Differential mutation test of the snapshot reader. ReadSnapshotFile
// (MappedSnapshot::Map walking the section headers in the mapping, then
// Decode) is run against the original streaming fread reader
// (snapshot_oracle.h) on mutants of a Tiny-fixture snapshot in both
// layouts that exist on disk: the pre-directory layout current writers
// emit, and the layout with pad + directory sections and a footer that
// the directory-writing builds emitted. The two readers must agree on
// accept/reject for every mutant, and accepted mutants must decode to
// the same content (identical WriteSnapshotFile bytes). Mutations:
// truncation at every section boundary ±1, section_count and
// payload_size edits, section splices, and a fixed number of seeded
// random bit flips, overwrites and cuts. The sanitizer build runs this
// suite.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "match/pipeline.h"
#include "snapshot_oracle.h"
#include "store/snapshot.h"
#include "synth/generator.h"

namespace wikimatch {
namespace store {
namespace {

using testing::ReadSnapshotOracle;
using testing::SectionHeaderOffsets;
using testing::WithDirectoryLayout;

constexpr uint64_t kSeed = 20111;
constexpr int kRandomMutantsPerLayout = 150;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "." +
         name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PutU32At(std::string* bytes, size_t at, uint32_t v) {
  std::memcpy(bytes->data() + at, &v, 4);
}

void PutU64At(std::string* bytes, size_t at, uint64_t v) {
  std::memcpy(bytes->data() + at, &v, 8);
}

uint32_t SectionCount(const std::string& bytes) {
  uint32_t count;
  std::memcpy(&count, bytes.data() + 8, 4);
  return count;
}

// One snapshot holding every content kind (corpus, dictionary, pipeline,
// meta with history and options, sync report), in both layouts.
struct Layouts {
  std::string plain;      // pre-directory layout
  std::string directory;  // pad + directory + footer
};

const Layouts& GetLayouts() {
  static const Layouts* layouts = [] {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny());
    synth::GeneratedCorpus gc = std::move(generator.Generate()).ValueOrDie();
    match::MatchPipeline pipeline(&gc.corpus);
    Snapshot snapshot;
    auto result = pipeline.Run("pt", "en");
    snapshot.pipelines.emplace(LanguagePair("pt", "en"),
                               std::move(result).ValueOrDie());
    snapshot.dictionary = pipeline.dictionary();
    snapshot.corpus = std::move(gc.corpus);
    snapshot.meta.generation = 2;
    snapshot.meta.history.push_back({1, 3, 0, 0, 4, 1});
    snapshot.meta.history.push_back({2, 0, 1, 1, 5, 0});
    snapshot.meta.options = OptionsFingerprint::From(match::PipelineOptions{});
    snapshot.sync_report.generation = 2;
    snapshot.sync_report.cells.push_back(
        {"pt", "film", "filme x", "film x", "elenco", "starring",
         sync::CellClass::kStale, 0.5});
    snapshot.sync_report.updates.push_back(
        {"en", "pt", "film x", "filme x", "starring", "elenco",
         "[[a]], [[b]]", 0.5});
    std::string path = TempPath("differential_base.snap");
    auto status = WriteSnapshotFile(snapshot, path);
    EXPECT_TRUE(status.ok()) << status.ToString();
    auto* out = new Layouts();
    out->plain = ReadFileBytes(path);
    out->directory = WithDirectoryLayout(out->plain);
    std::remove(path.c_str());
    return out;
  }();
  return *layouts;
}

std::string Reserialize(const Snapshot& snapshot) {
  std::string path = TempPath("differential_reserialized.snap");
  auto status = WriteSnapshotFile(snapshot, path);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

// Runs both readers on `bytes`; returns true when both accepted.
// `same_message` additionally requires identical error text (used for
// pure truncations, where both readers fail at the same first damage).
bool ExpectReadersAgree(const std::string& bytes, const std::string& what,
                        bool same_message = false) {
  std::string path = TempPath("differential_mutant.snap");
  WriteFileBytes(path, bytes);
  auto actual = ReadSnapshotFile(path);
  auto oracle = ReadSnapshotOracle(path);
  std::remove(path.c_str());
  EXPECT_EQ(actual.ok(), oracle.ok())
      << what << "\n  reader: " << actual.status().ToString()
      << "\n  oracle: " << oracle.status().ToString();
  if (actual.ok() && oracle.ok()) {
    EXPECT_EQ(Reserialize(*actual), Reserialize(*oracle))
        << what << ": decoded content differs";
    return true;
  }
  if (same_message && !actual.ok() && !oracle.ok()) {
    EXPECT_EQ(actual.status().ToString(), oracle.status().ToString())
        << what;
  }
  return false;
}

struct NamedLayout {
  const char* name;
  const std::string* bytes;
};

std::vector<NamedLayout> BothLayouts() {
  const Layouts& l = GetLayouts();
  return {{"plain", &l.plain}, {"directory", &l.directory}};
}

TEST(SnapshotDifferentialTest, UnmutatedLayoutsDecodeIdentically) {
  const Layouts& l = GetLayouts();
  ASSERT_TRUE(ExpectReadersAgree(l.plain, "plain layout"));
  ASSERT_TRUE(ExpectReadersAgree(l.directory, "directory layout"));
  // Both layouts carry the same content.
  std::string a = TempPath("differential_plain.snap");
  std::string b = TempPath("differential_directory.snap");
  WriteFileBytes(a, l.plain);
  WriteFileBytes(b, l.directory);
  auto from_plain = ReadSnapshotFile(a);
  auto from_directory = ReadSnapshotFile(b);
  ASSERT_TRUE(from_plain.ok()) << from_plain.status().ToString();
  ASSERT_TRUE(from_directory.ok()) << from_directory.status().ToString();
  EXPECT_EQ(Reserialize(*from_plain), Reserialize(*from_directory));
  // Writers emit the pre-directory layout, so re-serializing is identity.
  EXPECT_EQ(Reserialize(*from_directory), l.plain);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SnapshotDifferentialTest, TruncationAtEverySectionBoundary) {
  for (const NamedLayout& layout : BothLayouts()) {
    const std::string& bytes = *layout.bytes;
    std::vector<size_t> boundaries = {0, 8, 16, bytes.size()};
    for (size_t at : SectionHeaderOffsets(bytes)) {
      boundaries.push_back(at);
      boundaries.push_back(at + 16);  // first payload byte
    }
    size_t accepted = 0;
    for (size_t boundary : boundaries) {
      for (size_t keep : {boundary - 1, boundary, boundary + 1}) {
        if (keep > bytes.size()) continue;
        if (ExpectReadersAgree(bytes.substr(0, keep),
                               std::string(layout.name) + " cut to " +
                                   std::to_string(keep),
                               /*same_message=*/true)) {
          ++accepted;
        }
      }
    }
    // Only the whole file is accepted, and with a footer also the cut one
    // byte into it, which leaves every counted section whole.
    const bool has_footer = std::string(layout.name) == "directory";
    EXPECT_EQ(accepted, has_footer ? 2u : 1u) << layout.name;
  }
}

TEST(SnapshotDifferentialTest, SectionCountAndPayloadSizeEdits) {
  for (const NamedLayout& layout : BothLayouts()) {
    const std::string& bytes = *layout.bytes;
    const uint32_t count = SectionCount(bytes);
    for (uint32_t edited :
         {0u, 1u, 2u, count - 1, count + 1, count + 2, 0xFFFFFFFFu}) {
      std::string mutant = bytes;
      PutU32At(&mutant, 8, edited);
      ExpectReadersAgree(mutant, std::string(layout.name) +
                                     " section_count=" +
                                     std::to_string(edited));
    }
    for (size_t at : SectionHeaderOffsets(bytes)) {
      uint64_t size;
      std::memcpy(&size, bytes.data() + at + 4, 8);
      const uint64_t remaining = bytes.size() - at - 16;
      for (uint64_t edited :
           {uint64_t{0}, size - 1, size + 1, size + 16, remaining,
            remaining + 1, uint64_t{1} << 63, ~uint64_t{0}}) {
        std::string mutant = bytes;
        PutU64At(&mutant, at + 4, edited);
        ExpectReadersAgree(mutant, std::string(layout.name) + " section@" +
                                       std::to_string(at) + " size=" +
                                       std::to_string(edited));
      }
    }
  }
}

TEST(SnapshotDifferentialTest, SectionSplices) {
  for (const NamedLayout& layout : BothLayouts()) {
    const std::string& bytes = *layout.bytes;
    const std::vector<size_t> offsets = SectionHeaderOffsets(bytes);
    const uint32_t count = SectionCount(bytes);
    std::vector<std::string> sections;
    for (size_t i = 0; i < offsets.size(); ++i) {
      size_t end = i + 1 < offsets.size() ? offsets[i + 1] : 0;
      if (end == 0) {
        uint64_t size;
        std::memcpy(&size, bytes.data() + offsets[i] + 4, 8);
        end = offsets[i] + 16 + size;
      }
      sections.push_back(bytes.substr(offsets[i], end - offsets[i]));
    }
    const std::string header = bytes.substr(0, 16);
    const std::string trailer =
        bytes.substr(offsets.back() + sections.back().size());
    auto assemble = [&](const std::vector<std::string>& parts,
                        uint32_t new_count) {
      std::string out = header;
      for (const std::string& part : parts) out += part;
      out += trailer;
      PutU32At(&out, 8, new_count);
      return out;
    };
    const std::string name(layout.name);
    for (size_t i = 0; i < sections.size(); ++i) {
      std::vector<std::string> dropped = sections;
      dropped.erase(dropped.begin() + static_cast<long>(i));
      ExpectReadersAgree(assemble(dropped, count - 1),
                         name + " drop section " + std::to_string(i));
      // Dropped but still counted: the last counted section is missing
      // (or, with a footer, read out of the footer bytes).
      ExpectReadersAgree(assemble(dropped, count),
                         name + " drop section " + std::to_string(i) +
                             " keep count");
      // A copy in front, right behind the original, and at the end.
      for (size_t j : {size_t{0}, i + 1, sections.size()}) {
        std::vector<std::string> duplicated = sections;
        duplicated.insert(duplicated.begin() + static_cast<long>(j),
                          sections[i]);
        ExpectReadersAgree(assemble(duplicated, count + 1),
                           name + " duplicate section " + std::to_string(i) +
                               " at " + std::to_string(j));
      }
      for (size_t j = i + 1; j < sections.size(); ++j) {
        std::vector<std::string> swapped = sections;
        std::swap(swapped[i], swapped[j]);
        ExpectReadersAgree(assemble(swapped, count),
                           name + " swap sections " + std::to_string(i) +
                               "," + std::to_string(j));
      }
    }
  }
}

TEST(SnapshotDifferentialTest, SeededRandomMutations) {
  std::mt19937_64 rng(kSeed);
  for (const NamedLayout& layout : BothLayouts()) {
    const std::string& bytes = *layout.bytes;
    const std::vector<size_t> offsets = SectionHeaderOffsets(bytes);
    // Half the edits land in a header (file or section), where a single
    // flipped bit changes the structure instead of one payload CRC.
    auto pick_offset = [&]() -> size_t {
      if (rng() % 2 == 0) {
        size_t header = rng() % (offsets.size() + 1);
        size_t base = header == offsets.size() ? 0 : offsets[header];
        return base + rng() % 16;
      }
      return rng() % bytes.size();
    };
    size_t accepted = 0;
    for (int i = 0; i < kRandomMutantsPerLayout; ++i) {
      std::string mutant = bytes;
      std::string what = std::string(layout.name) + " mutant " +
                         std::to_string(i) + ": ";
      switch (rng() % 4) {
        case 0:
        case 1: {  // one bit flip
          size_t at = pick_offset();
          int bit = static_cast<int>(rng() % 8);
          mutant[at] = static_cast<char>(mutant[at] ^ (1 << bit));
          what += "flip bit " + std::to_string(bit) + " of byte " +
                  std::to_string(at);
          break;
        }
        case 2: {  // overwrite up to 8 bytes
          size_t at = pick_offset();
          size_t n = 1 + rng() % 8;
          for (size_t k = 0; k < n && at + k < mutant.size(); ++k) {
            mutant[at + k] = static_cast<char>(rng());
          }
          what += "overwrite " + std::to_string(n) + " bytes at " +
                  std::to_string(at);
          break;
        }
        default: {  // cut anywhere
          size_t keep = rng() % (bytes.size() + 1);
          mutant.resize(keep);
          what += "cut to " + std::to_string(keep);
          break;
        }
      }
      if (ExpectReadersAgree(mutant, what)) ++accepted;
    }
    // Flips in the reserved header word or the footer leave a readable
    // file; the run must exercise both verdicts.
    EXPECT_GT(accepted, 0u) << layout.name;
    EXPECT_LT(accepted, static_cast<size_t>(kRandomMutantsPerLayout))
        << layout.name;
  }
}

}  // namespace
}  // namespace store
}  // namespace wikimatch
