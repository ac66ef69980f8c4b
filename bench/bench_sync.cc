// Value-synchronization benchmark: generates a synthetic corpus at Paper
// scale, runs a full SyncEngine pass over every ground-truth scope, then
// applies a delta batch dirtying well under 10% of the article pairs and
// compares Resync() against a fresh full Run() on the post-delta corpus —
// in wall-clock time and in serialized report bytes. Exits nonzero if the
// incremental report diverges from the full one, so the byte-equivalence
// guarantee is enforced on every bench run, not just in the unit tests.
// Emits one JSON object on stdout (headlines: full_sync_ms, resync_ms,
// resync_speedup — registered in tools/bench_trend.py).
//
// Scale comes from $WIKIMATCH_SCALE (default 0.1); pass --smoke (or set
// WIKIMATCH_BENCH_SMOKE=1) for a fast CI-sized run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ingest/delta.h"
#include "match/dictionary.h"
#include "synth/sync_oracle.h"
#include "sync/sync_engine.h"
#include "synth/delta.h"
#include "synth/generator.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::set<std::pair<std::string, std::string>> DirtyKeys(
    const ingest::DeltaBatch& batch) {
  std::set<std::pair<std::string, std::string>> dirty;
  for (const wiki::Article& a : batch.added) {
    dirty.insert({a.language, a.title});
  }
  for (const wiki::Article& a : batch.updated) {
    dirty.insert({a.language, a.title});
  }
  for (const auto& key : batch.removed) dirty.insert(key);
  return dirty;
}

int Run(bool smoke) {
  const char* env = std::getenv("WIKIMATCH_SCALE");
  double scale = env ? std::atof(env) : 0.1;
  if (scale <= 0) scale = 0.1;
  if (smoke) scale = std::min(scale, 0.05);
  size_t threads = util::DefaultThreads();

  synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(scale));
  auto gc = generator.Generate();
  if (!gc.ok()) {
    std::fprintf(stderr, "generate: %s\n", gc.status().ToString().c_str());
    return 1;
  }
  match::TranslationDictionary dictionary;
  dictionary.Build(gc->corpus);
  sync::SyncEngine engine(&gc->corpus, &dictionary, gc->hub);
  // Ground-truth scopes keep the bench about the sync engine, not the
  // matcher upstream of it; alignment pointers borrow from gc.
  std::vector<sync::SyncScope> scopes =
      synth::SyncOracle::ScopesFromGroundTruth(*gc);

  // ---- baseline: full pass over the base corpus ----
  auto full_start = Clock::now();
  sync::SyncReport before = engine.Run(scopes, threads);
  double full_sync_ms = MsSince(full_start);

  // ---- delta batch touching a small slice of the corpus ----
  synth::DeltaSpec spec;
  spec.lang_a = "pt";
  spec.lang_b = gc->hub;
  spec.attribute_renames = 1;
  spec.value_edits = 8;
  spec.new_articles = 3;
  spec.removals = 2;
  auto batch = synth::MakeDeltaBatch(gc->corpus, spec);
  if (!batch.ok()) {
    std::fprintf(stderr, "delta: %s\n", batch.status().ToString().c_str());
    return 1;
  }
  auto dirty = DirtyKeys(*batch);
  ingest::DeltaUndo undo;
  auto applied = ingest::ApplyDeltaInPlace(&gc->corpus, *batch, &undo);
  if (!applied.ok()) {
    std::fprintf(stderr, "apply: %s\n", applied.ToString().c_str());
    return 1;
  }

  // ---- incremental re-sync vs full pass on the post-delta corpus ----
  auto resync_start = Clock::now();
  sync::SyncReport incremental = engine.Resync(scopes, before, dirty, threads);
  double resync_ms = MsSince(resync_start);

  auto post_start = Clock::now();
  sync::SyncReport post = engine.Run(scopes, threads);
  double post_full_sync_ms = MsSince(post_start);

  bool identical =
      sync::EncodeSyncReport(incremental) == sync::EncodeSyncReport(post);
  if (!identical) {
    std::fprintf(stderr, "DIVERGENCE: Resync() != Run() on the post-delta "
                 "corpus\n");
  }
  double dirty_fraction =
      gc->corpus.size() == 0
          ? 0.0
          : static_cast<double>(dirty.size()) /
                static_cast<double>(gc->corpus.size());
  double speedup = resync_ms == 0.0 ? 0.0 : post_full_sync_ms / resync_ms;

  std::printf("{\n");
  std::printf("  \"bench\": \"sync\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"scale\": %g,\n", scale);
  std::printf("  \"threads\": %zu,\n", threads);
  std::printf("  \"articles\": %zu,\n", gc->corpus.size());
  std::printf("  \"scopes\": %zu,\n", scopes.size());
  std::printf("  \"cells\": %zu,\n", post.cells.size());
  std::printf("  \"updates\": %zu,\n", post.updates.size());
  std::printf("  \"batch_size\": %zu,\n", batch->size());
  std::printf("  \"dirty_articles\": %zu,\n", dirty.size());
  std::printf("  \"dirty_fraction\": %.4f,\n", dirty_fraction);
  std::printf("  \"full_sync_ms\": %.2f,\n", full_sync_ms);
  std::printf("  \"post_full_sync_ms\": %.2f,\n", post_full_sync_ms);
  std::printf("  \"resync_ms\": %.2f,\n", resync_ms);
  std::printf("  \"resync_speedup\": %.2f,\n", speedup);
  std::printf("  \"identical\": %s\n", identical ? "true" : "false");
  std::printf("}\n");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace wikimatch

int main(int argc, char** argv) {
  bool smoke = false;
  const char* env = std::getenv("WIKIMATCH_BENCH_SMOKE");
  if (env != nullptr && std::strcmp(env, "1") == 0) smoke = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return wikimatch::Run(smoke);
}
