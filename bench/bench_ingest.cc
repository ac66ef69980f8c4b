// Incremental-ingest benchmark: builds a synthetic corpus at Paper scale,
// matches two language pairs from scratch, then applies a delta batch that
// dirties one small entity type and compares the incremental apply against
// a full rebuild on the post-delta corpus — both in wall-clock time and in
// serialized bytes. Exits nonzero if the incremental result diverges from
// the rebuild, so the equivalence guarantee is enforced on every bench run,
// not just in the unit tests. Emits one JSON object on stdout.
//
// Scale comes from $WIKIMATCH_SCALE (default 0.1); pass --smoke (or set
// WIKIMATCH_BENCH_SMOKE=1) for a fast CI-sized run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "ingest/delta.h"
#include "ingest/incremental_matcher.h"
#include "match/pipeline.h"
#include "match/serialize.h"
#include "synth/delta.h"
#include "synth/generator.h"
#include "util/binary_io.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace {

using Clock = std::chrono::steady_clock;
using store::LanguagePair;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string ResultBytes(const match::PipelineResult& result) {
  util::BinaryWriter w;
  match::EncodePipelineResult(result, &w);
  return w.TakeBuffer();
}

util::Result<std::map<LanguagePair, match::PipelineResult>> FullRun(
    wiki::Corpus* corpus, const std::vector<LanguagePair>& pairs,
    const match::PipelineOptions& options) {
  match::MatchPipeline pipeline(corpus);
  std::map<LanguagePair, match::PipelineResult> results;
  for (const auto& [lang_a, lang_b] : pairs) {
    auto result = pipeline.Run(lang_a, lang_b, options);
    if (!result.ok()) return result.status();
    results.emplace(LanguagePair(lang_a, lang_b),
                    std::move(result).ValueOrDie());
  }
  return results;
}

int Run(bool smoke) {
  const char* env = std::getenv("WIKIMATCH_SCALE");
  double scale = env ? std::atof(env) : 0.1;
  if (scale <= 0) scale = 0.1;
  if (smoke) scale = std::min(scale, 0.05);

  synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(scale));
  auto gc = generator.Generate();
  if (!gc.ok()) {
    std::fprintf(stderr, "generate: %s\n", gc.status().ToString().c_str());
    return 1;
  }
  const std::vector<LanguagePair> pairs = {{"pt", "en"}, {"vi", "en"}};
  match::PipelineOptions options;
  options.num_threads = util::DefaultThreads();

  // ---- baseline: both pairs from scratch on the base corpus ----
  auto full_start = Clock::now();
  auto base_results = FullRun(&gc->corpus, pairs, options);
  double full_build_ms = MsSince(full_start);
  if (!base_results.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 base_results.status().ToString().c_str());
    return 1;
  }

  // ---- delta batch dirtying one small type ("writer": pt-only duals) ----
  synth::DeltaSpec spec;
  spec.lang_a = "pt";
  spec.lang_b = "en";
  spec.types_b = {"writer"};
  spec.attribute_renames = 1;
  spec.value_edits = 4;
  spec.new_articles = 2;
  spec.removals = 1;
  auto batch = synth::MakeDeltaBatch(gc->corpus, spec);
  if (!batch.ok()) {
    std::fprintf(stderr, "delta: %s\n", batch.status().ToString().c_str());
    return 1;
  }

  // ---- incremental apply (footprints are matcher construction, not part
  // of the per-batch cost, so they are built before the clock starts) ----
  ingest::IncrementalMatcher matcher(gc->corpus, *base_results, options);
  auto apply_start = Clock::now();
  auto stats = matcher.Apply(*batch);
  double delta_apply_ms = MsSince(apply_start);
  if (!stats.ok()) {
    std::fprintf(stderr, "apply: %s\n", stats.status().ToString().c_str());
    return 1;
  }

  // ---- full rebuild: construct the post-delta corpus and match both
  // pairs from scratch. The corpus construction is timed on this side too —
  // a rebuild has to materialize the post corpus just like the incremental
  // path does (Apply times it inside delta_apply_ms), so both columns cover
  // the same end-to-end work. ----
  auto rebuild_start = Clock::now();
  auto post =
      ingest::ApplyDeltaToCorpus(gc->corpus, *batch, options.num_threads);
  if (!post.ok()) {
    std::fprintf(stderr, "post: %s\n", post.status().ToString().c_str());
    return 1;
  }
  auto rebuilt = FullRun(&*post, pairs, options);
  double full_rebuild_ms = MsSince(rebuild_start);
  if (!rebuilt.ok()) {
    std::fprintf(stderr, "rebuild: %s\n",
                 rebuilt.status().ToString().c_str());
    return 1;
  }

  // ---- equivalence: serialized bytes per pair ----
  bool identical = true;
  for (const auto& pair : pairs) {
    if (ResultBytes(matcher.results().at(pair)) !=
        ResultBytes(rebuilt->at(pair))) {
      identical = false;
      std::fprintf(stderr, "DIVERGENCE in pair %s:%s\n", pair.first.c_str(),
                   pair.second.c_str());
    }
  }

  double dirty_fraction =
      stats->units_total == 0
          ? 0.0
          : static_cast<double>(stats->units_recomputed) /
                static_cast<double>(stats->units_total);
  double speedup =
      delta_apply_ms == 0.0 ? 0.0 : full_rebuild_ms / delta_apply_ms;

  std::printf("{\n");
  std::printf("  \"bench\": \"ingest\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"scale\": %g,\n", scale);
  std::printf("  \"articles\": %zu,\n", gc->corpus.size());
  std::printf("  \"batch_size\": %zu,\n", batch->size());
  std::printf("  \"units_total\": %zu,\n", stats->units_total);
  std::printf("  \"units_recomputed\": %zu,\n", stats->units_recomputed);
  std::printf("  \"units_reused\": %zu,\n", stats->units_reused);
  std::printf("  \"dirty_fraction\": %.3f,\n", dirty_fraction);
  std::printf("  \"full_build_ms\": %.2f,\n", full_build_ms);
  std::printf("  \"delta_apply_ms\": %.2f,\n", delta_apply_ms);
  std::printf("  \"apply_corpus_ms\": %.2f,\n", stats->corpus_ms);
  std::printf("  \"apply_dictionary_ms\": %.2f,\n", stats->dictionary_ms);
  std::printf("  \"apply_align_ms\": %.2f,\n", stats->align_ms);
  std::printf("  \"full_rebuild_ms\": %.2f,\n", full_rebuild_ms);
  std::printf("  \"speedup\": %.2f,\n", speedup);
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
