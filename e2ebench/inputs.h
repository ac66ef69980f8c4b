// Benchmark inputs made from a seed: the synthetic corpus rendered as
// MediaWiki XML dumps, the serving snapshot, the request mix derived from
// that snapshot, and the delta-batch stream for refresh. The program under
// test only ever sees the files written here.

#ifndef WIKIMATCH_E2EBENCH_INPUTS_H_
#define WIKIMATCH_E2EBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "match/pipeline.h"
#include "store/snapshot.h"
#include "synth/generator.h"
#include "trace.h"
#include "util/result.h"
#include "wiki/corpus.h"

namespace e2e {

/// Paper-shaped corpus at `scale`, generated from `seed`.
wikimatch::util::Result<wikimatch::synth::GeneratedCorpus> GenerateCorpus(
    uint64_t seed, double scale);

/// One article as the wikitext a dump page would carry.
std::string RenderWikitext(const wikimatch::wiki::Article& article);

/// Writes <dir>/<lang>wiki.xml for every language, pages in an order
/// drawn from `order_seed`; returns total bytes.
wikimatch::util::Result<uint64_t> WriteDumps(
    const wikimatch::wiki::Corpus& corpus, uint64_t order_seed,
    const std::string& dir);

/// Weighted F (Eq. 1-4) of pipeline results against the generator's
/// ground truth (mean over types, then over pt:en and vi:en), plus a
/// digest of every pair's clusters and processed_order.
struct BuildCheck {
  double match_f = 0.0;
  double f_pt = 0.0;
  double f_vi = 0.0;
  uint64_t digest = 0;
  size_t types = 0;
};
wikimatch::util::Result<BuildCheck> EvaluatePipelines(
    const std::map<wikimatch::store::LanguagePair,
                   wikimatch::match::PipelineResult>& pipelines,
    const wikimatch::synth::GeneratedCorpus& gc);

/// Runs the pipeline for pt:en and vi:en plus a full sync pass and writes
/// the snapshot `wikimatch serve` loads; returns the evaluation of its
/// pipelines. Spans go to `tracer`.
wikimatch::util::Result<BuildCheck> WriteServeSnapshot(
    const wikimatch::synth::GeneratedCorpus& gc, const std::string& path,
    size_t threads, Tracer* tracer);

/// Request mix over the keys the served snapshot answers.
struct RequestMix {
  std::vector<std::string> lines;  ///< the request sequence, in order
  /// Every attr, alignments and sync key once: the cache warm-up.
  std::vector<std::string> warm;
  /// verb -> distinct keys available / distinct keys in `lines`.
  std::vector<std::pair<std::string, size_t>> key_space;
  std::vector<std::pair<std::string, size_t>> keys_used;
};

/// Derives keys from the snapshot at `snapshot_path` through the protocol
/// (`types`, `alignments`), renders case-study queries with constants from
/// a fixed grid, and draws at least `count` requests in blocks of 20 with
/// fixed verb counts in a seeded order: Zipf-skewed over attr and
/// alignments keys, sync types and queries in a fixed stream.
wikimatch::util::Result<RequestMix> MakeRequests(
    const wikimatch::synth::GeneratedCorpus& gc,
    const std::string& snapshot_path, uint64_t seed, size_t count);

/// Writes `count` delta batches, each against the corpus left by the ones
/// before it: <dir>/delta_<k>_<lang>.xml and <dir>/delta_<k>.remove
/// ("lang:title" lines). Batch k renames template attributes of several
/// types when k % 4 == 3, else edits values of one type. Returns the kind
/// of each batch.
wikimatch::util::Result<std::vector<std::string>> WriteDeltas(
    wikimatch::wiki::Corpus corpus, uint64_t seed, size_t count,
    const std::string& dir);

}  // namespace e2e

#endif  // WIKIMATCH_E2EBENCH_INPUTS_H_
