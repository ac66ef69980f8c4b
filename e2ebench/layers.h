// The traced run's in-process layer replays and the output checks that
// need the program's own decoders. Each replay returns flat per-layer
// metrics (name -> value) for run.py to report.

#ifndef WIKIMATCH_E2EBENCH_LAYERS_H_
#define WIKIMATCH_E2EBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "trace.h"
#include "util/result.h"

namespace e2e {

using Metrics = std::map<std::string, double>;

/// build-snapshot's layers over the dumps in `dir` (en, pt, vi; pairs
/// pt:en and vi:en), writing the snapshot to `out`.
wikimatch::util::Result<Metrics> ReplayBuild(const std::string& dir,
                                             const std::string& out,
                                             size_t threads, Tracer* tracer);

/// serve's layers: load, first data request, the cache warm-up `warm`
/// (untimed, as over TCP), then a single-threaded Handle() replay of
/// `lines` classified hit/miss by the cache counters, and uncached
/// translated-query evaluation of the query lines.
wikimatch::util::Result<Metrics> ReplayServe(
    const std::string& snapshot, const std::vector<std::string>& warm,
    const std::vector<std::string>& lines, Tracer* tracer);

/// apply-delta + reload's layers for batches [0, count) of `delta_dir`,
/// starting from `snapshot`; generation k is written to
/// <work_dir>/replay_<k>.snap.
wikimatch::util::Result<Metrics> ReplayRefresh(const std::string& snapshot,
                                               const std::string& delta_dir,
                                               size_t count, size_t threads,
                                               const std::string& work_dir,
                                               Tracer* tracer);

/// EvaluatePipelines on the snapshot at `snapshot`, against the corpus the
/// generator makes from `seed` at `scale`.
wikimatch::util::Result<BuildCheck> CheckBuild(const std::string& snapshot,
                                               uint64_t seed, double scale);

}  // namespace e2e

#endif  // WIKIMATCH_E2EBENCH_LAYERS_H_
