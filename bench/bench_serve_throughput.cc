// Serving-path benchmark: builds a synthetic corpus, runs the matcher,
// writes a snapshot, and measures (1) cold snapshot load time, (2) cached
// vs uncached request latency through MatchService::Handle, and (3)
// multi-threaded query throughput. Emits one JSON object on stdout so runs
// are diffable across commits.
//
// Scale comes from $WIKIMATCH_SCALE (default 0.1 — the serving path is
// corpus-size-bound only at load; request latency is schema-bound).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "match/pipeline.h"
#include "serve/match_service.h"
#include "store/snapshot.h"
#include "synth/generator.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// The request mix exercised by the latency and throughput sections.
std::vector<std::string> RequestMix() {
  return {
      "query pt:en filme(receita > 1000000, elenco=?)",
      "query pt:en filme(diretor=?, elenco=?)",
      "attr pt:en film pt elenco",
      "alignments pt:en film",
      "types pt:en",
  };
}

// Median-of-runs latency (ms) of serving every request in `mix` once.
double PassLatencyMs(serve::MatchService* service,
                     const std::vector<std::string>& mix, int passes) {
  std::vector<double> times;
  for (int p = 0; p < passes; ++p) {
    auto start = Clock::now();
    for (const auto& request : mix) service->Handle(request);
    times.push_back(MsSince(start));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

int Run() {
  const char* env = std::getenv("WIKIMATCH_SCALE");
  double scale = env ? std::atof(env) : 0.1;
  if (scale <= 0) scale = 0.1;

  // ---- offline: corpus -> pipeline -> snapshot file ----
  synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(scale));
  auto gc = generator.Generate();
  if (!gc.ok()) {
    std::fprintf(stderr, "generate: %s\n", gc.status().ToString().c_str());
    return 1;
  }
  match::MatchPipeline pipeline(&gc->corpus);
  match::PipelineOptions options;
  options.num_threads = util::DefaultThreads();
  auto result = pipeline.Run("pt", "en", options);
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  store::Snapshot snapshot;
  snapshot.corpus = gc->corpus;
  snapshot.dictionary = pipeline.dictionary();
  snapshot.pipelines.emplace(store::LanguagePair("pt", "en"),
                             std::move(result).ValueOrDie());
  std::string path = "/tmp/wikimatch_bench_serve.snap";
  auto written = store::WriteSnapshotFile(snapshot, path);
  if (!written.ok()) {
    std::fprintf(stderr, "write: %s\n", written.ToString().c_str());
    return 1;
  }

  // ---- cold load ----
  // O(1) in snapshot size (Load maps the file and walks only the section
  // headers): the decode is deferred, so the honest total cost of reaching the first data answer
  // is load_ms + core_build_ms (reported separately below).
  auto load_start = Clock::now();
  auto service = serve::MatchService::Load(path);
  double load_ms = MsSince(load_start);
  if (!service.ok()) {
    std::fprintf(stderr, "load: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  const bool deferred = !(*service)->CoreLoaded();

  // ---- cached vs uncached latency ----
  const auto mix = RequestMix();
  serve::ServiceOptions uncached_options;
  uncached_options.cache_capacity = 0;
  auto uncached = serve::MatchService::Load(path, uncached_options);
  if (!uncached.ok()) return 1;
  // First data request pays the deferred decode + index build; timing it
  // up front also keeps it out of every latency median below.
  auto core_start = Clock::now();
  (*service)->Handle(mix[0]);
  double core_build_ms = MsSince(core_start);
  (*uncached)->Handle(mix[0]);
  constexpr int kPasses = 15;
  double uncached_ms = PassLatencyMs(uncached->get(), mix, kPasses);
  double cached_ms = PassLatencyMs(service->get(), mix, kPasses);

  // ---- multi-threaded throughput ----
  size_t num_threads = util::DefaultThreads();
  constexpr int kRequestsPerThread = 2000;
  auto throughput_start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        (*service)->Handle(mix[(i + t) % mix.size()]);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  double throughput_s = MsSince(throughput_start) / 1000.0;
  double requests_per_sec =
      static_cast<double>(num_threads * kRequestsPerThread) / throughput_s;
  serve::ServiceStats stats = (*service)->Stats();

  std::printf("{\n");
  std::printf("  \"bench\": \"serve_throughput\",\n");
  std::printf("  \"scale\": %g,\n", scale);
  std::printf("  \"articles\": %zu,\n", gc->corpus.size());
  std::printf("  \"snapshot_load_ms\": %.3f,\n", load_ms);
  std::printf("  \"load_deferred_core\": %s,\n", deferred ? "true" : "false");
  std::printf("  \"core_build_ms\": %.2f,\n", core_build_ms);
  std::printf("  \"request_mix_size\": %zu,\n", mix.size());
  std::printf("  \"uncached_pass_ms\": %.3f,\n", uncached_ms);
  std::printf("  \"cached_pass_ms\": %.3f,\n", cached_ms);
  std::printf("  \"threads\": %zu,\n", num_threads);
  std::printf("  \"requests\": %d,\n",
              static_cast<int>(num_threads) * kRequestsPerThread);
  std::printf("  \"requests_per_sec\": %.0f,\n", requests_per_sec);
  std::printf("  \"cache_hit_rate\": %.3f\n",
              stats.cache.hits + stats.cache.misses == 0
                  ? 0.0
                  : static_cast<double>(stats.cache.hits) /
                        static_cast<double>(stats.cache.hits +
                                            stats.cache.misses));
  std::printf("}\n");
  std::remove(path.c_str());
  return 0;
}

}  // namespace
}  // namespace wikimatch

int main() { return wikimatch::Run(); }
