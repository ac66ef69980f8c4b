// MatchService: the in-process serving layer. Loads a snapshot (the
// expensive offline matching already done by `wikimatch build-snapshot`)
// and answers three request types — attribute-translation lookup, per-type
// alignment listing, and translated c-query evaluation — from immutable
// in-memory state behind a sharded LRU result cache.
//
// Hot reload: the snapshot and every index derived from it live in an
// immutable Generation object held by shared_ptr. Readers pin the current
// generation for the duration of one request; Reload() builds the next
// generation entirely off the read path and then swaps the pointer, so
// in-flight requests finish against the generation they started on and the
// old one is released when its last reader drops it (RCU by shared_ptr).
// Every generation's deleter queues the actual free on the shared pool
// (util::thread_pool_async), so neither that reader nor Reload() pays the
// tens of milliseconds a large generation takes to free.
// Cache keys are tagged with the generation's load sequence number, which
// invalidates every cached response at swap time without touching the
// cache: stale entries simply stop being addressable and age out of the
// LRU.
//
// O(1) startup: Load() maps the snapshot (store/snapshot_reader.h), which
// walks only the section headers, and defers decoding — only the tiny meta
// section is read eagerly, so the service constructs in constant time
// regardless of snapshot size and the meta verbs (help, health, version,
// generation) answer immediately. Every snapshot layout boots this way.
// The first request that needs real data materializes the core (decode +
// index build) once, under its own mutex; a decode failure (a corrupt
// payload, whose CRC is first checked here) is sticky and every
// core-needing request reports it until a successful reload. Reload() is
// deliberately *eager* — it decodes before swapping, preserving the "on
// error the old generation keeps serving" contract. Each generation pins
// its MappedSnapshot, and writers publish by rename, so replacing or
// unlinking the snapshot file never invalidates a mapping still being
// served from.
//
// Thread safety: a generation is read-only after construction (MatchSets
// are fully path-compressed at build so even their lazy union-find
// performs no writes), the generation pointer is swapped under a mutex,
// the cache is internally synchronized, and counters are atomic —
// Handle() and Reload() may be called from any number of threads
// concurrently.

#ifndef WIKIMATCH_SERVE_MATCH_SERVICE_H_
#define WIKIMATCH_SERVE_MATCH_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "query/evaluator.h"
#include "query/translator.h"
#include "serve/lru_cache.h"
#include "store/snapshot.h"
#include "store/snapshot_reader.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace wikimatch {
namespace serve {

/// \brief Serving configuration.
struct ServiceOptions {
  /// Total LRU result-cache entries (0 disables caching).
  size_t cache_capacity = 4096;
  /// Cache shards (concurrency width).
  size_t cache_shards = 8;
  /// Maximum answers per query request.
  size_t query_top_k = 20;
};

/// \brief Observability counters.
struct ServiceStats {
  uint64_t requests = 0;  ///< Handle() calls, including errors
  uint64_t errors = 0;    ///< requests answered with "err"
  uint64_t generation = 0;  ///< snapshot meta generation being served
  uint64_t loads = 0;       ///< generations installed (initial load = 1)
  int64_t loaded_unix = 0;  ///< wall-clock time the generation installed
  double uptime_s = 0.0;    ///< since service construction
  double generation_age_s = 0.0;  ///< since the current generation installed
  CacheStats cache;
};

/// \brief One answer of a translated query.
struct ServedAnswer {
  std::string title;
  double score = 0.0;
  std::vector<std::string> projections;
};

/// \brief Result of a translated c-query evaluation.
struct ServedQueryResult {
  std::string translated_query;
  size_t constraints_translated = 0;
  size_t constraints_relaxed = 0;
  std::vector<ServedAnswer> answers;
};

/// \brief True when `line` is a `reload` request — the one verb whose
/// cost grows with the snapshot, so transports run it off their event loop.
bool IsReloadRequest(const std::string& line);

/// \brief Thread-safe snapshot-backed match server with hot reload.
class MatchService {
 public:
  /// \brief Opens the snapshot at `path` for serving: maps it, checks its
  /// structure and reads its meta section; the rest is decoded on the
  /// first data request (O(1) regardless of size). The path is remembered
  /// as the default `Reload()` source.
  static util::Result<std::unique_ptr<MatchService>> Load(
      const std::string& path, const ServiceOptions& options = {});

  /// \brief Builds a service from an in-memory snapshot (tests, bench).
  static std::unique_ptr<MatchService> Create(
      store::Snapshot snapshot, const ServiceOptions& options = {});

  /// \brief Builds serving indexes for the snapshot at `path` (or, with an
  /// empty path, the path of the last successful load) off the read path,
  /// then atomically swaps it in. On error the previous generation keeps
  /// serving untouched. Concurrent Reload() calls are serialized.
  util::Status Reload(const std::string& path = "");

  // ---- Typed API (uncached) ----------------------------------------------

  /// \brief Correspondents of attribute (`lang`, `name`) of the pair's
  /// type `type_b` in the pair's *other* language, as "lang:name" strings.
  util::Result<std::vector<std::string>> TranslateAttribute(
      const std::string& lang_a, const std::string& lang_b,
      const std::string& type_b, const std::string& lang,
      const std::string& name) const;

  /// \brief All alignment clusters of `type_b`, one "l:a ~ l:b" line each.
  util::Result<std::vector<std::string>> ListAlignments(
      const std::string& lang_a, const std::string& lang_b,
      const std::string& type_b) const;

  /// \brief Translates `query_text` (written in `lang_a`) across the pair
  /// and evaluates it against the snapshot corpus in `lang_b`.
  util::Result<ServedQueryResult> EvaluateTranslatedQuery(
      const std::string& lang_a, const std::string& lang_b,
      const std::string& query_text) const;

  // ---- Line protocol (cached) --------------------------------------------

  /// \brief Handles one request line (see docs/SERVING.md) and returns the
  /// full response text ("ok <n>\n..." or "err <message>\n"). Successful
  /// responses are served from / inserted into the LRU cache, keyed under
  /// the generation that produced them.
  std::string Handle(const std::string& line);

  ServiceStats Stats() const;

  /// \brief Language pairs available in the current generation.
  std::vector<store::LanguagePair> Pairs() const;

  /// \brief Articles in the current generation's corpus (0 while a
  /// loaded core is still deferred — see CoreLoaded()).
  size_t CorpusSize() const;

  /// \brief Snapshot meta generation currently being served.
  uint64_t Generation() const;

  /// \brief True once the decoded core (corpus, pairs, indexes) exists.
  /// False between Load() and the first core-needing request.
  bool CoreLoaded() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct PairServing {
    const match::PipelineResult* result = nullptr;
    std::map<std::string, const eval::MatchSet*> per_type;
    std::unique_ptr<query::QueryTranslator> translator;
  };

  /// One immutable serving epoch: a snapshot plus every index derived
  /// from it. Never mutated after BuildGeneration returns.
  struct GenerationState {
    store::Snapshot snapshot;
    std::map<store::LanguagePair, PairServing> pairs;
    /// Pins the mmap this generation was decoded from (null for in-memory
    /// snapshots): the pages stay valid even if the snapshot file is
    /// replaced or unlinked, until the generation drains.
    std::shared_ptr<store::MappedSnapshot> mapped;
    uint64_t load_seq = 0;    ///< 1 for the initial load, +1 per reload
    int64_t loaded_unix = 0;  ///< wall clock at install
    Clock::time_point loaded_at;
    /// (pair_lang, type_b) -> row indices into snapshot.sync_report, built
    /// once per load so `sync` answers without scanning the report.
    std::map<std::pair<std::string, std::string>, std::vector<size_t>>
        sync_cells;
    std::map<std::pair<std::string, std::string>, std::vector<size_t>>
        sync_updates;

    const PairServing* FindPair(const std::string& lang_a,
                                const std::string& lang_b) const;
  };

  explicit MatchService(const ServiceOptions& options);

  /// An empty generation whose deleter frees it on the shared pool.
  static std::shared_ptr<GenerationState> NewGeneration();

  static std::shared_ptr<const GenerationState> BuildGeneration(
      store::Snapshot snapshot, uint64_t load_seq,
      std::shared_ptr<store::MappedSnapshot> mapped);

  /// Pins the current generation: the decoded core when it exists, else
  /// the meta-only boot generation (shared_ptr copy under a short lock).
  std::shared_ptr<const GenerationState> Current() const;

  /// The decoded core, materializing it on first call after Load(). A
  /// decode failure is sticky until a successful Reload().
  util::Result<std::shared_ptr<const GenerationState>> Core() const;

  /// Uncached dispatch against one pinned generation.
  std::string Dispatch(const GenerationState& gen, const std::string& line,
                       bool* cacheable);

  ServiceOptions options_;
  ShardedLruCache cache_;
  Clock::time_point started_;

  // Guards gen_/boot_gen_ (pointer copy + swap only). The pointed-to
  // GenerationState is immutable after BuildGeneration, so only the
  // pointers need a lock. gen_ is mutable because Core() materializes it
  // lazily from const readers.
  mutable util::Mutex gen_mu_;
  mutable std::shared_ptr<const GenerationState> gen_
      WIKIMATCH_GUARDED_BY(gen_mu_);
  /// Meta-only generation from Load(): snapshot.meta plus the pinned
  /// mapping, no decoded content. Null for Create().
  std::shared_ptr<const GenerationState> boot_gen_
      WIKIMATCH_GUARDED_BY(gen_mu_);

  // Serializes the one-time lazy core build; sticky decode error.
  mutable util::Mutex core_mu_;
  mutable util::Status core_error_ WIKIMATCH_GUARDED_BY(core_mu_) =
      util::Status::OK();

  util::Mutex reload_mu_;  // serializes writers; guards source_path_
  std::string source_path_ WIKIMATCH_GUARDED_BY(reload_mu_);

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> loads_{0};
};

}  // namespace serve
}  // namespace wikimatch

#endif  // WIKIMATCH_SERVE_MATCH_SERVICE_H_
