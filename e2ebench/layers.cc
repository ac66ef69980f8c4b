#include "layers.h"

#include <set>
#include <sys/stat.h>
#include <utility>

#include "ingest/incremental_matcher.h"
#include "inputs.h"
#include "match/pipeline.h"
#include "serve/match_service.h"
#include "store/snapshot.h"
#include "sync/sync_engine.h"
#include "synth/generator.h"
#include "wiki/corpus.h"
#include "wiki/dump_reader.h"
#include "wiki/wikitext_parser.h"

namespace e2e {

namespace wm = wikimatch;
using wm::util::Result;
using wm::util::Status;

namespace {

const char* const kHub = "en";
const char* const kPairLangs[] = {"pt", "vi"};

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// The options build-snapshot and apply-delta use at their defaults.
wm::match::PipelineOptions CliOptions(size_t threads) {
  wm::match::PipelineOptions options;
  options.num_threads = threads;
  return options;
}

}  // namespace

Result<Metrics> ReplayBuild(const std::string& dir, const std::string& out,
                            size_t threads, Tracer* tracer) {
  Metrics m;
  wm::wiki::Corpus corpus;
  wm::wiki::WikitextParser parser;
  for (const std::string lang : {"en", "pt", "vi"}) {
    const std::string path = dir + "/" + lang + "wiki.xml";
    ScopedSpan read(tracer, "wiki.read_dump");
    auto pages = wm::wiki::ReadDumpFile(path);
    m["wiki.read_dump_ms"] += read.Stop();
    if (!pages.ok()) return pages.status();
    m["wiki.dump_bytes"] += static_cast<double>(FileBytes(path));
    m["wiki.pages"] += static_cast<double>(pages->size());
    ScopedSpan parse(tracer, "wiki.parse");
    auto added = corpus.IngestDump(*pages, lang, parser);
    m["wiki.parse_ms"] += parse.Stop();
    if (!added.ok()) return added.status();
  }
  {
    ScopedSpan span(tracer, "wiki.finalize");
    corpus.Finalize();
    m["wiki.finalize_ms"] = span.Stop();
  }
  ScopedSpan dict(tracer, "match.dictionary");
  wm::match::MatchPipeline pipeline(&corpus);
  m["match.dictionary_ms"] = dict.Stop();
  const wm::match::PipelineOptions options = CliOptions(threads);
  std::vector<std::pair<std::string, wm::match::PipelineResult>> results;
  for (const char* lang : kPairLangs) {
    ScopedSpan run(tracer, "match.run");
    auto result = pipeline.Run(lang, kHub, options);
    m["match.run_ms"] += run.Stop();
    if (!result.ok()) return result.status();
    const wm::match::PipelineStats& s = result->stats;
    m["match.type_match_ms"] += s.type_match_ms;
    m["match.schema_ms"] += s.schema_ms;
    m["match.lsi_ms"] += s.align.lsi_ms;
    m["match.feature_ms"] += s.align.feature_ms;
    m["match.order_ms"] += s.align.order_ms;
    m["match.integrate_ms"] += s.align.match_ms;
    m["match.pairs_generated"] += static_cast<double>(s.align.pairs_generated);
    m["match.pairs_pruned"] += static_cast<double>(s.align.pairs_pruned);
    m["match.postings_visited"] +=
        static_cast<double>(s.align.postings_visited);
    results.emplace_back(lang, std::move(result).ValueOrDie());
  }
  ScopedSpan write(tracer, "store.write");
  auto writer = wm::store::SnapshotWriter::Open(out);
  if (!writer.ok()) return writer.status();
  Status status = writer->WriteCorpus(corpus);
  if (status.ok()) status = writer->WriteDictionary(pipeline.dictionary());
  for (const auto& [lang, result] : results) {
    if (status.ok()) status = writer->WritePipeline(lang, kHub, result);
  }
  wm::store::SnapshotMeta meta;
  meta.options = wm::store::OptionsFingerprint::From(options);
  if (status.ok()) status = writer->WriteMeta(meta);
  if (status.ok()) status = writer->Finish();
  m["store.write_ms"] = write.Stop();
  if (!status.ok()) return status;
  m["store.bytes"] = static_cast<double>(FileBytes(out));
  return m;
}

Result<Metrics> ReplayServe(const std::string& snapshot,
                            const std::vector<std::string>& warm,
                            const std::vector<std::string>& lines,
                            Tracer* tracer) {
  if (warm.empty() || lines.empty()) {
    return Status::InvalidArgument("no request lines");
  }
  Metrics m;
  ScopedSpan map(tracer, "store.map");
  auto loaded = wm::serve::MatchService::Load(snapshot);
  m["store.map_ms"] = map.Stop();
  if (!loaded.ok()) return loaded.status();
  wm::serve::MatchService& service = **loaded;
  {
    // The first data request materializes the deferred core.
    ScopedSpan core(tracer, "serve.core", 0);
    (void)service.Handle(warm[0]);
    m["serve.core_ms"] = core.Stop();
  }

  // Per-verb hit and miss latencies cover the warm-up too (where the
  // attr, alignments and sync misses happen); the hit ratio and overall
  // p50 cover the measured lines only. Warm-up spans carry request id 0.
  std::map<std::string, std::vector<double>> hit_us, miss_us;
  std::vector<double> all_us;
  uint64_t hits = 0, misses = 0;
  auto handle = [&](const std::string& line, uint64_t request) {
    const wm::serve::CacheStats before = service.Stats().cache;
    ScopedSpan span(tracer, "serve.handle", request);
    (void)service.Handle(line);
    const double us = span.Stop() * 1000.0;
    const bool hit = service.Stats().cache.hits > before.hits;
    (hit ? hit_us : miss_us)[line.substr(0, line.find(' '))].push_back(us);
    return std::make_pair(hit, us);
  };
  for (const std::string& line : warm) handle(line, 0);
  for (size_t i = 0; i < lines.size(); ++i) {
    const auto [hit, us] = handle(lines[i], i + 1);
    (hit ? hits : misses) += 1;
    all_us.push_back(us);
  }
  for (const std::string verb : {"attr", "alignments", "query", "sync"}) {
    m["serve." + verb + ".hit_us.p50"] = Percentile(hit_us[verb], 0.5);
    m["serve." + verb + ".hit_us.p99"] = Percentile(hit_us[verb], 0.99);
    m["serve." + verb + ".miss_us.p50"] = Percentile(miss_us[verb], 0.5);
    m["serve." + verb + ".miss_us.p99"] = Percentile(miss_us[verb], 0.99);
  }
  m["serve.cache_hit_ratio"] =
      hits + misses == 0 ? 0.0 : static_cast<double>(hits) / (hits + misses);
  m["serve.inprocess_us.p50"] = Median(all_us);

  // Uncached translated-query evaluation of the same query lines.
  std::vector<double> eval_us;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.rfind("query ", 0) != 0) continue;
    size_t pair_end = line.find(' ', 6);
    const std::string pair = line.substr(6, pair_end - 6);
    const size_t colon = pair.find(':');
    ScopedSpan span(tracer, "query.evaluate", i + 1);
    auto result = service.EvaluateTranslatedQuery(
        pair.substr(0, colon), pair.substr(colon + 1),
        line.substr(pair_end + 1));
    eval_us.push_back(span.Stop() * 1000.0);
    if (!result.ok()) return result.status();
  }
  m["query.translated_eval_us"] = Median(eval_us);
  return m;
}

Result<Metrics> ReplayRefresh(const std::string& snapshot,
                              const std::string& delta_dir, size_t count,
                              size_t threads, const std::string& work_dir,
                              Tracer* tracer) {
  Metrics m;
  auto service = wm::serve::MatchService::Load(snapshot);
  if (!service.ok()) return service.status();
  (void)(*service)->Handle("sync-status");  // materialize the core
  std::map<std::string, std::vector<double>> per_cycle;
  std::string current = snapshot;
  wm::wiki::WikitextParser parser;
  for (size_t k = 0; k < count; ++k) {
    const std::string stem = delta_dir + "/delta_" + std::to_string(k);
    ScopedSpan read(tracer, "store.read", k);
    auto snap = wm::store::ReadSnapshotFile(current);
    per_cycle["store.read_ms"].push_back(read.Stop());
    if (!snap.ok()) return snap.status();
    wm::sync::SyncReport previous_sync = std::move(snap->sync_report);
    ScopedSpan from(tracer, "ingest.from_snapshot", k);
    auto matcher = wm::ingest::IncrementalMatcher::FromSnapshot(
        std::move(snap).ValueOrDie(), CliOptions(threads));
    per_cycle["ingest.from_snapshot_ms"].push_back(from.Stop());
    if (!matcher.ok()) return matcher.status();

    // The batch exactly as apply-delta classifies it: pages of titles the
    // corpus has are updates, the rest additions.
    wm::ingest::DeltaBatch batch;
    for (const std::string lang : {"en", "pt", "vi"}) {
      const std::string path = stem + "_" + lang + ".xml";
      if (FileBytes(path) == 0) continue;
      auto pages = wm::wiki::ReadDumpFile(path);
      if (!pages.ok()) return pages.status();
      for (const auto& page : *pages) {
        auto parsed = parser.ParseArticle(page.title, lang, page.text);
        if (!parsed.ok()) return parsed.status();
        wm::wiki::Article article = std::move(parsed).ValueOrDie();
        const bool exists = matcher->corpus().FindExactTitle(
                                lang, article.title) != wm::wiki::kInvalidArticle;
        (exists ? batch.updated : batch.added).push_back(std::move(article));
      }
    }
    for (const std::string& row : ReadLines(stem + ".remove")) {
      const size_t colon = row.find(':');
      batch.removed.emplace_back(row.substr(0, colon), row.substr(colon + 1));
    }

    ScopedSpan apply(tracer, "ingest.apply", k);
    auto stats = matcher->Apply(batch);
    per_cycle["ingest.apply_ms"].push_back(apply.Stop());
    if (!stats.ok()) return stats.status();
    per_cycle["ingest.apply_align_ms"].push_back(stats->align_ms);
    m["ingest.units_recomputed"] += static_cast<double>(stats->units_recomputed);
    m["ingest.units_total"] += static_cast<double>(stats->units_total);

    wm::store::Snapshot out = matcher->ToSnapshot();
    std::set<std::pair<std::string, std::string>> dirty;
    for (const auto& a : batch.added) dirty.emplace(a.language, a.title);
    for (const auto& a : batch.updated) dirty.emplace(a.language, a.title);
    for (const auto& key : batch.removed) dirty.insert(key);
    {
      ScopedSpan resync(tracer, "sync.resync", k);
      wm::sync::SyncEngine engine(&out.corpus, &out.dictionary, kHub);
      wm::sync::SyncReport report = engine.Resync(
          wm::sync::SyncEngine::ScopesFromPipelines(out.pipelines),
          previous_sync, dirty, threads);
      report.generation = out.meta.generation;
      out.sync_report = std::move(report);
      per_cycle["sync.resync_ms"].push_back(resync.Stop());
    }
    m["sync.dirty_articles"] += static_cast<double>(dirty.size());

    const std::string next =
        work_dir + "/replay_" + std::to_string(k) + ".snap";
    ScopedSpan write(tracer, "store.write", k);
    Status written = wm::store::WriteSnapshotFile(out, next);
    per_cycle["store.write_ms"].push_back(write.Stop());
    if (!written.ok()) return written;
    per_cycle["store.bytes"].push_back(static_cast<double>(FileBytes(next)));

    ScopedSpan reload(tracer, "serve.reload", k);
    Status reloaded = (*service)->Reload(next);
    per_cycle["serve.reload_ms"].push_back(reload.Stop());
    if (!reloaded.ok()) return reloaded;
    current = next;
  }
  for (auto& [name, values] : per_cycle) m[name] = Median(values);
  return m;
}

Result<BuildCheck> CheckBuild(const std::string& snapshot, uint64_t seed,
                              double scale) {
  auto gc = GenerateCorpus(seed, scale);
  if (!gc.ok()) return gc.status();
  auto snap = wm::store::ReadSnapshotFile(snapshot);
  if (!snap.ok()) return snap.status();
  return EvaluatePipelines(snap->pipelines, *gc);
}

}  // namespace e2e
