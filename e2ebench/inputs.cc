#include "inputs.h"

#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "eval/metrics.h"
#include "ingest/delta.h"
#include "match/pipeline.h"
#include "query/case_study.h"
#include "serve/match_service.h"
#include "store/snapshot.h"
#include "sync/sync_engine.h"
#include "synth/delta.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "wiki/dump_reader.h"

namespace e2e {

namespace wm = wikimatch;
using wm::util::Result;
using wm::util::Status;

namespace {

const char* const kHub = "en";
const char* const kPairLangs[] = {"pt", "vi"};

// Protocol token for a type name: multi-word hub types must be quoted
// (docs/SERVING.md), or the server reads only the first word.
std::string TypeToken(const std::string& type) {
  return type.find(' ') == std::string::npos ? type : "\"" + type + "\"";
}

// Payload rows of an "ok <n>" response; empty on "err".
std::vector<std::string> OkRows(const std::string& response) {
  std::vector<std::string> rows = wm::util::Split(response, '\n');
  if (rows.empty() || rows[0].rfind("ok ", 0) != 0) return {};
  rows.erase(rows.begin());
  while (!rows.empty() && rows.back().empty()) rows.pop_back();
  return rows;
}

// A numeric comparison whose constant the seed may redraw.
bool IsThreshold(const wm::query::ConceptConstraint& c) {
  return !c.is_projection && c.ref < 0 && c.op != wm::query::Op::kEq;
}

}  // namespace

Result<wm::synth::GeneratedCorpus> GenerateCorpus(uint64_t seed,
                                                  double scale) {
  wm::synth::GeneratorOptions options =
      wm::synth::GeneratorOptions::Paper(scale);
  options.seed = seed;
  return wm::synth::CorpusGenerator(options).Generate();
}

std::string RenderWikitext(const wm::wiki::Article& a) {
  if (a.IsRedirect()) return "#REDIRECT [[" + a.redirect_to + "]]\n";
  std::string text;
  if (a.infobox.has_value()) {
    text += "{{" + a.infobox->template_name;
    for (const auto& [attr, value] : a.infobox->attributes) {
      text += "\n| " + attr + " = " + value.raw;
    }
    text += "\n}}\n";
  }
  text += "'''" + a.title + "'''\n";
  for (const auto& cat : a.categories) {
    text += "[[category:" + cat + "]]\n";
  }
  for (const auto& [other, title] : a.cross_language_links) {
    text += "[[" + other + ":" + title + "]]\n";
  }
  return text;
}

Result<uint64_t> WriteDumps(const wm::wiki::Corpus& corpus,
                            uint64_t order_seed, const std::string& dir) {
  uint64_t bytes = 0;
  wm::util::Rng rng(order_seed);
  for (const std::string& lang : corpus.Languages()) {
    std::vector<wm::wiki::ArticleId> ids = corpus.ArticlesInLanguage(lang);
    rng.Shuffle(&ids);
    std::vector<wm::wiki::DumpPage> pages;
    for (wm::wiki::ArticleId id : ids) {
      const wm::wiki::Article& a = corpus.Get(id);
      pages.push_back(
          wm::wiki::DumpPage{a.title, 0, a.IsRedirect(), RenderWikitext(a)});
    }
    std::string xml = wm::wiki::WriteDump(pages, lang);
    std::string path = dir + "/" + lang + "wiki.xml";
    if (!WriteFile(path, xml)) return Status::IoError("cannot write " + path);
    bytes += xml.size();
  }
  return bytes;
}

Result<BuildCheck> EvaluatePipelines(
    const std::map<wm::store::LanguagePair, wm::match::PipelineResult>&
        pipelines,
    const wm::synth::GeneratedCorpus& gc) {
  BuildCheck check;
  uint64_t h = Fnv1a("wikimatch-e2e");
  for (const char* lang : kPairLangs) {
    auto it = pipelines.find({lang, kHub});
    if (it == pipelines.end()) {
      return Status::NotFound(std::string("snapshot lacks pair ") + lang);
    }
    std::vector<wm::eval::Prf> rows;
    for (const auto& tr : it->second.per_type) {
      h = Fnv1a(tr.type_a + "\x1f" + tr.type_b + "\x1e", h);
      for (const auto& cluster : tr.alignment.matches.Clusters()) {
        for (const auto& attr : cluster) {
          h = Fnv1a(attr.language + ":" + attr.name + "\x1f", h);
        }
        h = Fnv1a("\x1e", h);
      }
      for (const auto& p : tr.alignment.processed_order) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%zu %zu %.17g %.17g %.17g;", p.i,
                      p.j, p.vsim, p.lsim, p.lsi);
        h = Fnv1a(buf, h);
      }
      auto hub = gc.hub_type_of.find({gc.hub, tr.type_b});
      if (hub == gc.hub_type_of.end()) continue;
      rows.push_back(wm::eval::WeightedPrf(tr.alignment.matches,
                                           gc.ground_truth.at(hub->second),
                                           tr.frequencies, lang, gc.hub));
      ++check.types;
    }
    const double f = wm::eval::AveragePrf(rows).f1;
    (std::string(lang) == "pt" ? check.f_pt : check.f_vi) = f;
  }
  check.match_f = (check.f_pt + check.f_vi) / 2.0;
  check.digest = h;
  return check;
}

Result<BuildCheck> WriteServeSnapshot(const wm::synth::GeneratedCorpus& gc,
                                      const std::string& path, size_t threads,
                                      Tracer* tracer) {
  wm::store::Snapshot snapshot;
  wm::wiki::Corpus corpus = gc.corpus;  // the pipeline borrows it
  wm::match::PipelineOptions options;
  options.num_threads = threads;
  {
    ScopedSpan span(tracer, "match.dictionary");
    wm::match::MatchPipeline pipeline(&corpus);
    span.Stop();
    for (const char* lang : kPairLangs) {
      ScopedSpan run(tracer, "match.run");
      auto result = pipeline.Run(lang, kHub, options);
      if (!result.ok()) return result.status();
      snapshot.pipelines[{lang, kHub}] = std::move(result).ValueOrDie();
    }
    snapshot.dictionary = pipeline.dictionary();
  }
  snapshot.meta.options = wm::store::OptionsFingerprint::From(options);
  snapshot.corpus = std::move(corpus);
  {
    ScopedSpan span(tracer, "sync.run");
    wm::sync::SyncEngine engine(&snapshot.corpus, &snapshot.dictionary, kHub);
    snapshot.sync_report = engine.Run(
        wm::sync::SyncEngine::ScopesFromPipelines(snapshot.pipelines),
        threads);
  }
  {
    ScopedSpan span(tracer, "store.write");
    Status written = wm::store::WriteSnapshotFile(snapshot, path);
    if (!written.ok()) return written;
  }
  return EvaluatePipelines(snapshot.pipelines, gc);
}

Result<RequestMix> MakeRequests(const wm::synth::GeneratedCorpus& gc,
                                const std::string& snapshot_path,
                                uint64_t seed, size_t count) {
  auto service = wm::serve::MatchService::Load(snapshot_path);
  if (!service.ok()) return service.status();
  wm::serve::MatchService& svc = **service;

  // Keys the snapshot itself answers for: its type mapping, and every
  // attribute of every alignment cluster.
  std::vector<std::string> attr_keys, alignment_keys, sync_keys;
  for (const char* lang : kPairLangs) {
    const std::string pair = std::string(lang) + ":" + kHub;
    for (const std::string& row : OkRows(svc.Handle("types " + pair))) {
      std::vector<std::string> cols = wm::util::Split(row, '\t');
      if (cols.size() < 2) continue;
      const std::string type = TypeToken(cols[1]);
      std::vector<std::string> clusters =
          OkRows(svc.Handle("alignments " + pair + " " + type));
      if (clusters.empty()) continue;
      alignment_keys.push_back("alignments " + pair + " " + type);
      sync_keys.push_back("sync " + pair + " " + type);
      for (const std::string& cluster : clusters) {
        for (const std::string& member :
             wm::util::Split(cluster, std::string_view(" ~ "))) {
          size_t colon = member.find(':');
          if (colon == std::string::npos) continue;
          attr_keys.push_back("attr " + pair + " " + type + " " +
                              member.substr(0, colon) + " " +
                              member.substr(colon + 1));
        }
      }
    }
  }
  if (attr_keys.empty() || alignment_keys.empty()) {
    return Status::NotFound("snapshot answers no alignments");
  }

  // Case-study queries in each pair language. Request j of the query
  // stream takes base j % bases and scales every threshold constant by
  // grid point (j / bases) * kStride % kVariants of [0.5, 1.5): distinct
  // per request (so queries miss the cache) and the same stream for every
  // seed (so every run pays the same query costs).
  constexpr size_t kVariants = 1000;
  constexpr size_t kStride = 7919;  // coprime to kVariants
  std::vector<std::pair<wm::query::CaseQuery, std::string>> bases;
  size_t query_space = 0;
  for (const auto& cq : wm::query::BuildCaseQueries(gc)) {
    bool varies = false;
    for (const auto& c : cq.constraints) varies |= IsThreshold(c);
    for (const auto& c : cq.join_constraints) varies |= IsThreshold(c);
    for (const char* lang : kPairLangs) {
      if (!wm::query::RenderSurfaceQuery(cq, gc, lang).ok()) continue;
      bases.emplace_back(cq, lang);
      query_space += varies ? kVariants : 1;
    }
  }
  if (bases.empty()) return Status::NotFound("no case query renders");
  auto query_line = [&](size_t j) -> Result<std::string> {
    auto [cq, lang] = bases[j % bases.size()];
    const double factor =
        0.5 + static_cast<double>(j / bases.size() * kStride % kVariants) /
                  kVariants;
    for (auto* list : {&cq.constraints, &cq.join_constraints}) {
      for (auto& c : *list) {
        if (IsThreshold(c)) c.number = std::round(c.number * factor);
      }
    }
    auto rendered = wm::query::RenderSurfaceQuery(cq, gc, lang);
    if (!rendered.ok()) return rendered.status();
    return "query " + lang + ":" + kHub + " " + rendered->ToString();
  };

  wm::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  rng.Shuffle(&attr_keys);
  rng.Shuffle(&alignment_keys);
  // Zipf exponent 1 over a seeded ranking: an assumption, not measured.
  wm::util::ZipfSampler attr_zipf(attr_keys.size(), 1.0);
  wm::util::ZipfSampler alignment_zipf(alignment_keys.size(), 1.0);

  // Every block of 20 requests holds 6 attr, 2 alignments, 10 query and
  // 2 sync in an order drawn from the seed, so every window of whole
  // blocks has the same verb counts (README.md gives the reason for each
  // share). Sync types take turns in a fixed order.
  enum Verb { kAttr, kAlignments, kQuery, kSync };
  std::vector<Verb> block;
  for (auto [verb, n] : {std::pair{kAttr, 6}, std::pair{kAlignments, 2},
                         std::pair{kQuery, 10}, std::pair{kSync, 2}}) {
    block.insert(block.end(), n, verb);
  }
  size_t next_query = 0, next_sync = 0;
  std::map<std::string, std::set<std::string>> used;
  RequestMix mix;
  while (mix.lines.size() < count) {
    rng.Shuffle(&block);
    for (Verb verb : block) {
      std::string line;
      if (verb == kAttr) {
        line = attr_keys[attr_zipf.Sample(&rng)];
      } else if (verb == kAlignments) {
        line = alignment_keys[alignment_zipf.Sample(&rng)];
      } else if (verb == kSync) {
        line = sync_keys[next_sync++ % sync_keys.size()];
      } else {
        auto rendered = query_line(next_query++);
        if (!rendered.ok()) return rendered.status();
        line = std::move(rendered).ValueOrDie();
      }
      used[line.substr(0, line.find(' '))].insert(line);
      mix.lines.push_back(std::move(line));
    }
  }
  mix.warm = attr_keys;
  mix.warm.insert(mix.warm.end(), alignment_keys.begin(),
                  alignment_keys.end());
  mix.warm.insert(mix.warm.end(), sync_keys.begin(), sync_keys.end());
  mix.key_space = {{"attr", attr_keys.size()},
                   {"alignments", alignment_keys.size()},
                   {"query", query_space},
                   {"sync", sync_keys.size()}};
  for (const auto& [verb, space] : mix.key_space) {
    mix.keys_used.emplace_back(verb, used[verb].size());
  }
  return mix;
}

Result<std::vector<std::string>> WriteDeltas(wm::wiki::Corpus corpus,
                                             uint64_t seed, size_t count,
                                             const std::string& dir) {
  std::vector<std::string> kinds;
  for (size_t k = 0; k < count; ++k) {
    wm::synth::DeltaSpec spec;
    spec.seed = seed * 1000003ULL + k;
    spec.lang_a = "pt";
    spec.lang_b = kHub;
    const bool rename = k % 4 == 3;
    Result<wm::ingest::DeltaBatch> batch = Status::NotFound("no batch");
    if (rename) {
      // Each rename draws a dual pair, so several types get one; every
      // article of a renamed type is in the batch.
      spec.attribute_renames = 6;
      batch = wm::synth::MakeDeltaBatch(corpus, spec);
    } else {
      // Edits confined to one hub type dirty about one type pair. The
      // type follows a fixed cycle, so batch k costs about the same for
      // every seed; the seed draws the articles and values. Hub types
      // without a pt dual are skipped.
      spec.value_edits = 6;
      const std::vector<std::string> hub_types = corpus.TypesIn(kHub);
      for (size_t i = 0; i < hub_types.size(); ++i) {
        spec.types_b = {hub_types[(k + i) % hub_types.size()]};
        batch = wm::synth::MakeDeltaBatch(corpus, spec);
        if (batch.ok()) break;
      }
    }
    if (!batch.ok()) return batch.status();
    std::map<std::string, std::vector<wm::wiki::DumpPage>> pages;
    for (const auto* list : {&batch->updated, &batch->added}) {
      for (const auto& a : *list) {
        pages[a.language].push_back(wm::wiki::DumpPage{
            a.title, 0, a.IsRedirect(), RenderWikitext(a)});
      }
    }
    const std::string stem = dir + "/delta_" + std::to_string(k);
    for (const auto& [lang, lang_pages] : pages) {
      if (!WriteFile(stem + "_" + lang + ".xml",
                     wm::wiki::WriteDump(lang_pages, lang))) {
        return Status::IoError("cannot write " + stem);
      }
    }
    std::string removes;
    for (const auto& [lang, title] : batch->removed) {
      removes += lang + ":" + title + "\n";
    }
    if (!WriteFile(stem + ".remove", removes)) {
      return Status::IoError("cannot write " + stem + ".remove");
    }
    wm::ingest::DeltaUndo undo;
    Status applied = wm::ingest::ApplyDeltaInPlace(&corpus, *batch, &undo);
    if (!applied.ok()) return applied;
    kinds.push_back(rename ? "rename" : "edit");
  }
  return kinds;
}

}  // namespace e2e
