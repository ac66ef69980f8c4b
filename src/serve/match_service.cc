#include "serve/match_service.h"

#include <ctime>
#include <sstream>
#include <utility>

#include "serve/protocol.h"
#include "store/snapshot.h"
#include "text/normalize.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace serve {
namespace {

// Splits "a:b" into its two halves; false when there is no colon.
bool SplitPairToken(const std::string& token, std::string* a,
                    std::string* b) {
  size_t colon = token.find(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == token.size()) {
    return false;
  }
  *a = token.substr(0, colon);
  *b = token.substr(colon + 1);
  return true;
}

// Reads the next whitespace-delimited token starting at `*pos`; a leading
// double quote makes the token run to the closing quote, so localized type
// names with spaces stay one field.
bool NextToken(const std::string& line, size_t* pos, std::string* token) {
  while (*pos < line.size() && line[*pos] == ' ') ++*pos;
  if (*pos >= line.size()) return false;
  if (line[*pos] == '"') {
    size_t close = line.find('"', *pos + 1);
    if (close == std::string::npos) return false;
    *token = line.substr(*pos + 1, close - *pos - 1);
    *pos = close + 1;
    return true;
  }
  size_t end = line.find(' ', *pos);
  if (end == std::string::npos) end = line.size();
  *token = line.substr(*pos, end - *pos);
  *pos = end;
  return true;
}

std::string RestOfLine(const std::string& line, size_t pos) {
  while (pos < line.size() && line[pos] == ' ') ++pos;
  size_t end = line.size();
  while (end > pos && (line[end - 1] == ' ' || line[end - 1] == '\r')) {
    --end;
  }
  return line.substr(pos, end - pos);
}

std::string RenderOk(const std::vector<std::string>& lines) {
  std::string out = "ok " + std::to_string(lines.size()) + "\n";
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

std::string RenderErr(const std::string& message) {
  return "err " + message + "\n";
}

std::string ClusterLine(const std::set<eval::AttrKey>& cluster) {
  std::string line;
  for (const auto& attr : cluster) {
    if (!line.empty()) line += " ~ ";
    line += attr.language + ":" + attr.name;
  }
  return line;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

bool IsReloadRequest(const std::string& line) {
  // net::Server routes every line it reads through here, so rule most out
  // without a token.
  if (line.find("reload") == std::string::npos) return false;
  size_t pos = 0;
  std::string command;
  return NextToken(line, &pos, &command) && command == "reload";
}

util::Result<std::unique_ptr<MatchService>> MatchService::Load(
    const std::string& path, const ServiceOptions& options) {
  auto mapped = store::MappedSnapshot::Map(path);
  if (!mapped.ok()) return mapped.status();
  // Defer decoding: only the meta section (a few hundred bytes) is read
  // now, so Load() costs the same for any snapshot size.
  auto boot = NewGeneration();
  const store::MappedSnapshot& snap = *mapped.ValueOrDie();
  for (size_t i = 0; i < snap.num_sections(); ++i) {
    if (snap.section_kind(i) != store::SectionKind::kMeta) continue;
    auto payload = snap.Payload(i);
    if (!payload.ok()) return payload.status();
    WIKIMATCH_RETURN_NOT_OK(store::DecodeSnapshotSection(
        store::SectionKind::kMeta, payload.ValueOrDie(), &boot->snapshot));
  }
  boot->mapped = std::move(mapped).ValueOrDie();
  boot->load_seq = 1;
  boot->loaded_unix = static_cast<int64_t>(std::time(nullptr));
  boot->loaded_at = Clock::now();
  auto service =
      std::unique_ptr<MatchService>(new MatchService(options));
  {
    util::MutexLock lock(service->gen_mu_);
    service->boot_gen_ = std::move(boot);
  }
  service->loads_.store(1, std::memory_order_relaxed);
  {
    // Not yet visible to other threads, but taking the lock keeps the
    // guarded-field proof unconditional (and it is uncontended here).
    util::MutexLock lock(service->reload_mu_);
    service->source_path_ = path;
  }
  return service;
}

std::unique_ptr<MatchService> MatchService::Create(
    store::Snapshot snapshot, const ServiceOptions& options) {
  auto service =
      std::unique_ptr<MatchService>(new MatchService(options));
  auto gen = BuildGeneration(std::move(snapshot), 1, nullptr);
  {
    util::MutexLock lock(service->gen_mu_);
    service->gen_ = std::move(gen);
  }
  service->loads_.store(1, std::memory_order_relaxed);
  return service;
}

MatchService::MatchService(const ServiceOptions& options)
    : options_(options),
      cache_(options.cache_capacity, options.cache_shards),
      started_(Clock::now()) {}

std::shared_ptr<MatchService::GenerationState> MatchService::NewGeneration() {
  // Freeing a large generation takes tens of milliseconds, and whoever
  // drops the last pin would pay it: a reader finishing its request, or
  // Reload() after the swap. The deleter hands the free to the shared
  // pool instead, so that thread pays only a queue push.
  return std::shared_ptr<GenerationState>(
      new GenerationState(), [](const GenerationState* gen) {
        util::thread_pool_async([gen] { delete gen; });
      });
}

std::shared_ptr<const MatchService::GenerationState>
MatchService::BuildGeneration(store::Snapshot snapshot, uint64_t load_seq,
                              std::shared_ptr<store::MappedSnapshot> mapped) {
  auto gen = NewGeneration();
  gen->snapshot = std::move(snapshot);
  gen->mapped = std::move(mapped);
  gen->load_seq = load_seq;
  gen->loaded_unix = static_cast<int64_t>(std::time(nullptr));
  gen->loaded_at = Clock::now();
  for (auto& [pair, result] : gen->snapshot.pipelines) {
    PairServing serving;
    serving.result = &result;
    for (const auto& tr : result.per_type) {
      // Pre-compress so concurrent readers never write to the lazy
      // union-find (see MatchSet::CompressPaths).
      tr.alignment.matches.CompressPaths();
      serving.per_type.emplace(tr.type_b, &tr.alignment.matches);
    }
    serving.translator = std::make_unique<query::QueryTranslator>(
        pair.first, pair.second, result.type_matches, serving.per_type,
        &gen->snapshot.dictionary);
    gen->pairs.emplace(pair, std::move(serving));
  }
  {
    // Index the persisted sync report by (pair_lang, type_b). Updates do
    // not carry the type, so the cells' (lang, title) -> key map assigns
    // each update through whichever side names the pair-language article.
    const sync::SyncReport& report = gen->snapshot.sync_report;
    std::map<std::pair<std::string, std::string>,
             std::pair<std::string, std::string>>
        key_of_title;
    for (size_t i = 0; i < report.cells.size(); ++i) {
      const sync::CellVerdict& v = report.cells[i];
      std::pair<std::string, std::string> key{v.pair_lang, v.type_b};
      gen->sync_cells[key].push_back(i);
      key_of_title.emplace(std::make_pair(v.pair_lang, v.pair_title), key);
    }
    for (size_t i = 0; i < report.updates.size(); ++i) {
      const sync::PropagationUpdate& u = report.updates[i];
      auto it = key_of_title.find({u.source_lang, u.source_title});
      if (it == key_of_title.end()) {
        it = key_of_title.find({u.target_lang, u.target_title});
      }
      if (it != key_of_title.end()) {
        gen->sync_updates[it->second].push_back(i);
      }
    }
  }
  return gen;
}

std::shared_ptr<const MatchService::GenerationState> MatchService::Current()
    const {
  util::MutexLock lock(gen_mu_);
  return gen_ != nullptr ? gen_ : boot_gen_;
}

util::Result<std::shared_ptr<const MatchService::GenerationState>>
MatchService::Core() const {
  {
    util::MutexLock lock(gen_mu_);
    if (gen_ != nullptr) return gen_;
  }
  // Materialize once: core_mu_ serializes the decode; every other
  // core-needing request blocks here and then finds gen_ set (or the
  // sticky error).
  util::MutexLock core_lock(core_mu_);
  std::shared_ptr<const GenerationState> boot;
  {
    util::MutexLock lock(gen_mu_);
    if (gen_ != nullptr) return gen_;  // built while we waited
    boot = boot_gen_;
  }
  if (!core_error_.ok()) return core_error_;
  if (boot == nullptr || boot->mapped == nullptr) {
    return util::Status::Internal(
        "no decoded generation and no mapped snapshot to build one from");
  }
  auto decoded = boot->mapped->Decode();
  if (!decoded.ok()) {
    core_error_ = decoded.status();  // sticky until a successful Reload()
    return core_error_;
  }
  auto gen = BuildGeneration(std::move(decoded).ValueOrDie(), boot->load_seq,
                             boot->mapped);
  std::shared_ptr<const GenerationState> out;
  {
    util::MutexLock lock(gen_mu_);
    // A Reload() that raced the decode wins: its generation is newer.
    if (gen_ == nullptr) gen_ = std::move(gen);
    out = gen_;
  }
  return out;
}

util::Status MatchService::Reload(const std::string& path) {
  // Declared before the lock so the generations swapped out below are
  // released after it (their deleter only queues the free; see
  // NewGeneration).
  std::shared_ptr<const GenerationState> retired;
  std::shared_ptr<const GenerationState> retired_boot;
  // One writer at a time; readers are never blocked by a rebuild.
  util::MutexLock reload_lock(reload_mu_);
  std::string source = path.empty() ? source_path_ : path;
  if (source.empty()) {
    return util::Status::InvalidArgument(
        "no snapshot path to reload from (service was built in memory; "
        "pass an explicit path)");
  }
  // Deliberately eager, unlike Load(): decode *before* swapping so that on
  // any error the previous generation keeps serving untouched.
  auto mapped = store::MappedSnapshot::Map(source);
  if (!mapped.ok()) return mapped.status();
  auto snapshot = mapped.ValueOrDie()->Decode();
  if (!snapshot.ok()) return snapshot.status();
  auto gen = BuildGeneration(std::move(snapshot).ValueOrDie(),
                             loads_.load(std::memory_order_relaxed) + 1,
                             std::move(mapped).ValueOrDie());
  {
    util::MutexLock lock(gen_mu_);
    retired = std::exchange(gen_, std::move(gen));
    // Once gen_ is set the boot generation is never read again; dropping
    // it releases the mapping of the file the service booted from.
    retired_boot = std::exchange(boot_gen_, nullptr);
  }
  {
    // A fresh generation supersedes any sticky lazy-decode failure.
    util::MutexLock core_lock(core_mu_);
    core_error_ = util::Status::OK();
  }
  loads_.fetch_add(1, std::memory_order_relaxed);
  source_path_ = source;
  return util::Status::OK();
}

const MatchService::PairServing* MatchService::GenerationState::FindPair(
    const std::string& lang_a, const std::string& lang_b) const {
  auto it = pairs.find({lang_a, lang_b});
  return it == pairs.end() ? nullptr : &it->second;
}

util::Result<std::vector<std::string>> MatchService::TranslateAttribute(
    const std::string& lang_a, const std::string& lang_b,
    const std::string& type_b, const std::string& lang,
    const std::string& name) const {
  auto core = Core();
  if (!core.ok()) return core.status();
  const auto& gen = core.ValueOrDie();
  const PairServing* pair = gen->FindPair(lang_a, lang_b);
  if (pair == nullptr) {
    return util::Status::NotFound("no pipeline for pair " + lang_a + ":" +
                                  lang_b + " in snapshot");
  }
  if (lang != lang_a && lang != lang_b) {
    return util::Status::InvalidArgument("language " + lang +
                                         " is not part of pair " + lang_a +
                                         ":" + lang_b);
  }
  auto it = pair->per_type.find(type_b);
  if (it == pair->per_type.end()) {
    return util::Status::NotFound("no alignment for type " + type_b +
                                  " in pair " + lang_a + ":" + lang_b);
  }
  const std::string& other = lang == lang_a ? lang_b : lang_a;
  eval::AttrKey key{lang, text::NormalizeAttributeName(name)};
  std::vector<std::string> out;
  for (const auto& target : it->second->CorrespondentsOf(key, other)) {
    out.push_back(target.language + ":" + target.name);
  }
  return out;
}

util::Result<std::vector<std::string>> MatchService::ListAlignments(
    const std::string& lang_a, const std::string& lang_b,
    const std::string& type_b) const {
  auto core = Core();
  if (!core.ok()) return core.status();
  const auto& gen = core.ValueOrDie();
  const PairServing* pair = gen->FindPair(lang_a, lang_b);
  if (pair == nullptr) {
    return util::Status::NotFound("no pipeline for pair " + lang_a + ":" +
                                  lang_b + " in snapshot");
  }
  auto it = pair->per_type.find(type_b);
  if (it == pair->per_type.end()) {
    return util::Status::NotFound("no alignment for type " + type_b +
                                  " in pair " + lang_a + ":" + lang_b);
  }
  std::vector<std::string> out;
  for (const auto& cluster : it->second->Clusters()) {
    out.push_back(ClusterLine(cluster));
  }
  return out;
}

util::Result<ServedQueryResult> MatchService::EvaluateTranslatedQuery(
    const std::string& lang_a, const std::string& lang_b,
    const std::string& query_text) const {
  auto core = Core();
  if (!core.ok()) return core.status();
  const auto& gen = core.ValueOrDie();
  const PairServing* pair = gen->FindPair(lang_a, lang_b);
  if (pair == nullptr) {
    return util::Status::NotFound("no pipeline for pair " + lang_a + ":" +
                                  lang_b + " in snapshot");
  }
  auto parsed = query::ParseCQuery(query_text);
  if (!parsed.ok()) return parsed.status().WithContext("parsing c-query");
  query::TranslationReport report;
  auto translated = pair->translator->Translate(*parsed, &report);
  if (!translated.ok()) {
    return translated.status().WithContext("translating c-query");
  }
  query::QueryEvaluator evaluator(&gen->snapshot.corpus, lang_b);
  query::EvaluatorOptions eval_options;
  eval_options.top_k = options_.query_top_k;
  auto answers = evaluator.Run(*translated, eval_options);
  if (!answers.ok()) {
    return answers.status().WithContext("evaluating translated c-query");
  }
  ServedQueryResult out;
  out.translated_query = translated->ToString();
  out.constraints_translated = report.constraints_translated;
  out.constraints_relaxed = report.constraints_relaxed;
  out.answers.reserve(answers->size());
  for (const auto& answer : *answers) {
    ServedAnswer served;
    served.title = gen->snapshot.corpus.Get(answer.article).title;
    served.score = answer.score;
    served.projections = answer.projections;
    out.answers.push_back(std::move(served));
  }
  return out;
}

std::string MatchService::Dispatch(const GenerationState& gen,
                                   const std::string& line,
                                   bool* cacheable) {
  *cacheable = false;
  size_t pos = 0;
  std::string command;
  if (!NextToken(line, &pos, &command)) return RenderErr("empty request");

  // One gate for the whole verb set: anything outside the ProtocolVerbs()
  // table is rejected here, so the table, `help`, and the dispatch chain
  // below cannot disagree about what the protocol accepts.
  if (!IsProtocolVerb(command)) {
    return RenderErr("unknown request '" + command +
                     "' (try 'help' for the protocol)");
  }

  if (command == "help") return RenderOk(HelpLines());
  if (command == "quit" || command == "exit") {
    // Transports intercept quit before Dispatch (protocol.cc); answering
    // here keeps direct Handle() callers (tests, embedders) working.
    return RenderOk({"bye"});
  }
  if (command == "health") {
    // Deliberately cheap (no cache probe, no pair lookup): load balancers
    // poll this at high frequency, and the net server's drain logic uses
    // it as the liveness signal that the process still answers.
    std::ostringstream os;
    os << "healthy generation=" << gen.snapshot.meta.generation
       << " load_seq=" << gen.load_seq
       << " uptime_s=" << SecondsSince(started_);
    return RenderOk({os.str()});
  }
  if (command == "version") {
    std::ostringstream os;
    os << "wikimatch " << kServerVersion << " protocol=" << kProtocolVersion
       << " snapshot_format=" << store::kSnapshotVersion;
    return RenderOk({os.str()});
  }
  if (command == "stats") {
    ServiceStats stats = Stats();
    std::ostringstream os;
    os << "requests=" << stats.requests << " errors=" << stats.errors
       << " generation=" << gen.snapshot.meta.generation
       << " loads=" << stats.loads << " loaded_unix=" << gen.loaded_unix
       << " uptime_s=" << stats.uptime_s
       << " generation_age_s=" << SecondsSince(gen.loaded_at)
       << " cache_hits=" << stats.cache.hits
       << " cache_misses=" << stats.cache.misses
       << " cache_evictions=" << stats.cache.evictions
       << " cache_entries=" << stats.cache.entries
       << " cache_capacity=" << stats.cache.capacity;
    std::vector<std::string> lines = {os.str()};
    // Build-time pipeline stats travel inside the snapshot; absent (all
    // zero) for snapshots written before they were recorded.
    for (const auto& [pair, serving] : gen.pairs) {
      lines.push_back("pipeline " + pair.first + ":" + pair.second + " " +
                      serving.result->stats.ToString());
    }
    return RenderOk(lines);
  }
  if (command == "generation") {
    std::ostringstream os;
    os << "generation=" << gen.snapshot.meta.generation
       << " load_seq=" << gen.load_seq
       << " loaded_unix=" << gen.loaded_unix
       << " age_s=" << SecondsSince(gen.loaded_at)
       << " deltas_applied=" << gen.snapshot.meta.history.size();
    return RenderOk({os.str()});
  }
  if (command == "reload") {
    std::string target = RestOfLine(line, pos);
    util::Status status = Reload(target);
    if (!status.ok()) return RenderErr(status.ToString());
    auto fresh = Current();
    std::ostringstream os;
    os << "reloaded generation=" << fresh->snapshot.meta.generation
       << " load_seq=" << fresh->load_seq;
    return RenderOk({os.str()});
  }
  if (command == "pairs") {
    std::vector<std::string> lines;
    for (const auto& [pair, serving] : gen.pairs) {
      lines.push_back(pair.first + ":" + pair.second);
    }
    return RenderOk(lines);
  }
  if (command == "sync-status") {
    const sync::SyncReport& report = gen.snapshot.sync_report;
    std::ostringstream os;
    os << "sync_generation=" << report.generation
       << " cells=" << report.cells.size()
       << " updates=" << report.updates.size();
    std::vector<std::string> lines = {os.str()};
    for (const auto& [key, counts] : report.Summaries()) {
      std::ostringstream row;
      row << key.first << "\t" << key.second << "\tin_sync=" << counts.in_sync
          << " stale=" << counts.stale << " missing=" << counts.missing
          << " conflict=" << counts.conflict
          << " unverifiable=" << counts.unverifiable;
      lines.push_back(row.str());
    }
    *cacheable = true;
    return RenderOk(lines);
  }

  // Remaining commands address a language pair.
  std::string pair_token, lang_a, lang_b;
  if (!NextToken(line, &pos, &pair_token) ||
      !SplitPairToken(pair_token, &lang_a, &lang_b)) {
    return RenderErr("expected a language pair like pt:en after '" +
                     command + "'");
  }

  if (command == "types") {
    const PairServing* pair = gen.FindPair(lang_a, lang_b);
    if (pair == nullptr) {
      return RenderErr("no pipeline for pair " + lang_a + ":" + lang_b +
                       " in snapshot");
    }
    std::vector<std::string> lines;
    for (const auto& tm : pair->result->type_matches) {
      std::ostringstream os;
      os << tm.type_a << "\t" << tm.type_b << "\t" << tm.votes << "\t"
         << tm.confidence;
      lines.push_back(os.str());
    }
    *cacheable = true;
    return RenderOk(lines);
  }

  if (command == "attr") {
    std::string type_b, lang;
    if (!NextToken(line, &pos, &type_b) || !NextToken(line, &pos, &lang)) {
      return RenderErr("usage: attr <src>:<tgt> <type_b> <lang> <attr>");
    }
    std::string name = RestOfLine(line, pos);
    if (name.empty()) {
      return RenderErr("usage: attr <src>:<tgt> <type_b> <lang> <attr>");
    }
    auto result = TranslateAttribute(lang_a, lang_b, type_b, lang, name);
    if (!result.ok()) return RenderErr(result.status().ToString());
    *cacheable = true;
    return RenderOk(*result);
  }

  if (command == "alignments") {
    std::string type_b;
    if (!NextToken(line, &pos, &type_b) || type_b.empty()) {
      return RenderErr("usage: alignments <src>:<tgt> <type_b>");
    }
    auto result = ListAlignments(lang_a, lang_b, type_b);
    if (!result.ok()) return RenderErr(result.status().ToString());
    *cacheable = true;
    return RenderOk(*result);
  }

  if (command == "query") {
    std::string query_text = RestOfLine(line, pos);
    if (query_text.empty()) {
      return RenderErr("usage: query <src>:<tgt> <c-query>");
    }
    auto result = EvaluateTranslatedQuery(lang_a, lang_b, query_text);
    if (!result.ok()) return RenderErr(result.status().ToString());
    std::vector<std::string> lines;
    lines.push_back("translated " +
                    std::to_string(result->constraints_translated) + " " +
                    std::to_string(result->constraints_relaxed) + " " +
                    result->translated_query);
    for (const auto& answer : result->answers) {
      std::string l = answer.title;
      for (const auto& projection : answer.projections) {
        l += '\t';
        l += projection;
      }
      lines.push_back(std::move(l));
    }
    *cacheable = true;
    return RenderOk(lines);
  }

  if (command == "sync") {
    std::string type_b;
    if (!NextToken(line, &pos, &type_b) || type_b.empty()) {
      return RenderErr("usage: sync <src>:<tgt> <type_b>");
    }
    if (gen.FindPair(lang_a, lang_b) == nullptr) {
      return RenderErr("no pipeline for pair " + lang_a + ":" + lang_b +
                       " in snapshot");
    }
    const sync::SyncReport& report = gen.snapshot.sync_report;
    if (report.empty()) {
      return RenderErr(
          "no sync report in snapshot (run `wikimatch sync` and reload)");
    }
    // The non-hub edition is the pair language of the report's rows; the
    // index was built per (pair_lang, type_b) so both orderings of the
    // pair token find the same rows.
    std::vector<std::string> lines;
    lines.push_back("sync_generation=" + std::to_string(report.generation));
    auto emit = [&](const std::string& pair_lang) {
      auto cit = gen.sync_cells.find({pair_lang, type_b});
      if (cit != gen.sync_cells.end()) {
        for (size_t idx : cit->second) {
          const sync::CellVerdict& v = report.cells[idx];
          std::ostringstream os;
          os << "cell\t" << v.pair_title << "\t" << v.hub_title << "\t"
             << v.pair_attr << "\t" << v.hub_attr << "\t"
             << sync::CellClassName(v.cls) << "\t" << v.score;
          lines.push_back(os.str());
        }
      }
      auto uit = gen.sync_updates.find({pair_lang, type_b});
      if (uit != gen.sync_updates.end()) {
        for (size_t idx : uit->second) {
          const sync::PropagationUpdate& u = report.updates[idx];
          std::ostringstream os;
          os << "update\t" << u.source_lang << "\t" << u.source_title << "\t"
             << u.source_attr << "\t" << u.target_lang << "\t"
             << u.target_title << "\t" << u.target_attr << "\t"
             << u.evidence_score << "\t" << u.proposed_value;
          lines.push_back(os.str());
        }
      }
    };
    // One of the two languages is the hub; the other keys the report.
    emit(lang_a);
    if (lang_b != lang_a) emit(lang_b);
    *cacheable = true;
    return RenderOk(lines);
  }

  // Every table verb is handled above; reaching here means the table and
  // the dispatch chain drifted apart (a bug the help-coverage test catches).
  return RenderErr("verb '" + command + "' is not implemented");
}

namespace {

// Verbs a meta-only boot generation can answer, so an mmap-loaded service
// responds to health checks and protocol chatter before (and regardless
// of) the first core decode. `reload` is here so a corrupt snapshot can be
// replaced without first paying — or failing — a decode of the bad one.
bool IsCoreFreeVerb(const std::string& command) {
  return command == "help" || command == "quit" || command == "exit" ||
         command == "health" || command == "version" ||
         command == "generation" || command == "reload";
}

}  // namespace

std::string MatchService::Handle(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  // Pin one generation for the whole request. The cache key carries its
  // load sequence so a swap instantly invalidates every older entry
  // (they become unaddressable and age out of the LRU).
  auto gen = Current();
  std::string key = std::to_string(gen->load_seq) + '\x1f' + line;
  std::string cached;
  if (cache_.Get(key, &cached)) return cached;
  // Cache miss: data-bearing verbs need the decoded core (a no-op once it
  // exists). The classification runs only here so hits — the hot path —
  // never pay the token parse. A boot generation and the core it decodes
  // into share a load_seq, so the key above stays valid either way.
  size_t peek = 0;
  std::string command;
  NextToken(line, &peek, &command);
  if (IsProtocolVerb(command) && !IsCoreFreeVerb(command)) {
    auto core = Core();
    if (!core.ok()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return RenderErr(core.status().ToString());
    }
    gen = std::move(core).ValueOrDie();
    // A reload racing between the pin and Core() can hand back a newer
    // generation; re-key so the cached response stays coherent with the
    // generation that produced it.
    std::string core_key = std::to_string(gen->load_seq) + '\x1f' + line;
    if (core_key != key) key = std::move(core_key);
  }
  bool cacheable = false;
  std::string response = Dispatch(*gen, line, &cacheable);
  if (cacheable) {
    cache_.Put(key, response);
  } else if (response.compare(0, 3, "err") == 0) {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

ServiceStats MatchService::Stats() const {
  auto gen = Current();
  ServiceStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.generation = gen->snapshot.meta.generation;
  stats.loads = loads_.load(std::memory_order_relaxed);
  stats.loaded_unix = gen->loaded_unix;
  stats.uptime_s = SecondsSince(started_);
  stats.generation_age_s = SecondsSince(gen->loaded_at);
  stats.cache = cache_.Stats();
  return stats;
}

std::vector<store::LanguagePair> MatchService::Pairs() const {
  auto gen = Current();
  std::vector<store::LanguagePair> out;
  out.reserve(gen->pairs.size());
  for (const auto& [pair, serving] : gen->pairs) out.push_back(pair);
  return out;
}

size_t MatchService::CorpusSize() const { return Current()->snapshot.corpus.size(); }

uint64_t MatchService::Generation() const {
  return Current()->snapshot.meta.generation;
}

bool MatchService::CoreLoaded() const {
  util::MutexLock lock(gen_mu_);
  return gen_ != nullptr;
}

}  // namespace serve
}  // namespace wikimatch
