#include "wiki/corpus.h"

#include <algorithm>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace wiki {

const std::vector<ArticleId> Corpus::kEmpty;

util::Result<ArticleId> Corpus::AddArticle(Article article) {
  auto key = std::make_pair(article.language, article.title);
  if (title_index_.count(key) > 0) {
    return util::Status::AlreadyExists(article.language + ":" + article.title);
  }
  ArticleId id = static_cast<ArticleId>(articles_.size());
  title_index_.emplace(std::move(key), id);
  language_index_[article.language].push_back(id);
  articles_.push_back(std::move(article));
  finalized_ = false;
  return id;
}

Corpus Corpus::ParallelCopy(const Corpus& base, size_t num_threads) {
  Corpus out;
  const size_t n = base.articles_.size();
  out.articles_.resize(n);
  const size_t chunks = num_threads <= 1 ? 1 : num_threads * 4;
  const size_t step = (n + chunks - 1) / chunks;
  util::thread_pool_for(chunks, num_threads, [&](size_t c) {
    const size_t begin = c * step;
    const size_t end = std::min(n, begin + step);
    for (size_t i = begin; i < end; ++i) {
      out.articles_[i] = base.articles_[i];
    }
  });
  out.title_index_ = base.title_index_;
  out.language_index_ = base.language_index_;
  out.type_index_ = base.type_index_;
  out.finalized_ = base.finalized_;
  return out;
}

util::Status Corpus::ReplaceArticle(ArticleId id, Article article) {
  if (id >= articles_.size()) {
    return util::Status::InvalidArgument("ReplaceArticle: id out of range");
  }
  if (articles_[id].language != article.language ||
      articles_[id].title != article.title) {
    return util::Status::InvalidArgument(
        "ReplaceArticle: replacement for " + articles_[id].language + ":" +
        articles_[id].title + " carries key " + article.language + ":" +
        article.title);
  }
  articles_[id] = std::move(article);
  finalized_ = false;
  return util::Status::OK();
}

void Corpus::EraseArticles(std::vector<ArticleId> ids) {
  if (ids.empty()) return;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (ArticleId id : ids) {
    const Article& a = articles_[id];
    title_index_.erase({a.language, a.title});
  }
  // Compact the article vector, preserving relative order.
  size_t write = 0;
  size_t next_removed = 0;
  for (size_t read = 0; read < articles_.size(); ++read) {
    if (next_removed < ids.size() && ids[next_removed] == read) {
      ++next_removed;
      continue;
    }
    if (write != read) articles_[write] = std::move(articles_[read]);
    ++write;
  }
  articles_.resize(write);
  // Every surviving id shifts down by the number of removed ids below it.
  auto shifted = [&](ArticleId id) {
    return id - static_cast<ArticleId>(
                    std::upper_bound(ids.begin(), ids.end(), id) -
                    ids.begin());
  };
  for (auto& [key, id] : title_index_) id = shifted(id);
  for (auto& [language, list] : language_index_) {
    size_t w = 0;
    for (ArticleId id : list) {
      if (std::binary_search(ids.begin(), ids.end(), id)) continue;
      list[w++] = shifted(id);
    }
    list.resize(w);
  }
  // Stale ids must not be served while un-finalized; Finalize rebuilds.
  type_index_.clear();
  finalized_ = false;
}

void Corpus::PopArticles(size_t n) {
  n = std::min(n, articles_.size());
  for (size_t k = 0; k < n; ++k) {
    const ArticleId id = static_cast<ArticleId>(articles_.size() - 1 - k);
    const Article& a = articles_[id];
    title_index_.erase({a.language, a.title});
    // Language lists are ascending by id, so the popped article is the
    // last entry of its language's list.
    auto it = language_index_.find(a.language);
    it->second.pop_back();
    if (it->second.empty()) language_index_.erase(it);
  }
  articles_.resize(articles_.size() - n);
  type_index_.clear();
  finalized_ = false;
}

void Corpus::RestoreArticles(
    std::vector<std::pair<ArticleId, Article>> originals) {
  if (originals.empty()) return;
  std::sort(originals.begin(), originals.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  // Merge survivors and restored records back into original positions.
  std::vector<Article> merged;
  merged.reserve(articles_.size() + originals.size());
  size_t next_restored = 0;
  size_t next_survivor = 0;
  while (merged.size() < articles_.size() + originals.size()) {
    const ArticleId pos = static_cast<ArticleId>(merged.size());
    if (next_restored < originals.size() &&
        originals[next_restored].first == pos) {
      merged.push_back(std::move(originals[next_restored].second));
      ++next_restored;
    } else {
      merged.push_back(std::move(articles_[next_survivor++]));
    }
  }
  articles_ = std::move(merged);
  // Survivor id c moves back up to c + (#restored ids at or below the
  // shifted position) — the inverse of EraseArticles' downshift.
  auto shifted = [&](ArticleId c) {
    size_t k = 0;
    ArticleId o = c;
    while (k < originals.size() && originals[k].first <= o) {
      ++k;
      o = c + static_cast<ArticleId>(k);
    }
    return o;
  };
  for (auto& [key, id] : title_index_) id = shifted(id);
  for (auto& [language, list] : language_index_) {
    for (ArticleId& id : list) id = shifted(id);
  }
  // Index the restored records; language lists stay ascending by id.
  for (const auto& original : originals) {
    const ArticleId id = original.first;
    const Article& a = articles_[id];
    title_index_.emplace(std::make_pair(a.language, a.title), id);
    auto& list = language_index_[a.language];
    list.insert(std::lower_bound(list.begin(), list.end(), id), id);
  }
  type_index_.clear();
  finalized_ = false;
}

util::Result<size_t> Corpus::IngestDump(const std::vector<DumpPage>& pages,
                                        const std::string& language,
                                        const WikitextParser& parser,
                                        size_t threads) {
  size_t added = 0;
  for (Article& article : ParsePages(pages, language, parser, threads)) {
    auto id = AddArticle(std::move(article));
    if (!id.ok()) {
      WIKIMATCH_LOG(Warning) << "skipping duplicate page '"
                             << id.status().message() << "'";
      continue;
    }
    ++added;
  }
  return added;
}

void Corpus::Finalize(FinalizeReport* report) {
  if (finalized_) return;

  // 1. Entity types from infobox template types.
  for (size_t i = 0; i < articles_.size(); ++i) {
    Article& article = articles_[i];
    if (article.entity_type.empty() && article.infobox.has_value()) {
      article.entity_type = article.infobox->template_type;
      if (report != nullptr && !article.entity_type.empty()) {
        report->entity_type_derived.push_back(static_cast<ArticleId>(i));
      }
    }
  }

  // 2. Symmetrize cross-language links.
  for (size_t i = 0; i < articles_.size(); ++i) {
    const Article& a = articles_[i];
    for (const auto& [lang, title] : a.cross_language_links) {
      ArticleId other = FindByTitle(lang, title);
      if (other == kInvalidArticle) continue;
      Article& b = articles_[other];
      auto it = b.cross_language_links.find(a.language);
      if (it == b.cross_language_links.end()) {
        b.cross_language_links[a.language] = a.title;
        if (report != nullptr) {
          report->backlinks_added.push_back({other, a.language, a.title});
        }
      }
    }
  }

  // 3. Type index (articles with infoboxes only — the matching unit).
  type_index_.clear();
  for (size_t i = 0; i < articles_.size(); ++i) {
    const Article& a = articles_[i];
    if (!a.infobox.has_value() || a.entity_type.empty()) continue;
    type_index_[{a.language, a.entity_type}].push_back(
        static_cast<ArticleId>(i));
  }

  finalized_ = true;
}

ArticleId Corpus::FindExactTitle(const std::string& language,
                                 const std::string& title) const {
  auto it = title_index_.find({language, title});
  return it == title_index_.end() ? kInvalidArticle : it->second;
}

ArticleId Corpus::FindByTitle(const std::string& language,
                              const std::string& title) const {
  ArticleId id = FindExactTitle(language, title);
  // Follow redirect chains (bounded; real wikis forbid double redirects,
  // we tolerate a short chain and bail on cycles).
  for (int depth = 0; depth < 4 && id != kInvalidArticle; ++depth) {
    const Article& article = articles_[id];
    if (!article.IsRedirect()) return id;
    id = FindExactTitle(language, article.redirect_to);
  }
  return id != kInvalidArticle && !articles_[id].IsRedirect()
             ? id
             : kInvalidArticle;
}

const std::vector<ArticleId>& Corpus::ArticlesInLanguage(
    const std::string& language) const {
  auto it = language_index_.find(language);
  return it == language_index_.end() ? kEmpty : it->second;
}

const std::vector<ArticleId>& Corpus::ArticlesOfType(
    const std::string& language, const std::string& type) const {
  auto it = type_index_.find({language, type});
  return it == type_index_.end() ? kEmpty : it->second;
}

std::vector<std::string> Corpus::Languages() const {
  std::vector<std::string> out;
  out.reserve(language_index_.size());
  for (const auto& [lang, ids] : language_index_) out.push_back(lang);
  return out;
}

std::vector<std::string> Corpus::TypesIn(const std::string& language) const {
  std::vector<std::string> out;
  for (const auto& [key, ids] : type_index_) {
    if (key.first == language) out.push_back(key.second);
  }
  return out;
}

ArticleId Corpus::CrossLanguageTarget(ArticleId id,
                                      const std::string& language) const {
  const Article& a = articles_[id];
  auto it = a.cross_language_links.find(language);
  if (it == a.cross_language_links.end()) return kInvalidArticle;
  return FindByTitle(language, it->second);
}

bool Corpus::SameEntity(ArticleId a, ArticleId b) const {
  if (a == b) return true;
  const Article& aa = articles_[a];
  const Article& ab = articles_[b];
  if (aa.language == ab.language) return false;
  auto it = aa.cross_language_links.find(ab.language);
  return it != aa.cross_language_links.end() && it->second == ab.title;
}

size_t Corpus::InfoboxCount(const std::string& language) const {
  size_t n = 0;
  for (ArticleId id : ArticlesInLanguage(language)) {
    if (articles_[id].infobox.has_value()) ++n;
  }
  return n;
}

}  // namespace wiki
}  // namespace wikimatch
