// Corpus: the in-memory multilingual article store with the indexes the
// matching pipeline needs — by language, by (language, entity type), by
// title, and the cross-language link graph.

#ifndef WIKIMATCH_WIKI_CORPUS_H_
#define WIKIMATCH_WIKI_CORPUS_H_

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/result.h"
#include "wiki/article.h"
#include "wiki/dump_reader.h"
#include "wiki/wikitext_parser.h"

namespace wikimatch {
namespace wiki {

/// \brief What Finalize() changed on already-present records: entity types
/// it derived and cross-language backlinks it induced. These are the only
/// two record mutations Finalize performs, so a caller holding this report
/// (plus its own edits) knows every record that differs from the
/// pre-Finalize state — the basis of incremental change tracking.
struct FinalizeReport {
  /// Articles whose empty entity_type was derived from their infobox.
  std::vector<ArticleId> entity_type_derived;
  struct Backlink {
    ArticleId id;          ///< article that gained the link
    std::string language;  ///< key of the inserted cross_language_links entry
    std::string title;     ///< value of the inserted entry
  };
  /// Backlinks inserted by link symmetrization.
  std::vector<Backlink> backlinks_added;
};

/// \brief In-memory multilingual corpus.
///
/// Usage: AddArticle() / IngestDump() all articles, then Finalize() once.
/// Finalize resolves entity types, symmetrizes cross-language links, and
/// builds the type indexes; lookups before Finalize see only title indexes.
class Corpus {
 public:
  Corpus() = default;

  /// \brief Adds one article. Fails with AlreadyExists for a duplicate
  /// (language, title).
  util::Result<ArticleId> AddArticle(Article article);

  /// \brief Deep copy of `base`, with the article payload copied by up to
  /// `num_threads` workers. Equivalent to the copy constructor; the
  /// parallelism only splits the per-article string copies, so the result
  /// is identical at any thread count.
  static Corpus ParallelCopy(const Corpus& base, size_t num_threads);

  /// \brief Replaces the article at `id` in place. The replacement must
  /// carry the same (language, title) key, so the title and language
  /// indexes stay valid; everything else may change. Un-finalizes the
  /// corpus — call Finalize() when done mutating.
  util::Status ReplaceArticle(ArticleId id, Article article);

  /// \brief Removes the given articles. Ids of later articles shift down
  /// (articles keep their relative order); the title and language indexes
  /// are patched in place. Un-finalizes the corpus — call Finalize() when
  /// done mutating.
  void EraseArticles(std::vector<ArticleId> ids);

  /// \brief Removes the last `n` articles (inverse of `n` AddArticle
  /// calls). Un-finalizes the corpus.
  void PopArticles(size_t n);

  /// \brief Re-inserts articles previously removed by EraseArticles, at the
  /// ids they originally occupied; later articles shift back up. The exact
  /// inverse of EraseArticles(ids) when given the same ids with the
  /// removed records. Un-finalizes the corpus.
  void RestoreArticles(std::vector<std::pair<ArticleId, Article>> originals);

  /// \brief Parses every main-namespace page of a dump (redirects
  /// included) with `parser` on up to `threads` pool workers (see
  /// ParsePages), then adds the results serially in page order, so ids and
  /// duplicate handling do not depend on `threads`. Returns the number of
  /// articles added.
  util::Result<size_t> IngestDump(const std::vector<DumpPage>& pages,
                                  const std::string& language,
                                  const WikitextParser& parser,
                                  size_t threads = 1);

  /// \brief Resolves entity types (from infobox templates), symmetrizes the
  /// cross-language link graph (if A links to B, B links to A), and builds
  /// per-type indexes. Idempotent. When `report` is non-null, every record
  /// mutation performed is appended to it (nothing is recorded when the
  /// corpus was already finalized).
  void Finalize(FinalizeReport* report = nullptr);

  size_t size() const { return articles_.size(); }

  const Article& Get(ArticleId id) const { return articles_[id]; }
  Article* GetMutable(ArticleId id) { return &articles_[id]; }

  /// \brief Id of the article with normalized `title` in `language`,
  /// following redirect pages (bounded depth), or kInvalidArticle.
  ArticleId FindByTitle(const std::string& language,
                        const std::string& title) const;

  /// \brief Like FindByTitle but without redirect resolution.
  ArticleId FindExactTitle(const std::string& language,
                           const std::string& title) const;

  /// \brief All article ids in `language` (insertion order).
  const std::vector<ArticleId>& ArticlesInLanguage(
      const std::string& language) const;

  /// \brief Ids of articles in `language` with entity type `type` that have
  /// an infobox. Requires Finalize().
  const std::vector<ArticleId>& ArticlesOfType(const std::string& language,
                                               const std::string& type) const;

  /// \brief Languages present, sorted.
  std::vector<std::string> Languages() const;

  /// \brief Entity types present in `language`, sorted. Requires Finalize().
  std::vector<std::string> TypesIn(const std::string& language) const;

  /// \brief The article in `language` describing the same entity as `id`,
  /// following (symmetrized) cross-language links; kInvalidArticle if none.
  ArticleId CrossLanguageTarget(ArticleId id,
                                const std::string& language) const;

  /// \brief True iff articles `a` and `b` are connected by a cross-language
  /// link (i.e. describe the same entity).
  bool SameEntity(ArticleId a, ArticleId b) const;

  /// \brief Number of articles in `language` that carry an infobox.
  size_t InfoboxCount(const std::string& language) const;

 private:
  std::vector<Article> articles_;
  // (language, normalized title) -> id
  std::map<std::pair<std::string, std::string>, ArticleId> title_index_;
  std::map<std::string, std::vector<ArticleId>> language_index_;
  // (language, type) -> ids with infobox
  std::map<std::pair<std::string, std::string>, std::vector<ArticleId>>
      type_index_;
  bool finalized_ = false;

  static const std::vector<ArticleId> kEmpty;
};

}  // namespace wiki
}  // namespace wikimatch

#endif  // WIKIMATCH_WIKI_CORPUS_H_
