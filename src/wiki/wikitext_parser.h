// Wikitext parser: turns MediaWiki markup into the Article data model.
//
// Handles the constructs that matter for infobox extraction:
//   {{Infobox type | attr = value | ... }}   (brace-nesting aware)
//   [[Target]] and [[Target|anchor]] wikilinks
//   [[Category:...]] (and localized prefixes) category links
//   [[xx:Title]] cross-language links
//   <!-- comments -->, <ref>...</ref>, <br/>, bold/italic quotes,
//   nested templates inside attribute values ({{ubl|a|b}}, {{Plainlist}}, ...)
//
// This is not a full MediaWiki grammar; it is the subset exercised by
// infobox pages, sufficient for the paper's pipeline and tested against
// tricky nesting in tests/wiki_parser_test.cc.

#ifndef WIKIMATCH_WIKI_WIKITEXT_PARSER_H_
#define WIKIMATCH_WIKI_WIKITEXT_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "wiki/article.h"
#include "wiki/dump_reader.h"

namespace wikimatch {
namespace wiki {

/// \brief Parser configuration.
struct WikitextParserOptions {
  /// Language codes recognized as cross-language link prefixes.
  std::vector<std::string> language_codes = {"en", "pt", "vi", "de", "fr",
                                             "es", "nl", "it", "ja", "zh"};
  /// Category namespace names (normalized lowercase), per language.
  std::vector<std::string> category_prefixes = {"category", "categoria",
                                                "thể loại"};
  /// Template-name heads that announce an infobox (normalized lowercase).
  std::vector<std::string> infobox_heads = {"infobox", "info", "hộp thông tin"};
};

/// \brief Stateless parser; one instance can parse many articles.
class WikitextParser {
 public:
  explicit WikitextParser(WikitextParserOptions options = {});

  /// \brief Parses a full article source into the data model.
  ///
  /// Never fails on malformed markup — unparseable constructs degrade to
  /// plain text — but returns InvalidArgument for an empty title/language.
  util::Result<Article> ParseArticle(std::string_view title,
                                     std::string_view language,
                                     std::string_view wikitext) const;

  /// \brief Removes <!-- ... --> comments (unterminated comment runs to
  /// end of input, as MediaWiki does).
  static std::string StripComments(std::string_view s);

  /// \brief Removes <ref ...>...</ref> and self-closing <ref .../>.
  static std::string StripRefs(std::string_view s);

  /// \brief Parses the body of a template believed to be an infobox.
  ///
  /// `body` is the text between "{{" and the matching "}}". Returns
  /// ParseError when the body has no recognizable template name.
  util::Result<Infobox> ParseInfoboxBody(std::string_view body) const;

  /// \brief Renders wikitext `value` to plain text and collects wikilinks.
  ///
  /// Links become their anchors in the text; nested templates render as
  /// their positional arguments joined with ", "; HTML tags are dropped.
  AttributeValue ParseValue(std::string_view value) const;

 private:
  /// True if `name` (normalized) announces an infobox template.
  bool IsInfoboxTemplateName(const std::string& name) const;

  /// Splits template body on top-level '|' (ignoring '|' nested in
  /// [[...]] or {{...}}).
  static std::vector<std::string_view> SplitTopLevel(std::string_view body);

  WikitextParserOptions options_;
};

/// \brief Locates the first top-level "{{...}}" starting at or after `from`;
/// returns true and sets [begin, end) byte offsets of the template including
/// braces. Nesting-aware.
bool FindTemplate(std::string_view s, size_t from, size_t* begin, size_t* end);

/// \brief Parses every main-namespace (ns 0) page of a dump, redirects
/// included, with `parser` on up to `threads` workers of the shared pool
/// (<= 1 runs inline). Returns the articles in page order; pages that fail
/// to parse are skipped and logged in page order. The output does not
/// depend on `threads`.
std::vector<Article> ParsePages(const std::vector<DumpPage>& pages,
                                const std::string& language,
                                const WikitextParser& parser, size_t threads);

}  // namespace wiki
}  // namespace wikimatch

#endif  // WIKIMATCH_WIKI_WIKITEXT_PARSER_H_
