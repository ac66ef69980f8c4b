#include "wiki/wikitext_parser.h"

#include <algorithm>
#include <cctype>

#include "text/normalize.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace wiki {

namespace {

// Splits "prefix:rest" at the first colon; returns true when a colon exists.
bool SplitNamespace(std::string_view s, std::string* prefix,
                    std::string* rest) {
  size_t colon = s.find(':');
  if (colon == std::string_view::npos) return false;
  *prefix = text::NormalizeTitle(s.substr(0, colon));
  *rest = std::string(util::StripAsciiWhitespace(s.substr(colon + 1)));
  return true;
}

// Removes HTML-ish tags (<br/>, <small>, </span>, ...) replacing them with a
// space so adjacent words don't merge. Leaves bare '<' that don't open a tag.
std::string StripHtmlTags(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] == '<') {
      size_t close = s.find('>', i + 1);
      // Heuristic: treat as a tag only if it closes and looks tag-like.
      if (close != std::string_view::npos && close - i <= 64) {
        out.push_back(' ');
        i = close + 1;
        continue;
      }
    }
    out.push_back(s[i]);
    ++i;
  }
  return out;
}

// Removes '' and ''' emphasis markers.
std::string StripQuotes(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] == '\'' && i + 1 < s.size() && s[i + 1] == '\'') {
      size_t run = 0;
      while (i + run < s.size() && s[i + run] == '\'') ++run;
      i += run;
      continue;
    }
    out.push_back(s[i]);
    ++i;
  }
  return out;
}

}  // namespace

bool FindTemplate(std::string_view s, size_t from, size_t* begin,
                  size_t* end) {
  size_t open = s.find("{{", from);
  if (open == std::string_view::npos) return false;
  int depth = 0;
  size_t i = open;
  while (i + 1 < s.size() + 1 && i < s.size()) {
    if (i + 1 < s.size() && s[i] == '{' && s[i + 1] == '{') {
      depth += 1;
      i += 2;
      continue;
    }
    if (i + 1 < s.size() && s[i] == '}' && s[i + 1] == '}') {
      depth -= 1;
      i += 2;
      if (depth == 0) {
        *begin = open;
        *end = i;
        return true;
      }
      continue;
    }
    ++i;
  }
  return false;  // Unbalanced braces: no complete template.
}

WikitextParser::WikitextParser(WikitextParserOptions options)
    : options_(std::move(options)) {}

std::string WikitextParser::StripComments(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (s.substr(i, 4) == "<!--") {
      size_t close = s.find("-->", i + 4);
      if (close == std::string_view::npos) break;  // Runs to end of input.
      i = close + 3;
      continue;
    }
    out.push_back(s[i]);
    ++i;
  }
  return out;
}

std::string WikitextParser::StripRefs(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (s.substr(i, 4) == "<ref") {
      // Self-closing <ref ... /> or paired <ref ...>...</ref>.
      size_t tag_close = s.find('>', i);
      if (tag_close == std::string_view::npos) break;
      if (tag_close > i && s[tag_close - 1] == '/') {
        i = tag_close + 1;
        continue;
      }
      size_t end = s.find("</ref>", tag_close);
      if (end == std::string_view::npos) {
        i = tag_close + 1;  // Unterminated: drop just the open tag.
        continue;
      }
      i = end + 6;
      continue;
    }
    out.push_back(s[i]);
    ++i;
  }
  return out;
}

std::vector<std::string_view> WikitextParser::SplitTopLevel(
    std::string_view body) {
  std::vector<std::string_view> parts;
  int brace_depth = 0;
  int bracket_depth = 0;
  size_t start = 0;
  size_t i = 0;
  while (i < body.size()) {
    if (i + 1 < body.size() && body[i] == '{' && body[i + 1] == '{') {
      brace_depth++;
      i += 2;
      continue;
    }
    if (i + 1 < body.size() && body[i] == '}' && body[i + 1] == '}') {
      if (brace_depth > 0) brace_depth--;
      i += 2;
      continue;
    }
    if (i + 1 < body.size() && body[i] == '[' && body[i + 1] == '[') {
      bracket_depth++;
      i += 2;
      continue;
    }
    if (i + 1 < body.size() && body[i] == ']' && body[i + 1] == ']') {
      if (bracket_depth > 0) bracket_depth--;
      i += 2;
      continue;
    }
    if (body[i] == '|' && brace_depth == 0 && bracket_depth == 0) {
      parts.push_back(body.substr(start, i - start));
      start = i + 1;
    }
    ++i;
  }
  parts.push_back(body.substr(start));
  return parts;
}

bool WikitextParser::IsInfoboxTemplateName(const std::string& name) const {
  for (const auto& head : options_.infobox_heads) {
    if (util::StartsWith(name, head)) return true;
  }
  return false;
}

AttributeValue WikitextParser::ParseValue(std::string_view value) const {
  AttributeValue out;
  out.raw = std::string(util::StripAsciiWhitespace(value));

  // Render to plain text while collecting links. Process iteratively.
  std::string work = out.raw;

  // Flatten nested templates: {{name|a|b}} -> "a, b" (positional args only).
  // Repeat until no templates remain (bounded to avoid pathological input).
  for (int round = 0; round < 8; ++round) {
    size_t begin = 0;
    size_t end = 0;
    if (!FindTemplate(work, 0, &begin, &end)) break;
    std::string_view inner =
        std::string_view(work).substr(begin + 2, end - begin - 4);
    std::vector<std::string_view> parts = SplitTopLevel(inner);
    std::vector<std::string> args;
    for (size_t p = 1; p < parts.size(); ++p) {
      std::string_view part = util::StripAsciiWhitespace(parts[p]);
      // Skip named parameters of formatting templates; keep positional.
      size_t eq = part.find('=');
      bool named = false;
      if (eq != std::string_view::npos) {
        // Named iff the key side is a simple word (no brackets).
        std::string_view key = util::StripAsciiWhitespace(part.substr(0, eq));
        named = !key.empty() &&
                key.find('[') == std::string_view::npos &&
                key.find('{') == std::string_view::npos;
      }
      if (!named && !part.empty()) args.emplace_back(part);
    }
    std::string replacement = util::Join(args, ", ");
    work = work.substr(0, begin) + replacement + work.substr(end);
  }

  // Extract links and build plain text.
  std::string plain;
  plain.reserve(work.size());
  size_t i = 0;
  while (i < work.size()) {
    if (i + 1 < work.size() && work[i] == '[' && work[i + 1] == '[') {
      size_t close = work.find("]]", i + 2);
      if (close != std::string::npos) {
        std::string_view link_body =
            std::string_view(work).substr(i + 2, close - i - 2);
        size_t pipe = link_body.find('|');
        std::string_view target_raw =
            pipe == std::string_view::npos ? link_body
                                           : link_body.substr(0, pipe);
        std::string_view anchor_raw =
            pipe == std::string_view::npos ? link_body
                                           : link_body.substr(pipe + 1);
        Hyperlink link;
        link.target = text::NormalizeTitle(target_raw);
        link.anchor =
            std::string(util::StripAsciiWhitespace(anchor_raw));
        if (!link.target.empty()) out.links.push_back(link);
        plain.append(link.anchor);
        i = close + 2;
        continue;
      }
    }
    plain.push_back(work[i]);
    ++i;
  }

  plain = StripHtmlTags(plain);
  plain = StripQuotes(plain);
  out.text = util::CollapseWhitespace(plain);
  return out;
}

util::Result<Infobox> WikitextParser::ParseInfoboxBody(
    std::string_view body) const {
  std::vector<std::string_view> parts = SplitTopLevel(body);
  if (parts.empty()) return util::Status::ParseError("empty template body");
  std::string name = text::NormalizeAttributeName(parts[0]);
  if (name.empty()) return util::Status::ParseError("template has no name");

  Infobox box;
  box.template_name = name;
  // template_type: strip the infobox head word.
  box.template_type = name;
  for (const auto& head : options_.infobox_heads) {
    if (util::StartsWith(name, head)) {
      box.template_type = std::string(
          util::StripAsciiWhitespace(std::string_view(name).substr(head.size())));
      break;
    }
  }

  for (size_t p = 1; p < parts.size(); ++p) {
    std::string_view part = parts[p];
    size_t eq = part.find('=');
    if (eq == std::string_view::npos) continue;  // Positional arg: skip.
    std::string key =
        text::NormalizeAttributeName(part.substr(0, eq));
    if (key.empty()) continue;
    AttributeValue value = ParseValue(part.substr(eq + 1));
    if (value.raw.empty()) continue;  // Empty-valued attrs carry no signal.
    box.attributes.emplace_back(std::move(key), std::move(value));
  }
  return box;
}

util::Result<Article> WikitextParser::ParseArticle(
    std::string_view title, std::string_view language,
    std::string_view wikitext) const {
  if (title.empty()) return util::Status::InvalidArgument("empty title");
  if (language.empty()) return util::Status::InvalidArgument("empty language");

  Article article;
  article.title = text::NormalizeTitle(title);
  article.language = std::string(language);

  std::string cleaned = StripRefs(StripComments(wikitext));

  // Redirect pages: "#REDIRECT [[Target]]" (case-insensitive, possibly
  // preceded by whitespace). They carry no content of their own.
  {
    std::string_view head = util::StripAsciiWhitespace(cleaned);
    if (!head.empty() && head[0] == '#') {
      std::string lowered = util::AsciiToLower(head.substr(0, 16));
      if (util::StartsWith(lowered, "#redirect")) {
        size_t open = head.find("[[");
        size_t close = head.find("]]", open == std::string_view::npos
                                            ? 0
                                            : open + 2);
        if (open != std::string_view::npos &&
            close != std::string_view::npos) {
          std::string_view target = head.substr(open + 2, close - open - 2);
          size_t pipe = target.find('|');
          if (pipe != std::string_view::npos) target = target.substr(0, pipe);
          article.redirect_to = text::NormalizeTitle(target);
          return article;
        }
      }
    }
  }

  // Find the first infobox template.
  size_t from = 0;
  while (true) {
    size_t begin = 0;
    size_t end = 0;
    if (!FindTemplate(cleaned, from, &begin, &end)) break;
    std::string_view body =
        std::string_view(cleaned).substr(begin + 2, end - begin - 4);
    std::vector<std::string_view> parts = SplitTopLevel(body);
    std::string name =
        parts.empty() ? "" : text::NormalizeAttributeName(parts[0]);
    if (IsInfoboxTemplateName(name)) {
      auto box = ParseInfoboxBody(body);
      if (box.ok()) {
        article.infobox = std::move(box).ValueOrDie();
        break;
      }
    }
    from = end;
  }

  // Scan all wikilinks for categories and cross-language links.
  size_t i = 0;
  while (i < cleaned.size()) {
    if (i + 1 < cleaned.size() && cleaned[i] == '[' && cleaned[i + 1] == '[') {
      size_t close = cleaned.find("]]", i + 2);
      if (close == std::string::npos) break;
      std::string_view link_body =
          std::string_view(cleaned).substr(i + 2, close - i - 2);
      size_t pipe = link_body.find('|');
      std::string_view target =
          pipe == std::string_view::npos ? link_body
                                         : link_body.substr(0, pipe);
      std::string prefix;
      std::string rest;
      if (SplitNamespace(target, &prefix, &rest) && !rest.empty()) {
        bool is_category =
            std::find(options_.category_prefixes.begin(),
                      options_.category_prefixes.end(),
                      prefix) != options_.category_prefixes.end();
        bool is_language =
            std::find(options_.language_codes.begin(),
                      options_.language_codes.end(),
                      prefix) != options_.language_codes.end();
        if (is_category) {
          article.categories.push_back(text::NormalizeTitle(rest));
        } else if (is_language && prefix != article.language) {
          article.cross_language_links[prefix] = text::NormalizeTitle(rest);
        }
      }
      i = close + 2;
      continue;
    }
    ++i;
  }

  return article;
}

std::vector<Article> ParsePages(const std::vector<DumpPage>& pages,
                                const std::string& language,
                                const WikitextParser& parser, size_t threads) {
  std::vector<const DumpPage*> main_pages;
  for (const DumpPage& page : pages) {
    if (page.ns == 0) main_pages.push_back(&page);
  }
  // Each worker writes only its own slots; failures are compacted out
  // afterwards, serially and in page order.
  std::vector<Article> articles(main_pages.size());
  std::vector<util::Status> errors(main_pages.size());
  util::thread_pool_for(main_pages.size(), threads, [&](size_t i) {
    const DumpPage& page = *main_pages[i];
    auto parsed = parser.ParseArticle(page.title, language, page.text);
    if (parsed.ok()) {
      articles[i] = std::move(parsed).ValueOrDie();
    } else {
      errors[i] = parsed.status();
    }
  });
  size_t kept = 0;
  for (size_t i = 0; i < articles.size(); ++i) {
    if (!errors[i].ok()) {
      WIKIMATCH_LOG(Warning) << "skipping page '" << main_pages[i]->title
                             << "': " << errors[i].ToString();
      continue;
    }
    if (kept != i) articles[kept] = std::move(articles[i]);
    ++kept;
  }
  articles.resize(kept);
  return articles;
}

}  // namespace wiki
}  // namespace wikimatch
