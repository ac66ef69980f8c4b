#include "wiki/dump_reader.h"

#include <cstdlib>

#include "util/file_io.h"
#include "util/utf8.h"

namespace wikimatch {
namespace wiki {

std::string XmlUnescape(std::string_view s) {
  size_t amp = s.find('&');
  if (amp == std::string_view::npos) return std::string(s);
  std::string out;
  out.reserve(s.size());
  out.append(s.substr(0, amp));
  size_t i = amp;
  while (i < s.size()) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      ++i;
      continue;
    }
    size_t semi = s.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 12) {
      out.push_back(s[i]);
      ++i;
      continue;
    }
    std::string_view ent = s.substr(i + 1, semi - i - 1);
    if (ent == "lt") {
      out.push_back('<');
    } else if (ent == "gt") {
      out.push_back('>');
    } else if (ent == "amp") {
      out.push_back('&');
    } else if (ent == "quot") {
      out.push_back('"');
    } else if (ent == "apos") {
      out.push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      // ent is at most 11 bytes (semi - i <= 12), so it fits with its NUL.
      char digits[16] = {};
      bool hex = ent.size() > 2 && (ent[1] == 'x' || ent[1] == 'X');
      std::string_view body = ent.substr(hex ? 2 : 1);
      body.copy(digits, body.size());
      long cp = std::strtol(digits, nullptr, hex ? 16 : 10);
      // Code points past U+10FFFF and UTF-16 surrogates (U+D800-U+DFFF)
      // have no UTF-8 encoding; they are dropped.
      bool surrogate = cp >= 0xD800 && cp <= 0xDFFF;
      if (cp > 0 && cp <= 0x10FFFF && !surrogate) {
        util::AppendUtf8(static_cast<char32_t>(cp), &out);
      }
    } else {
      // Unknown entity: keep verbatim.
      out.append(s.substr(i, semi - i + 1));
    }
    i = semi + 1;
  }
  return out;
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

// Where one element of a page sits in its window: the first open tag,
// plain (<tag>) or with attributes (<tag ...>), and the first close tag
// after it. Offsets are relative to the window; npos when absent.
struct ElementSpan {
  std::string_view name;  // tag name, e.g. "title"
  size_t body = std::string_view::npos;
  size_t end = std::string_view::npos;

  bool found() const { return end != std::string_view::npos; }
};

// True when `window` holds `word` at `at`.
bool HasAt(std::string_view window, size_t at, std::string_view word) {
  return window.compare(at, word.size(), word) == 0;
}

// Notes the markup starting at window[lt] == '<' against `span`: the
// first open tag sets the body start, the first matching close tag at or
// after it sets the end.
void Observe(std::string_view window, size_t lt, ElementSpan* span) {
  std::string_view name = span->name;
  if (span->body == std::string_view::npos) {
    if (!HasAt(window, lt + 1, name)) return;
    size_t after = lt + 1 + name.size();
    if (after >= window.size()) return;
    if (window[after] == '>') {
      span->body = after + 1;
    } else if (window[after] == ' ') {
      // Attribute form: the body starts past the tag's closing '>'. With
      // no '>' left in the page the element is absent.
      size_t gt = window.find('>', after);
      span->body = gt == std::string_view::npos ? window.size() : gt + 1;
    }
    return;
  }
  if (span->found() || lt < span->body || window[lt + 1] != '/') return;
  size_t after = lt + 2 + name.size();
  if (HasAt(window, lt + 2, name) && after < window.size() &&
      window[after] == '>') {
    span->end = lt;
  }
}

// Parses one <page> body, `window` = [just past "<page>", "</page>").
// Every search stays inside the window, and the markup is visited in one
// forward pass over its '<' bytes: wikitext inside <text> is escaped, so
// the pass jumps from tag to tag.
util::Status ParsePage(std::string_view window, DumpPage* page) {
  ElementSpan title{"title"};
  ElementSpan ns{"ns"};
  ElementSpan text{"text"};
  for (size_t lt = window.find('<'); lt != std::string_view::npos;
       lt = window.find('<', lt + 1)) {
    if (lt + 1 >= window.size()) break;
    Observe(window, lt, &title);
    Observe(window, lt, &ns);
    Observe(window, lt, &text);
    if (HasAt(window, lt + 1, "redirect")) page->is_redirect = true;
  }
  auto body = [&](const ElementSpan& span) {
    return window.substr(span.body, span.end - span.body);
  };
  if (!title.found()) return util::Status::ParseError("<page> without <title>");
  page->title = XmlUnescape(body(title));
  if (ns.found()) page->ns = std::atoi(XmlUnescape(body(ns)).c_str());
  if (text.found()) page->text = XmlUnescape(body(text));
  return util::Status::OK();
}

}  // namespace

util::Result<std::vector<DumpPage>> ParseDump(std::string_view xml) {
  constexpr std::string_view kOpen = "<page>";
  constexpr std::string_view kClose = "</page>";
  std::vector<DumpPage> pages;
  size_t pos = 0;
  while (true) {
    size_t page_open = xml.find(kOpen, pos);
    if (page_open == std::string_view::npos) break;
    size_t page_close = xml.find(kClose, page_open);
    if (page_close == std::string_view::npos) {
      return util::Status::ParseError("unterminated <page> element");
    }
    size_t body = page_open + kOpen.size();
    DumpPage& page = pages.emplace_back();
    WIKIMATCH_RETURN_NOT_OK(
        ParsePage(xml.substr(body, page_close - body), &page));
    pos = page_close + kClose.size();
  }
  return pages;
}

util::Result<std::vector<DumpPage>> ReadDumpFile(const std::string& path) {
  WIKIMATCH_ASSIGN_OR_RETURN(std::string xml, util::ReadFileToString(path));
  return ParseDump(xml);
}

std::string WriteDump(const std::vector<DumpPage>& pages,
                      std::string_view language) {
  std::string out;
  out += "<mediawiki xml:lang=\"" + std::string(language) + "\">\n";
  for (const auto& page : pages) {
    out += "  <page>\n";
    out += "    <title>" + XmlEscape(page.title) + "</title>\n";
    out += "    <ns>" + std::to_string(page.ns) + "</ns>\n";
    if (page.is_redirect) out += "    <redirect/>\n";
    out += "    <revision>\n      <text xml:space=\"preserve\">" +
           XmlEscape(page.text) + "</text>\n    </revision>\n";
    out += "  </page>\n";
  }
  out += "</mediawiki>\n";
  return out;
}

}  // namespace wiki
}  // namespace wikimatch
