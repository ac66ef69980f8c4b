#include "sync/evidence.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <vector>

#include "text/normalize.h"
#include "util/string_util.h"

namespace wikimatch {
namespace sync {

namespace {

// Month names in diacritics-folded form; Vietnamese writes months as
// numerals ("18 tháng 6") so needs no table.
constexpr std::array<const char*, 12> kEnMonths = {
    "january", "february", "march",     "april",   "may",      "june",
    "july",    "august",   "september", "october", "november", "december"};
constexpr std::array<const char*, 12> kPtMonths = {
    "janeiro", "fevereiro", "marco",    "abril",   "maio",     "junho",
    "julho",   "agosto",    "setembro", "outubro", "novembro", "dezembro"};

// Folded magnitude words that scale the preceding number by one million
// ("US$ 44 milhões", "44 triệu USD").
constexpr std::array<const char*, 4> kMillionWords = {"milhoes", "million",
                                                     "millions", "trieu"};

// Folded connective words that may appear inside a date fragment.
constexpr std::array<const char*, 3> kDateConnectives = {"de", "thang", "nam"};

bool IsDigits(const std::string& s) {
  return !s.empty() &&
         std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return c >= '0' && c <= '9'; });
}

// Month number (1-12) of a folded token, or 0.
int MonthNumber(const std::string& token) {
  for (size_t i = 0; i < kEnMonths.size(); ++i) {
    if (token == kEnMonths[i] || token == kPtMonths[i]) {
      return static_cast<int>(i) + 1;
    }
  }
  return 0;
}

bool IsMillionWord(const std::string& token) {
  return std::find(kMillionWords.begin(), kMillionWords.end(), token) !=
         kMillionWords.end();
}

bool IsDateConnective(const std::string& token) {
  return std::find(kDateConnectives.begin(), kDateConnectives.end(), token) !=
         kDateConnectives.end();
}

// ASCII-alnum token runs of a folded string; everything else separates.
std::vector<std::string> Tokenize(const std::string& folded) {
  std::vector<std::string> tokens;
  std::string current;
  for (unsigned char c : folded) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      current.push_back(static_cast<char>(c));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

// a's evidence is contained in b's, componentwise.
bool ContainedIn(const Evidence& a, const Evidence& b) {
  return std::includes(b.refs.begin(), b.refs.end(), a.refs.begin(),
                       a.refs.end()) &&
         std::includes(b.numbers.begin(), b.numbers.end(), a.numbers.begin(),
                       a.numbers.end());
}

}  // namespace

const char* CellClassName(CellClass c) {
  switch (c) {
    case CellClass::kInSync:
      return "in_sync";
    case CellClass::kStale:
      return "stale";
    case CellClass::kMissing:
      return "missing";
    case CellClass::kConflict:
      return "conflict";
    case CellClass::kUnverifiable:
      return "unverifiable";
  }
  return "unknown";
}

CellClass Classify(const Evidence& a, const Evidence& b) {
  if (!a.comparable() && !b.comparable()) {
    return a.normalized == b.normalized ? CellClass::kInSync
                                        : CellClass::kUnverifiable;
  }
  if (!a.comparable() || !b.comparable()) return CellClass::kUnverifiable;
  bool a_in_b = ContainedIn(a, b);
  bool b_in_a = ContainedIn(b, a);
  if (a_in_b && b_in_a) return CellClass::kInSync;
  if (a_in_b || b_in_a) return CellClass::kStale;
  return CellClass::kConflict;
}

bool AIsStale(const Evidence& a, const Evidence& b) {
  return ContainedIn(a, b);
}

double AgreementScore(const Evidence& a, const Evidence& b) {
  if (!a.comparable() && !b.comparable()) {
    return a.normalized == b.normalized ? 1.0 : 0.0;
  }
  auto tokens = [](const Evidence& e) {
    std::set<std::string> out(e.refs);
    for (int64_t n : e.numbers) {
      std::string token = "#";
      token += std::to_string(n);
      out.insert(std::move(token));
    }
    return out;
  };
  std::set<std::string> ta = tokens(a);
  std::set<std::string> tb = tokens(b);
  size_t common = 0;
  for (const std::string& t : ta) common += tb.count(t);
  size_t total = ta.size() + tb.size() - common;
  return total == 0 ? 1.0
                    : static_cast<double>(common) / static_cast<double>(total);
}

EvidenceExtractor::EvidenceExtractor(
    const wiki::Corpus* corpus, const match::TranslationDictionary* dictionary,
    std::string hub_lang)
    : corpus_(corpus), dictionary_(dictionary), hub_(std::move(hub_lang)) {}

bool EvidenceExtractor::IsDateLikeTitle(const std::string& title) {
  std::vector<std::string> tokens = Tokenize(text::FoldDiacritics(title));
  if (tokens.empty()) return false;
  bool has_digits = false;
  for (const std::string& tok : tokens) {
    if (IsDigits(tok)) {
      has_digits = true;
    } else if (MonthNumber(tok) == 0 && !IsDateConnective(tok)) {
      return false;
    }
  }
  return has_digits;
}

std::string EvidenceExtractor::CanonicalTitle(const std::string& lang,
                                              const std::string& title) const {
  wiki::ArticleId id = corpus_->FindByTitle(lang, title);
  if (lang == hub_) {
    // Hub titles are already canonical; resolving just follows redirects.
    return id != wiki::kInvalidArticle ? corpus_->Get(id).title : title;
  }
  auto resolve_hub = [&](const std::string& hub_title) {
    wiki::ArticleId hid = corpus_->FindByTitle(hub_, hub_title);
    return hid != wiki::kInvalidArticle ? corpus_->Get(hid).title : hub_title;
  };
  if (id != wiki::kInvalidArticle) {
    wiki::ArticleId hid = corpus_->CrossLanguageTarget(id, hub_);
    if (hid != wiki::kInvalidArticle) return corpus_->Get(hid).title;
    auto translated = dictionary_->Translate(lang, corpus_->Get(id).title, hub_);
    if (translated.has_value()) return resolve_hub(*translated);
    return lang + ":" + corpus_->Get(id).title;
  }
  // Red link: the page doesn't exist in `lang`, but the dictionary is built
  // from symmetrized cross-language links in both directions, so the title
  // still translates whenever any edition records the pairing.
  auto translated = dictionary_->Translate(lang, title, hub_);
  if (translated.has_value()) return resolve_hub(*translated);
  return lang + ":" + title;
}

Evidence EvidenceExtractor::Extract(const wiki::AttributeValue& value,
                                    const std::string& lang) const {
  Evidence ev;
  ev.normalized = text::NormalizeValue(value.text);

  // Numbers, months, magnitudes from the folded visible text (link anchors
  // are inlined in `text`, so linked dates and years contribute too).
  std::vector<std::string> tokens =
      Tokenize(text::FoldDiacritics(ev.normalized));
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (IsDigits(tok)) {
      if (tok.size() > 12) continue;  // not a quantity (id-like digit run)
      int64_t n = std::strtoll(tok.c_str(), nullptr, 10);
      if (i + 1 < tokens.size() && IsMillionWord(tokens[i + 1])) {
        n *= 1000000;
        ++i;
      }
      ev.numbers.insert(n);
    } else {
      int month = MonthNumber(tok);
      if (month > 0) ev.numbers.insert(month);
    }
  }

  // Refs from explicit links (minus date-page links, which are style).
  for (const wiki::Hyperlink& link : value.links) {
    if (IsDateLikeTitle(link.target)) continue;
    ev.refs.insert(CanonicalTitle(lang, link.target));
  }

  // Refs recovered from unlinked components: editors drop brackets but keep
  // the name ("porto nava"), and list items split on commas (the parser
  // flattens {{ubl|...}} to comma-joined form). Only resolvable titles are
  // admitted — free text must not fabricate references.
  for (const std::string& piece : util::Split(value.text, ',')) {
    std::string t = text::NormalizeTitle(piece);
    if (t.empty() || IsDateLikeTitle(t)) continue;
    if (corpus_->FindByTitle(lang, t) == wiki::kInvalidArticle &&
        !dictionary_->Translate(lang, t, hub_).has_value()) {
      continue;
    }
    ev.refs.insert(CanonicalTitle(lang, t));
  }
  return ev;
}

}  // namespace sync
}  // namespace wikimatch
