#include "synth/value_render.h"

#include <algorithm>
#include <cassert>

#include "util/string_util.h"

namespace wikimatch {
namespace synth {

namespace {

const char* kEnMonths[] = {"january", "february", "march",     "april",
                           "may",     "june",     "july",      "august",
                           "september", "october", "november", "december"};
const char* kPtMonths[] = {"janeiro", "fevereiro", "março",    "abril",
                           "maio",    "junho",     "julho",    "agosto",
                           "setembro", "outubro",  "novembro", "dezembro"};

const SupportEntity& PoolFor(const Fact& fact, const SupportPools& pools,
                             int ref) {
  switch (fact.kind) {
    case ValueKind::kPlace:
      return pools.places[static_cast<size_t>(ref)];
    case ValueKind::kTerm:
      return pools.terms[static_cast<size_t>(ref)];
    default:
      return pools.entities[static_cast<size_t>(ref)];
  }
}

// Title of a support entity in `lang`, falling back to any available title.
const std::string& TitleIn(const SupportEntity& e, const std::string& lang) {
  auto it = e.titles.find(lang);
  if (it != e.titles.end()) return it->second;
  assert(!e.titles.empty());
  return e.titles.begin()->second;
}

std::string RenderLink(const SupportEntity& e, const std::string& lang,
                       const RenderNoise& noise, util::Rng* rng) {
  const std::string& title = TitleIn(e, lang);
  std::string anchor = title;
  bool via_alias = false;
  auto alias_it = e.aliases.find(lang);
  if (alias_it != e.aliases.end() && rng->NextBool(noise.p_anchor_variant)) {
    anchor = alias_it->second;
    via_alias = true;
  }
  if (rng->NextBool(noise.p_link_drop)) return anchor;
  // Editors often link the alias directly when it is a redirect page.
  if (via_alias && rng->NextBool(0.5)) {
    auto page_it = e.alias_is_page.find(lang);
    if (page_it != e.alias_is_page.end() && page_it->second) {
      return "[[" + anchor + "]]";
    }
  }
  if (anchor == title) return "[[" + title + "]]";
  return "[[" + title + "|" + anchor + "]]";
}

int64_t MaybePerturb(int64_t value, const RenderNoise& noise,
                     util::Rng* rng) {
  if (!rng->NextBool(noise.p_value_noise)) return value;
  // Small relative perturbation, at least 1.
  int64_t delta = std::max<int64_t>(1, value / 32);
  return value + rng->NextInt(-delta, delta);
}

}  // namespace

std::string MonthName(int month, const std::string& lang) {
  month = std::clamp(month, 1, 12);
  if (lang == "pt") return kPtMonths[month - 1];
  if (lang == "vi") return std::to_string(month);
  return kEnMonths[month - 1];
}

Fact DrawFact(ValueKind kind, size_t domain_begin, size_t domain_end,
              const WordGenerator& hub_gen, util::Rng* rng) {
  Fact fact;
  fact.kind = kind;
  auto draw_ref = [&]() -> int {
    if (domain_end <= domain_begin) return 0;
    // Zipf over the domain: popular directors direct many films.
    uint64_t offset = rng->NextZipf(domain_end - domain_begin, 1.0);
    return static_cast<int>(domain_begin + offset);
  };
  switch (kind) {
    case ValueKind::kDate:
      fact.year = static_cast<int>(rng->NextInt(1900, 2010));
      fact.month = static_cast<int>(rng->NextInt(1, 12));
      fact.day = static_cast<int>(rng->NextInt(1, 28));
      // Real date attributes are composite ("born = December 18 1950,
      // Ireland"): most carry an associated place. This is what makes
      // born/died-style pairs share values and links — the paper's
      // canonical high-similarity wrong pair.
      if (domain_end > domain_begin) fact.ref = draw_ref();
      break;
    case ValueKind::kYear:
      fact.year = static_cast<int>(rng->NextInt(1900, 2010));
      break;
    case ValueKind::kNumber:
      fact.number = rng->NextInt(1, 1000);
      break;
    case ValueKind::kDuration:
      fact.number = rng->NextInt(60, 240);
      break;
    case ValueKind::kMoney:
      fact.number = rng->NextInt(1, 300) * 1000000;
      break;
    case ValueKind::kEntity:
    case ValueKind::kPlace:
    case ValueKind::kTerm:
      fact.ref = draw_ref();
      break;
    case ValueKind::kEntityList: {
      size_t count = 2 + rng->NextBounded(3);
      for (size_t i = 0; i < count; ++i) {
        int ref = draw_ref();
        if (std::find(fact.refs.begin(), fact.refs.end(), ref) ==
            fact.refs.end()) {
          fact.refs.push_back(ref);
        }
      }
      break;
    }
    case ValueKind::kText:
      fact.text = hub_gen.MakePhrase(rng, 2 + rng->NextBounded(3));
      // Most free-text infobox values embed a language-independent token —
      // a year span ("1980–present"), a URL, a count. Model it as a number
      // carried by the fact and rendered on both sides.
      if (rng->NextBool(0.35)) fact.number = rng->NextInt(1900, 2015);
      break;
    case ValueKind::kName:
      fact.text = hub_gen.MakeProperName(rng, 2);
      fact.name_shared = rng->NextBool(0.2);
      break;
  }
  return fact;
}

std::string RenderValue(const Fact& fact, const std::string& lang,
                        const SupportPools& pools, const RenderNoise& noise,
                        const WordGenerator& word_gen, util::Rng* rng,
                        RenderTrace* trace) {
  // Trace recording is write-only bookkeeping: every rng draw below happens
  // unconditionally of `trace`, so instrumented and plain renderings are
  // byte-identical.
  auto trace_number = [&](int64_t n) {
    if (trace != nullptr) trace->numbers.push_back(n);
  };
  auto trace_ref = [&](RenderTrace::RefPool pool, int ref) {
    if (trace != nullptr) trace->refs.emplace_back(pool, ref);
  };
  switch (fact.kind) {
    case ValueKind::kDate: {
      int day = fact.day;
      if (rng->NextBool(noise.p_value_noise)) {
        day = std::clamp(day + static_cast<int>(rng->NextInt(-2, 2)), 1, 28);
      }
      trace_number(day);
      trace_number(fact.month);
      trace_number(fact.year);
      // Day-month part, linked to the day page when one exists (Wikipedia
      // infoboxes conventionally link dates; the cross-language links of
      // those pages are what lets the dictionary translate dates).
      std::string day_month;
      if (lang == "pt") {
        day_month = std::to_string(day) + " de " + MonthName(fact.month, lang);
      } else if (lang == "vi") {
        day_month = std::to_string(day) + " tháng " + std::to_string(fact.month);
      } else {
        day_month = MonthName(fact.month, lang) + " " + std::to_string(day);
      }
      size_t day_idx = pools.DayPageIndex(fact.month, day);
      if (day_idx != SIZE_MAX && rng->NextBool(0.5) &&
          !rng->NextBool(noise.p_link_drop)) {
        day_month = "[[" + pools.day_pages[day_idx].titles.at(lang) + "|" +
                    day_month + "]]";
      }
      std::string year = std::to_string(fact.year);
      size_t year_idx = pools.YearPageIndex(fact.year);
      if (year_idx != SIZE_MAX && rng->NextBool(0.3) &&
          !rng->NextBool(noise.p_link_drop)) {
        year = "[[" + pools.year_pages[year_idx].titles.at(lang) + "]]";
      }
      std::string date;
      if (lang == "pt") {
        date = day_month + " de " + year;
      } else if (lang == "vi") {
        date = day_month + " năm " + year;
      } else {
        date = day_month + " " + year;
      }
      // Composite date: append the associated place on ~60% of renderings
      // (each side decides independently — another source of divergence).
      if (fact.ref >= 0 && rng->NextBool(0.6)) {
        date += ", " + RenderLink(pools.places[static_cast<size_t>(fact.ref)],
                                  lang, noise, rng);
        trace_ref(RenderTrace::RefPool::kPlace, fact.ref);
      }
      return date;
    }
    case ValueKind::kYear:
      trace_number(fact.year);
      return std::to_string(fact.year);
    case ValueKind::kNumber: {
      int64_t shown = MaybePerturb(fact.number, noise, rng);
      trace_number(shown);
      return std::to_string(shown);
    }
    case ValueKind::kDuration: {
      const char* unit = lang == "pt" ? "minutos"
                         : lang == "vi" ? "phút"
                                        : "minutes";
      int64_t shown = MaybePerturb(fact.number, noise, rng);
      trace_number(shown);
      return std::to_string(shown) + " " + unit;
    }
    case ValueKind::kMoney: {
      int64_t amount = MaybePerturb(fact.number, noise, rng);
      // Language-specific magnitude rendering: the same budget reads
      // "US$ 44000000" in English and "US$ 44 milhões" in Portuguese /
      // "44 triệu USD" in Vietnamese — the tokens no longer coincide.
      if (lang == "pt" && amount >= 1000000) {
        trace_number(amount / 1000000 * 1000000);
        return "US$ " + std::to_string(amount / 1000000) + " milhões";
      }
      if (lang == "vi" && amount >= 1000000) {
        trace_number(amount / 1000000 * 1000000);
        return std::to_string(amount / 1000000) + " triệu USD";
      }
      trace_number(amount);
      return "US$ " + std::to_string(amount);
    }
    case ValueKind::kEntity:
      trace_ref(RenderTrace::RefPool::kEntity, fact.ref);
      return RenderLink(PoolFor(fact, pools, fact.ref), lang, noise, rng);
    case ValueKind::kPlace:
      trace_ref(RenderTrace::RefPool::kPlace, fact.ref);
      return RenderLink(PoolFor(fact, pools, fact.ref), lang, noise, rng);
    case ValueKind::kTerm:
      trace_ref(RenderTrace::RefPool::kTerm, fact.ref);
      return RenderLink(PoolFor(fact, pools, fact.ref), lang, noise, rng);
    case ValueKind::kEntityList: {
      std::vector<std::string> parts;
      for (int ref : fact.refs) {
        // Lists are rarely complete in both languages: each member may be
        // omitted on a given side (but never all of them).
        if (!parts.empty() && rng->NextBool(0.25)) continue;
        parts.push_back(
            RenderLink(pools.entities[static_cast<size_t>(ref)], lang, noise,
                       rng));
        trace_ref(RenderTrace::RefPool::kEntity, ref);
      }
      if (rng->NextBool(noise.p_template_wrap)) {
        return "{{ubl|" + util::Join(parts, "|") + "}}";
      }
      return util::Join(parts, ", ");
    }
    case ValueKind::kText: {
      // Free text is language-specific, but often carries one shared
      // language-independent token (year span, URL, count).
      std::string text = word_gen.MakePhrase(rng, 2 + rng->NextBounded(3));
      if (fact.number > 0) {
        trace_number(fact.number);
        text += ' ';
        text += std::to_string(fact.number);
      }
      return text;
    }
    case ValueKind::kName: {
      if (fact.name_shared) return fact.text;
      // Aliases of the same person usually share a component (the surname).
      std::string surname = fact.text;
      size_t space = surname.rfind(' ');
      if (space != std::string::npos) surname = surname.substr(space + 1);
      return word_gen.MakeProperName(rng, 1) + " " + surname;
    }
  }
  return {};
}

}  // namespace synth
}  // namespace wikimatch
