// Robustness and property tests across modules:
//  * the wikitext parser must never fail on arbitrary mutated input —
//    malformed markup degrades, it does not error or crash;
//  * the dump reader must survive truncated/garbled XML, agree with the
//    search-based reader it replaced on every input, and scale linearly;
//  * dump ingest must not depend on the parse thread count;
//  * aligner behavior must be monotone in its thresholds;
//  * the full pipeline must be deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string_view>

#include "match/aligner.h"
#include "match/pipeline.h"
#include "synth/generator.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/utf8.h"
#include "wiki/corpus.h"
#include "wiki/dump_reader.h"
#include "wiki/serialize.h"
#include "wiki/wikitext_parser.h"

namespace wikimatch {
namespace {

const char kSeedArticle[] =
    "{{Infobox film\n| directed by = [[Bernardo Bertolucci]]\n"
    "| starring = {{ubl|[[John Lone]]|[[Joan Chen]]}}\n"
    "| release date = [[november 18]] 1987\n"
    "| notes = <!-- hidden --><ref>x</ref>value\n}}\n"
    "'''Prose''' with [[a link|anchor]].\n"
    "[[category:films]]\n[[pt:Filme]]\n";

// Mutates `s` with deletions, duplications, and byte flips.
std::string Mutate(const std::string& s, util::Rng* rng, int edits) {
  std::string out = s;
  for (int e = 0; e < edits && !out.empty(); ++e) {
    size_t pos = rng->NextBounded(out.size());
    switch (rng->NextBounded(4)) {
      case 0:  // delete a byte
        out.erase(pos, 1);
        break;
      case 1:  // duplicate a span
        out.insert(pos, out.substr(pos, rng->NextBounded(8) + 1));
        break;
      case 2:  // flip to a structural byte
        out[pos] = "{}[]|=<>"[rng->NextBounded(8)];
        break;
      case 3:  // flip to a random byte (may break UTF-8)
        out[pos] = static_cast<char>(rng->NextBounded(256));
        break;
    }
  }
  return out;
}

TEST(ParserFuzzTest, NeverFailsOnMutatedWikitext) {
  wiki::WikitextParser parser;
  util::Rng rng(0xF022);
  for (int round = 0; round < 500; ++round) {
    std::string mutated = Mutate(kSeedArticle, &rng, 1 + round % 12);
    auto article = parser.ParseArticle("T", "en", mutated);
    // Parsing must succeed (title and language are valid); content just
    // degrades.
    ASSERT_TRUE(article.ok()) << "round " << round;
    // Everything extracted must be structurally sane.
    if (article->infobox.has_value()) {
      for (const auto& [attr, value] : article->infobox->attributes) {
        EXPECT_FALSE(attr.empty());
        EXPECT_FALSE(value.raw.empty());
      }
    }
  }
}

TEST(ParserFuzzTest, PathologicalNesting) {
  wiki::WikitextParser parser;
  std::string deep = "{{Infobox film\n| a = ";
  for (int i = 0; i < 50; ++i) deep += "{{x|";
  deep += "core";
  for (int i = 0; i < 50; ++i) deep += "}}";
  deep += "\n}}\n";
  auto article = parser.ParseArticle("T", "en", deep);
  ASSERT_TRUE(article.ok());
}

TEST(ParserFuzzTest, HugeFlatValue) {
  wiki::WikitextParser parser;
  std::string big = "{{Infobox film\n| a = " + std::string(200000, 'x') +
                    "\n}}\n";
  auto article = parser.ParseArticle("T", "en", big);
  ASSERT_TRUE(article.ok());
  ASSERT_TRUE(article->infobox.has_value());
}

TEST(DumpFuzzTest, TruncatedXmlNeverCrashes) {
  std::string xml =
      "<mediawiki><page><title>A</title><ns>0</ns><revision>"
      "<text>{{Infobox film}}</text></revision></page></mediawiki>";
  for (size_t cut = 0; cut < xml.size(); cut += 3) {
    auto pages = wiki::ParseDump(xml.substr(0, cut));
    // Either parses a prefix or reports an error; both are acceptable.
    (void)pages;
  }
  SUCCEED();
}

TEST(DumpFuzzTest, MutatedXml) {
  std::string xml =
      "<mediawiki><page><title>A &amp; B</title><ns>0</ns><revision>"
      "<text>body</text></revision></page></mediawiki>";
  util::Rng rng(0xD09);
  for (int round = 0; round < 300; ++round) {
    auto pages = wiki::ParseDump(Mutate(xml, &rng, 1 + round % 8));
    if (pages.ok()) {
      for (const auto& page : *pages) {
        EXPECT_FALSE(page.title.empty());
      }
    }
  }
}

// ------------------------------------------- ParseDump differential oracle

// The search-based ParseDump the page-window scanner replaced, kept as the
// oracle (only the tag strings are assembled differently, which keeps GCC
// 12's -Wrestrict false positive on `"<" + std::string(tag)` away). Its
// searches ran from the page start to the end of the input, so it is
// quadratic in the page count; feed it small dumps.
bool OracleExtractElement(std::string_view s, std::string_view tag,
                          size_t from, size_t limit, std::string* content) {
  const std::string name(tag);
  std::string open1 = "<" + name + ">";
  std::string open2 = "<" + name + " ";
  std::string close = "</" + name + ">";
  size_t open_pos = s.find(open1, from);
  size_t open_len = open1.size();
  size_t alt = s.find(open2, from);
  if (alt != std::string_view::npos &&
      (open_pos == std::string_view::npos || alt < open_pos)) {
    size_t gt = s.find('>', alt);
    if (gt == std::string_view::npos) return false;
    open_pos = alt;
    open_len = gt - alt + 1;
  }
  if (open_pos == std::string_view::npos || open_pos >= limit) return false;
  size_t body_start = open_pos + open_len;
  size_t close_pos = s.find(close, body_start);
  if (close_pos == std::string_view::npos || close_pos > limit) return false;
  *content = wiki::XmlUnescape(s.substr(body_start, close_pos - body_start));
  return true;
}

util::Result<std::vector<wiki::DumpPage>> OracleParseDump(
    std::string_view xml) {
  std::vector<wiki::DumpPage> pages;
  size_t pos = 0;
  while (true) {
    size_t page_open = xml.find("<page>", pos);
    if (page_open == std::string_view::npos) break;
    size_t page_close = xml.find("</page>", page_open);
    if (page_close == std::string_view::npos) {
      return util::Status::ParseError("unterminated <page> element");
    }
    wiki::DumpPage page;
    std::string content;
    if (!OracleExtractElement(xml, "title", page_open, page_close,
                              &content)) {
      return util::Status::ParseError("<page> without <title>");
    }
    page.title = content;
    if (OracleExtractElement(xml, "ns", page_open, page_close, &content)) {
      page.ns = std::atoi(content.c_str());
    }
    page.is_redirect =
        xml.substr(page_open, page_close - page_open).find("<redirect") !=
        std::string_view::npos;
    if (OracleExtractElement(xml, "text", page_open, page_close,
                             &content)) {
      page.text = content;
    }
    pages.push_back(std::move(page));
    pos = page_close + 7;
  }
  return pages;
}

// Asserts ParseDump and the oracle agree on ok versus error, on the error,
// and on every field of every page.
void ExpectSameAsOracle(const std::string& xml, const std::string& label) {
  auto got = wiki::ParseDump(xml);
  auto want = OracleParseDump(xml);
  ASSERT_EQ(got.ok(), want.ok()) << label << "\n" << xml;
  if (!want.ok()) {
    EXPECT_EQ(got.status(), want.status()) << label;
    return;
  }
  ASSERT_EQ(got->size(), want->size()) << label << "\n" << xml;
  for (size_t i = 0; i < want->size(); ++i) {
    const wiki::DumpPage& g = (*got)[i];
    const wiki::DumpPage& w = (*want)[i];
    EXPECT_EQ(g.title, w.title) << label << " page " << i;
    EXPECT_EQ(g.ns, w.ns) << label << " page " << i;
    EXPECT_EQ(g.is_redirect, w.is_redirect) << label << " page " << i;
    EXPECT_EQ(g.text, w.text) << label << " page " << i;
  }
}

// Renders a generated corpus's articles back to dump pages (the shape a
// real pages-articles dump has: escaped wikitext in <text xml:space>).
std::vector<wiki::DumpPage> RenderPages(const wiki::Corpus& corpus,
                                        const std::string& language) {
  std::vector<wiki::DumpPage> pages;
  for (wiki::ArticleId id : corpus.ArticlesInLanguage(language)) {
    const wiki::Article& a = corpus.Get(id);
    std::string text;
    if (a.IsRedirect()) {
      text = "#REDIRECT [[" + a.redirect_to + "]]";
    } else if (a.infobox.has_value()) {
      text += "{{Infobox " + a.infobox->template_type;
      for (const auto& [attr, value] : a.infobox->attributes) {
        text += "\n| " + attr + " = " + value.raw;
      }
      text += "\n}}\n";
    }
    text += "'''" + a.title + "''' <ref>cite & note</ref>\n";
    for (const auto& cat : a.categories) text += "[[category:" + cat + "]]\n";
    for (const auto& [other, title] : a.cross_language_links) {
      text += "[[" + other + ":" + title + "]]\n";
    }
    pages.push_back(wiki::DumpPage{a.title, 0, a.IsRedirect(), text});
  }
  return pages;
}

const synth::GeneratedCorpus& TinyCorpus() {
  static const synth::GeneratedCorpus* corpus = [] {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(7));
    auto g = generator.Generate();
    return new synth::GeneratedCorpus(std::move(g).ValueOrDie());
  }();
  return *corpus;
}

TEST(DumpDifferentialTest, TinyCorpusDumps) {
  for (const std::string lang : {"en", "pt", "vi"}) {
    auto pages = RenderPages(TinyCorpus().corpus, lang);
    ASSERT_FALSE(pages.empty());
    ExpectSameAsOracle(wiki::WriteDump(pages, lang), lang);
  }
}

// A few pages exercising every element form the reader knows.
const char kMultiPageDump[] =
    "<mediawiki xml:lang=\"en\">\n"
    "<page><title>A &amp; B</title><ns>0</ns><revision>"
    "<text xml:space=\"preserve\">{{Infobox film\n| a = &lt;b&gt;\n}}"
    "</text></revision></page>\n"
    "<page><title lang=\"en\">Attr &#231;</title><ns>14</ns><redirect "
    "title=\"A\"/><revision><text>#REDIRECT [[A]]</text></revision>"
    "</page>\n"
    "<page><title>No ns</title><revision><text>body &#x1F600;</text>"
    "</revision></page>\n"
    "<page><ns>1</ns><title>Talk</title><text>t</text></page>\n"
    "</mediawiki>\n";

TEST(DumpDifferentialTest, MutatedMultiPageDumps) {
  util::Rng rng(0xD1FF);
  for (int round = 0; round < 3000; ++round) {
    std::string xml = Mutate(kMultiPageDump, &rng, 1 + round % 16);
    ExpectSameAsOracle(xml, "round " + std::to_string(round));
    if (HasFailure()) return;
  }
}

TEST(DumpDifferentialTest, HandCases) {
  const std::vector<std::string> cases = {
      kMultiPageDump,
      // No <ns>: namespace 0.
      "<page><title>X</title><text>y</text></page>",
      // Attribute-form title and text, close tags with attributes ignored.
      "<page><title a=\"1\">X</title><text xml:space=\"preserve\">y</text>"
      "</page>",
      // Attribute form whose '>' only appears in </page>.
      "<page><title a=\"1\" </page><page><title>Z</title></page>",
      // Unterminated <text> followed by a valid page.
      "<page><title>X</title><text>never closed</page>"
      "<page><title>Y</title><text>ok</text></page>",
      // Missing </page>.
      "<page><title>X</title><text>y</text>",
      "<page><title>X</title></page><page><title>Y</title>",
      // Missing <title>, title only after the page, nested-looking tags.
      "<page><text>y</text></page>",
      "<page></page><title>X</title>",
      "<page><title><title>X</title></title><ns> 12abc</ns></page>",
      "<page><title>X</title><ns>&#50;</ns><text>a</text><text>b</text>"
      "</page>",
      // Close before open, tags at the window edge, a bare '<'.
      "<page></title><title>X</title><</page>",
      "<page><title>X</title><text </page>",
      "<page><title>X</title><redirect</page>",
      "<page><title>X</title><textarea>y</textarea><text>z</text></page>",
      "",
      "<page>",
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    ExpectSameAsOracle(cases[i], "case " + std::to_string(i));
  }
}

// ----------------------------------------------- Dump ingest scaling

// A dump of `n` copies of one realistic page.
std::string RepeatedPageDump(size_t n) {
  const std::string page =
      "  <page>\n    <title>Filme &amp; cia</title>\n    <ns>0</ns>\n"
      "    <revision>\n      <text xml:space=\"preserve\">{{Info filme\n"
      "| direção = [[Bernardo Bertolucci]]\n| elenco = {{ubl|[[John Lone]]"
      "|[[Joan Chen]]}}\n| receita = US$ 44000000\n}}\n'''Filme''' "
      "&lt;ref&gt;x&lt;/ref&gt;\n[[en:Film]]</text>\n    </revision>\n"
      "  </page>\n";
  std::string xml = "<mediawiki xml:lang=\"pt\">\n";
  for (size_t i = 0; i < n; ++i) xml += page;
  return xml + "</mediawiki>\n";
}

// Best-of-three wall time of ParseDump(xml), in seconds.
double ParseSeconds(const std::string& xml, size_t expected_pages) {
  double best = 1e9;
  for (int trial = 0; trial < 3; ++trial) {
    auto start = std::chrono::steady_clock::now();
    auto pages = wiki::ParseDump(xml);
    std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(pages.ok());
    EXPECT_EQ(pages.ok() ? pages->size() : 0, expected_pages);
    best = std::min(best, took.count());
  }
  return best;
}

TEST(DumpScalingTest, ParseDumpIsLinearInPageCount) {
  // 16x the pages: ~16x the time when linear, ~256x when every page
  // searches the rest of the input. 64 leaves room for timer and cache
  // noise on a shared host.
  const std::string small = RepeatedPageDump(1000);
  const std::string large = RepeatedPageDump(16000);
  double t_small = ParseSeconds(small, 1000);
  double t_large = ParseSeconds(large, 16000);
  EXPECT_LT(t_large / t_small, 64.0)
      << "1k pages " << t_small << " s, 16k pages " << t_large << " s";
}

// ----------------------------------------- Dump ingest thread invariance

TEST(DumpIngestTest, ParallelParseIsThreadInvariant) {
  std::vector<wiki::DumpPage> pages = RenderPages(TinyCorpus().corpus, "pt");
  ASSERT_GT(pages.size(), 8u);
  // Every path ParsePages and IngestDump take: skipped namespaces, a
  // parse failure (empty title), a duplicate title, a redirect.
  pages.insert(pages.begin() + 3, wiki::DumpPage{"Talk:X", 1, false, "t"});
  pages.insert(pages.begin() + 5, wiki::DumpPage{"", 0, false, "no title"});
  pages.push_back(pages[1]);
  pages.push_back(wiki::DumpPage{"Alias", 0, true, "#REDIRECT [[X]]"});
  util::ThreadPool pool(4);
  util::ScopedThreadPoolOverride use_pool(&pool);
  wiki::WikitextParser parser;
  std::string encoded[2];
  size_t added[2] = {0, 0};
  size_t parsed[2] = {0, 0};
  const size_t threads[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    parsed[run] = wiki::ParsePages(pages, "pt", parser, threads[run]).size();
    wiki::Corpus corpus;
    auto n = corpus.IngestDump(pages, "pt", parser, threads[run]);
    ASSERT_TRUE(n.ok());
    added[run] = *n;
    corpus.Finalize();
    util::BinaryWriter writer;
    wiki::EncodeCorpus(corpus, &writer);
    encoded[run] = writer.TakeBuffer();
  }
  EXPECT_EQ(parsed[0], pages.size() - 2);  // minus Talk: and the empty title
  EXPECT_EQ(parsed[0], parsed[1]);
  EXPECT_EQ(added[0], parsed[0] - 1);  // minus the duplicate
  EXPECT_EQ(added[0], added[1]);
  EXPECT_EQ(encoded[0], encoded[1]);
}

// ------------------------------------------------------ Aligner properties

class AlignerPropertyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(99));
    auto g = generator.Generate();
    ASSERT_TRUE(g.ok());
    gc_ = new synth::GeneratedCorpus(std::move(g).ValueOrDie());
    pipeline_ = new match::MatchPipeline(&gc_->corpus);
    auto data = pipeline_->BuildPair("pt", "filme", "en", "film");
    ASSERT_TRUE(data.ok());
    data_ = new match::TypePairData(std::move(data).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete data_;
    delete pipeline_;
    delete gc_;
    data_ = nullptr;
    pipeline_ = nullptr;
    gc_ = nullptr;
  }

  static size_t NumMatches(const match::MatcherConfig& config) {
    match::AttributeAligner aligner(config);
    auto result = aligner.Align(*data_);
    EXPECT_TRUE(result.ok());
    return result->matches.CrossLanguagePairs("pt", "en").size();
  }

  static synth::GeneratedCorpus* gc_;
  static match::MatchPipeline* pipeline_;
  static match::TypePairData* data_;
};

synth::GeneratedCorpus* AlignerPropertyTest::gc_ = nullptr;
match::MatchPipeline* AlignerPropertyTest::pipeline_ = nullptr;
match::TypePairData* AlignerPropertyTest::data_ = nullptr;

TEST_F(AlignerPropertyTest, Deterministic) {
  match::MatcherConfig config;
  match::AttributeAligner aligner(config);
  auto a = aligner.Align(*data_);
  auto b = aligner.Align(*data_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->matches.Clusters(), b->matches.Clusters());
  EXPECT_EQ(a->all_pairs.size(), b->all_pairs.size());
}

TEST_F(AlignerPropertyTest, TlsiRaisingShrinksCandidateSet) {
  // Higher TLSI strictly admits fewer queue candidates. The *match* count
  // is only loosely monotone (dropping one early absorption can enable a
  // different merge later), so it gets a slack bound.
  size_t prev_matches = SIZE_MAX;
  for (double t : {0.0, 0.3, 0.6, 0.9, 0.99}) {
    match::MatcherConfig config;
    config.t_lsi = t;
    config.use_revise_uncertain = false;  // isolate queue admission
    size_t n = NumMatches(config);
    EXPECT_LE(n, prev_matches == SIZE_MAX ? SIZE_MAX : prev_matches + 2)
        << "t_lsi " << t;
    prev_matches = n;
  }
  // Strict invariant: admitted candidates shrink with the threshold.
  match::AttributeAligner aligner{match::MatcherConfig{}};
  auto result = aligner.Align(*data_);
  ASSERT_TRUE(result.ok());
  auto admitted = [&](double t) {
    size_t count = 0;
    for (const auto& p : result->all_pairs) {
      if (p.lsi > t) ++count;
    }
    return count;
  };
  EXPECT_GE(admitted(0.1), admitted(0.5));
  EXPECT_GE(admitted(0.5), admitted(0.9));
}

TEST_F(AlignerPropertyTest, ReviseUncertainOnlyAddsMatches) {
  match::MatcherConfig with;
  match::MatcherConfig without = with;
  without.use_revise_uncertain = false;
  match::AttributeAligner a_with(with);
  match::AttributeAligner a_without(without);
  auto r_with = a_with.Align(*data_);
  auto r_without = a_without.Align(*data_);
  ASSERT_TRUE(r_with.ok());
  ASSERT_TRUE(r_without.ok());
  // Every certain match survives revision (revision never removes).
  for (const auto& [a, b] :
       r_without->matches.CrossLanguagePairs("pt", "en")) {
    EXPECT_TRUE(r_with->matches.AreMatched(a, b))
        << a.name << " / " << b.name;
  }
}

TEST_F(AlignerPropertyTest, AllScoresInRange) {
  match::AttributeAligner aligner{match::MatcherConfig{}};
  auto result = aligner.Align(*data_);
  ASSERT_TRUE(result.ok());
  for (const auto& p : result->all_pairs) {
    EXPECT_GE(p.vsim, 0.0);
    EXPECT_LE(p.vsim, 1.0 + 1e-12);
    EXPECT_GE(p.lsim, 0.0);
    EXPECT_LE(p.lsim, 1.0 + 1e-12);
    EXPECT_GE(p.lsi, 0.0);
    EXPECT_LE(p.lsi, 1.0 + 1e-12);
  }
}

TEST_F(AlignerPropertyTest, MatchedAttributesExistInSchema) {
  match::AttributeAligner aligner{match::MatcherConfig{}};
  auto result = aligner.Align(*data_);
  ASSERT_TRUE(result.ok());
  for (const auto& cluster : result->matches.Clusters()) {
    for (const auto& attr : cluster) {
      EXPECT_NE(data_->GroupIndex(attr), SIZE_MAX)
          << attr.language << ":" << attr.name;
    }
  }
}

// Generator determinism across scales (property sweep).
class GeneratorScaleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorScaleTest, PipelineIsDeterministic) {
  synth::GeneratorOptions options = synth::GeneratorOptions::Tiny(GetParam());
  synth::CorpusGenerator g1(options);
  synth::CorpusGenerator g2(options);
  auto c1 = g1.Generate();
  auto c2 = g2.Generate();
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  match::MatchPipeline p1(&c1->corpus);
  match::MatchPipeline p2(&c2->corpus);
  auto r1 = p1.Run("pt", "en");
  auto r2 = p2.Run("pt", "en");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->per_type.size(), r2->per_type.size());
  for (size_t i = 0; i < r1->per_type.size(); ++i) {
    EXPECT_EQ(r1->per_type[i].alignment.matches.Clusters(),
              r2->per_type[i].alignment.matches.Clusters());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorScaleTest,
                         ::testing::Values(1, 17, 42, 2026));

}  // namespace
}  // namespace wikimatch
