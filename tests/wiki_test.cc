// Unit tests for the wiki substrate: wikitext/infobox parsing (including
// the tricky nesting cases), the XML dump reader, and the Corpus store.

#include <gtest/gtest.h>

#include "wiki/corpus.h"
#include "wiki/dump_reader.h"
#include "wiki/wikitext_parser.h"

namespace wikimatch {
namespace wiki {
namespace {

// ----------------------------------------------------------------- Parser

const char kFilmArticle[] = R"(
{{Infobox film
| name = The Last Emperor
| directed by = [[Bernardo Bertolucci]]
| starring = {{ubl|[[John Lone]]|[[Joan Chen]]|[[Peter O'Toole|O'Toole]]}}
| music by = [[Ryuichi Sakamoto]], [[David Byrne]]
| release date = [[november 18]] 1987
| running time = 160 minutes <!-- theatrical -->
| country = [[Italy]], [[United Kingdom|UK]]
| budget = US$ 23000000<ref>Box Office Mojo</ref>
| language = english
}}

'''The Last Emperor''' is a 1987 film.<ref name="a">Some citation</ref>

[[category:1987 films]]
[[Category:Films directed by Bernardo Bertolucci]]
[[pt:O Último Imperador]]
[[vi:Hoàng đế cuối cùng]]
)";

class ParserTest : public ::testing::Test {
 protected:
  WikitextParser parser_;

  Article Parse(const std::string& text, const std::string& title = "Test",
                const std::string& lang = "en") {
    auto result = parser_.ParseArticle(title, lang, text);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).ValueOrDie();
  }
};

TEST_F(ParserTest, ExtractsInfoboxType) {
  Article a = Parse(kFilmArticle, "The Last Emperor");
  ASSERT_TRUE(a.infobox.has_value());
  EXPECT_EQ(a.infobox->template_type, "film");
  EXPECT_EQ(a.infobox->template_name, "infobox film");
}

TEST_F(ParserTest, ExtractsAttributeValuePairs) {
  Article a = Parse(kFilmArticle);
  const Infobox& box = a.infobox.value();
  EXPECT_EQ(box.attributes.size(), 9u);
  const AttributeValue* director = box.Find("directed by");
  ASSERT_NE(director, nullptr);
  EXPECT_EQ(director->text, "Bernardo Bertolucci");
  ASSERT_EQ(director->links.size(), 1u);
  EXPECT_EQ(director->links[0].target, "bernardo bertolucci");
}

TEST_F(ParserTest, FlattensNestedTemplates) {
  Article a = Parse(kFilmArticle);
  const AttributeValue* starring = a.infobox->Find("starring");
  ASSERT_NE(starring, nullptr);
  ASSERT_EQ(starring->links.size(), 3u);
  EXPECT_EQ(starring->links[2].target, "peter o'toole");
  EXPECT_EQ(starring->links[2].anchor, "O'Toole");
  EXPECT_NE(starring->text.find("John Lone"), std::string::npos);
}

TEST_F(ParserTest, PipedLinkAnchors) {
  Article a = Parse(kFilmArticle);
  const AttributeValue* country = a.infobox->Find("country");
  ASSERT_NE(country, nullptr);
  ASSERT_EQ(country->links.size(), 2u);
  EXPECT_EQ(country->links[1].target, "united kingdom");
  EXPECT_EQ(country->links[1].anchor, "UK");
  EXPECT_EQ(country->text, "Italy, UK");
}

TEST_F(ParserTest, StripsCommentsAndRefs) {
  Article a = Parse(kFilmArticle);
  const AttributeValue* runtime = a.infobox->Find("running time");
  ASSERT_NE(runtime, nullptr);
  EXPECT_EQ(runtime->text, "160 minutes");
  const AttributeValue* budget = a.infobox->Find("budget");
  ASSERT_NE(budget, nullptr);
  EXPECT_EQ(budget->text, "US$ 23000000");
}

TEST_F(ParserTest, CollectsCategories) {
  Article a = Parse(kFilmArticle);
  ASSERT_EQ(a.categories.size(), 2u);
  EXPECT_EQ(a.categories[0], "1987 films");
}

TEST_F(ParserTest, CollectsCrossLanguageLinks) {
  Article a = Parse(kFilmArticle);
  ASSERT_EQ(a.cross_language_links.size(), 2u);
  EXPECT_EQ(a.cross_language_links.at("pt"), "o último imperador");
  EXPECT_EQ(a.cross_language_links.at("vi"), "hoàng đế cuối cùng");
}

TEST_F(ParserTest, PortugueseInfoTemplate) {
  Article a = Parse(
      "{{Info filme\n| direção = [[Bernardo Bertolucci]]\n"
      "| gênero = [[drama]]\n}}\n[[en:The Last Emperor]]\n",
      "O Último Imperador", "pt");
  ASSERT_TRUE(a.infobox.has_value());
  EXPECT_EQ(a.infobox->template_type, "filme");
  EXPECT_NE(a.infobox->Find("direção"), nullptr);
  EXPECT_NE(a.infobox->Find("gênero"), nullptr);
}

TEST_F(ParserTest, VietnameseInfoboxTemplate) {
  Article a = Parse(
      "{{Hộp thông tin phim\n| đạo diễn = [[Trần Anh Hùng]]\n}}\n",
      "Mùi đu đủ xanh", "vi");
  ASSERT_TRUE(a.infobox.has_value());
  EXPECT_EQ(a.infobox->template_type, "phim");
  EXPECT_NE(a.infobox->Find("đạo diễn"), nullptr);
}

TEST_F(ParserTest, SkipsNonInfoboxTemplates) {
  Article a = Parse(
      "{{Other template|x=1}}\n{{Infobox book\n| author = [[X Y]]\n}}\n");
  ASSERT_TRUE(a.infobox.has_value());
  EXPECT_EQ(a.infobox->template_type, "book");
}

TEST_F(ParserTest, NoInfobox) {
  Article a = Parse("Just '''prose''' and a [[link]].\n");
  EXPECT_FALSE(a.infobox.has_value());
}

TEST_F(ParserTest, EmptyValuedAttributesDropped) {
  Article a = Parse("{{Infobox film\n| name = X\n| budget = \n}}\n");
  ASSERT_TRUE(a.infobox.has_value());
  EXPECT_EQ(a.infobox->attributes.size(), 1u);
}

TEST_F(ParserTest, UnbalancedBracesDegradeGracefully) {
  Article a = Parse("{{Infobox film\n| name = X\n");  // Never closed.
  EXPECT_FALSE(a.infobox.has_value());
}

TEST_F(ParserTest, PipeInsideLinkIsNotASeparator) {
  Article a = Parse(
      "{{Infobox film\n| starring = [[A|The A]] and [[B|The B]]\n}}\n");
  ASSERT_TRUE(a.infobox.has_value());
  ASSERT_EQ(a.infobox->attributes.size(), 1u);
  EXPECT_EQ(a.infobox->Find("starring")->links.size(), 2u);
}

TEST_F(ParserTest, RejectsEmptyTitleOrLanguage) {
  EXPECT_FALSE(parser_.ParseArticle("", "en", "x").ok());
  EXPECT_FALSE(parser_.ParseArticle("T", "", "x").ok());
}

TEST_F(ParserTest, SchemaDeduplicatesAttributes) {
  Article a = Parse(
      "{{Infobox film\n| name = A\n| name = B\n| budget = 1\n}}\n");
  EXPECT_EQ(a.infobox->Schema(),
            (std::vector<std::string>{"name", "budget"}));
}

TEST(StripTest, Comments) {
  EXPECT_EQ(WikitextParser::StripComments("a<!-- x -->b"), "ab");
  EXPECT_EQ(WikitextParser::StripComments("a<!-- unterminated"), "a");
  EXPECT_EQ(WikitextParser::StripComments("plain"), "plain");
}

TEST(StripTest, Refs) {
  EXPECT_EQ(WikitextParser::StripRefs("a<ref>x</ref>b"), "ab");
  EXPECT_EQ(WikitextParser::StripRefs("a<ref name=\"n\"/>b"), "ab");
  EXPECT_EQ(WikitextParser::StripRefs("a<ref name=n>x</ref>b"), "ab");
}

TEST(FindTemplateTest, NestingAware) {
  std::string s = "x {{a {{b}} c}} y {{d}}";
  size_t begin = 0;
  size_t end = 0;
  ASSERT_TRUE(FindTemplate(s, 0, &begin, &end));
  EXPECT_EQ(s.substr(begin, end - begin), "{{a {{b}} c}}");
  ASSERT_TRUE(FindTemplate(s, end, &begin, &end));
  EXPECT_EQ(s.substr(begin, end - begin), "{{d}}");
  EXPECT_FALSE(FindTemplate(s, end, &begin, &end));
}

// ------------------------------------------------------------- DumpReader

TEST(XmlEscapeTest, RoundTrip) {
  std::string nasty = "a <b> & \"c\" 'd' ção";
  EXPECT_EQ(XmlUnescape(XmlEscape(nasty)), nasty);
}

TEST(XmlUnescapeTest, NumericEntities) {
  EXPECT_EQ(XmlUnescape("&#65;&#x42;"), "AB");
  EXPECT_EQ(XmlUnescape("&#231;"), "ç");
  EXPECT_EQ(XmlUnescape("&unknown;"), "&unknown;");
}

TEST(XmlUnescapeTest, SurrogateReferencesAreDropped) {
  // U+D800-U+DFFF have no UTF-8 encoding; like references past U+10FFFF
  // they are dropped rather than emitted as invalid bytes (ED A0 80).
  EXPECT_EQ(XmlUnescape("&#xD800;"), "");
  EXPECT_EQ(XmlUnescape("a&#xDFFF;b&#55296;c&#x110000;d"), "abcd");
  // The neighbours of the surrogate block still encode.
  EXPECT_EQ(XmlUnescape("&#xD7FF;&#xE000;"), "\xED\x9F\xBF\xEE\x80\x80");
  auto pages = ParseDump(
      "<page><title>T&#xDBFF;&#xDC00;</title><revision><text>x&#xD83D;"
      "</text></revision></page>");
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ((*pages)[0].title, "T");
  EXPECT_EQ((*pages)[0].text, "x");
}

TEST(DumpReaderTest, ParsesPages) {
  std::string xml =
      "<mediawiki><page><title>A &amp; B</title><ns>0</ns>"
      "<revision><text xml:space=\"preserve\">{{Infobox film}}</text>"
      "</revision></page>"
      "<page><title>Redirect</title><ns>0</ns><redirect/>"
      "<revision><text>#REDIRECT [[A]]</text></revision></page>"
      "</mediawiki>";
  auto pages = ParseDump(xml);
  ASSERT_TRUE(pages.ok());
  ASSERT_EQ(pages->size(), 2u);
  EXPECT_EQ((*pages)[0].title, "A & B");
  EXPECT_EQ((*pages)[0].text, "{{Infobox film}}");
  EXPECT_FALSE((*pages)[0].is_redirect);
  EXPECT_TRUE((*pages)[1].is_redirect);
}

TEST(DumpReaderTest, WriteThenParseRoundTrip) {
  std::vector<DumpPage> pages = {
      {"Página <especial>", 0, false, "{{Info filme\n| direção = [[X]]\n}}"},
      {"Other", 0, true, "#REDIRECT [[Página]]"},
  };
  auto parsed = ParseDump(WriteDump(pages, "pt"));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].title, pages[0].title);
  EXPECT_EQ((*parsed)[0].text, pages[0].text);
  EXPECT_TRUE((*parsed)[1].is_redirect);
}

TEST(DumpReaderTest, ErrorsOnUnterminatedPage) {
  EXPECT_FALSE(ParseDump("<page><title>X</title>").ok());
  EXPECT_FALSE(ParseDump("<page>no title</page>").ok());
}

TEST(DumpReaderTest, MissingFile) {
  EXPECT_FALSE(ReadDumpFile("/nonexistent/path.xml").ok());
}

TEST(DumpReaderTest, DirectoryIsAnIoError) {
  auto pages = ReadDumpFile(::testing::TempDir());
  ASSERT_FALSE(pages.ok());
  EXPECT_EQ(pages.status().code(), util::StatusCode::kIoError);
}

// ----------------------------------------------------------------- Corpus

class CorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WikitextParser parser;
    auto add = [&](const std::string& title, const std::string& lang,
                   const std::string& text) {
      auto article = parser.ParseArticle(title, lang, text);
      ASSERT_TRUE(article.ok());
      auto id = corpus_.AddArticle(std::move(article).ValueOrDie());
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    };
    add("Film One", "en",
        "{{Infobox film\n| directed by = [[Person A]]\n}}\n"
        "[[pt:Filme Um]]\n");
    // The pt article has no backlink: Finalize must symmetrize.
    add("Filme Um", "pt", "{{Info filme\n| direção = [[Pessoa A]]\n}}\n");
    add("Person A", "en", "'''Person A'''\n[[pt:Pessoa A]]\n");
    add("Pessoa A", "pt", "'''Pessoa A'''\n[[en:Person A]]\n");
    corpus_.Finalize();
  }

  Corpus corpus_;
};

TEST_F(CorpusTest, Indexes) {
  EXPECT_EQ(corpus_.size(), 4u);
  EXPECT_EQ(corpus_.ArticlesInLanguage("en").size(), 2u);
  EXPECT_EQ(corpus_.InfoboxCount("en"), 1u);
  EXPECT_EQ(corpus_.Languages(), (std::vector<std::string>{"en", "pt"}));
  EXPECT_EQ(corpus_.TypesIn("pt"), (std::vector<std::string>{"filme"}));
  EXPECT_EQ(corpus_.ArticlesOfType("en", "film").size(), 1u);
}

TEST_F(CorpusTest, TitleLookup) {
  EXPECT_NE(corpus_.FindByTitle("en", "film one"), kInvalidArticle);
  EXPECT_EQ(corpus_.FindByTitle("en", "missing"), kInvalidArticle);
}

TEST_F(CorpusTest, SymmetrizesCrossLanguageLinks) {
  ArticleId pt = corpus_.FindByTitle("pt", "filme um");
  ASSERT_NE(pt, kInvalidArticle);
  // The pt article did not declare the link; Finalize added it.
  ArticleId en = corpus_.CrossLanguageTarget(pt, "en");
  ASSERT_NE(en, kInvalidArticle);
  EXPECT_EQ(corpus_.Get(en).title, "film one");
  EXPECT_TRUE(corpus_.SameEntity(pt, en));
  EXPECT_TRUE(corpus_.SameEntity(en, pt));
}

TEST_F(CorpusTest, SameEntityNegativeCases) {
  ArticleId film = corpus_.FindByTitle("en", "film one");
  ArticleId person = corpus_.FindByTitle("en", "person a");
  EXPECT_FALSE(corpus_.SameEntity(film, person));
  ArticleId pessoa = corpus_.FindByTitle("pt", "pessoa a");
  EXPECT_FALSE(corpus_.SameEntity(film, pessoa));
}

TEST_F(CorpusTest, DuplicateAdditionFails) {
  Article dup;
  dup.title = "film one";
  dup.language = "en";
  EXPECT_EQ(corpus_.AddArticle(dup).status().code(),
            util::StatusCode::kAlreadyExists);
}

TEST(CorpusIngestTest, IngestDumpKeepsRedirectsSkipsOtherNamespaces) {
  std::vector<DumpPage> pages = {
      {"Good", 0, false, "{{Infobox film\n| name = g\n}}"},
      {"Redirected", 0, true, "#REDIRECT [[Good]]"},
      {"Talk:Good", 1, false, "discussion"},
  };
  Corpus corpus;
  WikitextParser parser;
  auto added = corpus.IngestDump(pages, "en", parser);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 2u);  // Redirect pages are kept; Talk: is skipped.
  corpus.Finalize();
  // The redirect resolves to the real article...
  ArticleId via_redirect = corpus.FindByTitle("en", "redirected");
  ASSERT_NE(via_redirect, kInvalidArticle);
  EXPECT_EQ(corpus.Get(via_redirect).title, "good");
  // ...but FindExactTitle sees the redirect page itself.
  ArticleId exact = corpus.FindExactTitle("en", "redirected");
  ASSERT_NE(exact, kInvalidArticle);
  EXPECT_TRUE(corpus.Get(exact).IsRedirect());
  EXPECT_EQ(corpus.Get(exact).redirect_to, "good");
}

TEST(CorpusRedirectTest, CyclesTerminate) {
  Corpus corpus;
  WikitextParser parser;
  auto a = parser.ParseArticle("A", "en", "#REDIRECT [[B]]");
  auto b = parser.ParseArticle("B", "en", "#REDIRECT [[A]]");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(corpus.AddArticle(std::move(a).ValueOrDie()).ok());
  ASSERT_TRUE(corpus.AddArticle(std::move(b).ValueOrDie()).ok());
  corpus.Finalize();
  EXPECT_EQ(corpus.FindByTitle("en", "a"), kInvalidArticle);
}

TEST(ParserRedirectTest, ParsesRedirectTarget) {
  WikitextParser parser;
  auto article =
      parser.ParseArticle("USA", "en", "  #redirect [[United States|US]]\n");
  ASSERT_TRUE(article.ok());
  EXPECT_TRUE(article->IsRedirect());
  EXPECT_EQ(article->redirect_to, "united states");
  EXPECT_FALSE(article->infobox.has_value());
}

}  // namespace
}  // namespace wiki
}  // namespace wikimatch
