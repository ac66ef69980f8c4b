// Unit and property tests for the text substrate: normalization across the
// Portuguese/Vietnamese repertoire, tokenization, and the string-similarity
// library used by the COMA++-style baseline.

#include <gtest/gtest.h>

#include "text/normalize.h"
#include "text/string_similarity.h"
#include "text/tokenizer.h"

namespace wikimatch {
namespace text {
namespace {

// ------------------------------------------------------------ Normalization

TEST(NormalizeTest, AsciiLower) {
  EXPECT_EQ(ToLower("DiReCTeD By"), "directed by");
}

TEST(NormalizeTest, PortugueseLower) {
  EXPECT_EQ(ToLower("DIREÇÃO"), "direção");
  EXPECT_EQ(ToLower("Gênero"), "gênero");
  EXPECT_EQ(ToLower("CÔNJUGE"), "cônjuge");
}

TEST(NormalizeTest, VietnameseLowerIsStable) {
  // Vietnamese seed forms are already lowercase; they must pass through.
  EXPECT_EQ(ToLower("đạo diễn"), "đạo diễn");
  EXPECT_EQ(ToLower("thể loại"), "thể loại");
}

TEST(NormalizeTest, FoldDiacriticsPortuguese) {
  EXPECT_EQ(FoldDiacritics("direção"), "direcao");
  EXPECT_EQ(FoldDiacritics("gênero"), "genero");
  EXPECT_EQ(FoldDiacritics("prêmios"), "premios");
  EXPECT_EQ(FoldDiacritics("João"), "joao");
}

TEST(NormalizeTest, FoldDiacriticsVietnamese) {
  EXPECT_EQ(FoldDiacritics("đạo diễn"), "dao dien");
  EXPECT_EQ(FoldDiacritics("ngôn ngữ"), "ngon ngu");
  EXPECT_EQ(FoldDiacritics("thể loại"), "the loai");
  EXPECT_EQ(FoldDiacritics("kịch bản"), "kich ban");
  EXPECT_EQ(FoldDiacritics("giải thưởng"), "giai thuong");
}

TEST(NormalizeTest, AttributeNameNormalization) {
  EXPECT_EQ(NormalizeAttributeName("  Directed_By "), "directed by");
  EXPECT_EQ(NormalizeAttributeName("release-date"), "release date");
  EXPECT_EQ(NormalizeAttributeName("Elenco   Original"), "elenco original");
  // Diacritics are preserved in attribute names.
  EXPECT_EQ(NormalizeAttributeName("Direção"), "direção");
}

TEST(NormalizeTest, TitleNormalization) {
  EXPECT_EQ(NormalizeTitle("The_Last_Emperor"), "the last emperor");
  EXPECT_EQ(NormalizeTitle("  O Último  Imperador "), "o último imperador");
}

TEST(NormalizeTest, ValueNormalization) {
  EXPECT_EQ(NormalizeValue("160  Minutes"), "160 minutes");
}

// -------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, SplitsOnPunctuationAndSpace) {
  auto tokens = Tokenize("Bernardo Bertolucci, Italy (1987)");
  EXPECT_EQ(tokens, (std::vector<std::string>{"bernardo", "bertolucci",
                                              "italy", "1987"}));
}

TEST(TokenizerTest, NumbersAndWordsSeparate) {
  auto tokens = Tokenize("160minutes");
  EXPECT_EQ(tokens, (std::vector<std::string>{"160", "minutes"}));
}

TEST(TokenizerTest, KeepNumbersOff) {
  TokenizerOptions opts;
  opts.keep_numbers = false;
  auto tokens = Tokenize("june 4 1975", opts);
  EXPECT_EQ(tokens, (std::vector<std::string>{"june"}));
}

TEST(TokenizerTest, UnicodeWords) {
  auto tokens = Tokenize("đạo diễn: João");
  EXPECT_EQ(tokens, (std::vector<std::string>{"đạo", "diễn", "joão"}));
}

TEST(TokenizerTest, FoldDiacriticsOption) {
  TokenizerOptions opts;
  opts.fold_diacritics = true;
  auto tokens = Tokenize("direção", opts);
  EXPECT_EQ(tokens, (std::vector<std::string>{"direcao"}));
}

TEST(TokenizerTest, MinTokenLength) {
  TokenizerOptions opts;
  opts.min_token_length = 3;
  auto tokens = Tokenize("a bb ccc dddd", opts);
  EXPECT_EQ(tokens, (std::vector<std::string>{"ccc", "dddd"}));
}

TEST(TokenizerTest, EmptyInput) { EXPECT_TRUE(Tokenize("").empty()); }

TEST(CharNgramsTest, Basics) {
  auto grams = CharNgrams("abcd", 3);
  EXPECT_EQ(grams, (std::vector<std::string>{"abc", "bcd"}));
}

TEST(CharNgramsTest, ShortStringYieldsWhole) {
  auto grams = CharNgrams("ab", 3);
  EXPECT_EQ(grams, (std::vector<std::string>{"ab"}));
}

TEST(CharNgramsTest, UnicodeGranularity) {
  auto grams = CharNgrams("ção", 2);
  EXPECT_EQ(grams, (std::vector<std::string>{"çã", "ão"}));
}

// ------------------------------------------------------ String similarity

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0u);
}

TEST(LevenshteinTest, UnicodeCountsCodePoints) {
  // editora vs editor: one trailing code point.
  EXPECT_EQ(LevenshteinDistance("editora", "editor"), 1u);
  EXPECT_EQ(LevenshteinDistance("direção", "direcao"), 2u);
}

TEST(LevenshteinTest, SimilarityNormalized) {
  EXPECT_NEAR(LevenshteinSimilarity("editora", "editor"), 1.0 - 1.0 / 7.0,
              1e-9);
  EXPECT_EQ(LevenshteinSimilarity("", ""), 1.0);
}

TEST(JaroTest, KnownValues) {
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.766667, 1e-5);
  EXPECT_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jw = JaroWinklerSimilarity("martha", "marhta");
  EXPECT_NEAR(jw, 0.961111, 1e-5);
  EXPECT_GT(jw, JaroSimilarity("martha", "marhta"));
}

TEST(NgramTest, DiceAndJaccard) {
  EXPECT_NEAR(NgramDice("night", "nacht", 2), 0.25, 1e-9);
  EXPECT_EQ(NgramDice("same", "same", 3), 1.0);
  EXPECT_EQ(NgramJaccard("abc", "abc", 2), 1.0);
  EXPECT_EQ(NgramJaccard("abc", "xyz", 2), 0.0);
}

TEST(NgramTest, FalseCognateScoresHigh) {
  // The paper's warning: editora (publisher) vs editor are string-similar
  // but semantically different — syntactic measures cannot tell.
  EXPECT_GT(TrigramSimilarity("editora", "editor"), 0.7);
}

TEST(LcsTest, KnownValues) {
  EXPECT_EQ(LongestCommonSubstring("starring", "elenco"), 1u);
  EXPECT_EQ(LongestCommonSubstring("abcdef", "zabcy"), 3u);
  EXPECT_EQ(LongestCommonSubstring("", "x"), 0u);
  EXPECT_NEAR(LcsSimilarity("abcdef", "zabcy"), 3.0 / 5.0, 1e-9);
}

TEST(MongeElkanTest, TokenLevelMatchingBeatsWholeString) {
  // Word order and function words barely matter.
  double me = MongeElkanSimilarity("data de nascimento", "nascimento data");
  EXPECT_GT(me, 0.9);
  EXPECT_GT(me, TrigramSimilarity("data de nascimento", "nascimento data"));
}

TEST(MongeElkanTest, BoundsAndEdges) {
  EXPECT_EQ(MongeElkanSimilarity("", ""), 1.0);
  EXPECT_EQ(MongeElkanSimilarity("x", ""), 0.0);
  EXPECT_NEAR(MongeElkanSimilarity("directed by", "directed by"), 1.0,
              1e-12);
  double v = MongeElkanSimilarity("elenco original", "starring actor");
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1.0);
}

TEST(MongeElkanTest, Symmetric) {
  double ab = MongeElkanSimilarity("release date", "data de lançamento");
  double ba = MongeElkanSimilarity("data de lançamento", "release date");
  EXPECT_NEAR(ab, ba, 1e-12);
}

TEST(PrefixTest, CommonPrefixLength) {
  EXPECT_EQ(CommonPrefixLength("director", "direção"), 4u);
  EXPECT_EQ(CommonPrefixLength("abc", "abc"), 3u);
  EXPECT_EQ(CommonPrefixLength("", "x"), 0u);
}

// Property sweep: every similarity is symmetric, in [0,1], and 1 on
// identical strings. Each case prints as its measure's name, not as a
// function address, so the test names do not change from run to run.
using SimilarityFn = double (*)(std::string_view, std::string_view);
struct NamedSimilarity {
  const char* name;
  SimilarityFn fn;
};
void PrintTo(const NamedSimilarity& measure, std::ostream* os) {
  *os << measure.name;
}
class SimilarityPropertyTest
    : public ::testing::TestWithParam<NamedSimilarity> {};

TEST_P(SimilarityPropertyTest, SymmetricBoundedReflexive) {
  SimilarityFn fn = GetParam().fn;
  const std::vector<std::string> samples = {
      "starring", "elenco original", "直", "đạo diễn", "direção", "a",
      "editora", "editor", "release date", ""};
  for (const auto& a : samples) {
    for (const auto& b : samples) {
      double ab = fn(a, b);
      double ba = fn(b, a);
      EXPECT_NEAR(ab, ba, 1e-12) << a << " / " << b;
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
    }
    if (!a.empty()) {
      EXPECT_NEAR(fn(a, a), 1.0, 1e-12) << a;
    }
  }
}

double TrigramWrap(std::string_view a, std::string_view b) {
  return TrigramSimilarity(a, b);
}
double BigramJaccardWrap(std::string_view a, std::string_view b) {
  return NgramJaccard(a, b, 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, SimilarityPropertyTest,
    ::testing::Values(NamedSimilarity{"Levenshtein", &LevenshteinSimilarity},
                      NamedSimilarity{"Jaro", &JaroSimilarity},
                      NamedSimilarity{"JaroWinkler", &JaroWinklerSimilarity},
                      NamedSimilarity{"Trigram", &TrigramWrap},
                      NamedSimilarity{"BigramJaccard", &BigramJaccardWrap}));

}  // namespace
}  // namespace text
}  // namespace wikimatch
