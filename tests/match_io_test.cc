// Tests for match/dictionary serialization.

#include <gtest/gtest.h>

#include <cstdio>

#include "match/match_io.h"

namespace wikimatch {
namespace match {
namespace {

eval::AttrKey A(const std::string& lang, const std::string& name) {
  return eval::AttrKey{lang, name};
}

TEST(MatchIoTest, MatchSetsRoundTrip) {
  TypeMatchSets original;
  original["film"].AddCluster(
      {A("en", "directed by"), A("pt", "direção")});
  original["film"].AddCluster(
      {A("en", "born"), A("pt", "nascimento"),
       A("pt", "data de nascimento")});
  original["actor"].AddPair(A("en", "spouse"), A("pt", "cônjuge"));

  auto loaded = ReadMatchSets(WriteMatchSets(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_TRUE(loaded->at("film").AreMatched(A("en", "directed by"),
                                            A("pt", "direção")));
  EXPECT_TRUE(loaded->at("film").AreMatched(A("pt", "nascimento"),
                                            A("pt", "data de nascimento")));
  EXPECT_FALSE(loaded->at("film").AreMatched(A("en", "directed by"),
                                             A("en", "born")));
  EXPECT_TRUE(loaded->at("actor").AreMatched(A("en", "spouse"),
                                             A("pt", "cônjuge")));
}

TEST(MatchIoTest, EmptyAndComments) {
  auto loaded = ReadMatchSets("# only a comment\n\n");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST(MatchIoTest, MalformedRowIsError) {
  auto loaded = ReadMatchSets("film\ten\tonly three fields\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 1"), std::string::npos);
}

TEST(MatchIoTest, FileRoundTrip) {
  TypeMatchSets original;
  original["film"].AddPair(A("en", "genre"), A("vi", "thể loại"));
  std::string path = ::testing::TempDir() + "/matches.tsv";
  ASSERT_TRUE(SaveMatchSets(original, path).ok());
  auto loaded = LoadMatchSets(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->at("film").AreMatched(A("en", "genre"),
                                            A("vi", "thể loại")));
  std::remove(path.c_str());
  EXPECT_FALSE(LoadMatchSets(path).ok());
}

TEST(MatchIoTest, DirectoryIsAnIoError) {
  // A directory opens but cannot be read; it must fail cleanly, not size
  // a buffer from a bogus seek offset.
  auto loaded = LoadMatchSets(::testing::TempDir());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError);
}

TEST(MatchIoTest, DictionaryRoundTrip) {
  TranslationDictionary original;
  original.Add("pt", "o último imperador", "en", "the last emperor");
  original.Add("vi", "hoàng đế cuối cùng", "en", "the last emperor");
  auto loaded = ReadDictionary(WriteDictionary(original));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(
      loaded->TranslateOrKeep("pt", "o último imperador", "en"),
      "the last emperor");
}

TEST(MatchIoTest, DictionaryMalformedRow) {
  EXPECT_FALSE(ReadDictionary("pt\tonly\ttwo\n").ok());
}

}  // namespace
}  // namespace match
}  // namespace wikimatch
