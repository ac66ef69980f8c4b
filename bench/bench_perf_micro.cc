// Performance micro-benchmarks (not in the paper): throughput of the
// substrates — SVD, dump and wikitext parsing, similarity computation, and
// the end-to-end aligner — via google-benchmark.

#include <benchmark/benchmark.h>

#include "la/svd.h"
#include "match/aligner.h"
#include "match/pipeline.h"
#include "synth/generator.h"
#include "text/string_similarity.h"
#include "util/rng.h"
#include "wiki/dump_reader.h"
#include "wiki/wikitext_parser.h"

using namespace wikimatch;

namespace {

// Shared tiny corpus for the aligner benchmarks.
const synth::GeneratedCorpus& SharedCorpus() {
  static const synth::GeneratedCorpus* corpus = [] {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(99));
    auto g = generator.Generate();
    return new synth::GeneratedCorpus(std::move(g).ValueOrDie());
  }();
  return *corpus;
}

void BM_SvdTruncated(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = rows * 8;
  util::Rng rng(7);
  la::Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      m(i, j) = rng.NextBool(0.3) ? 1.0 : 0.0;
    }
  }
  for (auto _ : state) {
    auto svd = la::ComputeTruncatedSvd(m, rows / 3);
    benchmark::DoNotOptimize(svd);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows * cols));
}
BENCHMARK(BM_SvdTruncated)->Arg(16)->Arg(32)->Arg(64);

void BM_WikitextParse(benchmark::State& state) {
  const std::string source =
      "{{Infobox film\n| directed by = [[Bernardo Bertolucci]]\n"
      "| starring = {{ubl|[[John Lone]]|[[Joan Chen]]|[[Peter O'Toole]]}}\n"
      "| release date = november 18 1987\n| running time = 160 minutes\n"
      "| country = [[Italy]]\n| budget = US$ 23000000\n}}\n"
      "'''The Last Emperor''' is a film.<ref>citation</ref>\n"
      "[[category:film]]\n[[pt:O Último Imperador]]\n";
  wiki::WikitextParser parser;
  for (auto _ : state) {
    auto article = parser.ParseArticle("The Last Emperor", "en", source);
    benchmark::DoNotOptimize(article);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.size()));
}
BENCHMARK(BM_WikitextParse);

// Dump XML parsing over a growing number of pages. ->Complexity() prints
// the fitted order; with each page scanned only within its own
// <page>...</page> window, bytes_per_second stays flat across sizes.
void BM_ParseDump(benchmark::State& state) {
  const std::string page =
      "  <page>\n    <title>Filme &amp; cia</title>\n    <ns>0</ns>\n"
      "    <revision>\n      <text xml:space=\"preserve\">{{Info filme\n"
      "| direção = [[Bernardo Bertolucci]]\n| receita = US$ 44000000\n}}\n"
      "'''Filme''' &lt;ref&gt;x&lt;/ref&gt;\n[[en:Film]]</text>\n"
      "    </revision>\n  </page>\n";
  std::string xml = "<mediawiki xml:lang=\"pt\">\n";
  for (int64_t i = 0; i < state.range(0); ++i) xml += page;
  xml += "</mediawiki>\n";
  for (auto _ : state) {
    auto pages = wiki::ParseDump(xml);
    benchmark::DoNotOptimize(pages);
  }
  state.SetComplexityN(state.range(0));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_ParseDump)->RangeMultiplier(4)->Range(256, 16384)->Complexity();

void BM_StringSimilarity(benchmark::State& state) {
  const std::string a = "elenco original";
  const std::string b = "original cast listing";
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::LevenshteinSimilarity(a, b));
    benchmark::DoNotOptimize(text::JaroWinklerSimilarity(a, b));
    benchmark::DoNotOptimize(text::TrigramSimilarity(a, b));
  }
}
BENCHMARK(BM_StringSimilarity);

void BM_EndToEndAlign(benchmark::State& state) {
  const auto& gc = SharedCorpus();
  match::MatchPipeline pipeline(&gc.corpus);
  auto data = pipeline.BuildPair("pt", "filme", "en", "film");
  if (!data.ok()) {
    state.SkipWithError("no pair data");
    return;
  }
  match::AttributeAligner aligner{match::MatcherConfig{}};
  for (auto _ : state) {
    auto result = aligner.Align(*data);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EndToEndAlign);

void BM_CorpusGeneration(benchmark::State& state) {
  for (auto _ : state) {
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(11));
    auto g = generator.Generate();
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_CorpusGeneration);

}  // namespace

BENCHMARK_MAIN();
