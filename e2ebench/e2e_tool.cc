// e2e_tool: the compiled half of the end-to-end benchmark (run.py is the
// other half). Subcommands:
//
//   gen-dumps   --corpus-seed C --seed S --scale X --out DIR
//       synthetic corpus -> DIR/{en,pt,vi}wiki.xml, page order from S
//   gen-serve   --corpus-seed C --seed S --scale X --out DIR --threads T
//               --requests N [--deltas K]
//       serving snapshot DIR/serve.snap (pipelines + sync report), the
//       request mix DIR/requests.txt, its cache warm-up DIR/warm.txt and
//       K delta batches under DIR; requests and deltas are drawn from S
//   check-build --snapshot P --corpus-seed C --scale X
//       weighted F against ground truth + digest of clusters and order
//   check-probe --snapshot P --probe LINE --answers F1,F2..
//       how many of the files hold exactly the in-process answer to LINE
//   loadgen     --port N --requests FILE --rates R1,R2.. --step-s D
//               [--offset K] [--conns C] [--verify P1,P2..]
//               [--stop-on-eof] [--spin] [--closed] [--probe LINE]
//               [--record FILE]
//       open- or closed-loop TCP load (loadgen.h)
//   trace-build   --dir DIR --out P --threads T --trace-out F
//   trace-serve   --snapshot P --warm FILE --requests FILE --count N
//                 --trace-out F
//   trace-refresh --snapshot P --deltas DIR --count K --threads T
//                 --work DIR --trace-out F
//       the traced run: the layer replay once untraced, once traced;
//       spans to F (Chrome trace JSON), metrics to stdout
//
// Every subcommand prints one JSON object as its last stdout line and
// exits non-zero on any failure.

#include <cstdio>
#include <functional>
#include <string>

#include "common.h"
#include "inputs.h"
#include "layers.h"
#include "loadgen.h"
#include "serve/match_service.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace {

namespace wm = wikimatch;
using e2e::Flags;
using e2e::JsonObject;

int Fail(const std::string& what, const wm::util::Status& status) {
  std::fprintf(stderr, "e2e_tool: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

std::string KeyCounts(
    const std::vector<std::pair<std::string, size_t>>& counts) {
  JsonObject o;
  for (const auto& [verb, n] : counts) o.Int(verb, n);
  return o.Render();
}

int GenDumps(const Flags& f) {
  const auto start = e2e::Clock::now();
  auto gc = e2e::GenerateCorpus(
      static_cast<uint64_t>(f.Num("corpus-seed", 1)), f.Num("scale", 0.1));
  if (!gc.ok()) return Fail("generate", gc.status());
  auto bytes = e2e::WriteDumps(
      gc->corpus, static_cast<uint64_t>(f.Num("seed", 1)), f.Str("out"));
  if (!bytes.ok()) return Fail("dumps", bytes.status());
  std::printf("%s\n", JsonObject()
                          .Int("dump_bytes", *bytes)
                          .Int("articles", gc->corpus.size())
                          .Num("gen_ms", e2e::MsSince(start))
                          .Render()
                          .c_str());
  return 0;
}

int GenServe(const Flags& f) {
  const auto start = e2e::Clock::now();
  const uint64_t seed = static_cast<uint64_t>(f.Num("seed", 1));
  const std::string dir = f.Str("out");
  const size_t threads = static_cast<size_t>(f.Num("threads", 2));
  auto gc = e2e::GenerateCorpus(
      static_cast<uint64_t>(f.Num("corpus-seed", 1)), f.Num("scale", 1.0));
  if (!gc.ok()) return Fail("generate", gc.status());
  const std::string snapshot = dir + "/serve.snap";
  e2e::Tracer tracer(true);
  auto written = e2e::WriteServeSnapshot(*gc, snapshot, threads, &tracer);
  if (!written.ok()) return Fail("snapshot", written.status());
  auto mix = e2e::MakeRequests(*gc, snapshot, seed,
                               static_cast<size_t>(f.Num("requests", 1000)));
  if (!mix.ok()) return Fail("requests", mix.status());
  if (!e2e::WriteFile(dir + "/requests.txt",
                      wm::util::Join(mix->lines, "\n") + "\n") ||
      !e2e::WriteFile(dir + "/warm.txt",
                      wm::util::Join(mix->warm, "\n") + "\n")) {
    return Fail("requests", wm::util::Status::IoError("cannot write"));
  }
  std::string kinds_json = "[]";
  if (size_t deltas = static_cast<size_t>(f.Num("deltas", 0)); deltas > 0) {
    auto kinds = e2e::WriteDeltas(gc->corpus, seed, deltas, dir);
    if (!kinds.ok()) return Fail("deltas", kinds.status());
    kinds_json = "[";
    for (size_t i = 0; i < kinds->size(); ++i) {
      kinds_json += (i > 0 ? ", " : "") + e2e::JsonQuote((*kinds)[i]);
    }
    kinds_json += "]";
  }
  JsonObject layers;
  for (const auto& span : tracer.spans()) {
    if (span.name == "sync.run") {
      layers.Num("sync.run_ms", (span.end_us - span.start_us) / 1000.0);
    }
  }
  std::printf("%s\n", JsonObject()
                          .Int("articles", gc->corpus.size())
                          .Raw("key_space", KeyCounts(mix->key_space))
                          .Raw("keys_used", KeyCounts(mix->keys_used))
                          .Raw("delta_kinds", kinds_json)
                          .Raw("setup_layers", layers.Render())
                          .Num("match_f", written->match_f)
                          .Num("gen_ms", e2e::MsSince(start))
                          .Render()
                          .c_str());
  return 0;
}

int CheckBuild(const Flags& f) {
  auto check = e2e::CheckBuild(
      f.Str("snapshot"), static_cast<uint64_t>(f.Num("corpus-seed", 1)),
      f.Num("scale", 0.1));
  if (!check.ok()) return Fail("check", check.status());
  char digest[20];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(check->digest));
  std::printf("%s\n", JsonObject()
                          .Num("match_f", check->match_f)
                          .Num("f_pt", check->f_pt)
                          .Num("f_vi", check->f_vi)
                          .Int("types", check->types)
                          .Str("digest", digest)
                          .Render()
                          .c_str());
  return 0;
}

int CheckProbe(const Flags& f) {
  std::vector<std::string> answers;
  for (const std::string& path : wm::util::Split(f.Str("answers"), ',')) {
    if (!path.empty()) answers.push_back(path);
  }
  const int64_t mismatched =
      e2e::AnswerMismatches(f.Str("snapshot"), f.Str("probe"), answers);
  if (mismatched < 0) {
    return Fail("check-probe", wm::util::Status::NotFound(
                                   "cannot load " + f.Str("snapshot")));
  }
  std::printf("%s\n", JsonObject()
                          .Int("answers", answers.size())
                          .Int("mismatched", static_cast<uint64_t>(mismatched))
                          .Render()
                          .c_str());
  return 0;
}

int Loadgen(const Flags& f) {
  e2e::LoadgenConfig config;
  config.port = static_cast<uint16_t>(f.Num("port", 0));
  config.lines = e2e::ReadLines(f.Str("requests"));
  config.offset = static_cast<size_t>(f.Num("offset", 0));
  config.step_s = f.Num("step-s", 1.0);
  config.conns = static_cast<size_t>(f.Num("conns", 4));
  config.stop_on_stdin_eof = f.Has("stop-on-eof");
  config.spin = f.Has("spin");
  config.closed = f.Has("closed");
  config.record_path = f.Str("record");
  config.probe = f.Str("probe");
  for (const std::string& r : wm::util::Split(f.Str("rates"), ',')) {
    if (!r.empty()) config.rates.push_back(std::atof(r.c_str()));
  }
  for (const std::string& p : wm::util::Split(f.Str("verify"), ',')) {
    if (!p.empty()) config.verify_snapshots.push_back(p);
  }
  if (config.lines.empty() || config.rates.empty() || config.port == 0) {
    return Fail("loadgen", wm::util::Status::InvalidArgument(
                               "need --port, --requests and --rates"));
  }
  std::string result = e2e::RunLoadgen(config);
  std::printf("%s\n", result.c_str());
  return result.find("\"error\"") == std::string::npos ? 0 : 1;
}

// Runs `replay` untraced, traced, untraced again; the traced time minus
// the mean untraced time is the tracing overhead (bracketing cancels the
// first pass's cold caches). Writes the traced spans as Chrome trace JSON.
int Traced(const Flags& f,
           const std::function<wm::util::Result<e2e::Metrics>(e2e::Tracer*)>&
               replay) {
  auto timed = [&](e2e::Tracer* tracer, double* ms) {
    const auto start = e2e::Clock::now();
    auto result = replay(tracer);
    *ms = e2e::MsSince(start);
    return result;
  };
  e2e::Tracer off(false), tracer(true);
  double before_ms = 0.0, traced_ms = 0.0, after_ms = 0.0;
  auto plain = timed(&off, &before_ms);
  if (!plain.ok()) return Fail("untraced replay", plain.status());
  auto metrics = timed(&tracer, &traced_ms);
  if (!metrics.ok()) return Fail("traced replay", metrics.status());
  plain = timed(&off, &after_ms);
  if (!plain.ok()) return Fail("untraced replay", plain.status());
  const double untraced_ms = (before_ms + after_ms) / 2.0;
  if (!e2e::WriteFile(f.Str("trace-out"), tracer.ChromeJson())) {
    return Fail("trace", wm::util::Status::IoError("cannot write trace"));
  }
  JsonObject m;
  for (const auto& [name, value] : *metrics) m.Num(name, value);
  for (const auto& [layer, ms] : tracer.LayerSelfMs()) {
    m.Num(layer + ".self_ms", ms);
  }
  m.Num("trace.untraced_ms", untraced_ms)
      .Num("trace.traced_ms", traced_ms)
      .Num("trace.overhead_ms", traced_ms - untraced_ms)
      .Int("trace.spans", tracer.spans().size());
  std::printf("%s\n", m.Render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: e2e_tool <subcommand> [--flag value]...\n");
    return 2;
  }
  wm::util::SetLogLevel(wm::util::LogLevel::kWarning);
  const std::string cmd = argv[1];
  const Flags f(argc, argv, 2);
  const size_t threads = static_cast<size_t>(f.Num("threads", 2));
  wm::util::ThreadPool::SetDefaultPoolSize(threads);
  if (cmd == "gen-dumps") return GenDumps(f);
  if (cmd == "gen-serve") return GenServe(f);
  if (cmd == "check-build") return CheckBuild(f);
  if (cmd == "check-probe") return CheckProbe(f);
  if (cmd == "loadgen") return Loadgen(f);
  if (cmd == "trace-build") {
    return Traced(f, [&](e2e::Tracer* t) {
      return e2e::ReplayBuild(f.Str("dir"), f.Str("out"), threads, t);
    });
  }
  if (cmd == "trace-serve") {
    // The TCP warm-up (every hit key), then the closed loop's lines.
    std::vector<std::string> warm = e2e::ReadLines(f.Str("warm"));
    std::vector<std::string> lines = e2e::ReadLines(f.Str("requests"));
    lines.resize(std::min(lines.size(),
                          static_cast<size_t>(f.Num("count", 2000))));
    return Traced(f, [&](e2e::Tracer* t) {
      return e2e::ReplayServe(f.Str("snapshot"), warm, lines, t);
    });
  }
  if (cmd == "trace-refresh") {
    return Traced(f, [&](e2e::Tracer* t) {
      return e2e::ReplayRefresh(f.Str("snapshot"), f.Str("deltas"),
                                static_cast<size_t>(f.Num("count", 3)),
                                threads, f.Str("work"), t);
    });
  }
  std::fprintf(stderr, "e2e_tool: unknown subcommand %s\n", cmd.c_str());
  return 2;
}
