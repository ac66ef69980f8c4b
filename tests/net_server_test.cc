// End-to-end tests for the epoll TCP serving layer (net::Server): framing
// over real sockets (partial writes, pipelined bursts, unterminated final
// lines), connection and pending-request load shedding, idle timeouts,
// backpressure against slow readers, graceful drain, and — the acceptance
// criterion for hot reload — a reload racing live multi-connection
// traffic with zero dropped and zero cross-generation-mixed responses,
// plus the off-loop reload itself (other connections answered while a
// reload is queued, per-connection order, close and drain mid-reload).
// Runs under TSan via tools/check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "match/pipeline.h"
#include "net/server.h"
#include "net/shutdown.h"
#include "serve/match_service.h"
#include "store/snapshot.h"
#include "synth/generator.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace {

constexpr char kQuery[] = "filme(receita > 1000000, elenco=?)";

// One corpus + pipeline + snapshot file shared by the suite.
struct Fixture {
  synth::GeneratedCorpus gc;
  match::PipelineResult result;
  match::TranslationDictionary dictionary;
  std::string snapshot_path;
};

// Set once the fixture exists. Its snapshot file is removed when the test
// process exits — not in an Environment::TearDown, which --gtest_repeat
// runs after every iteration while the fixture stays cached.
const Fixture* g_fixture = nullptr;

struct FixtureSnapshotRemover {
  ~FixtureSnapshotRemover() {
    if (g_fixture != nullptr) std::remove(g_fixture->snapshot_path.c_str());
  }
} g_fixture_snapshot_remover;

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny());
    f->gc = std::move(generator.Generate()).ValueOrDie();
    match::MatchPipeline pipeline(&f->gc.corpus);
    f->result = std::move(pipeline.Run("pt", "en")).ValueOrDie();
    f->dictionary = pipeline.dictionary();
    // ctest runs each TEST as its own process; a per-pid path keeps those
    // processes from truncating each other's snapshot mid-load (and the
    // remover above deletes it again).
    f->snapshot_path = ::testing::TempDir() + "/net_server_test." +
                       std::to_string(::getpid()) + ".snap";
    store::Snapshot snapshot;
    snapshot.corpus = f->gc.corpus;
    snapshot.dictionary = f->dictionary;
    snapshot.pipelines.emplace(store::LanguagePair("pt", "en"), f->result);
    auto status = store::WriteSnapshotFile(snapshot, f->snapshot_path);
    if (!status.ok()) ADD_FAILURE() << status.ToString();
    g_fixture = f;
    return f;
  }();
  return *fixture;
}

// A fixture-snapshot copy stamped as generation `gen` with `gen` delta
// records — same matching payload, distinguishable meta.
std::string WriteGenerationSnapshot(uint64_t gen, const std::string& name) {
  const Fixture& f = GetFixture();
  store::Snapshot snapshot;
  snapshot.corpus = f.gc.corpus;
  snapshot.dictionary = f.dictionary;
  snapshot.pipelines.emplace(store::LanguagePair("pt", "en"), f.result);
  snapshot.meta.generation = gen;
  for (uint64_t g = 1; g <= gen; ++g) {
    snapshot.meta.history.push_back({g, 1, 0, 0, 1, 0});
  }
  std::string path =
      ::testing::TempDir() + "/" + std::to_string(::getpid()) + "." + name;
  auto status = store::WriteSnapshotFile(snapshot, path);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return path;
}

std::unique_ptr<serve::MatchService> LoadService() {
  auto service = serve::MatchService::Load(GetFixture().snapshot_path);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

std::unique_ptr<net::Server> StartServer(serve::MatchService* service,
                                         net::ServerOptions options) {
  auto server = net::Server::Create(service, options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  auto status = (*server)->Start();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return std::move(*server);
}

// A deliberately simple blocking client: what a well-behaved (or, when a
// test wants it, badly-behaved) peer would do with the protocol.
class BlockingClient {
 public:
  // `rcv_buf_bytes` shrinks SO_RCVBUF before connecting so a test can
  // keep the peer's TCP window small and trigger server backpressure.
  explicit BlockingClient(uint16_t port, int rcv_buf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    if (rcv_buf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcv_buf_bytes,
                   sizeof(rcv_buf_bytes));
    }
    timeval timeout{10, 0};  // a stuck read fails the test, never hangs it
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~BlockingClient() { Close(); }
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  bool connected() const { return fd_ >= 0; }
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  // Closes with a zero linger, so the server sees a reset (EPOLLHUP /
  // EPOLLERR) rather than an orderly end of stream.
  void AbortiveClose() {
    linger abort{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
    Close();
  }

  // True when no response byte has arrived (without blocking).
  bool NothingToRead() {
    if (!rbuf_.empty()) return false;
    char c;
    ssize_t r = ::recv(fd_, &c, 1, MSG_DONTWAIT | MSG_PEEK);
    return r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }

  bool SendRaw(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t w = ::send(fd_, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(w);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    for (;;) {
      size_t newline = rbuf_.find('\n');
      if (newline != std::string::npos) {
        line->assign(rbuf_, 0, newline);
        rbuf_.erase(0, newline + 1);
        return true;
      }
      char buf[4096];
      ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r > 0) {
        rbuf_.append(buf, static_cast<size_t>(r));
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      return false;  // EOF or timeout
    }
  }

  // Reads one full protocol response ("ok N" + N lines, or a single err
  // line), returned with newlines so it compares byte-for-byte against
  // MatchService::Handle. Empty means EOF/timeout — a dropped response.
  std::string ReadResponse() {
    std::string line;
    if (!ReadLine(&line)) return "";
    std::string block = line + "\n";
    if (line.compare(0, 3, "ok ") == 0) {
      size_t body_lines = std::stoul(line.substr(3));
      for (size_t i = 0; i < body_lines; ++i) {
        if (!ReadLine(&line)) return block;  // truncated: caller notices
        block += line + "\n";
      }
    }
    return block;
  }

  bool AtEof() {
    if (!rbuf_.empty()) return false;
    char c;
    ssize_t r = ::recv(fd_, &c, 1, 0);
    if (r > 0) rbuf_.push_back(c);
    return r == 0;
  }

 private:
  int fd_ = -1;
  std::string rbuf_;
};

// ----------------------------------------------------------------- framing

TEST(NetServerTest, SpeaksTheProtocolOverTcp) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 2;
  auto server = StartServer(service.get(), options);
  ASSERT_NE(server->port(), 0);

  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  const std::string request = "alignments pt:en film";
  std::string baseline = service->Handle(request);
  ASSERT_TRUE(client.SendRaw(request + "\n"));
  EXPECT_EQ(client.ReadResponse(), baseline);
  ASSERT_TRUE(client.SendRaw("health\n"));
  std::string health = client.ReadResponse();
  EXPECT_EQ(health.compare(0, 25, "ok 1\nhealthy generation=0"), 0)
      << health;
  server->Shutdown();
  server->Wait();
  EXPECT_GE(server->Stats().requests, 2u);
}

TEST(NetServerTest, ReassemblesPartialWrites) {
  auto service = LoadService();
  auto server = StartServer(service.get(), net::ServerOptions());
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string baseline = service->Handle("alignments pt:en film");
  for (const char* piece : {"alig", "nments pt", ":en", " film", "\n"}) {
    ASSERT_TRUE(client.SendRaw(piece));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(client.ReadResponse(), baseline);
}

TEST(NetServerTest, AnswersAPipelinedBurstInOrder) {
  auto service = LoadService();
  auto server = StartServer(service.get(), net::ServerOptions());
  const std::vector<std::string> requests = {
      "alignments pt:en film", "types pt:en", "pairs",
      std::string("query pt:en ") + kQuery};
  std::vector<std::string> baselines;
  std::string burst;
  for (const auto& request : requests) {
    baselines.push_back(service->Handle(request));
    burst += request + "\n";
  }
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw(burst));
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(client.ReadResponse(), baselines[i]) << requests[i];
  }
}

TEST(NetServerTest, QuitAnswersEarlierRequestsThenCloses) {
  auto service = LoadService();
  auto server = StartServer(service.get(), net::ServerOptions());
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string baseline = service->Handle("pairs");
  // The request after quit must never be answered.
  ASSERT_TRUE(client.SendRaw("pairs\nquit\npairs\n"));
  EXPECT_EQ(client.ReadResponse(), baseline);
  EXPECT_TRUE(client.AtEof());
}

TEST(NetServerTest, ServesTheUnterminatedFinalLine) {
  auto service = LoadService();
  auto server = StartServer(service.get(), net::ServerOptions());
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string baseline = service->Handle("types pt:en");
  ASSERT_TRUE(client.SendRaw("pairs\ntypes pt:en"));
  client.ShutdownWrite();  // half-close: no newline ever arrives
  EXPECT_EQ(client.ReadResponse(), service->Handle("pairs"));
  EXPECT_EQ(client.ReadResponse(), baseline);
  EXPECT_TRUE(client.AtEof());
}

// ------------------------------------------------------------ load shedding

TEST(NetServerTest, ShedsBeyondMaxConnectionsWithABusyReply) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 1;  // deterministic accept ordering
  options.max_connections = 2;
  auto server = StartServer(service.get(), options);

  BlockingClient first(server->port());
  BlockingClient second(server->port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());
  // A round-trip guarantees both are accepted (not just SYN-acked)
  // before the third connection arrives.
  ASSERT_TRUE(first.SendRaw("health\n"));
  ASSERT_FALSE(first.ReadResponse().empty());
  ASSERT_TRUE(second.SendRaw("health\n"));
  ASSERT_FALSE(second.ReadResponse().empty());

  BlockingClient third(server->port());
  ASSERT_TRUE(third.connected());
  std::string line;
  ASSERT_TRUE(third.ReadLine(&line));
  EXPECT_EQ(line, "err busy (server overloaded, retry later)");
  EXPECT_TRUE(third.AtEof());

  // Room opens up again once an active connection leaves.
  first.Close();
  net::ServerStats stats = server->Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.accepted, 3u);
}

TEST(NetServerTest, ZeroPendingWatermarkShedsEveryAccept) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 1;
  options.max_pending_requests = 0;  // maintenance mode
  auto server = StartServer(service.get(), options);
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.compare(0, 8, "err busy"), 0) << line;
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(server->Stats().shed, 1u);
}

TEST(NetServerTest, IdleConnectionsAreClosed) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 1;
  options.idle_timeout_ms = 100;
  auto server = StartServer(service.get(), options);
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw("health\n"));
  ASSERT_FALSE(client.ReadResponse().empty());
  // Silence. The sweep closes us within a few timeout periods.
  EXPECT_TRUE(client.AtEof());
  EXPECT_GE(server->Stats().idle_closed, 1u);
}

// -------------------------------------------------------- adversarial input

TEST(NetServerTest, OversizedLineGetsAnErrorAndFramingRecovers) {
  auto service = LoadService();
  net::ServerOptions options;
  options.max_line_bytes = 128;
  auto server = StartServer(service.get(), options);
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string huge(4096, 'a');
  ASSERT_TRUE(client.SendRaw(huge + "\nversion\n"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "err protocol: request line exceeds 128 bytes");
  // The stream resynchronizes at the newline: the next request works.
  EXPECT_EQ(client.ReadResponse(), service->Handle("version"));
  EXPECT_EQ(server->Stats().protocol_errors, 1u);
}

TEST(NetServerTest, EmbeddedNulGetsAProtocolError) {
  auto service = LoadService();
  auto server = StartServer(service.get(), net::ServerOptions());
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string request = "heal";
  request += '\0';
  request += "th\n";
  ASSERT_TRUE(client.SendRaw(request));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "err protocol: request contains a NUL byte");
  EXPECT_EQ(server->Stats().protocol_errors, 1u);
}

// -------------------------------------------------------------- backpressure

TEST(NetServerTest, SlowReaderTriggersBackpressureNotUnboundedBuffering) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 1;
  options.write_buffer_limit = 1024;
  options.send_buffer_bytes = 4096;  // small SO_SNDBUF: kernel fills fast
  auto server = StartServer(service.get(), options);

  // A client with a tiny receive window that pipelines a few hundred
  // requests and reads nothing until the end.
  BlockingClient client(server->port(), /*rcv_buf_bytes=*/2048);
  ASSERT_TRUE(client.connected());
  const std::string request = "alignments pt:en film";
  std::string baseline = service->Handle(request);
  constexpr int kRequests = 300;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) burst += request + "\n";
  ASSERT_TRUE(client.SendRaw(burst));
  // Wait (bounded) for the server to fill the write buffer and pause;
  // a fixed sleep flakes when the box is busy.
  for (int i = 0; i < 500 && server->Stats().backpressure_pauses == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server->Stats().backpressure_pauses, 1u);

  // Draining the socket resumes reading; every response arrives intact
  // and in order — backpressure lost nothing.
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(client.ReadResponse(), baseline) << "response " << i;
  }
  EXPECT_EQ(server->Stats().requests, static_cast<uint64_t>(kRequests));
}

// ------------------------------------------------------------ graceful drain

TEST(NetServerTest, GracefulDrainAnswersThenRefusesNewConnections) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 2;
  auto server = StartServer(service.get(), options);
  uint16_t port = server->port();

  BlockingClient client(port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw("pairs\n"));
  EXPECT_EQ(client.ReadResponse(), service->Handle("pairs"));

  server->Shutdown();  // same path SIGINT/SIGTERM take
  server->Wait();
  EXPECT_TRUE(client.AtEof());  // drained, not reset

  BlockingClient late(port);
  EXPECT_FALSE(late.connected());  // listener is gone
}

TEST(NetServerTest, ExternalShutdownFlagDrainsTheServer) {
  auto service = LoadService();
  net::ShutdownFlag flag;
  net::ServerOptions options;
  auto server = net::Server::Create(service.get(), options, &flag);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto status = (*server)->Start();
  ASSERT_TRUE(status.ok()) << status.ToString();
  BlockingClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  // A round-trip guarantees the connection was accepted (not still in the
  // listen backlog, where a drain would reset rather than FIN it).
  ASSERT_TRUE(client.SendRaw("health\n"));
  ASSERT_FALSE(client.ReadResponse().empty());
  flag.Request();  // what the signal handler does
  (*server)->Wait();
  EXPECT_TRUE(client.AtEof());
}

// ------------------------------------------------------- reload under load

// The acceptance criterion: a hot reload racing live TCP traffic drops
// nothing and mixes nothing. Both snapshot generations carry the same
// matching payload, so every data response must be byte-identical to its
// baseline regardless of which generation served it; the generation verb
// must always describe exactly one generation, never a blend.
TEST(NetServerTest, ReloadUnderLiveTrafficDropsAndMixesNothing) {
  std::string next = WriteGenerationSnapshot(1, "net_stress_g1.snap");
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 2;
  auto server = StartServer(service.get(), options);

  const std::vector<std::string> requests = {
      std::string("query pt:en ") + kQuery,
      "alignments pt:en film",
      "types pt:en",
      "attr pt:en film en starring",
  };
  std::vector<std::string> baselines;
  for (const auto& request : requests) {
    baselines.push_back(service->Handle(request));
    ASSERT_EQ(baselines.back().compare(0, 3, "ok "), 0) << baselines.back();
  }

  constexpr int kReaders = 6;
  constexpr int kPerReader = 100;
  std::atomic<int> dropped{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      BlockingClient client(server->port());
      if (!client.connected()) {
        dropped.fetch_add(kPerReader);
        return;
      }
      for (int i = 0; i < kPerReader; ++i) {
        size_t pick = static_cast<size_t>(i + t) % requests.size();
        if (!client.SendRaw(requests[pick] + "\n")) {
          dropped.fetch_add(1);
          continue;
        }
        std::string response = client.ReadResponse();
        if (response.empty()) {
          dropped.fetch_add(1);  // timeout or EOF: a dropped response
        } else if (response != baselines[pick]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  // One client watches the generation verb for torn answers.
  std::atomic<int> torn{0};
  std::thread watcher([&]() {
    BlockingClient client(server->port());
    if (!client.connected()) {
      torn.fetch_add(1);
      return;
    }
    for (int i = 0; i < 120; ++i) {
      if (!client.SendRaw("generation\n")) {
        torn.fetch_add(1);
        break;
      }
      std::string response = client.ReadResponse();
      bool gen0 = response.find("generation=0 ") != std::string::npos &&
                  response.find(" deltas_applied=0") != std::string::npos;
      bool gen1 = response.find("generation=1 ") != std::string::npos &&
                  response.find(" deltas_applied=1") != std::string::npos;
      if (gen0 == gen1) torn.fetch_add(1);  // neither, or a blend
    }
  });
  // The writer hot-swaps generations through the protocol, over TCP.
  std::atomic<int> failed_reloads{0};
  std::thread writer([&]() {
    BlockingClient client(server->port());
    if (!client.connected()) {
      failed_reloads.fetch_add(1);
      return;
    }
    for (int i = 0; i < 14; ++i) {
      const std::string& path =
          i % 2 == 0 ? next : GetFixture().snapshot_path;
      if (!client.SendRaw("reload " + path + "\n")) {
        failed_reloads.fetch_add(1);
        continue;
      }
      if (client.ReadResponse().compare(0, 3, "ok ") != 0) {
        failed_reloads.fetch_add(1);
      }
    }
  });
  for (auto& reader : readers) reader.join();
  watcher.join();
  writer.join();

  EXPECT_EQ(dropped.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(failed_reloads.load(), 0);
  EXPECT_EQ(service->Stats().loads, 15u);
  net::ServerStats stats = server->Stats();
  EXPECT_GE(stats.requests,
            static_cast<uint64_t>(kReaders * kPerReader + 120 + 14));
  std::remove(next.c_str());
}

// ---------------------------------------------------------- off-loop reload

// Installs a one-worker pool as the global pool and parks its worker until
// Release(): a reload task queued behind it stays queued, so "a reload is
// in flight" is a state the test holds rather than a race it hopes to hit.
class ParkedPool {
 public:
  ParkedPool() : pool_(1), override_(&pool_) {
    blocker_ = pool_.Async([this]() {
      while (!released_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  ~ParkedPool() {
    Release();
    blocker_.Wait();
  }
  ParkedPool(const ParkedPool&) = delete;
  ParkedPool& operator=(const ParkedPool&) = delete;

  void Release() { released_.store(true, std::memory_order_release); }

 private:
  std::atomic<bool> released_{false};
  util::ThreadPool pool_;
  util::ScopedThreadPoolOverride override_;
  util::TaskHandle blocker_;
};

// Sends `request` on `client` and returns the answer.
std::string RoundTrip(BlockingClient* client, const std::string& request) {
  if (!client->SendRaw(request + "\n")) return "";
  return client->ReadResponse();
}

TEST(NetServerTest, OtherConnectionsAreServedWhileAReloadIsQueued) {
  std::string next = WriteGenerationSnapshot(1, "net_offloop_g1.snap");
  auto service = LoadService();
  ParkedPool parked;
  net::ServerOptions options;
  options.num_threads = 1;  // A and B share the one event loop
  auto server = StartServer(service.get(), options);
  BlockingClient a(server->port());
  BlockingClient b(server->port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  const std::string data = "alignments pt:en film";
  std::string baseline = service->Handle(data);

  // A pipelines a generation probe behind its reload. The reload reached
  // the loop no later than B's first line did, so every B answer below is
  // given while the reload sits in the parked pool.
  ASSERT_TRUE(a.SendRaw("reload " + next + "\ngeneration\n"));
  std::string gen_b = RoundTrip(&b, "generation");
  EXPECT_NE(gen_b.find("generation=0 "), std::string::npos) << gen_b;
  EXPECT_EQ(RoundTrip(&b, data), baseline);
  EXPECT_EQ(RoundTrip(&b, "health").compare(0, 5, "ok 1\n"), 0);
  EXPECT_TRUE(a.NothingToRead());  // A's probe waits behind its reload
  EXPECT_EQ(service->Generation(), 0u);

  parked.Release();
  std::string reloaded = a.ReadResponse();
  EXPECT_NE(reloaded.find("reloaded generation=1 load_seq=2"),
            std::string::npos)
      << reloaded;
  std::string gen_a = a.ReadResponse();
  EXPECT_NE(gen_a.find("generation=1 "), std::string::npos) << gen_a;
  EXPECT_NE(gen_a.find(" deltas_applied=1"), std::string::npos) << gen_a;
  // A keeps reading after the reload: a later line is answered too.
  EXPECT_EQ(RoundTrip(&a, data), baseline);
  gen_b = RoundTrip(&b, "generation");
  EXPECT_NE(gen_b.find("generation=1 "), std::string::npos) << gen_b;
  std::remove(next.c_str());
}

TEST(NetServerTest, ConnectionResetDuringReloadIsParkedNotFreed) {
  std::string next = WriteGenerationSnapshot(1, "net_reset_g1.snap");
  auto service = LoadService();
  ParkedPool parked;
  net::ServerOptions options;
  options.num_threads = 1;
  auto server = StartServer(service.get(), options);
  BlockingClient a(server->port());
  BlockingClient b(server->port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  ASSERT_TRUE(a.SendRaw("reload " + next + "\n"));
  ASSERT_FALSE(RoundTrip(&b, "health").empty());  // the reload is queued
  a.AbortiveClose();
  // The reset closes A while its reload task still holds the connection.
  for (int i = 0; i < 500 && server->Stats().active_connections != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server->Stats().active_connections, 1u);

  parked.Release();
  for (int i = 0; i < 500 && service->Generation() != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(service->Generation(), 1u);
  // The completion for the parked connection is consumed on the loop; B's
  // next answer comes after it and from the new generation.
  std::string gen_b = RoundTrip(&b, "generation");
  EXPECT_NE(gen_b.find("generation=1 "), std::string::npos) << gen_b;
  server->Shutdown();
  server->Wait();
  std::remove(next.c_str());
}

TEST(NetServerTest, ShutdownDrainsAnInFlightReload) {
  std::string next = WriteGenerationSnapshot(1, "net_drain_g1.snap");
  auto service = LoadService();
  ParkedPool parked;  // never released before the drain
  net::ServerOptions options;
  options.num_threads = 1;
  auto server = StartServer(service.get(), options);
  BlockingClient a(server->port());
  BlockingClient b(server->port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  ASSERT_TRUE(a.SendRaw("reload " + next + "\ngeneration\n"));
  ASSERT_FALSE(RoundTrip(&b, "health").empty());  // the reload is queued
  EXPECT_TRUE(a.NothingToRead());

  // The drain takes the queued task off the parked pool and runs it.
  server->Shutdown();
  server->Wait();
  std::string reloaded = a.ReadResponse();
  EXPECT_NE(reloaded.find("reloaded generation=1 load_seq=2"),
            std::string::npos)
      << reloaded;
  std::string gen_a = a.ReadResponse();
  EXPECT_NE(gen_a.find("generation=1 "), std::string::npos) << gen_a;
  EXPECT_TRUE(a.AtEof());
  EXPECT_TRUE(b.AtEof());
  EXPECT_EQ(service->Generation(), 1u);
  std::remove(next.c_str());
}

TEST(NetServerTest, FailedReloadAnswersErrAndOldGenerationServes) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 1;
  auto server = StartServer(service.get(), options);
  BlockingClient a(server->port());
  BlockingClient b(server->port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  const std::string data = "alignments pt:en film";
  std::string baseline = service->Handle(data);
  ASSERT_TRUE(a.SendRaw("reload /nonexistent/next.snap\ngeneration\n"));
  std::string failed = a.ReadResponse();
  EXPECT_EQ(failed.compare(0, 4, "err "), 0) << failed;
  std::string gen_a = a.ReadResponse();
  EXPECT_NE(gen_a.find("generation=0 load_seq=1"), std::string::npos)
      << gen_a;
  EXPECT_EQ(RoundTrip(&b, data), baseline);
  EXPECT_EQ(service->Stats().loads, 1u);
}

// --------------------------------------------------------------- concurrency

TEST(NetServerTest, ServesManyConcurrentConnections) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 2;
  options.max_connections = 128;
  auto server = StartServer(service.get(), options);
  constexpr int kClients = 50;
  std::vector<std::unique_ptr<BlockingClient>> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<BlockingClient>(server->port()));
    ASSERT_TRUE(clients.back()->connected()) << "client " << i;
  }
  for (auto& client : clients) ASSERT_TRUE(client->SendRaw("health\n"));
  for (auto& client : clients) {
    std::string response = client->ReadResponse();
    EXPECT_EQ(response.compare(0, 13, "ok 1\nhealthy "), 0) << response;
  }
  EXPECT_EQ(server->Stats().active_connections,
            static_cast<size_t>(kClients));
}

}  // namespace
}  // namespace wikimatch
