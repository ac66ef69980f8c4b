#include "loadgen.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <map>
#include <memory>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <utility>

#include "common.h"
#include "serve/match_service.h"

namespace e2e {

namespace {

struct Pending {
  uint32_t line = 0;
  uint32_t step = 0;
  Clock::time_point due;
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  size_t in_off = 0;
  std::deque<Pending> pending;
  bool open = true;
};

struct StepResult {
  uint64_t sent = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> verb_latency_ms;
  std::vector<double> late_ms;
  uint64_t backlog_end = 0;
  bool backlog_recorded = false;
};

// One complete response at the front of `buf` from `off`: "ok <n>" plus n
// lines, or one "err ..." line. Returns its length, 0 when incomplete, or
// npos when the bytes cannot be a response (torn or foreign output).
size_t ResponseLength(const std::string& buf, size_t off) {
  size_t eol = buf.find('\n', off);
  if (eol == std::string::npos) return 0;
  if (buf.compare(off, 4, "err ") == 0) return eol + 1 - off;
  if (buf.compare(off, 3, "ok ") != 0) return std::string::npos;
  char* end = nullptr;
  unsigned long long rows = std::strtoull(buf.c_str() + off + 3, &end, 10);
  if (end != buf.c_str() + eol) return std::string::npos;
  size_t pos = eol + 1;
  for (unsigned long long r = 0; r < rows; ++r) {
    size_t next = buf.find('\n', pos);
    if (next == std::string::npos) return 0;
    pos = next + 1;
  }
  return pos - off;
}

int Connect(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

using ServicePtr = std::unique_ptr<wikimatch::serve::MatchService>;

// The reference the responses are checked against: the snapshot served
// in process, cache off.
wikimatch::util::Result<ServicePtr> LoadReference(const std::string& path) {
  wikimatch::serve::ServiceOptions options;
  options.cache_capacity = 0;
  return wikimatch::serve::MatchService::Load(path, options);
}

bool FileHolds(const std::string& path, const std::string& expected) {
  std::string content;
  return ReadFile(path, &content) && content == expected;
}

}  // namespace

int64_t AnswerMismatches(const std::string& snapshot_path,
                         const std::string& line,
                         const std::vector<std::string>& answer_paths) {
  auto service = LoadReference(snapshot_path);
  if (!service.ok()) return -1;
  const std::string expected = (*service)->Handle(line);
  int64_t mismatched = 0;
  for (const std::string& path : answer_paths) {
    if (!FileHolds(path, expected)) ++mismatched;
  }
  return mismatched;
}

std::string RunLoadgen(const LoadgenConfig& config) {
  const size_t num_lines = config.lines.size();
  // Responses are grouped by request text: canon[i] is the first index
  // holding the same line as lines[i].
  std::vector<uint32_t> canon(num_lines);
  {
    std::map<std::string, uint32_t> first;
    for (size_t i = 0; i < num_lines; ++i) {
      canon[i] = first.emplace(config.lines[i], static_cast<uint32_t>(i))
                     .first->second;
    }
  }
  std::vector<std::string> verbs(num_lines);
  for (size_t i = 0; i < num_lines; ++i) {
    verbs[i] = config.lines[i].substr(0, config.lines[i].find(' '));
  }
  std::FILE* record = nullptr;
  if (!config.record_path.empty()) {
    record = std::fopen(config.record_path.c_str(), "w");
    if (record == nullptr) {
      return JsonObject().Str("error", "cannot write --record").Render();
    }
  }
  std::vector<Conn> conns(config.conns);
  int ep = epoll_create1(0);
  for (size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = Connect(config.port);
    if (conns[c].fd < 0) {
      close(ep);
      if (record) std::fclose(record);
      return JsonObject().Str("error", "connect failed").Render();
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = c;
    epoll_ctl(ep, EPOLL_CTL_ADD, conns[c].fd, &ev);
  }
  constexpr uint64_t kStdin = ~0ULL;
  if (config.stop_on_stdin_eof) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kStdin;
    epoll_ctl(ep, EPOLL_CTL_ADD, STDIN_FILENO, &ev);
  }

  // Due time of request k: steps run back to back at their own rates.
  std::vector<uint64_t> step_first;  // first request index of each step
  uint64_t total = 0;
  for (double rate : config.rates) {
    step_first.push_back(total);
    total += static_cast<uint64_t>(rate * config.step_s + 0.5);
  }
  // Closed loop: one step, every line at most once (a repeated line
  // would be a cache hit the stream did not ask for).
  if (config.closed) total = num_lines - std::min(config.offset, num_lines);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  auto step_start = [&](size_t s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(config.step_s * s));
  };
  auto due_of = [&](uint64_t k, size_t s) {
    return step_start(s) +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>((k - step_first[s]) /
                                             config.rates[s]));
  };

  std::vector<StepResult> steps(config.rates.size());
  // line -> distinct responses seen, with how many requests got each.
  std::map<uint32_t, std::vector<std::pair<std::string, uint64_t>>> seen;
  uint64_t torn = 0, errs = 0, shed = 0, timeouts = 0, pending_total = 0;

  auto fail_pending = [&](Conn& conn) {
    for (const Pending& p : conn.pending) ++steps[p.step].failed;
    timeouts += conn.pending.size();
    pending_total -= conn.pending.size();
    conn.pending.clear();
  };
  auto close_conn = [&](Conn& conn) {
    if (!conn.open) return;
    conn.open = false;
    epoll_ctl(ep, EPOLL_CTL_DEL, conn.fd, nullptr);
    close(conn.fd);
    fail_pending(conn);
  };
  auto flush = [&](Conn& conn) {
    while (conn.open && conn.out_off < conn.out.size()) {
      ssize_t n = write(conn.fd, conn.out.data() + conn.out_off,
                        conn.out.size() - conn.out_off);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (n < 0 && errno != EAGAIN) close_conn(conn);
        break;
      }
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
  };
  auto read_conn = [&](Conn& conn) {
    char buf[65536];
    while (conn.open) {
      ssize_t n = read(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        conn.in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0 || errno != EAGAIN) close_conn(conn);
      break;
    }
    const Clock::time_point now = Clock::now();
    while (!conn.pending.empty()) {
      size_t len = ResponseLength(conn.in, conn.in_off);
      if (len == 0) break;
      Pending p = conn.pending.front();
      conn.pending.pop_front();
      --pending_total;
      StepResult& step = steps[p.step];
      if (len == std::string::npos) {
        ++torn;
        ++step.failed;
        close_conn(conn);
        break;
      }
      std::string response = conn.in.substr(conn.in_off, len);
      conn.in_off += len;
      if (response.rfind("err ", 0) == 0) {
        ++(response.rfind("err busy", 0) == 0 ? shed : errs);
        ++step.failed;
        continue;
      }
      const double ms =
          std::chrono::duration<double, std::milli>(now - p.due).count();
      step.latency_ms.push_back(ms);
      if (record) {
        std::fprintf(record, "%lld %.6f\n",
                     static_cast<long long>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             p.due.time_since_epoch())
                             .count()),
                     ms);
      }
      step.verb_latency_ms[verbs[p.line]].push_back(ms);
      auto& variants = seen[p.line];
      bool known = false;
      for (auto& [text, count] : variants) {
        if (text == response) {
          ++count;
          known = true;
          break;
        }
      }
      if (!known) variants.emplace_back(std::move(response), 1);
    }
    if (conn.in_off == conn.in.size() || conn.in_off > (1u << 20)) {
      conn.in.erase(0, conn.in_off);
      conn.in_off = 0;
    }
  };

  uint64_t next = 0;
  size_t step = 0;
  Clock::time_point end = step_start(config.rates.size());
  const auto drain = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config.drain_timeout_s));
  epoll_event events[64];
  while (true) {
    Clock::time_point now = Clock::now();
    for (size_t s = 0; s < steps.size(); ++s) {
      if (!steps[s].backlog_recorded && now >= step_start(s + 1)) {
        steps[s].backlog_end = pending_total;
        steps[s].backlog_recorded = true;
      }
    }
    auto send = [&](Conn& conn, Clock::time_point due) {
      StepResult& result = steps[step];
      ++result.sent;
      result.late_ms.push_back(
          std::chrono::duration<double, std::milli>(now - due).count());
      const uint32_t line = canon[(config.offset + next) % num_lines];
      if (!conn.open) {
        ++result.failed;
      } else {
        conn.out += config.lines[line];
        conn.out += '\n';
        conn.pending.push_back(Pending{line, static_cast<uint32_t>(step), due});
        ++pending_total;
      }
      ++next;
    };
    if (config.closed) {
      // The window ends the stream; what is in flight drains.
      if (now >= end) total = next;
      for (Conn& conn : conns) {
        if (next < total && conn.open && conn.pending.empty()) {
          send(conn, now);
        }
      }
    }
    while (!config.closed && next < total) {
      while (step + 1 < step_first.size() && next >= step_first[step + 1]) {
        ++step;
      }
      const Clock::time_point due = due_of(next, step);
      if (due > now) break;
      send(conns[next % conns.size()], due);
    }
    for (Conn& conn : conns) {
      if (!conn.out.empty()) flush(conn);
    }
    if (next == total && pending_total == 0) break;
    if (now > end + drain) break;
    int timeout_ms = config.spin ? 0 : 5;
    if (next < total && !config.spin) {
      const double wait_ms = std::chrono::duration<double, std::milli>(
                                 due_of(next, step) - now)
                                 .count();
      timeout_ms = wait_ms < 1.0 ? 0 : static_cast<int>(wait_ms);
    }
    int n = epoll_wait(ep, events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kStdin) {
        char buf[256];
        if (read(STDIN_FILENO, buf, sizeof(buf)) <= 0) {
          // End of the window: nothing more is due; drain what is sent.
          epoll_ctl(ep, EPOLL_CTL_DEL, STDIN_FILENO, nullptr);
          total = next;
          end = std::min(end, Clock::now());
          for (size_t s = step; s < steps.size(); ++s) {
            steps[s].backlog_end = pending_total;
            steps[s].backlog_recorded = true;
          }
        }
        continue;
      }
      Conn& conn = conns[events[i].data.u64];
      read_conn(conn);
      if (events[i].events & (EPOLLERR | EPOLLHUP)) close_conn(conn);
    }
  }
  for (Conn& conn : conns) {
    fail_pending(conn);
    if (conn.open) close(conn.fd);
  }
  close(ep);
  if (record && std::fclose(record) != 0) {
    return JsonObject().Str("error", "cannot write --record").Render();
  }

  // Byte-equality against the in-process service on each candidate
  // snapshot; a response matching none of them fails its requests.
  uint64_t mismatched = 0, verified = 0, probes = 0, probes_mismatched = 0;
  if (!config.verify_snapshots.empty()) {
    std::vector<uint32_t> keys;
    for (const auto& [line, variants] : seen) keys.push_back(line);
    std::map<uint32_t, std::vector<bool>> matched;
    for (const auto& [line, variants] : seen) {
      matched[line].assign(variants.size(), false);
    }
    for (const std::string& path : config.verify_snapshots) {
      if (access(path.c_str(), R_OK) != 0) continue;  // never published
      auto service = LoadReference(path);
      if (!service.ok()) {
        return JsonObject().Str("error", service.status().ToString()).Render();
      }
      std::vector<std::string> expected(keys.size());
      std::vector<std::thread> workers;
      for (size_t t = 0; t < config.verify_threads; ++t) {
        workers.emplace_back([&, t] {
          for (size_t i = t; i < keys.size(); i += config.verify_threads) {
            expected[i] = (*service)->Handle(config.lines[keys[i]]);
          }
        });
      }
      for (std::thread& w : workers) w.join();
      const std::string probe_path = path + ".probe";
      if (!config.probe.empty() && access(probe_path.c_str(), R_OK) == 0) {
        ++probes;
        if (!FileHolds(probe_path, (*service)->Handle(config.probe))) {
          ++probes_mismatched;
        }
      }
      for (size_t i = 0; i < keys.size(); ++i) {
        const auto& variants = seen[keys[i]];
        for (size_t v = 0; v < variants.size(); ++v) {
          if (variants[v].first == expected[i]) matched[keys[i]][v] = true;
        }
      }
    }
    for (const auto& [line, variants] : seen) {
      for (size_t v = 0; v < variants.size(); ++v) {
        (matched[line][v] ? verified : mismatched) += variants[v].second;
      }
    }
  }

  std::string step_json = "[";
  uint64_t attempted = 0, failed = mismatched;
  for (size_t s = 0; s < steps.size(); ++s) {
    StepResult& r = steps[s];
    attempted += r.sent;
    failed += r.failed;
    JsonObject per_verb;
    for (const auto& [verb, ms] : r.verb_latency_ms) {
      per_verb.Raw(verb, JsonObject()
                             .Int("answered", ms.size())
                             .Num("p50_ms", Percentile(ms, 0.5))
                             .Num("p90_ms", Percentile(ms, 0.9))
                             .Num("p95_ms", Percentile(ms, 0.95))
                             .Num("p99_ms", Percentile(ms, 0.99))
                             .Render());
    }
    JsonObject o;
    o.Num("rate", config.rates[s])
        .Int("sent", r.sent)
        .Int("failed", r.failed)
        .Int("answered", r.latency_ms.size())
        .Num("p50_ms", Percentile(r.latency_ms, 0.5))
        .Num("p90_ms", Percentile(r.latency_ms, 0.9))
        .Num("p95_ms", Percentile(r.latency_ms, 0.95))
        .Num("p99_ms", Percentile(r.latency_ms, 0.99))
        .Num("max_ms", Percentile(r.latency_ms, 1.0))
        .Num("late_p99_ms", Percentile(r.late_ms, 0.99))
        .Num("late_max_ms", Percentile(r.late_ms, 1.0))
        .Int("backlog_end", r.backlog_end)
        .Raw("verbs", per_verb.Render());
    step_json += (s > 0 ? ", " : "") + o.Render();
  }
  step_json += "]";
  return JsonObject()
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Int("mismatched", mismatched)
      .Int("verified", verified)
      .Int("distinct_lines", seen.size())
      .Int("probes", probes)
      .Int("probes_mismatched", probes_mismatched)
      .Int("torn", torn)
      .Int("errors", errs)
      .Int("shed", shed)
      .Int("timeouts", timeouts)
      .Raw("steps", step_json)
      .Render();
}

}  // namespace e2e
