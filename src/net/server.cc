#include "net/server.h"

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

// epoll_event.data values for the non-connection fds. Real Connection
// pointers are aligned allocations and can never equal these.
constexpr uint64_t kListenerTag = 1;
constexpr uint64_t kWakeTag = 2;
constexpr uint64_t kReloadDoneTag = 3;

// The one-line reply a shed accept gets before its socket is closed.
constexpr char kBusyReply[] = "err busy (server overloaded, retry later)\n";

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

// Per-connection state, owned by exactly one event loop (never touched
// from another thread, so none of it needs a lock).
struct Server::Connection {
  Connection(int fd_in, size_t max_line_bytes)
      : fd(fd_in), splitter(max_line_bytes) {}

  int fd;
  serve::LineSplitter splitter;  // bytes read, not yet a full line
  std::string wbuf;              // responses not yet accepted by the kernel
  size_t wpos = 0;               // flushed prefix of wbuf
  bool paused = false;           // EPOLLIN dropped (backpressure)
  bool peer_eof = false;         // client half-closed; tail handled
  bool want_close = false;       // close once wbuf is flushed
  bool closed = false;           // fd closed; free at end of batch
  // A `reload` runs on the pool and owes this connection its next reply:
  // no line is popped and nothing is read until the task reports back.
  bool reload_pending = false;
  util::TaskHandle reload_task;
  Clock::time_point last_active;
};

// A finished reload task's answer, handed back to the connection's loop.
struct Server::ReloadDone {
  Connection* conn;
  std::string response;
};

// One event-loop thread's world: its epoll set and the connections it
// owns. `graveyard` defers freeing a closed connection to the end of the
// current batch of events so no dangling pointer is touched; `parked`
// keeps a closed connection alive until its reload task reports back.
struct Server::Loop {
  int epoll_fd = -1;
  bool draining = false;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  std::vector<std::unique_ptr<Connection>> graveyard;
  std::vector<std::unique_ptr<Connection>> parked;
  size_t reloads_in_flight = 0;
  Clock::time_point last_idle_sweep;
  // Reload tasks push their answer here and bump the eventfd, both under
  // reload_done_mu; the loop takes the queue on kReloadDoneTag.
  int reload_done_fd = -1;
  util::Mutex reload_done_mu;
  std::vector<ReloadDone> reload_done WIKIMATCH_GUARDED_BY(reload_done_mu);
};

util::Result<std::unique_ptr<Server>> Server::Create(
    serve::MatchService* service, const ServerOptions& options,
    ShutdownFlag* shutdown) {
  if (service == nullptr) {
    return util::Status::InvalidArgument("net::Server needs a MatchService");
  }
  std::unique_ptr<Server> server(new Server(service, options, shutdown));
  if (server->shutdown_->wake_fd() < 0) {
    return util::Status::IoError("eventfd for the shutdown flag failed");
  }
  auto status = server->Listen();
  if (!status.ok()) return status;
  return server;
}

Server::Server(serve::MatchService* service, const ServerOptions& options,
               ShutdownFlag* shutdown)
    : service_(service), options_(options), shutdown_(shutdown) {
  if (shutdown_ == nullptr) {
    owned_shutdown_ = std::make_unique<ShutdownFlag>();
    shutdown_ = owned_shutdown_.get();
  }
  if (options_.num_threads == 0) {
    options_.num_threads = util::DefaultThreads();
  }
  if (options_.max_line_bytes == 0 ||
      options_.max_line_bytes > serve::kMaxRequestBytes) {
    options_.max_line_bytes = serve::kMaxRequestBytes;
  }
}

Server::~Server() {
  Shutdown();
  Wait();
}

util::Status Server::Listen() {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return util::Status::IoError(Errno("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return util::Status::InvalidArgument("bad bind address '" +
                                         options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return util::Status::IoError(
        Errno(("bind " + options_.bind_address + ":" +
               std::to_string(options_.port))
                  .c_str()));
  }
  if (::listen(listen_fd_, 4096) != 0) {
    return util::Status::IoError(Errno("listen"));
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return util::Status::IoError(Errno("getsockname"));
  }
  port_ = ntohs(bound.sin_port);
  return util::Status::OK();
}

util::Status Server::Start() {
  util::MutexLock lock(state_mu_);
  if (!threads_.empty()) {
    return util::Status::InvalidArgument("server already started");
  }
  threads_.reserve(options_.num_threads);
  for (size_t t = 0; t < options_.num_threads; ++t) {
    threads_.emplace_back([this]() { LoopMain(); });
  }
  return util::Status::OK();
}

void Server::Wait() {
  std::vector<std::thread> joined;
  {
    util::MutexLock lock(state_mu_);
    joined.swap(threads_);
  }
  for (auto& thread : joined) thread.join();
  // All loops have drained; closing the listener makes further connect
  // attempts fail fast instead of parking in the backlog.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

util::Status Server::Run() {
  auto status = Start();
  if (!status.ok()) return status;
  Wait();
  return util::Status::OK();
}

ServerStats Server::Stats() const {
  ServerStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  stats.backpressure_pauses =
      backpressure_pauses_.load(std::memory_order_relaxed);
  stats.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  stats.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  stats.active_connections =
      active_connections_.load(std::memory_order_relaxed);
  return stats;
}

void Server::LoopMain() {
  Loop loop;
  loop.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (loop.epoll_fd < 0) {
    WIKIMATCH_LOG(Warning) << "net: epoll_create1 failed: "
                           << std::strerror(errno);
    return;
  }
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | EPOLLEXCLUSIVE;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    // EPOLLEXCLUSIVE needs kernel >= 4.5; fall back to a shared wakeup.
    ev.events = EPOLLIN;
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  std::memset(&ev, 0, sizeof(ev));
  // Level-triggered and never drained, so one Request() wakes every loop.
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, shutdown_->wake_fd(), &ev);
  loop.reload_done_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (loop.reload_done_fd < 0) {
    WIKIMATCH_LOG(Warning) << "net: eventfd failed: " << std::strerror(errno);
    ::close(loop.epoll_fd);
    return;
  }
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kReloadDoneTag;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.reload_done_fd, &ev);

  loop.last_idle_sweep = Clock::now();
  std::array<epoll_event, 64> events;
  while (!shutdown_->requested()) {
    int timeout_ms = options_.idle_timeout_ms > 0
                         ? std::min(options_.idle_timeout_ms, 250)
                         : 1000;
    int n = ::epoll_wait(loop.epoll_fd, events.data(),
                         static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      WIKIMATCH_LOG(Warning) << "net: epoll_wait failed: "
                             << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& event = events[i];
      if (event.data.u64 == kListenerTag) {
        HandleAccepts(&loop);
        continue;
      }
      if (event.data.u64 == kWakeTag) continue;
      if (event.data.u64 == kReloadDoneTag) {
        OnReloadsDone(&loop);
        continue;
      }
      auto* conn = static_cast<Connection*>(event.data.ptr);
      if (conn->closed) continue;
      if (event.events & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(&loop, conn);
      } else {
        if (event.events & EPOLLOUT) OnWritable(&loop, conn);
        if (!conn->closed && (event.events & (EPOLLIN | EPOLLRDHUP))) {
          OnReadable(&loop, conn);
        }
      }
    }
    // Not per event: a reload completion can close a connection whose own
    // event sits later in this batch.
    loop.graveyard.clear();
    SweepIdle(&loop);
  }
  Drain(&loop);
  ::close(loop.reload_done_fd);
  ::close(loop.epoll_fd);
}

void Server::HandleAccepts(Loop* loop) {
  if (loop->draining) return;
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // EAGAIN (drained) or a transient error; epoll re-arms us
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    // Load shedding: a one-line refusal is far cheaper for the client
    // than a silent close — the load balancer can back off immediately.
    if (active_connections_.load(std::memory_order_relaxed) >=
            options_.max_connections ||
        pending_requests_.load(std::memory_order_relaxed) >=
            options_.max_pending_requests) {
      // Count before the reply: a client that has read the busy line must
      // already see it in Stats().
      shed_.fetch_add(1, std::memory_order_relaxed);
      (void)::send(fd, kBusyReply, sizeof(kBusyReply) - 1, MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof(options_.send_buffer_bytes));
    }
    auto conn = std::make_unique<Connection>(fd, options_.max_line_bytes);
    conn->last_active = Clock::now();
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.ptr = conn.get();
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    loop->conns.emplace(fd, std::move(conn));
  }
}

// Runs one complete line through the shared protocol semantics and queues
// the response. Returns true when the line asked to end the session.
bool Server::DispatchLine(Loop* loop, Connection* conn,
                          const std::string& line) {
  if (serve::IsReloadRequest(line)) {
    StartReload(loop, conn, line);
    return false;
  }
  pending_requests_.fetch_add(1, std::memory_order_relaxed);
  serve::LineOutcome outcome = serve::HandleRequestLine(service_, line);
  pending_requests_.fetch_sub(1, std::memory_order_relaxed);
  if (outcome.quit) return true;
  if (outcome.response.empty()) return false;  // blank line
  QueueResponse(conn, outcome.response);
  return false;
}

void Server::QueueResponse(Connection* conn, const std::string& response) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (response.compare(0, 12, "err protocol") == 0) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  conn->wbuf += response;
}

// Decoding a snapshot takes as long as the snapshot is large, so `reload`
// runs as a pool task; the loop keeps serving its other connections from
// the old generation meanwhile. The task touches no connection state: it
// hands its answer back through the loop's queue, and the connection (or,
// if it closes first, its parked corpse) outlives the task.
void Server::StartReload(Loop* loop, Connection* conn,
                         const std::string& line) {
  pending_requests_.fetch_add(1, std::memory_order_relaxed);
  conn->reload_pending = true;
  ++loop->reloads_in_flight;
  conn->reload_task = util::thread_pool_async([this, loop, conn, line]() {
    std::string response;
    try {
      response = serve::HandleRequestLine(service_, line).response;
    } catch (...) {
      response = "err reload failed: internal error\n";
    }
    // The push and the eventfd write share one critical section, and
    // nothing after it touches the Loop: once the loop thread has taken
    // this entry, the task is done with the (stack-allocated) Loop. Drain
    // relies on that — a wake raised by another reload may hand this entry
    // over before this task's handle was ever waited on.
    util::MutexLock lock(loop->reload_done_mu);
    loop->reload_done.push_back({conn, std::move(response)});
    uint64_t one = 1;
    ssize_t ignored = ::write(loop->reload_done_fd, &one, sizeof(one));
    (void)ignored;
  });
}

void Server::OnReloadsDone(Loop* loop) {
  uint64_t count;
  ssize_t ignored = ::read(loop->reload_done_fd, &count, sizeof(count));
  (void)ignored;
  std::vector<ReloadDone> done;
  {
    util::MutexLock lock(loop->reload_done_mu);
    done.swap(loop->reload_done);
  }
  for (ReloadDone& reply : done) {
    Connection* conn = reply.conn;
    conn->reload_pending = false;
    conn->reload_task = util::TaskHandle();
    --loop->reloads_in_flight;
    pending_requests_.fetch_sub(1, std::memory_order_relaxed);
    if (conn->closed) {
      for (auto it = loop->parked.begin(); it != loop->parked.end(); ++it) {
        if (it->get() == conn) {
          loop->graveyard.push_back(std::move(*it));
          loop->parked.erase(it);
          break;
        }
      }
      continue;
    }
    conn->last_active = Clock::now();
    QueueResponse(conn, reply.response);
    // Lines pipelined behind the reload, then the socket: edge-triggered
    // epoll raised no new edge for bytes that arrived while reading was
    // held back. A draining loop reads nothing new.
    ProcessLines(loop, conn);
    if (!conn->closed && !loop->draining) OnReadable(loop, conn);
  }
}

void Server::ProcessLines(Loop* loop, Connection* conn) {
  while (!conn->closed && !conn->paused && !conn->want_close &&
         !conn->reload_pending) {
    std::string line;
    serve::LineSplitter::Next next = conn->splitter.Pop(&line);
    if (next == serve::LineSplitter::Next::kNeedMore) break;
    if (next == serve::LineSplitter::Next::kOversized) {
      conn->wbuf += serve::OversizedLineResponse(options_.max_line_bytes);
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    } else if (DispatchLine(loop, conn, line)) {
      // "quit": flush what is owed, drop the rest of the pipeline.
      conn->want_close = true;
      break;
    }
    if (conn->wbuf.size() - conn->wpos > options_.write_buffer_limit) {
      FlushWrites(loop, conn);
      if (conn->closed) return;
      if (!loop->draining &&
          conn->wbuf.size() - conn->wpos > options_.write_buffer_limit) {
        PauseReading(loop, conn);
        break;
      }
    }
  }
  if (conn->closed) return;
  if (conn->peer_eof && !conn->paused && !conn->want_close &&
      !conn->reload_pending) {
    // The client half-closed without terminating its last line; serve the
    // tail as a final request, then close after the flush (after the
    // reload's answer, when the tail is a reload).
    std::string tail;
    if (conn->splitter.Finish(&tail)) (void)DispatchLine(loop, conn, tail);
    if (!conn->reload_pending) conn->want_close = true;
  }
  FlushWrites(loop, conn);
}

void Server::OnReadable(Loop* loop, Connection* conn) {
  conn->last_active = Clock::now();
  char buf[16 * 1024];
  // Edge-triggered: drain the socket until EAGAIN — but stop the moment
  // backpressure pauses the connection, leaving unread bytes in the
  // kernel buffer (which is the whole point: TCP flow control pushes the
  // pressure back to the client).
  while (!conn->closed && !conn->paused && !conn->want_close &&
         !conn->peer_eof && !conn->reload_pending) {
    ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      bytes_read_.fetch_add(static_cast<uint64_t>(r),
                            std::memory_order_relaxed);
      conn->splitter.Append(buf, static_cast<size_t>(r));
      ProcessLines(loop, conn);
      continue;
    }
    if (r == 0) {
      conn->peer_eof = true;
      ProcessLines(loop, conn);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(loop, conn);
    return;
  }
}

void Server::OnWritable(Loop* loop, Connection* conn) {
  FlushWrites(loop, conn);
  if (conn->closed) return;
  if (conn->paused &&
      conn->wbuf.size() - conn->wpos <= options_.write_buffer_limit) {
    ResumeReading(loop, conn);
    // Lines buffered while paused (and a pending peer EOF) are handled
    // now; fresh socket data arrives via the re-armed EPOLLIN.
    ProcessLines(loop, conn);
  }
}

void Server::FlushWrites(Loop* loop, Connection* conn) {
  if (conn->closed) return;
  while (conn->wpos < conn->wbuf.size()) {
    ssize_t w = ::send(conn->fd, conn->wbuf.data() + conn->wpos,
                       conn->wbuf.size() - conn->wpos, MSG_NOSIGNAL);
    if (w > 0) {
      conn->wpos += static_cast<size_t>(w);
      bytes_written_.fetch_add(static_cast<uint64_t>(w),
                               std::memory_order_relaxed);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // EPOLLOUT re-arms
    CloseConnection(loop, conn);  // peer vanished; nothing left to flush to
    return;
  }
  conn->wbuf.clear();
  conn->wpos = 0;
  if (conn->want_close) CloseConnection(loop, conn);
}

void Server::PauseReading(Loop* loop, Connection* conn) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.ptr = conn;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->paused = true;
  backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
}

void Server::ResumeReading(Loop* loop, Connection* conn) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  // EPOLL_CTL_MOD re-checks readiness, so bytes that arrived while paused
  // deliver a fresh edge immediately.
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.ptr = conn;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->paused = false;
}

void Server::CloseConnection(Loop* loop, Connection* conn) {
  if (conn->closed) return;
  conn->closed = true;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  // Drain unread input first (bounded): close(2) with bytes still queued
  // in the receive buffer makes TCP send RST instead of FIN, which would
  // destroy responses the peer has not read yet — e.g. the replies owed
  // before a `quit` that arrived in the same burst as later requests.
  char discard[4096];
  for (int i = 0; i < 16; ++i) {
    if (::recv(conn->fd, discard, sizeof(discard), 0) <= 0) break;
  }
  ::close(conn->fd);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  auto it = loop->conns.find(conn->fd);
  if (it != loop->conns.end() && it->second.get() == conn) {
    // A reload task still holds the pointer; OnReloadsDone frees it.
    (conn->reload_pending ? loop->parked : loop->graveyard)
        .push_back(std::move(it->second));
    loop->conns.erase(it);
  }
}

void Server::SweepIdle(Loop* loop) {
  if (options_.idle_timeout_ms <= 0) return;
  auto now = Clock::now();
  auto interval =
      std::chrono::milliseconds(std::max(1, options_.idle_timeout_ms / 4));
  if (now - loop->last_idle_sweep < interval) return;
  loop->last_idle_sweep = now;
  auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<Connection*> stale;
  // Sweep order is per-connection bookkeeping; no response bytes depend
  // on which stale peer closes first.
  for (auto& [fd, conn] : loop->conns) {  // NOLINT(unordered-iter)
    // A connection waiting on its reload is not idle: the server owes it.
    if (conn->reload_pending) continue;
    if (now - conn->last_active > limit) stale.push_back(conn.get());
  }
  for (auto* conn : stale) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(loop, conn);
  }
  loop->graveyard.clear();
}

void Server::Drain(Loop* loop) {
  loop->draining = true;
  // Stop accepting (this loop's share of the shared listener) and stop
  // spinning on the never-drained wake eventfd.
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, shutdown_->wake_fd(), nullptr);

  // Answer everything already received in full; read nothing new. A
  // reload in flight is waited for, then the lines queued behind it are
  // answered (which may start another reload, hence the loop).
  std::vector<Connection*> open;
  for (;;) {
    open = OpenConnections(loop);
    for (auto* conn : open) {
      if (conn->closed) continue;
      conn->paused = false;  // drain ignores backpressure: flush everything
      ProcessLines(loop, conn);
    }
    loop->graveyard.clear();
    if (loop->reloads_in_flight == 0) break;
    WaitForReloads(loop);
  }
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, loop->reload_done_fd, nullptr);
  open = OpenConnections(loop);
  for (auto* conn : open) {
    if (conn->closed) continue;
    conn->want_close = true;
    FlushWrites(loop, conn);
  }
  loop->graveyard.clear();

  // Flush stragglers (peers slow to read) until done or out of budget.
  auto deadline = Clock::now() + std::chrono::milliseconds(
                                     std::max(0, options_.drain_timeout_ms));
  std::array<epoll_event, 64> events;
  while (!loop->conns.empty() && Clock::now() < deadline) {
    int n = ::epoll_wait(loop->epoll_fd, events.data(),
                         static_cast<int>(events.size()), 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kListenerTag ||
          events[i].data.u64 == kWakeTag ||
          events[i].data.u64 == kReloadDoneTag) {
        continue;
      }
      auto* conn = static_cast<Connection*>(events[i].data.ptr);
      if (conn->closed) continue;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(loop, conn);
      } else if (events[i].events & EPOLLOUT) {
        FlushWrites(loop, conn);
      }
      loop->graveyard.clear();
    }
  }
  // Past the budget: cut the remaining connections loose.
  for (auto* conn : OpenConnections(loop)) CloseConnection(loop, conn);
  loop->graveyard.clear();
}

std::vector<Server::Connection*> Server::OpenConnections(Loop* loop) {
  std::vector<Connection*> open;
  open.reserve(loop->conns.size());
  // Each connection's replies stay ordered within that connection; the
  // visit order across peers cannot reorder any byte stream.
  for (auto& [fd, conn] : loop->conns) {  // NOLINT(unordered-iter)
    open.push_back(conn.get());
  }
  return open;
}

// Blocks until every reload this loop started has reported back, then
// answers them. TaskHandle::Wait runs a task no worker has picked up yet
// on this thread, so a drain never waits on a saturated pool.
void Server::WaitForReloads(Loop* loop) {
  std::vector<util::TaskHandle> tasks;
  for (auto* conn : OpenConnections(loop)) {
    if (conn->reload_pending) tasks.push_back(conn->reload_task);
  }
  for (auto& conn : loop->parked) tasks.push_back(conn->reload_task);
  for (auto& task : tasks) task.Wait();
  OnReloadsDone(loop);
}

}  // namespace net
}  // namespace wikimatch
