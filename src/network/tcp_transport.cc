#include "network/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <random>

#include "crypto/schnorr.h"
#include "network/chaos.h"

namespace brdb {

namespace {

// Fixed transport limits. Frames beyond kMaxFrameBytes (wire/codec.h) are
// refused on every connection.
constexpr size_t kDispatchThreads = 4;  ///< server request-handler pool
constexpr Micros kConnectTimeoutUs = 3'000'000;
constexpr Micros kHandshakeTimeoutUs = 5'000'000;
constexpr Micros kRequestTimeoutUs = 10'000'000;  ///< queries, fetches
constexpr Micros kSubmitTimeoutUs = 30'000'000;   ///< transaction submits

/// Handshake nonces. Not part of the determinism invariant (commit
/// decisions never depend on them), so real entropy is fine — and needed,
/// or a recorded handshake could be replayed.
uint64_t RandomNonce() {
  static std::atomic<uint64_t> mix{0x9e3779b97f4a7c15ULL};
  std::random_device rd;
  return (static_cast<uint64_t>(rd()) << 32) ^ rd() ^
         mix.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed);
}

void SetNodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool ResolveLoopback(const std::string& host, uint16_t port,
                     sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const std::string h = host.empty() ? "127.0.0.1" : host;
  return inet_pton(AF_INET, h.c_str(), &addr->sin_addr) == 1;
}

/// Run `fn` on the loop thread and wait for it. Must not be called from
/// the loop thread itself. Returns false when the loop is stopped (fn ran
/// inline instead — single-threaded at that point).
bool RunInLoopAndWait(EventLoop* loop, std::function<void()> fn) {
  if (loop->InLoopThread()) {
    fn();
    return true;
  }
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool posted = loop->Post([&] {
    fn();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  if (!posted) {
    fn();
    return false;
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return true;
}

Frame MakeStatusFrame(const Status& st, uint64_t seq) {
  Frame f;
  f.kind = FrameKind::kStatusResponse;
  f.seq = seq;
  f.body = StatusResponseBody{st, 0}.Encode();
  return f;
}

}  // namespace

// ---------------- TcpServer ----------------

struct TcpServer::Conn {
  enum class Hs { kAwaitHello, kAwaitProof, kReady };

  uint64_t id = 0;
  int fd = -1;
  FrameAssembler assembler;
  std::deque<std::string> sendq;
  size_t sendq_bytes = 0;
  size_t sendq_off = 0;
  bool want_write = false;

  Hs hs = Hs::kAwaitHello;
  HelloBody hello;
  uint64_t server_nonce = 0;
  bool subscribed_decisions = false;
  EventLoop::TimerId hs_timer = EventLoop::kInvalidTimer;

  struct Pending {
    std::function<void(Result<Frame>)> done;
    EventLoop::TimerId deadline_timer = EventLoop::kInvalidTimer;
  };
  std::map<uint64_t, Pending> pending;  ///< server-initiated reverse RPCs
};

TcpServer::TcpServer(EventLoop* loop, TcpServerOptions options)
    : loop_(loop), options_(std::move(options)) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start(uint16_t port) {
  if (started_.load()) return Status::AlreadyExists("server already started");
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  if (!ResolveLoopback("127.0.0.1", port, &addr)) {
    close(fd);
    return Status::Internal("loopback resolve failed");
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Status::Unavailable(std::string("bind: ") + std::strerror(errno));
  }
  if (listen(fd, 128) != 0) {
    close(fd);
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    close(fd);
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  port_.store(ntohs(bound.sin_port));
  listen_fd_ = fd;
  dispatch_pool_ = std::make_unique<ThreadPool>(kDispatchThreads,
                                                "tcp-dispatch");

  Status add = Status::OK();
  RunInLoopAndWait(loop_, [this, &add] {
    add = loop_->AddFd(listen_fd_, false, [this](uint32_t) { OnAcceptable(); });
  });
  if (!add.ok()) {
    close(listen_fd_);
    listen_fd_ = -1;
    dispatch_pool_.reset();
    return add;
  }
  started_.store(true);
  return Status::OK();
}

void TcpServer::Stop() {
  if (!started_.exchange(false)) return;
  RunInLoopAndWait(loop_, [this] {
    if (listen_fd_ >= 0) {
      loop_->RemoveFd(listen_fd_);
      close(listen_fd_);
      listen_fd_ = -1;
    }
    std::vector<uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) ids.push_back(id);
    for (uint64_t id : ids) {
      CloseConn(id, Status::Unavailable("server stopped"));
    }
  });
  // Join in-flight request handlers: their response Pushes find no
  // connection and drop harmlessly.
  dispatch_pool_.reset();
}

size_t TcpServer::connection_count() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return conn_count_;
}

void TcpServer::OnAcceptable() {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the next readiness retries
    }
    SetNodelay(fd);
    auto conn = std::make_shared<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    uint64_t id = conn->id;
    Status add =
        loop_->AddFd(fd, false, [this, id](uint32_t ev) { OnConnEvent(id, ev); });
    if (!add.ok()) {
      close(fd);
      continue;
    }
    conn->hs_timer = loop_->AddTimer(kHandshakeTimeoutUs, [this, id] {
      auto it = conns_.find(id);
      if (it != conns_.end() && it->second->hs != Conn::Hs::kReady) {
        handshake_rejects_.fetch_add(1, std::memory_order_relaxed);
        CloseConn(id, Status::PermissionDenied("handshake timeout"));
      }
    });
    conns_.emplace(id, std::move(conn));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      conn_count_ = conns_.size();
    }
  }
}

void TcpServer::OnConnEvent(uint64_t conn_id, uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  std::shared_ptr<Conn> conn = it->second;
  if (events & kFdError) {
    CloseConn(conn_id, Status::Unavailable("connection error"));
    return;
  }
  if (events & kFdReadable) {
    char buf[65536];
    while (true) {
      ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        Status fed = conn->assembler.Feed(buf, static_cast<size_t>(n));
        if (!fed.ok()) {
          CloseConn(conn_id, fed);
          return;
        }
        while (true) {
          Frame frame;
          bool have = false;
          Status st = conn->assembler.Next(&frame, &have);
          if (!st.ok()) {
            CloseConn(conn_id, st);
            return;
          }
          if (!have) break;
          HandleFrame(conn, std::move(frame));
          if (conns_.find(conn_id) == conns_.end()) return;  // closed
        }
        continue;
      }
      if (n == 0) {
        CloseConn(conn_id, Status::Unavailable("peer closed connection"));
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConn(conn_id, Status::Unavailable(std::string("recv: ") +
                                             std::strerror(errno)));
      return;
    }
  }
  if (events & kFdWritable) FlushConn(conn);
}

void TcpServer::HandleHandshakeFrame(const std::shared_ptr<Conn>& conn,
                                     const Frame& frame) {
  auto reject = [&](const Status& why) {
    handshake_rejects_.fetch_add(1, std::memory_order_relaxed);
    AuthResultBody result;
    result.status = why;
    result.server_name = options_.name;
    Frame f;
    f.kind = FrameKind::kAuthResult;
    f.seq = frame.seq;
    f.body = result.Encode();
    SendOnConn(conn, f);  // best-effort courtesy before the close
    CloseConn(conn->id, why);
  };

  if (conn->hs == Conn::Hs::kAwaitHello) {
    if (frame.kind != FrameKind::kHello) {
      reject(Status::PermissionDenied("expected hello before any frame"));
      return;
    }
    auto hello = HelloBody::Decode(frame.body);
    if (!hello.ok()) {
      reject(hello.status());
      return;
    }
    if (hello.value().version != 1) {
      reject(Status::NotSupported("unknown protocol version"));
      return;
    }
    // The dialer must be a registered identity, and a connection claiming
    // peer/orderer purpose must hold that role — a client key cannot
    // impersonate a node to inject relayed network messages.
    auto role = options_.registry->RoleOf(hello.value().name);
    if (!role.ok()) {
      reject(Status::PermissionDenied("unknown identity: " +
                                      hello.value().name));
      return;
    }
    auto purpose = static_cast<ChannelPurpose>(hello.value().purpose);
    if ((purpose == ChannelPurpose::kPeerNode &&
         role.value() != PrincipalRole::kPeer) ||
        (purpose == ChannelPurpose::kOrderer &&
         role.value() != PrincipalRole::kOrderer)) {
      reject(Status::PermissionDenied("purpose does not match role"));
      return;
    }
    conn->hello = std::move(hello).value();
    conn->server_nonce = RandomNonce();
    AuthChallengeBody challenge;
    challenge.server_name = options_.name;
    challenge.nonce = conn->server_nonce;
    challenge.signature =
        Schnorr::Sign(options_.keys,
                      HandshakeTranscript("s", conn->hello.name, options_.name,
                                          conn->hello.nonce,
                                          conn->server_nonce))
            .Serialize();
    Frame f;
    f.kind = FrameKind::kAuthChallenge;
    f.seq = frame.seq;
    f.body = challenge.Encode();
    conn->hs = Conn::Hs::kAwaitProof;
    SendOnConn(conn, f);
    return;
  }

  // kAwaitProof.
  if (frame.kind != FrameKind::kAuthProof) {
    reject(Status::PermissionDenied("expected auth proof"));
    return;
  }
  auto proof = AuthProofBody::Decode(frame.body);
  if (!proof.ok()) {
    reject(proof.status());
    return;
  }
  auto sig = Signature::Deserialize(proof.value().signature);
  if (!sig.ok()) {
    reject(Status::PermissionDenied("malformed signature"));
    return;
  }
  Status verified = options_.registry->VerifySignature(
      conn->hello.name,
      HandshakeTranscript("c", conn->hello.name, options_.name,
                          conn->hello.nonce, conn->server_nonce),
      sig.value());
  if (!verified.ok()) {
    reject(Status::PermissionDenied("channel auth failed: " +
                                    verified.message()));
    return;
  }
  conn->hs = Conn::Hs::kReady;
  if (conn->hs_timer != EventLoop::kInvalidTimer) {
    loop_->CancelTimer(conn->hs_timer);
    conn->hs_timer = EventLoop::kInvalidTimer;
  }
  AuthResultBody result;
  result.status = Status::OK();
  result.server_name = options_.name;
  result.chain_height = options_.chain_height ? options_.chain_height() : 0;
  Frame f;
  f.kind = FrameKind::kAuthResult;
  f.seq = frame.seq;
  f.body = result.Encode();
  SendOnConn(conn, f);
  if (options_.on_authenticated) {
    options_.on_authenticated(conn->id, conn->hello);
  }
}

void TcpServer::HandleFrame(const std::shared_ptr<Conn>& conn, Frame frame) {
  if (conn->hs != Conn::Hs::kReady) {
    HandleHandshakeFrame(conn, frame);
    return;
  }
  switch (frame.kind) {
    case FrameKind::kSubscribeDecisions:
      conn->subscribed_decisions = true;
      SendOnConn(conn, MakeStatusFrame(Status::OK(), frame.seq));
      return;
    case FrameKind::kNetRelay: {
      auto body = NetRelayBody::Decode(frame.body);
      if (body.ok() && options_.on_relay) {
        options_.on_relay(conn->hello.name, body.value());
      }
      return;  // one-way; malformed relays drop like a lost datagram
    }
    case FrameKind::kHello:
    case FrameKind::kAuthChallenge:
    case FrameKind::kAuthProof:
    case FrameKind::kAuthResult:
      CloseConn(conn->id,
                Status::Corruption("handshake frame on established channel"));
      return;
    default:
      break;
  }
  if (IsResponseFrameKind(frame.kind)) {
    auto it = conn->pending.find(frame.seq);
    if (it == conn->pending.end()) return;  // late reply past its deadline
    auto done = std::move(it->second.done);
    if (it->second.deadline_timer != EventLoop::kInvalidTimer) {
      loop_->CancelTimer(it->second.deadline_timer);
    }
    conn->pending.erase(it);
    done(std::move(frame));
    return;
  }
  if (!IsRequestFrameKind(frame.kind)) {
    CloseConn(conn->id, Status::Corruption("unexpected frame kind"));
    return;
  }
  if (!options_.on_request) {
    SendOnConn(conn, MakeStatusFrame(
                         Status::NotSupported("no request handler"), frame.seq));
    return;
  }
  // Answer off the loop thread: a slow query must not stall every other
  // connection this server hosts.
  uint64_t conn_id = conn->id;
  std::string peer_name = conn->hello.name;
  auto purpose = static_cast<ChannelPurpose>(conn->hello.purpose);
  dispatch_pool_->Submit(
      [this, conn_id, peer_name, purpose, frame = std::move(frame)] {
        Frame response = options_.on_request(peer_name, purpose, frame);
        response.seq = frame.seq;
        Push(conn_id, std::move(response));
      });
}

void TcpServer::SendOnConn(const std::shared_ptr<Conn>& conn,
                           const Frame& frame) {
  std::string bytes = EncodeFramed(frame);
  if (conn->sendq_bytes + bytes.size() > options_.max_send_queue_bytes) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  conn->sendq_bytes += bytes.size();
  conn->sendq.push_back(std::move(bytes));
  FlushConn(conn);
}

void TcpServer::FlushConn(const std::shared_ptr<Conn>& conn) {
  while (!conn->sendq.empty()) {
    const std::string& front = conn->sendq.front();
    ssize_t n = send(conn->fd, front.data() + conn->sendq_off,
                     front.size() - conn->sendq_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConn(conn->id, Status::Unavailable(std::string("send: ") +
                                              std::strerror(errno)));
      return;
    }
    conn->sendq_off += static_cast<size_t>(n);
    conn->sendq_bytes -= static_cast<size_t>(n);
    if (conn->sendq_off == front.size()) {
      conn->sendq.pop_front();
      conn->sendq_off = 0;
    }
  }
  bool want = !conn->sendq.empty();
  if (want != conn->want_write) {
    conn->want_write = want;
    loop_->SetWantWrite(conn->fd, want);
  }
}

void TcpServer::CloseConn(uint64_t conn_id, const Status& why) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  std::shared_ptr<Conn> conn = std::move(it->second);
  conns_.erase(it);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    conn_count_ = conns_.size();
  }
  if (conn->hs_timer != EventLoop::kInvalidTimer) {
    loop_->CancelTimer(conn->hs_timer);
  }
  for (auto& [seq, pending] : conn->pending) {
    if (pending.deadline_timer != EventLoop::kInvalidTimer) {
      loop_->CancelTimer(pending.deadline_timer);
    }
    pending.done(why.ok() ? Status::Unavailable("connection closed") : why);
  }
  loop_->RemoveFd(conn->fd);
  close(conn->fd);
  if (conn->hs == Conn::Hs::kReady && options_.on_closed) {
    options_.on_closed(conn_id, conn->hello.name);
  }
}

void TcpServer::Push(uint64_t conn_id, Frame frame) {
  bool posted = loop_->Post([this, conn_id, frame = std::move(frame)] {
    auto it = conns_.find(conn_id);
    if (it == conns_.end() || it->second->hs != Conn::Hs::kReady) {
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    SendOnConn(it->second, frame);
  });
  if (!posted) frames_dropped_.fetch_add(1, std::memory_order_relaxed);
}

void TcpServer::PushToDecisionSubscribers(Frame frame) {
  bool posted = loop_->Post([this, frame = std::move(frame)] {
    for (auto& [id, conn] : conns_) {
      if (conn->hs == Conn::Hs::kReady && conn->subscribed_decisions) {
        SendOnConn(conn, frame);
      }
    }
  });
  if (!posted) frames_dropped_.fetch_add(1, std::memory_order_relaxed);
}

void TcpServer::Call(uint64_t conn_id, Frame request, Micros deadline_us,
                     std::function<void(Result<Frame>)> done) {
  bool posted = loop_->Post([this, conn_id, request = std::move(request),
                             deadline_us, done = std::move(done)]() mutable {
    auto it = conns_.find(conn_id);
    if (it == conns_.end() || it->second->hs != Conn::Hs::kReady) {
      done(Status::Unavailable("connection gone"));
      return;
    }
    std::shared_ptr<Conn> conn = it->second;
    uint64_t seq = next_seq_++;
    request.seq = seq;
    std::string bytes = EncodeFramed(request);
    if (conn->sendq_bytes + bytes.size() > options_.max_send_queue_bytes) {
      done(Status::Unavailable("send queue full"));
      return;
    }
    Conn::Pending pending;
    pending.done = std::move(done);
    pending.deadline_timer =
        loop_->AddTimer(deadline_us, [this, conn_id, seq] {
          auto conn_it = conns_.find(conn_id);
          if (conn_it == conns_.end()) return;
          auto pend_it = conn_it->second->pending.find(seq);
          if (pend_it == conn_it->second->pending.end()) return;
          auto cb = std::move(pend_it->second.done);
          conn_it->second->pending.erase(pend_it);
          cb(Status::Unavailable("request deadline exceeded"));
        });
    conn->pending.emplace(seq, std::move(pending));
    conn->sendq_bytes += bytes.size();
    conn->sendq.push_back(std::move(bytes));
    FlushConn(conn);
  });
  if (!posted) done(Status::Unavailable("event loop stopped"));
}

Result<Frame> TcpServer::CallBlocking(uint64_t conn_id, Frame request,
                                      Micros deadline_us) {
  assert(!loop_->InLoopThread() && "blocking call would deadlock the loop");
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Result<Frame> result = Status::Unavailable("unresolved");
  Call(conn_id, std::move(request), deadline_us, [&](Result<Frame> r) {
    std::lock_guard<std::mutex> lock(mu);
    result = std::move(r);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return result;
}

// ---------------- FrameClient ----------------

FrameClient::FrameClient(EventLoop* loop, FrameClientOptions options)
    : loop_(loop), options_(std::move(options)) {}

FrameClient::~FrameClient() { Shutdown(); }

void FrameClient::Connect() {
  loop_->Post([this] {
    if (state_ == State::kIdle) DoConnect();
  });
}

void FrameClient::Shutdown() {
  if (shutdown_.exchange(true)) return;
  RunInLoopAndWait(loop_, [this] {
    if (reconnect_timer_ != EventLoop::kInvalidTimer) {
      loop_->CancelTimer(reconnect_timer_);
      reconnect_timer_ = EventLoop::kInvalidTimer;
    }
    FailConnection(Status::Unavailable("client shut down"));
    state_ = State::kShutdown;
  });
  std::lock_guard<std::mutex> lock(ready_mu_);
  ready_cv_.notify_all();
}

bool FrameClient::WaitReady(Micros timeout_us) {
  std::unique_lock<std::mutex> lock(ready_mu_);
  ready_cv_.wait_for(lock, std::chrono::microseconds(timeout_us), [this] {
    return ready_.load() || shutdown_.load();
  });
  return ready_.load();
}

void FrameClient::DoConnect() {
  if (shutdown_.load() || state_ != State::kIdle) return;
  reconnect_timer_ = EventLoop::kInvalidTimer;
  sockaddr_in addr;
  if (!ResolveLoopback(options_.host, options_.port, &addr)) {
    ScheduleReconnect();
    return;
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    ScheduleReconnect();
    return;
  }
  SetNodelay(fd);
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    ScheduleReconnect();
    return;
  }
  fd_ = fd;
  state_ = State::kConnecting;
  Status add =
      loop_->AddFd(fd_, true, [this](uint32_t ev) { OnSocketEvent(ev); });
  if (!add.ok()) {
    close(fd_);
    fd_ = -1;
    state_ = State::kIdle;
    ScheduleReconnect();
    return;
  }
  handshake_timer_ = loop_->AddTimer(kConnectTimeoutUs, [this] {
    handshake_timer_ = EventLoop::kInvalidTimer;
    if (state_ == State::kConnecting) {
      FailConnection(Status::Unavailable("connect timeout"));
    }
  });
  if (rc == 0) OnConnected();
}

void FrameClient::OnSocketEvent(uint32_t events) {
  if (state_ == State::kConnecting) {
    if (events & (kFdWritable | kFdError)) {
      int err = 0;
      socklen_t len = sizeof(err);
      getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        FailConnection(Status::Unavailable(std::string("connect: ") +
                                           std::strerror(err)));
        return;
      }
      OnConnected();
    }
    return;
  }
  if (events & kFdError) {
    FailConnection(Status::Unavailable("connection error"));
    return;
  }
  if (events & kFdReadable) {
    char buf[65536];
    while (fd_ >= 0) {
      ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        if (options_.counters) {
          options_.counters->bytes_received.fetch_add(
              static_cast<uint64_t>(n), std::memory_order_relaxed);
        }
        Status fed = assembler_.Feed(buf, static_cast<size_t>(n));
        if (!fed.ok()) {
          FailConnection(fed);
          return;
        }
        while (true) {
          Frame frame;
          bool have = false;
          Status st = assembler_.Next(&frame, &have);
          if (!st.ok()) {
            FailConnection(st);
            return;
          }
          if (!have) break;
          if (options_.counters) {
            options_.counters->frames_received.fetch_add(
                1, std::memory_order_relaxed);
          }
          OnFrame(std::move(frame));
          if (fd_ < 0) return;  // handler failed the connection
        }
        continue;
      }
      if (n == 0) {
        FailConnection(Status::Unavailable("server closed connection"));
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      FailConnection(
          Status::Unavailable(std::string("recv: ") + std::strerror(errno)));
      return;
    }
  }
  if ((events & kFdWritable) && fd_ >= 0) Flush();
}

void FrameClient::OnConnected() {
  if (handshake_timer_ != EventLoop::kInvalidTimer) {
    loop_->CancelTimer(handshake_timer_);
  }
  loop_->SetWantWrite(fd_, false);
  state_ = State::kAwaitChallenge;
  client_nonce_ = RandomNonce();
  HelloBody hello;
  hello.version = 1;
  hello.name = options_.name;
  hello.purpose = static_cast<uint8_t>(options_.purpose);
  hello.nonce = client_nonce_;
  hello.chain_height = options_.chain_height ? options_.chain_height() : 0;
  Frame f;
  f.kind = FrameKind::kHello;
  f.seq = NextSeq();
  f.body = hello.Encode();
  SendFrameLocked(f);
  handshake_timer_ = loop_->AddTimer(kHandshakeTimeoutUs, [this] {
    handshake_timer_ = EventLoop::kInvalidTimer;
    if (state_ == State::kAwaitChallenge || state_ == State::kAwaitResult) {
      FailConnection(Status::Unavailable("handshake timeout"));
    }
  });
}

void FrameClient::HandleHandshakeFrame(const Frame& frame) {
  if (state_ == State::kAwaitChallenge) {
    if (frame.kind == FrameKind::kAuthResult) {
      // Early verdict: the server refused our hello.
      auto result = AuthResultBody::Decode(frame.body);
      FailConnection(result.ok() && !result.value().status.ok()
                         ? result.value().status
                         : Status::PermissionDenied("server refused hello"));
      return;
    }
    if (frame.kind != FrameKind::kAuthChallenge) {
      FailConnection(Status::Corruption("expected auth challenge"));
      return;
    }
    auto challenge = AuthChallengeBody::Decode(frame.body);
    if (!challenge.ok()) {
      FailConnection(challenge.status());
      return;
    }
    // Bind the connection to the *intended* peer identity: a valid
    // signature from some other registered server must not pass.
    if (!options_.expected_server.empty() &&
        challenge.value().server_name != options_.expected_server) {
      FailConnection(Status::PermissionDenied(
          "server identity mismatch: got " + challenge.value().server_name));
      return;
    }
    auto sig = Signature::Deserialize(challenge.value().signature);
    if (!sig.ok()) {
      FailConnection(Status::PermissionDenied("malformed server signature"));
      return;
    }
    server_nonce_ = challenge.value().nonce;
    Status verified = options_.registry->VerifySignature(
        challenge.value().server_name,
        HandshakeTranscript("s", options_.name, challenge.value().server_name,
                            client_nonce_, server_nonce_),
        sig.value());
    if (!verified.ok()) {
      FailConnection(Status::PermissionDenied("server auth failed: " +
                                              verified.message()));
      return;
    }
    AuthProofBody proof;
    proof.signature =
        Schnorr::Sign(options_.keys,
                      HandshakeTranscript("c", options_.name,
                                          challenge.value().server_name,
                                          client_nonce_, server_nonce_))
            .Serialize();
    Frame f;
    f.kind = FrameKind::kAuthProof;
    f.seq = frame.seq;
    f.body = proof.Encode();
    state_ = State::kAwaitResult;
    SendFrameLocked(f);
    return;
  }
  // kAwaitResult.
  if (frame.kind != FrameKind::kAuthResult) {
    FailConnection(Status::Corruption("expected auth result"));
    return;
  }
  auto result = AuthResultBody::Decode(frame.body);
  if (!result.ok()) {
    FailConnection(result.status());
    return;
  }
  if (!result.value().status.ok()) {
    FailConnection(result.value().status);
    return;
  }
  EnterReady();
}

void FrameClient::EnterReady() {
  if (handshake_timer_ != EventLoop::kInvalidTimer) {
    loop_->CancelTimer(handshake_timer_);
    handshake_timer_ = EventLoop::kInvalidTimer;
  }
  state_ = State::kReady;
  backoff_us_ = 0;
  // on_connected runs BEFORE the ready broadcast, so a WaitReady() caller
  // observes its effects (e.g. the transport's decision resubscription is
  // already in the send queue, ordered ahead of any later frame). Send()
  // from the callback works off the loop-thread state, not the flag.
  if (options_.on_connected) options_.on_connected();
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    ready_.store(true, std::memory_order_release);
    ready_cv_.notify_all();
  }
}

void FrameClient::OnFrame(Frame frame) {
  if (state_ != State::kReady) {
    HandleHandshakeFrame(frame);
    return;
  }
  if (IsResponseFrameKind(frame.kind)) {
    auto it = pending_.find(frame.seq);
    if (it == pending_.end()) return;  // reply past its deadline
    auto done = std::move(it->second.done);
    if (it->second.deadline_timer != EventLoop::kInvalidTimer) {
      loop_->CancelTimer(it->second.deadline_timer);
    }
    pending_.erase(it);
    done(std::move(frame), true);
    return;
  }
  if (IsRequestFrameKind(frame.kind)) {
    // Reverse RPC (the orderer pulls catch-up blocks from the peer that
    // dialed it).
    Frame response =
        options_.on_request
            ? options_.on_request(frame)
            : MakeStatusFrame(Status::NotSupported("no request handler"),
                              frame.seq);
    response.seq = frame.seq;
    SendFrameLocked(response);
    return;
  }
  if (options_.on_event) options_.on_event(frame);
}

void FrameClient::SendFrameLocked(const Frame& frame) {
  std::string bytes = EncodeFramed(frame);
  if (options_.counters) {
    options_.counters->frames_sent.fetch_add(1, std::memory_order_relaxed);
    options_.counters->bytes_sent.fetch_add(bytes.size(),
                                            std::memory_order_relaxed);
  }
  sendq_bytes_ += bytes.size();
  sendq_.push_back(std::move(bytes));
  approx_queue_bytes_.store(sendq_bytes_, std::memory_order_relaxed);
  Flush();
}

void FrameClient::Flush() {
  while (!sendq_.empty()) {
    const std::string& front = sendq_.front();
    ssize_t n = send(fd_, front.data() + sendq_off_,
                     front.size() - sendq_off_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      FailConnection(
          Status::Unavailable(std::string("send: ") + std::strerror(errno)));
      return;
    }
    sendq_off_ += static_cast<size_t>(n);
    sendq_bytes_ -= static_cast<size_t>(n);
    if (sendq_off_ == front.size()) {
      sendq_.pop_front();
      sendq_off_ = 0;
    }
  }
  approx_queue_bytes_.store(sendq_bytes_, std::memory_order_relaxed);
  loop_->SetWantWrite(fd_, !sendq_.empty());
}

void FrameClient::FailConnection(const Status& why) {
  if (state_ == State::kShutdown) return;
  bool was_ready = state_ == State::kReady;
  if (handshake_timer_ != EventLoop::kInvalidTimer) {
    loop_->CancelTimer(handshake_timer_);
    handshake_timer_ = EventLoop::kInvalidTimer;
  }
  if (fd_ >= 0) {
    loop_->RemoveFd(fd_);
    close(fd_);
    fd_ = -1;
  }
  assembler_ = FrameAssembler();
  sendq_.clear();
  sendq_bytes_ = 0;
  sendq_off_ = 0;
  approx_queue_bytes_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    ready_.store(false, std::memory_order_release);
    ready_cv_.notify_all();
  }
  state_ = State::kIdle;
  // Every pending request had been handed to the connection: its fate is
  // ambiguous (maybe the server processed it), so report sent=true and let
  // the caller's policy decide.
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [seq, p] : pending) {
    if (p.deadline_timer != EventLoop::kInvalidTimer) {
      loop_->CancelTimer(p.deadline_timer);
    }
    p.done(why, true);
  }
  if (was_ready && options_.on_disconnected) options_.on_disconnected(why);
  if (options_.auto_reconnect && !shutdown_.load()) ScheduleReconnect();
}

void FrameClient::ScheduleReconnect() {
  if (shutdown_.load() || reconnect_timer_ != EventLoop::kInvalidTimer) {
    return;
  }
  backoff_us_ = backoff_us_ == 0
                    ? options_.reconnect_min_us
                    : std::min<Micros>(backoff_us_ * 2,
                                       options_.reconnect_max_us);
  reconnect_timer_ = loop_->AddTimer(backoff_us_, [this] {
    reconnect_timer_ = EventLoop::kInvalidTimer;
    if (state_ == State::kIdle) DoConnect();
  });
}

void FrameClient::Call(Frame request, Micros deadline_us,
                       std::function<void(Result<Frame>, bool sent)> done) {
  if (request.seq == 0) request.seq = NextSeq();
  bool posted = loop_->Post([this, request = std::move(request), deadline_us,
                             done = std::move(done)]() mutable {
    if (state_ != State::kReady) {
      done(Status::Unavailable("not connected"), false);
      return;
    }
    if (sendq_bytes_ + request.body.size() + 64 >
        options_.max_send_queue_bytes) {
      done(Status::Unavailable("send queue full (backpressure)"), false);
      return;
    }
    uint64_t seq = request.seq;
    Pending pending;
    pending.done = std::move(done);
    pending.deadline_timer = loop_->AddTimer(deadline_us, [this, seq] {
      auto it = pending_.find(seq);
      if (it == pending_.end()) return;
      auto cb = std::move(it->second.done);
      pending_.erase(it);
      cb(Status::Unavailable("request deadline exceeded"), true);
    });
    pending_.emplace(seq, std::move(pending));
    SendFrameLocked(request);
    // Chaos: an armed connection reset fires after the frame is written —
    // the request may or may not reach the server, so FailConnection fails
    // every pending with sent=true (the ambiguous case the retry policies
    // must handle) and bounded-backoff reconnect kicks in.
    if (options_.fault_injector != nullptr &&
        options_.fault_injector->ConsumeConnectionReset(
            options_.expected_server)) {
      FailConnection(Status::Unavailable("injected connection reset"));
    }
  });
  if (!posted) done(Status::Unavailable("event loop stopped"), false);
}

Result<Frame> FrameClient::CallBlocking(Frame request, Micros deadline_us,
                                        bool* sent) {
  assert(!loop_->InLoopThread() && "blocking call would deadlock the loop");
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool was_sent = false;
  Result<Frame> result = Status::Unavailable("unresolved");
  Call(std::move(request), deadline_us, [&](Result<Frame> r, bool s) {
    std::lock_guard<std::mutex> lock(mu);
    result = std::move(r);
    was_sent = s;
    done = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  if (sent != nullptr) *sent = was_sent;
  return result;
}

Status FrameClient::Send(Frame frame) {
  // On the loop thread the connection state is authoritative — this lets
  // on_connected (which runs before the ready_ broadcast) enqueue frames.
  if (!Ready() && !(loop_->InLoopThread() && state_ == State::kReady)) {
    return Status::Unavailable("not connected");
  }
  // Backpressure accounts bytes the moment they are ACCEPTED, not when the
  // loop thread gets around to queueing them: posted_bytes_ covers the
  // posted-but-unprocessed window, so a caller outrunning the loop thread
  // hits the cap instead of piling frames into the post queue unbounded.
  const size_t cost = frame.body.size() + 64;
  size_t prior = posted_bytes_.fetch_add(cost, std::memory_order_relaxed);
  if (approx_queue_bytes_.load(std::memory_order_relaxed) + prior + cost >
      options_.max_send_queue_bytes) {
    posted_bytes_.fetch_sub(cost, std::memory_order_relaxed);
    return Status::Unavailable("send queue full (backpressure)");
  }
  if (frame.seq == 0) frame.seq = NextSeq();
  bool posted = loop_->Post([this, cost, frame = std::move(frame)] {
    posted_bytes_.fetch_sub(cost, std::memory_order_relaxed);
    if (state_ != State::kReady) return;
    if (sendq_bytes_ + frame.body.size() + 64 >
        options_.max_send_queue_bytes) {
      return;  // raced full: drop, as promised by the best-effort contract
    }
    SendFrameLocked(frame);
  });
  if (!posted) {
    posted_bytes_.fetch_sub(cost, std::memory_order_relaxed);
    return Status::Unavailable("event loop stopped");
  }
  return Status::OK();
}

// ---------------- TcpTransport ----------------

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)),
      selector_(options_.peers.size(), options_.cooldown_us) {}

TcpTransport::~TcpTransport() {
  for (auto& client : clients_) {
    if (client) client->Shutdown();
  }
  loop_.Stop();
}

Status TcpTransport::Start() {
  BRDB_RETURN_NOT_OK(loop_.Start());
  clients_.reserve(options_.peers.size());
  for (size_t i = 0; i < options_.peers.size(); ++i) {
    const TcpPeerAddress& peer = options_.peers[i];
    FrameClientOptions copts;
    copts.name = options_.client_name;
    copts.keys = options_.client_keys;
    copts.registry = options_.registry;
    copts.purpose = ChannelPurpose::kClientSession;
    copts.host = peer.host;
    copts.port = peer.port;
    copts.expected_server = peer.name;
    copts.max_send_queue_bytes = options_.max_send_queue_bytes;
    copts.counters = &counters_;
    copts.fault_injector = options_.fault_injector;
    copts.on_event = [this, i](const Frame& frame) { OnClientEvent(i, frame); };
    copts.on_connected = [this, i] {
      if (want_decisions_.load(std::memory_order_acquire)) SendSubscribe(i);
    };
    clients_.push_back(std::make_unique<FrameClient>(&loop_, std::move(copts)));
    clients_.back()->Connect();
  }
  return Status::OK();
}

bool TcpTransport::WaitReady(Micros timeout_us) {
  Micros deadline = RealClock::Shared()->NowMicros() + timeout_us;
  for (auto& client : clients_) {
    Micros left = deadline - RealClock::Shared()->NowMicros();
    if (left < 0 || !client->WaitReady(left)) return false;
  }
  return true;
}

std::string TcpTransport::peer_name(size_t peer) const {
  return peer < options_.peers.size() ? options_.peers[peer].name
                                      : std::string();
}

Result<Frame> TcpTransport::CallPeer(size_t peer, const Frame& request,
                                     Micros deadline_us, bool* sent) {
  if (peer >= clients_.size()) {
    if (sent != nullptr) *sent = false;
    return Status::InvalidArgument("peer index out of range");
  }
  Frame req = request;
  req.seq = 0;  // fresh correlation id per attempt
  return clients_[peer]->CallBlocking(std::move(req), deadline_us, sent);
}

Result<std::vector<Status>> TcpTransport::Submit(
    const std::vector<Transaction>& txs) {
  Frame req;
  req.kind = FrameKind::kSubmit;
  SubmitRequestBody body;
  body.encoded_txs.reserve(txs.size());
  for (const Transaction& tx : txs) body.encoded_txs.push_back(tx.Encode());
  req.body = body.Encode();

  Status last = Status::Unavailable("no peers");
  for (size_t attempt = 0; attempt < std::max<size_t>(clients_.size(), 1);
       ++attempt) {
    size_t peer = selector_.Next();
    bool sent = false;
    auto resp = CallPeer(peer, req, kSubmitTimeoutUs, &sent);
    if (!resp.ok()) {
      selector_.ReportFailure(peer);
      // A submit that may have reached the peer is ambiguous — retrying
      // elsewhere could double-submit, so surface it to the Session's
      // policy. Only a provably unsent request fails over silently.
      if (sent) return resp.status();
      last = resp.status();
      continue;
    }
    auto decoded = SubmitResponseBody::Decode(resp.value().body);
    if (!decoded.ok()) return decoded.status();
    if (decoded.value().status.ok()) {
      selector_.ReportSuccess(peer);
      if (decoded.value().tx_statuses.size() != txs.size()) {
        return Status::Internal("submit response arity mismatch");
      }
      return std::move(decoded).value().tx_statuses;
    }
    // The server answered without accepting (e.g. "peer not running"):
    // unambiguous, safe to try the next peer.
    last = decoded.value().status;
    selector_.ReportFailure(peer);
  }
  return last;
}

Result<BlockNum> TcpTransport::Height() {
  Frame req;
  req.kind = FrameKind::kHeight;
  Status last = Status::Unavailable("no peers");
  for (size_t attempt = 0; attempt < std::max<size_t>(clients_.size(), 1);
       ++attempt) {
    size_t peer = selector_.Next();
    auto resp = CallPeer(peer, req, kRequestTimeoutUs, nullptr);
    if (!resp.ok()) {
      selector_.ReportFailure(peer);
      last = resp.status();
      continue;
    }
    auto decoded = StatusResponseBody::Decode(resp.value().body);
    if (!decoded.ok()) return decoded.status();
    if (decoded.value().status.ok()) {
      selector_.ReportSuccess(peer);
      return static_cast<BlockNum>(decoded.value().height);
    }
    last = decoded.value().status;
    selector_.ReportFailure(peer);
  }
  return last;
}

Result<sql::ResultSet> TcpTransport::Query(const QueryRequest& req,
                                           size_t pin_peer) {
  Frame frame;
  frame.kind = FrameKind::kQuery;
  frame.body =
      QueryRequestBody{req.user, req.sql, req.params, req.provenance}.Encode();

  const bool pinned = pin_peer != kAnyPeer;
  const size_t attempts = pinned ? 1 : std::max<size_t>(clients_.size(), 1);
  Status last = Status::Unavailable("no peers");
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    size_t peer = pinned ? pin_peer : selector_.Next();
    auto resp = CallPeer(peer, frame, kRequestTimeoutUs, nullptr);
    if (!resp.ok()) {
      // Reads are idempotent: connection loss or timeout retries on the
      // next peer without ambiguity.
      if (!pinned) selector_.ReportFailure(peer);
      last = resp.status();
      continue;
    }
    auto decoded = ResultResponseBody::Decode(resp.value().body);
    if (!decoded.ok()) return decoded.status();
    if (decoded.value().status.code() == StatusCode::kUnavailable && !pinned) {
      selector_.ReportFailure(peer);
      last = decoded.value().status;
      continue;
    }
    if (!pinned) selector_.ReportSuccess(peer);
    if (!decoded.value().status.ok()) return decoded.value().status;
    sql::ResultSet rs;
    rs.columns = std::move(decoded.value().columns);
    rs.rows = std::move(decoded.value().rows);
    rs.affected = decoded.value().affected;
    return rs;
  }
  return last;
}

Result<sql::PreparedInfo> TcpTransport::Prepare(const std::string& user,
                                                const std::string& sql) {
  Frame frame;
  frame.kind = FrameKind::kPrepare;
  frame.body = PrepareRequestBody{user, sql}.Encode();

  Status last = Status::Unavailable("no peers");
  for (size_t attempt = 0; attempt < std::max<size_t>(clients_.size(), 1);
       ++attempt) {
    size_t peer = selector_.Next();
    auto resp = CallPeer(peer, frame, kRequestTimeoutUs, nullptr);
    if (!resp.ok()) {
      selector_.ReportFailure(peer);
      last = resp.status();
      continue;
    }
    auto decoded = PrepareResponseBody::Decode(resp.value().body);
    if (!decoded.ok()) return decoded.status();
    if (decoded.value().status.code() == StatusCode::kUnavailable) {
      selector_.ReportFailure(peer);
      last = decoded.value().status;
      continue;
    }
    selector_.ReportSuccess(peer);
    if (!decoded.value().status.ok()) return decoded.value().status;
    // Same wire-byte hygiene as InProcessTransport::Prepare: never trust
    // network bytes as enum values.
    if (decoded.value().statement_type >
        static_cast<uint8_t>(sql::StatementType::kDropTable)) {
      return Status::Corruption("prepare response: invalid statement type");
    }
    sql::PreparedInfo info;
    info.param_count = static_cast<int>(decoded.value().param_count);
    for (uint8_t t : decoded.value().param_types) {
      info.param_types.push_back(t > static_cast<uint8_t>(ValueType::kText)
                                     ? ValueType::kNull
                                     : static_cast<ValueType>(t));
    }
    info.type =
        static_cast<sql::StatementType>(decoded.value().statement_type);
    return info;
  }
  return last;
}

void TcpTransport::SendSubscribe(size_t peer) {
  Frame f;
  f.kind = FrameKind::kSubscribeDecisions;
  clients_[peer]->Send(std::move(f));
}

uint64_t TcpTransport::Subscribe(DecisionFn fn) {
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    id = next_sub_id_++;
    subscribers_.emplace(id, std::move(fn));
  }
  if (!want_decisions_.exchange(true, std::memory_order_acq_rel)) {
    for (size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i]->Ready()) SendSubscribe(i);
    }
  }
  return id;
}

void TcpTransport::Unsubscribe(uint64_t id) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  subscribers_.erase(id);
}

void TcpTransport::OnClientEvent(size_t peer, const Frame& frame) {
  (void)peer;  // the event names its own peer; connections just carry it
  if (frame.kind != FrameKind::kDecisionEvent) return;
  auto decoded = DecisionEventBody::Decode(frame.body);
  if (!decoded.ok()) return;
  TxnNotification n{decoded.value().txid, decoded.value().status,
                    decoded.value().block};
  std::lock_guard<std::mutex> lock(subs_mu_);
  for (const auto& [id, fn] : subscribers_) fn(decoded.value().peer, n);
}

}  // namespace brdb
