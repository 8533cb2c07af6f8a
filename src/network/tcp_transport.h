// TCP socket transport: the real-network counterpart of
// InProcessTransport (core/transport.h). Every message is the same
// wire/codec Frame the in-process transport already round-trips — a socket
// changes where the frame bytes go, not what they mean.
//
// Pieces:
//  * TcpServer — hosts a frame endpoint (a database node or the orderer)
//    on a nonblocking listen socket driven by an EventLoop. Accepted
//    connections must complete a Schnorr-signed channel-auth handshake
//    binding the connection to a registered identity before any other
//    frame is accepted. Request frames are answered via a small dispatch
//    pool; one-way kNetRelay frames carry forwarded SimNetwork messages
//    between process domains; the server can also push frames (decision
//    events, blocks) and issue reverse RPCs (orderer §3.6 catch-up) down
//    accepted connections.
//  * FrameClient — one multiplexed connection to one server: concurrent
//    requests correlate by Frame::seq, each with its own deadline timer;
//    bounded-backoff reconnect; bounded send queue (kUnavailable when
//    full). Every failure reports whether the request was ever handed to
//    the connection ("sent") so callers can distinguish safe-to-retry
//    from ambiguous.
//  * TcpTransport — the client Transport: one FrameClient per peer,
//    PeerSelector failover. Idempotent reads (Query/Prepare/Height) retry
//    on any failure; Submits retry only when provably not sent, otherwise
//    the failure surfaces to the Session layer's policy.
//
// Sockets bind and dial loopback only: the Schnorr scheme is a toy
// (crypto/schnorr.h) and must not face a real network.
#ifndef BRDB_NETWORK_TCP_TRANSPORT_H_
#define BRDB_NETWORK_TCP_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/transport.h"
#include "crypto/identity.h"
#include "network/event_loop.h"
#include "wire/codec.h"

namespace brdb {

class NetworkFaultInjector;

/// Bytes one connection may queue for sending: a server drops a push (or
/// fails a reverse RPC) beyond it, and it is FrameClientOptions' default
/// (Send then reports kUnavailable).
constexpr size_t kMaxSendQueueBytes = 8u << 20;

// ---------------- TcpServer ----------------

struct TcpServerOptions {
  std::string name;  ///< identity this server authenticates as
  KeyPair keys;
  std::shared_ptr<CertificateRegistry> registry;

  /// Answer an authenticated request frame. Runs on the dispatch pool (so
  /// a slow query never stalls the event loop); the returned frame is
  /// pushed back with the request's seq.
  std::function<Frame(const std::string& peer_name, ChannelPurpose purpose,
                      const Frame& request)>
      on_request;

  /// One-way kNetRelay frame from an authenticated peer/orderer
  /// connection. Runs on the loop thread — must be quick (hand off to the
  /// local SimNetwork, which has its own delivery thread).
  std::function<void(const std::string& peer_name, const NetRelayBody& msg)>
      on_relay;

  /// Committed chain height reported in kAuthResult (may be null).
  std::function<uint64_t()> chain_height;

  /// Lifecycle callbacks (loop thread; may be null).
  std::function<void(uint64_t conn_id, const HelloBody& hello)>
      on_authenticated;
  std::function<void(uint64_t conn_id, const std::string& peer_name)>
      on_closed;
};

class TcpServer {
 public:
  TcpServer(EventLoop* loop, TcpServerOptions options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind loopback:`port` (0 = ephemeral, see port()) and start
  /// accepting. The loop must already be running.
  Status Start(uint16_t port);
  void Stop();

  uint16_t port() const { return port_.load(); }

  /// Push a one-way frame to one authenticated connection. Dropped
  /// silently when the connection is gone or its send queue is full —
  /// the same semantics as SimNetwork dropping to a dead host.
  void Push(uint64_t conn_id, Frame frame);

  /// Push to every connection that sent kSubscribeDecisions.
  void PushToDecisionSubscribers(Frame frame);

  /// Reverse RPC down an accepted connection (orderer §3.6 catch-up pulls
  /// blocks from a peer that dialed us). `done` runs on the loop thread.
  void Call(uint64_t conn_id, Frame request, Micros deadline_us,
            std::function<void(Result<Frame>)> done);
  Result<Frame> CallBlocking(uint64_t conn_id, Frame request,
                             Micros deadline_us);

  size_t connection_count() const;
  uint64_t frames_dropped() const { return frames_dropped_.load(); }

 private:
  struct Conn;

  void OnAcceptable();
  void OnConnEvent(uint64_t conn_id, uint32_t events);
  void HandleFrame(const std::shared_ptr<Conn>& conn, Frame frame);
  void HandleHandshakeFrame(const std::shared_ptr<Conn>& conn,
                            const Frame& frame);
  void SendOnConn(const std::shared_ptr<Conn>& conn, const Frame& frame);
  void CloseConn(uint64_t conn_id, const Status& why);
  void FlushConn(const std::shared_ptr<Conn>& conn);

  EventLoop* loop_;
  TcpServerOptions options_;
  std::unique_ptr<ThreadPool> dispatch_pool_;

  int listen_fd_ = -1;
  std::atomic<uint16_t> port_{0};
  std::atomic<bool> started_{false};

  // Loop-thread state.
  uint64_t next_conn_id_ = 1;
  uint64_t next_seq_ = 1;  ///< reverse-RPC correlation ids
  std::map<uint64_t, std::shared_ptr<Conn>> conns_;

  mutable std::mutex stats_mu_;
  size_t conn_count_ = 0;  ///< mirrors conns_.size() for cross-thread reads

  std::atomic<uint64_t> frames_dropped_{0};
  std::atomic<uint64_t> handshake_rejects_{0};

 public:
  uint64_t handshake_rejects() const { return handshake_rejects_.load(); }
};

// ---------------- FrameClient ----------------

struct FrameClientOptions {
  std::string name;  ///< identity this client authenticates as
  KeyPair keys;
  std::shared_ptr<CertificateRegistry> registry;
  ChannelPurpose purpose = ChannelPurpose::kClientSession;

  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Identity the server must prove; handshake fails on mismatch.
  std::string expected_server;

  /// Reported in kHello (peer purpose: durable height for orderer
  /// catch-up). May be null.
  std::function<uint64_t()> chain_height;

  size_t max_send_queue_bytes = kMaxSendQueueBytes;
  Micros reconnect_min_us = 20'000;
  Micros reconnect_max_us = 1'000'000;
  bool auto_reconnect = true;

  /// Unsolicited one-way frames (kDecisionEvent, kNetRelay). Loop thread.
  std::function<void(const Frame&)> on_event;
  /// Reverse RPC from the server (kFetchBlocks): return the response
  /// frame. Loop thread — must be quick. May be null (request refused).
  std::function<Frame(const Frame&)> on_request;
  /// After each successful handshake / after each disconnect. Loop thread.
  std::function<void()> on_connected;
  std::function<void(const Status&)> on_disconnected;

  TransportCounters* counters = nullptr;  ///< optional shared counters

  /// Chaos hook (network/chaos.h): armed connection resets against
  /// expected_server fire right after a request frame is written — the
  /// request's fate is ambiguous (failed with sent=true), exercising the
  /// reconnect + retry policies. Must outlive the client; null disarms.
  NetworkFaultInjector* fault_injector = nullptr;
};

class FrameClient {
 public:
  FrameClient(EventLoop* loop, FrameClientOptions options);
  ~FrameClient();

  FrameClient(const FrameClient&) = delete;
  FrameClient& operator=(const FrameClient&) = delete;

  /// Start dialing (async). The loop must already be running.
  void Connect();

  /// Close and stop reconnecting. Pending requests fail.
  void Shutdown();

  /// Authenticated and ready for frames.
  bool Ready() const { return ready_.load(std::memory_order_acquire); }
  bool WaitReady(Micros timeout_us);

  /// Request/response with a deadline. `done(result, sent)` runs on the
  /// loop thread; `sent` is false only when the request never reached the
  /// connection (not connected / queue full) — safe to retry elsewhere.
  /// Thread-safe.
  void Call(Frame request, Micros deadline_us,
            std::function<void(Result<Frame>, bool sent)> done);
  Result<Frame> CallBlocking(Frame request, Micros deadline_us,
                             bool* sent = nullptr);

  /// One-way frame. Best-effort: kUnavailable when the connection is not
  /// ready or the send queue is (approximately) full. Thread-safe.
  Status Send(Frame frame);

  uint64_t NextSeq() {
    return next_seq_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  enum class State {
    kIdle,
    kConnecting,
    kAwaitChallenge,
    kAwaitResult,
    kReady,
    kShutdown,
  };

  // All Do*/On* run on the loop thread.
  void DoConnect();
  void OnSocketEvent(uint32_t events);
  void OnConnected();
  void OnFrame(Frame frame);
  void HandleHandshakeFrame(const Frame& frame);
  void FailConnection(const Status& why);
  void ScheduleReconnect();
  void SendFrameLocked(const Frame& frame);  // loop thread; appends + flush
  void Flush();
  void EnterReady();

  EventLoop* loop_;
  FrameClientOptions options_;

  std::atomic<bool> ready_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> next_seq_{1};
  std::atomic<size_t> approx_queue_bytes_{0};
  /// Bytes of Send() frames accepted but not yet processed by the loop
  /// thread — counted against max_send_queue_bytes so callers that outrun
  /// the loop see backpressure instead of an unbounded post queue.
  std::atomic<size_t> posted_bytes_{0};

  std::mutex ready_mu_;
  std::condition_variable ready_cv_;

  // Loop-thread state.
  State state_ = State::kIdle;
  int fd_ = -1;
  FrameAssembler assembler_;
  std::deque<std::string> sendq_;
  size_t sendq_bytes_ = 0;
  size_t sendq_off_ = 0;
  uint64_t client_nonce_ = 0;
  uint64_t server_nonce_ = 0;
  Micros backoff_us_ = 0;
  EventLoop::TimerId handshake_timer_ = EventLoop::kInvalidTimer;
  EventLoop::TimerId reconnect_timer_ = EventLoop::kInvalidTimer;

  struct Pending {
    std::function<void(Result<Frame>, bool sent)> done;
    EventLoop::TimerId deadline_timer = EventLoop::kInvalidTimer;
  };
  std::map<uint64_t, Pending> pending_;
};

// ---------------- TcpTransport ----------------

struct TcpPeerAddress {
  std::string name;  ///< peer identity, e.g. "peer-org1"
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct TcpTransportOptions {
  std::string client_name;  ///< identity requests authenticate as
  KeyPair client_keys;
  std::shared_ptr<CertificateRegistry> registry;
  TransactionFlow flow = TransactionFlow::kOrderThenExecute;
  std::vector<TcpPeerAddress> peers;

  Micros cooldown_us = 1'000'000;  ///< PeerSelector failure cooldown

  /// Chaos hook passed through to every FrameClient (see
  /// FrameClientOptions::fault_injector). Must outlive the transport.
  NetworkFaultInjector* fault_injector = nullptr;
};

class TcpTransport : public Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options);
  ~TcpTransport() override;

  /// Start the internal event loop and dial every peer.
  Status Start();

  /// Block until every peer connection is authenticated (cluster warmup).
  bool WaitReady(Micros timeout_us);

  size_t peer_count() const override { return clients_.size(); }
  std::string peer_name(size_t peer) const override;
  TransactionFlow flow() const override { return options_.flow; }

  Result<std::vector<Status>> Submit(
      const std::vector<Transaction>& txs) override;
  Result<BlockNum> Height() override;
  Result<sql::ResultSet> Query(const QueryRequest& req,
                               size_t pin_peer = kAnyPeer) override;
  Result<sql::PreparedInfo> Prepare(const std::string& user,
                                    const std::string& sql) override;

  uint64_t Subscribe(DecisionFn fn) override;
  void Unsubscribe(uint64_t id) override;

  const TransportCounters& counters() const override { return counters_; }
  PeerSelector* selector() { return &selector_; }

 private:
  /// One request/response against one peer. Fills `*sent` for the submit
  /// retry policy.
  Result<Frame> CallPeer(size_t peer, const Frame& request,
                         Micros deadline_us, bool* sent);
  void OnClientEvent(size_t peer, const Frame& frame);
  void SendSubscribe(size_t peer);

  TcpTransportOptions options_;
  EventLoop loop_;
  std::vector<std::unique_ptr<FrameClient>> clients_;
  PeerSelector selector_;
  TransportCounters counters_;
  std::atomic<bool> want_decisions_{false};

  std::mutex subs_mu_;
  uint64_t next_sub_id_ = 1;
  std::map<uint64_t, DecisionFn> subscribers_;
};

}  // namespace brdb

#endif  // BRDB_NETWORK_TCP_TRANSPORT_H_
