// Chaos layer: adversarial + churn fault injection under load.
//
// Three pieces compose here (ROADMAP item 5):
//
//  * NetworkFaultInjector — the network-side sibling of the ledger's
//    FaultInjector (ledger/fault_injector.h). SimNetwork consults it on
//    every message (drop for kills/partitions, probabilistic loss, extra
//    delay, duplication) and FrameClient consults it on every request
//    (armed connection resets that exercise the bounded-backoff reconnect
//    path mid-request). All decisions are driven by a seeded Rng so a
//    given seed reproduces the same fault pattern.
//
//  * ByzantinePolicy — a configurable misbehavior mode for DatabaseNode
//    (§3.5): skip commits, vote divergent write-set hashes, tamper query
//    results, or withhold checkpoint votes. Runtime-armable so a chaos
//    schedule can turn a peer evil mid-run and detection latency can be
//    measured from that instant.
//
//  * ChaosSchedule + ChaosRunner — a deterministic timestamped event
//    script ("@2s partition a|b for 3s", "@5s kill peer-org3 for 2s",
//    "@1s byzantine peer-org2 tamper-reads", "@7s crash-orderer for 1s")
//    applied by a runner thread against an injector + node/orderer
//    callbacks, with an applied-event log (wall-clock stamps) the bench
//    harness turns into detection-latency and recovery-time metrics.
//
// Matching is by substring: endpoint names embed peer names
// ("peer:peer-org1", "orderer:orderer-1"), so targeting "peer-org1"
// covers every address that node answers to.
#ifndef BRDB_NETWORK_CHAOS_H_
#define BRDB_NETWORK_CHAOS_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"

namespace brdb {

/// Misbehavior modes a byzantine peer can run (§3.5). Combinable.
struct ByzantinePolicy {
  /// Skip committing the last transaction of every block: local state
  /// diverges and so does the honestly-computed write-set vote.
  bool skip_commit = false;
  /// Commit honestly but vote a tampered write-set hash: state agrees,
  /// votes lie. Honest peers flag the liar through ObserveVote.
  bool divergent_writeset = false;
  /// Corrupt read-only Query() results (ints nudged, text poisoned).
  /// Detected client-side by cross-peer result comparison.
  bool tamper_reads = false;
  /// Never submit checkpoint votes. Detected by vote-absence audit
  /// (CheckpointManager::MissingVoters), not by hash mismatch.
  bool withhold_votes = false;

  bool any() const {
    return skip_commit || divergent_writeset || tamper_reads ||
           withhold_votes;
  }

  // Bitmask round-trip: DatabaseNode stores the armed policy in one atomic
  // so a chaos event can flip it mid-run without a lock on the commit path.
  uint32_t ToMask() const {
    return (skip_commit ? 1u : 0) | (divergent_writeset ? 2u : 0) |
           (tamper_reads ? 4u : 0) | (withhold_votes ? 8u : 0);
  }
  static ByzantinePolicy FromMask(uint32_t mask) {
    ByzantinePolicy p;
    p.skip_commit = (mask & 1u) != 0;
    p.divergent_writeset = (mask & 2u) != 0;
    p.tamper_reads = (mask & 4u) != 0;
    p.withhold_votes = (mask & 8u) != 0;
    return p;
  }

  /// Parse a schedule token: skip-commit | divergent-writeset |
  /// tamper-reads | withhold-votes | honest (clears every mode).
  static Result<ByzantinePolicy> Parse(const std::string& name);
  std::string ToString() const;
};

/// Thread-safe fault state consulted by SimNetwork (per message) and
/// FrameClient (per request). Mirrors the ledger FaultInjector's shape:
/// arm/clear methods for tests and the ChaosRunner, counters proving the
/// injected faults actually fired.
class NetworkFaultInjector {
 public:
  explicit NetworkFaultInjector(uint64_t seed = 42) : rng_(seed) {}

  // ---- control plane (any thread) ----

  /// Partition every endpoint matching a name in `group_a` from every
  /// endpoint matching a name in `group_b` (both directions). `on` false
  /// removes a previously installed identical partition.
  void SetPartition(std::vector<std::string> group_a,
                    std::vector<std::string> group_b, bool on);

  /// Kill/revive a node's network: every message from or to an endpoint
  /// matching `name` is dropped while down (the node process is fine —
  /// only its links are, like a pulled cable).
  void SetEndpointDown(const std::string& name, bool down);

  /// Drop each message with probability `p` (0 disables).
  void SetDropProbability(double p) { drop_probability_.store(p); }

  /// Add `us` of one-way latency to every message (0 disables).
  void SetExtraDelayUs(Micros us) { extra_delay_us_.store(us); }

  /// Deliver each message twice with probability `p` (0 disables).
  void SetDuplicateProbability(double p) { duplicate_probability_.store(p); }

  /// Arm `count` connection resets against FrameClients whose server
  /// matches `server_name`: the next `count` requests are written to the
  /// socket and then the connection fails as if the peer sent RST —
  /// the request's fate is ambiguous (sent=true), exercising the
  /// reconnect + retry policies.
  void ArmConnectionResets(const std::string& server_name, int count);

  // ---- data plane ----

  /// SimNetwork delivery-time drop decision. Consumes seeded randomness
  /// only for the probabilistic mode; kill/partition checks are pure.
  bool ShouldDrop(const std::string& from, const std::string& to);

  /// SimNetwork send-time extras.
  Micros ExtraDelayUs() const { return extra_delay_us_.load(); }
  bool ShouldDuplicate();

  /// Pure kill check (no randomness): used by DatabaseNode to gate the
  /// direct §3.6 catch-up RPC and EOP submission, which bypass SimNetwork.
  bool EndpointDown(const std::string& name) const;

  /// FrameClient (loop thread): true consumes one armed reset for this
  /// server and the caller must fail the connection.
  bool ConsumeConnectionReset(const std::string& server_name);

  // ---- counters (did the fault actually fire?) ----
  uint64_t messages_dropped() const { return messages_dropped_.load(); }
  uint64_t messages_duplicated() const { return messages_duplicated_.load(); }
  uint64_t resets_fired() const { return resets_fired_.load(); }

 private:
  static bool Matches(const std::string& endpoint, const std::string& name) {
    return endpoint.find(name) != std::string::npos;
  }
  static bool MatchesAny(const std::string& endpoint,
                         const std::vector<std::string>& names) {
    for (const auto& n : names) {
      if (Matches(endpoint, n)) return true;
    }
    return false;
  }

  mutable std::mutex mu_;
  Rng rng_;  ///< guarded by mu_
  std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
      partitions_;
  std::vector<std::string> down_;
  std::vector<std::pair<std::string, int>> armed_resets_;

  std::atomic<double> drop_probability_{0};
  std::atomic<Micros> extra_delay_us_{0};
  std::atomic<double> duplicate_probability_{0};

  std::atomic<uint64_t> messages_dropped_{0};
  std::atomic<uint64_t> messages_duplicated_{0};
  std::atomic<uint64_t> resets_fired_{0};
};

/// One scripted fault. Times are relative to ChaosRunner::Start().
struct ChaosEvent {
  enum class Kind {
    kPartition,     ///< partition group_a | group_b
    kKill,          ///< drop all traffic for target
    kDrop,          ///< probabilistic message loss
    kDelay,         ///< extra per-message latency
    kDuplicate,     ///< probabilistic duplication
    kByzantine,     ///< arm a misbehavior policy on target
    kReset,         ///< arm `count` connection resets against target
    kCrashOrderer,  ///< pause block formation
  };

  Kind kind = Kind::kKill;
  Micros at_us = 0;
  Micros duration_us = 0;  ///< 0 = for the rest of the run / one-shot
  std::vector<std::string> group_a, group_b;  // kPartition
  std::string target;                         // kKill/kByzantine/kReset
  double probability = 0;                     // kDrop/kDuplicate
  Micros delay_us = 0;                        // kDelay
  ByzantinePolicy policy;                     // kByzantine
  int count = 1;                              // kReset

  std::string Describe() const;
};

/// A deterministic, seed-reproducible fault script. Text grammar, one
/// event per line ('#' comments, blank lines ignored); durations accept
/// us/ms/s suffixes:
///
///   @2s   partition peer-org1,peer-org2|peer-org3 for 3s
///   @5s   kill peer-org3 for 2s
///   @1s   byzantine peer-org2 tamper-reads
///   @1s   byzantine peer-org2 divergent-writeset
///   @7s   crash-orderer for 1s
///   @3s   drop 0.1 for 2s
///   @3s   delay 5ms for 2s
///   @4s   duplicate 0.05 for 1s
///   @6s   reset peer-org1 3
///
/// Windows of the same kind must not overlap (the revert of the earlier
/// window would clear the later one).
struct ChaosSchedule {
  std::vector<ChaosEvent> events;  ///< sorted by at_us, stable

  static Result<ChaosSchedule> Parse(const std::string& text);

  /// Last instant the schedule still holds a fault open.
  Micros EndUs() const;
};

/// Where the runner lands its events. Callbacks may be null — events
/// needing a missing target are logged as skipped, so a node-side runner
/// (brdb_noded) can arm just the byzantine events that name itself.
struct ChaosTargets {
  NetworkFaultInjector* injector = nullptr;
  /// Arm/clear a misbehavior policy on the named node.
  std::function<void(const std::string& node, const ByzantinePolicy&)>
      set_byzantine;
  /// Pause/resume block formation (OrderingService::Pause).
  std::function<void(bool paused)> pause_orderer;
};

/// Applies a schedule in real time on its own thread and reverts
/// duration-bounded faults when their window closes. The applied-event log
/// carries wall-clock stamps — the harness side of detection-latency and
/// recovery-time measurement.
class ChaosRunner {
 public:
  ChaosRunner(ChaosSchedule schedule, ChaosTargets targets);
  ~ChaosRunner();

  ChaosRunner(const ChaosRunner&) = delete;
  ChaosRunner& operator=(const ChaosRunner&) = delete;

  /// t=0 is now. May be called once.
  void Start();

  /// Interrupt and join; pending actions are skipped (faults already
  /// applied are NOT reverted — the run is over).
  void Stop();

  /// Block until every action (applies and reverts) ran, or timeout.
  bool WaitDone(Micros timeout_us);

  struct AppliedAction {
    Micros scheduled_us = 0;  ///< relative to Start()
    Micros applied_at_us = 0;  ///< absolute wall clock (RealClock)
    std::string what;
    bool revert = false;
  };
  std::vector<AppliedAction> Log() const;

  /// Wall-clock instant the action matching `what_substr` was applied
  /// (0 = never applied). `revert` selects the window-close action.
  Micros AppliedAtUs(const std::string& what_substr,
                     bool revert = false) const;

  Micros started_at_us() const { return started_at_us_.load(); }

 private:
  struct Action {
    Micros at_us = 0;  ///< relative to start
    size_t event_index = 0;
    bool revert = false;
  };

  void RunLoop();
  void Apply(const ChaosEvent& e, bool revert);

  ChaosSchedule schedule_;
  ChaosTargets targets_;
  std::vector<Action> actions_;  ///< sorted by at_us

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool done_ = false;
  std::vector<AppliedAction> log_;
  std::atomic<Micros> started_at_us_{0};
  std::thread thread_;
};

}  // namespace brdb

#endif  // BRDB_NETWORK_CHAOS_H_
