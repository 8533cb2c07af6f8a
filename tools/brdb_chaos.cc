// brdb_chaos: adversarial + churn fault injection under open-loop load
// (ROADMAP item 5). Boots a four-organization in-process network with a
// NetworkFaultInjector armed on the SimNetwork and every node, runs a
// deterministic seeded ChaosSchedule against it (partition, node kill,
// byzantine peer, orderer crash) while an open-loop Session load
// generator keeps hundreds-to-thousands of transactions in flight, and
// reports into BENCH_chaos.json:
//
//   * per-fault-window committed tps and p50/p95/p99 commit latency
//     measured from the *scheduled* submission instant (coordinated
//     omission: generator lag during a fault is system-induced queueing
//     the percentiles must include);
//   * Byzantine detection latency — fault armed -> first honest peer
//     flags the liar through ObserveVote — in wall time and in blocks;
//   * node rejoin and orderer-resume recovery time from a 100 Hz
//     height-series sampled across the run.
//
// Headline invariant (enforced; non-zero exit on violation): under any
// seeded schedule the honest nodes never diverge — byte-identical
// write-set hashes at every common height — and the scripted Byzantine
// fault is detected within one checkpoint interval of the first tampered
// vote.
//
// Flags:
//   --smoke             ~5 s schedule + tighter drain (the check.sh gate)
//   --schedule=<text>   inline ChaosSchedule ("; " separates lines)
//   --schedule=@<file>  schedule from a file
//   --seed=N            injector seed (default 42)
//   --rate=N            offered load in tx/s (default 400; smoke 250)
//   --out=<path>        report path (default BENCH_chaos.json)
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/blockchain_network.h"
#include "network/chaos.h"

using namespace brdb;

namespace {

constexpr const char* kFullSchedule =
    "@1s byzantine peer-org-evil divergent-writeset for 3s\n"
    "@2s partition peer-org1|peer-org2 for 2s\n"
    "@5s kill peer-org3 for 2s\n"
    "@8s crash-orderer for 1500ms\n";

constexpr const char* kSmokeSchedule =
    "@500ms byzantine peer-org-evil divergent-writeset for 1500ms\n"
    "@1s partition peer-org1|peer-org2 for 1s\n"
    "@2500ms kill peer-org3 for 1200ms\n";

double PercentileMs(std::vector<uint64_t> sorted_us, double pct) {
  if (sorted_us.empty()) return 0;
  size_t rank = static_cast<size_t>(std::max(
      1.0, std::ceil(pct / 100.0 * static_cast<double>(sorted_us.size()))));
  return static_cast<double>(sorted_us[rank - 1]) / 1000.0;
}

/// Majority-commit tracker keyed by *scheduled* submission instant. The
/// open-loop contract: transaction i should leave at t0 + i*gap; latency
/// runs from there, so a stalled generator cannot hide queueing delay.
class ChaosTracker {
 public:
  struct Sample {
    Micros scheduled_rel_us = 0;  ///< relative to load start
    uint64_t latency_us = 0;
  };

  explicit ChaosTracker(size_t majority) : majority_(majority) {}

  static std::shared_ptr<ChaosTracker> Create(BlockchainNetwork* net) {
    auto tracker = std::make_shared<ChaosTracker>(net->num_nodes() / 2 + 1);
    for (size_t i = 0; i < net->num_nodes(); ++i) {
      net->node(i)->Subscribe([tracker](const TxnNotification& n) {
        tracker->OnDecision(n);
      });
    }
    return tracker;
  }

  void OnSubmit(const std::string& txid, Micros scheduled_abs_us,
                Micros scheduled_rel_us) {
    std::lock_guard<std::mutex> lock(mu_);
    submits_[txid] = {scheduled_abs_us, scheduled_rel_us};
  }

  uint64_t committed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return committed_;
  }
  uint64_t aborted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return aborted_;
  }
  std::vector<Sample> Samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
  }

 private:
  void OnDecision(const TxnNotification& n) {
    std::lock_guard<std::mutex> lock(mu_);
    auto sub = submits_.find(n.txid);
    if (sub == submits_.end()) return;  // deploy traffic
    auto& prog = progress_[n.txid];
    if (n.status.ok()) {
      if (++prog.commits == majority_) {
        ++committed_;
        samples_.push_back(Sample{
            sub->second.rel_us,
            static_cast<uint64_t>(RealClock::Shared()->NowMicros() -
                                  sub->second.abs_us)});
      }
    } else {
      if (++prog.aborts == majority_) ++aborted_;
    }
  }

  struct Submitted {
    Micros abs_us = 0;
    Micros rel_us = 0;
  };
  struct Progress {
    size_t commits = 0;
    size_t aborts = 0;
  };

  size_t majority_;
  mutable std::mutex mu_;
  std::map<std::string, Submitted> submits_;
  std::map<std::string, Progress> progress_;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
  std::vector<Sample> samples_;
};

/// 100 Hz sampler of every node's committed height plus the ordering
/// height — the raw series recovery times are computed from.
class HeightMonitor {
 public:
  struct Sample {
    Micros at_us = 0;  ///< absolute wall clock
    std::vector<BlockNum> node_heights;
    BlockNum ordering_height = 0;
  };

  explicit HeightMonitor(BlockchainNetwork* net) : net_(net) {}

  void Start() {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        Sample s;
        s.at_us = RealClock::Shared()->NowMicros();
        for (size_t i = 0; i < net_->num_nodes(); ++i) {
          s.node_heights.push_back(net_->node(i)->Height());
        }
        s.ordering_height = net_->ordering()->Height();
        {
          std::lock_guard<std::mutex> lock(mu_);
          samples_.push_back(std::move(s));
        }
        RealClock::Shared()->SleepMicros(10'000);
      }
    });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  std::vector<Sample> Samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
  }

 private:
  BlockchainNetwork* net_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  std::thread thread_;
};

/// 20 Hz cross-peer read probe — the client-side detector for the
/// tamper-reads byzantine mode, which never touches consensus state and
/// is therefore invisible to checkpoint votes. Every tick it asks each
/// node for the same long-committed immutable row and compares answers:
/// honest nodes always return the value that committed, so any node in
/// the minority is lying on its Query() path. First-mismatch wall time
/// per node is the detection instant.
class ReadProbe {
 public:
  explicit ReadProbe(BlockchainNetwork* net) : net_(net) {
    first_mismatch_at_.assign(net->num_nodes(), 0);
  }

  void Start() {
    thread_ = std::thread([this] {
      // Probe as the registered load-generator identity: Query()
      // authenticates the caller (unknown users are refused).
      const std::string q = "SELECT v FROM records WHERE id = 9000000";
      while (!stop_.load()) {
        std::vector<std::pair<size_t, int64_t>> answers;
        for (size_t i = 0; i < net_->num_nodes(); ++i) {
          auto r = net_->node(i)->Query("chaos-loadgen", q);
          if (!r.ok()) continue;
          auto scalar = r.value().Scalar();
          if (!scalar.ok() || scalar.value().type() != ValueType::kInt) {
            continue;  // row not committed yet on this node
          }
          answers.emplace_back(i, scalar.value().AsInt());
        }
        if (answers.size() >= 3) {
          std::map<int64_t, size_t> votes;
          for (const auto& [node, v] : answers) votes[v]++;
          auto majority = std::max_element(
              votes.begin(), votes.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
          Micros now = RealClock::Shared()->NowMicros();
          std::lock_guard<std::mutex> lock(mu_);
          for (const auto& [node, v] : answers) {
            if (v != majority->first && first_mismatch_at_[node] == 0) {
              first_mismatch_at_[node] = now;
            }
          }
        }
        RealClock::Shared()->SleepMicros(50'000);
      }
    });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// 0 if the node's answers always matched the majority.
  Micros FirstMismatchAt(size_t node) const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_mismatch_at_[node];
  }

 private:
  BlockchainNetwork* net_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<Micros> first_mismatch_at_;
  std::thread thread_;
};

struct WindowStat {
  Micros from_us = 0, to_us = 0;
  std::string faults;  ///< active fault descriptions ("baseline" if none)
  uint64_t committed = 0;
  double committed_tps = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
};

/// Slice the run into windows at every fault apply/revert boundary and
/// bucket commit samples by their scheduled submission instant.
std::vector<WindowStat> BuildWindows(
    const ChaosSchedule& schedule, Micros end_us,
    const std::vector<ChaosTracker::Sample>& samples) {
  std::set<Micros> bounds{0, end_us};
  for (const ChaosEvent& e : schedule.events) {
    bounds.insert(e.at_us);
    if (e.duration_us > 0) bounds.insert(e.at_us + e.duration_us);
  }
  std::vector<Micros> edges(bounds.begin(), bounds.end());
  std::vector<WindowStat> windows;
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    WindowStat w;
    w.from_us = edges[i];
    w.to_us = edges[i + 1];
    for (const ChaosEvent& e : schedule.events) {
      bool active = e.at_us <= w.from_us &&
                    (e.duration_us == 0 || e.at_us + e.duration_us > w.from_us);
      if (active) {
        if (!w.faults.empty()) w.faults += " + ";
        w.faults += e.Describe();
      }
    }
    if (w.faults.empty()) w.faults = "baseline";
    std::vector<uint64_t> lat;
    for (const auto& s : samples) {
      if (s.scheduled_rel_us >= w.from_us && s.scheduled_rel_us < w.to_us) {
        lat.push_back(s.latency_us);
      }
    }
    std::sort(lat.begin(), lat.end());
    w.committed = lat.size();
    double secs = static_cast<double>(w.to_us - w.from_us) / 1e6;
    w.committed_tps = secs > 0 ? static_cast<double>(lat.size()) / secs : 0;
    w.p50_ms = PercentileMs(lat, 50);
    w.p95_ms = PercentileMs(lat, 95);
    w.p99_ms = PercentileMs(lat, 99);
    windows.push_back(std::move(w));
  }
  return windows;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

struct ByzantineArm {
  bool armed = false;
  Micros at_us = 0;          ///< wall clock when the policy went live
  BlockNum evil_height = 0;  ///< target's committed height at that instant
  std::string target;
  std::string policy;
};

int Fail(const char* what) {
  std::fprintf(stderr, "CHAOS INVARIANT VIOLATED: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string schedule_arg, out_path = "BENCH_chaos.json";
  uint64_t seed = 42;
  double rate = 0;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a.rfind("--schedule=", 0) == 0) {
      schedule_arg = a.substr(11);
    } else if (a.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(a.c_str() + 7, nullptr, 10);
    } else if (a.rfind("--rate=", 0) == 0) {
      rate = std::atof(a.c_str() + 7);
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (rate <= 0) rate = smoke ? 250 : 400;

  // "@<path>" loads a file — but inline schedule lines ALSO start with
  // '@' ("@500ms kill ..."), so only a value with no whitespace and no
  // ';' can be a file reference.
  std::string schedule_text;
  bool from_file = !schedule_arg.empty() && schedule_arg[0] == '@' &&
                   schedule_arg.find(' ') == std::string::npos &&
                   schedule_arg.find(';') == std::string::npos;
  if (schedule_arg.empty()) {
    schedule_text = smoke ? kSmokeSchedule : kFullSchedule;
  } else if (from_file) {
    std::ifstream in(schedule_arg.substr(1));
    if (!in) {
      std::fprintf(stderr, "cannot read schedule file %s\n",
                   schedule_arg.c_str() + 1);
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    schedule_text = ss.str();
  } else {
    schedule_text = schedule_arg;
    std::replace(schedule_text.begin(), schedule_text.end(), ';', '\n');
  }
  auto parsed = ChaosSchedule::Parse(schedule_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad schedule: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  ChaosSchedule schedule = std::move(parsed).value();
  const Micros schedule_end_us = schedule.EndUs();
  const Micros run_us = schedule_end_us + (smoke ? 800'000 : 1'500'000);

  // ---- network with the injector armed everywhere ----
  NetworkFaultInjector injector(seed);
  NetworkOptions options;
  options.orgs = {"org1", "org2", "org3", "org-evil"};
  options.flow = TransactionFlow::kOrderThenExecute;
  options.orderer_config.block_size = 20;
  options.orderer_config.block_timeout_us = 100'000;
  options.profile = NetworkProfile::Lan();
  options.chaos = &injector;
  auto net = BlockchainNetwork::Create(options);

  Status st = net->RegisterNativeContract(
      "put", [](ContractContext* ctx) -> Status {
        auto r =
            ctx->Execute("INSERT INTO records VALUES ($1, $2)", ctx->args());
        return r.ok() ? Status::OK() : r.status();
      });
  if (!st.ok() || !net->Start().ok()) {
    std::fprintf(stderr, "network start failed\n");
    return 2;
  }
  if (!net->DeployContract("CREATE TABLE records (id INT PRIMARY KEY, v INT)")
           .ok()) {
    std::fprintf(stderr, "schema deploy failed\n");
    return 2;
  }

  // Default byzantine designee is "org-evil"; a custom schedule can arm
  // any peer, so the real evil index is re-derived from the armed target
  // after the run.
  size_t evil_index = 3;
  std::string evil_name = net->node(evil_index)->name();
  std::vector<size_t> honest = {0, 1, 2};
  std::vector<std::string> peer_names;
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    peer_names.push_back(net->node(i)->name());
  }

  // ---- chaos runner targets ----
  std::mutex arm_mu;
  ByzantineArm arm;
  ChaosTargets targets;
  targets.injector = &injector;
  targets.set_byzantine = [&](const std::string& name,
                              const ByzantinePolicy& policy) {
    // Substring targeting, same rule as the injector: "org3" covers
    // every address the node answers to.
    for (size_t i = 0; i < net->num_nodes(); ++i) {
      if (net->node(i)->name().find(name) != std::string::npos) {
        net->node(i)->SetByzantinePolicy(policy);
        if (policy.any()) {
          std::lock_guard<std::mutex> lock(arm_mu);
          arm.armed = true;
          arm.at_us = RealClock::Shared()->NowMicros();
          arm.evil_height = net->node(i)->Height();
          arm.target = name;
          arm.policy = policy.ToString();
        }
        return;
      }
    }
  };
  targets.pause_orderer = [&](bool paused) { net->ordering()->Pause(paused); };
  ChaosRunner runner(schedule, targets);

  HeightMonitor monitor(net.get());
  monitor.Start();
  ReadProbe probe(net.get());
  probe.Start();
  auto tracker = ChaosTracker::Create(net.get());
  Session* session = net->CreateSession("org1", "chaos-loadgen");

  std::printf("chaos: seed=%" PRIu64 " rate=%.0f tps, schedule:\n", seed,
              rate);
  for (const ChaosEvent& e : schedule.events) {
    std::printf("  @%.2fs %s%s\n", static_cast<double>(e.at_us) / 1e6,
                e.Describe().c_str(),
                e.duration_us > 0
                    ? (" for " +
                       std::to_string(e.duration_us / 1000) + "ms").c_str()
                    : "");
  }
  std::fflush(stdout);

  // ---- open-loop load across the schedule ----
  const auto& clock = RealClock::Shared();
  runner.Start();
  Micros t0 = clock->NowMicros();
  Micros gap = static_cast<Micros>(1e6 / rate);
  uint64_t submitted = 0, submit_rejected = 0;
  for (int64_t i = 0;; ++i) {
    Micros target = t0 + static_cast<Micros>(i) * gap;
    if (target - t0 >= run_us) break;
    Micros now = clock->NowMicros();
    if (target > now) clock->SleepMicros(target - now);
    TxnHandle h = session->Submit(
        "put", {Value::Int(static_cast<int64_t>(9'000'000 + i)),
                Value::Int(static_cast<int64_t>(i) * 7)});
    if (h.submit_status().ok()) {
      ++submitted;
      tracker->OnSubmit(h.txid(), target, target - t0);
    } else {
      ++submit_rejected;
    }
  }
  runner.WaitDone(run_us + 5'000'000);
  net->WaitIdle(300'000, 60'000'000);
  monitor.Stop();
  probe.Stop();
  runner.Stop();

  // ---- detection latency ----
  // Each byzantine mode has its own detector (docs/ROBUSTNESS.md):
  // skip-commit and divergent-writeset surface as checkpoint-vote
  // divergences; withhold-votes is silence, caught only by the
  // MissingVoters absence audit; tamper-reads never touches consensus
  // and is caught by the cross-peer read probe. Dispatch on the armed
  // policy so every scripted mode gets the detector that can see it.
  ByzantineArm armed;
  {
    std::lock_guard<std::mutex> lock(arm_mu);
    armed = arm;
  }
  // The liar is whichever peer the schedule actually armed, not the
  // default designee; every other node is honest (all four when no
  // byzantine event was scripted at all).
  if (armed.armed) {
    for (size_t i = 0; i < peer_names.size(); ++i) {
      if (peer_names[i].find(armed.target) != std::string::npos) {
        evil_index = i;
        break;
      }
    }
    evil_name = peer_names[evil_index];
  }
  honest.clear();
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    if (armed.armed && i == evil_index) continue;
    honest.push_back(i);
  }
  const bool via_divergence =
      armed.policy.find("skip-commit") != std::string::npos ||
      armed.policy.find("divergent-writeset") != std::string::npos;
  const bool via_absence =
      !via_divergence &&
      armed.policy.find("withhold-votes") != std::string::npos;
  const bool via_probe =
      !via_divergence && !via_absence &&
      armed.policy.find("tamper-reads") != std::string::npos;
  const char* detector = via_divergence ? "checkpoint-vote-divergence"
                         : via_absence  ? "vote-absence-audit"
                         : via_probe    ? "cross-peer-read-probe"
                                        : "none";
  Micros detection_at = 0;
  BlockNum flagged_block = 0;
  size_t honest_detectors = 0;
  bool foreign_flag = false;
  std::string foreign_who;
  // Honest nodes' divergence lists are scanned whatever the scripted
  // mode: an honest peer flagging another honest peer is an invariant
  // violation. The liar's own list is excluded — a skip-commit node's
  // state genuinely diverges, so it "flags" every honest peer, and a
  // byzantine node's accusations carry no weight anyway.
  for (size_t i : honest) {
    auto divs = net->node(i)->checkpoints()->Divergences();
    bool detected = false;
    for (const auto& d : divs) {
      if (d.peer != evil_name || !armed.armed) {
        foreign_flag = true;
        foreign_who = peer_names[i] + " flagged " + d.peer;
      }
      if (d.peer == evil_name && armed.armed &&
          d.detected_at_us >= armed.at_us) {
        detected = true;
        if (detection_at == 0 || d.detected_at_us < detection_at) {
          detection_at = d.detected_at_us;
          flagged_block = d.block;
        }
        if (flagged_block == 0 || d.block < flagged_block) {
          flagged_block = d.block;
        }
      }
    }
    if (detected) ++honest_detectors;
  }
  BlockNum audit_common = 0;
  for (size_t i : honest) {
    BlockNum h = net->node(i)->Height();
    audit_common = audit_common == 0 ? h : std::min(audit_common, h);
  }
  if (via_absence && armed.armed) {
    // Votes for block B ride in later blocks (§3.3.4), so only audit
    // blocks strictly before the common tip — the tail block's honest
    // votes never arrive once load stops.
    honest_detectors = 0;
    for (size_t i : honest) {
      for (BlockNum b = armed.evil_height + 1; b < audit_common; ++b) {
        auto missing = net->node(i)->checkpoints()->MissingVoters(
            b, peer_names);
        if (std::find(missing.begin(), missing.end(), evil_name) !=
            missing.end()) {
          ++honest_detectors;
          if (flagged_block == 0 || b < flagged_block) flagged_block = b;
          break;
        }
      }
    }
    // The audit is a pull-based post-run check, so wall-clock latency is
    // not defined for it; the block-denominated bound still is.
  }
  if (via_probe && armed.armed) {
    Micros at = probe.FirstMismatchAt(evil_index);
    if (at >= armed.at_us) detection_at = at;
    // One probe client observes for everyone; honest nodes are "detectors"
    // in the sense that their matching answers form the majority.
    honest_detectors = detection_at > 0 ? honest.size() : 0;
    for (size_t i : honest) {
      if (probe.FirstMismatchAt(i) != 0) {
        foreign_flag = true;
        foreign_who = "read probe: " + peer_names[i] + " in the minority";
      }
    }
  }
  double detection_ms =
      detection_at > 0
          ? static_cast<double>(detection_at - armed.at_us) / 1000.0
          : -1;
  int64_t detected_within_blocks =
      flagged_block > 0
          ? static_cast<int64_t>(flagged_block) -
                static_cast<int64_t>(armed.evil_height)
          : -1;

  // ---- recovery times from the height series ----
  auto heights = monitor.Samples();
  double node_rejoin_ms = -1, orderer_resume_ms = -1;
  Micros kill_revert_at = runner.AppliedAtUs("kill", /*revert=*/true);
  if (kill_revert_at > 0) {
    // Which node was killed: the schedule's kill target by name.
    size_t killed = SIZE_MAX;
    for (const ChaosEvent& e : schedule.events) {
      if (e.kind != ChaosEvent::Kind::kKill) continue;
      for (size_t i = 0; i < peer_names.size(); ++i) {
        if (peer_names[i].find(e.target) != std::string::npos) killed = i;
      }
    }
    if (killed != SIZE_MAX) {
      for (const auto& s : heights) {
        if (s.at_us < kill_revert_at) continue;
        BlockNum max_honest = 0;
        for (size_t i : honest) {
          if (i != killed) max_honest = std::max(max_honest, s.node_heights[i]);
        }
        if (s.node_heights[killed] + 1 >= max_honest) {
          node_rejoin_ms =
              static_cast<double>(s.at_us - kill_revert_at) / 1000.0;
          break;
        }
      }
    }
  }
  Micros orderer_resume_at = runner.AppliedAtUs("crash-orderer", true);
  if (orderer_resume_at > 0) {
    BlockNum paused_height = 0;
    for (const auto& s : heights) {
      if (s.at_us <= orderer_resume_at) paused_height = s.ordering_height;
    }
    for (const auto& s : heights) {
      if (s.at_us < orderer_resume_at) continue;
      if (s.ordering_height > paused_height) {
        orderer_resume_ms =
            static_cast<double>(s.at_us - orderer_resume_at) / 1000.0;
        break;
      }
    }
  }

  // ---- headline invariants ----
  int rc = 0;
  // 1. Honest nodes never diverge: byte-identical write-set hashes at
  //    every common height.
  BlockNum common = 0;
  for (size_t i : honest) {
    BlockNum h = net->node(i)->Height();
    common = common == 0 ? h : std::min(common, h);
  }
  bool hash_agreement = true;
  for (BlockNum b = 1; b <= common; ++b) {
    std::string h0 = net->node(honest[0])->checkpoints()->LocalHash(b);
    for (size_t i : honest) {
      std::string hi = net->node(i)->checkpoints()->LocalHash(b);
      if (hi != h0) hash_agreement = false;
    }
  }
  if (!hash_agreement) rc = Fail("honest write-set hashes diverged");
  // 2. No honest peer was ever flagged.
  if (foreign_flag) {
    std::fprintf(stderr, "  (%s)\n", foreign_who.c_str());
    rc = Fail("a non-byzantine peer was flagged");
  }
  // 3. The scripted Byzantine fault was detected by every honest node,
  //    within one checkpoint interval of the first tampered vote.
  bool byz_scripted = armed.armed;
  if (byz_scripted) {
    if (honest_detectors < honest.size()) {
      rc = Fail("byzantine fault not detected by every honest node");
    }
    if (detected_within_blocks >
        static_cast<int64_t>(1 + kCheckpointInterval)) {
      rc = Fail("detection outside one checkpoint interval");
    }
  }
  // 4. Load actually flowed across the fault windows.
  if (tracker->committed() == 0) rc = Fail("no transaction ever committed");

  auto samples = tracker->Samples();
  auto windows = BuildWindows(schedule, run_us, samples);

  // ---- report ----
  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"chaos\",\n";
  out << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"offered_rate_tps\": " << rate << ",\n";
  out << "  \"run_seconds\": " << static_cast<double>(run_us) / 1e6 << ",\n";
  out << "  \"submitted\": " << submitted << ",\n";
  out << "  \"submit_rejected\": " << submit_rejected << ",\n";
  out << "  \"committed\": " << tracker->committed() << ",\n";
  out << "  \"aborted\": " << tracker->aborted() << ",\n";
  out << "  \"schedule\": \"" << JsonEscape(schedule_text) << "\",\n";
  out << "  \"injector\": {\"messages_dropped\": "
      << injector.messages_dropped()
      << ", \"messages_duplicated\": " << injector.messages_duplicated()
      << ", \"resets_fired\": " << injector.resets_fired() << "},\n";
  out << "  \"windows\": [\n";
  for (size_t i = 0; i < windows.size(); ++i) {
    const WindowStat& w = windows[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"from_s\": %.2f, \"to_s\": %.2f, \"faults\": "
                  "\"%s\", \"committed\": %" PRIu64
                  ", \"committed_tps\": %.1f, \"p50_ms\": %.2f, "
                  "\"p95_ms\": %.2f, \"p99_ms\": %.2f}%s",
                  static_cast<double>(w.from_us) / 1e6,
                  static_cast<double>(w.to_us) / 1e6,
                  JsonEscape(w.faults).c_str(), w.committed, w.committed_tps,
                  w.p50_ms, w.p95_ms, w.p99_ms,
                  i + 1 < windows.size() ? "," : "");
    out << buf << "\n";
  }
  out << "  ],\n";
  out << "  \"detection\": {\"scripted\": " << (byz_scripted ? "true" : "false")
      << ", \"target\": \"" << JsonEscape(armed.target) << "\", \"policy\": \""
      << JsonEscape(armed.policy) << "\", \"detector\": \"" << detector
      << "\", \"latency_ms\": " << detection_ms
      << ", \"flagged_block\": " << flagged_block
      << ", \"armed_at_height\": " << armed.evil_height
      << ", \"detected_within_blocks\": " << detected_within_blocks
      << ", \"honest_detectors\": " << honest_detectors << "},\n";
  out << "  \"recovery\": {\"node_rejoin_ms\": " << node_rejoin_ms
      << ", \"orderer_resume_ms\": " << orderer_resume_ms << "},\n";
  out << "  \"invariants\": {\"hash_agreement\": "
      << (hash_agreement ? "true" : "false")
      << ", \"honest_never_flagged\": " << (foreign_flag ? "false" : "true")
      << ", \"detection_fired\": "
      << (honest_detectors == honest.size() ? "true" : "false")
      << ", \"common_height\": " << common << "}\n";
  out << "}\n";
  out.close();

  std::printf(
      "chaos: committed=%" PRIu64 " aborted=%" PRIu64
      " common_height=%" PRIu64
      " detection=%.1fms (+%" PRId64 " blocks) rejoin=%.1fms "
      "orderer_resume=%.1fms dropped=%" PRIu64 "\n",
      tracker->committed(), tracker->aborted(),
      static_cast<uint64_t>(common), detection_ms, detected_within_blocks,
      node_rejoin_ms, orderer_resume_ms, injector.messages_dropped());
  std::printf("wrote %s\n", out_path.c_str());
  std::printf("chaos: %s\n", rc == 0 ? "PASS" : "FAIL");

  net->Stop();
  return rc;
}
