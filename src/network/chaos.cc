#include "network/chaos.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/thread_name.h"

namespace brdb {

// ---------------- ByzantinePolicy ----------------

Result<ByzantinePolicy> ByzantinePolicy::Parse(const std::string& name) {
  ByzantinePolicy p;
  if (name == "honest") return p;
  if (name == "skip-commit") {
    p.skip_commit = true;
  } else if (name == "divergent-writeset") {
    p.divergent_writeset = true;
  } else if (name == "tamper-reads") {
    p.tamper_reads = true;
  } else if (name == "withhold-votes") {
    p.withhold_votes = true;
  } else {
    return Status::InvalidArgument("unknown byzantine policy '" + name +
                                   "' (skip-commit | divergent-writeset | "
                                   "tamper-reads | withhold-votes | honest)");
  }
  return p;
}

std::string ByzantinePolicy::ToString() const {
  if (!any()) return "honest";
  std::string out;
  auto add = [&](const char* s) {
    if (!out.empty()) out += "+";
    out += s;
  };
  if (skip_commit) add("skip-commit");
  if (divergent_writeset) add("divergent-writeset");
  if (tamper_reads) add("tamper-reads");
  if (withhold_votes) add("withhold-votes");
  return out;
}

// ---------------- NetworkFaultInjector ----------------

void NetworkFaultInjector::SetPartition(std::vector<std::string> group_a,
                                        std::vector<std::string> group_b,
                                        bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  auto pair = std::make_pair(std::move(group_a), std::move(group_b));
  if (on) {
    partitions_.push_back(std::move(pair));
    return;
  }
  partitions_.erase(
      std::remove(partitions_.begin(), partitions_.end(), pair),
      partitions_.end());
}

void NetworkFaultInjector::SetEndpointDown(const std::string& name,
                                           bool down) {
  std::lock_guard<std::mutex> lock(mu_);
  if (down) {
    down_.push_back(name);
    return;
  }
  down_.erase(std::remove(down_.begin(), down_.end(), name), down_.end());
}

void NetworkFaultInjector::ArmConnectionResets(const std::string& server_name,
                                               int count) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_resets_.emplace_back(server_name, count);
}

bool NetworkFaultInjector::ShouldDrop(const std::string& from,
                                      const std::string& to) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& name : down_) {
      if (Matches(from, name) || Matches(to, name)) {
        messages_dropped_.fetch_add(1);
        return true;
      }
    }
    for (const auto& [a, b] : partitions_) {
      if ((MatchesAny(from, a) && MatchesAny(to, b)) ||
          (MatchesAny(from, b) && MatchesAny(to, a))) {
        messages_dropped_.fetch_add(1);
        return true;
      }
    }
    double p = drop_probability_.load();
    if (p > 0 && rng_.NextDouble() < p) {
      messages_dropped_.fetch_add(1);
      return true;
    }
  }
  return false;
}

bool NetworkFaultInjector::ShouldDuplicate() {
  double p = duplicate_probability_.load();
  if (p <= 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (rng_.NextDouble() >= p) return false;
  messages_duplicated_.fetch_add(1);
  return true;
}

bool NetworkFaultInjector::EndpointDown(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& d : down_) {
    if (Matches(name, d) || Matches(d, name)) return true;
  }
  return false;
}

bool NetworkFaultInjector::ConsumeConnectionReset(
    const std::string& server_name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = armed_resets_.begin(); it != armed_resets_.end(); ++it) {
    if (!Matches(server_name, it->first)) continue;
    if (--it->second <= 0) armed_resets_.erase(it);
    resets_fired_.fetch_add(1);
    return true;
  }
  return false;
}

// ---------------- ChaosSchedule ----------------

namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ",";
    out += n;
  }
  return out;
}

std::vector<std::string> SplitNames(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// "250000us" | "1500ms" | "2s" | bare digits (us) -> microseconds.
Result<Micros> ParseDuration(const std::string& token) {
  size_t digits = 0;
  while (digits < token.size() &&
         (std::isdigit(static_cast<unsigned char>(token[digits])) ||
          token[digits] == '.')) {
    ++digits;
  }
  if (digits == 0) {
    return Status::InvalidArgument("bad duration '" + token + "'");
  }
  double value = std::stod(token.substr(0, digits));
  std::string unit = token.substr(digits);
  double scale;
  if (unit.empty() || unit == "us") {
    scale = 1;
  } else if (unit == "ms") {
    scale = 1e3;
  } else if (unit == "s") {
    scale = 1e6;
  } else {
    return Status::InvalidArgument("bad duration unit '" + token +
                                   "' (us|ms|s)");
  }
  return static_cast<Micros>(value * scale);
}

}  // namespace

std::string ChaosEvent::Describe() const {
  std::string out;
  switch (kind) {
    case Kind::kPartition:
      out += "partition " + JoinNames(group_a) + "|" + JoinNames(group_b);
      break;
    case Kind::kKill:
      out += "kill " + target;
      break;
    case Kind::kDrop:
      out += "drop " + std::to_string(probability);
      break;
    case Kind::kDelay:
      out += "delay " + std::to_string(delay_us) + "us";
      break;
    case Kind::kDuplicate:
      out += "duplicate " + std::to_string(probability);
      break;
    case Kind::kByzantine:
      out += "byzantine " + target + " " + policy.ToString();
      break;
    case Kind::kReset:
      out += "reset " + target + " x" + std::to_string(count);
      break;
    case Kind::kCrashOrderer:
      out += "crash-orderer";
      break;
  }
  return out;
}

Result<ChaosSchedule> ChaosSchedule::Parse(const std::string& text) {
  ChaosSchedule schedule;
  std::stringstream lines(text);
  std::string line;
  size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::stringstream ss(line);
    std::vector<std::string> tokens;
    std::string tok;
    while (ss >> tok) tokens.push_back(tok);
    if (tokens.empty()) continue;

    auto bad = [&](const std::string& why) -> Status {
      return Status::InvalidArgument("chaos schedule line " +
                                     std::to_string(lineno) + ": " + why);
    };
    if (tokens[0].size() < 2 || tokens[0][0] != '@') {
      return bad("expected '@<time>' first, got '" + tokens[0] + "'");
    }
    auto at = ParseDuration(tokens[0].substr(1));
    if (!at.ok()) return bad(at.status().message());

    // Optional trailing "for <dur>".
    Micros duration = 0;
    if (tokens.size() >= 3 && tokens[tokens.size() - 2] == "for") {
      auto d = ParseDuration(tokens.back());
      if (!d.ok()) return bad(d.status().message());
      duration = d.value();
      tokens.resize(tokens.size() - 2);
    }
    if (tokens.size() < 2) return bad("missing verb");

    ChaosEvent e;
    e.at_us = at.value();
    e.duration_us = duration;
    const std::string& verb = tokens[1];
    if (verb == "partition") {
      if (tokens.size() != 3) return bad("partition wants '<a,..>|<b,..>'");
      auto bar = tokens[2].find('|');
      if (bar == std::string::npos) return bad("partition wants a '|'");
      e.kind = ChaosEvent::Kind::kPartition;
      e.group_a = SplitNames(tokens[2].substr(0, bar));
      e.group_b = SplitNames(tokens[2].substr(bar + 1));
      if (e.group_a.empty() || e.group_b.empty()) {
        return bad("partition groups must be non-empty");
      }
    } else if (verb == "kill") {
      if (tokens.size() != 3) return bad("kill wants a node name");
      e.kind = ChaosEvent::Kind::kKill;
      e.target = tokens[2];
    } else if (verb == "drop" || verb == "duplicate") {
      if (tokens.size() != 3) return bad(verb + " wants a probability");
      e.kind = verb == "drop" ? ChaosEvent::Kind::kDrop
                              : ChaosEvent::Kind::kDuplicate;
      e.probability = std::stod(tokens[2]);
      if (e.probability < 0 || e.probability > 1) {
        return bad("probability must be in [0,1]");
      }
    } else if (verb == "delay") {
      if (tokens.size() != 3) return bad("delay wants a duration");
      auto d = ParseDuration(tokens[2]);
      if (!d.ok()) return bad(d.status().message());
      e.kind = ChaosEvent::Kind::kDelay;
      e.delay_us = d.value();
    } else if (verb == "byzantine") {
      if (tokens.size() != 4) return bad("byzantine wants '<node> <policy>'");
      auto policy = ByzantinePolicy::Parse(tokens[3]);
      if (!policy.ok()) return bad(policy.status().message());
      e.kind = ChaosEvent::Kind::kByzantine;
      e.target = tokens[2];
      e.policy = policy.value();
    } else if (verb == "reset") {
      if (tokens.size() != 3 && tokens.size() != 4) {
        return bad("reset wants '<server> [count]'");
      }
      e.kind = ChaosEvent::Kind::kReset;
      e.target = tokens[2];
      e.count = tokens.size() == 4 ? std::stoi(tokens[3]) : 1;
      if (e.count < 1) return bad("reset count must be >= 1");
    } else if (verb == "crash-orderer") {
      if (tokens.size() != 2) return bad("crash-orderer takes no operand");
      e.kind = ChaosEvent::Kind::kCrashOrderer;
    } else {
      return bad("unknown verb '" + verb + "'");
    }
    schedule.events.push_back(std::move(e));
  }
  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at_us < b.at_us;
                   });
  return schedule;
}

Micros ChaosSchedule::EndUs() const {
  Micros end = 0;
  for (const auto& e : events) {
    end = std::max(end, e.at_us + e.duration_us);
  }
  return end;
}

// ---------------- ChaosRunner ----------------

ChaosRunner::ChaosRunner(ChaosSchedule schedule, ChaosTargets targets)
    : schedule_(std::move(schedule)), targets_(std::move(targets)) {
  for (size_t i = 0; i < schedule_.events.size(); ++i) {
    const ChaosEvent& e = schedule_.events[i];
    actions_.push_back(Action{e.at_us, i, /*revert=*/false});
    // One-shot kinds have nothing to revert; byzantine with a duration
    // returns the peer to honesty when the window closes.
    bool revertible = e.duration_us > 0 &&
                      e.kind != ChaosEvent::Kind::kReset;
    if (revertible) {
      actions_.push_back(Action{e.at_us + e.duration_us, i, /*revert=*/true});
    }
  }
  std::stable_sort(actions_.begin(), actions_.end(),
                   [](const Action& a, const Action& b) {
                     return a.at_us < b.at_us;
                   });
}

ChaosRunner::~ChaosRunner() { Stop(); }

void ChaosRunner::Start() {
  started_at_us_.store(RealClock::Shared()->NowMicros());
  thread_ = std::thread([this] {
    NameThisThread("chaos-runner");
    RunLoop();
  });
}

void ChaosRunner::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool ChaosRunner::WaitDone(Micros timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::microseconds(timeout_us),
                      [this] { return done_ || stop_; }) &&
         done_;
}

std::vector<ChaosRunner::AppliedAction> ChaosRunner::Log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

Micros ChaosRunner::AppliedAtUs(const std::string& what_substr,
                                bool revert) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& a : log_) {
    if (a.revert == revert &&
        a.what.find(what_substr) != std::string::npos) {
      return a.applied_at_us;
    }
  }
  return 0;
}

void ChaosRunner::RunLoop() {
  const auto& clock = RealClock::Shared();
  const Micros t0 = started_at_us_.load();
  for (const Action& action : actions_) {
    for (;;) {
      Micros now = clock->NowMicros();
      Micros due = t0 + action.at_us;
      if (now >= due) break;
      std::unique_lock<std::mutex> lock(mu_);
      if (stop_) return;
      cv_.wait_for(lock, std::chrono::microseconds(
                             std::min<Micros>(due - now, 50'000)));
      if (stop_) return;
    }
    const ChaosEvent& e = schedule_.events[action.event_index];
    Apply(e, action.revert);
    {
      std::lock_guard<std::mutex> lock(mu_);
      log_.push_back(AppliedAction{action.at_us, clock->NowMicros(),
                                   e.Describe(), action.revert});
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
  }
  cv_.notify_all();
}

void ChaosRunner::Apply(const ChaosEvent& e, bool revert) {
  NetworkFaultInjector* inj = targets_.injector;
  switch (e.kind) {
    case ChaosEvent::Kind::kPartition:
      if (inj) inj->SetPartition(e.group_a, e.group_b, !revert);
      break;
    case ChaosEvent::Kind::kKill:
      if (inj) inj->SetEndpointDown(e.target, !revert);
      break;
    case ChaosEvent::Kind::kDrop:
      if (inj) inj->SetDropProbability(revert ? 0 : e.probability);
      break;
    case ChaosEvent::Kind::kDelay:
      if (inj) inj->SetExtraDelayUs(revert ? 0 : e.delay_us);
      break;
    case ChaosEvent::Kind::kDuplicate:
      if (inj) inj->SetDuplicateProbability(revert ? 0 : e.probability);
      break;
    case ChaosEvent::Kind::kByzantine:
      if (targets_.set_byzantine) {
        targets_.set_byzantine(e.target,
                               revert ? ByzantinePolicy{} : e.policy);
      }
      break;
    case ChaosEvent::Kind::kReset:
      if (inj && !revert) inj->ArmConnectionResets(e.target, e.count);
      break;
    case ChaosEvent::Kind::kCrashOrderer:
      if (targets_.pause_orderer) targets_.pause_orderer(!revert);
      break;
  }
}

}  // namespace brdb
