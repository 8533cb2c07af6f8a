#include "network/sim_network.h"

#include <algorithm>

#include "common/thread_name.h"
#include "network/chaos.h"

namespace brdb {

SimNetwork::SimNetwork(NetworkProfile profile, uint64_t jitter_seed)
    : profile_(profile), rng_(jitter_seed) {
  delivery_thread_ = std::thread([this] {
    NameThisThread("sim-delivery");
    DeliveryLoop();
  });
}

SimNetwork::~SimNetwork() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  delivery_thread_.join();
}

void SimNetwork::RegisterEndpoint(const std::string& name, Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[name] = std::move(handler);
}

void SimNetwork::UnregisterEndpoint(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_.erase(name);
}

void SimNetwork::Send(NetMessage msg) {
  const auto& clock = RealClock::Shared();
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;

  // Latency = propagation + jitter + serialization (size / bandwidth).
  Micros latency = profile_.base_latency_us;
  if (profile_.jitter_us > 0) {
    latency += static_cast<Micros>(
        rng_.Uniform(static_cast<uint64_t>(profile_.jitter_us)));
  }
  if (profile_.bytes_per_us > 0) {
    latency += static_cast<Micros>(
        static_cast<double>(msg.payload.size()) / profile_.bytes_per_us);
  }
  // Chaos delay/duplication apply at send time; the injector's drop
  // decision waits until delivery so a fault window opening mid-flight
  // still catches queued messages (same as the built-in partitions).
  bool duplicate = false;
  if (injector_ != nullptr) {
    latency += injector_->ExtraDelayUs();
    duplicate = injector_->ShouldDuplicate();
  }
  Micros deliver_at = clock->NowMicros() + latency;

  // FIFO per directed link: never deliver before the previous message on
  // the same link.
  auto link = std::make_pair(msg.from, msg.to);
  auto it = link_last_delivery_.find(link);
  if (it != link_last_delivery_.end()) {
    deliver_at = std::max(deliver_at, it->second);
  }
  link_last_delivery_[link] = deliver_at;

  if (duplicate) {
    queue_.push(InFlight{deliver_at, next_seq_++, msg});
  }
  queue_.push(InFlight{deliver_at, next_seq_++, std::move(msg)});
  cv_.notify_all();
}

void SimNetwork::Broadcast(const std::string& from,
                           const std::vector<std::string>& destinations,
                           const std::string& type,
                           const std::string& payload) {
  for (const auto& dest : destinations) {
    if (dest == from) continue;
    NetMessage m;
    m.from = from;
    m.to = dest;
    m.type = type;
    m.payload = payload;
    Send(std::move(m));
  }
}

void SimNetwork::SetPartitioned(const std::string& a, const std::string& b,
                                bool partitioned) {
  std::lock_guard<std::mutex> lock(mu_);
  auto key1 = std::make_pair(a, b);
  auto key2 = std::make_pair(b, a);
  if (partitioned) {
    partitions_.insert(key1);
    partitions_.insert(key2);
  } else {
    partitions_.erase(key1);
    partitions_.erase(key2);
  }
}

void SimNetwork::SetDropFilter(std::function<bool(const NetMessage&)> filter) {
  std::lock_guard<std::mutex> lock(mu_);
  drop_filter_ = std::move(filter);
}

void SimNetwork::SetFaultInjector(NetworkFaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_ = injector;
}

void SimNetwork::WaitQuiescent() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return queue_.empty() && delivering_ == 0; });
}

void SimNetwork::DeliveryLoop() {
  const auto& clock = RealClock::Shared();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (shutdown_) return;
    if (queue_.empty()) {
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      continue;
    }
    Micros now = clock->NowMicros();
    const InFlight& head = queue_.top();
    if (head.deliver_at > now) {
      cv_.wait_for(lock,
                   std::chrono::microseconds(head.deliver_at - now));
      continue;
    }
    InFlight item = queue_.top();
    queue_.pop();

    bool drop = partitions_.count({item.msg.from, item.msg.to}) > 0;
    if (!drop && injector_ != nullptr &&
        injector_->ShouldDrop(item.msg.from, item.msg.to)) {
      drop = true;
    }
    if (!drop && drop_filter_ && drop_filter_(item.msg)) drop = true;
    auto it = endpoints_.find(item.msg.to);
    if (it == endpoints_.end()) drop = true;

    if (!drop) {
      Handler handler = it->second;
      ++delivering_;
      lock.unlock();
      handler(item.msg);
      messages_delivered_.fetch_add(1);
      bytes_delivered_.fetch_add(item.msg.payload.size());
      lock.lock();
      --delivering_;
    }
    if (queue_.empty() && delivering_ == 0) cv_.notify_all();
  }
}

}  // namespace brdb
