// Unit tests for src/network: delivery, per-link FIFO, latency profiles,
// partitions, drop filters and traffic statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <vector>

#include "network/sim_network.h"

namespace brdb {
namespace {

TEST(SimNetworkTest, DeliversToRegisteredEndpoint) {
  SimNetwork net(NetworkProfile::Instant());
  std::atomic<int> received{0};
  net.RegisterEndpoint("b", [&](const NetMessage& m) {
    EXPECT_EQ(m.from, "a");
    EXPECT_EQ(m.type, "ping");
    EXPECT_EQ(m.payload, "hello");
    received.fetch_add(1);
  });
  net.Send({"a", "b", "ping", "hello"});
  net.WaitQuiescent();
  EXPECT_EQ(received.load(), 1);
  EXPECT_EQ(net.messages_delivered(), 1u);
  EXPECT_EQ(net.bytes_delivered(), 5u);
}

TEST(SimNetworkTest, UnknownDestinationIsDropped) {
  SimNetwork net(NetworkProfile::Instant());
  net.Send({"a", "ghost", "ping", ""});
  net.WaitQuiescent();
  EXPECT_EQ(net.messages_delivered(), 0u);
}

TEST(SimNetworkTest, PerLinkFifoOrder) {
  SimNetwork net(NetworkProfile::Lan());
  std::vector<int> order;
  std::mutex mu;
  net.RegisterEndpoint("b", [&](const NetMessage& m) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(std::stoi(m.payload));
  });
  for (int i = 0; i < 50; ++i) {
    net.Send({"a", "b", "seq", std::to_string(i)});
  }
  net.WaitQuiescent();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimNetworkTest, BroadcastSkipsSelf) {
  SimNetwork net(NetworkProfile::Instant());
  std::atomic<int> count{0};
  for (const char* name : {"a", "b", "c"}) {
    net.RegisterEndpoint(name,
                         [&](const NetMessage&) { count.fetch_add(1); });
  }
  net.Broadcast("a", {"a", "b", "c"}, "t", "x");
  net.WaitQuiescent();
  EXPECT_EQ(count.load(), 2);  // not delivered back to "a"
}

TEST(SimNetworkTest, PartitionDropsBothDirections) {
  SimNetwork net(NetworkProfile::Instant());
  std::atomic<int> count{0};
  net.RegisterEndpoint("a", [&](const NetMessage&) { count.fetch_add(1); });
  net.RegisterEndpoint("b", [&](const NetMessage&) { count.fetch_add(1); });

  net.SetPartitioned("a", "b", true);
  net.Send({"a", "b", "t", ""});
  net.Send({"b", "a", "t", ""});
  net.WaitQuiescent();
  EXPECT_EQ(count.load(), 0);

  net.SetPartitioned("a", "b", false);
  net.Send({"a", "b", "t", ""});
  net.WaitQuiescent();
  EXPECT_EQ(count.load(), 1);
}

TEST(SimNetworkTest, DropFilterSelectivelyDrops) {
  SimNetwork net(NetworkProfile::Instant());
  std::atomic<int> count{0};
  net.RegisterEndpoint("b", [&](const NetMessage&) { count.fetch_add(1); });
  net.SetDropFilter([](const NetMessage& m) { return m.type == "evil"; });
  net.Send({"a", "b", "evil", ""});
  net.Send({"a", "b", "good", ""});
  net.WaitQuiescent();
  EXPECT_EQ(count.load(), 1);
}

TEST(SimNetworkTest, WanLatencyExceedsLan) {
  // Wall-clock delivery time of one message; the fastest of `tries`.
  auto measure = [](NetworkProfile profile, int tries) {
    SimNetwork net(profile);
    std::atomic<Micros> arrival{0};
    net.RegisterEndpoint("b", [&](const NetMessage&) {
      arrival.store(RealClock::Shared()->NowMicros());
    });
    Micros best = std::numeric_limits<Micros>::max();
    for (int i = 0; i < tries; ++i) {
      Micros sent = RealClock::Shared()->NowMicros();
      net.Send({"a", "b", "t", "payload"});
      net.WaitQuiescent();
      best = std::min(best, arrival.load() - sent);
    }
    return best;
  };
  // A LAN delivery can only be slower than its profile (a late wake-up on a
  // loaded host), so the minimum of 20 is the profile's figure; a WAN
  // delivery can never be faster than its base latency.
  Micros lan = measure(NetworkProfile::Lan(), 20);
  Micros wan = measure(NetworkProfile::Wan(), 1);
  EXPECT_LT(lan, 10000);    // sub-10ms in the LAN profile
  EXPECT_GT(wan, 30000);    // tens of ms across "continents"
}

TEST(SimNetworkTest, BandwidthDelaysLargeMessages) {
  NetworkProfile slow;
  slow.base_latency_us = 0;
  slow.jitter_us = 0;
  slow.bytes_per_us = 1.0;  // 1 byte/us: 50 KB takes 50 ms
  SimNetwork net(slow);
  std::atomic<Micros> arrival{0};
  net.RegisterEndpoint("b", [&](const NetMessage&) {
    arrival.store(RealClock::Shared()->NowMicros());
  });
  Micros sent = RealClock::Shared()->NowMicros();
  net.Send({"a", "b", "t", std::string(50000, 'x')});
  net.WaitQuiescent();
  EXPECT_GT(arrival.load() - sent, 40000);
}

TEST(SimNetworkTest, UnregisterStopsDelivery) {
  SimNetwork net(NetworkProfile::Instant());
  std::atomic<int> count{0};
  net.RegisterEndpoint("b", [&](const NetMessage&) { count.fetch_add(1); });
  net.Send({"a", "b", "t", ""});
  net.WaitQuiescent();
  net.UnregisterEndpoint("b");
  net.Send({"a", "b", "t", ""});
  net.WaitQuiescent();
  EXPECT_EQ(count.load(), 1);
}

}  // namespace
}  // namespace brdb
