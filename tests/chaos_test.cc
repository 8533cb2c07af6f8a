// Tests for the chaos layer (network/chaos.h): ByzantinePolicy parsing,
// the ChaosSchedule grammar, NetworkFaultInjector semantics + seeded
// determinism, the SimNetwork integration (kill/partition/delay/
// duplicate), the ChaosRunner apply/revert log, and an end-to-end
// network run where a scripted byzantine window is armed mid-run and
// detection latency is observable.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/blockchain_network.h"
#include "network/chaos.h"
#include "network/sim_network.h"

namespace brdb {
namespace {

// ---------------- ByzantinePolicy ----------------

TEST(ByzantinePolicyTest, ParseAndRoundTrip) {
  auto p = ByzantinePolicy::Parse("divergent-writeset");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().divergent_writeset);
  EXPECT_TRUE(p.value().any());
  EXPECT_EQ(p.value().ToString(), "divergent-writeset");

  auto honest = ByzantinePolicy::Parse("honest");
  ASSERT_TRUE(honest.ok());
  EXPECT_FALSE(honest.value().any());

  EXPECT_FALSE(ByzantinePolicy::Parse("flaky-wifi").ok());

  ByzantinePolicy all;
  all.skip_commit = all.divergent_writeset = all.tamper_reads =
      all.withhold_votes = true;
  ByzantinePolicy back = ByzantinePolicy::FromMask(all.ToMask());
  EXPECT_EQ(back.ToMask(), all.ToMask());
  EXPECT_TRUE(back.skip_commit && back.divergent_writeset &&
              back.tamper_reads && back.withhold_votes);
}

// ---------------- ChaosSchedule grammar ----------------

TEST(ChaosScheduleTest, ParsesEveryVerb) {
  auto s = ChaosSchedule::Parse(
      "# comment line\n"
      "@2s partition peer-org1,peer-org2|peer-org3 for 3s\n"
      "@5s kill peer-org3 for 2s\n"
      "@1s byzantine peer-org2 tamper-reads\n"
      "@7s crash-orderer for 1s\n"
      "@3s drop 0.1 for 2s\n"
      "@3s delay 5ms for 2s\n"
      "@4s duplicate 0.05 for 1s\n"
      "@6s reset peer-org1 3\n");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_EQ(s.value().events.size(), 8u);
  // Sorted by at_us: byzantine first.
  const ChaosEvent& first = s.value().events[0];
  EXPECT_EQ(first.kind, ChaosEvent::Kind::kByzantine);
  EXPECT_EQ(first.at_us, 1'000'000);
  EXPECT_EQ(first.duration_us, 0);  // armed for the rest of the run
  EXPECT_TRUE(first.policy.tamper_reads);

  const ChaosEvent& part = s.value().events[1];
  EXPECT_EQ(part.kind, ChaosEvent::Kind::kPartition);
  ASSERT_EQ(part.group_a.size(), 2u);
  EXPECT_EQ(part.group_a[1], "peer-org2");
  ASSERT_EQ(part.group_b.size(), 1u);
  EXPECT_EQ(part.duration_us, 3'000'000);

  // EndUs = latest window close (@7s crash-orderer for 1s -> 8s).
  EXPECT_EQ(s.value().EndUs(), 8'000'000);
}

TEST(ChaosScheduleTest, RejectsMalformedLines) {
  EXPECT_FALSE(ChaosSchedule::Parse("kill peer-org1").ok());  // missing @t
  EXPECT_FALSE(ChaosSchedule::Parse("@1s explode peer-org1").ok());
  EXPECT_FALSE(ChaosSchedule::Parse("@1s partition a-b").ok());  // no '|'
  EXPECT_FALSE(ChaosSchedule::Parse("@1s drop 1.5").ok());  // p out of range
  EXPECT_FALSE(ChaosSchedule::Parse("@1s byzantine a bogus-mode").ok());
  EXPECT_FALSE(ChaosSchedule::Parse("@1s kill a for xyz").ok());
  EXPECT_FALSE(ChaosSchedule::Parse("@1q kill a").ok());  // bad time unit
}

// ---------------- NetworkFaultInjector ----------------

TEST(NetworkFaultInjectorTest, KillAndPartitionArePure) {
  NetworkFaultInjector inj(7);
  EXPECT_FALSE(inj.ShouldDrop("peer:peer-org1", "orderer:o1"));

  inj.SetEndpointDown("peer-org1", true);
  EXPECT_TRUE(inj.EndpointDown("peer-org1"));
  EXPECT_TRUE(inj.ShouldDrop("peer:peer-org1", "orderer:o1"));
  EXPECT_TRUE(inj.ShouldDrop("orderer:o1", "peer:peer-org1"));
  EXPECT_FALSE(inj.ShouldDrop("peer:peer-org2", "orderer:o1"));
  inj.SetEndpointDown("peer-org1", false);
  EXPECT_FALSE(inj.EndpointDown("peer-org1"));
  EXPECT_FALSE(inj.ShouldDrop("peer:peer-org1", "orderer:o1"));

  inj.SetPartition({"peer-org1"}, {"peer-org2"}, true);
  EXPECT_TRUE(inj.ShouldDrop("peer:peer-org1", "peer:peer-org2"));
  EXPECT_TRUE(inj.ShouldDrop("peer:peer-org2", "peer:peer-org1"));
  // Orderer traffic unaffected: the groups only cover the two peers.
  EXPECT_FALSE(inj.ShouldDrop("peer:peer-org1", "orderer:o1"));
  inj.SetPartition({"peer-org1"}, {"peer-org2"}, false);
  EXPECT_FALSE(inj.ShouldDrop("peer:peer-org1", "peer:peer-org2"));
  EXPECT_GT(inj.messages_dropped(), 0u);
}

TEST(NetworkFaultInjectorTest, SeededDropSequenceIsDeterministic) {
  auto run = [](uint64_t seed) {
    NetworkFaultInjector inj(seed);
    inj.SetDropProbability(0.3);
    std::vector<bool> decisions;
    for (int i = 0; i < 200; ++i) {
      decisions.push_back(inj.ShouldDrop("a", "b"));
    }
    return decisions;
  };
  auto a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // ~30% of 200, not all, not none.
  size_t dropped = 0;
  for (bool d : a) dropped += d;
  EXPECT_GT(dropped, 20u);
  EXPECT_LT(dropped, 120u);
}

TEST(NetworkFaultInjectorTest, ConnectionResetsAreCounted) {
  NetworkFaultInjector inj;
  EXPECT_FALSE(inj.ConsumeConnectionReset("node-a"));
  inj.ArmConnectionResets("node-a", 2);
  EXPECT_FALSE(inj.ConsumeConnectionReset("node-b"));  // wrong server
  EXPECT_TRUE(inj.ConsumeConnectionReset("node-a"));
  EXPECT_TRUE(inj.ConsumeConnectionReset("node-a"));
  EXPECT_FALSE(inj.ConsumeConnectionReset("node-a"));  // exhausted
  EXPECT_EQ(inj.resets_fired(), 2u);
}

// ---------------- SimNetwork integration ----------------

TEST(ChaosSimNetworkTest, KilledEndpointDropsInFlight) {
  NetworkFaultInjector inj;
  SimNetwork net(NetworkProfile::Instant());
  net.SetFaultInjector(&inj);
  std::atomic<int> received{0};
  net.RegisterEndpoint("peer:b", [&](const NetMessage&) { received++; });

  net.Send({"peer:a", "peer:b", "t", "x"});
  net.WaitQuiescent();
  EXPECT_EQ(received.load(), 1);

  inj.SetEndpointDown("b", true);
  net.Send({"peer:a", "peer:b", "t", "x"});
  net.WaitQuiescent();
  EXPECT_EQ(received.load(), 1);
  EXPECT_EQ(inj.messages_dropped(), 1u);

  inj.SetEndpointDown("b", false);
  net.Send({"peer:a", "peer:b", "t", "x"});
  net.WaitQuiescent();
  EXPECT_EQ(received.load(), 2);
}

TEST(ChaosSimNetworkTest, DuplicationDeliversTwice) {
  NetworkFaultInjector inj(1);
  SimNetwork net(NetworkProfile::Instant());
  net.SetFaultInjector(&inj);
  std::atomic<int> received{0};
  net.RegisterEndpoint("b", [&](const NetMessage&) { received++; });

  inj.SetDuplicateProbability(1.0);
  for (int i = 0; i < 10; ++i) net.Send({"a", "b", "t", "x"});
  net.WaitQuiescent();
  EXPECT_EQ(received.load(), 20);
  EXPECT_EQ(inj.messages_duplicated(), 10u);
}

TEST(ChaosSimNetworkTest, ExtraDelayIsAdded) {
  NetworkFaultInjector inj;
  SimNetwork net(NetworkProfile::Instant());
  net.SetFaultInjector(&inj);
  std::atomic<int> received{0};
  net.RegisterEndpoint("b", [&](const NetMessage&) { received++; });

  inj.SetExtraDelayUs(80'000);
  Micros start = RealClock::Shared()->NowMicros();
  net.Send({"a", "b", "t", "x"});
  net.WaitQuiescent();
  Micros elapsed = RealClock::Shared()->NowMicros() - start;
  EXPECT_EQ(received.load(), 1);
  EXPECT_GE(elapsed, 80'000);
}

// ---------------- ChaosRunner ----------------

TEST(ChaosRunnerTest, AppliesAndRevertsOnSchedule) {
  auto s = ChaosSchedule::Parse(
      "@0ms kill peer-b for 120ms\n"
      "@50ms delay 2ms for 100ms\n");
  ASSERT_TRUE(s.ok());

  NetworkFaultInjector inj;
  ChaosTargets targets;
  targets.injector = &inj;
  ChaosRunner runner(s.value(), targets);
  runner.Start();
  ASSERT_TRUE(runner.WaitDone(5'000'000));

  // Both windows opened and closed; the log holds 4 stamped actions in
  // apply order, and the faults are cleared again.
  auto log = runner.Log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_FALSE(inj.EndpointDown("peer-b"));
  EXPECT_EQ(inj.ExtraDelayUs(), 0);

  Micros kill_on = runner.AppliedAtUs("kill", /*revert=*/false);
  Micros kill_off = runner.AppliedAtUs("kill", /*revert=*/true);
  ASSERT_GT(kill_on, 0);
  ASSERT_GT(kill_off, kill_on);
  // ~120ms window, generous upper bound for slow CI.
  EXPECT_GE(kill_off - kill_on, 100'000);
  EXPECT_LT(kill_off - kill_on, 2'000'000);
}

TEST(ChaosRunnerTest, NullTargetsSkipSafely) {
  auto s = ChaosSchedule::Parse(
      "@0ms byzantine peer-b tamper-reads for 50ms\n"
      "@0ms crash-orderer for 50ms\n"
      "@0ms kill peer-b for 50ms\n");
  ASSERT_TRUE(s.ok());
  ChaosRunner runner(s.value(), ChaosTargets{});  // every target null
  runner.Start();
  EXPECT_TRUE(runner.WaitDone(5'000'000));  // no crash, all actions logged
  EXPECT_EQ(runner.Log().size(), 6u);
}

TEST(ChaosRunnerTest, StopInterruptsPendingActions) {
  auto s = ChaosSchedule::Parse("@30s kill peer-b for 1s\n");
  ASSERT_TRUE(s.ok());
  NetworkFaultInjector inj;
  ChaosTargets targets;
  targets.injector = &inj;
  ChaosRunner runner(s.value(), targets);
  runner.Start();
  runner.Stop();  // long before @30s
  EXPECT_TRUE(runner.Log().empty());
  EXPECT_FALSE(inj.EndpointDown("peer-b"));
}

// ---------------- end to end ----------------

// A scripted byzantine window armed mid-run on a live network: all honest
// peers flag the liar via ObserveVote with a detection stamp after the
// arming instant, and honest write-set hashes stay identical.
TEST(ChaosEndToEndTest, ScriptedByzantineWindowIsDetected) {
  NetworkFaultInjector inj(42);
  NetworkOptions options;
  options.orgs = {"org1", "org2", "org3"};
  options.flow = TransactionFlow::kOrderThenExecute;
  options.orderer_config.block_size = 4;
  options.orderer_config.block_timeout_us = 20'000;
  options.profile = NetworkProfile::Instant();
  options.chaos = &inj;
  auto net = BlockchainNetwork::Create(options);
  ASSERT_TRUE(net
                  ->RegisterNativeContract(
                      "put",
                      [](ContractContext* ctx) -> Status {
                        auto r = ctx->Execute(
                            "INSERT INTO records VALUES ($1, $2)",
                            ctx->args());
                        return r.ok() ? Status::OK() : r.status();
                      })
                  .ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE records (id INT PRIMARY KEY, v INT)")
          .ok());

  ChaosTargets targets;
  targets.injector = &inj;
  targets.set_byzantine = [&](const std::string& name,
                              const ByzantinePolicy& policy) {
    for (size_t i = 0; i < net->num_nodes(); ++i) {
      if (net->node(i)->name() == name) {
        net->node(i)->SetByzantinePolicy(policy);
      }
    }
  };
  auto s = ChaosSchedule::Parse(
      "@50ms byzantine peer-org3 divergent-writeset for 400ms\n");
  ASSERT_TRUE(s.ok());
  ChaosRunner runner(s.value(), targets);

  Session* alice = net->CreateSession("org1", "alice");
  runner.Start();
  Micros armed_at = 0;
  for (int i = 0; i < 40; ++i) {
    TxnHandle t = alice->Submit("put", {Value::Int(i), Value::Int(i * 3)});
    ASSERT_TRUE(t.submit_status().ok());
    ASSERT_TRUE(t.Wait(10'000'000).ok());
    if (armed_at == 0) armed_at = runner.AppliedAtUs("byzantine", false);
  }
  ASSERT_TRUE(runner.WaitDone(10'000'000));
  armed_at = runner.AppliedAtUs("byzantine", false);
  ASSERT_GT(armed_at, 0);
  net->WaitIdle(100'000, 30'000'000);

  // Every honest peer flagged peer-org3, with a detection stamp at or
  // after the arming instant — the raw material of detection latency.
  for (size_t i = 0; i < 2; ++i) {
    auto divs = net->node(i)->checkpoints()->Divergences();
    ASSERT_FALSE(divs.empty()) << net->node(i)->name();
    for (const auto& d : divs) {
      EXPECT_EQ(d.peer, "peer-org3");
      EXPECT_GE(d.detected_at_us, armed_at);
    }
  }

  // The window closed: peer-org3 is honest again, and honest hashes agree
  // at every common height.
  EXPECT_FALSE(net->node(2)->byzantine_policy().any());
  BlockNum common =
      std::min(net->node(0)->Height(), net->node(1)->Height());
  for (BlockNum b = 1; b <= common; ++b) {
    EXPECT_EQ(net->node(0)->checkpoints()->LocalHash(b),
              net->node(1)->checkpoints()->LocalHash(b))
        << "honest divergence at block " << b;
  }
  net->Stop();
}

}  // namespace
}  // namespace brdb
