// Byzantine behaviour and tamper detection (paper §3.5): a four-
// organization network where one peer withholds commits. The honest
// majority keeps making progress, and checkpoint comparison exposes the
// misbehaving organization. Also demonstrates block-store tamper detection
// via the hash chain. Exits non-zero if the honest nodes disagree or the
// tampered store loads.
#include <cstdio>
#include <filesystem>

#include "core/blockchain_network.h"
#include "ledger/block_store.h"

using namespace brdb;

namespace {
void Must(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}
}  // namespace

int main() {
  NetworkOptions options;
  options.orgs = {"org1", "org2", "org3", "org-evil"};
  options.flow = TransactionFlow::kOrderThenExecute;
  options.orderer_config.block_size = 5;
  options.orderer_config.block_timeout_us = 50000;
  // org-evil's peer skips commits (§3.5(3)).
  options.byzantine_policies[3].skip_commit = true;
  auto net = BlockchainNetwork::Create(options);

  Must(net->RegisterNativeContract(
           "put", [](ContractContext* ctx) -> Status {
             auto r = ctx->Execute("INSERT INTO records VALUES ($1, $2)",
                                   ctx->args());
             return r.ok() ? Status::OK() : r.status();
           }),
       "register");
  Must(net->Start(), "start");
  Must(net->DeployContract(
           "CREATE TABLE records (id INT PRIMARY KEY, v INT)"),
       "deploy");

  Session* alice = net->CreateSession("org1", "alice");
  for (int i = 0; i < 10; ++i) {
    TxnHandle t = alice->Submit("put", {Value::Int(i), Value::Int(i * 7)});
    Must(t.submit_status(), "submit");
    // Majority commit succeeds although org-evil diverges.
    Must(t.Wait(), "commit");
  }
  net->WaitIdle();

  std::printf("liveness: honest nodes committed %llu transactions each\n",
              static_cast<unsigned long long>(
                  net->node(0)->metrics()->txns_committed()));

  // Checkpoint comparison exposes the byzantine peer.
  std::printf("\ncheckpoint divergences observed by honest nodes:\n");
  for (size_t i = 0; i < 3; ++i) {
    auto divs = net->node(i)->checkpoints()->Divergences();
    std::printf("  %s: %zu divergences", net->node(i)->name().c_str(),
                divs.size());
    if (!divs.empty()) {
      std::printf(" (first: peer %s at block %llu)", divs[0].peer.c_str(),
                  static_cast<unsigned long long>(divs[0].block));
    }
    std::printf("\n");
  }

  // Honest nodes agree with each other.
  BlockNum h = net->node(0)->Height();
  bool honest_agree =
      net->node(0)->checkpoints()->LocalHash(h) ==
          net->node(1)->checkpoints()->LocalHash(h) &&
      net->node(1)->checkpoints()->LocalHash(h) ==
          net->node(2)->checkpoints()->LocalHash(h);
  std::printf("honest nodes' write-set hashes agree at height %llu: %s\n",
              static_cast<unsigned long long>(h),
              honest_agree ? "yes" : "NO");
  net->Stop();

  // Part 2: tampering with a persisted block store is detected on load
  // (§3.5(6) — forging the chain requires the orderer and client keys).
  // The store is a directory of CRC-framed segments; flip one bit inside an
  // interior record and the reload refuses the whole log.
  auto dir = std::filesystem::temp_directory_path() / "byz_demo.blocks";
  std::filesystem::remove_all(dir);
  {
    auto store = BlockStore::Open(dir.string());
    Must(store.status(), "open store");
    Identity orderer =
        Identity::Create("org1", "orderer1", PrincipalRole::kOrderer);
    Identity client = Identity::Create("org1", "alice",
                                       PrincipalRole::kClient);
    std::vector<Transaction> txns;
    txns.push_back(Transaction::MakeOrderThenExecute(
        client, "tx-1", "put", {Value::Int(1), Value::Int(100)}));
    Block b1(1, "", std::move(txns), "demo", {});
    b1.AddOrdererSignature(orderer);
    Must(store.value()->Append(b1), "append");
    Block b2(2, b1.hash(), {}, "demo", {});
    b2.AddOrdererSignature(orderer);
    Must(store.value()->Append(b2), "append");
  }
  {
    auto segment = dir / "0000000001.seg";
    std::FILE* f = std::fopen(segment.string().c_str(), "r+b");
    std::fseek(f, 80, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 80, SEEK_SET);
    std::fputc(c ^ 0x1, f);  // flip one bit in the first stored block
    std::fclose(f);
  }
  auto tampered = BlockStore::Open(dir.string());
  std::printf("\nreloading a tampered block store: %s\n",
              tampered.status().ToString().c_str());
  std::filesystem::remove_all(dir);
  return honest_agree && !tampered.ok() ? 0 : 1;
}
