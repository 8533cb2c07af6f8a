// Quickstart: bring up a 3-organization blockchain relational database,
// deploy a table and a SQL smart contract through the governance flow,
// pipeline invocations through the asynchronous Session API, and read the
// replicated state back with a prepared statement. Exits non-zero unless
// every node computed the same write-set hash.
//
//   cmake -B build -S . && cmake --build build
//   ./build/example_quickstart
#include <cstdio>

#include "core/blockchain_network.h"

using namespace brdb;

int main() {
  // 1. Bootstrap the permissioned network (§3.7): three organizations,
  // each with an admin, a database peer and an orderer node; Kafka-style
  // ordering; order-then-execute transaction flow.
  NetworkOptions options;
  options.orgs = {"org1", "org2", "org3"};
  options.flow = TransactionFlow::kOrderThenExecute;
  options.orderer_type = OrdererType::kKafka;
  options.orderer_config.block_size = 10;
  options.orderer_config.block_timeout_us = 50000;  // 50 ms
  auto net = BlockchainNetwork::Create(options);
  if (!net->Start().ok()) {
    std::fprintf(stderr, "network failed to start\n");
    return 1;
  }
  std::printf("network up: %zu database nodes\n", net->num_nodes());

  // 2. Deploy schema and contract through the governance contracts:
  // create_deployTx by org1's admin, approve_deployTx by the other
  // admins, submit_deployTx once every organization approved.
  Status st = net->DeployContract(
      "CREATE TABLE greetings (id INT PRIMARY KEY, author TEXT, msg TEXT)");
  if (!st.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // The procedure takes the id explicitly so concurrent invocations are
  // independent — a MAX(id)+1 read-modify-write would serialize-conflict
  // when pipelined into one block (SSI aborts all but one, by design).
  st = net->DeployContract(
      "CREATE PROCEDURE greet(3) AS "
      "INSERT INTO greetings VALUES ($1, $2, $3)");
  if (!st.ok()) {
    std::fprintf(stderr, "contract deploy failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("schema and contract deployed with all-org approval\n");

  // 3. The asynchronous Session API: one batch signs and submits all three
  // invocations in a single frame, and each TxnHandle is a future over the
  // network's decision — nothing blocks until we choose to wait.
  Session* alice = net->CreateSession("org1", "alice");
  std::vector<Invocation> batch;
  int64_t next_id = 1;
  for (const char* msg : {"hello, ledger", "replicated everywhere",
                          "ordered by consensus"}) {
    batch.push_back(Invocation{
        "greet",
        {Value::Int(next_id++), Value::Text("alice"), Value::Text(msg)}});
  }
  std::vector<TxnHandle> handles = alice->SubmitBatch(std::move(batch));
  for (TxnHandle& h : handles) {
    if (!h.submit_status().ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   h.submit_status().ToString().c_str());
      return 1;
    }
  }
  // All three are in flight; now collect the decisions.
  for (TxnHandle& h : handles) {
    Status commit = h.WaitAllNodes();
    std::printf("tx %.12s... -> %s (block %llu)\n", h.txid().c_str(),
                commit.ToString().c_str(),
                static_cast<unsigned long long>(h.CommitBlock()));
  }

  // 4. Read back through a prepared statement: parsed and validated once,
  // bound per execution, served by a round-robin-selected healthy peer.
  auto prep =
      alice->Prepare("SELECT id, msg FROM greetings WHERE id >= $1 "
                     "ORDER BY id");
  if (!prep.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 prep.status().ToString().c_str());
    return 1;
  }
  std::printf("prepared statement takes %d parameter(s)\n",
              prep.value().param_count());
  auto rows = alice->Query(prep.value(), {Value::Int(1)});
  if (!rows.ok()) {
    std::fprintf(stderr, "query failed\n");
    return 1;
  }
  for (const Row& row : rows.value().rows) {
    std::printf("  %lld | %s\n", static_cast<long long>(row[0].AsInt()),
                row[1].AsText().c_str());
  }

  // 5. Checkpoints: every node computed the same write-set hash per block —
  // and every byte of client traffic above crossed the wire codec.
  BlockNum h = net->node(0)->Height();
  size_t agree = 0;
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    if (net->node(i)->checkpoints()->LocalHash(h) ==
        net->node(0)->checkpoints()->LocalHash(h)) {
      ++agree;
    }
  }
  std::printf("height %llu, write-set hash: %.16s... (identical on %zu/%zu "
              "nodes)\n",
              static_cast<unsigned long long>(h),
              net->node(0)->checkpoints()->LocalHash(h).c_str(), agree,
              net->num_nodes());
  const TransportCounters& counters = net->transport()->counters();
  std::printf("transport: %llu frames sent, %llu received (%llu + %llu "
              "bytes through wire/codec)\n",
              static_cast<unsigned long long>(counters.frames_sent.load()),
              static_cast<unsigned long long>(
                  counters.frames_received.load()),
              static_cast<unsigned long long>(counters.bytes_sent.load()),
              static_cast<unsigned long long>(
                  counters.bytes_received.load()));
  net->Stop();
  return agree == net->num_nodes() ? 0 : 1;
}
