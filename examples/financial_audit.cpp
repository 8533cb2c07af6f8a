// Financial services scenario (paper §1 motivation): interbank accounts
// with balance-guarded transfers, serializable isolation under concurrent
// conflicting transactions, and compliance reporting that combines ledger
// metadata with analytical SQL — the workload class the paper argues is
// "impossible to implement efficiently" on key-value blockchains.
#include <cstdio>

#include "core/blockchain_network.h"

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
  options.orgs = {"bank-a", "bank-b", "clearing-house"};
  options.flow = TransactionFlow::kOrderThenExecute;
  options.orderer_type = OrdererType::kKafka;  // CFT ordering
  options.orderer_config.block_size = 20;
  options.orderer_config.block_timeout_us = 50000;
  auto net = BlockchainNetwork::Create(options);
  Must(net->Start(), "start");

  Must(net->DeployContract(
           "CREATE TABLE accounts (acct INT PRIMARY KEY, bank TEXT, "
           "balance INT, CHECK (balance >= 0))"),
       "deploy accounts");
  Must(net->DeployContract(
           "CREATE INDEX idx_bank ON accounts (bank)"),
       "deploy index");
  Must(net->DeployContract(
           "CREATE PROCEDURE open_account(3) AS "
           "INSERT INTO accounts VALUES ($1, $2, $3)"),
       "deploy open_account");
  Must(net->DeployContract(
           "CREATE PROCEDURE transfer(3) AS "
           "bal := SELECT balance FROM accounts WHERE acct = $1;"
           "REQUIRE $bal >= $3;"
           "UPDATE accounts SET balance = balance - $3 WHERE acct = $1;"
           "UPDATE accounts SET balance = balance + $3 WHERE acct = $2"),
       "deploy transfer");

  Session* teller_a = net->CreateSession("bank-a", "teller-a");
  Session* teller_b = net->CreateSession("bank-b", "teller-b");

  // Open accounts: 2 at bank-a, 2 at bank-b.
  struct Acct {
    int id;
    const char* bank;
    int balance;
  };
  for (const Acct& a : {Acct{1, "bank-a", 1000}, Acct{2, "bank-a", 500},
                        Acct{3, "bank-b", 800}, Acct{4, "bank-b", 200}}) {
    TxnHandle t = teller_a->Submit("open_account",
                                   {Value::Int(a.id), Value::Text(a.bank),
                                    Value::Int(a.balance)});
    Must(t.submit_status(), "open");
    Must(t.WaitAllNodes(), "open wait");
  }

  // Fire concurrent transfers, some of which conflict on the same account
  // within a block. SSI + block-order ww resolution guarantees every node
  // commits exactly the same subset.
  std::vector<TxnHandle> txns;
  struct Xfer {
    Session* who;
    int from, to, amount;
  };
  const Xfer xfers[] = {Xfer{teller_a, 1, 3, 100}, Xfer{teller_b, 2, 4, 75},
                        Xfer{teller_a, 3, 2, 300}, Xfer{teller_b, 4, 1, 50},
                        Xfer{teller_a, 2, 3, 9999},  // exceeds balance
                        Xfer{teller_b, 1, 4, 25}};
  int n = 0;
  for (const Xfer& x : xfers) {
    TxnHandle t = x.who->Submit("transfer", {Value::Int(x.from),
                                             Value::Int(x.to),
                                             Value::Int(x.amount)});
    if (t.submit_status().ok()) txns.push_back(t);
    // Pair up submissions: some transfers run concurrently (and may
    // conflict), others land in later blocks.
    if (++n % 2 == 0 && !txns.empty()) {
      (void)txns.back().WaitAllNodes(20000000);
    }
  }
  int committed = 0, aborted = 0;
  for (auto& t : txns) {
    Status st = t.WaitAllNodes(20000000);
    st.ok() ? ++committed : ++aborted;
  }
  net->WaitIdle();
  std::printf("transfers: %d committed, %d aborted (conflicts/guards)\n",
              committed, aborted);

  // Invariant: money is conserved on every replica.
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    auto r = net->node(i)->Query("teller-a",
                                 "SELECT SUM(balance) FROM accounts");
    Must(r.status(), "sum");
    std::printf("%s total balance: %lld\n", net->node(i)->name().c_str(),
                static_cast<long long>(r.value().Scalar().value().AsInt()));
  }

  // Compliance report: per-bank balances (the analytical SQL the paper's
  // intro motivates), plus an audit of every committed transfer from the
  // ledger table.
  auto report = teller_a->Query(
      "SELECT bank, COUNT(*) AS accounts, SUM(balance) AS total "
      "FROM accounts GROUP BY bank ORDER BY bank");
  Must(report.status(), "report");
  std::printf("\nper-bank position:\n%-16s %-10s %-10s\n", "bank", "accounts",
              "total");
  for (const Row& row : report.value().rows) {
    std::printf("%-16s %-10lld %-10lld\n", row[0].AsText().c_str(),
                static_cast<long long>(row[1].AsInt()),
                static_cast<long long>(row[2].AsInt()));
  }

  auto audit = teller_a->Query(
      "SELECT username, COUNT(*) AS txns FROM pgledger "
      "WHERE contract = 'transfer' AND status = 'committed' "
      "GROUP BY username ORDER BY username");
  Must(audit.status(), "audit");
  std::printf("\ncommitted transfers by user (from pgledger):\n");
  for (const Row& row : audit.value().rows) {
    std::printf("  %s: %lld\n", row[0].AsText().c_str(),
                static_cast<long long>(row[1].AsInt()));
  }

  net->Stop();
  return 0;
}
