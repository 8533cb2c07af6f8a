// Supply-chain provenance (paper §4.2, Table 3): suppliers and a
// manufacturer update shared invoices through smart contracts; auditors
// then run provenance queries that join historical row versions with the
// pgledger system table to answer "who changed what, when".
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

Status SubmitAndWait(Session* s, const std::string& contract,
                     std::vector<Value> args) {
  return s->Submit(contract, std::move(args)).WaitAllNodes();
}

}  // namespace

int main() {
  NetworkOptions options;
  options.orgs = {"supplier-co", "manufacturer-co", "logistics-co"};
  options.flow = TransactionFlow::kExecuteOrderParallel;
  options.orderer_config.block_size = 10;
  options.orderer_config.block_timeout_us = 50000;
  auto net = BlockchainNetwork::Create(options);
  Must(net->Start(), "start");

  Must(net->DeployContract(
           "CREATE TABLE invoices (invoice_id INT PRIMARY KEY, "
           "supplier TEXT, amount INT, state TEXT, CHECK (amount >= 0))"),
       "deploy invoices");
  Must(net->DeployContract(
           "CREATE PROCEDURE create_invoice(3) AS "
           "INSERT INTO invoices VALUES ($1, $2, $3, 'issued')"),
       "deploy create_invoice");
  Must(net->DeployContract(
           "CREATE PROCEDURE revise_amount(2) AS "
           "cur := SELECT state FROM invoices WHERE invoice_id = $1;"
           "REQUIRE $cur = 'issued';"
           "UPDATE invoices SET amount = $2 WHERE invoice_id = $1"),
       "deploy revise_amount");
  Must(net->DeployContract(
           "CREATE PROCEDURE accept_invoice(1) AS "
           "UPDATE invoices SET state = 'accepted' WHERE invoice_id = $1"),
       "deploy accept_invoice");

  Session* supplier = net->CreateSession("supplier-co", "supplier1");
  Session* manufacturer = net->CreateSession("manufacturer-co", "buyer1");

  // The invoice lifecycle: issued by the supplier, revised twice, then
  // accepted by the manufacturer. Every step is a signed transaction.
  Must(SubmitAndWait(supplier, "create_invoice",
                     {Value::Int(1001), Value::Text("supplier1"),
                      Value::Int(5000)}),
       "create");
  Must(SubmitAndWait(supplier, "revise_amount",
                     {Value::Int(1001), Value::Int(5400)}),
       "revise 1");
  Must(SubmitAndWait(supplier, "revise_amount",
                     {Value::Int(1001), Value::Int(5150)}),
       "revise 2");
  Must(SubmitAndWait(manufacturer, "accept_invoice", {Value::Int(1001)}),
       "accept");

  // A REQUIRE guard: revising after acceptance must fail on every node.
  Status late = SubmitAndWait(supplier, "revise_amount",
                              {Value::Int(1001), Value::Int(1)});
  std::printf("revision after acceptance: %s (expected abort)\n",
              late.ToString().c_str());

  // Current state: one live row.
  auto live = manufacturer->Query(
      "SELECT amount, state FROM invoices WHERE invoice_id = 1001");
  Must(live.status(), "live query");
  std::printf("\nlive invoice: amount=%lld state=%s\n",
              static_cast<long long>(live.value().rows[0][0].AsInt()),
              live.value().rows[0][1].AsText().c_str());

  // Table 3-style audit #1: full history of invoice 1001 with the user and
  // contract that superseded each version (join on the deleter txn id).
  auto history = manufacturer->ProvenanceQuery(
      "SELECT i.amount, i.state, l.username, l.contract "
      "FROM invoices i JOIN pgledger l ON i.xmax = l.local_txn "
      "WHERE i.invoice_id = 1001 ORDER BY i.deleter ASC");
  Must(history.status(), "history query");
  std::printf("\naudit: superseded versions of invoice 1001\n");
  std::printf("%-8s %-10s %-12s %-16s\n", "amount", "state", "changed_by",
              "via_contract");
  for (const Row& row : history.value().rows) {
    std::printf("%-8lld %-10s %-12s %-16s\n",
                static_cast<long long>(row[0].AsInt()),
                row[1].AsText().c_str(), row[2].AsText().c_str(),
                row[3].AsText().c_str());
  }

  // Table 3-style audit #2: which invoice versions did supplier1's
  // transactions produce (join on the creator txn id), block by block?
  auto by_supplier = manufacturer->ProvenanceQuery(
      "SELECT l.block_num, i.amount, i.state "
      "FROM invoices i JOIN pgledger l ON i.xmin = l.local_txn "
      "WHERE l.username = 'supplier1' AND l.status = 'committed' "
      "ORDER BY l.block_num ASC");
  Must(by_supplier.status(), "by-supplier query");
  std::printf("\naudit: versions created by supplier1's transactions\n");
  std::printf("%-8s %-8s %-10s\n", "block", "amount", "state");
  for (const Row& row : by_supplier.value().rows) {
    std::printf("%-8lld %-8lld %-10s\n",
                static_cast<long long>(row[0].AsInt()),
                static_cast<long long>(row[1].AsInt()),
                row[2].AsText().c_str());
  }

  net->Stop();
  return 0;
}
