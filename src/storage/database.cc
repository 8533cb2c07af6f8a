#include "storage/database.h"

#include <algorithm>

namespace brdb {

Database::Database(const TxnManagerOptions& txn_options)
    : txn_manager_(txn_options) {
  CreateSystemTables();
}

void Database::CreateSystemTables() {
  // pgledger: one row per transaction per block (paper §4.2). Status is
  // written in a second pass once the whole block is decided (§3.6).
  {
    TableSchema schema(
        kLedgerTable,
        {{"block_num", ValueType::kInt, true, false, false, true},
         {"tx_seq", ValueType::kInt, true, false, false, false},
         {"txid", ValueType::kText, true, false, false, true},
         {"local_txn", ValueType::kInt, false, false, false, false},
         {"username", ValueType::kText, true, false, false, true},
         {"contract", ValueType::kText, true, false, false, false},
         {"args", ValueType::kText, false, false, false, false},
         {"status", ValueType::kText, false, false, false, false},
         {"commit_time", ValueType::kInt, false, false, false, false}});
    auto r = CreateTable(std::move(schema), kSystemSchema);
    (void)r;
  }
  // pgcerts: user name -> public key and role.
  {
    TableSchema schema(
        kCertsTable,
        {{"username", ValueType::kText, true, true, false, false},
         {"org", ValueType::kText, true, false, false, false},
         {"role", ValueType::kText, true, false, false, false},
         {"pubkey", ValueType::kInt, true, false, false, false}});
    auto r = CreateTable(std::move(schema), kSystemSchema);
    (void)r;
  }
  // pgdeploy: smart-contract deployment governance (paper §3.7).
  {
    TableSchema schema(
        kDeployTable,
        {{"deploy_id", ValueType::kInt, true, true, false, false},
         {"sql_text", ValueType::kText, true, false, false, false},
         {"proposer", ValueType::kText, true, false, false, false},
         {"status", ValueType::kText, true, false, false, false},
         {"approvals", ValueType::kText, false, false, false, false},
         {"rejections", ValueType::kText, false, false, false, false},
         {"comments", ValueType::kText, false, false, false, false}});
    auto r = CreateTable(std::move(schema), kSystemSchema);
    (void)r;
  }
}

Result<Table*> Database::CreateTable(TableSchema schema,
                                     const std::string& db_schema) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string name = schema.name();  // copy: schema is moved below
  if (name.empty()) return Status::InvalidArgument("table needs a name");
  if (tables_.count(name)) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  TableId id = next_table_id_++;
  auto table = std::make_unique<Table>(id, std::move(schema), db_schema);
  Table* ptr = table.get();
  tables_.emplace(name, std::move(table));
  by_id_.emplace(id, ptr);
  BumpSchemaVersion();
  return ptr;
}

Result<Table*> Database::GetTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + name);
  }
  return it->second.get();
}

Table* Database::GetTableById(TableId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

Status Database::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + name);
  }
  if (it->second->db_schema() == kSystemSchema) {
    return Status::PermissionDenied("cannot drop system table " + name);
  }
  by_id_.erase(it->second->id());
  // Retire, don't destroy: an off-thread checkpoint capture pinned at an
  // earlier block height may still be reading this table's versions. The
  // arena is append-only, so keeping the object alive until shutdown is
  // safe and costs only what the dropped table already held.
  dropped_.push_back(std::move(it->second));
  tables_.erase(it);
  BumpSchemaVersion();
  return Status::OK();
}

std::vector<Table*> Database::TablesById() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Table*> out;
  out.reserve(by_id_.size());
  for (const auto& [id, table] : by_id_) out.push_back(table);
  return out;
}

void Database::ResetForRestore() {
  std::lock_guard<std::mutex> lock(mu_);
  by_id_.clear();
  tables_.clear();
  next_table_id_ = 1;
  BumpSchemaVersion();
}

Result<Table*> Database::RestoreTable(TableId id, TableSchema schema,
                                      const std::string& db_schema) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string name = schema.name();
  if (name.empty() || id == 0) {
    return Status::InvalidArgument("restored table needs a name and an id");
  }
  if (tables_.count(name) || by_id_.count(id)) {
    return Status::AlreadyExists("restored table " + name + " (id " +
                                 std::to_string(id) + ") collides");
  }
  auto table = std::make_unique<Table>(id, std::move(schema), db_schema);
  Table* ptr = table.get();
  tables_.emplace(name, std::move(table));
  by_id_.emplace(id, ptr);
  return ptr;
}

void Database::ResetToPristine() {
  ResetForRestore();
  CreateSystemTables();
}

void Database::FinishRestore(TableId next_table_id) {
  std::lock_guard<std::mutex> lock(mu_);
  next_table_id_ = std::max(next_table_id_, next_table_id);
  BumpSchemaVersion();
}

std::vector<std::string> Database::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

}  // namespace brdb
