// Database: the catalog of tables on one node, plus its transaction
// manager. Each node creates a `blockchain` schema (replicated, transactions
// flow through consensus) and may create `private` tables (the paper's
// non-blockchain schema, §3.7) which are local to the organization.
// System tables (pgledger, pgcerts, pgdeploy) are created at startup.
#ifndef BRDB_STORAGE_DATABASE_H_
#define BRDB_STORAGE_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"
#include "txn/txn_manager.h"

namespace brdb {

/// Well-known schema names.
inline constexpr const char* kBlockchainSchema = "blockchain";
inline constexpr const char* kPrivateSchema = "private";
inline constexpr const char* kSystemSchema = "system";

// System table names (paper §4.2).
inline constexpr const char* kLedgerTable = "pgledger";
inline constexpr const char* kCertsTable = "pgcerts";
inline constexpr const char* kDeployTable = "pgdeploy";

class Database {
 public:
  /// Creates the system tables. `txn_options` tunes the transaction
  /// manager's lock striping (benchmarks pass stripes=1 for the historical
  /// single-mutex baseline).
  explicit Database(const TxnManagerOptions& txn_options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Create a user table in the given schema.
  Result<Table*> CreateTable(TableSchema schema,
                             const std::string& db_schema = kBlockchainSchema);

  Result<Table*> GetTable(const std::string& name);
  Table* GetTableById(TableId id);

  Status DropTable(const std::string& name);

  std::vector<std::string> TableNames() const;

  /// All tables ordered by id. Checkpoint capture iterates this: the
  /// stable order makes the checkpoint bytes deterministic across nodes.
  std::vector<Table*> TablesById() const;

  // ---- Checkpoint restore (ledger/checkpoint_writer.h) ----

  /// Drop every table — system tables included — ahead of RestoreTable
  /// calls. Only valid while no transactions are running.
  void ResetForRestore();

  /// Re-create a table under its original id. Checkpoints keep table ids
  /// stable because RowId links are per-table and plan caches key on ids.
  Result<Table*> RestoreTable(TableId id, TableSchema schema,
                              const std::string& db_schema);

  /// Finish a restore: place the table-id counter past every restored id
  /// and invalidate cached statement plans.
  void FinishRestore(TableId next_table_id);

  /// Abandon a failed restore: wipe everything and re-create the system
  /// tables, returning to the just-constructed state (the caller then
  /// replays from genesis instead).
  void ResetToPristine();

  TxnManager* txn_manager() { return &txn_manager_; }

  /// Monotonic catalog version: bumped by every CREATE/DROP TABLE and by
  /// CREATE INDEX (via BumpSchemaVersion). Cached statement plans are keyed
  /// on it so DDL invalidates them (sql/executor.h).
  uint64_t schema_version() const {
    return schema_version_.load(std::memory_order_acquire);
  }
  void BumpSchemaVersion() {
    schema_version_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  void CreateSystemTables();

  std::atomic<uint64_t> schema_version_{0};
  mutable std::mutex mu_;
  TableId next_table_id_ = 1;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<TableId, Table*> by_id_;
  /// Dropped tables are retired here instead of destroyed so off-thread
  /// checkpoint captures holding Table* from an earlier pin stay safe.
  std::vector<std::unique_ptr<Table>> dropped_;
  TxnManager txn_manager_;
};

}  // namespace brdb

#endif  // BRDB_STORAGE_DATABASE_H_
