// Table schemas and the column metadata the executor binds against.
//
// Supported column constraints: PRIMARY KEY (single column; implies UNIQUE,
// NOT NULL and an index), UNIQUE (implies an index), NOT NULL, and
// table-level CHECK expressions (stored as SQL text, evaluated by the SQL
// executor on every insert/update).
#ifndef BRDB_STORAGE_SCHEMA_H_
#define BRDB_STORAGE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace brdb {

using TableId = uint32_t;

struct ColumnDef {
  std::string name;
  ValueType type = ValueType::kNull;
  bool not_null = false;
  bool primary_key = false;
  bool unique = false;
  bool indexed = false;  ///< true when any index (pk/unique/secondary) exists
};

class TableSchema {
 public:
  TableSchema() = default;
  TableSchema(std::string name, std::vector<ColumnDef> columns);

  const std::string& name() const { return name_; }
  const std::vector<ColumnDef>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }

  /// Index of the PRIMARY KEY column, or -1 when the table has none.
  int pk_column() const { return pk_column_; }

  /// Column position by name; -1 when absent.
  int ColumnIndex(const std::string& name) const;

  /// CHECK constraint expressions (raw SQL text) attached to this table.
  const std::vector<std::string>& check_constraints() const {
    return checks_;
  }
  void AddCheckConstraint(std::string expr) {
    checks_.push_back(std::move(expr));
  }

  /// Validate a row against arity, types (NULL is acceptable for nullable
  /// columns; ints are accepted where doubles are declared) and NOT NULL.
  /// CHECK/UNIQUE are enforced elsewhere (executor / commit pipeline).
  Status ValidateRow(const Row& row) const;

  /// Mark a column as indexed (when CREATE INDEX runs after CREATE TABLE).
  Status MarkIndexed(const std::string& column);

 private:
  std::string name_;
  std::vector<ColumnDef> columns_;
  std::vector<std::string> checks_;
  int pk_column_ = -1;
};

}  // namespace brdb

#endif  // BRDB_STORAGE_SCHEMA_H_
