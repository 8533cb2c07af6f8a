// Value: the dynamically-typed cell value flowing through the SQL engine,
// the storage layer and the wire format. A restricted set of types is
// supported deliberately — every type here has a total order and a
// deterministic serialization, which the blockchain setting requires.
#ifndef BRDB_COMMON_VALUE_H_
#define BRDB_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace brdb {

/// SQL column types supported by the engine.
enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt = 2,     ///< 64-bit signed integer (covers INT and BIGINT)
  kDouble = 3,  ///< 64-bit IEEE float (DOUBLE PRECISION)
  kText = 4,    ///< variable-length UTF-8 string (TEXT / VARCHAR)
};

const char* ValueTypeToString(ValueType type);

/// A single SQL value. NULL is modelled as its own type rather than a
/// wrapper so that three-valued logic stays explicit in the evaluator.
class Value {
 public:
  Value() : type_(ValueType::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(ValueType::kBool, v); }
  static Value Int(int64_t v) { return Value(ValueType::kInt, v); }
  static Value Double(double v) { return Value(ValueType::kDouble, v); }
  static Value Text(std::string v) {
    Value out;
    out.type_ = ValueType::kText;
    out.data_ = std::move(v);
    return out;
  }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  bool AsBool() const { return std::get<bool>(data_); }
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsText() const { return std::get<std::string>(data_); }

  /// Numeric coercion used by arithmetic and aggregates: ints widen to
  /// double when mixed. Calling on non-numeric types is invalid.
  double AsNumeric() const {
    return type_ == ValueType::kInt ? static_cast<double>(AsInt())
                                    : AsDouble();
  }
  bool IsNumeric() const {
    return type_ == ValueType::kInt || type_ == ValueType::kDouble;
  }

  /// Total order across same-type values; ints and doubles compare
  /// numerically with each other, and NaN (any bit pattern) equals NaN and
  /// sorts above every other number, as in PostgreSQL. NULLs sort first
  /// (used by ORDER BY).
  /// Comparing other mixed types is a type error caught by the analyzer,
  /// but Compare falls back to type-tag order so it stays total.
  /// Int-int compares dominate index walks, so that path inlines here.
  int Compare(const Value& other) const {
    if (type_ == ValueType::kInt && other.type_ == ValueType::kInt) {
      int64_t a = *std::get_if<int64_t>(&data_);
      int64_t b = *std::get_if<int64_t>(&other.data_);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    return CompareSlow(other);
  }

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Deterministic human-readable rendering (used by tests, examples and
  /// the provenance CLI output).
  std::string ToString() const;

  /// Deterministic byte encoding appended to `out`; used for hashing
  /// write-sets and building index keys. Encodes the type tag then the
  /// payload, so distinct values never collide.
  void EncodeTo(std::string* out) const;

  /// Inverse of EncodeTo. Advances *offset past the consumed bytes.
  static Result<Value> DecodeFrom(const std::string& in, size_t* offset);

  /// Parse a value of the requested type from SQL literal text.
  static Result<Value> FromLiteral(ValueType type, const std::string& text);

  /// Hash that agrees with operator==, so hash-based GROUP BY, DISTINCT
  /// and joins match what the comparison operators say: ints and doubles
  /// hash as the double Compare widens them to (INT 1 and DOUBLE 1.0, and
  /// -0.0 and 0.0, hash alike; so does every NaN), text by its bytes.
  /// Never allocates.
  /// Above 2^53 Compare is not transitive (INT 2^53+1 = DOUBLE 2^53 =
  /// INT 2^53, yet the two INTs differ), so no hash can make grouping agree
  /// with it there: which of those INTs a DOUBLE 2^53 joins depends on
  /// which came first.
  size_t Hash() const;

 private:
  template <typename T>
  Value(ValueType type, T v) : type_(type), data_(v) {}

  int CompareSlow(const Value& other) const;

  ValueType type_;
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

/// A tuple of values — one table row or one intermediate result row.
using Row = std::vector<Value>;

/// Deterministic encoding of a whole row.
std::string EncodeRow(const Row& row);

struct RowHasher {
  size_t operator()(const Row& r) const;
};

}  // namespace brdb

#endif  // BRDB_COMMON_VALUE_H_
