#include "common/value.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>
#include <string_view>

namespace brdb {

namespace {

// Little-endian fixed-width integer encoding keeps the wire format
// deterministic across hosts we care about; asserts would catch a
// big-endian port.
void PutFixed64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

bool GetFixed64(const std::string& in, size_t* offset, uint64_t* v) {
  if (*offset + 8 > in.size()) return false;
  std::memcpy(v, in.data() + *offset, 8);
  *offset += 8;
  return true;
}

}  // namespace

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kInt:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kText:
      return "TEXT";
  }
  return "UNKNOWN";
}

int Value::CompareSlow(const Value& other) const {
  // NULL sorts before everything, equal to itself.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  // Numeric cross-type comparison (int-int went through the inline path).
  // NaN follows PostgreSQL: equal to itself, above every other number.
  if (IsNumeric() && other.IsNumeric()) {
    double a = AsNumeric(), b = other.AsNumeric();
    if (a < b) return -1;
    if (a > b) return 1;
    if (a == b) return 0;
    const bool a_nan = std::isnan(a), b_nan = std::isnan(b);
    return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
  }
  if (type_ != other.type_) {
    return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
  }
  switch (type_) {
    case ValueType::kBool: {
      int a = AsBool() ? 1 : 0, b = other.AsBool() ? 1 : 0;
      return a - b;
    }
    case ValueType::kText: {
      int c = AsText().compare(other.AsText());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;  // unreachable: numeric and null handled above
  }
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      std::ostringstream os;
      os << AsDouble();
      return os.str();
    }
    case ValueType::kText:
      return AsText();
  }
  return "?";
}

void Value::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(type_));
  switch (type_) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      out->push_back(AsBool() ? 1 : 0);
      break;
    case ValueType::kInt:
      PutFixed64(out, static_cast<uint64_t>(AsInt()));
      break;
    case ValueType::kDouble: {
      double d = AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      PutFixed64(out, bits);
      break;
    }
    case ValueType::kText:
      PutFixed64(out, AsText().size());
      out->append(AsText());
      break;
  }
}

Result<Value> Value::DecodeFrom(const std::string& in, size_t* offset) {
  if (*offset >= in.size()) {
    return Status::Corruption("value decode: truncated input");
  }
  auto type = static_cast<ValueType>(in[*offset]);
  ++*offset;
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      if (*offset >= in.size()) {
        return Status::Corruption("value decode: truncated bool");
      }
      bool b = in[*offset] != 0;
      ++*offset;
      return Value::Bool(b);
    }
    case ValueType::kInt: {
      uint64_t v;
      if (!GetFixed64(in, offset, &v)) {
        return Status::Corruption("value decode: truncated int");
      }
      return Value::Int(static_cast<int64_t>(v));
    }
    case ValueType::kDouble: {
      uint64_t bits;
      if (!GetFixed64(in, offset, &bits)) {
        return Status::Corruption("value decode: truncated double");
      }
      double d;
      std::memcpy(&d, &bits, 8);
      return Value::Double(d);
    }
    case ValueType::kText: {
      uint64_t len;
      if (!GetFixed64(in, offset, &len)) {
        return Status::Corruption("value decode: truncated text length");
      }
      if (len > in.size() - *offset) {  // overflow-safe bound check
        return Status::Corruption("value decode: truncated text body");
      }
      Value v = Value::Text(in.substr(*offset, len));
      *offset += len;
      return v;
    }
  }
  return Status::Corruption("value decode: unknown type tag");
}

Result<Value> Value::FromLiteral(ValueType type, const std::string& text) {
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool:
      if (text == "true" || text == "TRUE") return Value::Bool(true);
      if (text == "false" || text == "FALSE") return Value::Bool(false);
      return Status::InvalidArgument("bad bool literal: " + text);
    case ValueType::kInt: {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(text.c_str(), &end, 10);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad int literal: " + text);
      }
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      errno = 0;
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad double literal: " + text);
      }
      return Value::Double(v);
    }
    case ValueType::kText:
      return Value::Text(text);
  }
  return Status::InvalidArgument("bad literal type");
}

size_t Value::Hash() const {
  switch (type_) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return AsBool() ? 1 : 2;
    case ValueType::kInt:
    case ValueType::kDouble: {
      const double d = AsNumeric();
      if (std::isnan(d)) return 3;  // every NaN bit pattern is one value
      return std::hash<double>{}(d);  // -0.0 and 0.0 hash alike
    }
    case ValueType::kText:
      return std::hash<std::string_view>{}(AsText());
  }
  return 0;
}

std::string EncodeRow(const Row& row) {
  std::string out;
  for (const Value& v : row) v.EncodeTo(&out);
  return out;
}

size_t RowHasher::operator()(const Row& r) const {
  uint64_t h = 1469598103934665603ULL;
  for (const Value& v : r) {
    h ^= v.Hash();
    h *= 1099511628211ULL;
  }
  return static_cast<size_t>(h);
}

}  // namespace brdb
