#include <cctype>
#include <set>

#include "sql/token.h"

namespace brdb {
namespace sql {

namespace {

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kKeywords = {
      "SELECT", "FROM",   "WHERE",    "INSERT", "INTO",    "VALUES",
      "UPDATE", "SET",    "DELETE",   "CREATE", "TABLE",   "INDEX",
      "DROP",   "JOIN",   "INNER",    "LEFT",   "ON",      "AS",
      "AND",    "OR",     "NOT",      "NULL",   "IS",      "IN",
      "GROUP",  "BY",     "HAVING",   "ORDER",  "ASC",     "DESC",
      "LIMIT",  "OFFSET", "PRIMARY",  "KEY",    "UNIQUE",  "CHECK",
      "INT",    "INTEGER","BIGINT",   "DOUBLE", "PRECISION","FLOAT",
      "REAL",   "TEXT",   "VARCHAR",  "CHAR",   "BOOL",    "BOOLEAN",
      "TRUE",   "FALSE",  "CASE",     "WHEN",   "THEN",    "ELSE",
      "END",    "BETWEEN","DISTINCT", "FETCH",  "FIRST",   "ROWS",
      "ONLY",   "CONSTRAINT",
  };
  return kKeywords;
}

std::string ToUpper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- line comment
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    size_t start = i;
    // identifiers / keywords
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        ++i;
      }
      std::string word = input.substr(start, i - start);
      std::string upper = ToUpper(word);
      Token t;
      t.position = start;
      if (Keywords().count(upper)) {
        t.type = TokenType::kKeyword;
        t.text = upper;
      } else {
        t.type = TokenType::kIdentifier;
        t.text = ToLower(word);
      }
      tokens.push_back(std::move(t));
      continue;
    }
    // numbers
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      bool is_float = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(input[i])) ||
                       input[i] == '.')) {
        if (input[i] == '.') {
          if (is_float) {
            return Status::InvalidArgument("malformed number at position " +
                                           std::to_string(start));
          }
          is_float = true;
        }
        ++i;
      }
      Token t;
      t.position = start;
      t.type = is_float ? TokenType::kFloat : TokenType::kInteger;
      t.text = input.substr(start, i - start);
      tokens.push_back(std::move(t));
      continue;
    }
    // string literal
    if (c == '\'') {
      ++i;
      std::string value;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {  // escaped quote
            value.push_back('\'');
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        value.push_back(input[i]);
        ++i;
      }
      if (!closed) {
        return Status::InvalidArgument("unterminated string literal");
      }
      Token t;
      t.position = start;
      t.type = TokenType::kString;
      t.text = std::move(value);
      tokens.push_back(std::move(t));
      continue;
    }
    // $N parameter
    if (c == '$') {
      ++i;
      size_t num_start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        ++i;
      }
      if (i == num_start) {
        return Status::InvalidArgument(
            "expected parameter number or name after $");
      }
      Token t;
      t.position = start;
      t.type = TokenType::kParam;
      t.text = input.substr(num_start, i - num_start);
      tokens.push_back(std::move(t));
      continue;
    }
    // multi-char operators
    auto two = (i + 1 < n) ? input.substr(i, 2) : std::string();
    if (two == "<=" || two == ">=" || two == "<>" || two == "!=" ||
        two == "||") {
      Token t;
      t.position = start;
      t.type = TokenType::kSymbol;
      t.text = two == "!=" ? "<>" : two;
      tokens.push_back(std::move(t));
      i += 2;
      continue;
    }
    // single-char symbols
    static const std::string kSingles = "()+-*/%,.;=<>";
    if (kSingles.find(c) != std::string::npos) {
      Token t;
      t.position = start;
      t.type = TokenType::kSymbol;
      t.text = std::string(1, c);
      tokens.push_back(std::move(t));
      ++i;
      continue;
    }
    return Status::InvalidArgument("unexpected character '" +
                                   std::string(1, c) + "' at position " +
                                   std::to_string(i));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace sql
}  // namespace brdb
