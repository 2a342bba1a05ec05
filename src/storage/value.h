// Scalar value type used at API boundaries (query constants, result rows).
// Bulk storage is columnar (see column.h); Value is for the narrow waist.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

namespace asqp {
namespace storage {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

const char* ValueTypeName(ValueType type);

/// \brief A dynamically-typed scalar: NULL, INT64, DOUBLE, or STRING.
class Value {
 public:
  Value() : repr_(std::monostate{}) {}
  explicit Value(int64_t v) : repr_(v) {}
  explicit Value(double v) : repr_(v) {}
  explicit Value(std::string v) : repr_(std::move(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    switch (repr_.index()) {
      case 0: return ValueType::kNull;
      case 1: return ValueType::kInt64;
      case 2: return ValueType::kDouble;
      default: return ValueType::kString;
    }
  }

  bool is_null() const { return repr_.index() == 0; }
  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  /// Numeric view: INT64 and DOUBLE both convert; anything else is 0.
  double ToNumeric() const {
    switch (type()) {
      case ValueType::kInt64: return static_cast<double>(AsInt64());
      case ValueType::kDouble: return AsDouble();
      default: return 0.0;
    }
  }

  bool is_numeric() const {
    const ValueType t = type();
    return t == ValueType::kInt64 || t == ValueType::kDouble;
  }

  /// Total order used for sorting and comparison predicates. NULL sorts
  /// first; numerics compare numerically across INT64/DOUBLE; strings
  /// compare lexicographically; numeric < string across types.
  int Compare(const Value& other) const {
    const bool ln = is_null();
    const bool rn = other.is_null();
    if (ln || rn) return static_cast<int>(rn) - static_cast<int>(ln) == 0
                             ? 0
                             : (ln ? -1 : 1);
    const bool lnum = is_numeric();
    const bool rnum = other.is_numeric();
    if (lnum && rnum) {
      const double a = ToNumeric();
      const double b = other.ToNumeric();
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    if (lnum != rnum) return lnum ? -1 : 1;
    return AsString().compare(other.AsString()) < 0
               ? -1
               : (AsString() == other.AsString() ? 0 : 1);
  }

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Out of line: inlined into a caller that formats a temporary Value,
  /// GCC 12 under -fsanitize=address reports the variant's numeric
  /// alternatives as maybe-uninitialized.
  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> repr_;
};

}  // namespace storage
}  // namespace asqp
