#include "storage/value.h"

namespace asqp {
namespace storage {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt64: return "INT64";
    case ValueType::kDouble: return "DOUBLE";
    case ValueType::kString: return "STRING";
  }
  return "UNKNOWN";
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt64: return std::to_string(AsInt64());
    case ValueType::kDouble: return std::to_string(AsDouble());
    case ValueType::kString: return AsString();
  }
  return "?";
}

}  // namespace storage
}  // namespace asqp
