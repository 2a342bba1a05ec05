// Materialized query results.
#pragma once

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "storage/value.h"

namespace asqp {
namespace exec {

/// \brief A materialized query result: column names plus value rows.
///
/// Immutable once built: the rows are held behind a shared pointer to
/// const, so a copy shares its source's rows in O(1) and no thread ever
/// writes rows that another thread can read. A copy may outlive the
/// result it was copied from. Column names are per object, by value.
class ResultSet {
 public:
  using Row = std::vector<storage::Value>;
  using Rows = std::vector<Row>;

  /// An empty result: no columns, no rows.
  ResultSet() = default;
  /// A result with `column_names` and `rows`. The rows block holds no
  /// spare row slots (copies share it, and a cache entry keeps it alive);
  /// an empty `rows` allocates no rows block.
  explicit ResultSet(std::vector<std::string> column_names, Rows rows = {})
      : column_names_(std::move(column_names)),
        rows_(rows.empty() ? nullptr : Share(std::move(rows))) {}

  const std::vector<std::string>& column_names() const { return column_names_; }
  size_t num_columns() const { return column_names_.size(); }
  size_t num_rows() const { return rows_ != nullptr ? rows_->size() : 0; }

  const Row& row(size_t i) const { return (*rows_)[i]; }
  /// The rows; every copy of this result returns the same object. A
  /// result without rows (including a moved-from one) returns one shared
  /// empty vector.
  const Rows& rows() const { return rows_ != nullptr ? *rows_ : NoRows(); }

  /// Stable serialization of row `i`, usable as a hash/set key. Two rows
  /// with equal values produce equal keys.
  std::string RowKey(size_t i) const {
    std::string key;
    for (const storage::Value& v : row(i)) {
      key += static_cast<char>('0' + static_cast<int>(v.type()));
      key += v.ToString();
      key += '\x01';
    }
    return key;
  }

  /// Set of all row keys (used by the score and diversity metrics).
  std::unordered_set<std::string> RowKeySet() const {
    std::unordered_set<std::string> keys;
    keys.reserve(num_rows() * 2);
    for (size_t i = 0; i < num_rows(); ++i) keys.insert(RowKey(i));
    return keys;
  }

 private:
  static std::shared_ptr<const Rows> Share(Rows rows) {
    rows.shrink_to_fit();  // a no-op when the builder sized it exactly
    return std::make_shared<const Rows>(std::move(rows));
  }

  static const Rows& NoRows() {
    static const Rows kNoRows;
    return kNoRows;
  }

  std::vector<std::string> column_names_;
  /// Null when there are no rows.
  std::shared_ptr<const Rows> rows_;
};

}  // namespace exec
}  // namespace asqp
