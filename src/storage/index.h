// Ordered secondary indexes over the rows visible through a DatabaseView.
//
// An OrderedIndex is a sorted permutation of one table's visible-row
// ordinals: entries are ordered by the column's Value (Value::Compare, the
// same total order the WHERE evaluator compares with) and NULL cells are
// excluded (a comparison against NULL is never true, so no predicate the
// planner converts can match them). Range lookups are two binary searches
// plus an ascending sort of the slice, so a selective predicate touches
// O(log n + matches) entries instead of scanning every visible row.
//
// An IndexCatalog owns the indexes of one *scope* — one (Database,
// ApproximationSet) pair, stamped with the model generation that built it.
// The executor only consults a catalog whose scope matches the view it is
// executing against (CoversView), so a full-database execution through an
// engine carrying approximation-set indexes silently full-scans instead of
// reading rows from the wrong scope. A column whose build fails (fault
// injection, future allocation failures) is simply absent from the
// catalog: every lookup path degrades to the sequential full scan, never
// to a wrong or dropped answer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "storage/database.h"
#include "storage/value.h"
#include "util/status.h"

namespace asqp {
namespace storage {

/// \brief A (possibly open-ended) range of column values, in the
/// Value::Compare order. Both bounds absent = every non-NULL row.
struct IndexBound {
  bool has_lower = false;
  bool has_upper = false;
  bool lower_inclusive = true;
  bool upper_inclusive = true;
  Value lower;
  Value upper;

  /// Point bound: lower = upper = v, both inclusive.
  static IndexBound Equal(Value v);
};

/// \brief Sorted-ordinal permutation index over one column of the rows
/// visible through a DatabaseView. Immutable once built.
class OrderedIndex {
 public:
  /// Build over `table`'s rows visible through `view`. Fails only on the
  /// registered `index.build` fault point (callers degrade to full scan).
  [[nodiscard]] static util::Result<OrderedIndex> Build(
      const DatabaseView& view, const Table& table, int column);

  const std::string& table_name() const { return table_; }
  int column() const { return column_; }
  /// Indexed entries = visible rows with a non-NULL column value.
  size_t num_entries() const { return ordinals_.size(); }

  /// Visible-row ordinals whose column value satisfies `bound`, sorted
  /// ascending — the same ordinal order a sequential scan visits, so a
  /// consumer that re-evaluates its predicates over these candidates
  /// produces byte-identical output to the full scan.
  std::vector<uint32_t> LookupRange(const IndexBound& bound) const;

 private:
  OrderedIndex() = default;

  std::string table_;
  int column_ = -1;
  /// Aligned arrays sorted by (keys_[i], ordinals_[i]): keys_ carries the
  /// column values so lookups never touch the (possibly mutated) view.
  std::vector<Value> keys_;
  std::vector<uint32_t> ordinals_;
};

/// \brief One column to index: table by name, column by schema position.
struct IndexColumnSpec {
  std::string table;
  int column = -1;
};

/// \brief The ordered indexes of one (Database, ApproximationSet) scope.
class IndexCatalog {
 public:
  /// Build indexes over `columns` of the rows visible through `view`.
  /// Never fails as a whole: a column whose build errors is skipped
  /// (counted in failed_builds()) and its queries full-scan instead.
  /// `generation` is the model generation this catalog serves (see
  /// AsqpModel::generation()); stale catalogs are detectable by stamp.
  static IndexCatalog Build(const DatabaseView& view,
                            const std::vector<IndexColumnSpec>& columns,
                            uint64_t generation);

  /// The index over (table, column), or null (not requested, build failed,
  /// or unknown) — null always means "use the full scan".
  const OrderedIndex* Find(const std::string& table, int column) const;

  /// True when `view` reads exactly the scope this catalog indexed: same
  /// Database and same ApproximationSet (by identity — index ordinals are
  /// positions in that subset's visible-row space).
  bool CoversView(const DatabaseView& view) const {
    return &view.db() == db_ && view.subset() == subset_;
  }

  uint64_t generation() const { return generation_; }
  size_t num_indexes() const { return indexes_.size(); }
  size_t failed_builds() const { return failed_; }

 private:
  const Database* db_ = nullptr;
  const ApproximationSet* subset_ = nullptr;
  uint64_t generation_ = 0;
  size_t failed_ = 0;
  std::map<std::pair<std::string, int>, OrderedIndex> indexes_;
};

/// Every column of every table in `db`: what the model indexes. The
/// approximation set is bounded by k tuples, so exhaustive indexing stays
/// cheap and the planner picks per-query which index (if any) pays.
std::vector<IndexColumnSpec> AllIndexColumns(const Database& db);

}  // namespace storage
}  // namespace asqp
