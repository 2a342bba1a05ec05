// Name resolution + predicate classification. The binder resolves every
// column reference against the catalog, then splits the WHERE clause into
//   * per-table filter conjuncts (reference exactly one table),
//   * equi-join predicates  (t1.c1 = t2.c2),
//   * residual conjuncts    (everything else).
// The executor consumes this decomposition directly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "storage/database.h"
#include "util/status.h"

namespace asqp {
namespace sql {

/// \brief An equi-join predicate between two FROM entries.
struct JoinPredicate {
  int left_table = -1;
  int left_col = -1;
  int right_table = -1;
  int right_col = -1;
};

/// \brief How the executor should produce one FROM entry's filtered
/// candidate rows. kFullScan (the binder's output) evaluates every visible
/// row; kIndexRange — chosen by the planner's access-path rule when an
/// ordered index exists and the converted conjunct is selective — binary-
/// searches the index for candidate ordinals first. Either way the
/// executor re-evaluates *all* filter conjuncts over the candidates, so an
/// access path can only change cost, never bytes (and the executor falls
/// back to kFullScan whenever the named index is unavailable at runtime).
struct AccessPath {
  enum class Kind : uint8_t { kFullScan, kIndexRange };
  Kind kind = Kind::kFullScan;
  /// Indexed column (schema position in the FROM entry's table).
  int column = -1;
  /// Value range of the converted conjunct, in Value::Compare order.
  bool has_lower = false;
  bool has_upper = false;
  bool lower_inclusive = true;
  bool upper_inclusive = true;
  storage::Value lower;
  storage::Value upper;
  /// Estimated selectivity of the converted conjunct (EXPLAIN only).
  double selectivity = 1.0;
};

/// \brief A fully resolved query, ready for execution.
struct BoundQuery {
  SelectStatement stmt;  // the bound statement, column refs annotated
  std::vector<std::shared_ptr<storage::Table>> tables;  // aligned with stmt.from

  /// filters[t] = conjuncts referencing only table t.
  std::vector<std::vector<ExprPtr>> filters;
  std::vector<JoinPredicate> joins;
  std::vector<ExprPtr> residual;

  /// Tables referenced by each residual conjunct (aligned with `residual`).
  std::vector<std::vector<int>> residual_tables;

  /// Access path per FROM entry, chosen by the planner (plan::PlanQuery).
  /// Empty (the binder's output) = full scans everywhere; the executor
  /// also treats any size mismatch as all-full-scans.
  std::vector<AccessPath> access_paths;

  /// Join sequence chosen by the planner (plan::PlanQuery): the first
  /// entry seeds the join, the rest attach in order. Empty (the binder's
  /// output) = the executor picks its runtime-greedy order from actual
  /// filtered candidate counts. The executor ignores anything that is not
  /// a permutation of [0, num_tables).
  std::vector<int> join_order;

  size_t num_tables() const { return tables.size(); }
};

/// Resolve `stmt` against `db`, annotating the statement in place: the
/// result owns it as BoundQuery::stmt, and nothing is copied. The caller
/// gives the statement up; on failure it is gone. The serving path binds
/// its freshly parsed statements this way. The annotations are written
/// into the Expr nodes, so a tree whose nodes other statements share must
/// be bound through the copying overload below.
[[nodiscard]] util::Result<BoundQuery> Bind(SelectStatement&& stmt,
                                            const storage::Database& db);

/// Resolve a deep copy of `stmt` against `db` (Clone(), then the overload
/// above); `stmt` is left untouched.
[[nodiscard]] util::Result<BoundQuery> Bind(const SelectStatement& stmt,
                                            const storage::Database& db);

/// Convenience: parse + bind.
[[nodiscard]] util::Result<BoundQuery> ParseAndBind(const std::string& sql,
                                      const storage::Database& db);

}  // namespace sql
}  // namespace asqp
