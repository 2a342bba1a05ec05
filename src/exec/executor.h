// Query execution over a DatabaseView (full database or approximation set).
//
// Pipeline: per-table filtered scans -> greedy hash-join ordering (smallest
// filtered table first, joined via equi-predicates; cross product only when
// the join graph is disconnected) -> residual predicates (applied as soon
// as their tables are joined) -> aggregation or projection -> DISTINCT ->
// ORDER BY -> LIMIT.
//
// Parallelism: with ExecOptions::num_threads > 1 every operator runs
// morsel-parallel over a thread pool owned by the engine — scan/filter,
// hash-join *build* (radix-partitioned: each morsel hashes its build rows
// into per-morsel partition buffers, merged into the final per-partition
// hash tables in morsel order), hash-join probe, cross product, residual
// predicate filters, projection, and aggregation (per-morsel partial group
// tables merged associatively in morsel order into a canonically ordered
// final table). Base-table rows (and intermediate join tuples) are split
// into fixed-size morsels, each morsel works into a thread-local buffer,
// and the per-morsel outputs are combined in morsel order — so the
// produced ResultSet is bit-for-bit identical at every thread count. An
// operator whose input fits in one morsel runs inline on the calling
// thread, as one morsel folds exactly like the sequential path. The
// morsel decomposition itself (morsel_rows) is part of the plan: floating
// point SUM/AVG partials are reduced per-morsel then merged in morsel
// order, so the reduction tree — and thus the low-order bits over
// adversarial doubles — depends on morsel_rows but never on num_threads
// (see DESIGN.md "Partitioned build & partial aggregation").
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "exec/result_set.h"
#include "sql/binder.h"
#include "storage/database.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace asqp {
namespace util {
class ThreadPool;
}  // namespace util

namespace plan {
class StatsCatalog;
}  // namespace plan

namespace storage {
class IndexCatalog;
}  // namespace storage

namespace exec {

struct ExecOptions {
  /// Abort with ExecutionError when an intermediate join result exceeds
  /// this many rows (guards against accidental cross-product blowups).
  size_t max_intermediate_rows = 20'000'000;
  /// Total execution threads for morsel-parallel scans, hash-join probes,
  /// and residual filters. 0 or 1 = fully sequential (no pool is created;
  /// the default, so library users opt in explicitly). The calling thread
  /// participates, so `num_threads` is the total concurrency, not the
  /// helper count. Results are identical across any thread count.
  size_t num_threads = 1;
  /// Rows per morsel dispatched to the pool. Smaller morsels improve load
  /// balance and deadline latency; larger ones amortize dispatch overhead.
  /// Aggregation always reduces per-morsel partials in morsel order (even
  /// sequentially), so changing morsel_rows may flip the last ulp of a
  /// floating-point SUM/AVG; changing num_threads never does.
  size_t morsel_rows = 16 * 1024;
  /// Radix partitions for the parallel hash-join build. Build keys are
  /// FNV-1a hashed into one of `build_partitions` buckets; per-morsel
  /// bucket buffers merge in morsel order, one thread per partition.
  /// 0 = auto (smallest power of two >= 4 * num_threads, capped at 64).
  /// Ignored by the sequential engine (single partition).
  size_t build_partitions = 0;
  /// Externally owned worker pool. When set, the engine runs its morsels
  /// on this pool instead of creating a private one — the serving layer
  /// hands every concurrent session the same process-wide pool so N
  /// sessions never spawn N * num_threads threads. The pool must outlive
  /// the engine. `num_threads` is derived from the pool (workers + the
  /// calling thread) and any explicit value is ignored. Morsel
  /// decomposition (morsel_rows) is unchanged, so results stay
  /// bit-identical to a private pool of any size.
  std::shared_ptr<util::ThreadPool> shared_pool = nullptr;
  /// Run the cost-based planner (src/plan) on every Execute: constant
  /// folding, redundant-predicate pruning, transitive filter pushdown
  /// across join equalities, and cost-ordered join trees. Results are
  /// byte-identical with the planner on or off (the executor canonicalizes
  /// the joined tuple order); off is for A/B comparison and benchmarks.
  /// ExecuteWithProvenance never plans (its callers consume the raw greedy
  /// join-order tuples).
  bool enable_planner = true;
  /// Column statistics for the planner's cardinality estimates, collected
  /// once per database (plan::StatsCatalog::Collect) and shared across
  /// engines. Null = estimate from fixed default selectivities.
  std::shared_ptr<const plan::StatsCatalog> planner_stats = nullptr;
  /// Ordered secondary indexes (storage::IndexCatalog) for the planner's
  /// access-path rule. Consulted only when the catalog's scope covers the
  /// view being executed (IndexCatalog::CoversView) — an execution against
  /// any other view plans and runs as if no catalog were set, so one
  /// engine can serve both the indexed approximation-set view and
  /// unindexed full-database fallbacks. Results are byte-identical with
  /// the catalog set or not (the index yields candidate ordinals in scan
  /// order and every filter conjunct is re-evaluated over them). Explain()
  /// has no view to check and reports plans as if the catalog covered it.
  std::shared_ptr<const storage::IndexCatalog> index_catalog = nullptr;
};

/// \brief One member of a shared filter scan (QueryEngine::SharedFilterScan):
/// a planned/bound query plus the FROM index the scanned table occupies in
/// it. The scan evaluates `query->filters[table_index]` — so for planned
/// queries the member sees exactly the conjuncts (including pushed-down
/// ones) that FilterScans would evaluate.
struct SharedScanMember {
  const sql::BoundQuery* query = nullptr;
  size_t table_index = 0;
};

/// Preselected per-table candidate rows for QueryEngine::ExecutePlanned:
/// entry t replaces FROM table t's filtered scan with the given physical
/// row ids, which must be exactly what the table's filtered scan would
/// have produced (SharedFilterScan guarantees this). A null entry — or a
/// vector shorter than the FROM list — scans that table normally.
using ScanSelection = std::shared_ptr<const std::vector<uint32_t>>;

/// \brief Join result with provenance: for every joined tuple, the physical
/// row id contributed by each FROM entry. Used by the ASQP pre-processing
/// pipeline to build its action-space pool out of executed query
/// representatives (projection, DISTINCT, ORDER BY, and LIMIT are *not*
/// applied — callers want the underlying base tuples).
struct ProvenancedJoin {
  /// Table name per FROM entry (aligned with each tuple's entries).
  std::vector<std::string> table_names;
  /// Row-major tuples: tuples[i][t] is the row id of table_names[t].
  std::vector<std::vector<uint32_t>> tuples;
};

class QueryEngine {
 public:
  explicit QueryEngine(ExecOptions options = {});

  /// Execute a bound query against `view`. The ExecContext's deadline /
  /// cancellation flag / row budget are polled inside the scan, join,
  /// aggregation, and projection loops (every few hundred rows), so an
  /// expired or cancelled execution returns kDeadlineExceeded /
  /// kCancelled / kResourceExhausted promptly instead of running
  /// unbounded.
  [[nodiscard]] util::Result<ResultSet> Execute(
      const sql::BoundQuery& query, const storage::DatabaseView& view,
      const util::ExecContext& context = util::ExecContext()) const;

  /// Parse, bind, and execute `sql` against `view`'s database.
  [[nodiscard]] util::Result<ResultSet> ExecuteSql(
      const std::string& sql, const storage::DatabaseView& view,
      const util::ExecContext& context = util::ExecContext()) const;

  /// Run the cost-based planner on `query` exactly as Execute() would when
  /// targeting `view` (same statistics, same index-catalog coverage rule)
  /// and return the planned query without executing it. Planning is
  /// deterministic over (query, statistics, catalog), so feeding the
  /// result to ExecutePlanned() is byte-identical to Execute(query, view,
  /// ...). With the planner disabled this returns `query` unchanged, which
  /// ExecutePlanned() runs exactly as Execute() would. The batching
  /// serving tier plans each batch member once with this: the plan's
  /// filters feed the shared scan (SharedFilterScan), and the plan itself
  /// then executes over the scan's selections.
  [[nodiscard]] sql::BoundQuery PlanForView(
      const sql::BoundQuery& query, const storage::DatabaseView& view) const;

  /// Execute an already-planned query (PlanForView output) without
  /// re-planning, optionally substituting preselected candidate rows for
  /// some tables' filtered scans (see ScanSelection). With `selections`
  /// produced by SharedFilterScan over the same planned query, the result
  /// is byte-identical to Execute() of the original query at any thread
  /// count: the selection replaces the scan with its own exact output, and
  /// every later stage is unchanged.
  [[nodiscard]] util::Result<ResultSet> ExecutePlanned(
      const sql::BoundQuery& planned, const storage::DatabaseView& view,
      const std::vector<ScanSelection>& selections,
      const util::ExecContext& context = util::ExecContext()) const;

  /// Multi-query shared scan: one pass over `table`'s visible rows
  /// evaluating every member query's single-table conjuncts against each
  /// row, instead of one pass per member. out->at(m) receives exactly the
  /// candidate rows member m's own filtered scan would produce — same
  /// domain order (ascending visible ordinals), same conjunct
  /// short-circuit order, morsel-parallel with per-morsel buffers merged
  /// in morsel order — so feeding it to ExecutePlanned() keeps results
  /// byte-identical to unbatched execution. Members whose planner chose an
  /// index access path are scanned here as full passes, which the index
  /// contract already proves byte-identical (the index yields a candidate
  /// superset in scan order and all conjuncts are re-evaluated). All
  /// members must reference the same underlying table through
  /// query->tables[table_index].
  [[nodiscard]] util::Status SharedFilterScan(
      const storage::DatabaseView& view, const storage::Table& table,
      const std::vector<SharedScanMember>& members,
      const util::ExecContext& context,
      std::vector<std::vector<uint32_t>>* out) const;

  /// Run only the filter+join pipeline of a (non-aggregate) query and
  /// return the joined base tuples, capped at `max_tuples` (0 = no cap).
  [[nodiscard]] util::Result<ProvenancedJoin> ExecuteWithProvenance(
      const sql::BoundQuery& query, const storage::DatabaseView& view,
      size_t max_tuples = 0,
      const util::ExecContext& context = util::ExecContext()) const;

  /// EXPLAIN: run the planner on `query` and return its human-readable
  /// plan summary (estimated cardinalities, rewrites, join order) without
  /// executing. Honors enable_planner=false by reporting the unplanned
  /// (runtime-greedy) pipeline.
  std::string Explain(const sql::BoundQuery& query) const;

  /// Parse + bind `sql` against `view`'s database, then Explain it.
  [[nodiscard]] util::Result<std::string> ExplainSql(
      const std::string& sql, const storage::DatabaseView& view) const;

  const ExecOptions& options() const { return options_; }

 private:
  ExecOptions options_;
  /// Worker pool for morsel-parallel execution; null when num_threads <= 1.
  /// Shared (not unique) so QueryEngine stays copyable — copies reuse the
  /// same pool, which is safe because ParallelFor* is self-contained.
  std::shared_ptr<util::ThreadPool> pool_;
};

}  // namespace exec
}  // namespace asqp
