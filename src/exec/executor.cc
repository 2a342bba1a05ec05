#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "exec/evaluator.h"
#include "plan/planner.h"
#include "storage/index.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace asqp {
namespace exec {

namespace {

using sql::AggFunc;
using sql::BoundQuery;
using sql::ExprPtr;
using sql::JoinPredicate;
using sql::SelectItem;
using storage::DatabaseView;
using storage::Table;
using storage::Value;
using util::Result;
using util::Status;

/// A set of partial join tuples: each tuple holds one row id per FROM table
/// (entries for not-yet-joined tables are 0 and unused).
struct TupleSet {
  size_t num_tables = 0;
  std::vector<uint32_t> flat;  // row-major, num_tables per tuple

  size_t size() const { return num_tables == 0 ? 0 : flat.size() / num_tables; }
  const uint32_t* tuple(size_t i) const { return &flat[i * num_tables]; }
  void Append(const uint32_t* src) {
    flat.insert(flat.end(), src, src + num_tables);
  }
};

std::string ValueKey(const Value& v) {
  std::string key;
  key += static_cast<char>('0' + static_cast<int>(v.type()));
  key += v.ToString();
  return key;
}

/// Hash-join build output: `parts[p]` maps a serialized join-key tuple to
/// the build rows carrying that key, in candidate (= filtered-scan) order.
/// With a single partition the probe skips hashing; with 2^k partitions a
/// key lives in partition Fnv1a(key) & (parts.size() - 1). Both layouts
/// hold identical per-key row vectors, so probe output never depends on
/// which build path (sequential or radix-partitioned) produced the table.
struct JoinBuild {
  std::vector<std::unordered_map<std::string, std::vector<uint32_t>>> parts;

  const std::vector<uint32_t>* Find(const std::string& key) const {
    const auto& part = parts.size() == 1
                           ? parts[0]
                           : parts[util::Fnv1a(key) & (parts.size() - 1)];
    const auto it = part.find(key);
    return it == part.end() ? nullptr : &it->second;
  }
};

class Execution {
 public:
  /// `indexes` (may be null) is the catalog the *planner* already saw:
  /// the caller verifies scope coverage (IndexCatalog::CoversView) before
  /// passing it, so a non-null catalog here always matches `view`.
  /// `selections` (may be null) preloads some tables' filtered-scan output
  /// (see QueryEngine::ExecutePlanned); it must outlive the execution.
  Execution(const BoundQuery& q, const DatabaseView& view,
            const ExecOptions& options, const util::ExecContext& context,
            util::ThreadPool* pool, const storage::IndexCatalog* indexes,
            const std::vector<ScanSelection>* selections = nullptr)
      : q_(q),
        view_(view),
        options_(options),
        context_(context),
        pool_(pool),
        indexes_(indexes),
        selections_(selections),
        ticker_(context, /*stride=*/256) {}

  Result<ResultSet> Run() {
    ASQP_RETURN_NOT_OK(FilterScans());
    ASQP_RETURN_NOT_OK(Join());
    ASQP_RETURN_NOT_OK(CanonicalizeTupleOrder());
    if (q_.stmt.HasAggregates()) return Aggregate();
    return Project();
  }

  Result<ProvenancedJoin> RunWithProvenance(size_t max_tuples) {
    ASQP_RETURN_NOT_OK(FilterScans());
    ASQP_RETURN_NOT_OK(Join());
    ProvenancedJoin out;
    const size_t n = q_.num_tables();
    out.table_names.reserve(n);
    for (size_t t = 0; t < n; ++t) out.table_names.push_back(q_.tables[t]->name());
    size_t count = joined_.size();
    if (max_tuples > 0) count = std::min(count, max_tuples);
    out.tuples.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t* src = joined_.tuple(i);
      out.tuples.emplace_back(src, src + n);
    }
    return out;
  }

 private:
  /// The index this table's chosen access path names, or null (full scan,
  /// no catalog, or the index is missing at runtime — e.g. its build
  /// failed — in which case the scan silently degrades to the full pass).
  const storage::OrderedIndex* IndexFor(size_t t) const {
    if (indexes_ == nullptr || q_.access_paths.size() != q_.num_tables()) {
      return nullptr;
    }
    const sql::AccessPath& ap = q_.access_paths[t];
    if (ap.kind != sql::AccessPath::Kind::kIndexRange) return nullptr;
    return indexes_->Find(q_.tables[t]->name(), ap.column);
  }

  /// Per-table filtered scan: collect visible row ids passing the table's
  /// single-table conjuncts. With a pool, the scanned domain is split into
  /// morsels filtered into thread-local buffers and merged in morsel
  /// order, matching the sequential left-to-right output exactly.
  ///
  /// When the planner chose an index range scan for a table, the scanned
  /// domain is the index's candidate ordinal list (sorted ascending — the
  /// order a full scan visits) instead of every visible row. All filter
  /// conjuncts are still evaluated per candidate: the converted conjunct's
  /// bounds make the candidate list a superset of its satisfying rows, so
  /// the surviving rows — and their order — are byte-identical to the full
  /// scan's at any thread count.
  Status FilterScans() {
    const size_t n = q_.num_tables();
    candidates_.resize(n);
    for (size_t t = 0; t < n; ++t) {
      // A preselected table (shared-scan output fed through
      // ExecutePlanned) already holds exactly this scan's result rows.
      if (selections_ != nullptr && t < selections_->size() &&
          (*selections_)[t] != nullptr) {
        candidates_[t] = *(*selections_)[t];
        continue;
      }
      const Table& table = *q_.tables[t];
      const size_t visible = view_.VisibleRows(table);
      const auto& filters = q_.filters[t];
      auto& out = candidates_[t];

      std::vector<uint32_t> index_ordinals;
      const storage::OrderedIndex* index = IndexFor(t);
      if (index != nullptr) {
        const sql::AccessPath& ap = q_.access_paths[t];
        storage::IndexBound bound;
        bound.has_lower = ap.has_lower;
        bound.has_upper = ap.has_upper;
        bound.lower_inclusive = ap.lower_inclusive;
        bound.upper_inclusive = ap.upper_inclusive;
        bound.lower = ap.lower;
        bound.upper = ap.upper;
        index_ordinals = index->LookupRange(bound);
      }
      // Domain of the scan: candidate ordinals from the index, or every
      // visible ordinal (identity mapping) for the full scan.
      const size_t domain = index != nullptr ? index_ordinals.size() : visible;

      const auto scan_range = [&, t, index](size_t begin, size_t end,
                                            std::vector<uint32_t>* rows,
                                            util::DeadlineTicker* ticker)
          -> Status {
        std::vector<uint32_t> scratch(n, 0);
        JoinedRow jr{&q_.tables, scratch.data()};
        for (size_t i = begin; i < end; ++i) {
          ASQP_RETURN_NOT_OK(ticker->Tick("table scan"));
          const size_t ord = index != nullptr ? index_ordinals[i] : i;
          const uint32_t row = view_.PhysicalRow(table, ord);
          scratch[t] = row;
          bool pass = true;
          for (const ExprPtr& f : filters) {
            if (!EvaluatePredicate(*f, jr)) {
              pass = false;
              break;
            }
          }
          if (pass) rows->push_back(row);
        }
        return Status::OK();
      };

      if (pool_ != nullptr && domain > options_.morsel_rows) {
        const size_t morsel = options_.morsel_rows;
        std::vector<std::vector<uint32_t>> parts((domain + morsel - 1) /
                                                 morsel);
        ASQP_RETURN_NOT_OK(pool_->ParallelForChunked(
            domain, morsel,
            [&](size_t chunk, size_t begin, size_t end) -> Status {
              util::DeadlineTicker ticker(context_, /*stride=*/256);
              std::vector<uint32_t> local;
              local.reserve((end - begin) / 4 + 1);
              ASQP_RETURN_NOT_OK(scan_range(begin, end, &local, &ticker));
              parts[chunk] = std::move(local);
              return Status::OK();
            }));
        size_t total = 0;
        for (const auto& p : parts) total += p.size();
        out.reserve(total);
        for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
      } else {
        out.reserve(domain / 4 + 1);
        ASQP_RETURN_NOT_OK(scan_range(0, domain, &out, &ticker_));
      }
    }
    return Status::OK();
  }

  /// Rewrite `joined_`-sized input through `fn(begin, end, out, ticker)`
  /// morsel-parallel: each morsel appends into a thread-local TupleSet and
  /// the per-morsel outputs are concatenated in morsel order, so the
  /// replacement is identical to a sequential left-to-right pass. The
  /// accumulated output is checked against max_intermediate_rows (`what`
  /// names the stage in the error). Falls back to one sequential range
  /// (reusing the sticky member ticker) without a pool.
  Result<TupleSet> MorselRewrite(
      const char* what,
      const std::function<Status(size_t begin, size_t end, TupleSet* out,
                                 util::DeadlineTicker* ticker)>& fn) {
    TupleSet merged;
    merged.num_tables = joined_.num_tables;
    const size_t input = joined_.size();
    if (pool_ != nullptr && input > options_.morsel_rows) {
      const size_t morsel = options_.morsel_rows;
      std::vector<TupleSet> parts((input + morsel - 1) / morsel);
      std::atomic<size_t> total{0};
      ASQP_RETURN_NOT_OK(pool_->ParallelForChunked(
          input, morsel,
          [&](size_t chunk, size_t begin, size_t end) -> Status {
            util::DeadlineTicker ticker(context_, /*stride=*/256);
            TupleSet local;
            local.num_tables = joined_.num_tables;
            ASQP_RETURN_NOT_OK(fn(begin, end, &local, &ticker));
            const size_t so_far =
                total.fetch_add(local.size(), std::memory_order_relaxed) +
                local.size();
            if (so_far > options_.max_intermediate_rows) {
              return Status::ExecutionError(util::Format(
                  "%s: intermediate join result exceeds %zu rows "
                  "(%zu rows produced before the cap)",
                  what, options_.max_intermediate_rows, so_far));
            }
            parts[chunk] = std::move(local);
            return Status::OK();
          }));
      size_t total_flat = 0;
      for (const TupleSet& p : parts) total_flat += p.flat.size();
      merged.flat.reserve(total_flat);
      for (TupleSet& p : parts) {
        merged.flat.insert(merged.flat.end(), p.flat.begin(), p.flat.end());
      }
    } else {
      ASQP_RETURN_NOT_OK(fn(0, input, &merged, &ticker_));
      if (merged.size() > options_.max_intermediate_rows) {
        return Status::ExecutionError(util::Format(
            "%s: intermediate join result exceeds %zu rows "
            "(%zu rows produced before the cap)",
            what, options_.max_intermediate_rows, merged.size()));
      }
    }
    return merged;
  }

  /// True when `order` is a permutation of [0, n) — the only join_order
  /// the executor honors (anything else falls back to runtime greedy).
  static bool IsJoinPermutation(const std::vector<int>& order, size_t n) {
    if (order.size() != n) return false;
    std::vector<bool> seen(n, false);
    for (int t : order) {
      if (t < 0 || static_cast<size_t>(t) >= n || seen[t]) return false;
      seen[t] = true;
    }
    return true;
  }

  /// Hash-join in a planned order (BoundQuery::join_order) when one is
  /// present, otherwise greedy: start from the smallest filtered table,
  /// repeatedly attach the connected table with the fewest candidate rows.
  Status Join() {
    const size_t n = q_.num_tables();
    joined_.num_tables = n;
    std::vector<bool> in_join(n, false);
    std::vector<bool> residual_done(q_.residual.size(), false);
    const bool planned = IsJoinPermutation(q_.join_order, n);
    attach_order_.clear();
    attach_order_.reserve(n);

    // Seed: the planned sequence head, or the smallest table.
    size_t seed = planned ? static_cast<size_t>(q_.join_order[0]) : 0;
    if (!planned) {
      for (size_t t = 1; t < n; ++t) {
        if (candidates_[t].size() < candidates_[seed].size()) seed = t;
      }
    }
    std::vector<uint32_t> tmp(n, 0);
    for (uint32_t row : candidates_[seed]) {
      tmp[seed] = row;
      joined_.Append(tmp.data());
    }
    in_join[seed] = true;
    attach_order_.push_back(seed);

    for (size_t step = 1; step < n; ++step) {
      // Pick the next table: the planned sequence when present, otherwise
      // connected to the joined set via at least one equi-predicate if
      // possible and smallest among those (disconnected join graph ->
      // cross product).
      int next = planned ? q_.join_order[step] : -1;
      bool next_connected = false;
      for (size_t t = 0; !planned && t < n; ++t) {
        if (in_join[t]) continue;
        bool connected = false;
        for (const JoinPredicate& jp : q_.joins) {
          const bool attaches =
              (jp.left_table == static_cast<int>(t) && in_join[jp.right_table]) ||
              (jp.right_table == static_cast<int>(t) && in_join[jp.left_table]);
          if (attaches) {
            connected = true;
            break;
          }
        }
        if (next < 0 ||
            (connected && !next_connected) ||
            (connected == next_connected &&
             candidates_[t].size() < candidates_[next].size())) {
          next = static_cast<int>(t);
          next_connected = connected;
        }
      }

      ASQP_RETURN_NOT_OK(AttachTable(static_cast<size_t>(next), in_join));
      in_join[next] = true;
      attach_order_.push_back(static_cast<size_t>(next));

      // Apply residual predicates whose tables are now all joined.
      ASQP_RETURN_NOT_OK(ApplyReadyResiduals(in_join, &residual_done));

      if (joined_.size() > options_.max_intermediate_rows) {
        return Status::ExecutionError(util::Format(
            "intermediate join result exceeds %zu rows",
            options_.max_intermediate_rows));
      }
      ASQP_RETURN_NOT_OK(context_.CheckRows(joined_.size(), "join"));
    }
    // Residuals with zero referenced tables (constant predicates) or any
    // left over (single-table query case).
    ASQP_RETURN_NOT_OK(ApplyReadyResiduals(in_join, &residual_done));
    return Status::OK();
  }

  /// Sort the joined tuples into the canonical order — lexicographic by
  /// row id in FROM position order — so the bytes downstream (projection
  /// row order, DISTINCT dedup order, morsel decomposition and thus the
  /// floating-point reduction tree of SUM/AVG partials) depend only on
  /// the tuple *set*, never on the join order that produced it. This is
  /// what makes plan search safe: planner-on and planner-off outputs are
  /// byte-identical by construction. Attaching tables in FROM order
  /// already emits this order (the probe preserves input order and
  /// per-key matches are in ascending candidate order), so the sort is
  /// skipped when the attach sequence was the identity.
  Status CanonicalizeTupleOrder() {
    const size_t n = q_.num_tables();
    if (n <= 1 || joined_.size() <= 1) return Status::OK();
    bool identity = true;
    for (size_t i = 0; i < attach_order_.size(); ++i) {
      if (attach_order_[i] != i) {
        identity = false;
        break;
      }
    }
    if (identity) return Status::OK();
    ASQP_RETURN_NOT_OK(ticker_.Tick("canonical order"));
    std::vector<uint32_t> index(joined_.size());
    for (size_t i = 0; i < index.size(); ++i) {
      index[i] = static_cast<uint32_t>(i);
    }
    std::sort(index.begin(), index.end(), [&](uint32_t a, uint32_t b) {
      const uint32_t* ta = joined_.tuple(a);
      const uint32_t* tb = joined_.tuple(b);
      return std::lexicographical_compare(ta, ta + n, tb, tb + n);
    });
    TupleSet sorted;
    sorted.num_tables = n;
    sorted.flat.reserve(joined_.flat.size());
    for (uint32_t i : index) {
      sorted.Append(joined_.tuple(i));
    }
    joined_ = std::move(sorted);
    return Status::OK();
  }

  Status AttachTable(size_t t, const std::vector<bool>& in_join) {
    const size_t n = q_.num_tables();
    // Collect equi-predicates connecting t to the joined set.
    struct KeyPair {
      int probe_table;  // already-joined side
      int probe_col;
      int build_col;    // column of table t
    };
    std::vector<KeyPair> keys;
    for (const JoinPredicate& jp : q_.joins) {
      if (jp.left_table == static_cast<int>(t) && in_join[jp.right_table]) {
        keys.push_back({jp.right_table, jp.right_col, jp.left_col});
      } else if (jp.right_table == static_cast<int>(t) && in_join[jp.left_table]) {
        keys.push_back({jp.left_table, jp.left_col, jp.right_col});
      }
    }

    TupleSet next;
    next.num_tables = n;

    if (keys.empty()) {
      // Cross product, morsel-parallel over the outer tuples: each morsel
      // emits |morsel| x |candidates| tuples into its own buffer. The row
      // cap is enforced incrementally (per outer row inside a morsel, then
      // on the accumulated total) instead of projected up front, so the
      // error reports how many rows were actually produced before the cap
      // and a mid-flight deadline cancels within one morsel.
      const std::vector<uint32_t>& cand = candidates_[t];
      ASQP_ASSIGN_OR_RETURN(
          next,
          MorselRewrite(
              "cross product",
              [&](size_t begin, size_t end, TupleSet* out,
                  util::DeadlineTicker* ticker) -> Status {
                std::vector<uint32_t> tmp(n, 0);
                for (size_t i = begin; i < end; ++i) {
                  ASQP_RETURN_NOT_OK(ticker->Tick("cross product"));
                  const uint32_t* src = joined_.tuple(i);
                  std::copy(src, src + n, tmp.begin());
                  for (uint32_t row : cand) {
                    tmp[t] = row;
                    out->Append(tmp.data());
                  }
                  if (out->size() > options_.max_intermediate_rows) {
                    return Status::ExecutionError(util::Format(
                        "cross product: intermediate join result exceeds "
                        "%zu rows (%zu rows produced before the cap)",
                        options_.max_intermediate_rows, out->size()));
                  }
                }
                return Status::OK();
              }));
      joined_ = std::move(next);
      return Status::OK();
    }

    // Build hash table on table t's candidate rows: key -> rows in
    // candidate order. The parallel path radix-partitions per morsel and
    // merges in morsel order, producing byte-identical per-key vectors.
    const Table& build_table = *q_.tables[t];
    if (ASQP_FAULT_POINT("exec.join.alloc")) {
      return Status::ResourceExhausted(
          "injected fault(exec.join.alloc): hash-join build allocation failed");
    }
    const auto build_key = [&](uint32_t row, std::string* key) -> bool {
      key->clear();
      for (const KeyPair& kp : keys) {
        const Value v = build_table.column(kp.build_col).ValueAt(row);
        if (v.is_null()) return false;  // NULL never joins
        *key += ValueKey(v);
        *key += '\x01';
      }
      return true;
    };
    JoinBuild build;
    const std::vector<uint32_t>& cand = candidates_[t];
    if (pool_ != nullptr && cand.size() > options_.morsel_rows) {
      ASQP_RETURN_NOT_OK(ParallelBuild(build_key, cand, &build));
    } else {
      build.parts.resize(1);
      auto& part = build.parts[0];
      part.reserve(cand.size() * 2);
      std::string key;
      for (uint32_t row : cand) {
        ASQP_RETURN_NOT_OK(ticker_.Tick("hash-join build"));
        if (build_key(row, &key)) part[key].push_back(row);
      }
    }

    // Probe with current tuples. The build table above is shared read-only
    // across morsels; each morsel appends matches to its own TupleSet. The
    // in-loop cap check bounds any single morsel's output even before the
    // merged total is validated.
    ASQP_ASSIGN_OR_RETURN(
        next,
        MorselRewrite(
            "hash-join probe",
            [&](size_t begin, size_t end, TupleSet* out,
                util::DeadlineTicker* ticker) -> Status {
              std::vector<uint32_t> tmp(n, 0);
              std::string key;
              for (size_t i = begin; i < end; ++i) {
                ASQP_RETURN_NOT_OK(ticker->Tick("hash-join probe"));
                const uint32_t* src = joined_.tuple(i);
                key.clear();
                bool has_null = false;
                for (const KeyPair& kp : keys) {
                  const Value v = q_.tables[kp.probe_table]
                                      ->column(kp.probe_col)
                                      .ValueAt(src[kp.probe_table]);
                  if (v.is_null()) {
                    has_null = true;
                    break;
                  }
                  key += ValueKey(v);
                  key += '\x01';
                }
                if (has_null) continue;
                const std::vector<uint32_t>* matches = build.Find(key);
                if (matches == nullptr) continue;
                for (const uint32_t match : *matches) {
                  std::copy(src, src + n, tmp.begin());
                  tmp[t] = match;
                  out->Append(tmp.data());
                  if (out->size() > options_.max_intermediate_rows) {
                    return Status::ExecutionError(util::Format(
                        "intermediate join result exceeds %zu rows",
                        options_.max_intermediate_rows));
                  }
                }
              }
              return Status::OK();
            }));
    joined_ = std::move(next);
    return Status::OK();
  }

  /// Radix-partitioned parallel hash-join build. Map step: each morsel of
  /// candidate rows serializes its join keys and scatters (key, row) pairs
  /// into per-morsel partition buffers (partition = Fnv1a(key) masked to a
  /// power of two). Merge step: one task per partition appends its buffers
  /// into the final per-partition hash table walking morsels in morsel
  /// order — a key lives in exactly one partition, so every per-key row
  /// vector ends up in candidate order, byte-identical to the sequential
  /// build.
  Status ParallelBuild(
      const std::function<bool(uint32_t, std::string*)>& build_key,
      const std::vector<uint32_t>& cand, JoinBuild* build) {
    size_t partitions = options_.build_partitions;
    if (partitions == 0) {
      partitions = 1;
      while (partitions < options_.num_threads * 4 && partitions < 64) {
        partitions <<= 1;
      }
    }
    // Round down to a power of two so Find() can mask instead of mod.
    while ((partitions & (partitions - 1)) != 0) partitions &= partitions - 1;

    using Bucket = std::vector<std::pair<std::string, uint32_t>>;
    const size_t morsel = options_.morsel_rows;
    const size_t num_chunks = (cand.size() + morsel - 1) / morsel;
    std::vector<std::vector<Bucket>> chunk_buckets(num_chunks);
    ASQP_RETURN_NOT_OK(pool_->ParallelForChunked(
        cand.size(), morsel,
        [&](size_t chunk, size_t begin, size_t end) -> Status {
          if (ASQP_FAULT_POINT("exec.join.partition")) {
            return Status::ResourceExhausted(
                "injected fault(exec.join.partition): hash-join partition buffer "
                "allocation failed");
          }
          util::DeadlineTicker ticker(context_, /*stride=*/256);
          std::vector<Bucket> buckets(partitions);
          std::string key;
          for (size_t i = begin; i < end; ++i) {
            ASQP_RETURN_NOT_OK(ticker.Tick("hash-join build"));
            if (!build_key(cand[i], &key)) continue;
            buckets[util::Fnv1a(key) & (partitions - 1)].emplace_back(key,
                                                                      cand[i]);
          }
          chunk_buckets[chunk] = std::move(buckets);
          return Status::OK();
        }));
    build->parts.resize(partitions);
    return pool_->ParallelForChunked(
        partitions, 1, [&](size_t, size_t p, size_t) -> Status {
          util::DeadlineTicker ticker(context_, /*stride=*/256);
          auto& part = build->parts[p];
          size_t entries = 0;
          for (const auto& buckets : chunk_buckets) entries += buckets[p].size();
          part.reserve(entries * 2);
          for (auto& buckets : chunk_buckets) {
            for (auto& [key, row] : buckets[p]) {
              ASQP_RETURN_NOT_OK(ticker.Tick("hash-join build merge"));
              part[std::move(key)].push_back(row);
            }
          }
          return Status::OK();
        });
  }

  Status ApplyReadyResiduals(const std::vector<bool>& in_join,
                             std::vector<bool>* done) {
    for (size_t r = 0; r < q_.residual.size(); ++r) {
      if ((*done)[r]) continue;
      bool ready = true;
      for (int t : q_.residual_tables[r]) {
        if (!in_join[t]) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      (*done)[r] = true;
      ASQP_ASSIGN_OR_RETURN(
          TupleSet next,
          MorselRewrite(
              "residual filter",
              [&](size_t begin, size_t end, TupleSet* out,
                  util::DeadlineTicker* ticker) -> Status {
                JoinedRow jr{&q_.tables, nullptr};
                for (size_t i = begin; i < end; ++i) {
                  ASQP_RETURN_NOT_OK(ticker->Tick("residual filter"));
                  jr.row_ids = joined_.tuple(i);
                  if (EvaluatePredicate(*q_.residual[r], jr)) {
                    out->Append(joined_.tuple(i));
                  }
                }
                return Status::OK();
              }));
      joined_ = std::move(next);
    }
    return Status::OK();
  }

  /// Column names for the output schema.
  std::vector<std::string> OutputNames() const {
    std::vector<std::string> names;
    for (const SelectItem& item : q_.stmt.items) {
      if (!item.alias.empty()) {
        names.push_back(item.alias);
      } else if (item.agg != AggFunc::kNone) {
        names.push_back(util::ToLower(sql::AggFuncName(item.agg)));
      } else if (item.star) {
        for (size_t t = 0; t < q_.num_tables(); ++t) {
          const Table& table = *q_.tables[t];
          for (const auto& f : table.schema().fields()) {
            names.push_back(q_.stmt.from[t].binding_name() + "." + f.name);
          }
        }
      } else {
        names.push_back(item.expr->ToSql());
      }
    }
    return names;
  }

  /// Per-morsel partial projection output: evaluated select-item rows plus
  /// (when sorting) their ORDER BY keys, aligned by index.
  struct ProjPartial {
    std::vector<std::vector<Value>> rows;
    std::vector<std::vector<Value>> keys;
  };

  Result<ResultSet> Project() {
    std::vector<std::string> names = OutputNames();
    const size_t input = joined_.size();
    const bool need_order = !q_.stmt.order_by.empty();
    const bool has_limit = q_.stmt.limit >= 0;
    const size_t limit = has_limit ? static_cast<size_t>(q_.stmt.limit) : 0;

    // Without ORDER BY and DISTINCT each input tuple yields exactly one
    // output row, so a LIMIT needs only the input prefix — the parallel
    // equivalent of the sequential early-exit fast path.
    size_t process = input;
    if (has_limit && !need_order && !q_.stmt.distinct) {
      process = std::min(process, limit);
    }
    // Without DISTINCT every processed tuple is merged into `out`; with it,
    // the count is unknown and `out` grows as rows survive.
    ResultSet::Rows out;
    if (!q_.stmt.distinct) out.reserve(process);

    std::vector<std::vector<Value>> order_keys;
    std::unordered_set<std::string> distinct_seen;

    // Evaluate select items (and ORDER BY keys) for tuples [begin, end)
    // into `partial`; runs thread-local on the pool.
    const auto eval_range = [&](size_t begin, size_t end, ProjPartial* partial,
                                util::DeadlineTicker* ticker) -> Status {
      JoinedRow jr{&q_.tables, nullptr};
      partial->rows.reserve(end - begin);
      if (need_order) partial->keys.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        ASQP_RETURN_NOT_OK(ticker->Tick("projection"));
        jr.row_ids = joined_.tuple(i);
        std::vector<Value> row;
        row.reserve(names.size());
        for (const SelectItem& item : q_.stmt.items) {
          if (item.star) {
            for (size_t t = 0; t < q_.num_tables(); ++t) {
              const Table& table = *q_.tables[t];
              for (size_t c = 0; c < table.num_columns(); ++c) {
                row.push_back(table.column(c).ValueAt(jr.row_ids[t]));
              }
            }
          } else {
            row.push_back(EvaluateScalar(*item.expr, jr));
          }
        }
        if (need_order) {
          std::vector<Value> keys;
          keys.reserve(q_.stmt.order_by.size());
          for (const auto& o : q_.stmt.order_by) {
            keys.push_back(EvaluateScalar(*o.expr, jr));
          }
          partial->keys.push_back(std::move(keys));
        }
        partial->rows.push_back(std::move(row));
      }
      return Status::OK();
    };

    // Fold one morsel's evaluated rows onto the result; always runs on the
    // calling thread in morsel order, so DISTINCT deduplicates in input
    // order and the LIMIT fast path keeps exactly the sequential prefix.
    const auto merge_partial = [&](ProjPartial* partial) -> Status {
      for (size_t i = 0; i < partial->rows.size(); ++i) {
        ASQP_RETURN_NOT_OK(ticker_.Tick("projection merge"));
        if (!need_order && has_limit && out.size() >= limit) break;
        std::vector<Value>& row = partial->rows[i];
        if (q_.stmt.distinct) {
          std::string key;
          for (const Value& v : row) {
            key += ValueKey(v);
            key += '\x01';
          }
          if (!distinct_seen.insert(std::move(key)).second) continue;
        }
        if (need_order) order_keys.push_back(std::move(partial->keys[i]));
        out.push_back(std::move(row));
      }
      return Status::OK();
    };

    if (pool_ != nullptr && process > options_.morsel_rows) {
      ASQP_RETURN_NOT_OK(pool_->ParallelReduceOrdered<ProjPartial>(
          process, options_.morsel_rows,
          [&](size_t, size_t begin, size_t end, ProjPartial* partial)
              -> Status {
            util::DeadlineTicker ticker(context_, /*stride=*/256);
            return eval_range(begin, end, partial, &ticker);
          },
          [&](size_t, ProjPartial* partial) -> Status {
            return merge_partial(partial);
          }));
    } else {
      ProjPartial all;
      ASQP_RETURN_NOT_OK(eval_range(0, process, &all, &ticker_));
      ASQP_RETURN_NOT_OK(merge_partial(&all));
    }

    if (need_order) {
      std::vector<size_t> perm(out.size());
      for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
        for (size_t k = 0; k < q_.stmt.order_by.size(); ++k) {
          const int cmp = order_keys[a][k].Compare(order_keys[b][k]);
          if (cmp != 0) return q_.stmt.order_by[k].desc ? cmp > 0 : cmp < 0;
        }
        return false;
      });
      // Keep only the rows the LIMIT returns.
      const size_t keep =
          has_limit ? std::min(perm.size(), limit) : perm.size();
      ResultSet::Rows sorted;
      sorted.reserve(keep);
      for (size_t i = 0; i < keep; ++i) {
        sorted.push_back(std::move(out[perm[i]]));
      }
      out = std::move(sorted);
    }
    return ResultSet(std::move(names), std::move(out));
  }

  /// Partial aggregate state for one select item within one group. COUNT,
  /// SUM, MIN, MAX, and AVG (= SUM/COUNT at finalize) merge associatively;
  /// agg(DISTINCT ...) defers folding: partials carry their deduplicated
  /// values in first-occurrence order and the fold happens once at
  /// finalize, over the merged order, so DISTINCT floating-point sums are
  /// accumulated in exactly the sequential order.
  struct AggState {
    int64_t count = 0;
    double sum = 0.0;
    bool has_minmax = false;
    Value min;
    Value max;
    bool has_first = false;
    Value first;  // non-agg select item: value from the group's first row
    std::vector<Value> distinct_values;    // agg(DISTINCT): insertion order
    std::unordered_set<std::string> seen;  // dedup keys for distinct_values
  };

  /// One group's partial state: the per-item AggStates. Keyed externally
  /// by the serialized GROUP BY tuple.
  using AggGroup = std::vector<AggState>;
  using AggTable = std::unordered_map<std::string, AggGroup>;

  /// Merge `src` into `dst` (dst = earlier morsels, src = the next morsel
  /// in morsel order). All merge rules keep the earlier side on ties, so
  /// the merged state matches a sequential left-to-right accumulation.
  static void MergeAggGroup(AggGroup* dst, AggGroup* src) {
    for (size_t s = 0; s < dst->size(); ++s) {
      AggState& a = (*dst)[s];
      AggState& b = (*src)[s];
      a.count += b.count;
      a.sum += b.sum;
      if (b.has_minmax) {
        if (!a.has_minmax) {
          a.min = std::move(b.min);
          a.max = std::move(b.max);
          a.has_minmax = true;
        } else {
          if (b.min.Compare(a.min) < 0) a.min = std::move(b.min);
          if (b.max.Compare(a.max) > 0) a.max = std::move(b.max);
        }
      }
      if (!a.has_first && b.has_first) {
        a.first = std::move(b.first);
        a.has_first = true;
      }
      for (Value& v : b.distinct_values) {
        if (a.seen.insert(ValueKey(v)).second) {
          a.distinct_values.push_back(std::move(v));
        }
      }
    }
  }

  /// Group-and-aggregate. Parallel plan: every morsel accumulates a
  /// thread-local group table (map step), then the partial tables merge on
  /// the calling thread in morsel order into a std::map whose sorted key
  /// iteration is the canonical group order (the same order the previous
  /// single-pass implementation emitted). The sequential engine runs the
  /// identical morsel decomposition inline, so output — including the
  /// low-order bits of floating-point SUM/AVG partials — depends only on
  /// morsel_rows, never on the thread count.
  Result<ResultSet> Aggregate() {
    const bool post_process =
        q_.stmt.having != nullptr || !q_.stmt.order_by.empty();
    const size_t num_items = q_.stmt.items.size();
    const size_t input = joined_.size();

    // Map step: accumulate tuples [begin, end) into `local`.
    const auto partial_range = [&](size_t begin, size_t end, AggTable* local,
                                   util::DeadlineTicker* ticker) -> Status {
      if (ASQP_FAULT_POINT("exec.agg.partial")) {
        return Status::ResourceExhausted(
            "injected fault(exec.agg.partial): partial-aggregation table "
            "allocation failed");
      }
      JoinedRow jr{&q_.tables, nullptr};
      std::string key;
      for (size_t i = begin; i < end; ++i) {
        ASQP_RETURN_NOT_OK(ticker->Tick("aggregation"));
        jr.row_ids = joined_.tuple(i);
        key.clear();
        for (const ExprPtr& g : q_.stmt.group_by) {
          key += ValueKey(EvaluateScalar(*g, jr));
          key += '\x01';
        }
        auto [it, inserted] = local->try_emplace(key);
        if (inserted) it->second.resize(num_items);
        AggGroup& states = it->second;
        for (size_t s = 0; s < num_items; ++s) {
          const SelectItem& item = q_.stmt.items[s];
          AggState& st = states[s];
          if (item.agg == AggFunc::kNone) {
            if (!st.has_first) {
              st.first = item.star ? Value() : EvaluateScalar(*item.expr, jr);
              st.has_first = true;
            }
            continue;
          }
          if (item.agg == AggFunc::kCount && item.star) {
            ++st.count;
            continue;
          }
          const Value v = EvaluateScalar(*item.expr, jr);
          if (v.is_null()) continue;
          if (item.distinct) {
            // Defer the fold: record each new value in first-occurrence
            // order; finalize replays them sequentially.
            if (st.seen.insert(ValueKey(v)).second) {
              st.distinct_values.push_back(v);
            }
            continue;
          }
          ++st.count;
          st.sum += v.ToNumeric();
          if (!st.has_minmax) {
            st.min = v;
            st.max = v;
            st.has_minmax = true;
          } else {
            if (v.Compare(st.min) < 0) st.min = v;
            if (v.Compare(st.max) > 0) st.max = v;
          }
        }
      }
      return Status::OK();
    };

    // Reduce step: fold one morsel's partial table into the global hash
    // table. Group order is imposed once at finalization (a single sort
    // over the distinct keys) instead of per-row via std::map's log(n)
    // ordered inserts; the emitted order — sorted serialized group keys —
    // is byte-identical to the previous std::map iteration order.
    AggTable groups;
    const auto merge_table = [&](AggTable* local) -> Status {
      for (auto& [key, states] : *local) {
        ASQP_RETURN_NOT_OK(ticker_.Tick("aggregation merge"));
        auto [it, inserted] = groups.try_emplace(key);
        if (inserted) {
          it->second = std::move(states);
        } else {
          MergeAggGroup(&it->second, &states);
        }
      }
      return Status::OK();
    };

    if (pool_ != nullptr && input > options_.morsel_rows) {
      ASQP_RETURN_NOT_OK(pool_->ParallelReduceOrdered<AggTable>(
          input, options_.morsel_rows,
          [&](size_t, size_t begin, size_t end, AggTable* local) -> Status {
            util::DeadlineTicker ticker(context_, /*stride=*/256);
            return partial_range(begin, end, local, &ticker);
          },
          [&](size_t, AggTable* local) -> Status {
            return merge_table(local);
          }));
    } else {
      // Same morsel decomposition, inline: chunk k maps then reduces
      // before chunk k+1 starts — the identical left fold in morsel order.
      const size_t morsel = options_.morsel_rows;
      for (size_t begin = 0; begin < input; begin += morsel) {
        AggTable local;
        ASQP_RETURN_NOT_OK(partial_range(begin, std::min(input, begin + morsel),
                                         &local, &ticker_));
        ASQP_RETURN_NOT_OK(merge_table(&local));
      }
    }

    // Canonical group order: sort the distinct keys once. Emission then
    // walks the same sorted sequence the old std::map produced.
    std::vector<AggTable::value_type*> ordered;
    ordered.reserve(groups.size());
    for (auto& kv : groups) ordered.push_back(&kv);
    std::sort(ordered.begin(), ordered.end(),
              [](const AggTable::value_type* a, const AggTable::value_type* b) {
                return a->first < b->first;
              });

    std::vector<std::string> names = OutputNames();
    ResultSet::Rows out;
    size_t emit = ordered.size();
    if (!post_process && q_.stmt.limit >= 0) {
      emit = std::min(emit, static_cast<size_t>(q_.stmt.limit));
    }
    out.reserve(emit);
    for (AggTable::value_type* kv : ordered) {
      AggGroup& states = kv->second;
      std::vector<Value> row;
      row.reserve(num_items);
      for (size_t s = 0; s < num_items; ++s) {
        const SelectItem& item = q_.stmt.items[s];
        AggState& st = states[s];
        if (item.agg != AggFunc::kNone && item.distinct) {
          // Replay the merged distinct values in first-occurrence order —
          // the exact accumulation order of a sequential single pass.
          for (const Value& v : st.distinct_values) {
            ++st.count;
            st.sum += v.ToNumeric();
            if (!st.has_minmax) {
              st.min = v;
              st.max = v;
              st.has_minmax = true;
            } else {
              if (v.Compare(st.min) < 0) st.min = v;
              if (v.Compare(st.max) > 0) st.max = v;
            }
          }
        }
        switch (item.agg) {
          case AggFunc::kNone:
            row.push_back(st.has_first ? std::move(st.first) : Value());
            break;
          case AggFunc::kCount:
            row.push_back(Value(st.count));
            break;
          case AggFunc::kSum:
            row.push_back(st.count == 0 ? Value() : Value(st.sum));
            break;
          case AggFunc::kAvg:
            row.push_back(st.count == 0
                              ? Value()
                              : Value(st.sum / static_cast<double>(st.count)));
            break;
          case AggFunc::kMin:
            row.push_back(st.has_minmax ? st.min : Value());
            break;
          case AggFunc::kMax:
            row.push_back(st.has_minmax ? st.max : Value());
            break;
        }
      }
      out.push_back(std::move(row));
      // Early LIMIT only when no HAVING/ORDER BY will reshape the output.
      if (!post_process && q_.stmt.limit >= 0 &&
          out.size() >= static_cast<size_t>(q_.stmt.limit)) {
        break;
      }
    }
    // An aggregate query without GROUP BY always yields one row, even over
    // empty input.
    if (q_.stmt.group_by.empty() && out.empty() &&
        (q_.stmt.limit < 0 || q_.stmt.limit > 0)) {
      std::vector<Value> row;
      row.reserve(num_items);
      for (const SelectItem& item : q_.stmt.items) {
        row.push_back(item.agg == AggFunc::kCount ? Value(int64_t{0}) : Value());
      }
      out.push_back(std::move(row));
    }

    // HAVING: filter output rows by name-resolved predicate.
    if (q_.stmt.having != nullptr) {
      ResultSet::Rows kept;
      for (auto& row : out) {
        ASQP_ASSIGN_OR_RETURN(
            bool pass, EvaluatePredicateOnRow(*q_.stmt.having, names, row));
        if (pass) kept.push_back(std::move(row));
      }
      out = std::move(kept);
    }

    // ORDER BY over the aggregate output.
    if (!q_.stmt.order_by.empty()) {
      const size_t n = out.size();
      std::vector<std::vector<Value>> keys(n);
      for (size_t i = 0; i < n; ++i) {
        for (const auto& o : q_.stmt.order_by) {
          ASQP_ASSIGN_OR_RETURN(Value key,
                                EvaluateScalarOnRow(*o.expr, names, out[i]));
          keys[i].push_back(std::move(key));
        }
      }
      std::vector<size_t> perm(n);
      for (size_t i = 0; i < n; ++i) perm[i] = i;
      std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
        for (size_t k = 0; k < q_.stmt.order_by.size(); ++k) {
          const int cmp = keys[a][k].Compare(keys[b][k]);
          if (cmp != 0) return q_.stmt.order_by[k].desc ? cmp > 0 : cmp < 0;
        }
        return false;
      });
      // Keep only the rows the LIMIT returns.
      const size_t keep =
          q_.stmt.limit >= 0 ? std::min(n, static_cast<size_t>(q_.stmt.limit))
                             : n;
      ResultSet::Rows sorted;
      sorted.reserve(keep);
      for (size_t i = 0; i < keep; ++i) {
        sorted.push_back(std::move(out[perm[i]]));
      }
      out = std::move(sorted);
    }

    if (post_process && q_.stmt.limit >= 0 &&
        out.size() > static_cast<size_t>(q_.stmt.limit)) {
      out.resize(static_cast<size_t>(q_.stmt.limit));
    }
    return ResultSet(std::move(names), std::move(out));
  }

  const BoundQuery& q_;
  const DatabaseView& view_;
  const ExecOptions& options_;
  const util::ExecContext& context_;
  util::ThreadPool* pool_;  // null = sequential
  /// Ordered indexes covering view_ (null = full scans only).
  const storage::IndexCatalog* indexes_;
  /// Preselected filtered-scan outputs (null = scan every table).
  const std::vector<ScanSelection>* selections_;
  util::DeadlineTicker ticker_;

  std::vector<std::vector<uint32_t>> candidates_;
  TupleSet joined_;
  /// The realized join sequence (seed first); drives the identity-order
  /// fast path of CanonicalizeTupleOrder.
  std::vector<size_t> attach_order_;
};

}  // namespace

QueryEngine::QueryEngine(ExecOptions options) : options_(options) {
  if (options_.morsel_rows == 0) options_.morsel_rows = 1;
  if (options_.shared_pool != nullptr) {
    // Injected pool (the serving layer's process-wide pool): adopt it and
    // derive the concurrency from its size (workers + calling thread).
    pool_ = options_.shared_pool;
    options_.num_threads = pool_->num_threads() + 1;
  } else if (options_.num_threads > 1) {
    // The calling thread participates in ParallelForChunked, so
    // num_threads - 1 pool workers give num_threads total.
    pool_ = std::make_shared<util::ThreadPool>(options_.num_threads - 1);
  }
}

Result<ResultSet> QueryEngine::Execute(const BoundQuery& query,
                                       const DatabaseView& view,
                                       const util::ExecContext& context) const {
  // The index catalog only participates when its scope is exactly the view
  // being executed: a full-database execution through an engine carrying
  // approximation-set indexes must not read subset ordinals.
  const storage::IndexCatalog* indexes =
      options_.index_catalog != nullptr &&
              options_.index_catalog->CoversView(view)
          ? options_.index_catalog.get()
          : nullptr;
  if (options_.enable_planner) {
    const BoundQuery planned = plan::PlanQuery(
        query, options_.planner_stats.get(), /*summary=*/nullptr, indexes);
    Execution exec(planned, view, options_, context, pool_.get(), indexes);
    return exec.Run();
  }
  Execution exec(query, view, options_, context, pool_.get(), indexes);
  return exec.Run();
}

sql::BoundQuery QueryEngine::PlanForView(const BoundQuery& query,
                                         const DatabaseView& view) const {
  if (!options_.enable_planner) return query;
  // Same coverage rule as Execute(): the catalog participates only when
  // its scope is exactly the view the plan will run against.
  const storage::IndexCatalog* indexes =
      options_.index_catalog != nullptr &&
              options_.index_catalog->CoversView(view)
          ? options_.index_catalog.get()
          : nullptr;
  return plan::PlanQuery(query, options_.planner_stats.get(),
                         /*summary=*/nullptr, indexes);
}

Result<ResultSet> QueryEngine::ExecutePlanned(
    const BoundQuery& planned, const DatabaseView& view,
    const std::vector<ScanSelection>& selections,
    const util::ExecContext& context) const {
  const storage::IndexCatalog* indexes =
      options_.index_catalog != nullptr &&
              options_.index_catalog->CoversView(view)
          ? options_.index_catalog.get()
          : nullptr;
  Execution exec(planned, view, options_, context, pool_.get(), indexes,
                 &selections);
  return exec.Run();
}

util::Status QueryEngine::SharedFilterScan(
    const DatabaseView& view, const Table& table,
    const std::vector<SharedScanMember>& members,
    const util::ExecContext& context,
    std::vector<std::vector<uint32_t>>* out) const {
  const size_t m = members.size();
  out->assign(m, {});
  if (m == 0) return Status::OK();
  const size_t domain = view.VisibleRows(table);

  // One pass over the table's visible ordinals; per row, each member's
  // conjuncts are evaluated in declaration order with short-circuit —
  // exactly the per-member FilterScans inner loop, so each member's output
  // rows (and their order) match its solo scan byte for byte.
  const auto scan_range = [&](size_t begin, size_t end,
                              std::vector<std::vector<uint32_t>>* rows,
                              util::DeadlineTicker* ticker) -> Status {
    // Per-member scratch tuples (members may have different FROM arity).
    std::vector<std::vector<uint32_t>> scratch(m);
    std::vector<JoinedRow> jr(m);
    for (size_t i = 0; i < m; ++i) {
      scratch[i].assign(members[i].query->num_tables(), 0);
      jr[i] = JoinedRow{&members[i].query->tables, scratch[i].data()};
    }
    for (size_t ord = begin; ord < end; ++ord) {
      ASQP_RETURN_NOT_OK(ticker->Tick("shared table scan"));
      const uint32_t row = view.PhysicalRow(table, ord);
      for (size_t i = 0; i < m; ++i) {
        const SharedScanMember& member = members[i];
        scratch[i][member.table_index] = row;
        bool pass = true;
        for (const ExprPtr& f : member.query->filters[member.table_index]) {
          if (!EvaluatePredicate(*f, jr[i])) {
            pass = false;
            break;
          }
        }
        if (pass) (*rows)[i].push_back(row);
      }
    }
    return Status::OK();
  };

  if (pool_ != nullptr && domain > options_.morsel_rows) {
    const size_t morsel = options_.morsel_rows;
    const size_t chunks = (domain + morsel - 1) / morsel;
    std::vector<std::vector<std::vector<uint32_t>>> parts(chunks);
    ASQP_RETURN_NOT_OK(pool_->ParallelForChunked(
        domain, morsel, [&](size_t chunk, size_t begin, size_t end) -> Status {
          util::DeadlineTicker ticker(context, /*stride=*/256);
          std::vector<std::vector<uint32_t>> local(m);
          ASQP_RETURN_NOT_OK(scan_range(begin, end, &local, &ticker));
          parts[chunk] = std::move(local);
          return Status::OK();
        }));
    for (size_t i = 0; i < m; ++i) {
      size_t total = 0;
      for (const auto& p : parts) total += p[i].size();
      (*out)[i].reserve(total);
      for (const auto& p : parts) {
        (*out)[i].insert((*out)[i].end(), p[i].begin(), p[i].end());
      }
    }
  } else {
    util::DeadlineTicker ticker(context, /*stride=*/256);
    ASQP_RETURN_NOT_OK(scan_range(0, domain, out, &ticker));
  }
  return Status::OK();
}

std::string QueryEngine::Explain(const BoundQuery& query) const {
  if (!options_.enable_planner) {
    return "plan: planner disabled (runtime-greedy join order)\n";
  }
  plan::PlanSummary summary;
  // No view to check coverage against: EXPLAIN reports the plan as it
  // would run over the catalog's own scope (see ExecOptions::index_catalog).
  plan::PlanQuery(query, options_.planner_stats.get(), &summary,
                  options_.index_catalog.get());
  return summary.ToString();
}

Result<std::string> QueryEngine::ExplainSql(const std::string& sql,
                                            const DatabaseView& view) const {
  ASQP_ASSIGN_OR_RETURN(sql::BoundQuery bound,
                        sql::ParseAndBind(sql, view.db()));
  return Explain(bound);
}

Result<ResultSet> QueryEngine::ExecuteSql(
    const std::string& sql, const DatabaseView& view,
    const util::ExecContext& context) const {
  ASQP_ASSIGN_OR_RETURN(sql::BoundQuery bound,
                        sql::ParseAndBind(sql, view.db()));
  return Execute(bound, view, context);
}

Result<ProvenancedJoin> QueryEngine::ExecuteWithProvenance(
    const BoundQuery& query, const DatabaseView& view, size_t max_tuples,
    const util::ExecContext& context) const {
  // Never planned, so no access paths exist to consult a catalog for.
  Execution exec(query, view, options_, context, pool_.get(),
                 /*indexes=*/nullptr);
  return exec.RunWithProvenance(max_tuples);
}

}  // namespace exec
}  // namespace asqp
