#include "core/preprocess.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "cluster/kmeans.h"
#include "exec/evaluator.h"
#include "exec/executor.h"
#include "relax/relax.h"
#include "sample/sampler.h"
#include "workloadgen/generator.h"
#include "sql/binder.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workloadgen/stats.h"

namespace asqp {
namespace core {

namespace {

using storage::Table;
using util::Result;
using util::Status;

/// A pool tuple under construction: rows keyed by table name.
struct RawTuple {
  std::map<std::string, uint32_t> rows;

  std::string Key() const {
    std::string key;
    for (const auto& [table, row] : rows) {
      key += table;
      key += ':';
      key += std::to_string(row);
      key += '|';
    }
    return key;
  }
};

/// Does `tuple` satisfy bound query `q`? Requires the tuple to cover every
/// FROM table of q; evaluates filters, equi-joins, and residuals.
bool Satisfies(const sql::BoundQuery& q, const RawTuple& tuple) {
  const size_t n = q.num_tables();
  std::vector<uint32_t> row_ids(n, 0);
  for (size_t t = 0; t < n; ++t) {
    auto it = tuple.rows.find(q.tables[t]->name());
    if (it == tuple.rows.end()) return false;
    row_ids[t] = it->second;
  }
  exec::JoinedRow jr{&q.tables, row_ids.data()};
  for (const auto& table_filters : q.filters) {
    for (const sql::ExprPtr& f : table_filters) {
      if (!exec::EvaluatePredicate(*f, jr)) return false;
    }
  }
  for (const sql::JoinPredicate& jp : q.joins) {
    const storage::Value l =
        q.tables[jp.left_table]->column(jp.left_col).ValueAt(row_ids[jp.left_table]);
    const storage::Value r =
        q.tables[jp.right_table]->column(jp.right_col).ValueAt(row_ids[jp.right_table]);
    if (l.is_null() || r.is_null() || l.Compare(r) != 0) return false;
  }
  for (const sql::ExprPtr& res : q.residual) {
    if (!exec::EvaluatePredicate(*res, jr)) return false;
  }
  return true;
}

}  // namespace

Result<PreprocessResult> Preprocess(const storage::Database& db,
                                    const metric::Workload& workload,
                                    const AsqpConfig& config) {
  if (workload.empty()) {
    return Status::InvalidArgument("pre-processing requires a non-empty workload");
  }
  util::Rng rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  const workloadgen::DatabaseStats stats = workloadgen::DatabaseStats::Collect(db);

  // Aggregates are rewritten to their SPJ skeletons first (Section 3).
  metric::Workload spj_workload = workload.ToSpjWorkload();

  // Exploration queries (C4): a few statistics-generated single-table
  // queries appended at low weight, so the pool (and the reward) reach a
  // little beyond the observed workload.
  if (config.exploration_queries > 0) {
    const workloadgen::QueryGenerator generator(&db, &stats, {});
    workloadgen::QueryGenOptions gen_options;
    gen_options.max_joins = 0;
    gen_options.max_predicates = 2;
    const metric::Workload exploration = generator.GenerateWorkload(
        config.exploration_queries, gen_options, config.seed ^ 0xE47ULL);
    const double total_weight =
        config.exploration_weight / std::max<size_t>(1, exploration.size());
    for (const metric::WeightedQuery& q : exploration.queries()) {
      spj_workload.Add(q.stmt.Clone(), total_weight);
    }
    spj_workload.NormalizeWeights();
  }

  // ---- 1+2: relax, embed, cluster -> representatives.
  const embed::QueryEmbedder query_embedder(config.embed_dim);
  std::vector<sql::SelectStatement> relaxed;
  std::vector<embed::Vector> embeddings;
  relaxed.reserve(spj_workload.size());
  for (const metric::WeightedQuery& q : spj_workload.queries()) {
    relaxed.push_back(relax::RelaxQuery(q.stmt, stats, config.relax, &rng));
    embeddings.push_back(query_embedder.Embed(relaxed.back()));
  }

  const size_t num_reps =
      std::min(config.num_representatives, spj_workload.size());
  cluster::KMeansOptions cluster_options;
  cluster_options.seed = config.seed;
  ASQP_ASSIGN_OR_RETURN(cluster::ClusteringResult clustering,
                        cluster::KMedoids(embeddings, num_reps, cluster_options));

  PreprocessResult result;
  // Representative weight = total original weight of its cluster.
  std::vector<double> cluster_weight(clustering.medoids.size(), 0.0);
  for (size_t i = 0; i < spj_workload.size(); ++i) {
    cluster_weight[clustering.assignment[i]] += spj_workload.query(i).weight;
  }
  for (size_t c = 0; c < clustering.medoids.size(); ++c) {
    const size_t medoid = clustering.medoids[c];
    result.representatives.Add(spj_workload.query(medoid).stmt.Clone(),
                               cluster_weight[c]);
    // The estimator compares incoming queries against the *original*
    // statements: relaxed embeddings would blur exactly the predicate
    // semantics that distinguish a drifted interest.
    result.representative_embeddings.push_back(
        query_embedder.Embed(spj_workload.query(medoid).stmt));
  }
  result.representatives.NormalizeWeights();

  // ---- 3: execute relaxed representatives with provenance.
  const size_t execute_count = std::max<size_t>(
      1, static_cast<size_t>(config.representative_fraction *
                             static_cast<double>(clustering.medoids.size())));
  // Representative executions are the exec-heavy part of setup; they run
  // morsel-parallel when the configuration opts in (config.exec_threads).
  exec::ExecOptions exec_options;
  exec_options.num_threads = config.exec_threads;
  if (config.exec_morsel_rows > 0) {
    exec_options.morsel_rows = config.exec_morsel_rows;
  }
  exec::QueryEngine engine(exec_options);
  storage::DatabaseView full_view(&db);

  std::vector<RawTuple> raw_pool;
  std::unordered_map<std::string, size_t> pool_index;
  size_t executed = 0;
  for (size_t c = 0; c < clustering.medoids.size() && executed < execute_count;
       ++c) {
    const sql::SelectStatement& relaxed_stmt = relaxed[clustering.medoids[c]];
    auto bound = sql::Bind(relaxed_stmt, db);
    if (!bound.ok()) continue;
    auto prov = engine.ExecuteWithProvenance(bound.value(), full_view,
                                             config.max_tuples_per_rep);
    if (!prov.ok()) continue;
    ++executed;
    result.joined_tuples_collected += prov.value().tuples.size();
    for (const auto& tuple_rows : prov.value().tuples) {
      RawTuple raw;
      for (size_t t = 0; t < prov.value().table_names.size(); ++t) {
        raw.rows[prov.value().table_names[t]] = tuple_rows[t];
      }
      const std::string key = raw.Key();
      if (pool_index.emplace(key, raw_pool.size()).second) {
        raw_pool.push_back(std::move(raw));
      }
    }
  }
  result.representatives_executed = executed;
  if (raw_pool.empty()) {
    return Status::ExecutionError(
        "pre-processing collected no tuples: every representative failed or "
        "returned empty results");
  }

  // Bind the ORIGINAL representative statements (incidence + targets are
  // measured against what the user actually asked, not the relaxation).
  std::vector<sql::BoundQuery> bound_reps;
  std::vector<size_t> rep_of_bound;  // representative index per bound entry
  for (size_t c = 0; c < result.representatives.size(); ++c) {
    auto bound = sql::Bind(result.representatives.query(c).stmt, db);
    if (!bound.ok()) continue;
    bound_reps.push_back(std::move(bound).value());
    rep_of_bound.push_back(c);
  }
  if (bound_reps.empty()) {
    return Status::ExecutionError("no representative query could be bound");
  }
  const size_t num_queries = bound_reps.size();

  // Raw incidence: which raw tuples satisfy which representatives.
  std::vector<uint8_t> raw_incidence(raw_pool.size() * num_queries, 0);
  for (size_t p = 0; p < raw_pool.size(); ++p) {
    for (size_t qi = 0; qi < num_queries; ++qi) {
      if (Satisfies(bound_reps[qi], raw_pool[p])) {
        raw_incidence[p * num_queries + qi] = 1;
      }
    }
  }

  // Targets min(F, |q(T)|) and weights (needed for the quota below).
  std::vector<float> query_target(num_queries);
  std::vector<float> query_weight(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    sql::SelectStatement counting =
        result.representatives.query(rep_of_bound[qi]).stmt.Clone();
    counting.limit = -1;
    counting.order_by.clear();
    auto bound = sql::Bind(counting, db);
    size_t full_size = 0;
    if (bound.ok()) {
      auto prov = engine.ExecuteWithProvenance(bound.value(), full_view, 0);
      if (prov.ok()) full_size = prov.value().tuples.size();
    }
    const size_t target =
        std::max<size_t>(1, std::min<size_t>(full_size == 0 ? 1 : full_size,
                                             static_cast<size_t>(config.frame_size)));
    query_target[qi] = static_cast<float>(target);
    query_weight[qi] =
        static_cast<float>(result.representatives.query(rep_of_bound[qi]).weight);
  }

  // ---- 4a: pool selection. Subsampling must not starve any query of the
  // tuples it needs: reserve up to 3x each representative's frame target
  // from its satisfying tuples, then fill the remaining pool budget by
  // variational subsampling over the rest (generalization mass).
  std::vector<size_t> kept(raw_pool.size());
  for (size_t i = 0; i < kept.size(); ++i) kept[i] = i;
  if (raw_pool.size() > config.pool_target) {
    std::vector<uint8_t> reserved(raw_pool.size(), 0);
    size_t reserved_count = 0;
    if (config.reserve_query_quota) {
      util::Rng quota_rng(config.seed ^ 0xC0FFEEULL);
      for (size_t qi = 0; qi < num_queries; ++qi) {
        std::vector<size_t> satisfying;
        for (size_t p = 0; p < raw_pool.size(); ++p) {
          if (raw_incidence[p * num_queries + qi] && !reserved[p]) {
            satisfying.push_back(p);
          }
        }
        const size_t quota = std::min<size_t>(
            satisfying.size(), static_cast<size_t>(query_target[qi]) * 3);
        for (size_t s : quota_rng.SampleIndices(satisfying.size(), quota)) {
          if (!reserved[satisfying[s]]) {
            reserved[satisfying[s]] = 1;
            ++reserved_count;
          }
        }
      }
    }
    std::vector<size_t> rest;
    for (size_t p = 0; p < raw_pool.size(); ++p) {
      if (!reserved[p]) rest.push_back(p);
    }
    kept.clear();
    for (size_t p = 0; p < raw_pool.size(); ++p) {
      if (reserved[p]) kept.push_back(p);
    }
    const size_t fill = config.pool_target > reserved_count
                            ? config.pool_target - reserved_count
                            : 0;
    if (fill > 0 && !rest.empty()) {
      const embed::TupleEmbedder tuple_embedder(config.embed_dim);
      std::vector<embed::Vector> tuple_vecs;
      tuple_vecs.reserve(rest.size());
      std::map<std::string, std::shared_ptr<Table>> table_cache;
      for (size_t p : rest) {
        std::vector<const Table*> tables;
        std::vector<uint32_t> rows;
        for (const auto& [name, row] : raw_pool[p].rows) {
          auto it = table_cache.find(name);
          if (it == table_cache.end()) {
            auto t = db.GetTable(name);
            if (!t.ok()) continue;
            it = table_cache.emplace(name, t.value()).first;
          }
          tables.push_back(it->second.get());
          rows.push_back(row);
        }
        tuple_vecs.push_back(tuple_embedder.EmbedJoined(tables, rows));
      }
      // The subsample's k-means splits its assignment steps over as many
      // threads as training's rollouts use.
      util::ThreadPool pool(std::max<size_t>(1, config.trainer.num_workers));
      sample::VariationalOptions vopts;
      vopts.seed = config.seed ^ 0x5bd1e995ULL;
      vopts.num_strata = std::min<size_t>(16, rest.size());
      vopts.pool = &pool;
      ASQP_ASSIGN_OR_RETURN(std::vector<size_t> extra,
                            sample::VariationalSubsample(tuple_vecs, fill, vopts));
      for (size_t i : extra) kept.push_back(rest[i]);
    }
    std::sort(kept.begin(), kept.end());
  }

  // ---- 4b: build the ActionSpace: pool, incidence, actions.
  rl::ActionSpace& space = result.space;
  space.budget = config.k;

  // Table name -> dense index.
  std::map<std::string, uint32_t> table_ids;
  for (size_t ki : kept) {
    for (const auto& [name, _] : raw_pool[ki].rows) {
      if (table_ids.emplace(name, static_cast<uint32_t>(table_ids.size())).second) {
        space.table_names.push_back(name);
      }
    }
  }
  // Re-map: table_ids insertion order matches push_back order only if we
  // rebuild; rebuild names deterministically from the map.
  space.table_names.clear();
  space.table_names.resize(table_ids.size());
  {
    uint32_t next = 0;
    for (auto& [name, id] : table_ids) {
      id = next++;
      space.table_names[id] = name;
    }
  }

  space.pool.reserve(kept.size());
  for (size_t ki : kept) {
    rl::PoolTuple p;
    for (const auto& [name, row] : raw_pool[ki].rows) {
      p.rows.emplace_back(table_ids[name], row);
    }
    space.pool.push_back(std::move(p));
  }

  space.num_queries = num_queries;
  space.query_target = query_target;
  space.query_weight = query_weight;

  // Incidence restricted to the kept pool (precomputed on the raw pool).
  const size_t pool_size = space.pool.size();
  std::vector<uint8_t> incidence(pool_size * space.num_queries, 0);
  for (size_t p = 0; p < pool_size; ++p) {
    for (size_t qi = 0; qi < num_queries; ++qi) {
      incidence[p * space.num_queries + qi] =
          raw_incidence[kept[p] * num_queries + qi];
    }
  }

  // Actions: group pool tuples by their first covering representative so
  // an action bundles tuples that answer the same query, chunked to
  // `action_group_size`.
  std::vector<std::vector<uint32_t>> by_rep(space.num_queries + 1);
  for (size_t p = 0; p < pool_size; ++p) {
    size_t owner = space.num_queries;  // "covers nothing" bucket
    for (size_t qi = 0; qi < space.num_queries; ++qi) {
      if (incidence[p * space.num_queries + qi]) {
        owner = qi;
        break;
      }
    }
    by_rep[owner].push_back(static_cast<uint32_t>(p));
  }
  const size_t group = std::max<size_t>(1, config.action_group_size);
  for (const auto& bucket : by_rep) {
    for (size_t start = 0; start < bucket.size(); start += group) {
      const size_t end = std::min(bucket.size(), start + group);
      space.action_tuples.emplace_back(bucket.begin() + start,
                                       bucket.begin() + end);
    }
  }

  // Costs and contributions per action.
  const size_t num_actions = space.action_tuples.size();
  space.action_cost.resize(num_actions);
  space.contribution.assign(num_actions * space.num_queries, 0.0f);
  for (size_t a = 0; a < num_actions; ++a) {
    // Distinct base tuples.
    std::vector<std::pair<uint32_t, uint32_t>> base;
    for (uint32_t p : space.action_tuples[a]) {
      for (const auto& row : space.pool[p].rows) base.push_back(row);
      for (size_t qi = 0; qi < space.num_queries; ++qi) {
        space.contribution[a * space.num_queries + qi] +=
            static_cast<float>(incidence[p * space.num_queries + qi]);
      }
    }
    std::sort(base.begin(), base.end());
    base.erase(std::unique(base.begin(), base.end()), base.end());
    space.action_cost[a] = static_cast<uint32_t>(base.size());
  }
  return result;
}

}  // namespace core
}  // namespace asqp
