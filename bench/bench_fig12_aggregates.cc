// Figure 12 (Section 6.4): aggregate-query relative error by operator
// category — {SUM, AVG, CNT} x {grouped, ungrouped} — for ASQP-RL's
// approximation set (answers scaled by the per-table sampling fraction),
// the gAQP-style VAE (queries on generated data, scaled), and the
// DeepDB-style SPN (model-based estimates). Expected shape (paper): no
// method dominates every operator; ASQP-RL wins about half the categories
// and is competitive elsewhere, despite never being optimized for
// aggregates.
#include <cstdio>
#include <map>

#include "aqp/spn.h"
#include "aqp/vae.h"
#include "common/bench_common.h"
#include "common/bench_json.h"
#include "metric/relative_error.h"
#include "sql/binder.h"

using namespace asqp;
using namespace asqp::bench;

namespace {

std::string CategoryOf(const sql::SelectStatement& stmt) {
  std::string op = "CNT";
  for (const auto& item : stmt.items) {
    if (item.agg == sql::AggFunc::kSum) op = "SUM";
    if (item.agg == sql::AggFunc::kAvg) op = "AVG";
  }
  return stmt.group_by.empty() ? op : "G+" + op;
}

/// Scale a subset-executed aggregate result (standard AQP scale-up):
/// COUNT and SUM columns multiply by `inverse_fraction`; AVG stays.
exec::ResultSet ScaleAggregates(const exec::ResultSet& rs,
                                const sql::SelectStatement& stmt,
                                double inverse_fraction) {
  exec::ResultSet::Rows rows;
  for (size_t r = 0; r < rs.num_rows(); ++r) {
    std::vector<storage::Value> row = rs.row(r);
    for (size_t c = 0; c < stmt.items.size() && c < row.size(); ++c) {
      const sql::AggFunc agg = stmt.items[c].agg;
      if ((agg == sql::AggFunc::kCount || agg == sql::AggFunc::kSum) &&
          row[c].is_numeric()) {
        if (row[c].type() == storage::ValueType::kInt64) {
          row[c] = storage::Value(static_cast<int64_t>(
              std::llround(row[c].ToNumeric() * inverse_fraction)));
        } else {
          row[c] = storage::Value(row[c].ToNumeric() * inverse_fraction);
        }
      }
    }
    rows.push_back(std::move(row));
  }
  return exec::ResultSet(rs.column_names(), std::move(rows));
}

/// Hybrid calibration for the ASQP approximation set: the set is biased
/// toward workload-relevant tuples, so raw 1/fraction scaling distorts
/// totals. A small *uniform* pilot sample (whose sampling fraction is
/// exact) calibrates each aggregate column's total; the approximation set
/// supplies the per-group composition. The per-column factor is
///   pilot_total / pilot_fraction / subset_total,
/// applied to CNT and SUM cells (AVG is ratio-invariant).
exec::ResultSet CalibrateWithPilot(const exec::ResultSet& subset_rs,
                                   const exec::ResultSet& pilot_rs,
                                   const sql::SelectStatement& stmt,
                                   double pilot_fraction,
                                   double fallback_inverse_fraction) {
  std::vector<double> factors(stmt.items.size(),
                              fallback_inverse_fraction);
  for (size_t c = 0; c < stmt.items.size(); ++c) {
    const sql::AggFunc agg = stmt.items[c].agg;
    if (agg != sql::AggFunc::kCount && agg != sql::AggFunc::kSum) continue;
    double subset_total = 0.0;
    for (size_t r = 0; r < subset_rs.num_rows(); ++r) {
      if (c < subset_rs.row(r).size()) {
        subset_total += subset_rs.row(r)[c].ToNumeric();
      }
    }
    double pilot_total = 0.0;
    for (size_t r = 0; r < pilot_rs.num_rows(); ++r) {
      if (c < pilot_rs.row(r).size()) {
        pilot_total += pilot_rs.row(r)[c].ToNumeric();
      }
    }
    if (subset_total > 0.0 && pilot_fraction > 0.0) {
      factors[c] = pilot_total / pilot_fraction / subset_total;
    }
  }

  exec::ResultSet::Rows rows;
  for (size_t r = 0; r < subset_rs.num_rows(); ++r) {
    std::vector<storage::Value> row = subset_rs.row(r);
    for (size_t c = 0; c < stmt.items.size() && c < row.size(); ++c) {
      const sql::AggFunc agg = stmt.items[c].agg;
      if ((agg == sql::AggFunc::kCount || agg == sql::AggFunc::kSum) &&
          row[c].is_numeric()) {
        if (row[c].type() == storage::ValueType::kInt64) {
          row[c] = storage::Value(static_cast<int64_t>(
              std::llround(row[c].ToNumeric() * factors[c])));
        } else {
          row[c] = storage::Value(row[c].ToNumeric() * factors[c]);
        }
      }
    }
    rows.push_back(std::move(row));
  }
  return exec::ResultSet(subset_rs.column_names(), std::move(rows));
}

struct CategoryErrors {
  std::map<std::string, std::pair<double, size_t>> sums;  // cat -> (sum, n)

  void Add(const std::string& category, double error) {
    auto& [sum, n] = sums[category];
    sum += error;
    ++n;
  }
  double Mean(const std::string& category) const {
    auto it = sums.find(category);
    if (it == sums.end() || it->second.second == 0) return 1.0;
    return it->second.first / static_cast<double>(it->second.second);
  }
};

}  // namespace

int main(int argc, char** argv) {
  BenchJsonWriter writer = BenchJsonWriter::FromArgs(&argc, argv);
  PrintHeader("Figure 12",
              "Aggregate relative error by operator: ASQP-RL vs VAE (gAQP) "
              "vs SPN (DeepDB) on FLIGHTS");
  const ScaledSetup setup = SetupForScale(BenchScale());
  const data::DatasetBundle bundle = LoadDataset("flights", setup);
  auto flights_table = bundle.db->GetTable("flights").value();

  // Aggregate workload, split into train (for ASQP) and test.
  metric::Workload aggs = data::MakeFlightsAggregateWorkload(
      bundle, setup.aggregate_queries, setup.seed + 5);
  util::Rng rng(setup.seed);
  auto [train, test] = aggs.TrainTestSplit(0.6, &rng);

  // --- ASQP-RL: train on the SPJ-rewritten aggregates (Section 3).
  core::AsqpConfig config = MakeAsqpConfig(setup, false);
  core::AsqpTrainer trainer(config);
  auto report = trainer.Train(*bundle.db, train);
  if (!report.ok()) {
    std::fprintf(stderr, "ASQP training failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  const storage::ApproximationSet& subset = report->model->approximation_set();
  const double asqp_fraction =
      static_cast<double>(subset.RowsFor("flights").size()) /
      static_cast<double>(flights_table->num_rows());

  // Uniform pilot sample (2%) for total calibration — a tiny amount of
  // extra memory that standard AQP systems keep anyway.
  const double pilot_fraction = 0.02;
  storage::ApproximationSet pilot;
  {
    util::Rng prng(setup.seed ^ 0x9999ULL);
    const size_t n = static_cast<size_t>(
        pilot_fraction * static_cast<double>(flights_table->num_rows()));
    for (size_t r : prng.SampleIndices(flights_table->num_rows(), n)) {
      pilot.Add("flights", static_cast<uint32_t>(r));
    }
    pilot.Seal();
  }

  // --- VAE (gAQP, 1% memory): generate and scale by 100x.
  aqp::VaeOptions vae_options;
  vae_options.epochs = 10;
  vae_options.seed = setup.seed;
  auto vae = aqp::TabularVae::Fit(*flights_table, vae_options);
  storage::Database vae_db;
  double vae_fraction = 0.01;
  if (vae.ok()) {
    const size_t n = std::max<size_t>(50, flights_table->num_rows() / 100);
    vae_fraction = static_cast<double>(n) /
                   static_cast<double>(flights_table->num_rows());
    auto synth = vae->Generate(n, setup.seed + 9);
    if (synth.ok()) (void)vae_db.AddTable(synth.value());
  }

  // --- SPN (DeepDB).
  aqp::SpnOptions spn_options;
  spn_options.seed = setup.seed;
  auto spn = aqp::Spn::Learn(*flights_table, spn_options);

  exec::QueryEngine engine;
  storage::DatabaseView full_view(bundle.db.get());
  storage::DatabaseView subset_view(bundle.db.get(), &subset);
  storage::DatabaseView pilot_view(bundle.db.get(), &pilot);
  storage::DatabaseView vae_view(&vae_db);

  CategoryErrors asqp_err, asqp_pilot_err, vae_err, spn_err;
  for (const auto& wq : test.queries()) {
    const std::string category = CategoryOf(wq.stmt);
    const size_t group_cols = wq.stmt.group_by.size();
    auto bound = sql::Bind(wq.stmt, *bundle.db);
    if (!bound.ok()) continue;
    auto truth = engine.Execute(bound.value(), full_view);
    if (!truth.ok()) continue;

    // ASQP: execute over the subset; calibrate totals with the pilot.
    {
      auto approx = engine.Execute(bound.value(), subset_view);
      double error = 1.0;
      double pilot_error = 1.0;
      if (approx.ok() && asqp_fraction > 0.0) {
        const exec::ResultSet scaled = ScaleAggregates(
            approx.value(), wq.stmt, 1.0 / asqp_fraction);
        error = metric::RelativeError(truth.value(), scaled, group_cols)
                    .ValueOr(1.0);
        // Ablation: uniform-pilot total calibration on top of the subset.
        auto pilot_rs = engine.Execute(bound.value(), pilot_view);
        if (pilot_rs.ok()) {
          const exec::ResultSet calibrated = CalibrateWithPilot(
              approx.value(), pilot_rs.value(), wq.stmt, pilot_fraction,
              1.0 / asqp_fraction);
          pilot_error =
              metric::RelativeError(truth.value(), calibrated, group_cols)
                  .ValueOr(1.0);
        }
      }
      asqp_err.Add(category, error);
      asqp_pilot_err.Add(category, pilot_error);
    }
    // VAE: execute over generated data, scale up.
    {
      double error = 1.0;
      if (vae_db.HasTable("flights")) {
        auto vbound = sql::Bind(wq.stmt, vae_db);
        if (vbound.ok()) {
          auto vres = engine.Execute(vbound.value(), vae_view);
          if (vres.ok()) {
            const exec::ResultSet scaled = ScaleAggregates(
                vres.value(), wq.stmt, 1.0 / vae_fraction);
            error = metric::RelativeError(truth.value(), scaled, group_cols)
                        .ValueOr(1.0);
          }
        }
      }
      vae_err.Add(category, error);
    }
    // SPN: model estimate.
    {
      double error = 1.0;
      if (spn.ok()) {
        auto est = spn->EstimateAggregateQuery(bound.value());
        if (est.ok()) {
          error = metric::RelativeError(truth.value(), est.value(), group_cols)
                      .ValueOr(1.0);
        }
      }
      spn_err.Add(category, error);
    }
  }

  std::printf("approximation-set sampling fraction: %.3f (k=%zu)\n\n",
              asqp_fraction, setup.k);
  PrintRow({"category", "ASQP-RL", "ASQP+pilot", "VAE(gAQP)", "SPN(DeepDB)"},
           {10, 10, 10, 10, 12});
  const auto record_error = [&](const std::string& method,
                                const std::string& category,
                                double mean_error) {
    BenchRecord record;
    record.name = "fig12/flights/" + method + "/" + category;
    record.params.emplace_back("method", method);
    record.params.emplace_back("category", category);
    record.params.emplace_back("bench_scale", std::to_string(BenchScale()));
    record.error = mean_error;
    writer.Add(std::move(record));
  };
  for (const char* category :
       {"G+SUM", "SUM", "G+AVG", "AVG", "G+CNT", "CNT"}) {
    PrintRow({category, Fmt(asqp_err.Mean(category)),
              Fmt(asqp_pilot_err.Mean(category)), Fmt(vae_err.Mean(category)),
              Fmt(spn_err.Mean(category))},
             {10, 10, 10, 10, 12});
    record_error("asqp_rl", category, asqp_err.Mean(category));
    record_error("asqp_pilot", category, asqp_pilot_err.Mean(category));
    record_error("vae", category, vae_err.Mean(category));
    record_error("spn", category, spn_err.Mean(category));
  }
  if (!writer.Flush()) return 1;
  return 0;
}
