// Quickstart: build a small database, write a workload, train ASQP-RL,
// and answer exploratory queries from the learned approximation set.
//
//   $ ./example_quickstart
#include <cstdio>

#include "core/trainer.h"
#include "data/dataset.h"
#include "metric/score.h"

using namespace asqp;

int main() {
  // 1. A database + SPJ workload. Here: the synthetic IMDB-JOB bundle
  //    (use your own storage::Database + metric::Workload in real code).
  data::DatasetOptions data_options;
  data_options.scale = 0.05;
  data_options.workload_size = 20;
  const data::DatasetBundle imdb = data::MakeImdbJob(data_options);
  std::printf("database: %zu tuples across %zu tables, %zu workload queries\n",
              imdb.db->TotalRows(), imdb.db->TableNames().size(),
              imdb.workload.size());

  // 2. Configure and train. k bounds the approximation set; F is the
  //    number of result rows a user actually looks at.
  core::AsqpConfig config;
  config.k = 400;
  config.frame_size = 25;
  config.trainer.iterations = 15;
  config.trainer.num_workers = 2;
  core::AsqpTrainer trainer(config);
  auto report = trainer.Train(*imdb.db, imdb.workload);
  if (!report.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  core::AsqpModel& model = *report->model;
  std::printf(
      "trained in %.1fs (rollouts %.1fs, updates %.1fs) over %zu episodes; "
      "|S| = %zu tuples\n",
      report->setup_seconds, report->collect_seconds, report->update_seconds,
      report->episodes, model.approximation_set().TotalTuples());

  // 3. Quality of the approximation set under the paper's metric (Eq. 1).
  metric::ScoreEvaluator evaluator(
      imdb.db.get(), metric::ScoreOptions{.frame_size = config.frame_size});
  auto score = evaluator.Score(imdb.workload, model.approximation_set());
  std::printf("workload score: %.3f\n", score.ValueOr(0.0));

  // 4. Answer queries through the mediator: the estimator decides whether
  //    the approximation set suffices or the full database is needed.
  const char* queries[] = {
      "SELECT t.name, t.production_year FROM title t WHERE "
      "t.production_year >= 2010 AND t.rating >= 7 LIMIT 20",
      "SELECT t.name, c.name FROM title t, movie_companies mc, company c "
      "WHERE mc.movie_id = t.id AND mc.company_id = c.id AND "
      "c.country = 'us' LIMIT 20",
  };
  for (const char* sql : queries) {
    auto answer = model.AnswerSql(sql);
    if (!answer.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   answer.status().ToString().c_str());
      continue;
    }
    std::printf("\n%s\n  -> %zu rows, served from %s (answerability %.2f)\n",
                sql, answer->result.num_rows(),
                answer->used_approximation ? "approximation set"
                                           : "full database",
                answer->answerability);
    for (size_t r = 0; r < std::min<size_t>(3, answer->result.num_rows());
         ++r) {
      std::string line = "     ";
      for (const auto& v : answer->result.row(r)) {
        line += v.ToString();
        line += "  ";
      }
      std::printf("%s\n", line.c_str());
    }
  }
  return 0;
}
