// Serving-layer throughput: QPS of one ServeEngine under 1/2/4/8
// concurrent mediator sessions, cold (cache disabled: every request is
// admitted and executed) vs warm (fingerprint cache pre-filled: repeat
// queries are hits), plus single-session cold/hit latency — the cache-hit
// speedup is the serving layer's acceptance metric (>= 10x). A final
// overload scenario offers 4x max_inflight sessions with tight deadlines
// and fault points armed, records p50/p99/degraded-answer ratio/mean
// error estimate, and fails if any raw kDeadlineExceeded/kCancelled
// escapes ServeEngine::Answer. A text-path record sends SQL text through
// AnswerSql, where a repeated text is answered through the exact-text
// memo. Emits machine-readable records via --json / ASQP_BENCH_JSON for
// CI's bench-smoke gate (tools/bench_compare vs
// bench/baselines/BENCH_serve.json).
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_common.h"
#include "common/bench_json.h"
#include "core/trainer.h"
#include "serve/serve_engine.h"
#include "sql/parser.h"
#include "util/fault_injector.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

using namespace asqp;
using namespace asqp::bench;

namespace {

/// Requests each session issues per throughput round.
size_t RequestsPerSession() {
  switch (BenchScale()) {
    case 0:
      return 30;
    case 1:
      return 120;
    default:
      return 400;
  }
}

/// Run `sessions` threads, each issuing `per_session` requests round-robin
/// over `queries`, and return the total wall seconds.
double RunSessions(serve::ServeEngine* engine,
                   const std::vector<sql::SelectStatement>& queries,
                   size_t sessions, size_t per_session) {
  util::Stopwatch timer;
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([engine, &queries, s, per_session] {
      for (size_t i = 0; i < per_session; ++i) {
        auto result = engine->Answer(queries[(s + i) % queries.size()]);
        if (!result.ok()) {
          std::fprintf(stderr, "serve error: %s\n",
                       result.status().ToString().c_str());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return timer.ElapsedSeconds();
}

/// `sql` with every character outside string literals lower-cased: an
/// equivalent spelling, as keywords and identifiers ignore case.
std::string LowerOutsideQuotes(std::string sql) {
  bool quoted = false;
  for (char& c : sql) {
    if (c == '\'') {
      quoted = !quoted;
    } else if (!quoted) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return sql;
}

}  // namespace

int main(int argc, char** argv) {
  BenchJsonWriter writer = BenchJsonWriter::FromArgs(&argc, argv);
  PrintHeader("Serving layer",
              "ServeEngine QPS at 1/2/4/8 sessions, cold vs warm cache");
  const ScaledSetup setup = SetupForScale(BenchScale());
  const data::DatasetBundle bundle = LoadDataset("imdb", setup);
  const metric::Workload workload = FilterNonEmpty(*bundle.db, bundle.workload);

  core::AsqpConfig config = MakeAsqpConfig(setup);
  core::AsqpTrainer trainer(config);
  auto report = trainer.Train(*bundle.db, workload);
  if (!report.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  core::AsqpModel& model = *report.value().model;

  std::vector<sql::SelectStatement> queries;
  for (const auto& wq : workload.queries()) {
    queries.push_back(wq.stmt);
    if (queries.size() >= 8) break;
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no usable workload queries\n");
    return 1;
  }

  serve::ServeOptions serve_options;
  serve_options.max_inflight = 4;
  serve_options.queue_capacity = 64;
  serve_options.pool_threads = BenchExecThreads() > 1
                                   ? BenchExecThreads() - 1
                                   : 1;

  // --- Single-session latency: cold execution vs cache hit. -------------
  double cold_seconds = 0.0;
  double hit_seconds = 0.0;
  {
    serve::ServeEngine engine(&model, serve_options);
    util::Stopwatch timer;
    for (const auto& stmt : queries) {
      auto result = engine.Answer(stmt);
      if (!result.ok()) {
        std::fprintf(stderr, "cold answer failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
    }
    cold_seconds = timer.ElapsedSeconds() / static_cast<double>(queries.size());
    timer.Restart();
    for (const auto& stmt : queries) {
      auto result = engine.Answer(stmt);
      if (!result.ok() || !result.value().from_cache) {
        std::fprintf(stderr, "expected a cache hit on the repeat pass\n");
        return 1;
      }
    }
    hit_seconds = timer.ElapsedSeconds() / static_cast<double>(queries.size());
  }
  const double speedup = hit_seconds > 0 ? cold_seconds / hit_seconds : 0.0;

  PrintRow({"pass", "per-query", "speedup"}, {10, 14, 10});
  PrintRow({"cold", Fmt(cold_seconds * 1e3, 3) + " ms", "1x"}, {10, 14, 10});
  PrintRow({"hit", Fmt(hit_seconds * 1e3, 3) + " ms", Fmt(speedup, 1) + "x"},
           {10, 14, 10});

  {
    BenchRecord record;
    record.name = "serve_latency_cold";
    record.params.emplace_back("bench_scale", std::to_string(BenchScale()));
    record.wall_seconds = cold_seconds;
    writer.Add(std::move(record));
  }
  {
    BenchRecord record;
    record.name = "serve_latency_hit";
    record.params.emplace_back("bench_scale", std::to_string(BenchScale()));
    record.params.emplace_back("speedup_vs_cold", Fmt(speedup, 1));
    record.wall_seconds = hit_seconds;
    writer.Add(std::move(record));
  }

  // --- Text-path hits: a fixed set of spellings through AnswerSql. ------
  // Every record above drives Answer(stmt), which carries no text. Here
  // four sessions send SQL text: each query as ToSql() renders it and
  // lower-cased. Two warm-up passes execute each query once and memoize
  // every text, so the timed requests are cache hits found through the
  // exact-text memo, without parsing.
  {
    std::vector<std::string> texts;
    for (const auto& stmt : queries) {
      texts.push_back(stmt.ToSql());
      texts.push_back(LowerOutsideQuotes(texts.back()));
    }
    serve::ServeEngine engine(&model, serve_options);
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& sql : texts) {
        auto result = engine.AnswerSql(sql);
        if (!result.ok()) {
          std::fprintf(stderr, "text warm-up failed: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
      }
    }
    const serve::ServeEngine::Stats warm = engine.stats();
    constexpr size_t kTextSessions = 4;
    constexpr size_t kTextRequests = 20000;  // per session; hits take µs
    std::vector<std::vector<double>> per_session(kTextSessions);
    std::atomic<size_t> misses{0};
    util::Stopwatch timer;
    std::vector<std::thread> threads;
    for (size_t s = 0; s < kTextSessions; ++s) {
      threads.emplace_back([&engine, &texts, &per_session, &misses, s] {
        per_session[s].reserve(kTextRequests);
        for (size_t i = 0; i < kTextRequests; ++i) {
          util::Stopwatch request_timer;
          auto result = engine.AnswerSql(texts[(s + i) % texts.size()]);
          per_session[s].push_back(request_timer.ElapsedSeconds());
          if (!result.ok() || !result.value().from_cache) {
            misses.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = timer.ElapsedSeconds();
    if (misses.load() > 0) {
      std::fprintf(stderr, "text path: %zu timed request(s) missed\n",
                   misses.load());
      return 1;
    }
    std::vector<double> latencies;
    for (const std::vector<double>& lat : per_session) {
      latencies.insert(latencies.end(), lat.begin(), lat.end());
    }
    std::sort(latencies.begin(), latencies.end());
    const double p50 = latencies[latencies.size() / 2];
    const double p99 = latencies[latencies.size() * 99 / 100];
    const double qps = wall > 0 ? static_cast<double>(latencies.size()) / wall
                                : 0.0;
    const serve::ServeEngine::Stats stats = engine.stats();
    const double memo_ratio =
        static_cast<double>(stats.memo_hits - warm.memo_hits) /
        static_cast<double>(latencies.size());

    PrintRow({"text hit", "QPS", "p50", "p99", "memo"}, {10, 12, 12, 12, 10});
    PrintRow({util::Format("%zux%zu", kTextSessions, kTextRequests),
              Fmt(qps, 1), Fmt(p50 * 1e6, 2) + " us",
              Fmt(p99 * 1e6, 2) + " us", Fmt(memo_ratio, 3)},
             {10, 12, 12, 12, 10});

    BenchRecord record;
    record.name = "serve_text_hit/4";
    record.params.emplace_back("bench_scale", std::to_string(BenchScale()));
    record.params.emplace_back("sessions", std::to_string(kTextSessions));
    record.params.emplace_back("texts", std::to_string(texts.size()));
    record.params.emplace_back("memo_hit_ratio", Fmt(memo_ratio, 3));
    record.wall_seconds = p50;
    record.rows_per_sec = qps;
    record.p99_seconds = p99;
    writer.Add(std::move(record));
  }

  // --- Throughput: sessions x {cold, warm}. -----------------------------
  const size_t per_session = RequestsPerSession();
  PrintRow({"sessions", "mode", "QPS", "hit ratio"}, {10, 8, 12, 10});
  for (size_t sessions : {1u, 2u, 4u, 8u}) {
    for (const bool warm : {false, true}) {
      serve::ServeOptions options = serve_options;
      if (!warm) options.cache_bytes = 0;  // cold = every request executes
      serve::ServeEngine engine(&model, options);
      if (warm) {
        // Pre-fill so the measured region is all hits.
        for (const auto& stmt : queries) {
          auto result = engine.Answer(stmt);
          if (!result.ok()) {
            std::fprintf(stderr, "warmup failed: %s\n",
                         result.status().ToString().c_str());
            return 1;
          }
        }
      }
      const double wall =
          RunSessions(&engine, queries, sessions, per_session);
      const double total =
          static_cast<double>(sessions) * static_cast<double>(per_session);
      const double qps = wall > 0 ? total / wall : 0.0;
      const serve::ServeEngine::Stats stats = engine.stats();
      const double hit_ratio =
          stats.served > 0
              ? static_cast<double>(stats.cache_hits) /
                    static_cast<double>(stats.served)
              : 0.0;
      PrintRow({std::to_string(sessions), warm ? "warm" : "cold",
                Fmt(qps, 1), Fmt(hit_ratio, 2)},
               {10, 8, 12, 10});

      BenchRecord record;
      record.name = util::Format("serve_qps_%s/%zu", warm ? "warm" : "cold",
                                 sessions);
      record.params.emplace_back("bench_scale", std::to_string(BenchScale()));
      record.params.emplace_back("sessions", std::to_string(sessions));
      record.params.emplace_back("hit_ratio", Fmt(hit_ratio, 3));
      record.wall_seconds = wall / total;  // seconds per request
      record.rows_per_sec = qps;           // requests per second
      writer.Add(std::move(record));
    }
  }

  // --- Overload: offered load 4x max_inflight, tight deadlines, fault
  // points armed. Measures the degradation ladder's serve contract: every
  // request resolves to a tiered answer or a typed shed/degraded status;
  // a raw kDeadlineExceeded / kCancelled reaching a client (other than
  // the dead-on-arrival fast path) fails the bench. ------------------------
  {
    const size_t sessions = 4 * serve_options.max_inflight;
    const size_t per_session = std::max<size_t>(RequestsPerSession() / 2, 20);
    const size_t total_requests = sessions * per_session;
    // Tight but not dead-on-arrival: several cold executions' worth, so
    // expiry happens while queued or mid-execution under contention.
    const double deadline_seconds =
        std::clamp(cold_seconds * 10.0, 0.004, 0.25);

    serve::ServeOptions options = serve_options;
    options.cache_bytes = 0;   // every request runs the ladder
    options.queue_capacity = sessions / 2;  // queue overflow is reachable
    serve::ServeEngine engine(&model, options);

    // Mix in a learned-answerable aggregate so load shedding has a tier
    // to shed to (the SPJ workload queries can only backpressure).
    std::vector<sql::SelectStatement> mix = queries;
    {
      auto parsed = sql::Parse(
          "SELECT COUNT(*) FROM title t WHERE t.production_year >= 2000");
      if (!parsed.ok()) {
        std::fprintf(stderr, "overload aggregate parse failed: %s\n",
                     parsed.status().ToString().c_str());
        return 1;
      }
      mix.push_back(std::move(parsed).value());
      mix.push_back(mix.back());  // double its share of the offered load
    }

    // Transient faults on the ladder's retryable points plus simulated
    // deadline expiry; counts chosen so a minority of requests hit one.
    util::FaultInjector& injector = util::FaultInjector::Global();
    injector.Reset();
    injector.Arm("exec.join.alloc", static_cast<int>(total_requests / 8), 5);
    injector.Arm("exec.agg.partial", static_cast<int>(total_requests / 16), 3);
    injector.Arm("exec.deadline", static_cast<int>(total_requests / 8), 7);

    struct SessionTally {
      std::vector<double> latencies;
      size_t tier0 = 0;          // healthy approximation-set answers
      size_t degraded_answers = 0;  // fell back: learned or full-DB tier
      size_t typed_degraded = 0;    // kDegraded: every tier exhausted
      size_t backpressure = 0;      // kResourceExhausted (queue full)
      size_t dead_on_arrival = 0;   // expired-deadline fast path
      size_t leaks = 0;          // raw timeout/cancel reaching the client
      double error_estimate_sum = 0.0;
      size_t error_estimates = 0;
    };
    std::vector<SessionTally> tallies(sessions);
    util::Stopwatch timer;
    std::vector<std::thread> threads;
    threads.reserve(sessions);
    for (size_t s = 0; s < sessions; ++s) {
      threads.emplace_back([&engine, &mix, &tallies, s, per_session,
                            deadline_seconds] {
        SessionTally& tally = tallies[s];
        tally.latencies.reserve(per_session);
        for (size_t i = 0; i < per_session; ++i) {
          const util::ExecContext context =
              util::ExecContext::WithDeadline(deadline_seconds);
          util::Stopwatch request_timer;
          auto result =
              engine.Answer(mix[(s + i) % mix.size()], context);
          tally.latencies.push_back(request_timer.ElapsedSeconds());
          if (result.ok()) {
            if (result.value().fell_back) {
              ++tally.degraded_answers;
              if (result.value().error_estimate > 0.0) {
                tally.error_estimate_sum += result.value().error_estimate;
                ++tally.error_estimates;
              }
            } else {
              ++tally.tier0;
            }
            continue;
          }
          const util::Status& status = result.status();
          if (status.code() == util::StatusCode::kDegraded) {
            ++tally.typed_degraded;
          } else if (status.code() == util::StatusCode::kResourceExhausted) {
            ++tally.backpressure;
          } else if (status.code() == util::StatusCode::kDeadlineExceeded &&
                     status.message().find("on arrival") !=
                         std::string::npos) {
            ++tally.dead_on_arrival;
          } else {
            ++tally.leaks;
            std::fprintf(stderr, "overload contract violation: %s\n",
                         status.ToString().c_str());
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = timer.ElapsedSeconds();
    injector.Reset();

    SessionTally totals;
    std::vector<double> latencies;
    latencies.reserve(total_requests);
    for (const SessionTally& tally : tallies) {
      latencies.insert(latencies.end(), tally.latencies.begin(),
                       tally.latencies.end());
      totals.tier0 += tally.tier0;
      totals.degraded_answers += tally.degraded_answers;
      totals.typed_degraded += tally.typed_degraded;
      totals.backpressure += tally.backpressure;
      totals.dead_on_arrival += tally.dead_on_arrival;
      totals.leaks += tally.leaks;
      totals.error_estimate_sum += tally.error_estimate_sum;
      totals.error_estimates += tally.error_estimates;
    }
    if (totals.leaks > 0) {
      std::fprintf(stderr,
                   "%zu raw deadline/cancellation status(es) escaped "
                   "ServeEngine::Answer under overload\n",
                   totals.leaks);
      return 1;
    }
    std::sort(latencies.begin(), latencies.end());
    const auto percentile = [&latencies](double p) {
      if (latencies.empty()) return 0.0;
      const size_t idx = std::min(
          latencies.size() - 1,
          static_cast<size_t>(p * static_cast<double>(latencies.size())));
      return latencies[idx];
    };
    const double p50 = percentile(0.50);
    const double p99 = percentile(0.99);
    const double total = static_cast<double>(total_requests);
    const double qps = wall > 0 ? total / wall : 0.0;
    const double degraded_ratio =
        (total - static_cast<double>(totals.tier0)) / total;
    const double mean_error_estimate =
        totals.error_estimates > 0
            ? totals.error_estimate_sum /
                  static_cast<double>(totals.error_estimates)
            : 0.0;

    PrintRow({"overload", "QPS", "p50", "p99", "degraded"},
             {10, 12, 12, 12, 10});
    PrintRow({util::Format("%zux%zu", sessions, per_session), Fmt(qps, 1),
              Fmt(p50 * 1e3, 3) + " ms", Fmt(p99 * 1e3, 3) + " ms",
              Fmt(degraded_ratio, 3)},
             {10, 12, 12, 12, 10});

    BenchRecord record;
    record.name = "serve_overload/4x";
    record.params.emplace_back("bench_scale", std::to_string(BenchScale()));
    record.params.emplace_back("sessions", std::to_string(sessions));
    record.params.emplace_back("deadline_ms", Fmt(deadline_seconds * 1e3, 2));
    record.params.emplace_back("tier0", std::to_string(totals.tier0));
    record.params.emplace_back("degraded_answers",
                               std::to_string(totals.degraded_answers));
    record.params.emplace_back("typed_degraded",
                               std::to_string(totals.typed_degraded));
    record.params.emplace_back("backpressure",
                               std::to_string(totals.backpressure));
    record.params.emplace_back("dead_on_arrival",
                               std::to_string(totals.dead_on_arrival));
    record.wall_seconds = p50;
    record.rows_per_sec = qps;
    record.error = mean_error_estimate;
    record.p99_seconds = p99;
    record.degraded_ratio = degraded_ratio;
    writer.Add(std::move(record));
  }

  // --- Shared-scan batching: overlapping 64-session workload. -----------
  // Many sessions issue predicate variants over the same tables; when a
  // slot frees, the batched engine takes the oldest queued request and
  // its queued same-table peers as one shared-scan batch (one scan pass
  // per table per batch, canonical duplicates deduplicated), while the
  // unbatched control (batch_max_queries = 1) executes each request
  // alone. The comparison runs with the cache disabled so the gain
  // measures scan sharing, not caching — on a single core the speedup
  // comes entirely from doing less work, not from parallelism. At 8
  // sessions the queue behind 4 slots is short, so serve_batch/8 is
  // judged against serve_unbatched/8; p99 at 8 vs 64 sessions records
  // the sublinear latency growth batching buys under contention.
  {
    std::vector<sql::SelectStatement> overlap;
    std::vector<std::string> overlap_sql;
    for (int year : {1990, 2000}) {
      overlap_sql.push_back(util::Format(
          "SELECT t.name, ci.role FROM title t, cast_info ci "
          "WHERE ci.movie_id = t.id AND t.production_year >= %d",
          year));
    }
    for (int rating : {6, 8}) {
      overlap_sql.push_back(util::Format(
          "SELECT t.name, ci.role FROM title t, cast_info ci "
          "WHERE ci.movie_id = t.id AND t.rating > %d",
          rating));
    }
    for (int year : {1960, 1980, 2000, 2005}) {
      overlap_sql.push_back(util::Format(
          "SELECT t.name FROM title t WHERE t.production_year >= %d", year));
    }
    overlap_sql.push_back(
        "SELECT p.name FROM person p WHERE p.birth_year > 1970");
    for (const std::string& sql : overlap_sql) {
      auto parsed = sql::Parse(sql);
      if (!parsed.ok()) {
        std::fprintf(stderr, "overlap query parse failed: %s\n",
                     parsed.status().ToString().c_str());
        return 1;
      }
      overlap.push_back(std::move(parsed).value());
    }

    const size_t batch_per_session = RequestsPerSession();
    struct TimedRun {
      double wall = 0.0;
      std::vector<double> latencies;
    };
    const auto run_timed = [&overlap, batch_per_session](
                               serve::ServeEngine* engine, size_t sessions) {
      TimedRun run;
      std::vector<std::vector<double>> per_session(sessions);
      util::Stopwatch timer;
      std::vector<std::thread> threads;
      threads.reserve(sessions);
      for (size_t s = 0; s < sessions; ++s) {
        threads.emplace_back([engine, &overlap, &per_session, s,
                              batch_per_session] {
          per_session[s].reserve(batch_per_session);
          for (size_t i = 0; i < batch_per_session; ++i) {
            util::Stopwatch request_timer;
            auto result =
                engine->Answer(overlap[(s + i) % overlap.size()]);
            per_session[s].push_back(request_timer.ElapsedSeconds());
            if (!result.ok()) {
              std::fprintf(stderr, "batched serve error: %s\n",
                           result.status().ToString().c_str());
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
      run.wall = timer.ElapsedSeconds();
      for (std::vector<double>& lat : per_session) {
        run.latencies.insert(run.latencies.end(), lat.begin(), lat.end());
      }
      std::sort(run.latencies.begin(), run.latencies.end());
      return run;
    };
    const auto p99_of = [](const TimedRun& run) {
      if (run.latencies.empty()) return 0.0;
      const size_t idx = std::min(
          run.latencies.size() - 1,
          static_cast<size_t>(0.99 *
                              static_cast<double>(run.latencies.size())));
      return run.latencies[idx];
    };
    const auto qps_of = [batch_per_session](const TimedRun& run,
                                            size_t sessions) {
      const double total = static_cast<double>(sessions) *
                           static_cast<double>(batch_per_session);
      return run.wall > 0 ? total / run.wall : 0.0;
    };

    serve::ServeOptions unbatched = serve_options;
    unbatched.cache_bytes = 0;
    unbatched.queue_capacity = 128;  // 64 sessions all queue behind 4 slots
    unbatched.batch_max_queries = 1;  // every request executes alone
    serve::ServeOptions batched = unbatched;
    batched.batch_max_queries = 16;

    double qps_unbatched_64 = 0.0;
    {
      serve::ServeEngine engine(&model, unbatched);
      qps_unbatched_64 = qps_of(run_timed(&engine, 64), 64);
    }
    // The 8-session pair, each run recorded with its QPS and p99.
    const auto run_8 = [&](const serve::ServeOptions& options,
                           const char* name) {
      serve::ServeEngine engine(&model, options);
      const TimedRun run = run_timed(&engine, 8);
      BenchRecord record;
      record.name = name;
      record.params.emplace_back("bench_scale", std::to_string(BenchScale()));
      record.params.emplace_back("sessions", "8");
      record.wall_seconds = run.wall / (8.0 * batch_per_session);
      record.rows_per_sec = qps_of(run, 8);
      record.p99_seconds = p99_of(run);
      PrintRow({name, "8", Fmt(record.rows_per_sec, 1), "",
                Fmt(record.p99_seconds * 1e3, 3) + " ms", ""},
               {18, 10, 12, 8, 12, 8});
      const double p99 = record.p99_seconds;
      writer.Add(std::move(record));
      return p99;
    };
    PrintRow({"batching", "sessions", "QPS", "gain", "p99", "batch"},
             {18, 10, 12, 8, 12, 8});
    run_8(unbatched, "serve_unbatched/8");
    const double p99_batched_8 = run_8(batched, "serve_batch/8");
    {
      serve::ServeEngine engine(&model, batched);
      const TimedRun run = run_timed(&engine, 64);
      const double qps = qps_of(run, 64);
      const double p99 = p99_of(run);
      const serve::ServeEngine::Stats stats = engine.stats();
      const double mean_batch =
          stats.batches_formed > 0
              ? static_cast<double>(stats.batch_members) /
                    static_cast<double>(stats.batches_formed)
              : 0.0;
      const double gain =
          qps_unbatched_64 > 0 ? qps / qps_unbatched_64 : 0.0;
      // 8x the sessions at this much p99 growth (8x = linear).
      const double p99_growth =
          p99_batched_8 > 0 ? p99 / p99_batched_8 : 0.0;

      PrintRow({"serve_batch/64", "64", Fmt(qps, 1), Fmt(gain, 2) + "x",
                Fmt(p99 * 1e3, 3) + " ms", Fmt(mean_batch, 1)},
               {18, 10, 12, 8, 12, 8});

      BenchRecord record;
      record.name = "serve_batch/64";
      record.params.emplace_back("bench_scale", std::to_string(BenchScale()));
      record.params.emplace_back("sessions", "64");
      record.params.emplace_back("qps_gain_vs_unbatched", Fmt(gain, 2));
      record.params.emplace_back("qps_unbatched", Fmt(qps_unbatched_64, 1));
      record.params.emplace_back("batches_formed",
                                 std::to_string(stats.batches_formed));
      record.params.emplace_back("mean_batch_size", Fmt(mean_batch, 2));
      record.params.emplace_back("shared_scan_saved",
                                 std::to_string(stats.shared_scan_saved));
      record.params.emplace_back("queue_depth",
                                 std::to_string(stats.queue_depth));
      record.params.emplace_back("p99_growth_8_to_64", Fmt(p99_growth, 2));
      record.wall_seconds = run.wall / (64.0 * batch_per_session);
      record.rows_per_sec = qps;
      record.p99_seconds = p99;
      writer.Add(std::move(record));
    }
  }

  if (!writer.Flush()) return 1;
  return 0;
}
