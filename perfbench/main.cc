// asqp_perfbench: the repository benchmark (README.md in this directory).
//
//   asqp_perfbench --workload revisit-hot|drift-finetune --seed N
//                  --seconds S --trace 0|1
//
// Untraced (--trace 0): in each of two rounds, set up (train +
// ServeEngine), serve a seeded closed-loop SQL stream through
// ServeEngine::AnswerSql for S/2 seconds and re-check a seeded sample of
// the answers on a plain reference engine; then print the end-to-end
// metrics. Traced (--trace 1): replay the
// set-up and the same traffic with a span around each layer's public entry
// point and print the per-layer metrics. Either way the last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "metric/score.h"
#include "plan/stats.h"
#include "selftest.h"
#include "setup.h"
#include "sql/binder.h"
#include "sql/canonicalize.h"
#include "sql/parser.h"
#include "stats.h"
#include "storage/index.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using asqp::core::AnswerResult;
using asqp::core::AnswerTier;
using asqp::serve::ServeEngine;
using asqp::storage::DatabaseView;

/// Rounds per untraced run. Each round sets up, fine-tunes and serves a
/// window slice of --seconds / kRounds on its own model, so setup_s,
/// finetune_s and the window metrics each take samples from kRounds
/// points of the run: host speed drifts over tens of seconds, and a
/// single window or two fine-tunes back to back moved with it as a whole.
constexpr int kRounds = 2;
/// About one request in kSampleEvery is offered to the answer check; each
/// session keeps a uniform sample of kMaxSamplesPerSession of those.
constexpr uint64_t kSampleEvery = 64;
constexpr size_t kMaxSamplesPerSession = 256;
/// Each window slice is cut into this many equal parts. Each time metric
/// is the median over every slice's parts of that part's statistic, so a
/// burst of host slowness inside one part does not decide the run's
/// figure.
constexpr size_t kWindowParts = 5;
/// Latencies kept per session and part (a uniform reservoir beyond that).
constexpr size_t kLatencySamples = size_t{1} << 14;
/// Untimed requests per revisit-hot session before the window, so that it
/// measures the sessions past their start-up.
constexpr size_t kHotWarmupRequests = 20000;
/// revisit-hot: sessions and the Zipf exponent of query popularity.
constexpr size_t kHotSessions = 4;
constexpr double kHotZipf = 0.9;
/// A traced window stops after this many requests per session, which
/// bounds the spans kept in memory.
constexpr size_t kTracedRequestsPerSession = 6000;
/// drift-finetune serves its stream on after the window until the answer
/// cache has evicted this many entries (see FillCache), and fails the run
/// if that takes more than kMaxFillRequests.
constexpr uint64_t kFillEvictions = 1000;
constexpr size_t kMaxFillRequests = 500000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Failure {
  std::string sql;
  std::string what;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  size_t attempted = 0;
  std::vector<Failure> failures;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

// ---------------------------------------------------------------------------
// Build guard.

/// Empty when the binary may report; otherwise why it may not.
std::string BuildRefusal() {
#if !defined(__OPTIMIZE__)
  return "unoptimized build (__OPTIMIZE__ unset)";
#elif defined(__SANITIZE_ADDRESS__)
  return "AddressSanitizer build";
#elif defined(__SANITIZE_THREAD__) || defined(ASQP_SANITIZE_THREAD)
  return "ThreadSanitizer build";
#else
  return "";
#endif
}

// ---------------------------------------------------------------------------
// Serving loops.

struct Sample {
  std::string sql;
  AnswerResult answer;
  /// Index into the revisit-hot set, or -1.
  int hot = -1;
};

/// What one untraced session saw.
struct SessionLog {
  explicit SessionLog(uint64_t seed = 0)
      : samples(kMaxSamplesPerSession, Mix64(seed ^ 0x5a3bULL)) {
    for (size_t p = 0; p < kWindowParts; ++p) {
      latency_ms.emplace_back(kLatencySamples, Mix64(seed + p));
    }
  }
  /// One reservoir per window part; seen() counts the part's requests.
  std::vector<Reservoir<double>> latency_ms;
  /// The answers the check re-executes.
  Reservoir<Sample> samples;
  std::vector<Failure> failures;
  size_t attempted = 0;
  size_t approx = 0;
};

/// One request of a serving loop.
struct Request {
  size_t session = 0;
  /// Index of the request within its session.
  size_t n = 0;
  const std::string* sql = nullptr;
  /// Index into the revisit-hot set, or -1.
  int hot = -1;
  /// The window part the request started in.
  size_t part = 0;
};
using RequestFn = std::function<void(const Request&)>;

size_t PartOf(int64_t elapsed_ns, int64_t window_ns) {
  return std::min<size_t>(
      kWindowParts - 1,
      static_cast<size_t>(static_cast<double>(elapsed_ns) /
                          static_cast<double>(window_ns) * kWindowParts));
}

/// Whether request `n` of `session` is offered to the answer check.
bool Sampled(uint64_t seed, size_t session, size_t n) {
  return Mix64(seed ^ Mix64((session << 40) ^ n)) % kSampleEvery == 0;
}

/// Serve `sql` through AnswerSql, timing only the call. Non-OK statuses and
/// degraded-tier answers are failures; sampled answers are offered to the
/// session's sample for the check.
void Serve(ServeEngine* engine, const std::string& sql, bool sample, int hot,
           size_t part, SessionLog* log) {
  const int64_t start = NowNs();
  asqp::util::Result<AnswerResult> answer = engine->AnswerSql(sql);
  log->latency_ms[part].Add(static_cast<double>(NowNs() - start) / 1e6);
  ++log->attempted;
  if (!answer.ok()) {
    log->failures.push_back({sql, answer.status().ToString()});
    return;
  }
  if (answer->fell_back || answer->tier == AnswerTier::kLearned) {
    log->failures.push_back(
        {sql, std::string("degraded to tier ") +
                  asqp::core::AnswerTierName(answer->tier) + " (" +
                  answer->fallback_reason + ")"});
    return;
  }
  if (answer->used_approximation) ++log->approx;
  if (sample) log->samples.Add({sql, std::move(answer).value(), hot});
}

/// One closed-loop session over `next` (false = stream exhausted). Time
/// spent producing the next query is excluded from the window. Returns the
/// window's serving seconds.
double RunStream(const std::function<bool(std::string*)>& next,
                 double seconds, size_t max_requests, const RequestFn& fn) {
  const int64_t budget = static_cast<int64_t>(seconds * 1e9);
  int64_t paused = 0;
  const int64_t start = NowNs();
  std::string sql;
  for (size_t n = 0; n < max_requests; ++n) {
    const int64_t gen_start = NowNs();
    const bool more = next(&sql);
    const int64_t gen_end = NowNs();
    paused += gen_end - gen_start;
    const int64_t elapsed = gen_end - start - paused;
    if (!more || elapsed >= budget) break;
    fn(Request{0, n, &sql, -1, PartOf(elapsed, budget)});
  }
  return static_cast<double>(NowNs() - start - paused) / 1e9;
}

/// Zipf(kHotZipf) over `n` ranks by inverse CDF.
class ZipfTable {
 public:
  explicit ZipfTable(size_t n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kHotZipf);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(asqp::util::Rng* rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(),
                                     rng->UniformDouble());
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// kHotSessions closed-loop sessions, each drawing a Zipf-ranked hot query
/// and one of its spellings. Returns the window's wall seconds.
double RunHot(const std::vector<HotQuery>& hot, uint64_t seed, double seconds,
              size_t max_requests, const RequestFn& fn) {
  const ZipfTable zipf(hot.size());
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<size_t> finished{0};
  const int64_t window = static_cast<int64_t>(seconds * 1e9);
  int64_t start = 0;  // written before `go` is released
  std::vector<std::thread> sessions;
  for (size_t s = 0; s < kHotSessions; ++s) {
    sessions.emplace_back([&, s] {
      asqp::util::Rng rng(Mix64(seed ^ (0x5e55ULL + s)));
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t n = 0; n < max_requests &&
                         !stop.load(std::memory_order_relaxed);
           ++n) {
        const size_t q = zipf.Draw(&rng);
        const auto& spellings = hot[q].spellings;
        fn(Request{s, n, &spellings[rng.NextBounded(spellings.size())],
                   static_cast<int>(q), PartOf(NowNs() - start, window)});
      }
      finished.fetch_add(1);
    });
  }
  start = NowNs();
  go.store(true, std::memory_order_release);
  const int64_t deadline = start + window;
  // Poll coarsely: the sessions own every core.
  while (NowNs() < deadline && finished.load() < kHotSessions) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : sessions) t.join();
  return static_cast<double>(NowNs() - start) / 1e9;
}

// ---------------------------------------------------------------------------
// Answer check.

/// Re-execute each sample on the reference engine over the view that served
/// it (cache hits of a revisit-hot query are compared with that query's
/// first answer instead) and record every mismatch as a failure.
void CheckAnswers(const Served& served, const std::vector<Sample>& samples,
                  const std::vector<AnswerResult>* first_answers,
                  std::vector<Failure>* failures) {
  const asqp::exec::QueryEngine reference = ReferenceEngine();
  const asqp::storage::Database& db = *served.model->database();
  for (const Sample& s : samples) {
    std::string why;
    if (s.answer.from_cache && first_answers != nullptr && s.hot >= 0) {
      const AnswerResult& first = (*first_answers)[s.hot];
      if (first.used_approximation != s.answer.used_approximation ||
          !SameBytes(first.result, s.answer.result, &why)) {
        failures->push_back(
            {s.sql, "cache hit differs from its first answer: " + why});
      }
      continue;
    }
    auto bound = asqp::sql::ParseAndBind(s.sql, db);
    if (!bound.ok()) {
      failures->push_back({s.sql, "reference bind: " + bound.status().ToString()});
      continue;
    }
    const DatabaseView view =
        s.answer.used_approximation
            ? DatabaseView(&db, &served.model->approximation_set())
            : DatabaseView(&db);
    auto want = reference.Execute(bound.value(), view);
    if (!want.ok()) {
      failures->push_back({s.sql, "reference: " + want.status().ToString()});
    } else if (!SameBytes(want.value(), s.answer.result, &why)) {
      failures->push_back({s.sql, "answer differs from the reference: " + why});
    }
  }
}

// ---------------------------------------------------------------------------
// Tracing.

/// What one traced session recorded.
struct TraceSession {
  explicit TraceSession(uint32_t thread) : log(thread) {}
  SpanLog log;
  std::vector<double> rows_out;
  std::vector<double> residual_us;
  std::vector<Failure> mismatches;
  size_t served = 0;
  size_t approx = 0;
  size_t planned_tables = 0;
  size_t index_tables = 0;
};

/// Everything a traced request needs besides its session.
struct TraceTarget {
  Served* served = nullptr;
  /// Mirrors the model's engine: same planner statistics, index catalog
  /// and execution pool.
  const asqp::exec::QueryEngine* engine = nullptr;
};

asqp::exec::QueryEngine MirrorEngine(
    Served* served, std::shared_ptr<const asqp::plan::StatsCatalog> stats) {
  const asqp::core::AsqpConfig& config = served->model->config();
  asqp::exec::ExecOptions options;
  options.num_threads = config.exec_threads;
  if (config.exec_morsel_rows > 0) options.morsel_rows = config.exec_morsel_rows;
  options.enable_planner = config.planner;
  options.planner_stats = std::move(stats);
  options.index_catalog = served->model->index_catalog();
  // The engine owns its pool and outlives this mirror.
  options.shared_pool = std::shared_ptr<asqp::util::ThreadPool>(
      served->engine->pool(), [](asqp::util::ThreadPool*) {});
  return asqp::exec::QueryEngine(options);
}

/// A replica of AnswerSql from the layers' public steps, timed one span
/// per step. Its front half (parse, bind, fingerprint, cache lookup) runs
/// before the served call so the lookup sees the cache as the served call
/// will; on a miss its back half (answerability, planning, execution over
/// the view the estimator chose) runs after it, so the served call never
/// finds the data warmed by the replica.
class Replica {
 public:
  Replica(const TraceTarget& target, TraceSession* ts, uint64_t parent,
          uint64_t request)
      : target_(target), ts_(ts), parent_(parent), request_(request) {}

  /// Parse, bind, fingerprint, cache lookup. False when the SQL does not
  /// parse or bind (the served call must then fail too).
  bool Front(const std::string& sql) {
    const asqp::storage::Database& db = *target_.served->model->database();
    auto stmt = Step("sql.parse", [&] { return asqp::sql::Parse(sql); });
    if (!stmt.ok()) return false;
    stmt_ = std::move(stmt).value();
    auto bound = Step("sql.bind", [&] { return asqp::sql::Bind(stmt_, db); });
    if (!bound.ok()) return false;
    bound_ = std::move(bound).value();
    const asqp::sql::QueryFingerprint fp = Step(
        "sql.canonicalize", [&] { return asqp::sql::FingerprintQuery(bound_.stmt); });
    hit_ = Step("serve.cache_lookup", [&] {
      return target_.served->engine->mutable_cache().Lookup(
          fp, target_.served->model->generation());
    });
    return true;
  }

  /// The replica's answer: the cached one on a hit, else answerability,
  /// planning and execution.
  std::optional<AnswerResult> Answer() {
    if (hit_ != nullptr) {
      AnswerResult cached = *hit_;
      cached.from_cache = true;
      return cached;
    }
    const asqp::core::AsqpModel& model = *target_.served->model;
    const asqp::storage::Database& db = *model.database();
    const double answerability = Step("core.answerability", [&] {
      return model.EstimateAnswerability(stmt_);
    });
    const bool approx = answerability >= model.config().answerable_threshold;
    const DatabaseView view =
        approx ? DatabaseView(&db, &model.approximation_set())
               : DatabaseView(&db);
    const asqp::sql::BoundQuery planned = Step(
        "plan.plan", [&] { return target_.engine->PlanForView(bound_, view); });
    if (approx) {
      ts_->planned_tables += planned.access_paths.size();
      for (const auto& path : planned.access_paths) {
        if (path.kind == asqp::sql::AccessPath::Kind::kIndexRange) {
          ++ts_->index_tables;
        }
      }
    }
    auto rows = Step(approx ? "exec.approx" : "exec.fulldb", [&] {
      return target_.engine->ExecutePlanned(planned, view, {});
    });
    if (!rows.ok()) return std::nullopt;
    AnswerResult out;
    out.result = std::move(rows).value();
    out.used_approximation = approx;
    return out;
  }

  /// Summed duration of every step so far.
  int64_t steps_ns() const { return steps_ns_; }

 private:
  template <typename Fn>
  auto Step(const char* name, Fn&& fn) -> decltype(fn()) {
    const uint64_t id = ts_->log.Begin(name, parent_, request_);
    auto out = fn();
    steps_ns_ += ts_->log.End(id);
    return out;
  }

  const TraceTarget& target_;
  TraceSession* ts_;
  uint64_t parent_;
  uint64_t request_;
  asqp::sql::SelectStatement stmt_;
  asqp::sql::BoundQuery bound_;
  std::shared_ptr<const AnswerResult> hit_;
  int64_t steps_ns_ = 0;
};

/// One traced request: a `request` root span holding the real call
/// (`serve.answer`) and the replica's steps around it. The replica's rows
/// and routing must equal the served answer's.
void TracedRequest(const TraceTarget& target, uint64_t request,
                   const std::string& sql, TraceSession* ts) {
  SpanLog& log = ts->log;
  const ScopedSpan root(&log, "request", 0, request);
  Replica replica(target, ts, root.id(), request);
  const bool parsed = replica.Front(sql);

  const uint64_t id = log.Begin("serve.answer", root.id(), request);
  asqp::util::Result<AnswerResult> answer =
      target.served->engine->AnswerSql(sql);
  const int64_t answer_ns = log.End(id);

  const std::optional<AnswerResult> expected =
      parsed ? replica.Answer() : std::nullopt;
  // Admission, locks, drift bookkeeping, cache insert and the result copy:
  // what the served call spends outside the steps the replica times.
  ts->residual_us.push_back(
      static_cast<double>(answer_ns - replica.steps_ns()) / 1e3);
  ++ts->served;

  std::string why;
  if (!answer.ok()) {
    ts->mismatches.push_back({sql, "served: " + answer.status().ToString()});
  } else if (!expected) {
    ts->mismatches.push_back({sql, "the replica produced no answer"});
  } else if (answer->used_approximation != expected->used_approximation) {
    ts->mismatches.push_back({sql, "replica routed to the other view"});
  } else if (!SameBytes(expected->result, answer->result, &why)) {
    ts->mismatches.push_back(
        {sql, "replica differs from the served answer: " + why});
  } else {
    ts->rows_out.push_back(static_cast<double>(answer->result.num_rows()));
    if (answer->used_approximation) ++ts->approx;
  }
}

// ---------------------------------------------------------------------------
// Reporting helpers.

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// p50 and p99 (only when supported) of a sorted sample, logged with their
/// counts.
void LogDistribution(const char* name, const std::vector<double>& sorted,
                     const char* unit) {
  std::printf("  %-24s calls=%zu", name, sorted.size());
  if (auto p = PercentileOf(sorted, 50.0)) {
    std::printf("  %s", Describe(*p, unit).c_str());
  }
  if (auto tail = HighestSupportedTail(sorted); tail && tail->pct > 50.0) {
    std::printf("  %s", Describe(*tail, unit).c_str());
  }
  std::printf("\n");
}

/// Latencies of window part `part` (every part when `part` is
/// kWindowParts), all sessions, sorted.
std::vector<double> SortedLatencies(const std::vector<SessionLog>& sessions,
                                    size_t part) {
  std::vector<double> all;
  for (const SessionLog& s : sessions) {
    for (size_t p = 0; p < kWindowParts; ++p) {
      if (part != kWindowParts && p != part) continue;
      all.insert(all.end(), s.latency_ms[p].items().begin(),
                 s.latency_ms[p].items().end());
    }
  }
  return Sorted(std::move(all));
}

/// One untraced window slice: its sessions' latencies and its seconds.
struct Slice {
  std::vector<SessionLog> sessions;
  double seconds = 0.0;
};

/// Add p50_ms, p99_ms and qps: each the median over every slice's parts of
/// that part's p50, p99 (which every part must support) and request rate.
bool AddWindowMetrics(Report* report, const std::vector<Slice>& slices) {
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> rates;
  std::vector<double> all;
  for (size_t i = 0; i < slices.size(); ++i) {
    const std::vector<SessionLog>& sessions = slices[i].sessions;
    for (size_t part = 0; part < kWindowParts; ++part) {
      const std::vector<double> sorted = SortedLatencies(sessions, part);
      size_t requests = 0;
      for (const SessionLog& s : sessions) {
        requests += s.latency_ms[part].seen();
      }
      const auto p50 = PercentileOf(sorted, 50.0);
      const auto p99 = SupportedTail(sorted, 99.0);
      if (!p50 || !p99) {
        std::fprintf(stderr,
                     "perfbench: window slice %zu part %zu has %zu latency "
                     "samples, too few for a p99 with %zu beyond it; "
                     "refusing to report\n",
                     i, part, sorted.size(), kMinTailSamples);
        return false;
      }
      const double rate = static_cast<double>(requests) /
                          (slices[i].seconds / kWindowParts);
      std::printf("window slice %zu part %zu: %zu requests (%.6g/s), %zu "
                  "sampled, %s, %s\n",
                  i, part, requests, rate, sorted.size(),
                  Describe(*p50, "ms").c_str(), Describe(*p99, "ms").c_str());
      p50s.push_back(p50->value);
      p99s.push_back(p99->value);
      rates.push_back(rate);
    }
    const std::vector<double> slice = SortedLatencies(sessions, kWindowParts);
    all.insert(all.end(), slice.begin(), slice.end());
  }
  if (auto top = HighestSupportedTail(Sorted(std::move(all)))) {
    std::printf("window: highest supported tail %s\n",
                Describe(*top, "ms").c_str());
  }
  report->Add("p50_ms", Median(p50s), "ms");
  report->Add("p99_ms", Median(p99s), "ms");
  report->Add("qps", Median(rates), "1/s");
  return true;
}

// ---------------------------------------------------------------------------
// Workloads.

/// The inputs every workload sets up from.
struct Inputs {
  asqp::data::DatasetBundle bundle;
  asqp::metric::Workload train;
  asqp::metric::Workload held_out;
  /// drift-finetune only.
  std::vector<std::string> drift_arrivals;
  asqp::metric::Workload drift_tune;
};

Inputs MakeInputs(const Args& args) {
  Inputs in;
  if (args.workload == "drift-finetune") {
    MasInputs mas = MakeMasInputs();
    in.bundle = std::move(mas.bundle);
    in.train = std::move(mas.train);
    in.held_out = std::move(mas.held_out);
    in.drift_arrivals = std::move(mas.drift_arrivals);
    in.drift_tune = std::move(mas.drift_tune);
  } else {
    ImdbInputs imdb = MakeImdbInputs();
    in.bundle = std::move(imdb.bundle);
    in.train = std::move(imdb.train);
    in.held_out = std::move(imdb.held_out);
  }
  return in;
}

/// Drift arrivals: the Fig. 7 `ml` session reaches the engine, and each
/// answer is checked before the fine-tune replaces the set it came from.
void SendDriftArrivals(const Inputs& in, Served* served, Report* report) {
  SessionLog log;
  for (const std::string& sql : in.drift_arrivals) {
    Serve(served->engine.get(), sql, /*sample=*/true, -1, 0, &log);
  }
  CheckAnswers(*served, log.samples.items(), nullptr, &log.failures);
  report->attempted += log.attempted;
  for (Failure& f : log.failures) report->failures.push_back(std::move(f));
  std::printf("drift: %zu ml queries, %zu from the approximation set, "
              "%zu drifted, trigger %s\n",
              log.attempted, log.approx, served->model->drifted_query_count(),
              served->model->NeedsFineTuning() ? "fired" : "not fired");
}

/// Serve every revisit-hot query once (outside any window) and keep its
/// first answer; the window's cache hits are compared with these.
static_assert(kHotSetSize <= kMaxSamplesPerSession,
              "every first answer is kept");
std::vector<AnswerResult> WarmHotSet(const std::vector<HotQuery>& hot,
                                     Served* served, Report* report,
                                     const RequestFn* traced) {
  std::vector<AnswerResult> first(hot.size());
  SessionLog log;
  for (size_t i = 0; i < hot.size(); ++i) {
    const std::string& sql = hot[i].spellings[0];
    if (traced != nullptr) (*traced)(Request{0, i, &sql, static_cast<int>(i)});
    Serve(served->engine.get(), sql, /*sample=*/true, -1, 0, &log);
    const std::vector<Sample>& kept = log.samples.items();
    if (kept.size() == i + 1) first[i] = kept.back().answer;
  }
  CheckAnswers(*served, log.samples.items(), nullptr, &log.failures);
  // The remaining spellings become hits of the first answers.
  for (const HotQuery& q : hot) {
    for (size_t v = 1; v < q.spellings.size(); ++v) {
      Serve(served->engine.get(), q.spellings[v], false, -1, 0, &log);
    }
  }
  report->attempted += log.attempted;
  for (Failure& f : log.failures) report->failures.push_back(std::move(f));
  return first;
}

/// The untraced traffic window of `args.workload` on `served`: each
/// session's latencies; the kept samples, failures and attempts of every
/// session, warm-up included; the window's seconds; drift-finetune's
/// stream, to serve on after the window; and (with `record_stream`) the
/// queries that stream sent in the window, in order, for replay.
struct WindowResult {
  std::vector<SessionLog> sessions;
  std::vector<Sample> samples;
  std::vector<Failure> failures;
  size_t attempted = 0;
  double seconds = 0.0;
  std::optional<MlStream> ml;
  std::vector<std::string> stream;
};

/// Move a session's kept samples and failures into `w` and add up its
/// attempts (latencies stay with the session).
void MergeSession(SessionLog* s, WindowResult* w) {
  for (Sample& sample : s->samples.items()) {
    w->samples.push_back(std::move(sample));
  }
  for (Failure& f : s->failures) w->failures.push_back(std::move(f));
  w->attempted += s->attempted;
}

/// A window of `seconds` (see WindowResult).
WindowResult RunWindow(const Args& args, Served* served,
                       const std::vector<HotQuery>& hot, double seconds,
                       bool record_stream) {
  WindowResult w;
  std::vector<SessionLog>& sessions = w.sessions;
  if (args.workload == "revisit-hot") {
    std::vector<SessionLog> warmup(kHotSessions);
    RunHot(hot, Mix64(args.seed), /*seconds=*/120.0, kHotWarmupRequests,
           [&](const Request& r) {
             Serve(served->engine.get(), *r.sql, false, r.hot, 0,
                   &warmup[r.session]);
           });
    for (SessionLog& s : warmup) MergeSession(&s, &w);
    for (size_t s = 0; s < kHotSessions; ++s) {
      sessions.emplace_back(Mix64(args.seed ^ (0x1a7eULL + s)));
    }
    w.seconds = RunHot(hot, args.seed, seconds, SIZE_MAX,
                       [&](const Request& r) {
                         Serve(served->engine.get(), *r.sql,
                               Sampled(args.seed, r.session, r.n), r.hot,
                               r.part, &sessions[r.session]);
                       });
    for (SessionLog& s : sessions) MergeSession(&s, &w);
    return w;
  }
  // drift-finetune: one session on a never-repeating `ml` stream.
  w.ml.emplace(args.seed);
  sessions.emplace_back(Mix64(args.seed ^ 0x1a7eULL));
  w.seconds = RunStream(
      [&](std::string* sql) {
        *sql = w.ml->Next();
        if (record_stream) w.stream.push_back(*sql);
        return true;
      },
      seconds, SIZE_MAX,
      [&](const Request& r) {
        Serve(served->engine.get(), *r.sql, Sampled(args.seed, 0, r.n), -1,
              r.part, &sessions[0]);
      });
  // The last generated query was never served.
  if (record_stream) w.stream.resize(sessions[0].attempted);
  MergeSession(&sessions[0], &w);
  return w;
}

/// drift-finetune's answers fill the answer cache at the rate the window
/// serves its never-repeating stream, so the memory a run ends with would
/// follow its speed. Serve the stream on, untimed, until the cache has
/// evicted kFillEvictions entries: peak_rss_mb then reads the process
/// with its cache at the byte budget, however fast the window ran.
bool FillCache(Served* served, WindowResult* w) {
  const asqp::serve::AnswerCache& cache = served->engine->cache();
  SessionLog log;
  while (cache.stats().evictions < kFillEvictions) {
    if (log.attempted == kMaxFillRequests) {
      std::fprintf(stderr,
                   "perfbench: the answer cache evicted %llu entries in %zu "
                   "requests after the window, fewer than %llu\n",
                   static_cast<unsigned long long>(cache.stats().evictions),
                   log.attempted,
                   static_cast<unsigned long long>(kFillEvictions));
      return false;
    }
    Serve(served->engine.get(), w->ml->Next(), false, -1, 0, &log);
  }
  const asqp::serve::AnswerCache::Stats stats = cache.stats();
  std::printf("cache fill: %zu untimed requests after the window; %zu of "
              "%zu bytes cached, %llu evictions\n",
              log.attempted, stats.bytes, cache.byte_budget(),
              static_cast<unsigned long long>(stats.evictions));
  MergeSession(&log, w);
  return true;
}

double Score(const Inputs& in, const Served& served, int frame_size) {
  asqp::metric::ScoreEvaluator evaluator(
      in.bundle.db.get(), asqp::metric::ScoreOptions{.frame_size = frame_size});
  return evaluator.Score(in.held_out, served.model->approximation_set())
      .ValueOr(-1.0);
}

/// Untraced run: the end-to-end metrics, from kRounds rounds. A round sets
/// up, serves its window slice and has its answers checked; its model
/// serves nothing after that. drift-finetune fine-tunes each round's model
/// after the drift arrivals, before its slice. revisit-hot fine-tunes each
/// round's model after its slice, with the held-out queries as the new
/// interest, so every slice is served by the model as trained.
bool RunUntraced(const Args& args, Report* report) {
  const Inputs in = MakeInputs(args);
  const asqp::core::AsqpConfig config = BenchConfig();
  const bool drift = args.workload == "drift-finetune";
  std::printf("inputs: %zu training, %zu held-out queries\n", in.train.size(),
              in.held_out.size());
  const std::vector<HotQuery> hot =
      drift ? std::vector<HotQuery>{} : MakeHotSet(in.bundle, kHotSetSize);

  std::vector<double> setup_s;
  std::vector<double> finetune_s;
  const auto fine_tune = [&](Served* s, const asqp::metric::Workload& queries) {
    const int64_t start = NowNs();
    const asqp::util::Status tuned = s->engine->FineTune(queries);
    finetune_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!tuned.ok()) {
      std::fprintf(stderr, "perfbench: fine-tune failed: %s\n",
                   tuned.ToString().c_str());
      return false;
    }
    std::printf("finetune %zu: %.6f s\n", finetune_s.size() - 1,
                finetune_s.back());
    return true;
  };
  std::vector<Slice> slices;
  double score = 0.0;
  for (int r = 0; r < kRounds; ++r) {
#ifdef __GLIBC__
    // The previous round's model, engine and sessions are gone. Return
    // their free pages, as a process of its own would start without them:
    // kept, they made peak_rss_mb follow how the allocator happened to
    // reuse them (56.7-61.2 MB over five revisit-hot runs).
    if (r > 0) malloc_trim(0);
#endif
    auto s = TrainAndServe(*in.bundle.db, in.train, config);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   s.status().ToString().c_str());
      return false;
    }
    Served served = std::move(s).value();
    setup_s.push_back(served.setup_seconds);
    std::printf("setup %d: %.6f s\n", r, served.setup_seconds);
    std::vector<AnswerResult> first_answers;
    if (drift) {
      SendDriftArrivals(in, &served, report);
      if (!fine_tune(&served, in.drift_tune)) return false;
    } else {
      first_answers = WarmHotSet(hot, &served, report, nullptr);
    }

    const asqp::serve::ServeEngine::Stats before = served.engine->stats();
    WindowResult w = RunWindow(args, &served, hot, args.seconds / kRounds,
                               /*record_stream=*/false);
    const asqp::serve::ServeEngine::Stats after = served.engine->stats();
    size_t requests = 0;
    size_t approx = 0;
    for (const SessionLog& log : w.sessions) {
      requests += log.attempted;
      approx += log.approx;
    }
    std::printf(
        "window slice %d: %.3f s, %zu requests, %zu sampled for the check, "
        "approx share %.4f; cache hit ratio %.4f with the warm-up; drifted "
        "%zu\n",
        r, w.seconds, requests, w.samples.size(),
        requests > 0 ? static_cast<double>(approx) / requests : 0.0,
        after.served > before.served
            ? static_cast<double>(after.cache_hits - before.cache_hits) /
                  static_cast<double>(after.served - before.served)
            : 0.0,
        served.model->drifted_query_count());
    const bool last = r + 1 == kRounds;
    if (drift && last && !FillCache(&served, &w)) return false;
    CheckAnswers(served, w.samples,
                 first_answers.empty() ? nullptr : &first_answers,
                 &w.failures);
    report->attempted += w.attempted;
    for (Failure& f : w.failures) report->failures.push_back(std::move(f));
    if (last) {
      score = Score(in, served, config.frame_size);
      std::printf("score: %.17g\n", score);
    }
    if (!drift && !fine_tune(&served, in.held_out)) return false;
    slices.push_back(Slice{std::move(w.sessions), w.seconds});
  }

  report->Add("setup_s", Median(setup_s), "s");
  report->Add("score", score, "ratio");
  if (!AddWindowMetrics(report, slices)) return false;
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->Add("finetune_s", Median(finetune_s), "s");
  return true;
}

/// The values recorded under `name`, or none.
const std::vector<double>& ValuesOf(
    const std::map<std::string, std::vector<double>>& by_name,
    const std::string& name) {
  static const std::vector<double> kNone;
  const auto it = by_name.find(name);
  return it == by_name.end() ? kNone : it->second;
}

/// Log a sorted distribution and add `<metric>.p50`, and `<metric>.p99`
/// when `with_p99`. An empty sample or an unsupported tail reads 0.
void AddDistribution(Report* report, const std::string& metric,
                     const char* unit, const std::vector<double>& sorted,
                     bool with_p99) {
  LogDistribution(metric.c_str(), sorted, unit);
  const auto p50 = PercentileOf(sorted, 50.0);
  report->Add(metric + ".p50", p50 ? p50->value : 0.0, unit);
  if (with_p99) {
    const auto p99 = SupportedTail(sorted, 99.0);
    report->Add(metric + ".p99", p99 ? p99->value : 0.0, unit);
  }
}

/// An online span's metrics: `<name>_us.p50`, `<name>_us.p99` and
/// `<name>.calls`.
void AddOnline(Report* report, const std::string& name,
               const std::vector<double>& sorted_us) {
  AddDistribution(report, name + "_us", "us", sorted_us, /*with_p99=*/true);
  report->Add(name + ".calls", static_cast<double>(sorted_us.size()),
              "count");
}

double Ratio(size_t part, size_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

/// Traced run: the per-layer metrics.
bool RunTraced(const Args& args, Report* report) {
  const Inputs in = MakeInputs(args);
  const asqp::core::AsqpConfig config = BenchConfig();
  const bool drift = args.workload == "drift-finetune";
  SpanLog setup_log(0);

  // The real set-up, one opaque span, then its replica from public steps.
  uint64_t span = setup_log.Begin("setup.train", 0, 0);
  auto s = TrainAndServe(*in.bundle.db, in.train, config);
  setup_log.End(span);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 s.status().ToString().c_str());
    return false;
  }
  Served served = std::move(s).value();
  auto replica = ReplicateTrain(*in.bundle.db, in.train, config, &setup_log);
  if (!replica.ok()) {
    std::fprintf(stderr, "perfbench: replica set-up failed: %s\n",
                 replica.status().ToString().c_str());
    return false;
  }
  const bool same_set =
      replica->set.rows() == served.model->approximation_set().rows();
  if (!same_set) {
    report->failures.push_back(
        {"(set-up)", "the replica's approximation set differs from Train's"});
  }
  std::printf("replica set-up: %zu tuples, %s Train's set\n",
              replica->set.TotalTuples(), same_set ? "equals" : "DIFFERS FROM");
  if (drift) {
    SendDriftArrivals(in, &served, report);
    span = setup_log.Begin("core.finetune", 0, 0);
    const asqp::util::Status tuned = served.engine->FineTune(in.drift_tune);
    setup_log.End(span);
    if (!tuned.ok()) {
      std::fprintf(stderr, "perfbench: fine-tune failed: %s\n",
                   tuned.ToString().c_str());
      return false;
    }
  }

  // Mirror of the model's engine, built after any fine-tune so it carries
  // the current index catalog.
  const asqp::exec::QueryEngine mirror = MirrorEngine(
      &served, std::make_shared<const asqp::plan::StatsCatalog>(
                   asqp::plan::StatsCatalog::Collect(*in.bundle.db)));
  const TraceTarget target{&served, &mirror};
  const size_t sessions = args.workload == "revisit-hot" ? kHotSessions : 1;
  std::vector<TraceSession> traced;
  for (size_t i = 0; i < sessions; ++i) {
    traced.emplace_back(static_cast<uint32_t>(i + 1));
  }
  std::atomic<uint64_t> next_request{1};
  const RequestFn traced_fn = [&](const Request& r) {
    TracedRequest(target, next_request.fetch_add(1), *r.sql,
                  &traced[r.session]);
  };

  std::vector<HotQuery> hot;
  std::vector<AnswerResult> first_answers;
  if (args.workload == "revisit-hot") {
    hot = MakeHotSet(in.bundle, kHotSetSize);
    // The warm-up's misses are the only executions revisit-hot has, so
    // they are traced too.
    first_answers = WarmHotSet(hot, &served, report, &traced_fn);
  }

  // Untraced window first (the overhead baseline), then the traced
  // window over the same traffic.
  WindowResult w =
      RunWindow(args, &served, hot, args.seconds, /*record_stream=*/true);
  CheckAnswers(served, w.samples,
               first_answers.empty() ? nullptr : &first_answers, &w.failures);
  report->attempted += w.attempted;
  for (Failure& f : w.failures) report->failures.push_back(std::move(f));
  const std::vector<double> untraced =
      SortedLatencies(w.sessions, kWindowParts);

  const asqp::serve::ServeEngine::Stats before = served.engine->stats();
  const asqp::serve::AnswerCache::Stats cache_before =
      served.engine->cache().stats();
  double traced_seconds = 0.0;
  if (args.workload == "revisit-hot") {
    traced_seconds = RunHot(hot, args.seed, args.seconds,
                            kTracedRequestsPerSession, traced_fn);
  } else {
    // Replay the untraced window's stream on an empty cache, as after the
    // fine-tune.
    served.engine->mutable_cache().Clear();
    size_t pos = 0;
    traced_seconds = RunStream(
        [&](std::string* sql) {
          if (pos == w.stream.size()) return false;
          *sql = w.stream[pos++];
          return true;
        },
        args.seconds, kTracedRequestsPerSession, traced_fn);
  }
  const asqp::serve::ServeEngine::Stats after = served.engine->stats();
  const asqp::serve::AnswerCache::Stats cache_after =
      served.engine->cache().stats();

  // Merge and report.
  std::vector<Span> spans = setup_log.spans();
  std::vector<double> rows_out;
  std::vector<double> residual_us;
  size_t served_n = 0;
  size_t approx_n = 0;
  size_t planned_tables = 0;
  size_t index_tables = 0;
  for (TraceSession& t : traced) {
    spans.insert(spans.end(), t.log.spans().begin(), t.log.spans().end());
    rows_out.insert(rows_out.end(), t.rows_out.begin(), t.rows_out.end());
    residual_us.insert(residual_us.end(), t.residual_us.begin(),
                       t.residual_us.end());
    served_n += t.served;
    approx_n += t.approx;
    planned_tables += t.planned_tables;
    index_tables += t.index_tables;
    report->attempted += t.served;
    for (Failure& f : t.mismatches) report->failures.push_back(std::move(f));
  }
  const auto us = DurationsByName(spans, 1e3);
  const auto secs = DurationsByName(spans, 1e9);

  std::printf("traced window: %.3f s, %zu requests\n", traced_seconds,
              served_n);
  std::printf("per-layer (online, microseconds):\n");
  for (const char* name :
       {"sql.parse", "sql.bind", "sql.canonicalize", "serve.cache_lookup"}) {
    AddOnline(report, name, ValuesOf(us, name));
  }
  report->Add("serve.cache_hit_ratio",
              Ratio(after.cache_hits - before.cache_hits,
                    after.served - before.served),
              "ratio");
  report->Add("serve.cache_evictions",
              static_cast<double>(cache_after.evictions - cache_before.evictions),
              "count");
  AddOnline(report, "serve.residual", Sorted(residual_us));
  AddOnline(report, "core.answerability", ValuesOf(us, "core.answerability"));
  report->Add("core.approx_ratio", Ratio(approx_n, served_n), "ratio");
  report->Add("core.drifted_queries",
              static_cast<double>(served.model->drifted_query_count()),
              "count");
  AddOnline(report, "plan.plan", ValuesOf(us, "plan.plan"));
  report->Add("plan.index_scan_ratio", Ratio(index_tables, planned_tables),
              "ratio");
  AddOnline(report, "exec.approx", ValuesOf(us, "exec.approx"));
  AddOnline(report, "exec.fulldb", ValuesOf(us, "exec.fulldb"));
  AddDistribution(report, "exec.rows_out", "rows", Sorted(rows_out),
                  /*with_p99=*/true);

  // The replica set-up runs once, so each of its spans is one sample: its
  // median is its value, and it has no tail.
  std::printf("per-layer (set-up replica, seconds):\n");
  const auto add_setup = [&](const char* name) {
    AddDistribution(report, std::string(name) + "_s", "s", ValuesOf(secs, name),
                    /*with_p99=*/false);
  };
  add_setup("core.preprocess");
  add_setup("rl.train");
  report->Add("rl.episodes", static_cast<double>(replica->episodes), "count");
  report->Add("rl.divergence_rollbacks",
              static_cast<double>(replica->divergence_rollbacks), "count");
  for (const char* name : {"plan.stats", "core.materialize", "aqp.fit",
                           "storage.index_build", "metric.calibrate"}) {
    add_setup(name);
  }
  LogDistribution("setup.train", ValuesOf(secs, "setup.train"), "s");
  if (drift) LogDistribution("core.finetune", ValuesOf(secs, "core.finetune"), "s");

  // Tracing overhead: the served call's median with spans around it versus
  // the same traffic untraced in this process.
  const auto untraced_p50 = PercentileOf(untraced, 50.0);
  const auto traced_p50 =
      PercentileOf(ValuesOf(DurationsByName(spans, 1e6), "serve.answer"), 50.0);
  const double u = untraced_p50 ? untraced_p50->value : 0.0;
  const double t = traced_p50 ? traced_p50->value : 0.0;
  std::printf("tracing overhead: serve.answer p50 %.6f ms traced vs %.6f ms "
              "untraced (%+.6f ms)\n",
              t, u, t - u);
  report->Add("trace.untraced_p50_ms", u, "ms");
  report->Add("trace.answer_p50_ms", t, "ms");
  report->Add("trace.overhead_ms", t - u, "ms");

  const std::string path = ".bench_build/perfbench/spans/" + args.workload +
                           "-seed" + std::to_string(args.seed) +
                           ".trace.json";
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  if (!WriteChromeTrace(path, spans)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
    return false;
  }
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
  return true;
}

// ---------------------------------------------------------------------------
// Entry point.

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return args->workload == "revisit-hot" || args->workload == "drift-finetune";
}

void PrintJson(const Report& report, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", report.attempted,
              report.failures.size());
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: asqp_perfbench --workload revisit-hot|drift-finetune "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const std::string refusal = BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report from an %s\n",
                 refusal.c_str());
    return 3;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("build: type=%s compiler=\"%s\" nproc=%u\n",
              PERFBENCH_BUILD_TYPE, __VERSION__,
              std::thread::hardware_concurrency());
  if (RunSelfTests() != 0) return 4;
  std::printf("self-tests: passed\n");

  Report report;
  const bool ok =
      args.trace ? RunTraced(args, &report) : RunUntraced(args, &report);
  if (!ok) return 1;
  for (const Failure& f : report.failures) {
    std::printf("FAILED: %s\n  query: %s\n", f.what.c_str(), f.sql.c_str());
  }
  std::printf("failed_ratio: %.6g (%zu of %zu)\n",
              report.attempted > 0
                  ? static_cast<double>(report.failures.size()) /
                        static_cast<double>(report.attempted)
                  : 0.0,
              report.failures.size(), report.attempted);
  PrintJson(report, report.failures.empty());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
