// Concurrent serving stress, designed to run under -DASQP_SANITIZE=thread:
// >= 8 mediator sessions hammer one ServeEngine (mixed repeat queries,
// equivalent spellings, out-of-distribution drift recorders) while a
// monitor asserts the process-wide execution-thread cap is never
// exceeded, more synchronous sessions than slots split between inline
// and executor-thread runs, and a FineTune races in-flight Answers,
// memoized texts and one hot answer's shared rows under eviction included,
// while readers keep answering from the published generation. Iteration
// counts scale down under
// TSan (ASQP_SANITIZE_THREAD) to keep the suite fast despite the
// sanitizer's slowdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "data/dataset.h"
#include "serve/answer_cache.h"
#include "serve/serve_engine.h"
#include "tests/testing.h"
#include "util/fault_injector.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace asqp {
namespace serve {
namespace {

#ifdef ASQP_SANITIZE_THREAD
constexpr int kPerSessionQueries = 8;
#else
constexpr int kPerSessionQueries = 30;
#endif

constexpr size_t kSessions = 8;

class ServeStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetOptions opts;
    opts.scale = 0.05;
    opts.workload_size = 16;
    opts.seed = 7;
    // Suite fixture: paired with delete in TearDownTestSuite.
    bundle_ = new data::DatasetBundle(data::MakeImdbJob(opts));  // NOLINT(asqp-naked-new)

    core::AsqpConfig config;
    config.k = 300;
    config.frame_size = 25;
    config.num_representatives = 10;
    config.pool_target = 400;
    config.trainer.iterations = 6;
    config.trainer.episodes_per_iteration = 4;
    config.trainer.num_workers = 1;
    config.trainer.learning_rate = 2e-3;
    config.trainer.hidden_dim = 64;
    config.seed = 3;
    // One-row morsels, so the served queries' operators over more than
    // one row take their parallel branches on the engine's pool (one
    // morsel runs inline).
    config.exec_morsel_rows = 1;
    core::AsqpTrainer trainer(config);
    auto report = trainer.Train(*bundle_->db, bundle_->workload);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    model_ = std::move(report.value().model);
  }
  static void TearDownTestSuite() {
    model_.reset();
    delete bundle_;  // NOLINT(asqp-naked-new)
    bundle_ = nullptr;
  }

  static data::DatasetBundle* bundle_;
  static std::unique_ptr<core::AsqpModel> model_;
};

data::DatasetBundle* ServeStressTest::bundle_ = nullptr;
std::unique_ptr<core::AsqpModel> ServeStressTest::model_ = nullptr;

/// The session query mix: [i][0] is the canonical spelling, further
/// entries are equivalent respellings that must hit the same cache entry.
/// The person-table queries are out-of-distribution, so every execution
/// also exercises the model's concurrent drift recording.
const std::vector<std::vector<std::string>>& QueryMix() {
  static const std::vector<std::vector<std::string>> mix = {
      {"SELECT t.name FROM title t WHERE t.production_year >= 2005",
       "SELECT x.name FROM title x WHERE 2005 <= x.production_year"},
      {"SELECT t.name, ci.role FROM title t, cast_info ci "
       "WHERE ci.movie_id = t.id AND t.rating > 7",
       "SELECT a.name, b.role FROM title a, cast_info b "
       "WHERE a.rating > 7.0 AND a.id = b.movie_id"},
      {"SELECT p.name FROM person p WHERE p.birth_year > 1980"},
      {"SELECT t.production_year, COUNT(*) FROM title t "
       "GROUP BY t.production_year"},
  };
  return mix;
}

TEST_F(ServeStressTest, EightSessionsShareOnePoolAndOneCache) {
  ServeOptions options;
  options.max_inflight = 3;
  options.queue_capacity = kSessions;  // nobody is rejected in this test
  options.pool_threads = 2;
  options.cache_bytes = 8 << 20;
  options.cache_shards = 4;
  ServeEngine engine(model_.get(), options);

  // Monitor: the process-wide execution-thread count must never exceed
  // the shared pool's cap — that is the whole point of pool sharing (no
  // N-sessions * num_threads explosion).
  std::atomic<bool> stop{false};
  std::atomic<size_t> max_live{0};
  std::thread monitor([&stop, &max_live] {
    while (!stop.load(std::memory_order_relaxed)) {
      size_t live = util::ThreadPool::LiveWorkerCount();
      size_t seen = max_live.load(std::memory_order_relaxed);
      while (live > seen &&
             !max_live.compare_exchange_weak(seen, live,
                                             std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // First-seen row keys per query index; every later success must match.
  std::mutex expected_mu;
  std::map<size_t, std::vector<std::string>> expected;
  std::atomic<uint64_t> successes{0};
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> sessions;
  sessions.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([s, &engine, &expected_mu, &expected, &successes,
                           &failures] {
      const auto& mix = QueryMix();
      for (int iter = 0; iter < kPerSessionQueries; ++iter) {
        const size_t q = (s + static_cast<size_t>(iter)) % mix.size();
        const std::vector<std::string>& spellings = mix[q];
        const std::string& sql =
            spellings[static_cast<size_t>(iter) % spellings.size()];
        auto result = engine.AnswerSql(sql);
        if (!result.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          ADD_FAILURE() << "session " << s << ": "
                        << result.status().ToString();
          continue;
        }
        successes.fetch_add(1, std::memory_order_relaxed);
        std::vector<std::string> keys;
        keys.reserve(result.value().result.num_rows());
        for (size_t r = 0; r < result.value().result.num_rows(); ++r) {
          keys.push_back(result.value().result.RowKey(r));
        }
        std::lock_guard<std::mutex> lock(expected_mu);
        auto it = expected.find(q);
        if (it == expected.end()) {
          expected.emplace(q, std::move(keys));
        } else {
          EXPECT_EQ(it->second, keys) << "query " << q << " diverged";
        }
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  stop.store(true, std::memory_order_relaxed);
  monitor.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(successes.load(), kSessions * kPerSessionQueries);
  // The cap held: only the shared pool's workers ever existed.
  EXPECT_LE(max_live.load(), options.pool_threads);

  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.served, successes.load());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.admission_expired, 0u);
  // Repeat queries hit: with 4 distinct queries and 8 * N requests, the
  // vast majority must come from the cache.
  EXPECT_GT(stats.cache_hits, successes.load() / 2);
  // Every answer is a cache hit, an execution, or a queued duplicate that
  // shared a batch peer's execution (counted in shared_scan_saved).
  EXPECT_LE(stats.cache_hits + stats.admitted, stats.served);
  EXPECT_LE(stats.served,
            stats.cache_hits + stats.admitted + stats.shared_scan_saved);
  // Out-of-distribution person queries recorded drift concurrently.
  EXPECT_GT(model_->drifted_query_count(), 0u);
}

TEST_F(ServeStressTest, OverloadedQueueRejectsInsteadOfCrashing) {
  ServeOptions options;
  options.max_inflight = 1;
  options.queue_capacity = 1;  // 8 sessions into 2 slots: most are rejected
  options.pool_threads = 1;
  options.cache_bytes = 0;  // force every request through admission
  ServeEngine engine(model_.get(), options);

  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&engine, &ok_count, &rejected] {
      for (int iter = 0; iter < kPerSessionQueries / 2; ++iter) {
        auto result = engine.AnswerSql(
            "SELECT t.name, ci.role FROM title t, cast_info ci "
            "WHERE ci.movie_id = t.id AND t.production_year >= 2000");
        if (result.ok()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_EQ(result.status().code(),
                    util::StatusCode::kResourceExhausted)
              << result.status().ToString();
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : sessions) t.join();

  EXPECT_GT(ok_count.load(), 0u);
  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.served, ok_count.load());
}

TEST_F(ServeStressTest, AdmissionSyncSessionsBeyondTheSlotsQueueAndAgree) {
  // Twice as many synchronous sessions as slots, cache off: every request
  // is admitted, inline when a slot is free, else queued and run by an
  // executor thread. Both kinds share the slots and must agree byte for
  // byte.
  ServeOptions options;
  options.max_inflight = 2;
  options.queue_capacity = 2 * kSessions;  // nobody is rejected
  options.pool_threads = 2;
  options.cache_bytes = 0;
  ServeEngine engine(model_.get(), options);

  std::mutex expected_mu;
  std::map<size_t, std::vector<std::string>> expected;
  std::atomic<uint64_t> successes{0};
  std::vector<std::thread> sessions;
  sessions.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([s, &engine, &expected_mu, &expected, &successes] {
      const auto& mix = QueryMix();
      for (int iter = 0; iter < kPerSessionQueries / 2; ++iter) {
        const size_t q = (s + static_cast<size_t>(iter)) % mix.size();
        auto result = engine.AnswerSql(mix[q][0]);
        if (!result.ok()) {
          ADD_FAILURE() << "session " << s << ": "
                        << result.status().ToString();
          continue;
        }
        successes.fetch_add(1, std::memory_order_relaxed);
        std::vector<std::string> keys;
        for (size_t r = 0; r < result.value().result.num_rows(); ++r) {
          keys.push_back(result.value().result.RowKey(r));
        }
        std::lock_guard<std::mutex> lock(expected_mu);
        auto it = expected.find(q);
        if (it == expected.end()) {
          expected.emplace(q, std::move(keys));
        } else {
          EXPECT_EQ(it->second, keys) << "query " << q << " diverged";
        }
      }
    });
  }
  for (std::thread& t : sessions) t.join();

  const uint64_t total = kSessions * (kPerSessionQueries / 2);
  EXPECT_EQ(successes.load(), total);
  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.served, total);
  EXPECT_EQ(stats.rejected, 0u);
  // Every request became a batch member; equal queries queued together
  // share one execution, so fewer may have been admitted.
  EXPECT_EQ(stats.batch_members, total);
  EXPECT_LE(stats.admitted, total);
  EXPECT_GT(stats.inline_runs, 0u);
  EXPECT_LE(stats.inline_runs, total);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(ServeStressTest, FineTuneRacesInFlightAnswers) {
  ServeOptions options;
  options.max_inflight = 4;
  options.queue_capacity = 2 * kSessions;
  options.pool_threads = 2;
  options.cache_bytes = 8 << 20;
  ServeEngine engine(model_.get(), options);

  ASSERT_OK_AND_ASSIGN(
      metric::Workload drift,
      metric::Workload::FromSql(
          {"SELECT p.name FROM person p WHERE p.birth_year > 1975",
           "SELECT p.name, p.birth_year FROM person p "
           "WHERE p.birth_year < 1955"}));

  const uint64_t generation_before = model_->generation();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([s, &engine, &stop, &answered] {
      const auto& mix = QueryMix();
      size_t iter = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& spellings = mix[(s + iter) % mix.size()];
        auto result = engine.AnswerSql(spellings[iter % spellings.size()]);
        // Admission rejections are acceptable under this load; data races
        // and deadlocks are what this test exists to catch.
        if (result.ok()) answered.fetch_add(1, std::memory_order_relaxed);
        ++iter;
      }
    });
  }

  // Let the sessions reach a steady state, then retrain underneath them:
  // FineTune publishes the next generation and flushes the cache while
  // the sessions keep arriving.
  while (answered.load(std::memory_order_relaxed) < kSessions) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_OK(engine.FineTune(drift));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : sessions) t.join();

  EXPECT_GT(model_->generation(), generation_before);
  // Entries cached at the old generation were dropped (eagerly by the
  // FineTune sweep, or lazily by a session's racing lookup).
  EXPECT_GT(engine.cache().stats().invalidations, 0u);
  // The engine still serves and re-warms against the new approximation
  // set. (The first answer here may already be a hit: sessions kept
  // serving after FineTune returned and refill the cache at the new
  // generation.)
  ASSERT_OK_AND_ASSIGN(core::AnswerResult again,
                       engine.AnswerSql(QueryMix()[0][0]));
  (void)again;
  ASSERT_OK_AND_ASSIGN(core::AnswerResult warm,
                       engine.AnswerSql(QueryMix()[0][0]));
  EXPECT_TRUE(warm.from_cache);
}

/// One digest of an answer's rows, in order.
uint64_t RowsDigest(const exec::ResultSet& rs) {
  std::string rows;
  for (size_t r = 0; r < rs.num_rows(); ++r) {
    rows += rs.RowKey(r);
    rows += '\n';
  }
  return util::Fnv1a(rows);
}

/// RowsDigest of each query's answer from an engine without a cache (one
/// engine at a time: each re-routes the model's pool).
std::vector<uint64_t> UncachedDigests(core::AsqpModel* model,
                                      const std::vector<std::string>& sqls) {
  ServeOptions options;
  options.pool_threads = 2;
  options.cache_bytes = 0;
  ServeEngine engine(model, options);
  std::vector<uint64_t> digests;
  for (const std::string& sql : sqls) {
    auto result = engine.AnswerSql(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    digests.push_back(result.ok() ? RowsDigest(result.value().result) : 0);
  }
  return digests;
}

/// One served answer: which query, whether it was sent after FineTune
/// returned, and its RowsDigest.
struct Seen {
  size_t query = 0;
  bool after_finetune = false;
  uint64_t digest = 0;
};

/// kSessions sessions send sqls[pick(session, iteration)] through
/// `engine` until 4 * kSessions answers came back, then one FineTune
/// runs underneath them, then they go on until 4 * kSessions answers sent
/// after it came back. Returns every answer served.
std::vector<Seen> ServeAcrossFineTune(
    ServeEngine* engine, const std::vector<std::string>& sqls,
    const std::function<size_t(size_t, size_t)>& pick,
    const metric::Workload& drift) {
  std::vector<std::vector<Seen>> seen(kSessions);
  std::atomic<bool> tuned{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> answered_after{0};
  std::vector<std::thread> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      for (size_t iter = 0; !stop.load(std::memory_order_relaxed); ++iter) {
        Seen one;
        one.query = pick(s, iter);
        one.after_finetune = tuned.load(std::memory_order_acquire);
        auto result = engine->AnswerSql(sqls[one.query]);
        // Rejections are acceptable under this load; what is served
        // must come from one generation.
        if (!result.ok()) continue;
        one.digest = RowsDigest(result.value().result);
        seen[s].push_back(one);
        answered.fetch_add(1, std::memory_order_relaxed);
        if (one.after_finetune) {
          answered_after.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  while (answered.load(std::memory_order_relaxed) < 4 * kSessions) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_OK(engine->FineTune(drift));
  tuned.store(true, std::memory_order_release);
  while (answered_after.load(std::memory_order_relaxed) < 4 * kSessions) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : sessions) t.join();
  std::vector<Seen> all;
  for (const std::vector<Seen>& session : seen) {
    all.insert(all.end(), session.begin(), session.end());
  }
  return all;
}

/// Every answer matches its query's reference digest in one generation,
/// and every answer sent after FineTune returned matches the new one.
void ExpectOneGenerationEach(const std::vector<Seen>& seen,
                             const std::vector<uint64_t>& before,
                             const std::vector<uint64_t>& after) {
  size_t mixed = 0;
  size_t stale = 0;
  for (const Seen& one : seen) {
    const bool is_after = one.digest == after[one.query];
    if (one.after_finetune) {
      if (!is_after) ++stale;
    } else if (!is_after && one.digest != before[one.query]) {
      ++mixed;
    }
  }
  EXPECT_EQ(mixed, 0u) << "answers matching neither generation";
  EXPECT_EQ(stale, 0u) << "old-generation answers after FineTune returned";
}

TEST_F(ServeStressTest, MemoizedTextsDuringFineTuneNeverMixGenerations) {
  // One text per query, so each text's reference is its own answer: two
  // spellings of one query may route differently, and the cache keeps
  // whichever executed first.
  std::vector<std::string> sqls;
  for (const auto& spellings : QueryMix()) sqls.push_back(spellings[0]);
  const std::vector<uint64_t> before = UncachedDigests(model_.get(), sqls);

  std::vector<Seen> seen;
  uint64_t memo_hits = 0;
  {
    ServeOptions options;
    options.max_inflight = 4;
    options.queue_capacity = 2 * kSessions;
    options.pool_threads = 2;
    options.cache_bytes = 8 << 20;
    ServeEngine engine(model_.get(), options);
    // A miss, a full-path hit that memoizes the text, then a memo hit.
    for (const std::string& sql : sqls) {
      for (int i = 0; i < 3; ++i) ASSERT_OK(engine.AnswerSql(sql).status());
    }
    ASSERT_EQ(engine.stats().memo_hits, sqls.size());

    ASSERT_OK_AND_ASSIGN(
        metric::Workload drift,
        metric::Workload::FromSql(
            {"SELECT p.name FROM person p WHERE p.birth_year > 1970",
             "SELECT p.name, p.birth_year FROM person p "
             "WHERE p.birth_year < 1960"}));
    seen = ServeAcrossFineTune(
        &engine, sqls,
        [&sqls](size_t s, size_t iter) { return (s + iter) % sqls.size(); },
        drift);
    memo_hits = engine.stats().memo_hits;
  }
  const std::vector<uint64_t> after = UncachedDigests(model_.get(), sqls);

  // Memo hits kept coming during the race, not only in the warm-up.
  EXPECT_GT(memo_hits, sqls.size());
  ExpectOneGenerationEach(seen, before, after);
}

TEST_F(ServeStressTest, SharedRowsOfOneHotAnswerUnderEvictionAndFineTune) {
  // Eight sessions read one cached answer of at least 500 rows while a
  // FineTune replaces its generation and a cache with room for about one
  // such answer keeps evicting it. Every copy shares the entry's rows, and
  // whichever thread drops the last copy frees them: no thread may write
  // rows after they are built.
  const std::vector<std::string> sqls = {
      "SELECT p.name, ci.role FROM person p, cast_info ci "
      "WHERE ci.person_id = p.id",
      // The same rows in another column order: another entry, as large.
      "SELECT ci.role, p.name FROM person p, cast_info ci "
      "WHERE ci.person_id = p.id"};
  size_t hot_bytes = 0;
  {
    ServeOptions options;
    options.pool_threads = 2;
    options.cache_bytes = 0;
    ServeEngine reference(model_.get(), options);
    ASSERT_OK_AND_ASSIGN(core::AnswerResult hot, reference.AnswerSql(sqls[0]));
    ASSERT_GE(hot.result.num_rows(), 500u);
    hot_bytes = EstimateAnswerBytes(hot);
  }
  const std::vector<uint64_t> before = UncachedDigests(model_.get(), sqls);

  std::vector<Seen> seen;
  AnswerCache::Stats cache_stats;
  uint64_t cache_hits = 0;
  {
    ServeOptions options;
    options.max_inflight = 4;
    options.queue_capacity = 2 * kSessions;
    options.pool_threads = 2;
    options.cache_shards = 1;
    options.cache_bytes = hot_bytes + hot_bytes / 2;
    ServeEngine engine(model_.get(), options);
    ASSERT_OK(engine.AnswerSql(sqls[0]).status());

    ASSERT_OK_AND_ASSIGN(
        metric::Workload drift,
        metric::Workload::FromSql(
            {"SELECT p.name FROM person p WHERE p.birth_year > 1965",
             "SELECT p.name, p.birth_year FROM person p "
             "WHERE p.birth_year < 1945"}));
    // One request in eight asks for the other order and evicts the hot
    // answer.
    seen = ServeAcrossFineTune(
        &engine, sqls,
        [](size_t s, size_t iter) { return (s + iter) % 8 == 0 ? 1u : 0u; },
        drift);
    cache_stats = engine.cache().stats();
    cache_hits = engine.stats().cache_hits;
  }
  const std::vector<uint64_t> after = UncachedDigests(model_.get(), sqls);

  EXPECT_GT(cache_hits, 0u);
  EXPECT_GT(cache_stats.evictions, 0u);
  ExpectOneGenerationEach(seen, before, after);
}

TEST_F(ServeStressTest, ReadersKeepAnsweringDuringFineTune) {
  // Readers send the hot texts while FineTune runs. None waits out the
  // fine-tune: a request sent while it runs returns in a small fraction
  // of its length, with the old generation's answer while that is still
  // published, and every request sent after FineTune returns gets the new
  // generation's.
  using Clock = std::chrono::steady_clock;
  constexpr size_t kReaders = 4;
  std::vector<std::string> sqls;
  for (const auto& spellings : QueryMix()) sqls.push_back(spellings[0]);
  const std::vector<uint64_t> before = UncachedDigests(model_.get(), sqls);
  const uint64_t old_generation = model_->generation();

  enum class Phase { kBefore, kDuring, kAfter };
  struct Request {
    size_t query = 0;
    Phase phase = Phase::kBefore;
    Clock::duration latency{};
    /// The old generation's number was still published on return.
    bool old_published = false;
    uint64_t digest = 0;
  };
  std::vector<std::vector<Request>> seen(kReaders);
  Clock::duration tune_time{};
  {
    ServeOptions options;
    options.max_inflight = 4;
    options.queue_capacity = 2 * kSessions;
    options.pool_threads = 2;
    options.cache_bytes = 8 << 20;
    ServeEngine engine(model_.get(), options);
    for (const std::string& sql : sqls) {
      ASSERT_OK(engine.AnswerSql(sql).status());
    }
    ASSERT_OK_AND_ASSIGN(
        metric::Workload drift,
        metric::Workload::FromSql(
            {"SELECT p.name FROM person p WHERE p.birth_year > 1985",
             "SELECT p.name, p.birth_year FROM person p "
             "WHERE p.birth_year < 1950"}));

    std::atomic<bool> started{false};
    std::atomic<bool> tuned{false};
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> answered{0};
    std::atomic<uint64_t> answered_after{0};
    std::vector<std::thread> readers;
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        for (size_t iter = 0; !stop.load(std::memory_order_relaxed); ++iter) {
          Request one;
          one.query = (r + iter) % sqls.size();
          one.phase = tuned.load(std::memory_order_acquire) ? Phase::kAfter
                      : started.load(std::memory_order_acquire)
                          ? Phase::kDuring
                          : Phase::kBefore;
          const Clock::time_point sent = Clock::now();
          auto result = engine.AnswerSql(sqls[one.query]);
          one.latency = Clock::now() - sent;
          one.old_published = model_->generation() == old_generation;
          EXPECT_TRUE(result.ok()) << result.status().ToString();
          if (!result.ok()) continue;
          one.digest = RowsDigest(result.value().result);
          seen[r].push_back(one);
          answered.fetch_add(1, std::memory_order_relaxed);
          if (one.phase == Phase::kAfter) {
            answered_after.fetch_add(1, std::memory_order_relaxed);
          }
          // Readers are what this measures, not load: leave the cores to
          // the fine-tune.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
    }
    while (answered.load(std::memory_order_relaxed) < 4 * kReaders) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    started.store(true, std::memory_order_release);
    const Clock::time_point tune_start = Clock::now();
    EXPECT_OK(engine.FineTune(drift));
    tune_time = Clock::now() - tune_start;
    tuned.store(true, std::memory_order_release);
    while (answered_after.load(std::memory_order_relaxed) < 4 * kReaders) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : readers) t.join();
  }
  const std::vector<uint64_t> after = UncachedDigests(model_.get(), sqls);
  ASSERT_GT(model_->generation(), old_generation);

  size_t during = 0;
  size_t during_old = 0;
  Clock::duration worst{};
  for (const std::vector<Request>& session : seen) {
    for (const Request& one : session) {
      const uint64_t old_digest = before[one.query];
      const uint64_t new_digest = after[one.query];
      if (one.phase == Phase::kAfter) {
        EXPECT_EQ(one.digest, new_digest) << "query " << one.query
                                          << " sent after FineTune returned";
        continue;
      }
      if (one.old_published) {
        EXPECT_EQ(one.digest, old_digest)
            << "query " << one.query << " answered before the publish";
      } else {
        EXPECT_TRUE(one.digest == old_digest || one.digest == new_digest)
            << "query " << one.query << " matches neither generation";
      }
      if (one.phase == Phase::kDuring) {
        ++during;
        if (one.old_published) ++during_old;
        worst = std::max(worst, one.latency);
      }
    }
  }
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  std::printf("FineTune ran %.1f ms; %zu requests sent meanwhile (%zu "
              "answered from the old generation), worst latency %.3f ms\n",
              ms(tune_time), during, during_old, ms(worst));
  EXPECT_GT(during_old, 0u);
  EXPECT_LT(ms(worst), ms(tune_time) / 10)
      << "a reader waited out the fine-tune";
}

TEST_F(ServeStressTest, ChaosOverloadNeverLeaksRawTimeoutsToClients) {
  // The degradation contract under chaos: 4x the admission capacity, a
  // tight live deadline per request, the cache disabled (every request
  // pays admission + execution), and faults armed on every execution
  // point this path can reach — every deadline check lies, every join
  // build and partial-aggregation allocation fails. Every client must
  // still get an answer (possibly from a degraded tier, with an error
  // estimate) or a *typed* degradation: kDegraded, queue-full
  // kResourceExhausted back-pressure, or the dead-on-arrival fast-path
  // rejection. A raw deadline/cancellation from inside the ladder must
  // never reach a client.
  util::FaultInjector::Global().Reset();
  util::FaultInjector::Global().Arm("exec.deadline", /*count=*/-1);
  util::FaultInjector::Global().Arm("exec.join.alloc", /*count=*/-1);
  util::FaultInjector::Global().Arm("exec.agg.partial", /*count=*/-1);

#ifdef ASQP_SANITIZE_THREAD
  const double kDeadlineSeconds = 0.25;
#else
  const double kDeadlineSeconds = 0.05;
#endif

  ServeOptions options;
  options.max_inflight = 2;
  options.queue_capacity = 2;  // 8 sessions into 4 slots: 4x overload
  options.pool_threads = 2;
  options.cache_bytes = 0;
  ServeEngine engine(model_.get(), options);

  // One spelling per shape: a single-table SPJ (the full-database tier
  // can still answer it), a join (every tier below the learned one is
  // fault-poisoned, and a join is outside the learned class — ends in
  // kDegraded), and a learned-class aggregate (sheddable).
  const std::vector<std::string> chaos_mix = {
      "SELECT t.name FROM title t WHERE t.production_year >= 2005",
      "SELECT t.name, ci.role FROM title t, cast_info ci "
      "WHERE ci.movie_id = t.id AND t.rating > 7",
      "SELECT COUNT(*) FROM title t WHERE t.production_year >= 2000",
  };

  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> degraded_count{0};
  std::atomic<uint64_t> backpressure_count{0};
  std::atomic<uint64_t> dead_on_arrival{0};
  std::atomic<uint64_t> contract_violations{0};
  std::mutex violations_mu;
  std::vector<std::string> violations;

  std::vector<std::thread> sessions;
  sessions.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([s, &engine, &chaos_mix, &ok_count,
                           &degraded_count, &backpressure_count,
                           &dead_on_arrival, &contract_violations,
                           &violations_mu, &violations,
                           kDeadlineSeconds] {
      for (int iter = 0; iter < kPerSessionQueries; ++iter) {
        const std::string& sql =
            chaos_mix[(s + static_cast<size_t>(iter)) % chaos_mix.size()];
        util::ExecContext context;
        context.set_deadline(util::Deadline::AfterSeconds(kDeadlineSeconds));
        auto result = engine.AnswerSql(sql, context);
        if (result.ok()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
          // A learned-tier answer always carries its calibrated bound.
          if (result.value().tier == core::AnswerTier::kLearned) {
            EXPECT_GT(result.value().error_estimate, 0.0);
            EXPECT_TRUE(result.value().fell_back);
          }
          continue;
        }
        const util::Status& failure = result.status();
        switch (failure.code()) {
          case util::StatusCode::kDegraded:
            degraded_count.fetch_add(1, std::memory_order_relaxed);
            break;
          case util::StatusCode::kResourceExhausted:
            backpressure_count.fetch_add(1, std::memory_order_relaxed);
            break;
          case util::StatusCode::kDeadlineExceeded:
            // Only the typed dead-on-arrival fast path may surface this;
            // a deadline from inside the ladder is a contract violation.
            if (failure.message().find("on arrival") != std::string::npos) {
              dead_on_arrival.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            [[fallthrough]];
          default: {
            contract_violations.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(violations_mu);
            violations.push_back(failure.ToString());
          }
        }
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  util::FaultInjector::Global().Reset();
  // Chaos may have tripped the full-database breaker; close it so later
  // tests see a healthy ladder.
  model_->circuit_breaker().RecordSuccess();

  std::string violation_digest;
  for (const std::string& v : violations) {
    violation_digest += "\n  " + v;
  }
  EXPECT_EQ(contract_violations.load(), 0u) << violation_digest;
  const uint64_t total = ok_count.load() + degraded_count.load() +
                         backpressure_count.load() + dead_on_arrival.load() +
                         contract_violations.load();
  EXPECT_EQ(total, kSessions * kPerSessionQueries);
  // The chaos was real: faults forced answers off the approximation tier,
  // and some clients were served anyway.
  EXPECT_GT(ok_count.load(), 0u);
  EXPECT_GT(degraded_count.load() + backpressure_count.load() +
                engine.stats().shed_learned + engine.stats().degraded,
            0u);
  EXPECT_EQ(engine.stats().served, ok_count.load());

  // The engine recovers once the faults are gone: a healthy query on a
  // fresh deadline is answered normally.
  util::ExecContext healthy;
  healthy.set_deadline(util::Deadline::AfterSeconds(30.0));
  ASSERT_OK_AND_ASSIGN(core::AnswerResult after,
                       engine.AnswerSql(chaos_mix[0], healthy));
  EXPECT_FALSE(after.from_cache);
}

TEST_F(ServeStressTest, BatchedSessionsAgreeWithUnbatchedAnswers) {
  // Reference answers from an unbatched engine (single-threaded, one
  // engine at a time: each engine re-routes the model's pool).
  std::map<size_t, std::vector<std::string>> expected;
  {
    ServeOptions plain;
    plain.max_inflight = 2;
    plain.queue_capacity = kSessions;
    plain.pool_threads = 2;
    plain.cache_bytes = 0;
    ServeEngine reference(model_.get(), plain);
    const auto& mix = QueryMix();
    for (size_t q = 0; q < mix.size(); ++q) {
      auto result = reference.AnswerSql(mix[q][0]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      std::vector<std::string> keys;
      for (size_t r = 0; r < result.value().result.num_rows(); ++r) {
        keys.push_back(result.value().result.RowKey(r));
      }
      expected.emplace(q, std::move(keys));
    }
  }

  // Batched + async engine under 8 concurrent sessions: every answer —
  // shared-scan batched, deduplicated, or cached — must be byte-identical
  // to the unbatched reference.
  ServeOptions options;
  options.max_inflight = 3;
  // Every session pipelines its whole script as outstanding futures, so
  // the ticket queue must hold the full burst — back-pressure behavior is
  // OverloadedQueueRejectsInsteadOfCrashing's job, not this test's.
  options.queue_capacity = kSessions * kPerSessionQueries;
  options.pool_threads = 2;
  options.cache_bytes = 8 << 20;
  options.cache_shards = 4;
  options.batch_max_queries = 4;
  ServeEngine engine(model_.get(), options);

  std::atomic<uint64_t> successes{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> sessions;
  sessions.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([s, &engine, &expected, &successes, &mismatches] {
      const auto& mix = QueryMix();
      CompletionQueue queue;
      for (int iter = 0; iter < kPerSessionQueries; ++iter) {
        const size_t q = (s + static_cast<size_t>(iter)) % mix.size();
        const std::vector<std::string>& spellings = mix[q];
        const std::string& sql =
            spellings[static_cast<size_t>(iter) % spellings.size()];
        queue.Track(engine.AnswerSqlAsync(sql), q);
      }
      while (auto done = queue.Next()) {
        if (!done->result.ok()) {
          ADD_FAILURE() << "session " << s << ": "
                        << done->result.status().ToString();
          continue;
        }
        successes.fetch_add(1, std::memory_order_relaxed);
        const exec::ResultSet& rs = done->result.value().result;
        std::vector<std::string> keys;
        keys.reserve(rs.num_rows());
        for (size_t r = 0; r < rs.num_rows(); ++r) {
          keys.push_back(rs.RowKey(r));
        }
        if (keys != expected.at(done->tag)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          ADD_FAILURE() << "query " << done->tag
                        << " diverged from the unbatched reference";
        }
      }
    });
  }
  for (std::thread& t : sessions) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(successes.load(), kSessions * kPerSessionQueries);
  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.served, successes.load());
  EXPECT_GE(stats.batches_formed, 1u);
  // Dedup + shared scans did real work under this mix (equivalent
  // spellings and same-table predicates collide constantly).
  EXPECT_GT(stats.shared_scan_saved + stats.cache_hits, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(ServeStressTest, BatchedChaosKeepsTheDegradationContract) {
  // The ChaosOverloadNeverLeaksRawTimeoutsToClients contract, re-run
  // through the batched/async path with the serve.batch fault armed on
  // every poll: every batched member is forced off the shared-scan tier
  // and down the ladder, yet every client still gets an answer or a typed
  // degradation — never a raw timeout, and never an unresolved future.
  util::FaultInjector::Global().Reset();
  util::FaultInjector::Global().Arm("exec.deadline", /*count=*/-1);
  util::FaultInjector::Global().Arm("exec.join.alloc", /*count=*/-1);
  util::FaultInjector::Global().Arm("exec.agg.partial", /*count=*/-1);
  util::FaultInjector::Global().Arm("serve.batch", /*count=*/-1);

#ifdef ASQP_SANITIZE_THREAD
  const double kDeadlineSeconds = 0.25;
#else
  const double kDeadlineSeconds = 0.05;
#endif

  ServeOptions options;
  options.max_inflight = 2;
  options.queue_capacity = 4;
  options.pool_threads = 2;
  options.cache_bytes = 0;
  options.batch_max_queries = 4;
  ServeEngine engine(model_.get(), options);

  const std::vector<std::string> chaos_mix = {
      "SELECT t.name FROM title t WHERE t.production_year >= 2005",
      "SELECT t.name, ci.role FROM title t, cast_info ci "
      "WHERE ci.movie_id = t.id AND t.rating > 7",
      "SELECT COUNT(*) FROM title t WHERE t.production_year >= 2000",
  };

  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> typed_failures{0};
  std::atomic<uint64_t> contract_violations{0};
  std::mutex violations_mu;
  std::vector<std::string> violations;

  std::vector<std::thread> sessions;
  sessions.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([s, &engine, &chaos_mix, &ok_count,
                           &typed_failures, &contract_violations,
                           &violations_mu, &violations, kDeadlineSeconds] {
      for (int iter = 0; iter < kPerSessionQueries; ++iter) {
        const std::string& sql =
            chaos_mix[(s + static_cast<size_t>(iter)) % chaos_mix.size()];
        util::ExecContext context;
        context.set_deadline(util::Deadline::AfterSeconds(kDeadlineSeconds));
        util::Result<core::AnswerResult> result =
            engine.AnswerSqlAsync(sql, context).Get();
        if (result.ok()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const util::Status& failure = result.status();
        const bool typed =
            failure.code() == util::StatusCode::kDegraded ||
            failure.code() == util::StatusCode::kResourceExhausted ||
            (failure.code() == util::StatusCode::kDeadlineExceeded &&
             failure.message().find("on arrival") != std::string::npos);
        if (typed) {
          typed_failures.fetch_add(1, std::memory_order_relaxed);
        } else {
          contract_violations.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(violations_mu);
          violations.push_back(failure.ToString());
        }
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  util::FaultInjector::Global().Reset();
  model_->circuit_breaker().RecordSuccess();

  std::string violation_digest;
  for (const std::string& v : violations) {
    violation_digest += "\n  " + v;
  }
  EXPECT_EQ(contract_violations.load(), 0u) << violation_digest;
  EXPECT_EQ(ok_count.load() + typed_failures.load() +
                contract_violations.load(),
            kSessions * kPerSessionQueries);
  EXPECT_GT(ok_count.load(), 0u);
  // Chaos really flowed through the batched tier.
  EXPECT_GE(engine.stats().batches_formed, 1u);

  // Healthy again once the faults are gone.
  util::ExecContext healthy;
  healthy.set_deadline(util::Deadline::AfterSeconds(30.0));
  util::Result<core::AnswerResult> after =
      engine.AnswerSqlAsync(chaos_mix[0], healthy).Get();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

}  // namespace
}  // namespace serve
}  // namespace asqp
