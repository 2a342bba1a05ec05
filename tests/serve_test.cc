// Serving-layer tests: AnswerCache unit behavior (LRU, byte budget,
// generations, collisions), TextMemo unit behavior, BatchScheduler
// admission (inline solo runs, arrival order, group commit, shutdown), and
// ServeEngine end-to-end on a trained model (cache hits byte-identical to
// executions, equivalent spellings share an entry, FineTune invalidates,
// shared-pool answers identical at every pool size, batching, admission
// outcomes, the exact-text memo's contract, and hits that share the
// filling miss's rows).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "data/dataset.h"
#include "serve/answer_cache.h"
#include "serve/batch_scheduler.h"
#include "serve/serve_engine.h"
#include "serve/text_memo.h"
#include "sql/canonicalize.h"
#include "sql/parser.h"
#include "tests/slot_hold.h"
#include "tests/testing.h"
#include "util/exec_context.h"

namespace asqp {
namespace serve {
namespace {

// ---- AnswerCache unit tests -------------------------------------------

core::AnswerResult MakeAnswer(const std::string& tag, size_t rows) {
  exec::ResultSet::Rows values;
  for (size_t i = 0; i < rows; ++i) {
    values.push_back(
        {storage::Value(tag), storage::Value(static_cast<int64_t>(i))});
  }
  core::AnswerResult result;
  result.result = exec::ResultSet({"tag", "n"}, std::move(values));
  result.used_approximation = true;
  result.answerability = 0.5;
  return result;
}

sql::QueryFingerprint MakeFp(uint64_t hash, const std::string& canonical) {
  sql::QueryFingerprint fp;
  fp.hash = hash;
  fp.canonical = canonical;
  return fp;
}

TEST(AnswerCacheTest, LookupReturnsInsertedAnswer) {
  AnswerCache cache(1 << 20, /*num_shards=*/2);
  const sql::QueryFingerprint fp = MakeFp(42, "q1");
  EXPECT_EQ(cache.Lookup(fp, 0), nullptr);
  cache.Insert(fp, 0, MakeAnswer("a", 3));
  auto hit = cache.Lookup(fp, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result.num_rows(), 3u);
  AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(AnswerCacheTest, StaleGenerationInvalidatesLazily) {
  AnswerCache cache(1 << 20, 1);
  const sql::QueryFingerprint fp = MakeFp(7, "q");
  cache.Insert(fp, /*generation=*/0, MakeAnswer("a", 2));
  // A lookup at a newer generation must miss AND erase the stale entry.
  EXPECT_EQ(cache.Lookup(fp, 1), nullptr);
  AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(AnswerCacheTest, InvalidateOlderThanSweepsEagerly) {
  AnswerCache cache(1 << 20, 4);
  for (uint64_t h = 0; h < 8; ++h) {
    cache.Insert(MakeFp(h, std::string("q") + std::to_string(h)),
                 /*generation=*/0, MakeAnswer("a", 1));
  }
  cache.Insert(MakeFp(100, "fresh"), /*generation=*/1, MakeAnswer("b", 1));
  cache.InvalidateOlderThan(1);
  AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.invalidations, 8u);
  EXPECT_NE(cache.Lookup(MakeFp(100, "fresh"), 1), nullptr);
}

TEST(AnswerCacheTest, HashCollisionWithDifferentCanonicalMisses) {
  AnswerCache cache(1 << 20, 1);
  cache.Insert(MakeFp(5, "canonical-a"), 0, MakeAnswer("a", 1));
  EXPECT_EQ(cache.Lookup(MakeFp(5, "canonical-b"), 0), nullptr);
  EXPECT_EQ(cache.stats().hash_collisions, 1u);
  // The original entry is untouched.
  EXPECT_NE(cache.Lookup(MakeFp(5, "canonical-a"), 0), nullptr);
}

TEST(AnswerCacheTest, EvictsLruUnderByteBudget) {
  const size_t one_bytes = EstimateAnswerBytes(MakeAnswer("x", 4));
  // Room for ~3 entries in a single shard.
  AnswerCache cache(3 * one_bytes + one_bytes / 2, 1);
  cache.Insert(MakeFp(1, "q1"), 0, MakeAnswer("x", 4));
  cache.Insert(MakeFp(2, "q2"), 0, MakeAnswer("x", 4));
  cache.Insert(MakeFp(3, "q3"), 0, MakeAnswer("x", 4));
  // Touch q1 so q2 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(MakeFp(1, "q1"), 0), nullptr);
  cache.Insert(MakeFp(4, "q4"), 0, MakeAnswer("x", 4));
  AnswerCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, cache.byte_budget());
  EXPECT_EQ(cache.Lookup(MakeFp(2, "q2"), 0), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(MakeFp(1, "q1"), 0), nullptr);  // kept (recent)
  EXPECT_NE(cache.Lookup(MakeFp(4, "q4"), 0), nullptr);
}

TEST(AnswerCacheTest, OversizedAnswerIsNotCached) {
  AnswerCache cache(256, 1);  // smaller than any realistic answer
  cache.Insert(MakeFp(1, "big"), 0, MakeAnswer("x", 100));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup(MakeFp(1, "big"), 0), nullptr);
}

TEST(AnswerCacheTest, ZeroBudgetDisablesCaching) {
  AnswerCache cache(0, 4);
  cache.Insert(MakeFp(1, "q"), 0, MakeAnswer("x", 1));
  EXPECT_EQ(cache.Lookup(MakeFp(1, "q"), 0), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(AnswerCacheTest, ReplaceSameFingerprintKeepsOneEntry) {
  AnswerCache cache(1 << 20, 1);
  cache.Insert(MakeFp(9, "q"), 0, MakeAnswer("old", 1));
  cache.Insert(MakeFp(9, "q"), 0, MakeAnswer("new", 2));
  auto hit = cache.Lookup(MakeFp(9, "q"), 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result.num_rows(), 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(AnswerCacheTest, ClearDropsEverything) {
  AnswerCache cache(1 << 20, 4);
  for (uint64_t h = 0; h < 6; ++h) {
    cache.Insert(MakeFp(h, std::string("q") + std::to_string(h)), 0,
                 MakeAnswer("x", 1));
  }
  cache.Clear();
  AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(AnswerCacheTest, LongCanonicalKeysFitFewerEntries) {
  // The budget charges what an entry holds: its canonical key as well as
  // its answer.
  const size_t one = EstimateAnswerBytes(MakeAnswer("x", 1));
  const auto entries_kept = [one](size_t key_bytes) {
    AnswerCache cache(8 * one, 1);
    for (uint64_t h = 0; h < 16; ++h) {
      std::string key = std::string("q") + std::to_string(h);
      key.resize(std::max(key.size(), key_bytes), 'k');
      cache.Insert(MakeFp(h, key), 0, MakeAnswer("x", 1));
    }
    const AnswerCache::Stats stats = cache.stats();
    EXPECT_LE(stats.bytes, cache.byte_budget());
    return stats.entries;
  };
  const size_t short_keys = entries_kept(4);
  const size_t long_keys = entries_kept(one);
  EXPECT_GE(short_keys, 6u);
  EXPECT_LT(long_keys, short_keys);
  EXPECT_LE(long_keys, 4u);
}

TEST(AnswerCacheTest, EstimateChargesTheSharedRowsBlockOnce) {
  // Rows live in one shared block, which the first row brings: it costs
  // more than each further row, and an answer without rows has none.
  const size_t none = EstimateAnswerBytes(MakeAnswer("x", 0));
  const size_t one = EstimateAnswerBytes(MakeAnswer("x", 1));
  const size_t two = EstimateAnswerBytes(MakeAnswer("x", 2));
  const size_t three = EstimateAnswerBytes(MakeAnswer("x", 3));
  EXPECT_EQ(three - two, two - one);
  EXPECT_GT(one - none, two - one);
}

TEST(AnswerCacheTest, EstimateChargesSpareValueSlots) {
  // A cached answer keeps each row's whole allocation.
  exec::ResultSet::Row row;
  row.reserve(64);
  row.emplace_back(std::string("x"));
  row.emplace_back(int64_t{0});
  exec::ResultSet::Rows rows;
  rows.push_back(std::move(row));
  core::AnswerResult spare = MakeAnswer("x", 1);
  spare.result = exec::ResultSet({"tag", "n"}, std::move(rows));
  const size_t tight = EstimateAnswerBytes(MakeAnswer("x", 1));
  EXPECT_EQ(EstimateAnswerBytes(spare) - tight, 62 * sizeof(storage::Value));
}

TEST(AnswerCacheTest, EstimateChargesEachEntrysBookkeeping) {
  // Besides the answer, an entry costs at least its LRU list node (two
  // links around the key string, the hash, the generation, the byte count
  // and the answer pointer) and its index node (a link, the hash and a
  // list iterator).
  const size_t list_node = 2 * sizeof(void*) + sizeof(std::string) +
                           3 * sizeof(uint64_t) +
                           sizeof(std::shared_ptr<const core::AnswerResult>);
  const size_t index_node =
      sizeof(void*) + sizeof(uint64_t) + sizeof(std::list<int>::iterator);
  const core::AnswerResult empty;
  EXPECT_GE(EstimateAnswerBytes(empty),
            sizeof(core::AnswerResult) + list_node + index_node);
}

TEST(AnswerCacheTest, EstimateChargesRowBlocksAndHeapStrings) {
  // A heap block costs at least a word of header beyond its payload.
  constexpr size_t kHeader = sizeof(void*);
  // Each further row is a Value array of its own on the heap.
  const size_t one = EstimateAnswerBytes(MakeAnswer("x", 1));
  const size_t two = EstimateAnswerBytes(MakeAnswer("x", 2));
  EXPECT_GE(two - one, sizeof(exec::ResultSet::Row) +
                           2 * sizeof(storage::Value) + kHeader);
  // A string that fits the small-string buffer lives in its Value...
  const std::string short_tag(std::string().capacity(), 's');
  EXPECT_EQ(EstimateAnswerBytes(MakeAnswer(short_tag, 1)), one);
  // ...and a longer one costs its whole heap block.
  const std::string long_tag(100, 'l');
  const core::AnswerResult long_answer = MakeAnswer(long_tag, 1);
  EXPECT_GE(EstimateAnswerBytes(long_answer) - one,
            long_answer.result.rows()[0][0].AsString().capacity() + kHeader);
}

// ---- TextMemo unit tests ----------------------------------------------

TEST(TextMemoTest, LookupMatchesTheExactText) {
  TextMemo memo(1 << 20, /*num_shards=*/2);
  sql::QueryFingerprint fp;
  EXPECT_FALSE(memo.Lookup("SELECT 1", &fp));
  memo.Admit("SELECT 1", MakeFp(42, "q1"));
  ASSERT_TRUE(memo.Lookup("SELECT 1", &fp));
  EXPECT_EQ(fp, MakeFp(42, "q1"));
  // Exact text only: a respelling is a different key.
  EXPECT_FALSE(memo.Lookup("SELECT 1 ", &fp));
  EXPECT_FALSE(memo.Lookup("select 1", &fp));
  TextMemo::Stats stats = memo.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.admissions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(TextMemoTest, EvictsLruUnderByteBudget) {
  const std::string canonical(64, 'c');
  std::vector<std::string> texts;
  for (int i = 0; i < 4; ++i) texts.push_back(std::string(64, 'a' + i));
  // Room for three entries in a single shard.
  TextMemo probe(1 << 20, 1);
  probe.Admit(texts[0], MakeFp(0, canonical));
  const size_t one = probe.stats().bytes;
  TextMemo memo(3 * one + one / 2, 1);
  for (int i = 0; i < 3; ++i) memo.Admit(texts[i], MakeFp(i, canonical));
  sql::QueryFingerprint fp;
  // Touch texts[0] so texts[1] becomes the LRU victim.
  ASSERT_TRUE(memo.Lookup(texts[0], &fp));
  memo.Admit(texts[3], MakeFp(3, canonical));
  TextMemo::Stats stats = memo.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_LE(stats.bytes, memo.byte_budget());
  EXPECT_FALSE(memo.Lookup(texts[1], &fp));
  EXPECT_TRUE(memo.Lookup(texts[0], &fp));
  EXPECT_TRUE(memo.Lookup(texts[3], &fp));
  EXPECT_EQ(fp.hash, 3u);
}

TEST(TextMemoTest, OversizedEntryIsNotKept) {
  TextMemo memo(256, 1);
  memo.Admit(std::string(1024, ' '), MakeFp(1, "q"));
  sql::QueryFingerprint fp;
  EXPECT_FALSE(memo.Lookup(std::string(1024, ' '), &fp));
  EXPECT_EQ(memo.stats().entries, 0u);
  EXPECT_EQ(memo.stats().admissions, 0u);
}

TEST(TextMemoTest, ClearDropsEverything) {
  TextMemo memo(1 << 20, 4);
  for (int i = 0; i < 6; ++i) {
    memo.Admit(std::string("q") + std::to_string(i), MakeFp(i, "c"));
  }
  memo.Clear();
  TextMemo::Stats stats = memo.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  sql::QueryFingerprint fp;
  EXPECT_FALSE(memo.Lookup("q0", &fp));
}

// ---- BatchScheduler admission ----------------------------------------

BatchScheduler::Ticket TaggedTicket(const std::string& tag,
                                    const std::string& key = "t") {
  BatchScheduler::Ticket ticket;
  ticket.group_key = key;
  ticket.fingerprint.canonical = tag;
  return ticket;
}

/// An ExecuteFn that records which tickets ran, in order, in which
/// batches, and on which thread; a ticket tagged `hold` blocks until
/// Release().
class RecordingExecutor {
 public:
  explicit RecordingExecutor(std::string hold = "") : hold_(std::move(hold)) {}

  BatchScheduler::ExecuteFn Fn() {
    return [this](std::vector<BatchScheduler::Ticket>&& batch) {
      size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        index = batches_.size();
        batches_.emplace_back();
      }
      for (BatchScheduler::Ticket& ticket : batch) {
        const std::string& tag = ticket.fingerprint.canonical;
        {
          std::unique_lock<std::mutex> lock(mu_);
          order_.push_back(tag);
          batches_[index].push_back(tag);
          threads_.push_back(std::this_thread::get_id());
          if (tag == hold_) {
            holding_ = true;
            cv_.notify_all();
            cv_.wait(lock, [this] { return released_; });
          }
        }
        ticket.promise.Resolve(core::AnswerResult());
      }
    };
  }

  /// Block until the `hold` ticket is executing.
  void AwaitHolding() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return holding_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  std::vector<std::string> order() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }
  std::vector<std::vector<std::string>> batches() {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }
  std::vector<std::thread::id> threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 private:
  const std::string hold_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool holding_ = false;
  bool released_ = false;
  std::vector<std::string> order_;
  std::vector<std::vector<std::string>> batches_;
  std::vector<std::thread::id> threads_;
};

BatchScheduler::Options Slots(size_t slots) {
  BatchScheduler::Options options;
  options.queue_capacity = 8;
  options.slots = slots;
  return options;
}

TEST(BatchSchedulerAdmissionTest, IdleSyncTicketRunsOnTheCallingThread) {
  RecordingExecutor executor;
  BatchScheduler scheduler(Slots(1), executor.Fn());
  BatchScheduler::Ticket ticket = TaggedTicket("a");
  AnswerFuture future = ticket.promise.future();
  ASSERT_TRUE(scheduler.RunInlineOrSubmit(std::move(ticket)));
  // Inline: resolved before RunInlineOrSubmit returned, on this thread.
  EXPECT_TRUE(future.Ready());
  ASSERT_EQ(executor.threads().size(), 1u);
  EXPECT_EQ(executor.threads()[0], std::this_thread::get_id());
  const BatchScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.inline_runs, 1u);
  EXPECT_EQ(stats.batches_formed, 1u);
  EXPECT_EQ(stats.batch_members, 1u);
}

TEST(BatchSchedulerAdmissionTest, SubmitNeverRunsOnTheCaller) {
  RecordingExecutor executor("a");
  BatchScheduler scheduler(Slots(1), executor.Fn());
  BatchScheduler::Ticket ticket = TaggedTicket("a");
  AnswerFuture future = ticket.promise.future();
  // The ticket's execution blocks until Release(), so Submit returning at
  // all proves the caller never executes it.
  ASSERT_TRUE(scheduler.Submit(std::move(ticket)));
  executor.AwaitHolding();
  EXPECT_FALSE(future.Ready());
  executor.Release();
  EXPECT_TRUE(future.Get().ok());
  ASSERT_EQ(executor.threads().size(), 1u);
  EXPECT_NE(executor.threads()[0], std::this_thread::get_id());
  EXPECT_EQ(scheduler.stats().inline_runs, 0u);
}

TEST(BatchSchedulerAdmissionTest, BusySlotsQueueSyncTicketsInArrivalOrder) {
  RecordingExecutor executor("a");
  BatchScheduler scheduler(Slots(1), executor.Fn());
  // "a" takes the only slot inline on its own thread and holds it.
  std::thread holder([&scheduler] {
    EXPECT_TRUE(scheduler.RunInlineOrSubmit(TaggedTicket("a")));
  });
  executor.AwaitHolding();
  // Every later synchronous arrival queues behind it, in arrival order.
  std::vector<AnswerFuture> futures;
  for (const char* tag : {"b", "c", "d"}) {
    BatchScheduler::Ticket ticket = TaggedTicket(tag);
    futures.push_back(ticket.promise.future());
    ASSERT_TRUE(scheduler.RunInlineOrSubmit(std::move(ticket)));
  }
  EXPECT_EQ(scheduler.QueueDepth(), 3u);
  executor.Release();
  holder.join();
  for (AnswerFuture& f : futures) EXPECT_TRUE(f.Get().ok());
  EXPECT_EQ(executor.order(), (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_EQ(scheduler.stats().inline_runs, 1u);
  EXPECT_EQ(scheduler.QueueDepth(), 0u);
}

TEST(BatchSchedulerAdmissionTest, LateArrivalNeverRunsAheadOfAQueuedTicket) {
  // The slot an inline run frees is free for a moment before an executor
  // thread picks up the ticket queued behind it. A late arrival in that
  // gap must queue, not run inline. The gap is a race, so try it often.
  for (int round = 0; round < 50; ++round) {
    RecordingExecutor executor("a");
    BatchScheduler scheduler(Slots(1), executor.Fn());
    BatchScheduler::Ticket first = TaggedTicket("a");
    AnswerFuture first_done = first.promise.future();
    std::thread holder([&scheduler, &first] {
      EXPECT_TRUE(scheduler.RunInlineOrSubmit(std::move(first)));
    });
    executor.AwaitHolding();
    ASSERT_TRUE(scheduler.RunInlineOrSubmit(TaggedTicket("b")));  // queued
    executor.Release();
    EXPECT_TRUE(first_done.Get().ok());
    // "a" has resolved: its slot frees any moment now, if not already.
    BatchScheduler::Ticket late = TaggedTicket("late");
    AnswerFuture late_done = late.promise.future();
    ASSERT_TRUE(scheduler.RunInlineOrSubmit(std::move(late)));
    EXPECT_TRUE(late_done.Get().ok());
    holder.join();
    ASSERT_EQ(executor.order(),
              (std::vector<std::string>{"a", "b", "late"}))
        << "round " << round;
  }
}

TEST(BatchSchedulerAdmissionTest, FullQueueRejectsWithoutResolving) {
  RecordingExecutor executor("a");
  BatchScheduler::Options options = Slots(1);
  options.queue_capacity = 1;
  BatchScheduler scheduler(options, executor.Fn());
  std::thread holder([&scheduler] {
    EXPECT_TRUE(scheduler.RunInlineOrSubmit(TaggedTicket("a")));
  });
  executor.AwaitHolding();
  ASSERT_TRUE(scheduler.RunInlineOrSubmit(TaggedTicket("b")));  // queued
  BatchScheduler::Ticket late = TaggedTicket("c");
  AnswerFuture rejected = late.promise.future();
  // The caller owns the rejection: the promise stays unresolved.
  EXPECT_FALSE(scheduler.RunInlineOrSubmit(std::move(late)));
  EXPECT_FALSE(rejected.Ready());
  executor.Release();
  holder.join();
  EXPECT_EQ(scheduler.stats().rejected, 1u);
}

using Batches = std::vector<std::vector<std::string>>;

/// The batches that leave the queue when b(k1) c(k2) d(k1) e(k1) queue, in
/// that order, behind "a" holding the only slot.
Batches BatchesBehindAHold(size_t max_batch) {
  RecordingExecutor executor("a");
  BatchScheduler::Options options = Slots(1);
  options.max_batch = max_batch;
  BatchScheduler scheduler(options, executor.Fn());
  EXPECT_TRUE(scheduler.Submit(TaggedTicket("a", "k1")));
  executor.AwaitHolding();
  const std::vector<std::pair<std::string, std::string>> queued = {
      {"b", "k1"}, {"c", "k2"}, {"d", "k1"}, {"e", "k1"}};
  std::vector<AnswerFuture> futures;
  for (const auto& [tag, key] : queued) {
    BatchScheduler::Ticket ticket = TaggedTicket(tag, key);
    futures.push_back(ticket.promise.future());
    EXPECT_TRUE(scheduler.Submit(std::move(ticket)));
  }
  EXPECT_EQ(scheduler.QueueDepth(), queued.size());
  executor.Release();
  for (AnswerFuture& f : futures) EXPECT_TRUE(f.Get().ok());
  const BatchScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.batch_members, 1 + queued.size());
  EXPECT_EQ(stats.batches_formed, executor.batches().size());
  return executor.batches();
}

TEST(BatchSchedulerAdmissionTest, OldestTicketLeadsItsQueuedSameKeyPeers) {
  EXPECT_EQ(BatchesBehindAHold(8), (Batches{{"a"}, {"b", "d", "e"}, {"c"}}));
}

TEST(BatchSchedulerAdmissionTest, MaxBatchCapsEachBatch) {
  EXPECT_EQ(BatchesBehindAHold(2),
            (Batches{{"a"}, {"b", "d"}, {"c"}, {"e"}}));
  // One ticket per batch is the unbatched control.
  EXPECT_EQ(BatchesBehindAHold(1),
            (Batches{{"a"}, {"b"}, {"c"}, {"d"}, {"e"}}));
}

TEST(BatchSchedulerAdmissionTest, DestructionResolvesEveryQueuedTicket) {
  RecordingExecutor executor("a");
  BatchScheduler::Options options = Slots(1);
  // Room for every ticket the loop below queues before intake stops, so
  // a refusal can only mean shutdown.
  options.queue_capacity = 4096;
  auto scheduler = std::make_unique<BatchScheduler>(options, executor.Fn());
  BatchScheduler* const live = scheduler.get();
  ASSERT_TRUE(live->Submit(TaggedTicket("a")));
  executor.AwaitHolding();
  std::vector<AnswerFuture> queued;
  const auto submit = [live, &queued] {
    BatchScheduler::Ticket ticket = TaggedTicket("queued");
    AnswerFuture future = ticket.promise.future();
    if (!live->Submit(std::move(ticket))) return false;
    queued.push_back(std::move(future));
    return true;
  };
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(submit());
  // The destructor stops intake at once, then waits for the executor,
  // which "a" holds: the scheduler stays alive until Release().
  std::thread destroyer([&scheduler] { scheduler.reset(); });
  while (submit()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_LT(queued.size(), options.queue_capacity);
  EXPECT_EQ(live->QueueDepth(), queued.size());
  executor.Release();
  destroyer.join();
  for (AnswerFuture& f : queued) EXPECT_TRUE(f.Ready());
  EXPECT_EQ(executor.order().size(), 1 + queued.size());
}

// ---- ServeEngine on a trained model -----------------------------------

class ServeEngineTest : public ::testing::Test {
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
    config.trainer.iterations = 8;
    config.trainer.episodes_per_iteration = 4;
    config.trainer.num_workers = 1;
    config.trainer.learning_rate = 2e-3;
    config.trainer.hidden_dim = 64;
    config.seed = 3;
    // One-row morsels, so the served queries' operators over more than
    // one row take their parallel branches on the engine's pool (one
    // morsel runs inline).
    config.exec_morsel_rows = 1;
    // Route every query through the approximation set, so batch members
    // share scans whether or not FineTuneInvalidatesCachedAnswers has
    // already retrained the shared model: this short training leaves
    // every test query below the default threshold, on the full-database
    // path, which the shared scan never serves.
    config.answerable_threshold = 0.0;
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

  static ServeOptions SmallServe() {
    ServeOptions options;
    options.max_inflight = 2;
    options.queue_capacity = 8;
    options.pool_threads = 2;
    options.cache_bytes = 4 << 20;
    options.cache_shards = 4;
    return options;
  }

  /// One slot, for a testing::SlotHold to hold.
  static ServeOptions HeldServe() {
    ServeOptions options = SmallServe();
    options.max_inflight = 1;
    return options;
  }

  static std::vector<std::string> Keys(const exec::ResultSet& rs) {
    std::vector<std::string> keys;
    keys.reserve(rs.num_rows());
    for (size_t i = 0; i < rs.num_rows(); ++i) keys.push_back(rs.RowKey(i));
    return keys;
  }

  static data::DatasetBundle* bundle_;
  static std::unique_ptr<core::AsqpModel> model_;
};

data::DatasetBundle* ServeEngineTest::bundle_ = nullptr;
std::unique_ptr<core::AsqpModel> ServeEngineTest::model_ = nullptr;

const char kQuery[] =
    "SELECT t.name, ci.role FROM title t, cast_info ci "
    "WHERE ci.movie_id = t.id AND t.production_year >= 2000";

TEST_F(ServeEngineTest, RepeatQueryIsServedFromCache) {
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult cold, engine.AnswerSql(kQuery));
  EXPECT_FALSE(cold.from_cache);
  ASSERT_OK_AND_ASSIGN(core::AnswerResult warm, engine.AnswerSql(kQuery));
  EXPECT_TRUE(warm.from_cache);
  // Byte-identical: same column names, same rows in the same order.
  EXPECT_EQ(warm.result.column_names(), cold.result.column_names());
  EXPECT_EQ(Keys(warm.result), Keys(cold.result));
  EXPECT_EQ(warm.used_approximation, cold.used_approximation);
  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.admitted, 1u);  // the hit never took a slot
}

TEST_F(ServeEngineTest, EquivalentSpellingsShareOneEntry) {
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult first,
                       engine.AnswerSql(
                           "SELECT t.name, ci.role FROM title t, cast_info ci "
                           "WHERE ci.movie_id = t.id "
                           "AND t.production_year >= 2000"));
  EXPECT_FALSE(first.from_cache);
  // Different aliases, flipped join operands, flipped >= to <=, reordered
  // conjuncts — same query, must hit.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult second,
                       engine.AnswerSql(
                           "SELECT x.name, y.role FROM title x, cast_info y "
                           "WHERE 2000 <= x.production_year "
                           "AND x.id = y.movie_id"));
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(Keys(second.result), Keys(first.result));
  EXPECT_EQ(engine.cache().stats().entries, 1u);
}

TEST_F(ServeEngineTest, BetweenAndPairedInequalitiesShareOneEntry) {
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult first,
                       engine.AnswerSql(
                           "SELECT t.name FROM title t "
                           "WHERE t.production_year BETWEEN 1990 AND 2005"));
  EXPECT_FALSE(first.from_cache);
  // The canonicalizer expands BETWEEN into its conjunct parts, so the
  // paired-inequality spelling lands on the same fingerprint — and the
  // differential suite proves the two spellings execute to identical
  // bytes, so handing one the other's cached answer is sound.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult second,
                       engine.AnswerSql(
                           "SELECT t.name FROM title t "
                           "WHERE t.production_year >= 1990 "
                           "AND t.production_year <= 2005"));
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(Keys(second.result), Keys(first.result));
  EXPECT_EQ(engine.cache().stats().entries, 1u);
}

TEST_F(ServeEngineTest, ZeroCacheBytesAlwaysExecutes) {
  ServeOptions options = SmallServe();
  options.cache_bytes = 0;
  ServeEngine engine(model_.get(), options);
  ASSERT_OK_AND_ASSIGN(core::AnswerResult a, engine.AnswerSql(kQuery));
  ASSERT_OK_AND_ASSIGN(core::AnswerResult b, engine.AnswerSql(kQuery));
  EXPECT_FALSE(a.from_cache);
  EXPECT_FALSE(b.from_cache);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(Keys(a.result), Keys(b.result));
}

TEST_F(ServeEngineTest, AnswerSqlMatchesAnswerOfTheParsedStatement) {
  // AnswerSql binds its parsed statement in place, and the estimator and
  // the drift list read that bound statement; Answer(stmt) binds a copy
  // of the caller's. With the cache off every request executes: the
  // answers must be byte-identical and the drift list must grow alike.
  ServeOptions options = SmallServe();
  options.cache_bytes = 0;
  ServeEngine engine(model_.get(), options);
  const std::vector<std::string> queries = {
      kQuery,
      "SELECT x.name, y.role FROM title x, cast_info y "
      "WHERE 2000 <= x.production_year AND x.id = y.movie_id",
      "SELECT p.name FROM person p WHERE p.birth_year < 1930",
      "SELECT t.genre, COUNT(*) AS n FROM title t WHERE t.rating > 7 "
      "GROUP BY t.genre",
      "SELECT c.name, mc.note FROM company c, movie_companies mc "
      "WHERE mc.company_id = c.id AND c.country IN ('us', 'fr')",
  };
  size_t drifted = 0;
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    const size_t before = model_->drifted_query_count();
    ASSERT_OK_AND_ASSIGN(core::AnswerResult text, engine.AnswerSql(sql));
    const size_t after_text = model_->drifted_query_count();
    ASSERT_OK_AND_ASSIGN(sql::SelectStatement stmt, sql::Parse(sql));
    ASSERT_OK_AND_ASSIGN(core::AnswerResult parsed, engine.Answer(stmt));
    const size_t after_parsed = model_->drifted_query_count();
    EXPECT_EQ(after_parsed - after_text, after_text - before);
    drifted += after_text - before;
    EXPECT_FALSE(text.from_cache);
    EXPECT_FALSE(parsed.from_cache);
    EXPECT_EQ(text.result.column_names(), parsed.result.column_names());
    EXPECT_EQ(Keys(text.result), Keys(parsed.result));
    EXPECT_EQ(text.used_approximation, parsed.used_approximation);
    EXPECT_EQ(text.tier, parsed.tier);
    // Bit for bit: the estimate on the bound statement is the written
    // statement's (`stmt` is still unbound: Answer bound a copy).
    EXPECT_EQ(std::memcmp(&text.answerability, &parsed.answerability,
                          sizeof(double)),
              0);
    const double written = model_->EstimateAnswerability(stmt);
    EXPECT_EQ(std::memcmp(&text.answerability, &written, sizeof(double)), 0);
  }
  // At least one query is out of distribution, so the drift list is
  // exercised, not just left alone by both paths.
  EXPECT_GE(drifted, 1u);
}

TEST_F(ServeEngineTest, AnswersAreIdenticalAcrossPoolSizes) {
  // The acceptance bar: cached answers byte-identical to uncached ones at
  // every thread count. Serve the same query through pools of 1, 2, and 4
  // workers (cold + warm each) and through the bare model; every result
  // must match row-for-row.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult direct,
                       model_->AnswerSql(kQuery));
  const std::vector<std::string> want = Keys(direct.result);
  for (size_t pool_threads : {1u, 2u, 4u}) {
    ServeOptions options = SmallServe();
    options.pool_threads = pool_threads;
    ServeEngine engine(model_.get(), options);
    ASSERT_OK_AND_ASSIGN(core::AnswerResult cold, engine.AnswerSql(kQuery));
    ASSERT_OK_AND_ASSIGN(core::AnswerResult warm, engine.AnswerSql(kQuery));
    EXPECT_FALSE(cold.from_cache);
    EXPECT_TRUE(warm.from_cache);
    EXPECT_EQ(Keys(cold.result), want) << "pool_threads=" << pool_threads;
    EXPECT_EQ(Keys(warm.result), want) << "pool_threads=" << pool_threads;
    EXPECT_EQ(cold.result.column_names(), direct.result.column_names());
  }
}

TEST_F(ServeEngineTest, FineTuneInvalidatesCachedAnswers) {
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult cold, engine.AnswerSql(kQuery));
  ASSERT_OK_AND_ASSIGN(core::AnswerResult warm, engine.AnswerSql(kQuery));
  ASSERT_TRUE(warm.from_cache);
  ASSERT_GE(engine.cache().stats().entries, 1u);

  const uint64_t generation_before = model_->generation();
  ASSERT_OK_AND_ASSIGN(
      metric::Workload drift,
      metric::Workload::FromSql(
          {"SELECT p.name FROM person p WHERE p.birth_year > 1980",
           "SELECT p.name, p.birth_year FROM person p "
           "WHERE p.birth_year < 1950"}));
  ASSERT_OK(engine.FineTune(drift));
  EXPECT_GT(model_->generation(), generation_before);
  // The eager sweep emptied the cache...
  EXPECT_EQ(engine.cache().stats().entries, 0u);
  // ...so the next Answer re-executes against the new approximation set.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult fresh, engine.AnswerSql(kQuery));
  EXPECT_FALSE(fresh.from_cache);
  ASSERT_OK_AND_ASSIGN(core::AnswerResult rewarmed, engine.AnswerSql(kQuery));
  EXPECT_TRUE(rewarmed.from_cache);
  (void)cold;
}

TEST_F(ServeEngineTest, SharedRowsMissAndHitsOnAnySpellingShareOneRowsObject) {
  // The miss that fills the entry and every later hit hand out one rows
  // object, whichever spelling and path the hit takes.
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult miss, engine.AnswerSql(kQuery));
  ASSERT_FALSE(miss.from_cache);
  ASSERT_GT(miss.result.num_rows(), 0u);
  // A respelling and the first text again take the full front half, which
  // memoizes them; the first text through a future is then a memo hit.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult respelled,
                       engine.AnswerSql(
                           "SELECT x.name, y.role FROM title x, cast_info y "
                           "WHERE 2000 <= x.production_year "
                           "AND x.id = y.movie_id"));
  ASSERT_OK_AND_ASSIGN(core::AnswerResult repeated, engine.AnswerSql(kQuery));
  ASSERT_OK_AND_ASSIGN(core::AnswerResult waited,
                       engine.AnswerSqlAsync(kQuery).Get());
  for (const core::AnswerResult* hit : {&respelled, &repeated, &waited}) {
    EXPECT_TRUE(hit->from_cache);
    EXPECT_EQ(&hit->result.rows(), &miss.result.rows());
    // Hits keep the first spelling's column names.
    EXPECT_EQ(hit->result.column_names(), miss.result.column_names());
  }
  EXPECT_EQ(engine.stats().memo_hits, 1u);
}

TEST_F(ServeEngineTest, SharedRowsBatchDuplicatesShareOneRowsObject) {
  ServeEngine engine(model_.get(), HeldServe());
  testing::SlotHold hold(&engine);
  const ServeEngine::Stats before = engine.stats();
  AnswerFuture a = engine.AnswerSqlAsync(
      "SELECT t.name FROM title t WHERE t.production_year >= 1990");
  AnswerFuture b = engine.AnswerSqlAsync(
      "SELECT x.name FROM title x WHERE 1990 <= x.production_year");
  hold.Release();
  ASSERT_OK_AND_ASSIGN(core::AnswerResult ra, a.Get());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult rb, b.Get());
  ASSERT_EQ(engine.stats().admitted - before.admitted, 1u);
  ASSERT_GT(ra.result.num_rows(), 0u);
  EXPECT_EQ(&rb.result.rows(), &ra.result.rows());
  // The entry the batch filled shares them too.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult hit,
                       engine.AnswerSql(
                           "SELECT t.name FROM title t "
                           "WHERE t.production_year >= 1990"));
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(&hit.result.rows(), &ra.result.rows());
}

TEST_F(ServeEngineTest, SharedRowsHitAfterFineTuneIsNotTheOldGenerations) {
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult old_miss, engine.AnswerSql(kQuery));
  ASSERT_OK_AND_ASSIGN(core::AnswerResult old_hit, engine.AnswerSql(kQuery));
  ASSERT_TRUE(old_hit.from_cache);
  ASSERT_GT(old_hit.result.num_rows(), 0u);
  ASSERT_EQ(&old_hit.result.rows(), &old_miss.result.rows());

  ASSERT_OK_AND_ASSIGN(
      metric::Workload drift,
      metric::Workload::FromSql(
          {"SELECT p.name FROM person p WHERE p.birth_year > 1975",
           "SELECT p.name, p.birth_year FROM person p "
           "WHERE p.birth_year < 1955"}));
  ASSERT_OK(engine.FineTune(drift));
  ASSERT_OK_AND_ASSIGN(core::AnswerResult fresh, engine.AnswerSql(kQuery));
  ASSERT_OK_AND_ASSIGN(core::AnswerResult new_hit, engine.AnswerSql(kQuery));
  EXPECT_FALSE(fresh.from_cache);
  EXPECT_TRUE(new_hit.from_cache);
  // old_hit keeps the old rows alive, so their address cannot be reused.
  EXPECT_NE(&new_hit.result.rows(), &old_hit.result.rows());
  EXPECT_EQ(&new_hit.result.rows(), &fresh.result.rows());
  EXPECT_EQ(Keys(new_hit.result), Keys(fresh.result));
}

TEST_F(ServeEngineTest, TopKEntryIsChargedWhatItHolds) {
  // A top-1 over the join sorts every joined row; the entry it fills must
  // hold, and be charged for, its one row only.
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult join, engine.AnswerSql(kQuery));
  ASSERT_GT(join.result.num_rows(), 1u);
  const size_t before = engine.cache().stats().bytes;
  ASSERT_OK_AND_ASSIGN(core::AnswerResult top,
                       engine.AnswerSql(std::string(kQuery) +
                                        " ORDER BY t.name LIMIT 1"));
  ASSERT_FALSE(top.from_cache);
  ASSERT_EQ(top.result.num_rows(), 1u);
  ASSERT_EQ(engine.cache().stats().entries, 2u);
  const exec::ResultSet::Rows& rows = top.result.rows();
  EXPECT_EQ(rows.capacity(), 1u);
  EXPECT_EQ(rows[0].capacity(), rows[0].size());
  // What the shared rows block allocates, by capacity.
  size_t held = rows.capacity() * sizeof(exec::ResultSet::Row);
  for (const auto& row : rows) held += row.capacity() * sizeof(storage::Value);
  EXPECT_GE(engine.cache().stats().bytes - before, held);
  ASSERT_OK_AND_ASSIGN(core::AnswerResult hit,
                       engine.AnswerSql(std::string(kQuery) +
                                        " ORDER BY t.name LIMIT 1"));
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(&hit.result.rows(), &rows);
}

TEST_F(ServeEngineTest, DegradedAnswersAreNotCached) {
  ServeEngine engine(model_.get(), SmallServe());
  // An impossible deadline forces the approximation attempt to degrade to
  // the full-database fallback path; those answers must not be cached.
  util::ExecContext context;
  context.set_deadline(util::Deadline::AfterSeconds(0.0));
  auto result = engine.AnswerSql(kQuery, context);
  if (result.ok() && result.value().fell_back) {
    EXPECT_EQ(engine.cache().stats().entries, 0u);
  }
  // Either way the expired context must not have poisoned the cache with
  // a partial answer: a follow-up unlimited query is a cold execution.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult after, engine.AnswerSql(kQuery));
  EXPECT_FALSE(after.from_cache);
}

TEST_F(ServeEngineTest, DeadOnArrivalRequestsNeverTakeAnAdmissionSlot) {
  ServeEngine engine(model_.get(), SmallServe());
  // Already-expired deadline: turned away with a typed error before
  // binding, caching, or admission are even consulted.
  util::ExecContext expired;
  expired.set_deadline(util::Deadline::AfterSeconds(0.0));
  util::Result<core::AnswerResult> late = engine.AnswerSql(kQuery, expired);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kDeadlineExceeded);

  // Already-cancelled: same fast path, typed kCancelled.
  util::ExecContext cancelled;
  cancelled.RequestCancel();
  util::Result<core::AnswerResult> gone =
      engine.AnswerSql(kQuery, cancelled);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), util::StatusCode::kCancelled);

  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.expired_fast_path, 2u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(engine.cache().stats().entries, 0u);

  // The engine is unharmed: a live request still executes normally.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult healthy, engine.AnswerSql(kQuery));
  EXPECT_FALSE(healthy.from_cache);
  EXPECT_EQ(engine.stats().admitted, 1u);
}

TEST_F(ServeEngineTest, FromConfigDerivesKnobs) {
  core::AsqpConfig config;
  config.serve_max_inflight = 3;
  config.serve_queue_capacity = 5;
  config.serve_pool_threads = 0;
  config.exec_threads = 4;
  config.cache_bytes = 1 << 20;
  ServeOptions options = ServeOptions::FromConfig(config);
  EXPECT_EQ(options.max_inflight, 3u);
  EXPECT_EQ(options.queue_capacity, 5u);
  EXPECT_EQ(options.pool_threads, 3u);  // exec_threads - 1
  EXPECT_EQ(options.cache_bytes, size_t{1} << 20);
  config.serve_pool_threads = 7;
  EXPECT_EQ(ServeOptions::FromConfig(config).pool_threads, 7u);
  EXPECT_TRUE(options.shed_to_learned);  // default on
  config.serve_shed_to_learned = false;
  EXPECT_FALSE(ServeOptions::FromConfig(config).shed_to_learned);
  EXPECT_EQ(options.batch_max_queries, 8u);
  config.serve_batch_max_queries = 3;
  EXPECT_EQ(ServeOptions::FromConfig(config).batch_max_queries, 3u);
}

// ---- Batched / async serving ------------------------------------------

// Queries over one table with distinct predicates: the batch shares a
// single scan pass while each member keeps its own filter results.
const char kTitleRecent[] =
    "SELECT t.name FROM title t WHERE t.production_year >= 2000";
const char kTitleOld[] =
    "SELECT t.name FROM title t WHERE t.production_year < 1960";
const char kPersonQuery[] =
    "SELECT p.name FROM person p WHERE p.birth_year > 1970";

TEST_F(ServeEngineTest, BatchedAnswersAreByteIdenticalToUnbatched) {
  const std::vector<std::string> sqls = {kQuery, kTitleRecent, kTitleOld,
                                         kPersonQuery};
  // Unbatched reference answers first (one engine at a time: each engine
  // re-routes the model's execution pool through itself).
  std::vector<std::vector<std::string>> want;
  std::vector<std::vector<std::string>> want_columns;
  {
    ServeEngine plain(model_.get(), SmallServe());
    for (const std::string& sql : sqls) {
      ASSERT_OK_AND_ASSIGN(core::AnswerResult r, plain.AnswerSql(sql));
      want.push_back(Keys(r.result));
      want_columns.push_back(r.result.column_names());
    }
  }
  ServeEngine batched(model_.get(), HeldServe());
  testing::SlotHold hold(&batched);
  const ServeEngine::Stats before = batched.stats();
  std::vector<AnswerFuture> futures;
  futures.reserve(sqls.size());
  for (const std::string& sql : sqls) {
    futures.push_back(batched.AnswerSqlAsync(sql));
  }
  hold.Release();
  for (size_t i = 0; i < sqls.size(); ++i) {
    util::Result<core::AnswerResult> got = futures[i].Get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Keys(got.value().result), want[i]) << sqls[i];
    EXPECT_EQ(got.value().result.column_names(), want_columns[i]);
  }
  // The join, the two title queries as one batch, and the person query.
  const ServeEngine::Stats stats = batched.stats();
  EXPECT_EQ(stats.served - before.served, sqls.size());
  EXPECT_EQ(stats.batches_formed - before.batches_formed, 3u);
  EXPECT_EQ(stats.batch_members - before.batch_members, sqls.size());
}

TEST_F(ServeEngineTest, SameTablePredicatesShareOneBatchAndOneScan) {
  ServeEngine engine(model_.get(), HeldServe());
  testing::SlotHold hold(&engine);
  const ServeEngine::Stats before = engine.stats();
  AnswerFuture a = engine.AnswerSqlAsync(kTitleRecent);
  AnswerFuture b = engine.AnswerSqlAsync(kTitleOld);
  EXPECT_EQ(engine.stats().queue_depth, 2u);
  hold.Release();
  util::Result<core::AnswerResult> ra = a.Get();
  util::Result<core::AnswerResult> rb = b.Get();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  const ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.batches_formed - before.batches_formed, 1u);
  EXPECT_EQ(stats.batch_members - before.batch_members, 2u);
  // Two members over one table: the shared pass saved one scan.
  EXPECT_GE(stats.shared_scan_saved - before.shared_scan_saved, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(ServeEngineTest, EquivalentSpellingsDeduplicateWithinABatch) {
  ServeEngine engine(model_.get(), HeldServe());
  testing::SlotHold hold(&engine);
  const ServeEngine::Stats before = engine.stats();
  const size_t entries_before = engine.cache().stats().entries;
  // Same query in two spellings (flipped inequality): one execution
  // serves both members.
  AnswerFuture a = engine.AnswerSqlAsync(
      "SELECT t.name FROM title t WHERE t.production_year >= 2000");
  AnswerFuture b = engine.AnswerSqlAsync(
      "SELECT t.name FROM title t WHERE 2000 <= t.production_year");
  hold.Release();
  util::Result<core::AnswerResult> ra = a.Get();
  util::Result<core::AnswerResult> rb = b.Get();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(Keys(ra.value().result), Keys(rb.value().result));
  const ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.batch_members - before.batch_members, 2u);
  // One representative executed.
  EXPECT_EQ(stats.admitted - before.admitted, 1u);
  EXPECT_GE(stats.shared_scan_saved - before.shared_scan_saved, 1u);
  EXPECT_EQ(engine.cache().stats().entries, entries_before + 1);
}

TEST_F(ServeEngineTest, BatchMembersResolveOnceTheWholeBatchIsAnswered) {
  ServeEngine engine(model_.get(), HeldServe());
  testing::SlotHold hold(&engine);
  const ServeEngine::Stats before = engine.stats();
  const uint64_t answered_before = model_->answer_stats().answered;
  std::vector<AnswerFuture> futures;
  for (const char* sql :
       {kTitleRecent, kTitleOld,
        "SELECT t.name FROM title t WHERE t.rating > 8"}) {
    futures.push_back(engine.AnswerSqlAsync(sql));
  }
  // Registered while the members queue behind the hold, so it runs on the
  // executor thread the moment the first member resolves.
  std::atomic<uint64_t> answered_at_first{0};
  std::atomic<uint64_t> saved_at_first{0};
  futures[0].OnReady([&](const util::Result<core::AnswerResult>&) {
    answered_at_first.store(model_->answer_stats().answered);
    saved_at_first.store(engine.stats().shared_scan_saved);
  });
  hold.Release();
  for (AnswerFuture& f : futures) {
    util::Result<core::AnswerResult> r = f.Get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().tier, core::AnswerTier::kApproximation);
  }
  const ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.batches_formed - before.batches_formed, 1u);
  EXPECT_EQ(stats.batch_members - before.batch_members, futures.size());
  EXPECT_GE(stats.shared_scan_saved - before.shared_scan_saved, 2u);
  // Promises resolve after the whole batch has run: when the first member
  // resolves, every peer is answered and the shared scan is credited.
  EXPECT_EQ(answered_at_first.load(), answered_before + futures.size());
  EXPECT_EQ(saved_at_first.load(), stats.shared_scan_saved);
}

TEST_F(ServeEngineTest, DisjointTableQueriesNeverShareABatch) {
  ServeEngine engine(model_.get(), HeldServe());
  testing::SlotHold hold(&engine);
  const ServeEngine::Stats before = engine.stats();
  AnswerFuture t1 = engine.AnswerSqlAsync(kTitleRecent);
  AnswerFuture p1 = engine.AnswerSqlAsync(kPersonQuery);
  AnswerFuture t2 = engine.AnswerSqlAsync(kTitleOld);
  AnswerFuture p2 = engine.AnswerSqlAsync(
      "SELECT p.name FROM person p WHERE p.birth_year < 1940");
  hold.Release();
  for (AnswerFuture* f : {&t1, &p1, &t2, &p2}) {
    util::Result<core::AnswerResult> r = f->Get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const ServeEngine::Stats stats = engine.stats();
  // One batch per table set: [t1, t2], then [p1, p2].
  EXPECT_EQ(stats.batches_formed - before.batches_formed, 2u);
  EXPECT_EQ(stats.batch_members - before.batch_members, 4u);
}

TEST_F(ServeEngineTest, CompletionQueueMultiplexesManySessions) {
  ServeEngine engine(model_.get(), SmallServe());
  const std::vector<std::string> sqls = {kTitleRecent, kTitleOld,
                                         kPersonQuery, kQuery};
  CompletionQueue queue;
  for (size_t i = 0; i < sqls.size(); ++i) {
    queue.Track(engine.AnswerSqlAsync(sqls[i]), i);
  }
  std::vector<bool> seen(sqls.size(), false);
  size_t delivered = 0;
  while (auto done = queue.Next()) {
    ASSERT_LT(done->tag, seen.size());
    EXPECT_FALSE(seen[done->tag]) << "duplicate delivery";
    seen[done->tag] = true;
    ASSERT_TRUE(done->result.ok()) << done->result.status().ToString();
    ++delivered;
  }
  EXPECT_EQ(delivered, sqls.size());
  EXPECT_EQ(queue.pending(), 0u);
}

TEST_F(ServeEngineTest, SyncAnswerRidesTheBatchedPath) {
  std::vector<std::string> want;
  {
    ServeEngine plain(model_.get(), SmallServe());
    ASSERT_OK_AND_ASSIGN(core::AnswerResult r, plain.AnswerSql(kTitleRecent));
    want = Keys(r.result);
  }
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult got, engine.AnswerSql(kTitleRecent));
  EXPECT_EQ(Keys(got.result), want);
  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.batch_members, 1u);  // the sync call became a ticket
  // And the batched execution filled the answer cache as usual.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult warm, engine.AnswerSql(kTitleRecent));
  EXPECT_TRUE(warm.from_cache);
}

TEST_F(ServeEngineTest, AsyncFastPathRejectsDeadRequestsWithoutATicket) {
  ServeEngine engine(model_.get(), SmallServe());
  util::ExecContext expired;
  expired.set_deadline(util::Deadline::AfterSeconds(0.0));
  AnswerFuture late = engine.AnswerSqlAsync(kTitleRecent, expired);
  ASSERT_TRUE(late.Ready());  // resolved before return, no ticket queued
  util::Result<core::AnswerResult> r = late.Get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded);
  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.expired_fast_path, 1u);
  EXPECT_EQ(stats.batch_members, 0u);
}

// ---- Admission through the scheduler ----------------------------------

const char kLearnedAggregate[] =
    "SELECT COUNT(*) FROM title t WHERE t.production_year >= 2000";

TEST_F(ServeEngineTest, AdmissionSyncMissWithAFreeSlotRunsInline) {
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult cold, engine.AnswerSql(kQuery));
  EXPECT_FALSE(cold.from_cache);
  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.inline_runs, 1u);
  EXPECT_EQ(stats.batch_members, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
  // The hit never reaches the scheduler.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult warm, engine.AnswerSql(kQuery));
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(engine.stats().inline_runs, 1u);
}

TEST_F(ServeEngineTest, AdmissionAsyncNeverRunsOnTheCaller) {
  ServeEngine engine(model_.get(), SmallServe());
  std::vector<AnswerFuture> futures;
  for (const char* sql : {kTitleRecent, kTitleOld, kPersonQuery}) {
    futures.push_back(engine.AnswerSqlAsync(sql));
  }
  for (AnswerFuture& f : futures) {
    util::Result<core::AnswerResult> r = f.Get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.inline_runs, 0u);
  EXPECT_EQ(stats.batch_members, futures.size());
}

TEST_F(ServeEngineTest, AdmissionFullQueueRejectsTypedOrShedsToLearned) {
  ASSERT_NE(model_->current()->learned, nullptr);
  ServeOptions options = HeldServe();
  options.queue_capacity = 2;
  std::vector<AnswerFuture> queued;
  {
    ServeEngine engine(model_.get(), options);
    testing::SlotHold hold(&engine);
    const ServeEngine::Stats before = engine.stats();
    queued.push_back(engine.AnswerSqlAsync(kTitleRecent));
    queued.push_back(engine.AnswerSqlAsync(kTitleOld));
    ASSERT_EQ(engine.stats().queue_depth, 2u);

    // A join is outside the learned class: typed back-pressure.
    util::Result<core::AnswerResult> join = engine.AnswerSql(kQuery);
    ASSERT_FALSE(join.ok());
    EXPECT_EQ(join.status().code(), util::StatusCode::kResourceExhausted);
    AnswerFuture async_join = engine.AnswerSqlAsync(kQuery);
    ASSERT_TRUE(async_join.Ready());
    EXPECT_EQ(async_join.Get().status().code(),
              util::StatusCode::kResourceExhausted);

    // A learned-class aggregate is load-shed to the learned answerer.
    ASSERT_OK_AND_ASSIGN(core::AnswerResult shed,
                         engine.AnswerSql(kLearnedAggregate));
    EXPECT_EQ(shed.tier, core::AnswerTier::kLearned);
    EXPECT_EQ(shed.fallback_reason, "shed:queue_full");
    EXPECT_TRUE(shed.fell_back);

    const ServeEngine::Stats stats = engine.stats();
    EXPECT_EQ(stats.rejected, 3u);
    EXPECT_EQ(stats.shed_learned, 1u);
    EXPECT_EQ(stats.served - before.served, 1u);
  }
  for (AnswerFuture& f : queued) {
    util::Result<core::AnswerResult> r = f.Get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST_F(ServeEngineTest, AdmissionExpiryWhileQueuedShedsOrDegrades) {
  ASSERT_NE(model_->current()->learned, nullptr);
  ServeEngine engine(model_.get(), HeldServe());
  testing::SlotHold hold(&engine);
  const ServeEngine::Stats before = engine.stats();

  // Both tickets queue behind the hold and outlive their deadline there,
  // so each one's expiry is noticed when it leaves the queue.
  util::ExecContext context;
  context.set_deadline(util::Deadline::AfterSeconds(0.05));
  AnswerFuture aggregate = engine.AnswerSqlAsync(kLearnedAggregate, context);
  AnswerFuture join = engine.AnswerSqlAsync(kQuery, context);
  ASSERT_EQ(engine.stats().queue_depth, 2u);
  while (!context.deadline().Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  hold.Release();

  ASSERT_OK_AND_ASSIGN(core::AnswerResult shed, aggregate.Get());
  EXPECT_EQ(shed.tier, core::AnswerTier::kLearned);
  EXPECT_EQ(shed.fallback_reason, "shed:admission_deadline");
  util::Result<core::AnswerResult> degraded = join.Get();
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.status().code(), util::StatusCode::kDegraded);

  const ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.admission_expired - before.admission_expired, 2u);
  EXPECT_EQ(stats.admitted - before.admitted, 0u);
  EXPECT_EQ(stats.degraded - before.degraded, 1u);
}

// ---- Exact-text memo ---------------------------------------------------

/// Every field a client can read must match: a memo hit returns what the
/// full front half's cache hit returns.
void ExpectSameAnswer(const core::AnswerResult& got,
                      const core::AnswerResult& want) {
  EXPECT_EQ(got.result.column_names(), want.result.column_names());
  ASSERT_EQ(got.result.num_rows(), want.result.num_rows());
  for (size_t i = 0; i < got.result.num_rows(); ++i) {
    EXPECT_EQ(got.result.RowKey(i), want.result.RowKey(i)) << "row " << i;
  }
  EXPECT_EQ(got.used_approximation, want.used_approximation);
  EXPECT_EQ(got.tier, want.tier);
  EXPECT_EQ(std::memcmp(&got.answerability, &want.answerability,
                        sizeof(double)),
            0);
  EXPECT_EQ(got.fell_back, want.fell_back);
  EXPECT_EQ(got.fallback_reason, want.fallback_reason);
  EXPECT_EQ(got.error_estimate, want.error_estimate);
  EXPECT_EQ(got.from_cache, want.from_cache);
}

TEST_F(ServeEngineTest, MemoHitReturnsTheFullPathBytesForEverySpelling) {
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult cold, engine.AnswerSql(kQuery));
  ASSERT_FALSE(cold.from_cache);
  const std::vector<std::string> spellings = {
      kQuery,
      // Renamed aliases.
      "SELECT x.name, y.role FROM title x, cast_info y "
      "WHERE y.movie_id = x.id AND x.production_year >= 2000",
      // Flipped comparisons.
      "SELECT t.name, ci.role FROM title t, cast_info ci "
      "WHERE t.id = ci.movie_id AND 2000 <= t.production_year",
      // Reordered conjuncts.
      "SELECT t.name, ci.role FROM title t, cast_info ci "
      "WHERE t.production_year >= 2000 AND ci.movie_id = t.id",
      // Changed case.
      "select T.NAME, CI.ROLE from TITLE T, CAST_INFO CI "
      "where CI.MOVIE_ID = T.ID and T.PRODUCTION_YEAR >= 2000",
  };
  for (const std::string& sql : spellings) {
    SCOPED_TRACE(sql);
    const uint64_t memo_hits = engine.stats().memo_hits;
    // The full front half hits the cache and memoizes the text...
    ASSERT_OK_AND_ASSIGN(core::AnswerResult full, engine.AnswerSql(sql));
    EXPECT_EQ(engine.stats().memo_hits, memo_hits);
    EXPECT_TRUE(full.from_cache);
    // ...so the repeat is a memo hit with the same bytes, the first
    // spelling's column names included.
    ASSERT_OK_AND_ASSIGN(core::AnswerResult memo, engine.AnswerSql(sql));
    EXPECT_EQ(engine.stats().memo_hits, memo_hits + 1);
    ExpectSameAnswer(memo, full);
    EXPECT_EQ(memo.result.column_names(), cold.result.column_names());
  }
  const ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.memo_hits, spellings.size());
  EXPECT_EQ(stats.cache_hits, 2 * spellings.size());
  EXPECT_EQ(stats.served, 1 + 2 * spellings.size());
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(engine.memo().stats().entries, spellings.size());
}

TEST_F(ServeEngineTest, MemoizedTextWhoseEntryIsGoneTakesTheFullPath) {
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult cold, engine.AnswerSql(kQuery));
  for (int i = 0; i < 2; ++i) ASSERT_OK(engine.AnswerSql(kQuery).status());
  ASSERT_EQ(engine.stats().memo_hits, 1u);
  // The cache entry goes (as an eviction would take it); the text stays
  // memoized, and its next request executes again.
  engine.mutable_cache().Clear();
  ASSERT_OK_AND_ASSIGN(core::AnswerResult again, engine.AnswerSql(kQuery));
  EXPECT_FALSE(again.from_cache);
  EXPECT_EQ(Keys(again.result), Keys(cold.result));
  EXPECT_EQ(engine.stats().memo_hits, 1u);
  EXPECT_EQ(engine.stats().admitted, 2u);
  // The refilled entry is found through the memo again.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult memo, engine.AnswerSql(kQuery));
  EXPECT_TRUE(memo.from_cache);
  EXPECT_EQ(engine.stats().memo_hits, 2u);
  EXPECT_EQ(Keys(memo.result), Keys(cold.result));
}

TEST_F(ServeEngineTest, MemoNeverAdmitsParseOrBindFailures) {
  ServeEngine engine(model_.get(), SmallServe());
  for (const std::string sql :
       {"SELEC t.name FROM title t", "SELECT t.nope FROM title t",
        "SELECT t.name FROM no_such_table t"}) {
    SCOPED_TRACE(sql);
    const util::Result<core::AnswerResult> first = engine.AnswerSql(sql);
    ASSERT_FALSE(first.ok());
    for (int i = 0; i < 2; ++i) {
      const util::Result<core::AnswerResult> again = engine.AnswerSql(sql);
      ASSERT_FALSE(again.ok());
      EXPECT_EQ(again.status().code(), first.status().code());
      EXPECT_EQ(again.status().message(), first.status().message());
      util::Result<core::AnswerResult> async =
          engine.AnswerSqlAsync(sql).Get();
      ASSERT_FALSE(async.ok());
      EXPECT_EQ(async.status().code(), first.status().code());
    }
  }
  EXPECT_EQ(engine.memo().stats().admissions, 0u);
  EXPECT_EQ(engine.memo().stats().entries, 0u);
  EXPECT_EQ(engine.stats().served, 0u);
}

TEST_F(ServeEngineTest, MemoizedTextAfterFineTuneServesTheNewGeneration) {
  std::vector<std::string> served;
  {
    ServeEngine engine(model_.get(), SmallServe());
    for (int i = 0; i < 2; ++i) ASSERT_OK(engine.AnswerSql(kQuery).status());
    ASSERT_OK_AND_ASSIGN(core::AnswerResult stale, engine.AnswerSql(kQuery));
    ASSERT_EQ(engine.stats().memo_hits, 1u);
    ASSERT_TRUE(stale.from_cache);

    ASSERT_OK_AND_ASSIGN(
        metric::Workload drift,
        metric::Workload::FromSql(
            {"SELECT p.name FROM person p WHERE p.birth_year > 1985",
             "SELECT p.name, p.birth_year FROM person p "
             "WHERE p.birth_year < 1945"}));
    ASSERT_OK(engine.FineTune(drift));
    EXPECT_EQ(engine.memo().stats().entries, 0u);

    // The first answer after the fine-tune executes on the new
    // generation, never the memoized text's stale cached answer.
    ASSERT_OK_AND_ASSIGN(core::AnswerResult fresh, engine.AnswerSql(kQuery));
    EXPECT_FALSE(fresh.from_cache);
    EXPECT_EQ(engine.stats().memo_hits, 1u);
    ASSERT_OK_AND_ASSIGN(core::AnswerResult full, engine.AnswerSql(kQuery));
    ASSERT_OK_AND_ASSIGN(core::AnswerResult memo, engine.AnswerSql(kQuery));
    EXPECT_EQ(engine.stats().memo_hits, 2u);
    ExpectSameAnswer(memo, full);
    EXPECT_EQ(Keys(memo.result), Keys(fresh.result));
    served = Keys(memo.result);
  }
  // The new generation's answer, as an engine without a cache computes it.
  ServeOptions uncached = SmallServe();
  uncached.cache_bytes = 0;
  ServeEngine reference(model_.get(), uncached);
  ASSERT_OK_AND_ASSIGN(core::AnswerResult want, reference.AnswerSql(kQuery));
  EXPECT_EQ(served, Keys(want.result));
}

TEST_F(ServeEngineTest, MemoizedTextWithADeadContextGetsItsTypedStatus) {
  ServeEngine engine(model_.get(), SmallServe());
  for (int i = 0; i < 3; ++i) ASSERT_OK(engine.AnswerSql(kQuery).status());
  ASSERT_EQ(engine.stats().memo_hits, 1u);
  const ServeEngine::Stats before = engine.stats();

  util::ExecContext expired;
  expired.set_deadline(util::Deadline::AfterSeconds(0.0));
  util::ExecContext cancelled;
  cancelled.RequestCancel();
  const util::Result<core::AnswerResult> late =
      engine.AnswerSql(kQuery, expired);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kDeadlineExceeded);
  const util::Result<core::AnswerResult> gone =
      engine.AnswerSql(kQuery, cancelled);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), util::StatusCode::kCancelled);
  AnswerFuture late_async = engine.AnswerSqlAsync(kQuery, expired);
  ASSERT_TRUE(late_async.Ready());
  EXPECT_EQ(late_async.Get().status().code(),
            util::StatusCode::kDeadlineExceeded);

  const ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.expired_fast_path - before.expired_fast_path, 3u);
  EXPECT_EQ(stats.memo_hits, before.memo_hits);
  EXPECT_EQ(stats.cache_hits, before.cache_hits);
  EXPECT_EQ(stats.served, before.served);
}

TEST_F(ServeEngineTest, MoreRepeatedTextsThanTheMemoHoldsStayCorrect) {
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult cold, engine.AnswerSql(kQuery));
  // Distinct texts of one query (trailing blanks), three times as many
  // bytes as the memo holds.
  constexpr size_t kPad = 8192;
  const size_t count = 3 * engine.memo().byte_budget() / kPad;
  std::vector<std::string> texts;
  for (size_t i = 0; i < count; ++i) {
    texts.push_back(std::string(kQuery) + std::string(kPad + i, ' '));
  }
  for (int round = 0; round < 3; ++round) {
    for (const std::string& sql : texts) {
      ASSERT_OK_AND_ASSIGN(core::AnswerResult r, engine.AnswerSql(sql));
      ASSERT_TRUE(r.from_cache);
      ASSERT_EQ(Keys(r.result), Keys(cold.result));
      ASSERT_EQ(r.result.column_names(), cold.result.column_names());
    }
  }
  const TextMemo::Stats memo = engine.memo().stats();
  EXPECT_GT(memo.evictions, 0u);
  EXPECT_LE(memo.bytes, engine.memo().byte_budget());
  EXPECT_LT(memo.entries, count);
  EXPECT_EQ(engine.stats().cache_hits, 3 * count);
}

TEST_F(ServeEngineTest, NeverRepeatingStreamAdmitsNothing) {
  ServeEngine engine(model_.get(), SmallServe());
  for (int year = 1950; year < 1980; ++year) {
    ASSERT_OK_AND_ASSIGN(
        core::AnswerResult r,
        engine.AnswerSql("SELECT t.name FROM title t WHERE "
                         "t.production_year >= " +
                         std::to_string(year)));
    EXPECT_FALSE(r.from_cache);
  }
  const TextMemo::Stats memo = engine.memo().stats();
  EXPECT_EQ(memo.admissions, 0u);
  EXPECT_EQ(memo.entries, 0u);
  EXPECT_EQ(memo.misses, 30u);
  EXPECT_EQ(engine.stats().memo_hits, 0u);
}

TEST_F(ServeEngineTest, MemoWithoutACacheAdmitsNothing) {
  ServeOptions options = SmallServe();
  options.cache_bytes = 0;
  ServeEngine engine(model_.get(), options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(core::AnswerResult r, engine.AnswerSql(kQuery));
    EXPECT_FALSE(r.from_cache);
  }
  EXPECT_EQ(engine.memo().stats().admissions, 0u);
  EXPECT_EQ(engine.stats().memo_hits, 0u);
}

}  // namespace
}  // namespace serve
}  // namespace asqp
