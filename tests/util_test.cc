#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tests/testing.h"
#include "util/exec_context.h"
#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace asqp {
namespace util {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing table foo");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "missing table foo");
  EXPECT_EQ(st.ToString(), "NotFound: missing table foo");
}

TEST(StatusTest, CopyPreservesState) {
  Status st = Status::InvalidArgument("bad k");
  Status copy = st;
  EXPECT_EQ(copy.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(copy.message(), "bad k");
  EXPECT_EQ(st.message(), "bad k");
}

TEST(StatusTest, ResilienceCodes) {
  const Status cancelled = Status::Cancelled("user hit ctrl-c");
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.ToString(), "Cancelled: user hit ctrl-c");

  const Status exhausted = Status::ResourceExhausted("row budget");
  EXPECT_EQ(exhausted.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exhausted.ToString(), "ResourceExhausted: row budget");

  const Status late = Status::DeadlineExceeded("too slow");
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.ToString(), "DeadlineExceeded: too slow");
}

Status Innermost() { return Status::Cancelled("stop requested"); }
Status MiddleLayer() {
  ASQP_RETURN_NOT_OK(Innermost());
  return Status::OK();
}
Status OuterLayer() {
  ASQP_RETURN_NOT_OK(MiddleLayer());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagatesThroughNestedCalls) {
  const Status st = OuterLayer();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(st.message(), "stop requested");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  ASQP_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = Half(10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);

  Result<int> err = Half(3);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  ASSERT_OK(UseHalf(8, &out));
  EXPECT_EQ(out, 4);
  Status st = UseHalf(7, &out);
  EXPECT_FALSE(st.ok());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sumsq += v * v;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(RngTest, SampleIndicesDistinctAndSorted) {
  Rng rng(3);
  auto sample = rng.SampleIndices(100, 10);
  ASSERT_EQ(sample.size(), 10u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (size_t idx : sample) EXPECT_LT(idx, 100u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
}

TEST(RngTest, SampleIndicesAllWhenCountExceedsN) {
  Rng rng(3);
  auto sample = rng.SampleIndices(5, 10);
  ASSERT_EQ(sample.size(), 5u);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(5);
  int low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(100, 0.8) < 10) ++low;
  }
  // With theta=0.8 the first decile should receive far more than 10% mass.
  EXPECT_GT(low, n / 5);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(9);
  std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.WeightedIndex(weights), 1u);
  }
}

TEST(StringUtilTest, ToLowerAndTrim) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, SplitAndJoinRoundTrip) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, ","), "a,b,,c");
}

TEST(StringUtilTest, Fnv1aStableKnownValue) {
  // FNV-1a of the empty string is the offset basis.
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(Fnv1a("a"), Fnv1a("b"));
  EXPECT_EQ(Fnv1a("select"), Fnv1a("select"));
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(Format("k=%d f=%.1f s=%s", 3, 2.5, "x"), "k=3 f=2.5 s=x");
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RethrowsFirstTaskExceptionFromWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  pool.Submit([] { throw std::runtime_error("worker blew up"); });
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&finished] { finished.fetch_add(1); });
  }
  EXPECT_THROW(pool.WaitIdle(), std::runtime_error);
  EXPECT_EQ(finished.load(), 10);  // the crash did not kill other tasks

  // The pool stays usable: the exception was consumed by the rethrow.
  pool.Submit([&finished] { finished.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(finished.load(), 11);
}

TEST(ThreadPoolTest, ParallelForRethrowsWorkerException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelFor(20,
                                [](size_t i) {
                                  if (i == 7) {
                                    throw std::runtime_error("bad index");
                                  }
                                }),
               std::runtime_error);
  // Later batches run normally.
  std::atomic<int> hits{0};
  pool.ParallelFor(5, [&hits](size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 5);
}

TEST(ThreadPoolTest, ParallelForFinishesWhileEveryWorkerIsBusy) {
  // Both workers block until released, so ParallelFor's helper tasks queue
  // behind them. The caller claims every index itself and returns without
  // waiting for those helpers to start.
  ThreadPool pool(2);
  Latch release(1);
  for (int w = 0; w < 2; ++w) pool.Submit([&release] { release.Wait(); });
  std::vector<int> hits(8, 0);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
  release.CountDown();
  pool.WaitIdle();
}

TEST(ExecContextTest, UnlimitedByDefault) {
  ExecContext context;
  EXPECT_TRUE(context.IsUnlimited());
  EXPECT_OK(context.Check("work"));
  EXPECT_OK(context.CheckRows(1u << 30, "work"));
}

TEST(ExecContextTest, CancellationTripsCheck) {
  ExecContext context;
  context.EnableCancellation();
  EXPECT_FALSE(context.IsUnlimited());
  EXPECT_OK(context.Check("scan"));
  context.RequestCancel();
  const Status st = context.Check("scan");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

TEST(ExecContextTest, RowBudgetMapsToResourceExhausted) {
  ExecContext context;
  context.set_max_rows(100);
  EXPECT_OK(context.CheckRows(100, "join"));
  const Status st = context.CheckRows(101, "join");
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(DeadlineTickerTest, ExpiredDeadlineCaughtOnFirstTick) {
  const ExecContext context = ExecContext::WithDeadline(0.0);
  DeadlineTicker ticker(context, /*stride=*/1024);
  const Status st = ticker.Tick("table scan");
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  // Sticky: every later tick reports the same expiry.
  EXPECT_EQ(ticker.Tick("table scan").code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTickerTest, UnlimitedContextNeverTrips) {
  ExecContext context;
  DeadlineTicker ticker(context, /*stride=*/1);
  for (int i = 0; i < 10000; ++i) EXPECT_OK(ticker.Tick("loop"));
}

TEST(DeadlineTickerTest, BareDeadlineForm) {
  DeadlineTicker fresh(Deadline::AfterSeconds(60.0));
  EXPECT_FALSE(fresh.Expired());
  DeadlineTicker expired(Deadline::AfterSeconds(0.0));
  EXPECT_TRUE(expired.Expired());
}

TEST(DeadlineTest, UnlimitedNeverExpires) {
  Deadline d = Deadline::Unlimited();
  EXPECT_FALSE(d.Expired());
}

TEST(DeadlineTest, ShortDeadlineExpires) {
  Deadline d = Deadline::AfterSeconds(0.0);
  EXPECT_TRUE(d.Expired());
}


TEST(DeadlineTest, RemainingSecondsTracksExpiry) {
  EXPECT_TRUE(std::isinf(Deadline::Unlimited().RemainingSeconds()));
  EXPECT_GT(Deadline::AfterSeconds(60.0).RemainingSeconds(), 1.0);
  EXPECT_LE(Deadline::AfterSeconds(0.0).RemainingSeconds(), 0.0);
}

TEST(LatchTest, WaitReleasesAtZero) {
  Latch latch(3);
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    latch.Wait();
    released.store(true);
  });
  latch.CountDown();
  latch.CountDown(2);
  waiter.join();
  EXPECT_TRUE(released.load());
  latch.Wait();  // already released: returns immediately
}

}  // namespace
}  // namespace util
}  // namespace asqp
