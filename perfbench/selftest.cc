#include "selftest.h"

#include <cstdio>
#include <string>
#include <vector>

#include "sql/binder.h"
#include "sql/canonicalize.h"
#include "sql/parser.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "perfbench self-test FAILED: %s\n", what.c_str());
}

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void TestPercentiles() {
  // Nearest rank: p50 of 1..100 is 50 with 50 samples beyond it.
  const auto p50 = PercentileOf(Iota(100), 50.0);
  Expect(p50 && p50->value == 50.0 && p50->beyond == 50 && p50->samples == 100,
         "p50 of 1..100 is 50 with 50 beyond");
  // p99 of 1000 samples has exactly 10 beyond: reported.
  const auto p99 = SupportedTail(Iota(1000), 99.0);
  Expect(p99 && p99->value == 990.0 && p99->beyond == 10,
         "p99 of 1..1000 is 990 with 10 beyond");
  // p99 of 999 samples would rest on 9: refused.
  Expect(!SupportedTail(Iota(999), 99.0), "p99 of 999 samples is refused");
  Expect(!SupportedTail({}, 50.0), "an empty sample has no percentile");
  // The highest supported tail of 1000 samples is p99 (p99.9 has 1).
  const auto top = HighestSupportedTail(Iota(1000));
  Expect(top && top->pct == 99.0, "highest supported tail of 1000 is p99");
  const auto top_big = HighestSupportedTail(Iota(20000));
  Expect(top_big && top_big->pct == 99.9 && top_big->beyond == 20,
         "highest supported tail of 20000 is p99.9 with 20 beyond");
  Expect(!HighestSupportedTail(Iota(19)), "19 samples support no tail");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0 && Median({4.0, 1.0}) == 2.5,
         "median of odd and even counts");
}

void TestReservoir() {
  // 256 kept of 16384 offered: the sample must reach the end of the
  // stream, not stop at its first 256 items.
  Reservoir<size_t> r(256, 1);
  for (size_t i = 0; i < 16384; ++i) r.Add(i);
  size_t early = 0;
  size_t late = 0;
  for (size_t v : r.items()) {
    if (v < 4096) ++early;
    if (v >= 12288) ++late;
  }
  Expect(r.seen() == 16384 && r.items().size() == 256,
         "the reservoir keeps its capacity and counts every offer");
  Expect(early >= 32 && late >= 32,
         "the reservoir's sample covers the first and last quarters");
}

void TestSelfTime() {
  SpanLog log(1);
  // root [0, 100): children [10, 30) and [20, 50) overlap (40 covered),
  // [90, 120) is clipped to [90, 100) (10 covered): self = 100 - 50.
  const uint64_t root = log.Add("root", 0, 7, 0, 100);
  const uint64_t a = log.Add("a", root, 7, 10, 30);
  log.Add("b", root, 7, 20, 50);
  log.Add("c", root, 7, 90, 120);
  // A grandchild counts against its parent, not the root.
  log.Add("a1", a, 7, 12, 18);
  const std::vector<int64_t> self = SelfTimesNs(log.spans());
  Expect(self.size() == 5, "one self time per span");
  Expect(self[0] == 50, "root self time is 100 - union(children) = 50");
  Expect(self[1] == 14, "a self time is 20 - 6 = 14");
  Expect(self[2] == 30 && self[3] == 30 && self[4] == 6,
         "leaf self time is its duration");
  const auto by_name = DurationsByName(log.spans(), 1.0);
  Expect(by_name.at("c").front() == 30.0, "durations grouped by name");
}

void TestSpellingFingerprints() {
  const ImdbInputs in = MakeImdbInputs();
  const std::vector<HotQuery> hot = MakeHotSet(in.bundle, kHotSetSize);
  Expect(hot.size() == kHotSetSize, "the hot set is full");
  size_t variants = 0;
  for (const HotQuery& q : hot) {
    std::string base_fp;
    for (size_t i = 0; i < q.spellings.size(); ++i) {
      auto parsed = asqp::sql::Parse(q.spellings[i]);
      auto bound = parsed.ok() ? asqp::sql::Bind(*parsed, *in.bundle.db)
                               : asqp::util::Result<asqp::sql::BoundQuery>(
                                     parsed.status());
      if (!bound.ok()) {
        Expect(false, "spelling binds: " + q.spellings[i]);
        continue;
      }
      const std::string fp = asqp::sql::FingerprintQuery(bound->stmt).canonical;
      if (i == 0) {
        base_fp = fp;
        continue;
      }
      ++variants;
      Expect(fp == base_fp, "variant has its base's fingerprint:\n  base " +
                                q.spellings[0] + "\n  variant " +
                                q.spellings[i]);
    }
  }
  Expect(variants >= 2 * hot.size(), "at least two variants per hot query");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  TestPercentiles();
  TestReservoir();
  TestSelfTime();
  TestSpellingFingerprints();
  return failures;
}

}  // namespace perfbench
