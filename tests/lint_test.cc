// Golden tests for tools/asqp_lint: known-bad snippets in, exact
// file:line:col diagnostics out, plus suppression semantics, the v2
// symbol-aware rules (lock discipline, deadline-poll coverage, the
// fault-point registry), baseline partitioning, and the load-bearing
// checks against the real serving-layer headers. The linter library is
// linked directly so these tests exercise the same code path as the
// `lint` build target.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "asqp_lint/lint.h"

namespace asqp {
namespace lint {
namespace {

struct SourceFile {
  std::string path;
  std::string source;
};

/// Index every file, then lint `files[target]` against the shared index —
/// the same two-pass shape LintTree uses.
std::vector<Diagnostic> LintWith(const std::vector<SourceFile>& files,
                                 size_t target = 0) {
  AnalysisIndex index;
  for (const SourceFile& f : files) BuildIndex(f.path, f.source, &index);
  return LintSource(files[target].path, files[target].source, index);
}

/// Single-file convenience: declarations and uses travel together.
std::vector<Diagnostic> Lint(const std::string& path,
                             const std::string& source) {
  return LintWith({{path, source}});
}

std::vector<Diagnostic> OfRule(const std::vector<Diagnostic>& diags,
                               const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

/// The lock-discipline rule family (either direction).
std::vector<Diagnostic> GuardFamily(const std::vector<Diagnostic>& diags) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags) {
    if (d.rule == "asqp-guard-violation" || d.rule == "asqp-missing-guard") {
      out.push_back(d);
    }
  }
  return out;
}

std::vector<std::string> Render(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  out.reserve(diags.size());
  for (const Diagnostic& d : diags) out.push_back(d.ToString());
  return out;
}

std::string ReadRepoFile(const std::string& relative) {
  const std::string full = std::string(ASQP_SOURCE_DIR) + "/" + relative;
  std::ifstream in(full, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << full;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- index -----------------------------------------------------------------

TEST(LintIndexTest, CollectsStatusAndResultReturningFunctions) {
  AnalysisIndex index;
  BuildIndex("src/io/io.h",
             "util::Status Save(int x);\n"
             "Status Plain();\n"
             "util::Result<std::vector<int>> Load(const std::string& p);\n"
             "static Result<Foo> Make();\n"
             "void NotTracked();\n"
             "int AlsoNot(int);\n",
             &index);
  const auto& fns = index.functions.status_returning;
  EXPECT_EQ(fns.count("Save"), 1u);
  EXPECT_EQ(fns.count("Plain"), 1u);
  EXPECT_EQ(fns.count("Load"), 1u);
  EXPECT_EQ(fns.count("Make"), 1u);
  EXPECT_EQ(fns.count("NotTracked"), 0u);
  EXPECT_EQ(fns.count("AlsoNot"), 0u);
}

TEST(LintIndexTest, CollectsGuardAnnotationsAndFields) {
  AnalysisIndex index;
  BuildIndex("src/util/pool.h",
             "class Pool {\n"
             " public:\n"
             "  void Drain() ASQP_EXCLUDES(mu_);\n"
             " private:\n"
             "  std::mutex mu_;\n"
             "  size_t depth_ ASQP_GUARDED_BY(mu_) = 0;\n"
             "  size_t untracked_ = 0;\n"
             "};\n",
             &index);
  const auto& g = index.guards;
  ASSERT_EQ(g.guarded_fields.count("Pool"), 1u);
  EXPECT_EQ(g.guarded_fields.at("Pool").at("depth_"), "mu_");
  ASSERT_EQ(g.excluded_methods.count("Pool"), 1u);
  EXPECT_EQ(g.excluded_methods.at("Pool").at("Drain"), "mu_");
  EXPECT_EQ(g.fields.at("Pool").count("untracked_"), 1u);
  ASSERT_EQ(g.mutex_decls.size(), 1u);
  EXPECT_EQ(g.mutex_decls[0].cls, "Pool");
  EXPECT_EQ(g.mutex_decls[0].name, "mu_");
}

TEST(LintIndexTest, FaultRegistryIsOnlyReadFromTheRegistryHeader) {
  AnalysisIndex index;
  BuildIndex("src/exec/executor.cc",
             "void F() { Log(\"exec.deadline\"); }\n", &index);
  EXPECT_FALSE(index.has_fault_registry);
  BuildIndex("src/util/fault_points.h",
             "inline constexpr const char* kFaultPoints[] = {\n"
             "    \"exec.deadline\",\n"
             "};\n",
             &index);
  EXPECT_TRUE(index.has_fault_registry);
  EXPECT_EQ(index.fault_points.count("exec.deadline"), 1u);
}

// --- asqp-discarded-status -------------------------------------------------

TEST(LintDiscardTest, FlagsDiscardedCallWithExactLocation) {
  const std::string src =
      "util::Status Save(int x);\n"   // line 1
      "void F() {\n"                  // line 2
      "  Save(1);\n"                  // line 3, col 3
      "}\n";
  const auto diags = Lint("src/io/io.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/io/io.cc");
  EXPECT_EQ(diags[0].line, 3u);
  EXPECT_EQ(diags[0].col, 3u);
  EXPECT_EQ(diags[0].rule, "asqp-discarded-status");
  EXPECT_EQ(Render(diags)[0].substr(0, 52),
            "src/io/io.cc:3:3: error: [asqp-discarded-status] res");
}

TEST(LintDiscardTest, FlagsMethodAndQualifiedCalls) {
  const std::string src =
      "struct W { util::Status Flush(); };\n"
      "util::Status io::Sync(int);\n"
      "void F(W* w, W& r) {\n"
      "  w->Flush();\n"    // line 4
      "  r.Flush();\n"     // line 5
      "  io::Sync(2);\n"   // line 6
      "}\n";
  const auto diags = Lint("src/io/io.cc", src);
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].line, 4u);
  EXPECT_EQ(diags[1].line, 5u);
  EXPECT_EQ(diags[2].line, 6u);
  EXPECT_EQ(diags[2].col, 7u);  // the `Sync` token, not the `io` qualifier
}

TEST(LintDiscardTest, ConsumedOrSanctionedCallsAreClean) {
  const std::string src =
      "util::Status Save(int x);\n"
      "util::Status G() {\n"
      "  ASQP_RETURN_NOT_OK(Save(1));\n"       // ASQP_* macro: sanctioned
      "  util::Status s = Save(2);\n"          // assigned
      "  if (Save(3).ok()) { (void)Save(4); }\n"  // tested / void-cast
      "  return Save(5);\n"                    // returned
      "}\n";
  EXPECT_TRUE(Lint("src/io/io.cc", src).empty());
}

TEST(LintDiscardTest, MultiLineCallIsStillOneStatement) {
  const std::string src =
      "util::Status Save(int x, int y);\n"
      "void F() {\n"
      "  Save(1,\n"
      "       2);\n"
      "}\n";
  const auto diags = Lint("src/io/io.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3u);
}

TEST(LintDiscardTest, SameFileVoidFunctionShadowsTreeWideStatusName) {
  // The PR-5 false positive, fixed at rule level: a tree-wide
  // Status-returning Database::AddTable must not flag bare calls to a
  // *local* void AddTable (the differential fuzzer's helper).
  AnalysisIndex index;
  BuildIndex("src/storage/database.h",
             "struct Database { util::Status AddTable(std::string n); };\n",
             &index);
  const std::string fuzz =
      "class Fuzzer {\n"
      " public:\n"
      "  void AddTable(const std::string& name);\n"
      "  void Setup() {\n"
      "    AddTable(\"t\");\n"  // local void helper: clean
      "  }\n"
      "};\n";
  BuildIndex("tests/fuzz.cc", fuzz, &index);
  EXPECT_TRUE(LintSource("tests/fuzz.cc", fuzz, index).empty());

  // A chained call still resolves to the Status-returning member.
  const std::string chained =
      "void G(Database* db) {\n"
      "  db->AddTable(\"t\");\n"
      "}\n";
  BuildIndex("tests/other.cc", chained, &index);
  const auto diags = LintSource("tests/other.cc", chained, index);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "asqp-discarded-status");
}

// --- suppression -----------------------------------------------------------

TEST(LintSuppressionTest, NolintWithMatchingRuleSuppresses) {
  const std::string src =
      "util::Status Save(int x);\n"
      "void F() {\n"
      "  Save(1);  // NOLINT(asqp-discarded-status)\n"
      "}\n";
  EXPECT_TRUE(Lint("src/io/io.cc", src).empty());
}

TEST(LintSuppressionTest, BareNolintSuppressesEverything) {
  const std::string src =
      "util::Status Save(int x);\n"
      "void F() {\n"
      "  Save(1);  // NOLINT\n"
      "}\n";
  EXPECT_TRUE(Lint("src/io/io.cc", src).empty());
}

TEST(LintSuppressionTest, WrongRuleNameDoesNotSuppress) {
  const std::string src =
      "util::Status Save(int x);\n"
      "void F() {\n"
      "  Save(1);  // NOLINT(asqp-naked-new)\n"
      "}\n";
  ASSERT_EQ(Lint("src/io/io.cc", src).size(), 1u);
}

TEST(LintSuppressionTest, NolintNextLineSuppressesTheLineBelow) {
  const std::string src =
      "util::Status Save(int x);\n"
      "void F() {\n"
      "  // NOLINTNEXTLINE(asqp-discarded-status)\n"
      "  Save(1);\n"
      "}\n";
  EXPECT_TRUE(Lint("src/io/io.cc", src).empty());
}

// --- asqp-nondeterminism ---------------------------------------------------

TEST(LintNondeterminismTest, FlagsBannedGenerators) {
  const std::string src =
      "void F() {\n"
      "  int x = rand();\n"            // line 2
      "  std::random_device rd;\n"     // line 3
      "  std::mt19937 gen;\n"          // line 4: unseeded
      "  std::mt19937 ok(42);\n"       // seeded: allowed
      "  std::mt19937_64 also{7};\n"   // seeded: allowed
      "}\n";
  const auto diags = Lint("tests/foo_test.cc", src);
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].line, 2u);
  EXPECT_EQ(diags[1].line, 3u);
  EXPECT_EQ(diags[2].line, 4u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "asqp-nondeterminism");
}

TEST(LintNondeterminismTest, WallClockOnlyBannedInLibraryCode) {
  const std::string src =
      "void F() { auto t = std::chrono::system_clock::now(); }\n";
  EXPECT_EQ(Lint("src/core/model.cc", src).size(), 1u);
  EXPECT_TRUE(Lint("src/util/stopwatch.h", src).empty());
  EXPECT_TRUE(Lint("tests/foo_test.cc", src).empty());
  EXPECT_TRUE(Lint("bench/bench_fig2.cc", src).empty());
}

// --- asqp-naked-new --------------------------------------------------------

TEST(LintNakedNewTest, FlagsNewAndDeleteOutsideUtil) {
  const std::string src =
      "void F() {\n"
      "  int* p = new int(3);\n"  // line 2, col 12
      "  delete p;\n"             // line 3, col 3
      "}\n";
  const auto diags = Lint("src/exec/executor.cc", src);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "asqp-naked-new");
  EXPECT_EQ(diags[0].line, 2u);
  EXPECT_EQ(diags[0].col, 12u);
  EXPECT_EQ(diags[1].line, 3u);
  EXPECT_EQ(diags[1].col, 3u);
}

TEST(LintNakedNewTest, UtilAndDeletedFunctionsAreExempt) {
  const std::string alloc = "void F() { int* p = new int; delete p; }\n";
  EXPECT_TRUE(Lint("src/util/fault_injector.cc", alloc).empty());
  const std::string deleted =
      "struct T {\n"
      "  T(const T&) = delete;\n"
      "  T& operator=(const T&) = delete;\n"
      "};\n";
  EXPECT_TRUE(Lint("src/exec/executor.h", deleted).empty());
}

// --- asqp-catch-all --------------------------------------------------------

TEST(LintCatchAllTest, FlagsSwallowingHandler) {
  const std::string src =
      "void F() {\n"
      "  try { G(); } catch (...) {\n"  // line 2, col 16
      "  }\n"
      "}\n";
  const auto diags = Lint("src/exec/executor.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "asqp-catch-all");
  EXPECT_EQ(diags[0].line, 2u);
  EXPECT_EQ(diags[0].col, 16u);
}

TEST(LintCatchAllTest, RethrowOrConvertIsClean) {
  EXPECT_TRUE(Lint("src/a/b.cc",
                   "void F() { try { G(); } catch (...) { throw; } }\n")
                  .empty());
  EXPECT_TRUE(
      Lint("src/a/b.cc",
           "void F() {\n"
           "  try { G(); } catch (...) { e = std::current_exception(); }\n"
           "}\n")
          .empty());
  EXPECT_TRUE(
      Lint("src/a/b.cc",
           "util::Status F() {\n"
           "  try { G(); } catch (...) {\n"
           "    return util::Status::ExecutionError(\"boom\");\n"
           "  }\n"
           "  return util::Status::OK();\n"
           "}\n")
          .empty());
}

// --- asqp-unsynchronized-shared-write --------------------------------------

TEST(LintSharedWriteTest, FlagsByRefMutationsInsideParallelLambda) {
  const std::string src =
      "void F(util::ThreadPool* pool) {\n"
      "  size_t hits = 0;\n"
      "  std::vector<int> rows;\n"
      "  pool->ParallelFor(100, [&](size_t i) {\n"
      "    hits += 1;\n"            // line 5, col 5: compound assignment
      "    rows.push_back(1);\n"    // line 6, col 5: mutating method
      "  });\n"
      "}\n";
  const auto diags = Lint("src/exec/executor.cc", src);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "asqp-unsynchronized-shared-write");
  EXPECT_EQ(diags[0].line, 5u);
  EXPECT_EQ(diags[0].col, 5u);
  EXPECT_NE(diags[0].message.find("'hits'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("ParallelFor"), std::string::npos);
  EXPECT_EQ(diags[1].line, 6u);
  EXPECT_NE(diags[1].message.find("'rows'"), std::string::npos);
}

TEST(LintSharedWriteTest, FlagsExplicitCaptureAssignIncrementAndMember) {
  const std::string src =
      "void F(util::ThreadPool* pool) {\n"
      "  int total = 0;\n"
      "  Stats stats;\n"
      "  size_t n = 0;\n"
      "  pool->ParallelForChunked(100, 10,\n"
      "      [&total, &stats, &n](size_t c, size_t b, size_t e) {\n"
      "        total = 1;\n"          // line 7: direct assignment
      "        stats.count = 2;\n"    // line 8: member assignment
      "        ++n;\n"                // line 9: increment
      "        return Status::OK();\n"
      "      });\n"
      "}\n";
  const auto diags = Lint("src/exec/executor.cc", src);
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].line, 7u);
  EXPECT_NE(diags[0].message.find("'total'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("ParallelForChunked"), std::string::npos);
  EXPECT_EQ(diags[1].line, 8u);
  EXPECT_NE(diags[1].message.find("'stats'"), std::string::npos);
  EXPECT_EQ(diags[2].line, 9u);
  EXPECT_NE(diags[2].message.find("'n'"), std::string::npos);
}

TEST(LintSharedWriteTest, PerChunkSlotAtomicsAndLocalsAreClean) {
  const std::string src =
      "void F(util::ThreadPool* pool) {\n"
      "  std::vector<TupleSet> parts(10);\n"
      "  std::atomic<size_t> total{0};\n"
      "  pool->ParallelForChunked(100, 10,\n"
      "      [&](size_t chunk, size_t begin, size_t end) {\n"
      "        TupleSet local;\n"                   // body-local: private
      "        local.num_tables = 3;\n"
      "        local.Append(nullptr);\n"
      "        total.fetch_add(local.size());\n"    // atomic method
      "        parts[chunk] = std::move(local);\n"  // per-chunk slot
      "        return Status::OK();\n"
      "      });\n"
      "}\n";
  EXPECT_TRUE(Lint("src/exec/executor.cc", src).empty());
}

TEST(LintSharedWriteTest, MutexGuardedBodyAndReadsAreClean) {
  const std::string guarded =
      "void F(util::ThreadPool* pool, std::vector<int>& out) {\n"
      "  std::mutex mu;\n"
      "  pool->ParallelFor(100, [&](size_t i) {\n"
      "    std::lock_guard<std::mutex> lock(mu);\n"
      "    out.push_back(1);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(Lint("src/exec/executor.cc", guarded).empty());
  const std::string reads =
      "void F(util::ThreadPool* pool, const std::vector<int>& in) {\n"
      "  size_t limit = in.size();\n"
      "  pool->ParallelFor(100, [&](size_t i) {\n"
      "    if (i == limit || in[i] >= 3) Use(in[i], limit);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(Lint("src/exec/executor.cc", reads).empty());
}

TEST(LintSharedWriteTest, LambdaOutsideParallelEntryIsNotFlagged) {
  const std::string src =
      "void F() {\n"
      "  int count = 0;\n"
      "  auto bump = [&count]() { count += 1; };\n"
      "  std::for_each(v.begin(), v.end(), [&](int x) { count += x; });\n"
      "}\n";
  EXPECT_TRUE(Lint("src/exec/executor.cc", src).empty());
}

TEST(LintSharedWriteTest, SingleItemLiteralRunsOnCallerAndIsExempt) {
  // The second PR-5 false positive, fixed at rule level: ParallelFor(0|1,
  // ...) never enqueues helper tasks, so by-ref writes are single-threaded.
  const std::string src =
      "void F(util::ThreadPool* pool) {\n"
      "  size_t seen = 0;\n"
      "  pool->ParallelFor(1, [&](size_t i) { seen = i; });\n"
      "  pool->ParallelFor(0, [&](size_t i) { seen = i; });\n"
      "}\n";
  EXPECT_TRUE(Lint("src/exec/executor.cc", src).empty());

  const std::string many =
      "void F(util::ThreadPool* pool) {\n"
      "  size_t seen = 0;\n"
      "  pool->ParallelFor(100, [&](size_t i) { seen = i; });\n"
      "}\n";
  ASSERT_EQ(Lint("src/exec/executor.cc", many).size(), 1u);
}

TEST(LintSharedWriteTest, NolintSuppressesSharedWrite) {
  const std::string src =
      "void F(util::ThreadPool* pool) {\n"
      "  size_t hits = 0;\n"
      "  pool->ParallelFor(100, [&](size_t i) {\n"
      "    hits += 1;  // NOLINT(asqp-unsynchronized-shared-write)\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(Lint("src/exec/executor.cc", src).empty());
}

// --- asqp-guard-violation --------------------------------------------------

const char kCounterHeader[] =
    "class Counter {\n"
    " public:\n"
    "  void Bump();\n"
    "  void Locked();\n"
    " private:\n"
    "  mutable std::mutex mu_;\n"
    "  size_t count_ ASQP_GUARDED_BY(mu_) = 0;\n"
    "};\n";

TEST(LintGuardTest, FlagsUnlockedAccessToGuardedField) {
  const std::string impl =
      "void Counter::Bump() {\n"
      "  count_ += 1;\n"  // line 2, col 3
      "}\n";
  const auto diags = LintWith(
      {{"src/util/counter.cc", impl}, {"src/util/counter.h", kCounterHeader}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "asqp-guard-violation");
  EXPECT_EQ(diags[0].line, 2u);
  EXPECT_EQ(diags[0].col, 3u);
  EXPECT_NE(diags[0].message.find("'count_'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("mu_"), std::string::npos);
}

TEST(LintGuardTest, LockScopesOnTheNamedMutexAreClean) {
  const std::string impl =
      "void Counter::Bump() {\n"
      "  std::lock_guard<std::mutex> lock(mu_);\n"
      "  count_ += 1;\n"
      "}\n"
      "void Counter::Locked() {\n"
      "  std::unique_lock<std::mutex> lock(mu_);\n"
      "  count_ = 0;\n"
      "}\n";
  EXPECT_TRUE(LintWith({{"src/util/counter.cc", impl},
                        {"src/util/counter.h", kCounterHeader}})
                  .empty());
}

TEST(LintGuardTest, DeferredLockAndWrongMutexDoNotCount) {
  const std::string impl =
      "void Counter::Bump() {\n"
      "  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);\n"
      "  count_ += 1;\n"  // deferred: not held
      "}\n"
      "void Counter::Locked() {\n"
      "  std::lock_guard<std::mutex> lock(other_mu_);\n"
      "  count_ += 1;\n"  // wrong mutex
      "}\n";
  const auto diags = LintWith(
      {{"src/util/counter.cc", impl}, {"src/util/counter.h", kCounterHeader}});
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].line, 3u);
  EXPECT_EQ(diags[1].line, 7u);
}

TEST(LintGuardTest, LockReleasedAtScopeExit) {
  const std::string impl =
      "void Counter::Bump() {\n"
      "  {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    count_ += 1;\n"  // clean: inside the lock scope
      "  }\n"
      "  count_ += 1;\n"    // line 6: the guard is gone
      "}\n";
  const auto diags = LintWith(
      {{"src/util/counter.cc", impl}, {"src/util/counter.h", kCounterHeader}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 6u);
}

TEST(LintGuardTest, SharedMutexReaderScopeCountsAsHeld) {
  const std::string src =
      "class Engine {\n"
      " public:\n"
      "  void Read();\n"
      " private:\n"
      "  std::shared_mutex model_mu_;\n"
      "  int* model_ ASQP_GUARDED_BY(model_mu_) = nullptr;\n"
      "};\n"
      "void Engine::Read() {\n"
      "  std::shared_lock<std::shared_mutex> reader(model_mu_);\n"
      "  Use(model_);\n"
      "}\n";
  EXPECT_TRUE(Lint("src/serve/engine.cc", src).empty());
}

TEST(LintGuardTest, NolintSuppressesGuardViolation) {
  const std::string impl =
      "void Counter::Bump() {\n"
      "  count_ += 1;  // NOLINT(asqp-guard-violation)\n"
      "}\n";
  EXPECT_TRUE(LintWith({{"src/util/counter.cc", impl},
                        {"src/util/counter.h", kCounterHeader}})
                  .empty());
}

TEST(LintGuardTest, ExcludesMethodCalledUnderItsMutexIsADeadlock) {
  const std::string src =
      "class Pool {\n"
      " public:\n"
      "  void Drain() ASQP_EXCLUDES(mu_);\n"
      "  void Tickle();\n"
      "  void Fine();\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  size_t depth_ ASQP_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "void Pool::Tickle() {\n"
      "  std::lock_guard<std::mutex> lock(mu_);\n"
      "  Drain();\n"  // line 12: Drain re-acquires mu_ -> self-deadlock
      "}\n"
      "void Pool::Fine() {\n"
      "  Drain();\n"  // clean: mu_ not held here
      "}\n";
  const auto diags = Lint("src/util/pool.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "asqp-guard-violation");
  EXPECT_EQ(diags[0].line, 12u);
  EXPECT_NE(diags[0].message.find("Drain"), std::string::npos);
}

// --- asqp-missing-guard ----------------------------------------------------

TEST(LintMissingGuardTest, UnannotatedFieldWrittenUnderLockIsFlagged) {
  const std::string src =
      "class Box {\n"
      " public:\n"
      "  void Put();\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int a_ ASQP_GUARDED_BY(mu_) = 0;\n"
      "  int b_ = 0;\n"
      "};\n"
      "void Box::Put() {\n"
      "  std::lock_guard<std::mutex> lock(mu_);\n"
      "  a_ = 1;\n"
      "  b_ = 2;\n"  // line 12: written under mu_ but not annotated
      "}\n";
  const auto diags = Lint("src/util/box.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "asqp-missing-guard");
  EXPECT_EQ(diags[0].line, 12u);
  EXPECT_NE(diags[0].message.find("'b_'"), std::string::npos);

  // Completeness is a src/-only policy: test fixtures stay unannotated.
  EXPECT_TRUE(Lint("tests/box_test.cc", src).empty());
}

TEST(LintMissingGuardTest, MutexWithNoDeclaredProtocolFailsCoverage) {
  AnalysisIndex bare;
  BuildIndex("src/util/bare.h",
             "class Bare {\n"
             "  std::mutex mu_;\n"  // line 2: no annotation anywhere
             "  int v_ = 0;\n"
             "};\n",
             &bare);
  std::vector<Diagnostic> diags;
  CheckMutexCoverage(bare, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "asqp-missing-guard");
  EXPECT_EQ(diags[0].line, 2u);
  EXPECT_NE(diags[0].message.find("'mu_'"), std::string::npos);

  // One annotation on the mutex (field or EXCLUDES) satisfies coverage.
  AnalysisIndex covered;
  BuildIndex("src/util/covered.h",
             "class Covered {\n"
             "  std::mutex mu_;\n"
             "  int v_ ASQP_GUARDED_BY(mu_) = 0;\n"
             "};\n",
             &covered);
  diags.clear();
  CheckMutexCoverage(covered, &diags);
  EXPECT_TRUE(diags.empty());

  // Coverage is src/-only: a test fixture's mutex needs no protocol.
  AnalysisIndex test_fixture;
  BuildIndex("tests/bare_test.cc",
             "class Bare {\n"
             "  std::mutex mu_;\n"
             "};\n",
             &test_fixture);
  diags.clear();
  CheckMutexCoverage(test_fixture, &diags);
  EXPECT_TRUE(diags.empty());
}

// --- asqp-unpolled-loop ----------------------------------------------------

const char kLongLoop[] =
    "void Train() {\n"
    "  for (size_t i = 0; i < n; ++i) {\n"  // line 2: 9 statements, no poll
    "    a = 1; b = 2; c = 3;\n"
    "    d = 4; e = 5; f = 6;\n"
    "    g = 7; h = 8; k = 9;\n"
    "  }\n"
    "}\n";

TEST(LintUnpolledLoopTest, FlagsLongLoopWithoutDeadlinePoll) {
  const auto diags = Lint("src/aqp/trainer.cc", kLongLoop);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "asqp-unpolled-loop");
  EXPECT_EQ(diags[0].line, 2u);
  EXPECT_NE(diags[0].message.find("9 statements"), std::string::npos);

  // Same loop in src/exec/ is also in scope...
  EXPECT_EQ(Lint("src/exec/merge.cc", kLongLoop).size(), 1u);
  // ...but the rule is scoped to the deadline-bearing subsystems.
  EXPECT_TRUE(Lint("src/core/model.cc", kLongLoop).empty());
  EXPECT_TRUE(Lint("tests/trainer_test.cc", kLongLoop).empty());
}

TEST(LintUnpolledLoopTest, PolledOrShortLoopsAreClean) {
  const std::string polled =
      "void Train(util::ExecContext& ctx) {\n"
      "  for (size_t i = 0; i < n; ++i) {\n"
      "    ASQP_RETURN_NOT_OK(ctx.Check());\n"
      "    a = 1; b = 2; c = 3;\n"
      "    d = 4; e = 5; f = 6;\n"
      "    g = 7; h = 8; k = 9;\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(Lint("src/aqp/trainer.cc", polled).empty());

  const std::string ticker =
      "void Merge(util::DeadlineTicker& ticker) {\n"
      "  while (More()) {\n"
      "    if (ticker.Tick()) break;\n"
      "    a = 1; b = 2; c = 3;\n"
      "    d = 4; e = 5; f = 6;\n"
      "    g = 7; h = 8;\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(Lint("src/exec/merge.cc", ticker).empty());

  const std::string short_loop =
      "void Train() {\n"
      "  for (size_t i = 0; i < n; ++i) {\n"
      "    a = 1; b = 2; c = 3; d = 4;\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(Lint("src/aqp/trainer.cc", short_loop).empty());
}

TEST(LintUnpolledLoopTest, NestedLoopsAreMeasuredIndependently) {
  const std::string src =
      "void Train() {\n"
      "  for (size_t e = 0; e < epochs; ++e) {\n"  // outer: also unpolled
      "    for (size_t i = 0; i < n; ++i) {\n"     // line 3: inner
      "      a = 1; b = 2; c = 3;\n"
      "      d = 4; e2 = 5; f = 6;\n"
      "      g = 7; h = 8; k = 9;\n"
      "    }\n"
      "  }\n"
      "}\n";
  const auto diags = Lint("src/aqp/trainer.cc", src);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].line, 2u);
  EXPECT_EQ(diags[1].line, 3u);
}

TEST(LintUnpolledLoopTest, NolintOnTheLoopLineSuppresses) {
  const std::string src =
      "void Train() {\n"
      "  // NOLINTNEXTLINE(asqp-unpolled-loop): epoch loop, bounded offline\n"
      "  for (size_t i = 0; i < n; ++i) {\n"
      "    a = 1; b = 2; c = 3;\n"
      "    d = 4; e = 5; f = 6;\n"
      "    g = 7; h = 8; k = 9;\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(Lint("src/aqp/trainer.cc", src).empty());
}

// --- asqp-unregistered-fault-point -----------------------------------------

const char kRegistry[] =
    "inline constexpr const char* kFaultPoints[] = {\n"
    "    \"exec.deadline\",\n"
    "};\n";

TEST(LintFaultPointTest, UnregisteredLiteralIsFlagged) {
  const std::string src =
      "void F() {\n"
      "  if (ASQP_FAULT_POINT(\"bogus.point\")) { return; }\n"  // line 2
      "}\n";
  const auto diags = LintWith(
      {{"src/exec/executor.cc", src}, {"src/util/fault_points.h", kRegistry}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "asqp-unregistered-fault-point");
  EXPECT_EQ(diags[0].line, 2u);
  EXPECT_NE(diags[0].message.find("bogus.point"), std::string::npos);
}

TEST(LintFaultPointTest, RegisteredLiteralAndTestHarnessesAreClean) {
  const std::string registered =
      "void F() {\n"
      "  if (ASQP_FAULT_POINT(\"exec.deadline\")) { return; }\n"
      "}\n";
  EXPECT_TRUE(LintWith({{"src/exec/executor.cc", registered},
                        {"src/util/fault_points.h", kRegistry}})
                  .empty());

  // The injector's own tests arm synthetic names on purpose; the registry
  // cross-check (tests/fault_points_test.cc) covers tests from the other
  // direction.
  const std::string synthetic =
      "void F() {\n"
      "  if (ASQP_FAULT_POINT(\"resilience.test.point\")) { return; }\n"
      "}\n";
  EXPECT_TRUE(LintWith({{"tests/resilience_test.cc", synthetic},
                        {"src/util/fault_points.h", kRegistry}})
                  .empty());
}

TEST(LintFaultPointTest, RuleIsInertWithoutTheRegistryHeader) {
  // Linting a lone file (no registry indexed) must not flag every literal.
  const std::string src =
      "void F() {\n"
      "  if (ASQP_FAULT_POINT(\"anything.at.all\")) { return; }\n"
      "}\n";
  EXPECT_TRUE(Lint("src/exec/executor.cc", src).empty());
}

// --- load-bearing checks against the real serving-layer headers ------------

TEST(LintLoadBearingTest, AnswerCacheAnnotationsAreEachLoadBearing) {
  const std::string header = ReadRepoFile("src/serve/answer_cache.h");
  const std::string impl = ReadRepoFile("src/serve/answer_cache.cc");

  // Intact annotations: the real implementation is guard-clean.
  EXPECT_TRUE(GuardFamily(LintWith({{"src/serve/answer_cache.cc", impl},
                                    {"src/serve/answer_cache.h", header}}))
                  .empty());

  // Removing ANY single ASQP_GUARDED_BY(mu) from the Shard turns at least
  // one real access in answer_cache.cc into a finding.
  const std::string kAnnotation = "ASQP_GUARDED_BY(mu)";
  size_t stripped_count = 0;
  for (size_t pos = header.find(kAnnotation); pos != std::string::npos;
       pos = header.find(kAnnotation, pos + 1)) {
    std::string stripped = header;
    stripped.erase(pos, kAnnotation.size());
    const auto diags =
        GuardFamily(LintWith({{"src/serve/answer_cache.cc", impl},
                              {"src/serve/answer_cache.h", stripped}}));
    EXPECT_FALSE(diags.empty())
        << "stripping annotation #" << stripped_count << " went undetected";
    ++stripped_count;
  }
  EXPECT_GE(stripped_count, 9u) << "Shard annotations went missing";
}

TEST(LintLoadBearingTest, ModelWriterAnnotationsAreLoadBearing) {
  const std::string header = ReadRepoFile("src/core/model.h");
  const std::string kAnnotation = "ASQP_EXCLUDES(writer_mu_)";

  AnalysisIndex intact;
  BuildIndex("src/core/model.h", header, &intact);
  std::vector<Diagnostic> diags;
  CheckMutexCoverage(intact, &diags);
  EXPECT_TRUE(diags.empty());

  // The writers (MaterializeSet, FineTune, SetExecutionPool) carry the
  // only writer_mu_ annotations: stripping them leaves the mutex that
  // serializes them with no declared protocol at all.
  std::string stripped = header;
  size_t stripped_count = 0;
  for (size_t pos = stripped.find(kAnnotation); pos != std::string::npos;
       pos = stripped.find(kAnnotation, pos)) {
    stripped.erase(pos, kAnnotation.size());
    ++stripped_count;
  }
  EXPECT_EQ(stripped_count, 3u) << "writer annotations went missing";
  AnalysisIndex without;
  BuildIndex("src/core/model.h", stripped, &without);
  diags.clear();
  CheckMutexCoverage(without, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "asqp-missing-guard");
  EXPECT_NE(diags[0].message.find("'writer_mu_'"), std::string::npos);
}

TEST(LintLoadBearingTest, DeletingARegistryEntryFailsTheUsingFile) {
  const std::string registry = ReadRepoFile("src/util/fault_points.h");
  const std::string executor = ReadRepoFile("src/exec/executor.cc");
  ASSERT_NE(registry.find("\"exec.join.alloc\""), std::string::npos);

  const auto intact =
      OfRule(LintWith({{"src/exec/executor.cc", executor},
                       {"src/util/fault_points.h", registry}}),
             "asqp-unregistered-fault-point");
  EXPECT_TRUE(intact.empty());

  std::string stripped = registry;
  const size_t pos = stripped.find("\"exec.join.alloc\",");
  stripped.erase(pos, std::string("\"exec.join.alloc\",").size());
  const auto diags =
      OfRule(LintWith({{"src/exec/executor.cc", executor},
                       {"src/util/fault_points.h", stripped}}),
             "asqp-unregistered-fault-point");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("exec.join.alloc"), std::string::npos);
}

// --- file collection -------------------------------------------------------

TEST(LintFileCollectionTest, CompileCommandsClosureCoversEverySrcTu) {
  namespace fs = std::filesystem;
  const std::string root = ASQP_SOURCE_DIR;
  const std::string db = std::string(ASQP_BINARY_DIR) + "/compile_commands.json";
  ASSERT_TRUE(fs::exists(db)) << db;

  const std::vector<std::string> files = CollectLintFiles(root, db);
  const std::unordered_set<std::string> set(files.begin(), files.end());

  // Every translation unit under src/ must be linted: new subsystems are
  // covered the moment they join the build.
  size_t tus = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root + "/src")) {
    if (!entry.is_regular_file() || entry.path().extension() != ".cc") {
      continue;
    }
    const std::string rel =
        fs::relative(entry.path(), root).generic_string();
    EXPECT_EQ(set.count(rel), 1u) << rel << " missing from the lint set";
    ++tus;
  }
  EXPECT_GT(tus, 20u);

  // The include closure pulls in headers (annotations live in headers)
  // and the tools' own sources.
  EXPECT_EQ(set.count("src/serve/serve_engine.h"), 1u);
  EXPECT_EQ(set.count("src/util/sync.h"), 1u);
  EXPECT_EQ(set.count("src/util/fault_points.h"), 1u);
  EXPECT_EQ(set.count("tools/asqp_lint/lint.cc"), 1u);
}

TEST(LintFileCollectionTest, DirectoryWalkFallbackStillCoversSrc) {
  const std::vector<std::string> files =
      CollectLintFiles(ASQP_SOURCE_DIR, "/nonexistent/compile_commands.json");
  const std::unordered_set<std::string> set(files.begin(), files.end());
  EXPECT_EQ(set.count("src/serve/serve_engine.cc"), 1u);
  EXPECT_EQ(set.count("src/util/fault_points.h"), 1u);
  EXPECT_EQ(set.count("tests/lint_test.cc"), 1u);
}

// --- baseline & JSON -------------------------------------------------------

Diagnostic MakeDiag(const std::string& file, size_t line,
                    const std::string& rule, const std::string& message) {
  Diagnostic d;
  d.file = file;
  d.line = line;
  d.col = 3;
  d.rule = rule;
  d.message = message;
  return d;
}

TEST(LintBaselineTest, AbsorbsByKeyWithMultiplicityIgnoringLines) {
  const Diagnostic a =
      MakeDiag("src/aqp/vae.cc", 10, "asqp-unpolled-loop", "loop ...");
  const Diagnostic a_moved =
      MakeDiag("src/aqp/vae.cc", 99, "asqp-unpolled-loop", "loop ...");
  const Diagnostic fresh =
      MakeDiag("src/aqp/vae.cc", 20, "asqp-unpolled-loop", "other loop ...");

  Baseline baseline;
  baseline.entries[BaselineKey(a)] = 1;

  std::vector<Diagnostic> grandfathered, remaining;
  // The baselined finding absorbs one occurrence even after it moved to a
  // different line; the second occurrence of the same key and the novel
  // message stay fresh.
  PartitionAgainstBaseline({a_moved, a, fresh}, baseline, &grandfathered,
                           &remaining);
  ASSERT_EQ(grandfathered.size(), 1u);
  ASSERT_EQ(remaining.size(), 2u);
}

TEST(LintBaselineTest, SerializedBaselineRoundTripsThroughPartition) {
  const Diagnostic a =
      MakeDiag("src/aqp/vae.cc", 10, "asqp-unpolled-loop", "loop A");
  const Diagnostic b =
      MakeDiag("src/exec/executor.cc", 5, "asqp-unpolled-loop", "loop B");
  const std::string serialized = SerializeBaseline({a, b, a});
  EXPECT_NE(serialized.find("src/aqp/vae.cc\tasqp-unpolled-loop\tloop A"),
            std::string::npos);

  const std::string path =
      (std::filesystem::temp_directory_path() / "asqp_lint_baseline_rt.txt")
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << serialized;
  }
  Baseline baseline;
  ASSERT_TRUE(LoadBaseline(path, &baseline));
  std::filesystem::remove(path);

  std::vector<Diagnostic> grandfathered, fresh;
  PartitionAgainstBaseline({a, a, b}, baseline, &grandfathered, &fresh);
  EXPECT_EQ(grandfathered.size(), 3u);  // multiplicity 2 for `a` preserved
  EXPECT_TRUE(fresh.empty());

  Baseline missing;
  EXPECT_FALSE(LoadBaseline("/nonexistent/baseline.txt", &missing));
}

TEST(LintJsonTest, ReportCarriesStatusAndCounts) {
  const Diagnostic fresh =
      MakeDiag("src/a.cc", 1, "asqp-naked-new", "say \"no\"");
  const Diagnostic old =
      MakeDiag("src/b.cc", 2, "asqp-unpolled-loop", "loop");
  const std::string json = DiagnosticsToJson({fresh}, {old});
  EXPECT_NE(json.find("\"status\":\"new\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"grandfathered\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"new\":1"), std::string::npos);
  EXPECT_NE(json.find("\"grandfathered\":1"), std::string::npos);
  EXPECT_NE(json.find("say \\\"no\\\""), std::string::npos);  // escaping
}

// --- lexical robustness ----------------------------------------------------

TEST(LintLexerTest, IgnoresCommentsStringsAndPreprocessor) {
  const std::string src =
      "#include <random>  // has random_device in the path\n"
      "#define MAKE_RNG() std::random_device{}\n"
      "const char* s = \"rand() system_clock new delete\";\n"
      "// rand() in a comment\n"
      "/* new delete catch (...) { } */\n"
      "char c = 'r';\n";
  EXPECT_TRUE(Lint("src/core/model.cc", src).empty());
}

TEST(LintLexerTest, RawStringsDoNotLeakTokens) {
  const std::string src =
      "const char* sql = R\"(SELECT rand() FROM t; new delete)\";\n";
  EXPECT_TRUE(Lint("src/core/model.cc", src).empty());
}

TEST(LintLexerTest, DigitSeparatorsDoNotSplitTokens) {
  const std::string src = "constexpr long kBig = 1'000'000;\n";
  EXPECT_TRUE(Lint("src/core/model.cc", src).empty());
}

}  // namespace
}  // namespace lint
}  // namespace asqp
