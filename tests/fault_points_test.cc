// Cross-checks for the fault-point registry (src/util/fault_points.h).
//
// The lint rule asqp-unregistered-fault-point keeps source literals inside
// the registry; this test closes the loop from the other side: every
// *registered* point must be exercised by at least one test, so the
// registry cannot accumulate entries whose failure path nobody covers.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/fault_points.h"

namespace asqp {
namespace util {
namespace {

TEST(FaultPointRegistryTest, RegisteredLookupWorks) {
  ASSERT_GT(kNumFaultPoints, 0u);
  for (size_t i = 0; i < kNumFaultPoints; ++i) {
    EXPECT_TRUE(IsRegisteredFaultPoint(kFaultPoints[i])) << kFaultPoints[i];
  }
  EXPECT_FALSE(IsRegisteredFaultPoint("no.such.point"));
  EXPECT_FALSE(IsRegisteredFaultPoint(""));
  // Prefixes and extensions of a registered name are not registered.
  EXPECT_FALSE(IsRegisteredFaultPoint("exec"));
  EXPECT_FALSE(IsRegisteredFaultPoint("exec.deadline.extra"));
}

TEST(FaultPointRegistryTest, EveryRegisteredPointIsExercisedByATest) {
  namespace fs = std::filesystem;
  const fs::path tests_dir = fs::path(ASQP_SOURCE_DIR) / "tests";
  ASSERT_TRUE(fs::is_directory(tests_dir));

  // One corpus over every test source; a point is "exercised" when some
  // test names it as a quoted literal (armed via FaultInjector / spec
  // strings or asserted through a fallback_reason of "fault:<point>").
  std::string corpus;
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(tests_dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".cc") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buf;
    buf << in.rdbuf();
    corpus += buf.str();
    ++files;
  }
  ASSERT_GT(files, 1u);

  for (size_t i = 0; i < kNumFaultPoints; ++i) {
    const std::string quoted = std::string("\"") + kFaultPoints[i] + "\"";
    EXPECT_NE(corpus.find(quoted), std::string::npos)
        << "registered fault point " << kFaultPoints[i]
        << " is not exercised by any test under tests/ — add a test that "
           "arms it (or remove the dead registry entry)";
  }
}

}  // namespace
}  // namespace util
}  // namespace asqp
