// The benchmark's own self-tests, run at the start of every run: the
// percentile helper and the sample reservoir, the revisit-hot spelling
// variants' fingerprints, and span self-time arithmetic.
#pragma once

namespace perfbench {

/// Returns the number of failed checks; each failure is printed to stderr.
int RunSelfTests();

}  // namespace perfbench
