// Run attribution: who/where/when identifiers stamped on results that
// outlive the process.
//
// The cross-run ledger (obs/ledger.hpp) compares campaigns *across*
// revisions and machines, so every durable artifact -- run reports, bench
// JSON, ledger entries -- carries (git revision, hostname, UTC timestamp).
// All three are best-effort: an unknown value reads as "" and never
// fails a run.  Each has an environment override so CI can pin them for
// byte-identical fixtures:
//
//   GLITCHMASK_GIT_REVISION  overrides git_revision()
//   GLITCHMASK_HOST          overrides host_name()
//   GLITCHMASK_UTC           overrides utc_timestamp()
//
// git_revision() reads no file at run time: the build stamps the library
// with `git rev-parse HEAD` of its source checkout, suffixed "-dirty"
// when tracked files differ from HEAD (support/build_revision.cmake), so
// a binary reports the revision it was built from wherever it runs.
#pragma once

#include <string>

namespace glitchmask {

/// 40-hex commit id the library was built from, plus "-dirty" for an
/// uncommitted tree; "" when the build found no git checkout.
/// $GLITCHMASK_GIT_REVISION wins.
[[nodiscard]] std::string git_revision();

/// gethostname(), or "unknown" when it fails.  $GLITCHMASK_HOST wins.
[[nodiscard]] std::string host_name();

/// Current time as "YYYY-MM-DDTHH:MM:SSZ" (UTC, second resolution --
/// lexicographic order is chronological order, which the ledger's
/// history ordering relies on).  $GLITCHMASK_UTC wins.
[[nodiscard]] std::string utc_timestamp();

}  // namespace glitchmask
