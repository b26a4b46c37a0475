// Shared command-line flags for the bench and example binaries.
//
// Every driver-style binary accepts the same observability flags:
//   --progress[=seconds]  stderr heartbeat with rate + ETA (default 2 s;
//                         equivalent to GLITCHMASK_PROGRESS=seconds)
//   --report <path>       machine-readable JSON run report
//   --attribute           per-net leakage attribution (culprit ranking;
//                         equivalent to GLITCHMASK_ATTRIBUTION=1)
//   --top-k <n>           culprit-table depth (implies nothing by itself;
//                         only read when attribution is on)
// Parsing exits with usage on anything unrecognised, so binaries that take
// no other arguments stay strict about typos.  Binaries with positional
// operands (e.g. examples/inspect_gadget's gadget selector) pass
// allow_positional = true and read CliOptions::positional.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace glitchmask {

struct CliOptions {
    bool progress = false;
    double progress_interval = 2.0;
    std::string report_path;
    bool attribute = false;
    std::size_t top_k = 10;
    /// Non-flag operands, in order (empty unless allow_positional).
    std::vector<std::string> positional;
};

/// Parses the shared flags (exits with usage on anything unknown) and
/// activates the heartbeat when --progress was given.
[[nodiscard]] CliOptions parse_cli(int argc, char** argv,
                                   bool allow_positional = false);

}  // namespace glitchmask
