// The plain-data types of support/telemetry.hpp that the simulator and
// campaign headers name in their own interfaces.  Kept apart so those
// headers do not pull in the registry and the span tracer: an edit to
// support/telemetry.hpp or support/trace.hpp then rebuilds only the files
// that record telemetry, not every file that runs a simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace glitchmask::telemetry {

/// Cumulative activity counters both event engines expose via stats().
/// Plain members in the engines; deltas are folded into the registry at
/// block boundaries by record_sim_block() (support/telemetry.hpp).
struct SimStats {
    std::uint64_t events = 0;
    std::uint64_t toggles = 0;
    std::uint64_t glitches = 0;
    std::uint64_t inertial_cancels = 0;
    std::uint64_t queue_peak = 0;  // high-water; merged by max
};

/// One progress/ETA update of a campaign (telemetry::ProgressMeter).
struct ProgressUpdate {
    std::string campaign;            // driver id ("des_tvla", "seq_0123")
    std::size_t completed_traces = 0;
    std::size_t total_traces = 0;
    double elapsed_sec = 0.0;
    double traces_per_sec = 0.0;     // rate since start (resume-corrected)
    double eta_sec = 0.0;            // 0 when the rate is still unknown
    bool final = false;              // last update of the run
};

using ProgressFn = std::function<void(const ProgressUpdate&)>;

}  // namespace glitchmask::telemetry
