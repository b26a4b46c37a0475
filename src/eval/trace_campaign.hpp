// The one trace-campaign pipeline behind every evaluation driver.
//
// Every experiment in the paper runs one loop: restart the device, apply
// fixed-or-random stimulus, record the per-cycle power trace, add
// Gaussian noise and fold it into the statistics.  run_trace_campaign()
// owns that loop once -- config validation and the lane width, the
// crash-safe runtime (fingerprint, checkpoints, run report, telemetry),
// the per-worker sim replicas with their power and attribution sinks, one
// lane block body and one scalar block body, the merge and the finish.
// A Workload carries only what differs between experiments: the circuit
// and its timing, the campaign identity, two drives and a TraceFold.
//
// Every driver's config inherits CampaignSettings (the eight knobs they
// all share, with per-driver defaults) and every result inherits
// CampaignSummary (the runner's progress and attribution), so a driver
// hands its settings to the runner and takes its summary back in one
// assignment each, and the service maps a request onto any driver the
// same way.
//
// Lane group g runs traces [first, first + count) on lanes 0..count-1 and
// the fold walks them in lane order, so every accumulator sees the scalar
// body's addend sequence: scalar, every lane width, every worker count and
// every resume point give the same bits.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "eval/checkpoint.hpp"
#include "leakage/attribution.hpp"
#include "leakage/moment_bank.hpp"
#include "netlist/netlist.hpp"
#include "sim/clocked.hpp"
#include "sim/compiled_simulator.hpp"
#include "sim/delay_model.hpp"
#include "support/thread_pool.hpp"

namespace glitchmask::eval {

/// The placement every campaign simulates: the spartan6 delay model with
/// its per-instance jitter seeded by `placement_seed`.
[[nodiscard]] sim::DelayConfig placement_delay_config(
    std::uint64_t placement_seed);

/// Per-chunk lane masks: bit lane % 64 of word lane / 64 is lane `lane`.
using LaneWords = std::array<std::uint64_t, sim::kMaxLaneChunks>;

inline void set_lane(LaneWords& words, unsigned lane) noexcept {
    words[lane / 64u] |= std::uint64_t{1} << (lane % 64u);
}

struct LaneWorker;  // the pipeline's per-worker lane replica

/// One lane group handed to Workload::drive_lanes: traces [first, first +
/// count) run on lanes 0..count-1 of `sim`.  The drive packs their
/// stimulus, marks the fixed-class lanes in `fixed`, calls start(), then
/// applies the inputs and runs the pass.  Valid only during that call.
class LaneGroup {
public:
    LaneGroup(LaneWorker& worker, std::size_t first, unsigned count,
              std::size_t bins, leakage::AttributionAccumulator& attr);

    sim::CompiledClockedSim& sim;
    const std::size_t first;
    const unsigned count;
    LaneWords fixed{};

    /// Restarts the simulator and arms the power recorders and, with
    /// attribution on, the probes with the class masks; call once `fixed`
    /// is complete and before the first input is applied.
    void start();

private:
    LaneWorker& worker_;
    std::size_t bins_;
    leakage::AttributionAccumulator& attr_;
};

/// What each trace adds to its block accumulator.  max_test_order 1..3:
/// the trace plus Gaussian noise (drawn in bin order from its kNoiseStream
/// generator) goes into a TVLA MomentBank; 0: the noiseless trace is
/// summed per bin (mean power).  count_toggles also counts the toggles
/// each trace commits (a u64 after the bank in snapshots).
struct TraceFold {
    int max_test_order = 0;
    double noise_sigma = 0.0;
    bool count_toggles = false;
};

/// One campaign's stimulus schedule and circuit.  The references must
/// outlive run_trace_campaign; the drives are called concurrently from
/// every pool worker and must be pure functions of the trace indices.
struct Workload {
    const netlist::Netlist& nl;
    const sim::DelayModel& dm;
    sim::ClockConfig clock;
    sim::CouplingConfig coupling = {};
    /// Energy coupling of the power model (one sample per clock period).
    double coupling_epsilon = 0.0;
    std::size_t bins = 0;  // power samples per trace
    /// Default checkpoint/report id and telemetry campaign name.
    std::string tag;
    /// Campaign identity; the attribution identity is folded in when on.
    CampaignFingerprint fingerprint;
    TraceFold fold = {};
    /// Runs one lane group (see LaneGroup).
    std::function<void(LaneGroup&)> drive_lanes = {};
    /// Applies trace `trace_index`'s stimulus to a restarted `sim` with
    /// armed sinks, runs it, and returns its class (true = fixed).
    std::function<bool(sim::ClockedSim& sim, std::size_t trace_index)>
        drive_trace = {};
};

/// The knobs every campaign driver shares.  Each driver config (and
/// service::CampaignRequest) inherits them and sets its own defaults.
struct CampaignSettings {
    std::size_t traces = 0;
    /// Gaussian measurement noise added to every power sample.
    double noise_sigma = 0.0;
    /// Seeds the per-trace stimulus and noise streams.
    std::uint64_t seed = 1;
    /// Seeds the delay model's per-instance jitter.
    std::uint64_t placement_seed = 1;
    /// TVLA orders 1..max_test_order (at most 3).
    int max_test_order = 2;
    /// Campaign threads; 0 = auto (GLITCHMASK_WORKERS / core count).
    unsigned workers = 0;
    /// Shard granularity, part of the campaign identity: results are
    /// bit-identical at any worker count (see parallel_campaign.hpp).
    std::size_t block_size = 64;
    /// Traces per pass: 1 = scalar, 64..512 = lane engine, 0 = auto
    /// (GLITCHMASK_LANES, default 64).  Every width is bit-identical.
    unsigned lanes = 0;
};

/// What every campaign result reports besides its statistics: how far the
/// run got and, with attribution on, the per-net culprit ranking
/// (disabled otherwise).
struct CampaignSummary {
    CampaignProgress progress;
    leakage::AttributionResult attribution;
};

struct TraceCampaignConfig {
    std::size_t traces = 0;
    std::size_t block_size = 64;
    /// Seeds the per-trace noise streams (the drives own their stimulus).
    std::uint64_t seed = 1;
    /// 1 = scalar, 64..512 = lane engine, 0 = auto (see resolve_lanes).
    unsigned lanes = 0;
};

struct TraceCampaignResult : CampaignSummary {
    /// TVLA folds: the merged statistics.
    leakage::MomentBank bank;
    /// Mean-power folds: per-bin sums of the noiseless traces.
    std::vector<double> sum;
    /// Committed toggles (TraceFold::count_toggles).
    std::uint64_t toggles = 0;
    /// max |t| and its sample per order 1..max_test_order (index 0 unused).
    std::array<double, 4> max_abs_t{};
    std::array<std::size_t, 4> argmax{};
};

/// Runs `workload` for config.traces traces on `pool` with the crash-safe
/// runtime of `run`, and writes the run report when one is requested.
/// Throws std::invalid_argument on a degenerate config.
[[nodiscard]] TraceCampaignResult run_trace_campaign(
    const Workload& workload, const TraceCampaignConfig& config,
    const CampaignRunOptions& run, ThreadPool& pool);

}  // namespace glitchmask::eval
