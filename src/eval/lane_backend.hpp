// Campaign-side seam to the lane engine.
//
// The campaign drivers (eval/campaign.cpp, eval/gadget_tvla.cpp,
// eval/des_experiments.cpp) run their lane-parallel block bodies against
// sim::CompiledClockedSim -- 1..8 chunks of 64 lanes (64..512 traces per
// pass), one program shared by all workers -- and their scalar bodies
// against the reference sim::ClockedSim; resolve_lanes()
// (eval/parallel_campaign.hpp) picks between them.
//
// LaneWorker bundles the lane sim with its per-chunk sinks (one
// BatchPowerRecorder per chunk, optionally one BatchAttributionProbe per
// chunk).  Chunk c covers lanes [64c, 64c+64) == traces group+64c ..
// group+64c+63, so folding chunk-by-chunk in chunk order feeds the
// accumulators in trace order -- the same per-trace addend sequence as
// the scalar path, hence bit-identical campaign statistics at any width.
//
// Nothing about the lane width folds into the campaign fingerprint:
// results are identical at every width, so a checkpoint resumes at any
// width, scalar included.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "eval/checkpoint.hpp"
#include "leakage/attribution.hpp"
#include "netlist/netlist.hpp"
#include "power/batch_power.hpp"
#include "sim/compiled_simulator.hpp"
#include "support/telemetry.hpp"

namespace glitchmask::eval {

enum class SimBackend { Scalar, Compiled };

struct BackendPlan {
    SimBackend backend = SimBackend::Compiled;
    /// Traces per pass: 1 = the scalar EventSimulator, 64/128/256/512 =
    /// the compiled lane engine.
    unsigned lanes = 64;

    [[nodiscard]] bool scalar() const noexcept { return lanes == 1; }
    [[nodiscard]] unsigned chunks() const noexcept { return lanes / 64u; }
};

/// resolve_lanes() as a plan, for callers that replay a campaign outside
/// its driver.  `run` and `netlist_nets` do not affect the plan.  Throws
/// std::invalid_argument for a lane width the engine cannot serve.
[[nodiscard]] BackendPlan resolve_backend_plan(const CampaignRunOptions& run,
                                               unsigned configured_lanes,
                                               bool timing_coupling,
                                               std::size_t netlist_nets = 0);

/// The lane engine at its default width: one 64-lane chunk.
class EventLaneSim : public sim::CompiledClockedSim {
public:
    EventLaneSim(const netlist::Netlist& nl, const sim::DelayModel& dm,
                 sim::ClockConfig clock = {}, sim::CouplingConfig coupling = {},
                 sim::SimOptions options = {})
        : CompiledClockedSim(nl, dm, sim::kBatchLanes, clock, coupling,
                             options) {}
};

/// One campaign worker's lane-parallel replica: the lane sim plus its
/// per-chunk sink chain.  Construct in place (make_unique, forwarding the
/// CompiledClockedSim arguments) and call attach_sinks() once -- the sink
/// registrations hold pointers into the recorder/probe vectors, which are
/// reserved up front and never move.
struct LaneWorker {
    sim::CompiledClockedSim sim;
    std::vector<power::BatchPowerRecorder> recorders;      // one per chunk
    std::vector<leakage::BatchAttributionProbe> probes;    // one per chunk
    std::vector<double> noisy;
    telemetry::SimStats last_stats{};

    template <class... Args>
    explicit LaneWorker(Args&&... args) : sim(std::forward<Args>(args)...) {}

    void attach_sinks(const netlist::Netlist& nl,
                      const power::PowerConfig& power_config,
                      const leakage::AttributionPlan* attribution) {
        const unsigned n = sim.chunks();
        recorders.reserve(n);
        probes.reserve(n);
        for (unsigned c = 0; c < n; ++c) {
            recorders.emplace_back(nl, power_config);
            recorders.back().attach(sim.chunk_view(c));
        }
        for (unsigned c = 0; c < n; ++c) {
            if (attribution != nullptr) {
                probes.emplace_back(*attribution, &recorders[c]);
                sim.set_sink(c, &probes[c]);
            } else {
                sim.set_sink(c, &recorders[c]);
            }
        }
    }

    [[nodiscard]] unsigned chunks() const noexcept { return sim.chunks(); }
    /// Traces simulated per pass (the drivers' group stride).
    [[nodiscard]] unsigned group_lanes() const noexcept {
        return sim.chunks() * 64u;
    }

    /// Arms every chunk's recorder (and, when attribution is on, probe)
    /// for the next group.
    /// `fixed` points at chunks() per-chunk class masks, `count` is the
    /// number of live lanes in the group, and `attr` -- which must
    /// outlive the group -- receives the probes' window subtotals
    /// incrementally while the pass runs (exact integer sums, so the
    /// chunk-interleaved order is bit-identical to the scalar fold).
    void begin_group(std::size_t bins, const std::uint64_t* fixed = nullptr,
                     unsigned count = 0,
                     leakage::AttributionAccumulator* attr = nullptr) {
        for (auto& recorder : recorders) recorder.begin_trace(bins);
        if (attr == nullptr) return;
        for (unsigned c = 0; c < probes.size(); ++c) {
            const unsigned cnt =
                count > c * 64u ? std::min(64u, count - c * 64u) : 0u;
            probes[c].begin_group(fixed != nullptr ? fixed[c] : 0u, cnt,
                                  *attr);
        }
    }

    /// Spills the probes' staged block subtotals; call once after the
    /// last group of each block (before the block accumulator is read).
    void finish_block() {
        for (auto& probe : probes) probe.spill_block();
    }

    [[nodiscard]] double sample(std::size_t bin, unsigned lane) const noexcept {
        return recorders[lane / 64u].sample(bin, lane % 64u);
    }
    [[nodiscard]] std::uint64_t lane_toggles(unsigned lane) const noexcept {
        return recorders[lane / 64u].lane_toggles(lane % 64u);
    }
    /// One lane's complete trace plus Gaussian noise into `out` -- the
    /// fused statistics path hands this row straight to MomentBank
    /// without materializing the whole noisy batch matrix.
    void noisy_row(unsigned lane, Xoshiro256& rng, double sigma,
                   std::vector<double>& out) const {
        recorders[lane / 64u].noisy_lane_trace_into(lane % 64u, rng, sigma,
                                                    out);
    }
};

}  // namespace glitchmask::eval
