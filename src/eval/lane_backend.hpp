// Lane-width plan and the default-width lane simulator.
//
// Campaigns run on sim::CompiledClockedSim -- 1..8 chunks of 64 lanes
// (64..512 traces per pass), one compiled program shared by all workers
// -- or on the scalar reference sim::ClockedSim; resolve_lanes()
// (eval/parallel_campaign.hpp) picks the width, and the one pipeline in
// eval/trace_campaign.cpp owns both block bodies and the per-chunk sink
// chain.  resolve_backend_plan() and EventLaneSim serve callers that
// replay a campaign's passes outside that pipeline.
//
// Nothing about the lane width folds into the campaign fingerprint:
// results are identical at every width, so a checkpoint resumes at any
// width, scalar included.
#pragma once

#include <cstddef>

#include "eval/checkpoint.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled_simulator.hpp"

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

}  // namespace glitchmask::eval
