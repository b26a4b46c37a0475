#include "eval/lane_backend.hpp"

#include "eval/parallel_campaign.hpp"

namespace glitchmask::eval {

BackendPlan resolve_backend_plan(const CampaignRunOptions& /*run*/,
                                 unsigned configured_lanes,
                                 bool timing_coupling,
                                 std::size_t /*netlist_nets*/) {
    BackendPlan plan;
    plan.lanes = resolve_lanes(configured_lanes, timing_coupling);
    plan.backend = plan.scalar() ? SimBackend::Scalar : SimBackend::Compiled;
    return plan;
}

}  // namespace glitchmask::eval
