#include "eval/parallel_campaign.hpp"

#include <stdexcept>
#include <string>

#include "support/env.hpp"
#include "support/log.hpp"

namespace glitchmask::eval {

unsigned resolve_workers(unsigned configured) {
    return configured > 0 ? configured : ThreadPool::default_worker_count();
}

namespace {

bool valid_lane_width(unsigned lanes) noexcept {
    return lanes == 1 || lanes == 64 || lanes == 128 || lanes == 256 ||
           lanes == 512;
}

}  // namespace

unsigned resolve_lanes(unsigned configured, bool timing_coupling) {
    unsigned lanes = configured;
    if (lanes == 0)
        lanes = static_cast<unsigned>(env_int("GLITCHMASK_LANES", 64));
    if (!valid_lane_width(lanes))
        throw std::invalid_argument(
            "campaign config: lanes must be 1 (scalar) or 64/128/256/512 "
            "(compiled lane engine), got " +
            std::to_string(lanes));
    // Data-dependent delays cannot share one event schedule across lanes.
    if (timing_coupling) {
        if (lanes != 1)
            log::info("timing coupling forces the scalar simulator; ignoring "
                      "lanes=" +
                      std::to_string(lanes));
        return 1;
    }
    return lanes;
}

void validate_campaign_config(std::size_t traces, std::size_t block_size,
                              unsigned lanes) {
    if (traces == 0)
        throw std::invalid_argument(
            "campaign config: traces must be > 0 (a zero budget would "
            "silently produce a zero-block plan)");
    if (block_size == 0)
        throw std::invalid_argument(
            "campaign config: block_size must be > 0 (a zero block size "
            "would silently produce a zero-block plan)");
    if (lanes != 0 && !valid_lane_width(lanes))
        throw std::invalid_argument(
            "campaign config: lanes must be 0 (auto), 1 (scalar) or "
            "64/128/256/512 (compiled lane engine), got " +
            std::to_string(lanes));
}

}  // namespace glitchmask::eval
