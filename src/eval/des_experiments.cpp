#include "eval/des_experiments.hpp"

#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "core/sharing.hpp"
#include "eval/parallel_campaign.hpp"
#include "eval/trace_campaign.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace glitchmask::eval {

namespace {

/// Trace n's full stimulus, a pure function of (config, n): class choice,
/// masked operands, and the generator whose continued state supplies the
/// per-round refresh bits -- the exact draw order of the original scalar
/// loop, shared by both paths.
struct DesStimulus {
    bool fixed = false;
    core::MaskedWord pt, key;
    Xoshiro256 rng;
};

DesStimulus des_stimulus(const DesTvlaConfig& config, std::size_t trace_index) {
    DesStimulus stim;
    stim.rng = trace_rng(config.seed, kStimulusStream, trace_index);
    stim.fixed = stim.rng.bit();
    const std::uint64_t pt = stim.fixed ? config.fixed_plaintext : stim.rng();
    if (config.prng_on) {
        stim.pt = core::mask_word(pt, 64, stim.rng);
        stim.key = core::mask_word(config.key, 64, stim.rng);
    } else {
        stim.pt = core::MaskedWord{0, pt};
        stim.key = core::MaskedWord{0, config.key};
    }
    return stim;
}

/// Both drives of a DES workload: `stimulus(n)` is trace n's DesStimulus;
/// with `prng_on` its generator supplies the refresh bits, else they are
/// all zero.
template <class Stimulus>
void set_des_drives(Workload& workload, const des::MaskedDesCore& core,
                    bool prng_on, Stimulus stimulus) {
    workload.drive_lanes = [&core, prng_on, stimulus](LaneGroup& group) {
        std::vector<core::MaskedWord> pts, keys;
        std::vector<Xoshiro256> prngs;
        pts.reserve(group.count);
        keys.reserve(group.count);
        prngs.reserve(group.count);
        for (unsigned lane = 0; lane < group.count; ++lane) {
            const DesStimulus stim = stimulus(group.first + lane);
            if (stim.fixed) set_lane(group.fixed, lane);
            pts.push_back(stim.pt);
            keys.push_back(stim.key);
            prngs.push_back(stim.rng);
        }
        group.start();
        (void)core.encrypt_batch_chunks(
            group.sim, pts, keys,
            prng_on ? std::span<Xoshiro256>(prngs) : std::span<Xoshiro256>{});
    };
    workload.drive_trace = [&core, prng_on, stimulus](sim::ClockedSim& s,
                                                      std::size_t n) {
        DesStimulus stim = stimulus(n);
        (void)core.encrypt(s, stim.pt, stim.key,
                           prng_on ? &stim.rng : nullptr);
        return stim.fixed;
    };
}

}  // namespace

/// Everything that defines the campaign's statistics except workers and
/// lanes (both proven bit-identical) goes into the fingerprint.
CampaignFingerprint des_tvla_fingerprint(const DesTvlaConfig& config,
                                         std::size_t samples) {
    std::uint64_t payload = kFnvOffset;
    payload = fnv1a64(payload, config.placement_seed);
    payload = fnv1a64(payload, std::bit_cast<std::uint64_t>(config.noise_sigma));
    payload = fnv1a64(payload, config.prng_on ? 1 : 0);
    payload = fnv1a64(payload, config.fixed_plaintext);
    payload = fnv1a64(payload, config.key);
    payload = fnv1a64(payload, static_cast<std::uint64_t>(config.max_test_order));
    payload = fnv1a64(payload, static_cast<std::uint64_t>(samples));
    payload = fnv1a64(payload, config.coupling.timing_enabled ? 1 : 0);
    payload = fnv1a64(payload, config.coupling.window_ps);
    payload = fnv1a64(payload, config.coupling.slowdown_ps);
    payload = fnv1a64(payload, config.coupling.speedup_ps);
    payload =
        fnv1a64(payload, std::bit_cast<std::uint64_t>(config.coupling_epsilon));
    return CampaignFingerprint{fnv1a64_tag("des_tvla"), config.seed,
                               config.traces, config.block_size, payload};
}

CampaignFingerprint mean_power_fingerprint(std::size_t traces,
                                           std::uint64_t seed,
                                           std::uint64_t placement_seed,
                                           std::size_t samples) {
    std::uint64_t payload = kFnvOffset;
    payload = fnv1a64(payload, placement_seed);
    payload = fnv1a64(payload, static_cast<std::uint64_t>(samples));
    return CampaignFingerprint{fnv1a64_tag("mean_power"), seed, traces,
                               /*block_size=*/64, payload};
}

DesTvlaResult run_des_tvla(const des::MaskedDesCore& core,
                           const DesTvlaConfig& config) {
    const sim::DelayModel dm(core.nl(),
                             placement_delay_config(config.placement_seed));
    const std::size_t samples = core.total_cycles();
    Workload workload{
        .nl = core.nl(),
        .dm = dm,
        .clock = {.period_ps = core.recommended_period()},
        .coupling = config.coupling,
        .coupling_epsilon = config.coupling_epsilon,
        .bins = samples,
        .tag = "des_tvla",
        .fingerprint = des_tvla_fingerprint(config, samples),
        .fold = {.max_test_order = config.max_test_order,
                 .noise_sigma = config.noise_sigma,
                 .count_toggles = true},
    };
    set_des_drives(workload, core, config.prng_on, [&](std::size_t n) {
        return des_stimulus(config, n);
    });
    ThreadPool pool(resolve_workers(config.workers));
    TraceCampaignResult campaign = run_trace_campaign(
        workload,
        {config.traces, config.block_size, config.seed, config.lanes},
        config.run, pool);

    DesTvlaResult result(samples, config.max_test_order);
    result.samples = samples;
    result.traces = config.traces;
    result.toggles = campaign.toggles;
    result.max_abs_t = campaign.max_abs_t;
    result.argmax = campaign.argmax;
    result.campaign = campaign.bank.to_campaign();
    static_cast<CampaignSummary&>(result) = std::move(campaign);
    return result;
}

MeanPowerResult mean_power_trace(const des::MaskedDesCore& core,
                                 std::size_t traces, std::uint64_t seed,
                                 std::uint64_t placement_seed,
                                 unsigned workers, unsigned lanes,
                                 const CampaignRunOptions& run) {
    const sim::DelayModel dm(core.nl(), placement_delay_config(placement_seed));
    const std::size_t samples = core.total_cycles();
    Workload workload{
        .nl = core.nl(),
        .dm = dm,
        .clock = {.period_ps = core.recommended_period()},
        .bins = samples,
        .tag = "mean_power",
        .fingerprint =
            mean_power_fingerprint(traces, seed, placement_seed, samples),
        .fold = {},  // noiseless per-bin sums
    };
    // Random plaintext and key, masked, PRNG on; every trace is of the
    // random class.
    set_des_drives(workload, core, /*prng_on=*/true, [seed](std::size_t n) {
        DesStimulus stim;
        stim.rng = trace_rng(seed, kStimulusStream, n);
        const std::uint64_t pt = stim.rng();
        const std::uint64_t key = stim.rng();
        stim.pt = core::mask_word(pt, 64, stim.rng);
        stim.key = core::mask_word(key, 64, stim.rng);
        return stim;
    });
    ThreadPool pool(resolve_workers(workers));
    TraceCampaignResult campaign = run_trace_campaign(
        workload, {traces, /*block_size=*/64, seed, lanes}, run, pool);

    MeanPowerResult result;
    result.mean = std::move(campaign.sum);
    // A cancelled run averages over the traces it actually folded in.
    const std::size_t denom = campaign.progress.completed_traces > 0
                                  ? campaign.progress.completed_traces
                                  : traces;
    for (double& v : result.mean) v /= static_cast<double>(denom);
    static_cast<CampaignSummary&>(result) = std::move(campaign);
    return result;
}

}  // namespace glitchmask::eval
