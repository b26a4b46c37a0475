// DES-level leakage-assessment drivers (paper Sec. VII).
//
// run_des_tvla() reproduces the paper's measurement campaigns: the masked
// DES core runs fixed-vs-random plaintexts in random order with a fixed
// (but freshly masked) key, one power sample per clock cycle, Gaussian
// measurement noise, and univariate t-tests at orders 1..3 over all time
// samples.  "PRNG off" zeroes both the initial masks and the 14 per-round
// refresh bits (paper Figs. 14a / 17d).
//
// mean_power_trace() produces the averaged per-cycle power consumption
// the paper shows as raw scope traces (Figs. 13 / 16).
#pragma once

#include <cstdint>
#include <vector>

#include "des/masked_des.hpp"
#include "eval/checkpoint.hpp"
#include "leakage/attribution.hpp"
#include "leakage/tvla.hpp"
#include "power/power_model.hpp"
#include "sim/clocked.hpp"

namespace glitchmask::eval {

struct DesTvlaConfig {
    std::size_t traces = 1500;
    double noise_sigma = 1.0;
    std::uint64_t seed = 1;
    std::uint64_t placement_seed = 1;
    /// PRNG on: fresh masks + refresh bits; off: all zero (sanity check).
    bool prng_on = true;
    std::uint64_t fixed_plaintext = 0xDA39A3EE5E6B4B0Dull;
    std::uint64_t key = 0x133457799BBCDFF1ull;
    int max_test_order = 3;
    /// Physical-coupling models (PD core, paper Sec. VII-C).
    sim::CouplingConfig coupling = {};
    double coupling_epsilon = 0.0;
    /// Campaign threads; 0 = auto (GLITCHMASK_WORKERS env / core count).
    unsigned workers = 0;
    /// Shard granularity; fixed per campaign so results are bit-identical
    /// at any worker count (see eval/parallel_campaign.hpp).
    std::size_t block_size = 64;
    /// Traces per pass: 1 = scalar, 64/128/256/512 = compiled lane
    /// engine, 0 = auto (GLITCHMASK_LANES env, default 64).  Every width
    /// is bit-identical; timing coupling forces the scalar path regardless.
    unsigned lanes = 0;
    /// Crash-safe runtime knobs: checkpoint path/cadence, cancellation
    /// token (see eval/checkpoint.hpp).  Defaults leave the runtime off.
    CampaignRunOptions run;
};

struct DesTvlaResult {
    std::size_t samples = 0;
    std::size_t traces = 0;
    /// Traces actually folded into the statistics: == `traces` for a full
    /// run, the contiguous completed prefix for a cancelled one.
    std::size_t completed_traces = 0;
    /// The cancel token fired; the result covers completed_traces only.
    bool cancelled = false;
    /// A checkpoint seeded this run (resume path).
    bool resumed = false;
    /// Toggle events the simulation committed across all traces (the
    /// throughput bench's activity metric; deterministic per campaign).
    std::uint64_t toggles = 0;
    /// max |t| per order (index 1..3; index 0 unused).
    std::array<double, 4> max_abs_t{};
    std::array<std::size_t, 4> argmax{};
    /// Per-net culprit ranking; disabled unless config.run.attribution /
    /// GLITCHMASK_ATTRIBUTION was set.  Use run.attribution_scope (e.g.
    /// "sbox") on the full core: unscoped DES attribution costs ~48 B per
    /// (net, cycle) point per in-flight block.
    leakage::AttributionResult attribution;
    leakage::TvlaCampaign campaign;

    explicit DesTvlaResult(std::size_t n_samples, int max_order)
        : campaign(n_samples, max_order) {}
};

/// The campaign identity of one DES TVLA run; `samples` is the core's
/// total_cycles() (des::MaskedDesCore::total_cycles_for answers from the
/// flavor alone).  Exposed so the service layer can key its result cache
/// without building the core.
[[nodiscard]] CampaignFingerprint des_tvla_fingerprint(
    const DesTvlaConfig& config, std::size_t samples);

/// Likewise for mean_power_trace (block size is fixed at 64 there).
[[nodiscard]] CampaignFingerprint mean_power_fingerprint(
    std::size_t traces, std::uint64_t seed, std::uint64_t placement_seed,
    std::size_t samples);

[[nodiscard]] DesTvlaResult run_des_tvla(const des::MaskedDesCore& core,
                                         const DesTvlaConfig& config);

/// Mean per-cycle power over `traces` random encryptions (PRNG on).
/// `lanes` as in DesTvlaConfig (0 = auto; scalar and lane paths are
/// bit-identical).  `run` enables the crash-safe runtime; on cancellation
/// the mean covers `progress->completed_traces` traces.  When
/// run.attribution is on and `attribution` non-null, the per-net activity
/// view is returned there (all traces are one class, so every |t| is the
/// 0.0 sentinel -- the value of attributing a mean-power run is the
/// glitch-density heatmap).
[[nodiscard]] std::vector<double> mean_power_trace(
    const des::MaskedDesCore& core, std::size_t traces, std::uint64_t seed,
    std::uint64_t placement_seed = 1, unsigned workers = 0, unsigned lanes = 0,
    const CampaignRunOptions& run = {}, CampaignProgress* progress = nullptr,
    leakage::AttributionResult* attribution = nullptr);

}  // namespace glitchmask::eval
