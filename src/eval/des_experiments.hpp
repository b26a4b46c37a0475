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
//
// Both run on the shared pipeline of eval/trace_campaign.hpp: DesTvlaConfig
// is CampaignSettings plus the DES stimulus and coupling knobs, and both
// results inherit CampaignSummary.
#pragma once

#include <cstdint>
#include <vector>

#include "des/masked_des.hpp"
#include "eval/checkpoint.hpp"
#include "eval/trace_campaign.hpp"
#include "leakage/tvla.hpp"
#include "power/power_model.hpp"
#include "sim/clocked.hpp"

namespace glitchmask::eval {

struct DesTvlaConfig : CampaignSettings {
    DesTvlaConfig()
        : CampaignSettings{
              .traces = 1500, .noise_sigma = 1.0, .max_test_order = 3} {}

    /// PRNG on: fresh masks + refresh bits; off: all zero (sanity check).
    bool prng_on = true;
    std::uint64_t fixed_plaintext = 0xDA39A3EE5E6B4B0Dull;
    std::uint64_t key = 0x133457799BBCDFF1ull;
    /// Physical-coupling models (PD core, paper Sec. VII-C).  Timing
    /// coupling forces the scalar path at any `lanes`.
    sim::CouplingConfig coupling = {};
    double coupling_epsilon = 0.0;
    /// Crash-safe runtime knobs: checkpoint path/cadence, cancellation
    /// token (see eval/checkpoint.hpp).  Defaults leave the runtime off.
    CampaignRunOptions run;
};

/// To attribute the full core, set run.attribution_scope (e.g. "sbox"):
/// unscoped DES attribution costs ~48 B per (net, cycle) point per
/// in-flight block.
struct DesTvlaResult : CampaignSummary {
    std::size_t samples = 0;
    std::size_t traces = 0;
    /// Toggle events the simulation committed across all traces (the
    /// throughput bench's activity metric; deterministic per campaign).
    std::uint64_t toggles = 0;
    /// max |t| per order (index 1..3; index 0 unused).
    std::array<double, 4> max_abs_t{};
    std::array<std::size_t, 4> argmax{};
    leakage::TvlaCampaign campaign;

    explicit DesTvlaResult(std::size_t n_samples, int max_order)
        : campaign(n_samples, max_order) {}
};

/// mean_power_trace's result: the mean per-cycle power over the
/// progress's completed traces.  All traces are one class, so an
/// attributed run's |t| are all the 0.0 sentinel -- its value is the
/// per-net glitch-density heatmap.
struct MeanPowerResult : CampaignSummary {
    std::vector<double> mean;
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

/// Mean per-cycle power over `traces` random encryptions (PRNG on), at
/// a fixed block size of 64 and no noise.  `workers` and `lanes` as in
/// CampaignSettings; `run` enables the crash-safe runtime.
[[nodiscard]] MeanPowerResult mean_power_trace(
    const des::MaskedDesCore& core, std::size_t traces, std::uint64_t seed,
    std::uint64_t placement_seed = 1, unsigned workers = 0, unsigned lanes = 0,
    const CampaignRunOptions& run = {});

}  // namespace glitchmask::eval
