// Lane-word power recording for one 64-lane chunk of the compiled
// wide-lane engine (sim/compiled_simulator.hpp).
//
// The scalar PowerRecorder deposits one energy weight per committed
// toggle; the lane engine commits up to 64 traces' toggles per chunk in
// one event, delivered as a lane mask, and hands a chunk's commits over
// in batches (sim::ToggleEntry spans, in commit order).
// BatchPowerRecorder keeps a bin-major matrix of (bins x 64) samples and
// deposits the identical per-toggle doubles into each toggled lane's
// column, in the identical per-lane event order, so every lane's
// extracted trace is bit-for-bit the scalar trace of that lane's
// stimulus (the equivalence tests assert ==, not near).  A batch is cut
// into runs of same-bin entries, one deposit kernel call per run
// (power/deposit_kernels.hpp).
//
// Per-lane Hamming activity is counted with popcount64(toggled) for the
// batch total plus a per-lane counter array, so toggle statistics stay
// exact even when a campaign's final block uses fewer than 64 lanes.
//
// Energy coupling (PowerConfig::coupling_epsilon) works in batch mode:
// the Miller term only reads the *committed* lane word of the partner
// net.  The recorder declares its partner table to the engine, which
// captures that word into each entry at commit time.  A lone
// on_toggle() carries no partner word, so a coupled, attached recorder
// refuses it (std::logic_error) rather than read the partner back after
// the fact; a wrapper sink must forward on_toggles() and
// coupling_partners().  Timing coupling never reaches this class -- the
// lane engine refuses to construct under it.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "power/deposit_kernels.hpp"
#include "power/power_model.hpp"
#include "sim/compiled_simulator.hpp"

namespace glitchmask::power {

namespace kernels {

/// Chunk noise: for lanes [0, live) of the bin-major (bins x 64) sample
/// matrix `trace`, writes lane-major noisy rows out[lane * bins + bin] =
/// trace[bin * 64 + lane] + (0.0 + sigma * g), g the lane's Marsaglia
/// polar draws from Xoshiro256(mix64(stream, first + lane)) in bin order
/// (no draws when sigma <= 0).  The AVX-512 form keeps a rejection mask
/// and the spare per lane, calls std::log per lane and does the rest
/// with IEEE vector ops, so it is bit-identical to the per-lane walk.
using NoisyRowsFn = void (*)(const double* trace, std::size_t bins,
                             unsigned live, std::uint64_t stream,
                             std::uint64_t first, double sigma, double* out);

#if defined(GLITCHMASK_HAVE_AVX512)
void noisy_rows_avx512(const double* trace, std::size_t bins, unsigned live,
                       std::uint64_t stream, std::uint64_t first, double sigma,
                       double* out);
#endif

}  // namespace kernels

class BatchPowerRecorder final : public sim::BatchToggleSink {
public:
    BatchPowerRecorder(const Netlist& nl, PowerConfig config);

    /// Enables the coupling term (coupling_epsilon != 0): the chunk view
    /// of the lane engine this recorder's sink is registered on.  The
    /// partner words come with the batches; the view marks the recorder
    /// as attached.
    void attach(const sim::BatchWordView* engine) noexcept {
        engine_ = engine;
    }

    /// Starts a fresh batch of traces of `bins` samples each (all zero).
    /// Reuses the sample matrix's capacity across batches.
    void begin_trace(std::size_t bins);

    void on_toggles(std::span<const sim::ToggleEntry> batch) override;
    void on_toggle(NetId net, sim::TimePs time, std::uint64_t values,
                   std::uint64_t toggled) override;
    [[nodiscard]] const NetId* coupling_partners() const noexcept override {
        return config_.coupling_epsilon != 0.0 ? partner_.data() : nullptr;
    }

    [[nodiscard]] std::size_t bins() const noexcept { return bins_; }

    [[nodiscard]] double sample(std::size_t bin, unsigned lane) const noexcept {
        return trace_[bin * sim::kBatchLanes + lane];
    }

    /// Extracts lane `lane`'s noise-free trace into `out` (resized).
    void lane_trace_into(unsigned lane, std::vector<double>& out) const;

    /// Extracts lane `lane`'s trace with i.i.d. Gaussian noise drawn from
    /// `rng` in bin order -- the same draw sequence as the scalar
    /// noisy_trace so a lane's noisy samples match the scalar path
    /// bit-for-bit under the same per-trace rng.
    void noisy_lane_trace_into(unsigned lane, Xoshiro256& rng, double sigma,
                               std::vector<double>& out) const;

    /// The noisy traces of lanes [0, live) as lane-major rows: row `lane`
    /// (out[lane * bins() ..]) is bit for bit what noisy_lane_trace_into
    /// writes for that lane with rng = Xoshiro256(mix64(stream, first +
    /// lane)) -- trace_rng(seed, tag, first + lane) when stream is
    /// mix64(seed, tag).  On AVX-512F+DQ hosts eight lanes draw at once
    /// (kernels::noisy_rows_avx512); elsewhere this loops over the lanes.
    void noisy_rows_into(unsigned live, std::uint64_t stream,
                         std::uint64_t first, double sigma, double* out) const;

    /// Toggles committed in lane `lane` since begin_trace() (includes
    /// out-of-window toggles past the last bin, like the scalar counter).
    [[nodiscard]] std::uint64_t lane_toggles(unsigned lane) const noexcept {
        return lane_toggles_[lane];
    }

    /// Sum over all lanes since begin_trace().
    [[nodiscard]] std::uint64_t trace_toggles() const noexcept {
        return trace_toggles_;
    }

    /// Sum over all lanes over the recorder's lifetime.
    [[nodiscard]] std::uint64_t total_toggles() const noexcept {
        return total_toggles_;
    }

    [[nodiscard]] const PowerConfig& config() const noexcept { return config_; }

private:
    void noisy_lane_row(unsigned lane, Xoshiro256& rng, double sigma,
                        double* out) const;

    PowerConfig config_;
    kernels::DepositKernels kernels_;
    kernels::NoisyRowsFn noisy_rows_ = nullptr;
    const sim::BatchWordView* engine_ = nullptr;
    std::vector<double> weight_;
    std::vector<NetId> partner_;
    std::vector<double> trace_;  // bin-major: [bin * 64 + lane]
    std::size_t bins_ = 0;
    // Current-bin cursor: engine commit times never decrease within a
    // batch of traces, so the bin index advances monotonically -- no
    // division per entry.  bin_end_ == (cur_bin_ + 1) * bin_ps.
    std::size_t cur_bin_ = 0;
    sim::TimePs bin_end_ = 0;
    std::array<std::uint64_t, sim::kBatchLanes> lane_toggles_{};
    std::uint64_t trace_toggles_ = 0;
    std::uint64_t total_toggles_ = 0;
};

}  // namespace glitchmask::power
