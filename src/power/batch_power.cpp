#include "power/batch_power.hpp"

#include <stdexcept>

#include "support/simd.hpp"

namespace glitchmask::power {

BatchPowerRecorder::BatchPowerRecorder(const Netlist& nl, PowerConfig config)
    : config_(config), kernels_(kernels::resolve_deposit_kernels()) {
#if defined(GLITCHMASK_HAVE_AVX512)
    if (support::active_simd_level() >= support::SimdLevel::kAvx512)
        noisy_rows_ = kernels::noisy_rows_avx512;
#endif
    if (!nl.frozen())
        throw std::runtime_error("BatchPowerRecorder: netlist not frozen");
    weight_ = net_weights(nl, config);
    partner_ = power::coupling_partners(nl);
}

void BatchPowerRecorder::begin_trace(std::size_t bins) {
    bins_ = bins;
    trace_.assign(bins * sim::kBatchLanes, 0.0);
    lane_toggles_.fill(0);
    trace_toggles_ = 0;
    cur_bin_ = 0;
    bin_end_ = config_.bin_ps;
}

void BatchPowerRecorder::on_toggles(std::span<const sim::ToggleEntry> batch) {
    // Partner words come with the entries; an unattached recorder records
    // no coupling term, exactly like the scalar path without an engine.
    const NetId* partner = config_.coupling_epsilon != 0.0 && engine_ != nullptr
                               ? partner_.data()
                               : nullptr;
    const sim::ToggleEntry* e = batch.data();
    const sim::ToggleEntry* const end = e + batch.size();
    std::uint64_t toggles = 0;
    while (e != end) {
        // Monotonic bin cursor (commit times never decrease in a batch of
        // traces): once a commit lands past the window, so do the rest,
        // and only the lane counters advance.
        bool in_window = cur_bin_ < bins_;
        while (in_window && e->time >= bin_end_) {
            bin_end_ += config_.bin_ps;
            in_window = ++cur_bin_ < bins_;
        }
        if (!in_window) {
            toggles += kernels_.count(lane_toggles_.data(), e,
                                      static_cast<std::size_t>(end - e));
            break;
        }
        const sim::ToggleEntry* run_end = e + 1;
        while (run_end != end && run_end->time < bin_end_) ++run_end;
        toggles += kernels_.deposit(trace_.data() + cur_bin_ * sim::kBatchLanes,
                                    lane_toggles_.data(), e,
                                    static_cast<std::size_t>(run_end - e),
                                    weight_.data(), partner,
                                    config_.coupling_epsilon);
        e = run_end;
    }
    trace_toggles_ += toggles;
    total_toggles_ += toggles;
}

void BatchPowerRecorder::on_toggle(NetId net, sim::TimePs time,
                                   std::uint64_t values, std::uint64_t toggled) {
    // A lone commit carries no partner word, and reading the chunk view
    // now would see the partner as of delivery, not of the commit.
    if (config_.coupling_epsilon != 0.0 && engine_ != nullptr)
        throw std::logic_error(
            "BatchPowerRecorder: coupled recording takes on_toggles() "
            "batches only");
    const sim::ToggleEntry entry{net, time, values, toggled, 0};
    on_toggles(std::span<const sim::ToggleEntry>(&entry, 1));
}

void BatchPowerRecorder::lane_trace_into(unsigned lane,
                                         std::vector<double>& out) const {
    out.resize(bins_);
    for (std::size_t bin = 0; bin < bins_; ++bin)
        out[bin] = trace_[bin * sim::kBatchLanes + lane];
}

void BatchPowerRecorder::noisy_lane_row(unsigned lane, Xoshiro256& rng,
                                        double sigma, double* out) const {
    for (std::size_t bin = 0; bin < bins_; ++bin)
        out[bin] = trace_[bin * sim::kBatchLanes + lane];
    if (sigma > 0.0)
        for (std::size_t bin = 0; bin < bins_; ++bin)
            out[bin] += rng.gaussian(0.0, sigma);
}

void BatchPowerRecorder::noisy_lane_trace_into(unsigned lane, Xoshiro256& rng,
                                               double sigma,
                                               std::vector<double>& out) const {
    out.resize(bins_);
    noisy_lane_row(lane, rng, sigma, out.data());
}

void BatchPowerRecorder::noisy_rows_into(unsigned live, std::uint64_t stream,
                                         std::uint64_t first, double sigma,
                                         double* out) const {
    if (noisy_rows_ != nullptr) {
        noisy_rows_(trace_.data(), bins_, live, stream, first, sigma, out);
        return;
    }
    for (unsigned lane = 0; lane < live; ++lane) {
        Xoshiro256 rng(mix64(stream, first + lane));
        noisy_lane_row(lane, rng, sigma, out + lane * bins_);
    }
}

}  // namespace glitchmask::power
