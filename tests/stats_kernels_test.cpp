// The chunk-wide kernels of the lane block body -- noise for a whole
// 64-lane chunk and the 8-lane stimulus packing -- against the per-trace
// functions they replace (the fold levels are pinned in
// moment_bank_test).  Each test runs at the level GLITCHMASK_SIMD
// selects (the AVX-512 kernels by default on AVX-512F+DQ hosts, the
// per-lane fallbacks under =avx2 and =off), and every comparison is on
// the bits of the result, never NEAR.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "eval/gadget_tvla.hpp"
#include "eval/parallel_campaign.hpp"
#include "netlist/netlist.hpp"
#include "power/batch_power.hpp"
#include "support/rng.hpp"

namespace glitchmask {
namespace {

[[nodiscard]] std::uint64_t bits(double x) {
    return std::bit_cast<std::uint64_t>(x);
}

// ----- chunk noise -----------------------------------------------------

/// A small frozen netlist whose nets carry different energy weights
/// (fanouts 0..3), so the recorded samples are not all alike.
netlist::Netlist weighted_netlist() {
    netlist::Netlist nl;
    const netlist::NetId a = nl.input("a");
    const netlist::NetId b = nl.input("b");
    const netlist::NetId c = nl.input("c");
    const netlist::NetId x = nl.xor2(a, b);
    const netlist::NetId y = nl.and2(x, c);
    (void)nl.or2(nl.and2(a, y), nl.xor2(x, y));
    (void)nl.delay_buf(a);
    nl.freeze();
    return nl;
}

/// Fills `recorder` with `bins` bins of random toggles on all 64 lanes
/// (commit times nondecreasing, some past the window).
void record_random_chunk(const netlist::Netlist& nl,
                         power::BatchPowerRecorder& recorder, std::size_t bins,
                         Xoshiro256& rng) {
    recorder.begin_trace(bins);
    const sim::TimePs bin_ps = recorder.config().bin_ps;
    std::vector<sim::ToggleEntry> batch;
    sim::TimePs time = 0;
    for (std::size_t k = 0; k < 8 * bins; ++k) {
        time += static_cast<sim::TimePs>(rng.below(bin_ps / 7));
        batch.push_back({static_cast<netlist::NetId>(rng.below(nl.size())),
                         time, rng(), rng(), 0});
    }
    recorder.on_toggles(batch);
}

/// noisy_rows_into against noisy_lane_trace_into with each lane's own
/// trace_rng, lane by lane and bin by bin; rows past `live` stay as they
/// were.
void expect_chunk_noise_matches(const power::BatchPowerRecorder& recorder,
                                unsigned live, std::uint64_t seed,
                                std::uint64_t first, double sigma) {
    const std::size_t bins = recorder.bins();
    constexpr double kUntouched = -12345.5;
    std::vector<double> rows(sim::kBatchLanes * bins, kUntouched);
    recorder.noisy_rows_into(live, mix64(seed, eval::kNoiseStream), first,
                             sigma, rows.data());
    std::vector<double> reference;
    for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
        if (lane < live) {
            Xoshiro256 rng = eval::trace_rng(seed, eval::kNoiseStream,
                                             first + lane);
            recorder.noisy_lane_trace_into(lane, rng, sigma, reference);
        } else {
            reference.assign(bins, kUntouched);
        }
        for (std::size_t bin = 0; bin < bins; ++bin)
            ASSERT_EQ(bits(rows[lane * bins + bin]), bits(reference[bin]))
                << "bins " << bins << " live " << live << " lane " << lane
                << " bin " << bin << " sigma " << sigma << " seed " << seed
                << " first " << first;
    }
}

TEST(StatsKernels, ChunkNoiseMatchesPerLaneNoise) {
    const netlist::Netlist nl = weighted_netlist();
    power::BatchPowerRecorder recorder(nl, {});
    Xoshiro256 rng(2024);
    const std::uint64_t firsts[] = {0, 1000003, (std::uint64_t{1} << 40) + 5};
    for (std::size_t bins = 1; bins <= 17; ++bins) {
        record_random_chunk(nl, recorder, bins, rng);
        for (const unsigned live : {1, 3, 7, 8, 9, 16, 23, 57, 63, 64})
            for (const double sigma : {0.0, 0.75, 3e-3})
                for (const std::uint64_t seed : {1ull, 4242ull})
                    for (const std::uint64_t first : firsts)
                        expect_chunk_noise_matches(recorder, live, seed, first,
                                                   sigma);
    }
    // Every partial vector at the small circuits' 5 and 6 bins.
    for (const std::size_t bins : {5u, 6u}) {
        record_random_chunk(nl, recorder, bins, rng);
        for (unsigned live = 1; live <= 64; ++live)
            expect_chunk_noise_matches(recorder, live, 7, 64 * live, 0.5);
    }
}

TEST(StatsKernels, ChunkNoiseDrawsManyRejections) {
    // 4096 traces of 17 bins: ~9 polar pairs each, so thousands of
    // rejected (u, v) pairs land on single lanes of a vector.
    const netlist::Netlist nl = weighted_netlist();
    power::BatchPowerRecorder recorder(nl, {});
    Xoshiro256 rng(99);
    record_random_chunk(nl, recorder, 17, rng);
    for (std::uint64_t first = 0; first < 4096; first += 64)
        expect_chunk_noise_matches(recorder, 64, 31, first, 1.25);
}

// ----- stimulus packing ------------------------------------------------

TEST(StatsKernels, PackedStimulusMatchesPerTraceStimulus) {
    const std::uint64_t firsts[] = {0, 77, std::uint64_t{1} << 33};
    for (const unsigned fresh : {0u, 1u, 3u}) {
        for (const unsigned count :
             {1u, 5u, 8u, 9u, 63u, 64u, 65u, 130u, 511u, 512u}) {
            for (const std::uint64_t seed : {1ull, 4242ull}) {
                for (const std::uint64_t first : firsts) {
                    std::array<eval::LaneWords, 4 + eval::kMaxFreshBits>
                        words{};
                    eval::LaneWords fixed{};
                    eval::pack_gadget_stimulus(
                        fresh, seed, first, count,
                        std::span<eval::LaneWords>(words.data(), 4 + fresh),
                        fixed);
                    const auto lane_bit = [](const eval::LaneWords& w,
                                             unsigned lane) {
                        return ((w[lane / 64] >> (lane % 64)) & 1u) != 0;
                    };
                    for (unsigned lane = 0; lane < 512; ++lane) {
                        eval::GadgetStimulus stim{};
                        if (lane < count)
                            stim = eval::gadget_stimulus(fresh, seed,
                                                         first + lane);
                        ASSERT_EQ(lane_bit(fixed, lane), stim.fixed)
                            << "fresh " << fresh << " count " << count
                            << " lane " << lane;
                        for (unsigned i = 0; i < 4; ++i)
                            ASSERT_EQ(lane_bit(words[i], lane), stim.shares[i])
                                << "share " << i << " count " << count
                                << " lane " << lane;
                        for (unsigned i = 0; i < eval::kMaxFreshBits; ++i)
                            ASSERT_EQ(lane_bit(words[4 + i], lane),
                                      i < fresh && stim.fresh[i])
                                << "fresh bit " << i << " count " << count
                                << " lane " << lane;
                    }
                }
            }
        }
    }
}

TEST(StatsKernels, StimulusRejectsTooManyFreshBits) {
    EXPECT_THROW((void)eval::gadget_stimulus(eval::kMaxFreshBits + 1, 1, 0),
                 std::invalid_argument);
    std::array<eval::LaneWords, 8> words{};
    eval::LaneWords fixed{};
    EXPECT_THROW(eval::pack_gadget_stimulus(eval::kMaxFreshBits + 1, 1, 0, 64,
                                            words, fixed),
                 std::invalid_argument);
}

}  // namespace
}  // namespace glitchmask
