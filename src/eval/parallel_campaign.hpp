// Deterministic block plan, per-trace RNG streams and worker/lane
// resolution shared by every campaign.
//
// A campaign of T traces is cut into fixed-size blocks of consecutive
// trace indices (ShardPlan).  The one runner, private to
// eval/trace_campaign.cpp, hands blocks to the pool's workers in waves,
// each worker owning a private simulator replica, and folds the finished
// blocks in index order into a merge frontier that reproduces a fixed
// pairwise tree over block indices.
//
// Determinism is the design center, achieved by two rules:
//   1. Counter-based RNG: trace n draws every random decision (class
//      choice, mask shares, refresh bits, measurement noise) from streams
//      seeded as mix64(mix64(seed, stream_tag), n) -- no generator state
//      is ever shared between traces, so trace n's stimulus is a pure
//      function of (seed, n) no matter which worker runs it.
//   2. Fixed reduction shape: floating-point accumulation is not
//      associative, so bit-identical results require the *merge structure*
//      (block size and tree), not just the trace values, to be independent
//      of the worker count.  Block size is a config constant, never
//      derived from the pool size.
// Together these make a campaign at any worker count -- including 1 --
// produce bit-identical statistics.  The lane width (traces per simulator
// pass, see resolve_lanes below) is the third free axis: lane groups are
// cut inside each block and fold in trace order, so scalar and every
// compiled width produce the same bits too.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace glitchmask::eval {

/// Up-front campaign config validation, shared by every driver: rejects
/// the degenerate values that would otherwise produce a silent zero-block
/// plan or an unusable lane setting.  Throws std::invalid_argument with a
/// message naming the field.  `lanes` follows the config convention
/// (0 = auto, 1 = scalar, 64/128/256/512 = compiled lane engine).
void validate_campaign_config(std::size_t traces, std::size_t block_size,
                              unsigned lanes);

/// Resolves a config's `workers` field: 0 = GLITCHMASK_WORKERS env /
/// hardware_concurrency (ThreadPool::default_worker_count()).
[[nodiscard]] unsigned resolve_workers(unsigned configured);

/// Resolves a config's `lanes` field (traces simulated per pass): 1 =
/// the scalar EventSimulator, 64/128/256/512 = the compiled lane engine
/// (sim::CompiledClockedSim).  0 = auto: GLITCHMASK_LANES env, default 64
/// -- one chunk, which the default 64-trace block always fills.  Timing
/// coupling makes delays data-dependent, which breaks the shared-schedule
/// premise of the lane engine, so `timing_coupling` forces the scalar
/// path regardless of the configured value.  Throws on values outside
/// {0, 1, 64, 128, 256, 512}.
[[nodiscard]] unsigned resolve_lanes(unsigned configured, bool timing_coupling);

/// Stream tags feeding mix64(mix64(seed, tag), trace_index): one derived
/// generator per purpose, so stimulus and noise draws never interleave.
inline constexpr std::uint64_t kStimulusStream = 0x7374696d756cULL;  // "stimul"
inline constexpr std::uint64_t kNoiseStream = 0x6e6f697365ULL;       // "noise"

/// The per-trace generator for one purpose; trace_index is the global
/// trace counter, identical in serial and parallel schedules.
[[nodiscard]] inline Xoshiro256 trace_rng(std::uint64_t seed,
                                          std::uint64_t stream_tag,
                                          std::uint64_t trace_index) {
    return Xoshiro256(mix64(mix64(seed, stream_tag), trace_index));
}

/// Fixed decomposition of a trace budget into blocks of consecutive
/// indices.  The block size is part of the campaign's identity: changing
/// it changes the reduction tree and therefore the low bits of the result.
struct ShardPlan {
    std::size_t traces = 0;
    std::size_t block_size = 64;

    [[nodiscard]] std::size_t blocks() const noexcept {
        return block_size == 0 ? 0 : (traces + block_size - 1) / block_size;
    }
    [[nodiscard]] std::size_t block_begin(std::size_t block) const noexcept {
        return block * block_size;
    }
    [[nodiscard]] std::size_t block_end(std::size_t block) const noexcept {
        const std::size_t end = (block + 1) * block_size;
        return end < traces ? end : traces;
    }
};

}  // namespace glitchmask::eval
