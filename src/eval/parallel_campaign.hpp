// Deterministic sharded trace-collection engine.
//
// A campaign of T traces is cut into fixed-size blocks of consecutive
// trace indices.  Blocks are claimed dynamically by the pool's workers
// (work stealing balances the load -- simulator replicas warm up at
// different speeds), each worker owns a private simulator replica built
// from the shared netlist/delay-model, and every block folds its traces
// into a private accumulator.  The block accumulators are then merged in
// a fixed binary tree over block indices.
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

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "eval/checkpoint.hpp"
#include "support/atomic_file.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/retry.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace glitchmask::eval {

namespace detail {

/// Per-block telemetry bracket shared by both sharded runners: times the
/// block when collection is on, feeds the progress meter, and -- when
/// span tracing is on -- opens a "block" span for the block's duration
/// (joining the ambient stack so PhaseClock's flushed phase leaves nest
/// under it).  Constructed on the worker thread right before run_block.
class BlockScope {
public:
    explicit BlockScope(trace::SpanId trace_parent = 0, std::size_t block = 0)
        : on_(telemetry::enabled()),
          tracing_(trace::enabled()),
          block_(block),
          parent_(trace_parent),
          start_ns_(on_ || tracing_ ? telemetry::steady_now_ns() : 0) {
        if (tracing_) {
            span_ = trace::new_span_id();
            trace::push_ambient(span_);
        }
    }

    void done(std::size_t traces, telemetry::ProgressMeter* meter) const {
        const std::uint64_t end_ns =
            on_ || tracing_ ? telemetry::steady_now_ns() : 0;
        if (tracing_) {
            trace::pop_ambient();
            trace::record_span(span_, "block", parent_, start_ns_, end_ns,
                               {{"block", std::to_string(block_)},
                                {"traces", std::to_string(traces)}});
        }
        if (on_) {
            const std::uint64_t nanos = end_ns - start_ns_;
            telemetry::Shard& shard = telemetry::shard();
            shard.add(telemetry::Counter::kCampaignBlocks, 1);
            shard.add(telemetry::Counter::kCampaignTraces, traces);
            shard.add(telemetry::Counter::kCampaignBlockNanos, nanos);
            shard.observe(telemetry::Histogram::kBlockNanos, nanos);
            shard.observe(telemetry::Histogram::kBlockTraces, traces);
        }
        if (meter != nullptr) meter->advance(traces);
    }

private:
    bool on_;
    bool tracing_;
    std::size_t block_;
    trace::SpanId parent_;
    trace::SpanId span_ = 0;
    std::uint64_t start_ns_;
};

}  // namespace detail

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
/// it changes the merge tree and therefore the low bits of the result.
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

/// In-place pairwise reduction of block accumulators in index order:
/// round 1 merges (0,1)(2,3)..., round 2 merges (0,2)(4,6)..., etc.  The
/// tree depends only on the number of blocks.  Returns the root.
template <class Acc, class Merge>
[[nodiscard]] Acc merge_tree(std::vector<std::optional<Acc>>& blocks,
                             Merge&& merge) {
    for (std::size_t step = 1; step < blocks.size(); step *= 2)
        for (std::size_t i = 0; i + step < blocks.size(); i += 2 * step)
            merge(*blocks[i], *blocks[i + step]);
    return std::move(*blocks.front());
}

/// Runs `plan.traces` traces on `pool` and returns the merged accumulator.
/// Collectors process a whole block at once -- the lane engine simulates
/// a block as lane groups of 64..512 consecutive trace indices:
///
///   make_worker() -> owning handle H of one simulator replica; called
///     lazily, at most once per pool worker, on that worker's thread.
///     Return a std::unique_ptr (or any dereference-free movable state):
///     the handle is stored once and never relocated afterwards, so
///     internal pointers (e.g. a PowerRecorder registered as toggle sink)
///     stay valid.
///   make_acc() -> empty block accumulator Acc.
///   run_block(H& worker, std::size_t begin, std::size_t end, Acc& acc)
///     collects traces [begin, end) into the block accumulator.
///   merge(Acc& into, const Acc& from) folds two block accumulators.
///
/// Blocks merge in the fixed tree of merge_tree(), so the merged
/// floating-point result only depends on what run_block feeds each block
/// accumulator.
template <class MakeWorker, class MakeAcc, class RunBlock, class Merge>
[[nodiscard]] auto run_sharded_blocks(ThreadPool& pool, const ShardPlan& plan,
                                      MakeWorker&& make_worker,
                                      MakeAcc&& make_acc, RunBlock&& run_block,
                                      Merge&& merge,
                                      telemetry::ProgressMeter* meter = nullptr,
                                      trace::SpanId trace_parent = 0)
    -> decltype(make_acc()) {
    using Acc = decltype(make_acc());
    using Worker = decltype(make_worker());

    const std::size_t n_blocks = plan.blocks();
    if (n_blocks == 0) return make_acc();

    // One lazily-built replica slot per pool worker.  Each slot is only
    // ever touched by the pool thread with that index, so no locking.
    std::vector<std::optional<Worker>> replicas(pool.size());
    std::vector<std::optional<Acc>> blocks(n_blocks);

    TaskGroup group(pool);
    for (std::size_t b = 0; b < n_blocks; ++b) {
        group.run([&, b] {
            const int id = pool.current_worker();
            std::optional<Worker>& slot = replicas[static_cast<std::size_t>(id)];
            if (!slot.has_value()) slot.emplace(make_worker());

            const detail::BlockScope scope(trace_parent, b);
            Acc acc = make_acc();
            const std::size_t begin = plan.block_begin(b);
            const std::size_t end = plan.block_end(b);
            run_block(*slot, begin, end, acc);
            blocks[b].emplace(std::move(acc));
            scope.done(end - begin, meter);
        });
    }
    group.wait();

    return merge_tree(blocks, merge);
}

// ----- crash-safe variant ----------------------------------------------
//
// run_sharded_blocks_checkpointed adds three behaviours on top of
// run_sharded_blocks without changing a single result bit:
//
//   * periodic snapshots: every `every_blocks` completed blocks the
//     campaign's merge frontier is written atomically to `policy.path`;
//   * resume: an existing snapshot (fingerprint-checked) seeds the run,
//     which then continues at the first missing block;
//   * graceful shutdown: when `policy.cancel` fires, blocks already
//     running finish, queued blocks are dropped, a final checkpoint is
//     written and the partial merge is returned (progress->cancelled).
//
// Bit-identity with the plain path rests on a classic equivalence: the
// fixed pairwise merge tree of merge_tree() is exactly reproduced by
// folding blocks *in index order* through a binary-counter stack -- push
// each block as a 1-block entry, then merge the top two entries while
// they span equally many blocks.  The surviving entries are the roots of
// the aligned power-of-two subtrees of the tree; the final result folds
// them right-to-left, which is the order merge_tree's increasing-step
// rounds combine them in.  That stack (O(log blocks) accumulators) is the
// entire checkpoint state, so the checkpoint cadence, the worker count
// and the interruption point all drop out of the final float result.
//
// When the policy is inactive (no path, no token, no hook) this delegates
// to run_sharded_blocks -- the hot path is untouched.

template <class MakeWorker, class MakeAcc, class RunBlock, class Merge,
          class EncodeAcc, class DecodeAcc>
[[nodiscard]] auto run_sharded_blocks_checkpointed(
    ThreadPool& pool, const ShardPlan& plan, MakeWorker&& make_worker,
    MakeAcc&& make_acc, RunBlock&& run_block, Merge&& merge,
    const CheckpointPolicy& policy, const CampaignFingerprint& fingerprint,
    EncodeAcc&& encode_acc, DecodeAcc&& decode_acc,
    CampaignProgress* progress = nullptr,
    telemetry::ProgressMeter* meter = nullptr) -> decltype(make_acc()) {
    using Acc = decltype(make_acc());
    using Worker = decltype(make_worker());

    const std::size_t n_blocks = plan.blocks();
    CampaignProgress local_progress;
    CampaignProgress& prog = progress != nullptr ? *progress : local_progress;
    prog = {};

    if (!policy.active()) {
        Acc result = run_sharded_blocks(
            pool, plan, std::forward<MakeWorker>(make_worker),
            std::forward<MakeAcc>(make_acc), std::forward<RunBlock>(run_block),
            std::forward<Merge>(merge), meter, policy.trace_parent);
        prog.completed_blocks = n_blocks;
        prog.completed_traces = plan.traces;
        return result;
    }

    // The merge frontier: (blocks spanned, partial subtree accumulator),
    // spans strictly decreasing powers of two summing to the completed
    // block count.
    std::vector<std::pair<std::uint64_t, Acc>> stack;
    std::size_t next_block = 0;

    if (!policy.path.empty()) {
        try {
            if (const auto bytes = read_file_if_exists(policy.path)) {
                SnapshotReader in(*bytes);  // verifies the CRC trailer
                const CheckpointHeader header = read_checkpoint_header(in);
                require_fingerprint_match(fingerprint, header.fingerprint);
                if (header.completed_blocks > n_blocks ||
                    header.stack_entries > 64)
                    throw CampaignError(
                        CampaignErrorKind::CorruptSnapshot,
                        "snapshot: completed-block count exceeds the block plan");
                std::uint64_t spanned = 0;
                for (std::uint64_t e = 0; e < header.stack_entries; ++e) {
                    const std::uint64_t span = in.u64();
                    const bool pow2 = span != 0 && (span & (span - 1)) == 0;
                    if (!pow2 || (!stack.empty() && stack.back().first <= span))
                        throw CampaignError(
                            CampaignErrorKind::CorruptSnapshot,
                            "snapshot: merge frontier is not a strictly "
                            "decreasing power-of-two sequence");
                    stack.emplace_back(span, decode_acc(in));
                    spanned += span;
                }
                if (spanned != header.completed_blocks)
                    throw CampaignError(CampaignErrorKind::CorruptSnapshot,
                                        "snapshot: merge frontier does not cover "
                                        "the completed blocks");
                next_block = static_cast<std::size_t>(header.completed_blocks);
                prog.resumed = true;
                if (meter != nullptr && next_block > 0)
                    meter->note_resumed(plan.block_end(next_block - 1));
                log::info("resumed campaign from " + policy.path + " at block " +
                          std::to_string(next_block) + "/" +
                          std::to_string(n_blocks));
            }
        } catch (const CampaignError& error) {
            // Quarantine-and-restart degradation: a corrupt snapshot is
            // renamed aside and the campaign starts from zero, which is
            // bit-identical to a fresh run.  ConfigMismatch still throws
            // (the file belongs to a different campaign, not to us).
            if (error.kind() != CampaignErrorKind::CorruptSnapshot ||
                !policy.discard_corrupt_snapshot)
                throw;
            const std::string quarantine = policy.path + ".corrupt";
            (void)std::rename(policy.path.c_str(), quarantine.c_str());
            stack.clear();
            next_block = 0;
            prog.resumed = false;
            prog.snapshot_discarded = true;
            log::warn("discarding corrupt snapshot " + policy.path +
                      " (quarantined as " + quarantine +
                      "); restarting campaign from block 0: " + error.what());
            if (policy.on_degraded)
                policy.on_degraded("snapshot_discarded", error.what());
        }
    }

    auto push_block = [&](Acc&& acc) {
        stack.emplace_back(1, std::move(acc));
        while (stack.size() >= 2 &&
               stack[stack.size() - 2].first == stack.back().first) {
            merge(stack[stack.size() - 2].second, stack.back().second);
            stack[stack.size() - 2].first *= 2;
            stack.pop_back();
        }
    };

    // Persistent checkpoint-write failure under a degradation-enabled
    // policy drops the campaign to its in-memory frontier: results stay
    // exact, durability is gone, and the condition is surfaced once.
    bool checkpoints_disabled = false;
    auto write_checkpoint = [&](std::size_t completed) {
        if (policy.path.empty() || checkpoints_disabled) return;
        const bool telem = telemetry::enabled();
        // The wave loop runs on the submitting thread, so the ambient
        // parent (a service execute span, when one is open) is correct.
        const trace::ScopedSpan span(
            "checkpoint", policy.trace_parent,
            {{"completed_blocks", std::to_string(completed)}});
        const auto start = telem ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
        SnapshotWriter out =
            begin_checkpoint(fingerprint, completed, stack.size());
        for (const auto& [span, acc] : stack) {
            out.u64(span);
            encode_acc(acc, out);
        }
        const std::vector<std::uint8_t> bytes = std::move(out).finish();
        try {
            retry_io(
                policy.io_retry,
                [&] { atomic_write_file(policy.path, bytes); }, policy.cancel,
                [&](unsigned attempt, const CampaignError& error) {
                    if (telemetry::enabled())
                        telemetry::shard().add(telemetry::Counter::kIoRetries);
                    log::warn("checkpoint write attempt " +
                              std::to_string(attempt) + " failed (" +
                              error.what() + "); retrying");
                });
        } catch (const CampaignError& error) {
            if (error.kind() != CampaignErrorKind::IoFailure ||
                !policy.degrade_on_io_error)
                throw;
            checkpoints_disabled = true;
            prog.checkpoint_degraded = true;
            log::warn("checkpoint writes to " + policy.path +
                      " failed persistently (" + error.what() +
                      "); continuing on the in-memory frontier without "
                      "further snapshots");
            if (policy.on_degraded)
                policy.on_degraded("checkpoint_degraded", error.what());
            return;
        }
        if (telem) {
            const auto nanos =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            telemetry::Shard& shard = telemetry::shard();
            shard.add(telemetry::Counter::kCheckpointWrites, 1);
            shard.add(telemetry::Counter::kCheckpointNanos,
                      static_cast<std::uint64_t>(nanos));
            shard.observe(telemetry::Histogram::kCheckpointWriteNanos,
                          static_cast<std::uint64_t>(nanos));
        }
    };

    std::vector<std::optional<Worker>> replicas(pool.size());
    const std::size_t every =
        policy.every_blocks > 0 ? policy.every_blocks : 16;
    // Waves below 2 blocks/worker would starve the pool; the checkpoint
    // cadence is rounded up accordingly (durability only, never results).
    const std::size_t wave_size =
        std::max<std::size_t>(every, std::size_t{2} * pool.size());

    while (next_block < n_blocks) {
        if (policy.cancel != nullptr && policy.cancel->requested()) {
            prog.cancelled = true;
            break;
        }
        const std::size_t wave_end =
            std::min(n_blocks, next_block + wave_size);
        std::vector<std::optional<Acc>> done(wave_end - next_block);
        {
            TaskGroup group(pool, policy.cancel);
            for (std::size_t b = next_block; b < wave_end; ++b) {
                group.run([&, b] {
                    // Chaos site: lets a fault plan stall or kill a worker
                    // mid-campaign (one relaxed load when no plan is on).
                    fault::inject_point("campaign.block");
                    const int id = pool.current_worker();
                    std::optional<Worker>& slot =
                        replicas[static_cast<std::size_t>(id)];
                    if (!slot.has_value()) slot.emplace(make_worker());
                    const detail::BlockScope scope(policy.trace_parent, b);
                    Acc acc = make_acc();
                    const std::size_t begin = plan.block_begin(b);
                    const std::size_t end = plan.block_end(b);
                    run_block(*slot, begin, end, acc);
                    done[b - next_block].emplace(std::move(acc));
                    scope.done(end - begin, meter);
                });
            }
            group.wait();
        }
        // Fold the contiguous completed prefix; a hole means cancellation
        // skipped a block, and out-of-order completions past it cannot be
        // kept (the frontier is strictly index-ordered).
        std::size_t folded = 0;
        while (folded < done.size() && done[folded].has_value())
            push_block(std::move(*done[folded++]));
        next_block += folded;
        if (folded < done.size()) prog.cancelled = true;
        write_checkpoint(next_block);
        if (policy.on_checkpoint) policy.on_checkpoint(next_block);
        if (prog.cancelled) break;
    }

    prog.completed_blocks = next_block;
    prog.completed_traces =
        next_block == 0 ? 0 : plan.block_end(next_block - 1);
    if (prog.cancelled)
        log::info("campaign cancelled after " + std::to_string(next_block) +
                  "/" + std::to_string(n_blocks) + " blocks" +
                  (policy.path.empty() ? std::string{}
                                       : "; checkpoint at " + policy.path));

    if (stack.empty()) return make_acc();
    while (stack.size() >= 2) {
        merge(stack[stack.size() - 2].second, stack.back().second);
        stack.pop_back();
    }
    return std::move(stack.front().second);
}

}  // namespace glitchmask::eval
