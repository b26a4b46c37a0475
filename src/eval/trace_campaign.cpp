#include "eval/trace_campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "eval/parallel_campaign.hpp"
#include "eval/run_report.hpp"
#include "power/batch_power.hpp"
#include "power/power_model.hpp"
#include "support/atomic_file.hpp"
#include "support/campaign_error.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/retry.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace glitchmask::eval {

sim::DelayConfig placement_delay_config(std::uint64_t placement_seed) {
    sim::DelayConfig config = sim::DelayConfig::spartan6();
    config.seed = placement_seed;
    return config;
}

namespace {

/// The power model every workload records: one sample per clock period.
power::PowerConfig power_config(const Workload& w) {
    return {.coupling_epsilon = w.coupling_epsilon, .bin_ps = w.clock.period_ps};
}

}  // namespace

/// One worker's lane replica: the lane sim plus one BatchPowerRecorder
/// (and, with attribution on, one BatchAttributionProbe) per 64-lane
/// chunk, and one chunk's lane-major noisy rows for the TVLA fold.
/// Heap-held and never copied or moved: the sink registrations point
/// into the recorder/probe vectors, reserved up front.
struct LaneWorker {
    sim::CompiledClockedSim sim;
    std::vector<power::BatchPowerRecorder> recorders;
    std::vector<leakage::BatchAttributionProbe> probes;
    std::vector<double> rows;
    telemetry::SimStats last_stats{};

    LaneWorker(const Workload& w, unsigned lanes,
               const leakage::AttributionPlan* attribution)
        : sim(w.nl, w.dm, lanes, w.clock, w.coupling),
          rows(w.fold.max_test_order > 0 ? sim::kBatchLanes * w.bins : 0) {
        recorders.reserve(sim.chunks());
        probes.reserve(sim.chunks());
        for (unsigned c = 0; c < sim.chunks(); ++c) {
            recorders.emplace_back(w.nl, power_config(w));
            recorders.back().attach(sim.chunk_view(c));
            if (attribution != nullptr) {
                probes.emplace_back(*attribution, &recorders[c]);
                sim.set_sink(c, &probes[c]);
            } else {
                sim.set_sink(c, &recorders[c]);
            }
        }
    }
    LaneWorker(const LaneWorker&) = delete;
    LaneWorker& operator=(const LaneWorker&) = delete;
};

LaneGroup::LaneGroup(LaneWorker& worker, std::size_t first, unsigned count,
                     std::size_t bins, leakage::AttributionAccumulator& attr)
    : sim(worker.sim),
      first(first),
      count(count),
      worker_(worker),
      bins_(bins),
      attr_(attr) {}

void LaneGroup::start() {
    sim.restart();
    for (auto& recorder : worker_.recorders) recorder.begin_trace(bins_);
    // The probes stream window subtotals into attr_ while the pass runs
    // (exact integer sums, so the chunk interleaving is bit-identical to
    // the scalar fold).
    for (unsigned c = 0; c < worker_.probes.size(); ++c)
        worker_.probes[c].begin_group(
            fixed[c], std::min(64u, count - std::min(count, c * 64u)), attr_);
}

namespace {

/// The scalar reference replica: one event-queue pass per trace.
/// Heap-held and never copied or moved: the sim's sink points at a member.
struct ScalarWorker {
    sim::ClockedSim sim;
    power::PowerRecorder recorder;
    std::optional<leakage::AttributionProbe> probe;
    std::vector<double> noisy;
    telemetry::SimStats last_stats;

    ScalarWorker(const Workload& w, const leakage::AttributionPlan* attribution)
        : sim(w.nl, w.dm, w.clock, w.coupling), recorder(w.nl, power_config(w)) {
        recorder.attach(&sim.engine());  // energy coupling reads neighbours
        if (attribution != nullptr) {
            probe.emplace(*attribution, &recorder);
            sim.engine().set_sink(&*probe);
        } else {
            sim.engine().set_sink(&recorder);
        }
    }
    ScalarWorker(const ScalarWorker&) = delete;
    ScalarWorker& operator=(const ScalarWorker&) = delete;
};

/// Block accumulator and snapshot payload.  TVLA folds fill the bank (its
/// serialized form is byte-identical to TvlaCampaign's) and optionally
/// the toggle count; mean-power folds fill the per-bin sums.  attr has
/// zero points when attribution is off.
struct BlockAcc {
    leakage::MomentBank bank;
    std::vector<double> sum;
    std::uint64_t toggles = 0;
    leakage::AttributionAccumulator attr;
};

/// What both block bodies, the worker replicas and the snapshot codec
/// read of one campaign.
struct Pipeline {
    const Workload& w;
    std::uint64_t seed;
    unsigned lanes;
    /// nullptr = attribution off.
    const leakage::AttributionPlan* attribution;
    std::size_t attr_points;
    /// mix64(seed, kNoiseStream): trace t's noise generator is
    /// Xoshiro256(mix64(noise_stream, t)), i.e. trace_rng(seed,
    /// kNoiseStream, t).
    std::uint64_t noise_stream = mix64(seed, kNoiseStream);

    [[nodiscard]] bool moments() const { return w.fold.max_test_order > 0; }

    [[nodiscard]] BlockAcc make_acc() const {
        BlockAcc acc;
        if (moments())
            acc.bank = leakage::MomentBank(w.bins, w.fold.max_test_order);
        else
            acc.sum.assign(w.bins, 0.0);
        acc.attr = leakage::AttributionAccumulator(attr_points);
        return acc;
    }

    void merge(BlockAcc& into, const BlockAcc& from) const {
        if (moments()) into.bank.merge(from.bank);
        for (std::size_t i = 0; i < into.sum.size(); ++i)
            into.sum[i] += from.sum[i];
        into.toggles += from.toggles;
        into.attr.merge(from.attr);
    }

    void encode(const BlockAcc& acc, SnapshotWriter& out) const {
        if (moments()) {
            acc.bank.encode(out);
            if (w.fold.count_toggles) out.u64(acc.toggles);
        } else {
            out.u64(acc.sum.size());
            for (const double v : acc.sum) out.f64(v);
        }
        if (attribution != nullptr) acc.attr.encode(out);
    }

    [[nodiscard]] BlockAcc decode(SnapshotReader& in) const {
        BlockAcc acc;
        if (moments()) {
            acc.bank = leakage::MomentBank::decode(in);
            if (w.fold.count_toggles) acc.toggles = in.u64();
        } else {
            if (in.u64() != w.bins)
                throw CampaignError(CampaignErrorKind::CorruptSnapshot,
                                    "snapshot: mean-power sample count mismatch");
            acc.sum.resize(w.bins);
            for (double& v : acc.sum) v = in.f64();
        }
        if (attribution != nullptr)
            acc.attr = leakage::AttributionAccumulator::decode(in);
        return acc;
    }

    /// Lane block body: one pass per group of up to lanes consecutive
    /// traces.  Groups are cut within the block (a short tail uses fewer
    /// lanes), so any block size stays bit-identical to the scalar body.
    void run_block(LaneWorker& worker, std::size_t begin, std::size_t end,
                   BlockAcc& acc) const {
        // Local copies: the loop need not reload them through `w` after
        // every opaque call.
        const TraceFold fold = w.fold;
        const bool moments = fold.max_test_order > 0;
        const std::size_t bins = w.bins;
        telemetry::PhaseClock phases;
        phases.mark();
        const unsigned lanes = worker.sim.lanes();
        for (std::size_t first = begin; first < end; first += lanes) {
            LaneGroup group(worker, first,
                            static_cast<unsigned>(
                                std::min<std::size_t>(lanes, end - first)),
                            bins, acc.attr);
            w.drive_lanes(group);
            phases.lap(telemetry::Histogram::kPhaseSimNanos);

            // Fused fold, chunk by chunk: the chunk's noisy rows (noise
            // drawn in bin order from each trace's own stream) go into
            // the accumulator in lane order -- the scalar body's addend
            // sequence for every per-point accumulator.
            for (unsigned c = 0; c * 64u < group.count; ++c) {
                const power::BatchPowerRecorder& recorder =
                    worker.recorders[c];
                const unsigned live = std::min(64u, group.count - c * 64u);
                if (moments) {
                    recorder.noisy_rows_into(live, noise_stream,
                                             first + c * 64u,
                                             fold.noise_sigma,
                                             worker.rows.data());
                    if (fold.count_toggles)
                        for (unsigned lane = 0; lane < live; ++lane)
                            acc.toggles += recorder.lane_toggles(lane);
                    phases.lap(telemetry::Histogram::kPhaseNoiseNanos);
                    for (unsigned lane = 0; lane < live; ++lane)
                        acc.bank.add_trace(
                            ((group.fixed[c] >> lane) & 1u) != 0,
                            worker.rows.data() + lane * bins);
                } else {
                    for (unsigned lane = 0; lane < live; ++lane)
                        for (std::size_t i = 0; i < bins; ++i)
                            acc.sum[i] += recorder.sample(i, lane);
                }
                phases.lap(telemetry::Histogram::kPhaseMomentsNanos);
                if (!worker.probes.empty()) worker.probes[c].fold_group();
                phases.lap(telemetry::Histogram::kPhaseAttributionNanos);
            }
        }
        // The probes' staged block subtotals land before acc is read.
        for (auto& probe : worker.probes) probe.spill_block();
        phases.lap(telemetry::Histogram::kPhaseAttributionNanos);
        phases.flush();
        if (telemetry::enabled())
            telemetry::record_sim_block(worker.sim.stats(), worker.last_stats);
    }

    /// Scalar block body: one event-queue pass per trace.
    void run_block(ScalarWorker& worker, std::size_t begin, std::size_t end,
                   BlockAcc& acc) const {
        // Local copies: the loop need not reload them through `w` after
        // every opaque call.
        const TraceFold fold = w.fold;
        const bool moments = fold.max_test_order > 0;
        const std::size_t bins = w.bins;
        telemetry::PhaseClock phases;
        phases.mark();
        for (std::size_t trace = begin; trace < end; ++trace) {
            worker.sim.restart();
            worker.recorder.begin_trace(bins);
            if (worker.probe) worker.probe->begin_trace();
            const bool fixed = w.drive_trace(worker.sim, trace);
            phases.lap(telemetry::Histogram::kPhaseSimNanos);
            if (moments) {
                Xoshiro256 noise_rng = trace_rng(seed, kNoiseStream, trace);
                worker.recorder.noisy_trace_into(noise_rng, fold.noise_sigma,
                                                 worker.noisy);
                if (fold.count_toggles)
                    acc.toggles += worker.recorder.trace_toggles();
                phases.lap(telemetry::Histogram::kPhaseNoiseNanos);
                acc.bank.add_trace(fixed, worker.noisy.data());
            } else {
                const std::vector<double>& row = worker.recorder.trace();
                for (std::size_t i = 0; i < bins; ++i) acc.sum[i] += row[i];
            }
            phases.lap(telemetry::Histogram::kPhaseMomentsNanos);
            if (worker.probe) worker.probe->fold_trace(fixed, acc.attr);
            phases.lap(telemetry::Histogram::kPhaseAttributionNanos);
        }
        phases.flush();
        if (telemetry::enabled())
            telemetry::record_sim_block(worker.sim.engine().stats(),
                                        worker.last_stats);
    }
};

/// The merge frontier: (blocks spanned, partial subtree accumulator),
/// spans strictly decreasing powers of two summing to the completed block
/// count.
using Frontier = std::vector<std::pair<std::uint64_t, BlockAcc>>;

/// The crash-safe block runner every campaign runs.  Blocks go to the
/// pool in waves of max(checkpoint cadence, 2 x workers) blocks; after
/// each wave the contiguous completed prefix is folded into the merge
/// frontier in block order, a snapshot of the frontier is written when
/// the run has a snapshot path, and run.on_checkpoint fires.  On top of
/// that plain loop sit three behaviours that never change a result bit:
///
///   * resume: an existing snapshot (fingerprint-checked) seeds the
///     frontier, and the run continues at the first missing block;
///   * graceful shutdown: when run.cancel fires, blocks already running
///     finish, queued blocks are dropped, a final snapshot is written and
///     the partial fold is returned (progress.cancelled);
///   * degradation: a corrupt snapshot can be quarantined, and persistent
///     write failures can drop the run to its in-memory frontier (see
///     CampaignRunOptions).
///
/// The reduction shape is a pairwise tree over block indices: round 1
/// merges blocks (0,1)(2,3)..., round 2 merges (0,2)(4,6)..., and so on.
/// Folding blocks *in index order* through a binary-counter stack -- push
/// each block as a 1-block entry, then merge the top two entries while
/// they span equally many blocks -- builds exactly that tree's aligned
/// power-of-two subtrees; the final fold combines the survivors right to
/// left (13 blocks: 8 + (4 + 1)), as the tree's later rounds would.  The
/// stack (O(log blocks) accumulators) is the entire snapshot state, so
/// the checkpoint cadence, the worker count and the interruption point
/// all drop out of the final float result.
struct Runner {
    const Pipeline& p;
    const ShardPlan& plan;
    ThreadPool& pool;
    const CampaignRunOptions& run;
    const CampaignFingerprint& fingerprint;
    const std::string path;  // "" = no snapshots
    CampaignProgress& prog;
    telemetry::ProgressMeter* meter;
    Frontier stack = {};
    /// Set once writes failed persistently under degrade_on_io_error.
    bool checkpoints_disabled = false;

    /// Seeds the frontier from the snapshot at `path`, if there is one;
    /// returns the first block left to run.
    std::size_t resume() {
        const std::size_t n_blocks = plan.blocks();
        try {
            const auto bytes = read_file_if_exists(path);
            if (!bytes) return 0;
            SnapshotReader in(*bytes);  // verifies the CRC trailer
            const CheckpointHeader header = read_checkpoint_header(in);
            require_fingerprint_match(fingerprint, header.fingerprint);
            if (header.completed_blocks > n_blocks || header.stack_entries > 64)
                throw CampaignError(
                    CampaignErrorKind::CorruptSnapshot,
                    "snapshot: completed-block count exceeds the block plan");
            std::uint64_t spanned = 0;
            for (std::uint64_t e = 0; e < header.stack_entries; ++e) {
                const std::uint64_t span = in.u64();
                const bool pow2 = span != 0 && (span & (span - 1)) == 0;
                if (!pow2 || (!stack.empty() && stack.back().first <= span))
                    throw CampaignError(CampaignErrorKind::CorruptSnapshot,
                                        "snapshot: merge frontier is not a "
                                        "strictly decreasing power-of-two "
                                        "sequence");
                stack.emplace_back(span, p.decode(in));
                spanned += span;
            }
            if (spanned != header.completed_blocks)
                throw CampaignError(CampaignErrorKind::CorruptSnapshot,
                                    "snapshot: merge frontier does not cover "
                                    "the completed blocks");
            const auto next_block =
                static_cast<std::size_t>(header.completed_blocks);
            prog.resumed = true;
            if (meter != nullptr && next_block > 0)
                meter->note_resumed(plan.block_end(next_block - 1));
            log::info("resumed campaign from " + path + " at block " +
                      std::to_string(next_block) + "/" +
                      std::to_string(n_blocks));
            return next_block;
        } catch (const CampaignError& error) {
            // Quarantine-and-restart degradation: a corrupt snapshot is
            // renamed aside and the campaign starts from zero, which is
            // bit-identical to a fresh run.  ConfigMismatch still throws
            // (the file belongs to a different campaign, not to us).
            if (error.kind() != CampaignErrorKind::CorruptSnapshot ||
                !run.discard_corrupt_snapshot)
                throw;
            const std::string quarantine = path + ".corrupt";
            (void)std::rename(path.c_str(), quarantine.c_str());
            stack.clear();
            prog.resumed = false;
            prog.snapshot_discarded = true;
            log::warn("discarding corrupt snapshot " + path +
                      " (quarantined as " + quarantine +
                      "); restarting campaign from block 0: " + error.what());
            if (run.on_degraded)
                run.on_degraded("snapshot_discarded", error.what());
            return 0;
        }
    }

    void push_block(BlockAcc&& acc) {
        stack.emplace_back(1, std::move(acc));
        while (stack.size() >= 2 &&
               stack[stack.size() - 2].first == stack.back().first) {
            p.merge(stack[stack.size() - 2].second, stack.back().second);
            stack[stack.size() - 2].first *= 2;
            stack.pop_back();
        }
    }

    /// Writes the frontier to `path` and records the mark in
    /// prog.checkpoint_blocks.  A persistent write failure under
    /// degrade_on_io_error drops the run to its in-memory frontier:
    /// results stay exact, durability is gone, and the condition is
    /// surfaced once.
    void checkpoint(std::size_t completed) {
        if (path.empty() || checkpoints_disabled) return;
        // The wave loop runs on the submitting thread, so the ambient
        // parent (a service execute span, when one is open) is correct.
        telemetry::ScopedInterval interval(
            telemetry::Histogram::kCheckpointWriteNanos, run.trace_parent);
        if (interval.id() != 0)
            interval.set_attrs(
                {{"completed_blocks", std::to_string(completed)}});
        SnapshotWriter out = begin_checkpoint(fingerprint, completed, stack.size());
        for (const auto& [spanned, acc] : stack) {
            out.u64(spanned);
            p.encode(acc, out);
        }
        const std::vector<std::uint8_t> bytes = std::move(out).finish();
        try {
            retry_io(
                run.io_retry, [&] { atomic_write_file(path, bytes); },
                run.cancel,
                [&](unsigned attempt, const CampaignError& error) {
                    if (telemetry::enabled())
                        telemetry::shard().add(telemetry::Counter::kIoRetries);
                    log::warn("checkpoint write attempt " +
                              std::to_string(attempt) + " failed (" +
                              error.what() + "); retrying");
                });
        } catch (const CampaignError& error) {
            interval.skip_histogram();  // only landed snapshots count
            if (error.kind() != CampaignErrorKind::IoFailure ||
                !run.degrade_on_io_error)
                throw;
            checkpoints_disabled = true;
            prog.checkpoint_degraded = true;
            log::warn("checkpoint writes to " + path +
                      " failed persistently (" + error.what() +
                      "); continuing on the in-memory frontier without "
                      "further snapshots");
            if (run.on_degraded)
                run.on_degraded("checkpoint_degraded", error.what());
            return;
        }
        prog.checkpoint_blocks.push_back(completed);
    }

    /// Runs block `b` on the calling pool worker's replica (built lazily,
    /// at most once per worker, on that worker's thread) into `acc`.
    template <class Worker>
    void run_block(std::unique_ptr<Worker>& replica, std::size_t b,
                   std::optional<BlockAcc>& acc) const {
        // Chaos site: lets a fault plan stall or kill a worker
        // mid-campaign (one relaxed load when no plan is on).
        fault::inject_point("campaign.block");
        if (!replica) {
            if constexpr (std::is_same_v<Worker, LaneWorker>)
                replica = std::make_unique<LaneWorker>(p.w, p.lanes,
                                                       p.attribution);
            else
                replica = std::make_unique<ScalarWorker>(p.w, p.attribution);
        }
        const std::size_t begin = plan.block_begin(b);
        const std::size_t end = plan.block_end(b);
        const std::size_t traces = end - begin;
        {
            // The block's interval: a "block" span with tracing on, which
            // PhaseClock's phase leaves nest under (ambient stack).
            telemetry::ScopedInterval interval(
                telemetry::Histogram::kBlockNanos, run.trace_parent);
            if (interval.id() != 0)
                interval.set_attrs({{"block", std::to_string(b)},
                                    {"traces", std::to_string(traces)}});
            BlockAcc block = p.make_acc();
            p.run_block(*replica, begin, end, block);
            acc.emplace(std::move(block));
        }
        telemetry::observe(telemetry::Histogram::kBlockTraces, traces);
        if (meter != nullptr) meter->advance(traces);
    }

    template <class Worker>
    [[nodiscard]] BlockAcc run_waves() {
        const std::size_t n_blocks = plan.blocks();
        std::size_t next_block = path.empty() ? 0 : resume();

        std::vector<std::unique_ptr<Worker>> replicas(pool.size());
        // Waves below 2 blocks/worker would starve the pool; the checkpoint
        // cadence is rounded up accordingly (durability only, never results).
        const std::size_t wave_size = std::max<std::size_t>(
            run.checkpoint_every > 0 ? run.checkpoint_every
                                     : kDefaultCheckpointEvery,
            std::size_t{2} * pool.size());

        while (next_block < n_blocks) {
            if (run.cancel != nullptr && run.cancel->requested()) {
                prog.cancelled = true;
                break;
            }
            const std::size_t wave_end =
                std::min(n_blocks, next_block + wave_size);
            std::vector<std::optional<BlockAcc>> done(wave_end - next_block);
            {
                TaskGroup group(pool, run.cancel);
                for (std::size_t b = next_block; b < wave_end; ++b) {
                    group.run([&, b] {
                        run_block(replicas[static_cast<std::size_t>(
                                      pool.current_worker())],
                                  b, done[b - next_block]);
                    });
                }
                group.wait();
            }
            // Fold the contiguous completed prefix; a hole means
            // cancellation skipped a block, and out-of-order completions
            // past it cannot be kept (the frontier is strictly
            // index-ordered).
            std::size_t folded = 0;
            while (folded < done.size() && done[folded].has_value())
                push_block(std::move(*done[folded++]));
            next_block += folded;
            if (folded < done.size()) prog.cancelled = true;
            checkpoint(next_block);
            if (run.on_checkpoint) run.on_checkpoint(next_block);
            if (prog.cancelled) break;
        }

        prog.completed_blocks = next_block;
        prog.completed_traces =
            next_block == 0 ? 0 : plan.block_end(next_block - 1);
        if (prog.cancelled)
            log::info("campaign cancelled after " + std::to_string(next_block) +
                      "/" + std::to_string(n_blocks) + " blocks" +
                      (path.empty() ? std::string{} : "; checkpoint at " + path));

        if (stack.empty()) return p.make_acc();
        while (stack.size() >= 2) {
            p.merge(stack[stack.size() - 2].second, stack.back().second);
            stack.pop_back();
        }
        return std::move(stack.front().second);
    }
};

}  // namespace

TraceCampaignResult run_trace_campaign(const Workload& workload,
                                       const TraceCampaignConfig& config,
                                       const CampaignRunOptions& run,
                                       ThreadPool& pool) {
    validate_campaign_config(config.traces, config.block_size, config.lanes);
    // Timing coupling makes delays data-dependent, which the shared lane
    // schedule cannot express -- resolve_lanes falls back to scalar then.
    const unsigned lanes =
        resolve_lanes(config.lanes, workload.coupling.timing_enabled);
    const ShardPlan plan{config.traces, config.block_size};

    const bool attribute = attribution_enabled(run);
    const leakage::AttributionPlan attr_plan =
        attribute ? leakage::AttributionPlan(workload.nl, workload.bins,
                                             workload.clock.period_ps,
                                             run.attribution_scope)
                  : leakage::AttributionPlan();
    const leakage::AttributionPlan* probe_plan = attribute ? &attr_plan : nullptr;
    CampaignFingerprint fingerprint = workload.fingerprint;
    if (attribute) fold_attribution_fingerprint(fingerprint, run);

    RunTelemetrySession session(workload.tag, run, fingerprint, plan.traces,
                                pool.size(), lanes);

    const Pipeline p{workload, config.seed, lanes, probe_plan,
                     attr_plan.points()};
    TraceCampaignResult result;
    Runner runner{p,
                  plan,
                  pool,
                  run,
                  fingerprint,
                  resolve_checkpoint_path(run, workload.tag),
                  result.progress,
                  session.meter()};
    BlockAcc merged = lanes != 1 ? runner.run_waves<LaneWorker>()
                                 : runner.run_waves<ScalarWorker>();

    for (int order = 1; order <= workload.fold.max_test_order; ++order) {
        result.max_abs_t[order] =
            merged.bank.max_abs_t(order, &result.argmax[order]);
        session.add_metric("max_abs_t_order" + std::to_string(order),
                           result.max_abs_t[order]);
    }
    if (workload.fold.count_toggles)
        session.add_metric("toggles", static_cast<double>(merged.toggles));
    if (attribute) {
        result.attribution =
            leakage::analyze_attribution(workload.nl, attr_plan, merged.attr);
        session.set_attribution(result.attribution, run.attribution_top_k,
                                run.attribution_scope);
    }
    session.finish(result.progress);
    result.bank = std::move(merged.bank);
    result.sum = std::move(merged.sum);
    result.toggles = merged.toggles;
    return result;
}

}  // namespace glitchmask::eval
