#include "eval/trace_campaign.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "eval/parallel_campaign.hpp"
#include "eval/run_report.hpp"
#include "power/batch_power.hpp"
#include "power/power_model.hpp"
#include "support/campaign_error.hpp"
#include "support/telemetry.hpp"

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

/// What both block bodies and the snapshot codec read of one campaign.
struct Pipeline {
    const Workload& w;
    std::uint64_t seed;
    std::size_t attr_points;
    bool attribute;
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
        if (attribute) acc.attr.encode(out);
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
        if (attribute) acc.attr = leakage::AttributionAccumulator::decode(in);
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
            phases.lap(telemetry::Counter::kPhaseSimNanos);

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
                    phases.lap(telemetry::Counter::kPhaseNoiseNanos);
                    for (unsigned lane = 0; lane < live; ++lane)
                        acc.bank.add_trace(
                            ((group.fixed[c] >> lane) & 1u) != 0,
                            worker.rows.data() + lane * bins);
                } else {
                    for (unsigned lane = 0; lane < live; ++lane)
                        for (std::size_t i = 0; i < bins; ++i)
                            acc.sum[i] += recorder.sample(i, lane);
                }
                phases.lap(telemetry::Counter::kPhaseMomentsNanos);
                if (!worker.probes.empty()) worker.probes[c].fold_group();
                phases.lap(telemetry::Counter::kPhaseAttributionNanos);
            }
        }
        // The probes' staged block subtotals land before acc is read.
        for (auto& probe : worker.probes) probe.spill_block();
        phases.lap(telemetry::Counter::kPhaseAttributionNanos);
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
            phases.lap(telemetry::Counter::kPhaseSimNanos);
            if (moments) {
                Xoshiro256 noise_rng = trace_rng(seed, kNoiseStream, trace);
                worker.recorder.noisy_trace_into(noise_rng, fold.noise_sigma,
                                                 worker.noisy);
                if (fold.count_toggles)
                    acc.toggles += worker.recorder.trace_toggles();
                phases.lap(telemetry::Counter::kPhaseNoiseNanos);
                acc.bank.add_trace(fixed, worker.noisy.data());
            } else {
                const std::vector<double>& row = worker.recorder.trace();
                for (std::size_t i = 0; i < bins; ++i) acc.sum[i] += row[i];
            }
            phases.lap(telemetry::Counter::kPhaseMomentsNanos);
            if (worker.probe) worker.probe->fold_trace(fixed, acc.attr);
            phases.lap(telemetry::Counter::kPhaseAttributionNanos);
        }
        phases.flush();
        if (telemetry::enabled())
            telemetry::record_sim_block(worker.sim.engine().stats(),
                                        worker.last_stats);
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
    CheckpointPolicy policy = make_checkpoint_policy(run, workload.tag);
    session.attach(policy);

    const Pipeline p{workload, config.seed, attr_plan.points(), attribute};
    TraceCampaignResult result;
    const auto run_blocks = [&](auto make_worker) {
        return run_sharded_blocks_checkpointed(
            pool, plan, make_worker, [&] { return p.make_acc(); },
            [&](auto& worker, std::size_t begin, std::size_t end,
                BlockAcc& acc) { p.run_block(*worker, begin, end, acc); },
            [&](BlockAcc& into, const BlockAcc& from) { p.merge(into, from); },
            policy, fingerprint,
            [&](const BlockAcc& acc, SnapshotWriter& out) { p.encode(acc, out); },
            [&](SnapshotReader& in) { return p.decode(in); }, &result.progress,
            session.meter());
    };
    const auto lane_worker = [&] {
        return std::make_unique<LaneWorker>(workload, lanes, probe_plan);
    };
    const auto scalar_worker = [&] {
        return std::make_unique<ScalarWorker>(workload, probe_plan);
    };
    BlockAcc merged =
        lanes != 1 ? run_blocks(lane_worker) : run_blocks(scalar_worker);

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
