#include "eval/des_experiments.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/sharing.hpp"
#include "eval/lane_backend.hpp"
#include "eval/parallel_campaign.hpp"
#include "eval/run_report.hpp"
#include "leakage/moment_bank.hpp"
#include "power/batch_power.hpp"
#include "sim/compiled_simulator.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace glitchmask::eval {

namespace {

power::PowerConfig des_power_config(sim::TimePs period) {
    power::PowerConfig config;
    config.bin_ps = period;
    return config;
}

/// Per-worker DES simulator replica over the shared netlist/delay-model.
struct DesWorker {
    sim::ClockedSim sim;
    power::PowerRecorder recorder;
    std::optional<leakage::AttributionProbe> probe;
    std::vector<double> noisy;  // reused per-trace noise buffer
    telemetry::SimStats last_stats;  // delta base for telemetry

    DesWorker(const des::MaskedDesCore& core, const sim::DelayModel& dm,
              sim::ClockConfig clock, sim::CouplingConfig coupling,
              power::PowerConfig power_config,
              const leakage::AttributionPlan* attr = nullptr)
        : sim(core.nl(), dm, clock, coupling),
          recorder(core.nl(), power_config) {
        recorder.attach(&sim.engine());
        if (attr != nullptr) {
            probe.emplace(*attr, &recorder);
            sim.engine().set_sink(&*probe);
        } else {
            sim.engine().set_sink(&recorder);
        }
    }
};

/// Lane engine replica (eval/lane_backend.hpp): one pass per
/// group_lanes() consecutive traces.
struct DesLaneWorker : LaneWorker {
    using LaneWorker::LaneWorker;
    std::vector<core::MaskedWord> pts, keys;
    std::vector<Xoshiro256> prngs;  // per-lane refresh generators
};

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

/// Per-block accumulator of the DES TVLA campaign (and its snapshot
/// payload: the statistics bank plus the toggle counter).  The bank's
/// serialized form is byte-identical to the TvlaCampaign it replaced,
/// so pre-existing checkpoints stay resumable.
struct DesBlockAcc {
    leakage::MomentBank bank;
    std::uint64_t toggles = 0;
    leakage::AttributionAccumulator attr;  // zero points when off
};

void encode_des_acc(const DesBlockAcc& acc, SnapshotWriter& out,
                    bool attribute) {
    acc.bank.encode(out);
    out.u64(acc.toggles);
    if (attribute) acc.attr.encode(out);
}

DesBlockAcc decode_des_acc(SnapshotReader& in, bool attribute) {
    DesBlockAcc acc{leakage::MomentBank::decode(in), 0, {}};
    acc.toggles = in.u64();
    if (attribute) acc.attr = leakage::AttributionAccumulator::decode(in);
    return acc;
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
    validate_campaign_config(config.traces, config.block_size, config.lanes);

    sim::DelayConfig delay_config = sim::DelayConfig::spartan6();
    delay_config.seed = config.placement_seed;
    const sim::DelayModel dm(core.nl(), delay_config);

    sim::ClockConfig clock;
    clock.period_ps = core.recommended_period();
    power::PowerConfig power_config = des_power_config(clock.period_ps);
    power_config.coupling_epsilon = config.coupling_epsilon;

    const std::size_t samples = core.total_cycles();

    using BlockAcc = DesBlockAcc;

    // Timing coupling makes delays data-dependent, which the shared lane
    // schedule cannot express -- resolve_lanes falls back to scalar then.
    const unsigned pass_lanes =
        resolve_lanes(config.lanes, config.coupling.timing_enabled);

    const bool attribute = attribution_enabled(config.run);
    const leakage::AttributionPlan attr_plan =
        attribute ? leakage::AttributionPlan(core.nl(), samples,
                                             clock.period_ps,
                                             config.run.attribution_scope)
                  : leakage::AttributionPlan();
    const leakage::AttributionPlan* probe_plan = attribute ? &attr_plan : nullptr;

    CampaignFingerprint fingerprint = des_tvla_fingerprint(config, samples);
    if (attribute) fold_attribution_fingerprint(fingerprint, config.run);
    ThreadPool pool(resolve_workers(config.workers));
    RunTelemetrySession session("des_tvla", config.run, fingerprint,
                                config.traces, pool.size(), pass_lanes);
    CheckpointPolicy policy = make_checkpoint_policy(config.run, "des_tvla");
    session.attach(policy);
    const auto encode = [attribute](const BlockAcc& acc, SnapshotWriter& out) {
        encode_des_acc(acc, out, attribute);
    };
    const auto decode = [attribute](SnapshotReader& in) {
        return decode_des_acc(in, attribute);
    };
    CampaignProgress progress;

    const ShardPlan plan{config.traces, config.block_size};
    const auto make_acc = [&] {
        return BlockAcc{leakage::MomentBank(samples, config.max_test_order),
                        0,
                        leakage::AttributionAccumulator(attr_plan.points())};
    };
    const auto merge_acc = [](BlockAcc& into, const BlockAcc& from) {
        into.bank.merge(from.bank);
        into.toggles += from.toggles;
        into.attr.merge(from.attr);
    };

    BlockAcc merged = [&] {
        if (pass_lanes != 1) {
            // Lane groups are cut *within* each block (partial groups use
            // fewer lanes), so any block size stays bit-identical to the
            // scalar path; wide compiled passes only fill up when
            // block_size >= lanes.
            return run_sharded_blocks_checkpointed(
                pool, plan,
                [&] {
                    auto worker = std::make_unique<DesLaneWorker>(
                        core.nl(), dm, pass_lanes, clock, config.coupling);
                    worker->attach_sinks(core.nl(), power_config, probe_plan);
                    return worker;
                },
                make_acc,
                [&](auto& worker, std::size_t begin, std::size_t end,
                    BlockAcc& acc) {
                    telemetry::PhaseClock phases;
                    phases.mark();
                    const unsigned group_lanes = worker->group_lanes();
                    for (std::size_t group = begin; group < end;
                         group += group_lanes) {
                        const unsigned count = static_cast<unsigned>(
                            std::min<std::size_t>(group_lanes, end - group));
                        std::array<std::uint64_t, sim::kMaxLaneChunks> fixed{};
                        worker->pts.clear();
                        worker->keys.clear();
                        worker->prngs.clear();
                        for (unsigned lane = 0; lane < count; ++lane) {
                            DesStimulus stim =
                                des_stimulus(config, group + lane);
                            if (stim.fixed)
                                fixed[lane / 64u] |= std::uint64_t{1}
                                                     << (lane % 64u);
                            worker->pts.push_back(stim.pt);
                            worker->keys.push_back(stim.key);
                            worker->prngs.push_back(stim.rng);
                        }

                        worker->sim.restart();
                        worker->begin_group(samples, fixed.data(), count,
                                            &acc.attr);
                        (void)core.encrypt_batch_chunks(
                            worker->sim, worker->pts, worker->keys,
                            config.prng_on
                                ? std::span<Xoshiro256>(worker->prngs)
                                : std::span<Xoshiro256>{});
                        phases.lap(telemetry::Counter::kPhaseSimNanos);

                        // Fused fold, chunk by chunk (chunk c covers traces
                        // group+64c .. group+64c+63): each lane's noisy row
                        // streams straight into the moment bank, no batch
                        // noisy-trace matrix.  Noise draws come in bin order
                        // from that trace's counter-based stream and lanes
                        // fold in lane order, so every per-point accumulator
                        // sees the scalar path's exact addend sequence.
                        auto& noisy = worker->noisy;
                        const unsigned chunks_used = (count + 63u) / 64u;
                        for (unsigned c = 0; c < chunks_used; ++c) {
                            const unsigned cnt =
                                std::min(64u, count - c * 64u);
                            for (unsigned lane = 0; lane < cnt; ++lane) {
                                Xoshiro256 noise_rng =
                                    trace_rng(config.seed, kNoiseStream,
                                              group + c * 64u + lane);
                                worker->noisy_row(c * 64u + lane, noise_rng,
                                                  config.noise_sigma, noisy);
                                acc.toggles +=
                                    worker->lane_toggles(c * 64u + lane);
                                phases.lap(
                                    telemetry::Counter::kPhaseNoiseNanos);
                                acc.bank.add_trace(
                                    ((fixed[c] >> lane) & 1u) != 0,
                                    noisy.data());
                                phases.lap(
                                    telemetry::Counter::kPhaseMomentsNanos);
                            }
                            if (!worker->probes.empty())
                                worker->probes[c].fold_group();
                            phases.lap(
                                telemetry::Counter::kPhaseAttributionNanos);
                        }
                    }
                    worker->finish_block();
                    phases.lap(telemetry::Counter::kPhaseAttributionNanos);
                    phases.flush();
                    if (telemetry::enabled())
                        telemetry::record_sim_block(worker->sim.stats(),
                                                    worker->last_stats);
                },
                merge_acc, policy, fingerprint, encode, decode, &progress,
                session.meter());
        }

        return run_sharded_blocks_checkpointed(
            pool, plan,
            [&] {
                return std::make_unique<DesWorker>(core, dm, clock,
                                                   config.coupling,
                                                   power_config, probe_plan);
            },
            make_acc,
            [&](std::unique_ptr<DesWorker>& worker, std::size_t begin,
                std::size_t end, BlockAcc& acc) {
                telemetry::PhaseClock phases;
                phases.mark();
                for (std::size_t trace_index = begin; trace_index < end;
                     ++trace_index) {
                    DesStimulus stim = des_stimulus(config, trace_index);
                    Xoshiro256 noise_rng =
                        trace_rng(config.seed, kNoiseStream, trace_index);

                    worker->sim.restart();
                    worker->recorder.begin_trace(samples);
                    if (worker->probe) worker->probe->begin_trace();
                    (void)core.encrypt(worker->sim, stim.pt, stim.key,
                                       config.prng_on ? &stim.rng : nullptr);
                    phases.lap(telemetry::Counter::kPhaseSimNanos);
                    worker->recorder.noisy_trace_into(
                        noise_rng, config.noise_sigma, worker->noisy);
                    acc.toggles += worker->recorder.trace_toggles();
                    phases.lap(telemetry::Counter::kPhaseNoiseNanos);
                    acc.bank.add_trace(stim.fixed, worker->noisy.data());
                    phases.lap(telemetry::Counter::kPhaseMomentsNanos);
                    if (worker->probe)
                        worker->probe->fold_trace(stim.fixed, acc.attr);
                    phases.lap(telemetry::Counter::kPhaseAttributionNanos);
                }
                phases.flush();
                if (telemetry::enabled())
                    telemetry::record_sim_block(worker->sim.engine().stats(),
                                                worker->last_stats);
            },
            merge_acc,
            policy, fingerprint, encode, decode, &progress, session.meter());
    }();

    DesTvlaResult result(samples, config.max_test_order);
    result.samples = samples;
    result.traces = config.traces;
    result.completed_traces = progress.completed_traces;
    result.cancelled = progress.cancelled;
    result.resumed = progress.resumed;
    result.toggles = merged.toggles;
    result.campaign = merged.bank.to_campaign();
    for (int order = 1; order <= config.max_test_order; ++order) {
        result.max_abs_t[order] =
            result.campaign.max_abs_t(order, &result.argmax[order]);
        session.add_metric(
            "max_abs_t_order" + std::to_string(order), result.max_abs_t[order]);
    }
    if (attribute) {
        result.attribution =
            leakage::analyze_attribution(core.nl(), attr_plan, merged.attr);
        session.set_attribution(result.attribution,
                                config.run.attribution_top_k,
                                config.run.attribution_scope);
    }
    session.add_metric("toggles", static_cast<double>(result.toggles));
    session.finish(progress);
    return result;
}

namespace {

/// mean_power_trace's block accumulator: per-bin power sums plus the
/// optional attribution state.
struct MeanPowerAcc {
    std::vector<double> sum;
    leakage::AttributionAccumulator attr;  // zero points when off
};

}  // namespace

std::vector<double> mean_power_trace(const des::MaskedDesCore& core,
                                     std::size_t traces, std::uint64_t seed,
                                     std::uint64_t placement_seed,
                                     unsigned workers, unsigned lanes,
                                     const CampaignRunOptions& run,
                                     CampaignProgress* progress,
                                     leakage::AttributionResult* attribution) {
    validate_campaign_config(traces, /*block_size=*/64, lanes);

    sim::DelayConfig delay_config = sim::DelayConfig::spartan6();
    delay_config.seed = placement_seed;
    const sim::DelayModel dm(core.nl(), delay_config);
    sim::ClockConfig clock;
    clock.period_ps = core.recommended_period();
    const power::PowerConfig power_config = des_power_config(clock.period_ps);

    const std::size_t samples = core.total_cycles();
    ThreadPool pool(resolve_workers(workers));
    const ShardPlan plan{traces, /*block_size=*/64};
    const unsigned pass_lanes =
        resolve_lanes(lanes, /*timing_coupling=*/false);

    const bool attribute = attribution_enabled(run);
    const leakage::AttributionPlan attr_plan =
        attribute ? leakage::AttributionPlan(core.nl(), samples,
                                             clock.period_ps,
                                             run.attribution_scope)
                  : leakage::AttributionPlan();
    const leakage::AttributionPlan* probe_plan = attribute ? &attr_plan : nullptr;

    CampaignFingerprint fingerprint =
        mean_power_fingerprint(traces, seed, placement_seed, samples);
    if (attribute) fold_attribution_fingerprint(fingerprint, run);
    RunTelemetrySession session("mean_power", run, fingerprint, traces,
                                pool.size(), pass_lanes);
    CheckpointPolicy policy = make_checkpoint_policy(run, "mean_power");
    session.attach(policy);
    const auto encode = [attribute](const MeanPowerAcc& acc,
                                    SnapshotWriter& out) {
        out.u64(acc.sum.size());
        for (double v : acc.sum) out.f64(v);
        if (attribute) acc.attr.encode(out);
    };
    const auto decode = [samples, attribute](SnapshotReader& in) {
        const std::uint64_t size = in.u64();
        if (size != samples)
            throw CampaignError(CampaignErrorKind::CorruptSnapshot,
                                "snapshot: mean-power sample count mismatch");
        MeanPowerAcc acc;
        acc.sum.resize(samples);
        for (double& v : acc.sum) v = in.f64();
        if (attribute) acc.attr = leakage::AttributionAccumulator::decode(in);
        return acc;
    };
    const auto make_acc = [&] {
        return MeanPowerAcc{std::vector<double>(samples, 0.0),
                            leakage::AttributionAccumulator(attr_plan.points())};
    };
    const auto merge = [](MeanPowerAcc& into, const MeanPowerAcc& from) {
        for (std::size_t i = 0; i < into.sum.size(); ++i)
            into.sum[i] += from.sum[i];
        into.attr.merge(from.attr);
    };
    CampaignProgress local_progress;
    CampaignProgress& prog = progress != nullptr ? *progress : local_progress;

    MeanPowerAcc merged = [&] {
        if (pass_lanes != 1) {
            return run_sharded_blocks_checkpointed(
                pool, plan,
                [&] {
                    auto worker = std::make_unique<DesLaneWorker>(
                        core.nl(), dm, pass_lanes, clock);
                    worker->attach_sinks(core.nl(), power_config, probe_plan);
                    return worker;
                },
                make_acc,
                [&](auto& worker, std::size_t begin, std::size_t end,
                    MeanPowerAcc& acc) {
                    telemetry::PhaseClock phases;
                    phases.mark();
                    const unsigned group_lanes = worker->group_lanes();
                    for (std::size_t group = begin; group < end;
                         group += group_lanes) {
                        const unsigned count = static_cast<unsigned>(
                            std::min<std::size_t>(group_lanes, end - group));
                        worker->pts.clear();
                        worker->keys.clear();
                        worker->prngs.clear();
                        for (unsigned lane = 0; lane < count; ++lane) {
                            Xoshiro256 rng =
                                trace_rng(seed, kStimulusStream, group + lane);
                            const std::uint64_t pt = rng();
                            const std::uint64_t key = rng();
                            worker->pts.push_back(
                                core::mask_word(pt, 64, rng));
                            worker->keys.push_back(
                                core::mask_word(key, 64, rng));
                            worker->prngs.push_back(rng);
                        }
                        worker->sim.restart();
                        // Mean power has no fixed class: every lane is
                        // "random", matching the scalar fold below.
                        worker->begin_group(samples, /*fixed=*/nullptr, count,
                                            &acc.attr);
                        (void)core.encrypt_batch_chunks(
                            worker->sim, worker->pts, worker->keys,
                            worker->prngs);
                        phases.lap(telemetry::Counter::kPhaseSimNanos);
                        // Lane order == trace order, so each bin's partial
                        // sum sees the same addend sequence as the scalar
                        // per-trace loop.
                        for (unsigned lane = 0; lane < count; ++lane)
                            for (std::size_t i = 0; i < samples; ++i)
                                acc.sum[i] += worker->sample(i, lane);
                        phases.lap(telemetry::Counter::kPhaseMomentsNanos);
                        const unsigned chunks_used = (count + 63u) / 64u;
                        for (unsigned c = 0; c < chunks_used; ++c)
                            if (!worker->probes.empty())
                                worker->probes[c].fold_group();
                        phases.lap(telemetry::Counter::kPhaseAttributionNanos);
                    }
                    worker->finish_block();
                    phases.lap(telemetry::Counter::kPhaseAttributionNanos);
                    phases.flush();
                    if (telemetry::enabled())
                        telemetry::record_sim_block(worker->sim.stats(),
                                                    worker->last_stats);
                },
                merge, policy, fingerprint, encode, decode, &prog,
                session.meter());
        }

        return run_sharded_blocks_checkpointed(
            pool, plan,
            [&] {
                return std::make_unique<DesWorker>(core, dm, clock,
                                                   sim::CouplingConfig{},
                                                   power_config, probe_plan);
            },
            make_acc,
            [&](std::unique_ptr<DesWorker>& worker, std::size_t begin,
                std::size_t end, MeanPowerAcc& acc) {
                telemetry::PhaseClock phases;
                phases.mark();
                for (std::size_t trace_index = begin; trace_index < end;
                     ++trace_index) {
                    Xoshiro256 rng =
                        trace_rng(seed, kStimulusStream, trace_index);
                    worker->sim.restart();
                    worker->recorder.begin_trace(samples);
                    if (worker->probe) worker->probe->begin_trace();
                    const std::uint64_t pt = rng();
                    const std::uint64_t key = rng();
                    (void)core.encrypt_value(worker->sim, pt, key, &rng);
                    phases.lap(telemetry::Counter::kPhaseSimNanos);
                    const std::vector<double>& trace = worker->recorder.trace();
                    for (std::size_t i = 0; i < samples; ++i)
                        acc.sum[i] += trace[i];
                    phases.lap(telemetry::Counter::kPhaseMomentsNanos);
                    if (worker->probe)
                        worker->probe->fold_trace(/*fixed=*/false, acc.attr);
                    phases.lap(telemetry::Counter::kPhaseAttributionNanos);
                }
                phases.flush();
                if (telemetry::enabled())
                    telemetry::record_sim_block(worker->sim.engine().stats(),
                                                worker->last_stats);
            },
            merge, policy, fingerprint, encode, decode, &prog,
            session.meter());
    }();
    std::vector<double> mean = std::move(merged.sum);
    // A cancelled run averages over the traces it actually folded in.
    const std::size_t denom = prog.completed_traces > 0
                                  ? prog.completed_traces
                                  : traces;
    for (double& v : mean) v /= static_cast<double>(denom);
    if (attribute) {
        leakage::AttributionResult result =
            leakage::analyze_attribution(core.nl(), attr_plan, merged.attr);
        session.set_attribution(result, run.attribution_top_k,
                                run.attribution_scope);
        if (attribution != nullptr) *attribution = std::move(result);
    }
    session.finish(prog);
    return mean;
}

}  // namespace glitchmask::eval
