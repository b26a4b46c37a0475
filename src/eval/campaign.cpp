#include "eval/campaign.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/sharing.hpp"
#include "eval/lane_backend.hpp"
#include "leakage/moment_bank.hpp"
#include "eval/run_report.hpp"
#include "power/batch_power.hpp"
#include "sim/compiled_simulator.hpp"
#include "support/telemetry.hpp"

namespace glitchmask::eval {

namespace {

sim::DelayConfig sequence_delay_config(const SequenceExperimentConfig& config) {
    sim::DelayConfig delay_config = sim::DelayConfig::spartan6();
    delay_config.seed = config.placement_seed;
    return delay_config;
}

}  // namespace

std::vector<double> collect_trace(
    sim::ClockedSim& sim, power::PowerRecorder& recorder, std::size_t cycles,
    double sigma, Xoshiro256& noise_rng,
    const std::function<void(sim::ClockedSim&)>& drive) {
    sim.restart();
    recorder.begin_trace(cycles);
    drive(sim);
    return recorder.noisy_trace(noise_rng, sigma);
}

SequenceHarness::SequenceHarness(const SequenceExperimentConfig& config)
    : circuit_(core::build_registered_secand2(config.replicas)),
      dm_(circuit_.nl, sequence_delay_config(config)) {
    power_config_.bin_ps = clock_.period_ps;
}

namespace {

/// Per-trace sequence-experiment stimulus, derived purely from (seed, n).
struct SequenceStimulus {
    bool fixed;
    std::array<bool, 4> share_value;  // x0, x1, y0, y1
};

SequenceStimulus sequence_stimulus(std::uint64_t seed, std::size_t trace_index) {
    Xoshiro256 rng = trace_rng(seed, kStimulusStream, trace_index);
    const bool fixed = rng.bit();
    const bool x = fixed ? true : rng.bit();
    const bool y = fixed ? true : rng.bit();
    const core::MaskedBit mx = core::mask_bit(x, rng);
    const core::MaskedBit my = core::mask_bit(y, rng);
    return SequenceStimulus{fixed, {mx.s0, mx.s1, my.s0, my.s1}};
}

/// "seq_0123"-style tag: default checkpoint-file id for one sequence.
std::string sequence_tag(const core::InputSequence& sequence) {
    std::string tag = "seq_";
    for (const core::ShareId slot : sequence)
        tag += static_cast<char>('0' + static_cast<int>(slot));
    return tag;
}

/// Block accumulator: TVLA statistics plus the optional attribution
/// state, merged and snapshotted together so both ride the same merge
/// tree (attr has zero points when attribution is off).  The statistics
/// live in the fused bin-vectorized MomentBank; its serialized form is
/// byte-identical to TvlaCampaign, so old checkpoints stay resumable.
struct SeqBlockAcc {
    leakage::MomentBank bank;
    leakage::AttributionAccumulator attr;
};

}  // namespace

/// The sequence itself is part of the campaign identity: resuming one
/// sequence's snapshot into another's campaign must be rejected.
CampaignFingerprint sequence_fingerprint(const core::InputSequence& sequence,
                                         const SequenceExperimentConfig& config) {
    const std::size_t cycles = kSequenceCycles;
    std::uint64_t payload = kFnvOffset;
    for (const core::ShareId slot : sequence)
        payload = fnv1a64(payload, static_cast<std::uint64_t>(slot));
    payload = fnv1a64(payload, config.replicas);
    payload = fnv1a64(payload, std::bit_cast<std::uint64_t>(config.noise_sigma));
    payload = fnv1a64(payload, config.placement_seed);
    payload = fnv1a64(payload, static_cast<std::uint64_t>(config.max_test_order));
    payload = fnv1a64(payload, static_cast<std::uint64_t>(cycles));
    return CampaignFingerprint{fnv1a64_tag("sequence_tvla"), config.seed,
                               config.traces, config.block_size, payload};
}

SequenceLeakResult SequenceHarness::run(const core::InputSequence& sequence,
                                        const SequenceExperimentConfig& config,
                                        ThreadPool& pool) const {
    constexpr std::size_t kCycles = kSequenceCycles;

    validate_campaign_config(config.traces, config.block_size, config.lanes);

    // Sequence campaigns never enable coupling, so the lane engine is
    // always available; the lanes knob only decides whether we take it.
    const unsigned pass_lanes =
        resolve_lanes(config.lanes, /*timing_coupling=*/false);
    const ShardPlan plan{config.traces, config.block_size};

    const std::string tag = sequence_tag(sequence);
    const bool attribute = attribution_enabled(config.run);
    const leakage::AttributionPlan attr_plan =
        attribute ? leakage::AttributionPlan(circuit_.nl, kCycles,
                                             clock_.period_ps,
                                             config.run.attribution_scope)
                  : leakage::AttributionPlan();
    CampaignFingerprint fingerprint =
        sequence_fingerprint(sequence, config);
    if (attribute) fold_attribution_fingerprint(fingerprint, config.run);
    RunTelemetrySession session(tag, config.run, fingerprint, plan.traces,
                                pool.size(), pass_lanes);
    CheckpointPolicy policy = make_checkpoint_policy(config.run, tag);
    session.attach(policy);
    const auto encode = [attribute](const SeqBlockAcc& acc,
                                    SnapshotWriter& out) {
        acc.bank.encode(out);
        if (attribute) acc.attr.encode(out);
    };
    const auto decode = [attribute](SnapshotReader& in) {
        SeqBlockAcc acc{leakage::MomentBank::decode(in), {}};
        if (attribute) acc.attr = leakage::AttributionAccumulator::decode(in);
        return acc;
    };
    const auto make_acc = [&] {
        return SeqBlockAcc{leakage::MomentBank(kCycles, config.max_test_order),
                           leakage::AttributionAccumulator(attr_plan.points())};
    };
    const auto merge = [](SeqBlockAcc& into, const SeqBlockAcc& from) {
        into.bank.merge(from.bank);
        into.attr.merge(from.attr);
    };
    const leakage::AttributionPlan* probe_plan = attribute ? &attr_plan : nullptr;
    CampaignProgress progress;

    SeqBlockAcc merged = [&] {
        if (pass_lanes != 1) {
            // Per-worker lane engine replica (eval/lane_backend.hpp): one
            // pass per group of up to
            // group_lanes() consecutive trace indices.  Groups are cut
            // within each block (a short tail uses fewer lanes), so any
            // block size stays bit-identical to the scalar path; block
            // sizes >= the lane width merely amortize best.
            return run_sharded_blocks_checkpointed(
                pool, plan,
                [&] {
                    auto worker = std::make_unique<LaneWorker>(
                        circuit_.nl, dm_, pass_lanes, clock_);
                    worker->attach_sinks(circuit_.nl, power_config_,
                                         probe_plan);
                    return worker;
                },
                make_acc,
                [&](auto& worker, std::size_t begin, std::size_t end,
                    SeqBlockAcc& acc) {
                    telemetry::PhaseClock phases;
                    phases.mark();
                    const unsigned group_lanes = worker->group_lanes();
                    for (std::size_t group = begin; group < end;
                         group += group_lanes) {
                        const unsigned count = static_cast<unsigned>(
                            std::min<std::size_t>(group_lanes,
                                                  end - group));
                        std::array<std::uint64_t, sim::kMaxLaneChunks>
                            fixed{};
                        std::array<
                            std::array<std::uint64_t, sim::kMaxLaneChunks>,
                            4>
                            share_words{};
                        for (unsigned lane = 0; lane < count; ++lane) {
                            const SequenceStimulus stim = sequence_stimulus(
                                config.seed, group + lane);
                            const unsigned c = lane / 64u;
                            const std::uint64_t bit = std::uint64_t{1}
                                                      << (lane % 64u);
                            if (stim.fixed) fixed[c] |= bit;
                            for (std::size_t i = 0; i < 4; ++i)
                                if (stim.share_value[i])
                                    share_words[i][c] |= bit;
                        }

                        auto& s = worker->sim;
                        s.restart();
                        worker->begin_group(kCycles, fixed.data(), count,
                                            &acc.attr);
                        for (std::size_t i = 0; i < 4; ++i)
                            for (unsigned c = 0; c < s.chunks(); ++c)
                                s.set_input_word(circuit_.in[i], c,
                                                 share_words[i][c]);
                        s.step();
                        for (const core::ShareId slot : sequence) {
                            s.set_enable(circuit_.enable[static_cast<
                                             std::size_t>(slot)],
                                         true);
                            s.step();
                        }
                        s.step();
                        phases.lap(telemetry::Counter::kPhaseSimNanos);

                        // Fused fold, chunk by chunk (chunk c == traces
                        // group+64c .. group+64c+63): each lane's noisy
                        // row streams straight into the moment bank --
                        // no batch noisy-trace matrix.  Per-lane noise
                        // draws come in bin order from that trace's
                        // counter-based stream, and lanes fold in lane
                        // order, so every per-point accumulator sees the
                        // same addend sequence as the scalar path.
                        auto& noisy = worker->noisy;
                        const unsigned chunks_used = (count + 63u) / 64u;
                        for (unsigned c = 0; c < chunks_used; ++c) {
                            const unsigned cnt =
                                std::min(64u, count - c * 64u);
                            for (unsigned lane = 0; lane < cnt; ++lane) {
                                Xoshiro256 noise_rng =
                                    trace_rng(config.seed, kNoiseStream,
                                              group + c * 64u + lane);
                                worker->noisy_row(c * 64u + lane,
                                                  noise_rng,
                                                  config.noise_sigma,
                                                  noisy);
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
                merge, policy, fingerprint, encode, decode, &progress,
                session.meter());
        }

        // Scalar reference path: one event-queue pass per trace.  Heap-allocated so
        // the recorder's sink registration never relocates.
        struct Worker {
            sim::ClockedSim sim;
            power::PowerRecorder recorder;
            std::optional<leakage::AttributionProbe> probe;
            std::vector<double> noisy;  // reused per-trace noise buffer
            telemetry::SimStats last_stats;  // delta base for telemetry
            Worker(const core::RegisteredSecand2& circuit,
                   const sim::DelayModel& dm, sim::ClockConfig clock,
                   power::PowerConfig power_config,
                   const leakage::AttributionPlan* attr)
                : sim(circuit.nl, dm, clock), recorder(circuit.nl, power_config) {
                if (attr != nullptr) {
                    probe.emplace(*attr, &recorder);
                    sim.engine().set_sink(&*probe);
                } else {
                    sim.engine().set_sink(&recorder);
                }
            }
        };

        return run_sharded_blocks_checkpointed(
            pool, plan,
            [&] {
                return std::make_unique<Worker>(circuit_, dm_, clock_,
                                                power_config_, probe_plan);
            },
            make_acc,
            [&](std::unique_ptr<Worker>& worker, std::size_t begin,
                std::size_t end, SeqBlockAcc& acc) {
                telemetry::PhaseClock phases;
                phases.mark();
                for (std::size_t trace_index = begin; trace_index < end;
                     ++trace_index) {
                    const SequenceStimulus stim =
                        sequence_stimulus(config.seed, trace_index);
                    Xoshiro256 noise_rng =
                        trace_rng(config.seed, kNoiseStream, trace_index);

                    auto& s = worker->sim;
                    s.restart();
                    worker->recorder.begin_trace(kCycles);
                    if (worker->probe) worker->probe->begin_trace();
                    for (std::size_t i = 0; i < 4; ++i)
                        s.set_input(circuit_.in[i], stim.share_value[i]);
                    s.step();
                    for (const core::ShareId slot : sequence) {
                        s.set_enable(
                            circuit_.enable[static_cast<std::size_t>(slot)],
                            true);
                        s.step();
                    }
                    s.step();
                    phases.lap(telemetry::Counter::kPhaseSimNanos);
                    worker->recorder.noisy_trace_into(
                        noise_rng, config.noise_sigma, worker->noisy);
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
            merge, policy, fingerprint, encode, decode, &progress,
            session.meter());
    }();
    const leakage::MomentBank& bank = merged.bank;

    SequenceLeakResult result;
    result.sequence = sequence;
    result.max_abs_t1 = bank.max_abs_t(1, &result.argmax_cycle);
    result.max_abs_t2 = bank.max_abs_t(2);
    result.leaks_first_order = result.max_abs_t1 > leakage::kTvlaThreshold;
    result.expected_to_leak = core::sequence_expected_to_leak(sequence);
    result.completed_traces = progress.completed_traces;
    result.cancelled = progress.cancelled;
    result.resumed = progress.resumed;
    session.add_metric("max_abs_t_order1", result.max_abs_t1);
    session.add_metric("max_abs_t_order2", result.max_abs_t2);
    if (attribute) {
        result.attribution =
            leakage::analyze_attribution(circuit_.nl, attr_plan, merged.attr);
        session.set_attribution(result.attribution,
                                config.run.attribution_top_k,
                                config.run.attribution_scope);
    }
    session.finish(progress);
    return result;
}

SequenceLeakResult run_sequence_experiment(
    const core::InputSequence& sequence,
    const SequenceExperimentConfig& config) {
    const SequenceHarness harness(config);
    ThreadPool pool(resolve_workers(config.workers));
    return harness.run(sequence, config, pool);
}

std::vector<SequenceLeakResult> run_all_sequences(
    const SequenceExperimentConfig& config) {
    // One netlist/delay-model and one worker pool serve all 24 sequences;
    // the circuit is sequence-independent, rebuilding it per sequence was
    // pure waste.
    const SequenceHarness harness(config);
    ThreadPool pool(resolve_workers(config.workers));
    std::vector<SequenceLeakResult> results;
    for (const core::InputSequence& sequence : core::all_input_sequences()) {
        results.push_back(harness.run(sequence, config, pool));
        // A fired cancel token stops the whole sweep: later sequences
        // would each spin up, notice the token and return empty results.
        if (results.back().cancelled) break;
    }
    return results;
}

}  // namespace glitchmask::eval
