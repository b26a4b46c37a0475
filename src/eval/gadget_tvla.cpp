#include "eval/gadget_tvla.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <string>

#include "core/sharing.hpp"
#include "eval/lane_backend.hpp"
#include "eval/parallel_campaign.hpp"
#include "eval/run_report.hpp"
#include "leakage/moment_bank.hpp"
#include "leakage/tvla.hpp"
#include "power/batch_power.hpp"
#include "power/power_model.hpp"
#include "sim/compiled_simulator.hpp"
#include "support/telemetry.hpp"

namespace glitchmask::eval {

const char* gadget_name(GadgetKind kind) noexcept {
    switch (kind) {
        case GadgetKind::Naive: return "naive";
        case GadgetKind::Ff: return "ff";
        case GadgetKind::Pd: return "pd";
        case GadgetKind::Trichina: return "trichina";
        case GadgetKind::DomIndep: return "dom-indep";
        case GadgetKind::DomDep: return "dom-dep";
    }
    return "?";
}

std::optional<GadgetKind> parse_gadget(std::string_view name) {
    std::string lower;
    lower.reserve(name.size());
    for (const char c : name)
        lower += c == '_' ? '-'
                          : (c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32)
                                                  : c);
    if (lower == "naive" || lower == "secand2") return GadgetKind::Naive;
    if (lower == "ff" || lower == "secand2-ff") return GadgetKind::Ff;
    if (lower == "pd" || lower == "secand2-pd") return GadgetKind::Pd;
    if (lower == "trichina") return GadgetKind::Trichina;
    if (lower == "dom-indep" || lower == "dom") return GadgetKind::DomIndep;
    if (lower == "dom-dep") return GadgetKind::DomDep;
    return std::nullopt;
}

unsigned gadget_fresh_bits(GadgetKind kind) noexcept {
    switch (kind) {
        case GadgetKind::Trichina:
        case GadgetKind::DomIndep: return 1;
        case GadgetKind::DomDep: return 3;
        default: return 0;
    }
}

GadgetStimulus gadget_stimulus(unsigned fresh_bits, std::uint64_t seed,
                               std::size_t trace_index) {
    Xoshiro256 rng = trace_rng(seed, kStimulusStream, trace_index);
    GadgetStimulus stim;
    stim.fixed = rng.bit();
    const bool x = stim.fixed ? true : rng.bit();
    const bool y = stim.fixed ? true : rng.bit();
    const core::MaskedBit mx = core::mask_bit(x, rng);
    const core::MaskedBit my = core::mask_bit(y, rng);
    stim.shares = {mx.s0, mx.s1, my.s0, my.s1};
    stim.fresh.reserve(fresh_bits);
    for (unsigned i = 0; i < fresh_bits; ++i) stim.fresh.push_back(rng.bit());
    return stim;
}

GadgetCircuit build_gadget_circuit(GadgetKind kind, unsigned replicas) {
    GadgetCircuit c;
    c.kind = kind;
    c.replicas = replicas;
    c.x_in = core::shared_input(c.nl, "x");
    c.y_in = core::shared_input(c.nl, "y");
    const unsigned fresh = gadget_fresh_bits(kind);
    for (unsigned i = 0; i < fresh; ++i)
        c.rand_in.push_back(c.nl.input("r" + std::to_string(i)));
    const core::SharedNet x = core::reg_shares(c.nl, c.x_in, 1);
    const core::SharedNet y = core::reg_shares(c.nl, c.y_in, 1);
    std::vector<netlist::NetId> rand_regs;
    for (const netlist::NetId r : c.rand_in) rand_regs.push_back(c.nl.dff(r, 1));

    for (unsigned k = 0; k < replicas; ++k) {
        const std::string name = "g" + std::to_string(k);
        switch (kind) {
            case GadgetKind::Naive:
                (void)core::secand2(c.nl, x, y, name);
                break;
            case GadgetKind::Ff:
                (void)core::secand2_ff(c.nl, x, y, 2, 3, name);
                break;
            case GadgetKind::Pd:
                (void)core::secand2_pd(c.nl, x, y, {10, true}, name);
                break;
            case GadgetKind::Trichina:
                (void)core::trichina_and(c.nl, x, y, rand_regs[0], name);
                break;
            case GadgetKind::DomIndep:
                (void)core::dom_and_indep(c.nl, x, y, rand_regs[0], 2, name);
                break;
            case GadgetKind::DomDep:
                (void)core::dom_and_dep(c.nl, x, y, rand_regs[0], rand_regs[1],
                                        rand_regs[2], 2, name);
                break;
        }
    }
    c.nl.freeze();
    c.has_stage2 = c.nl.max_ctrl_group() >= 2;
    return c;
}

namespace {

sim::DelayConfig gadget_delay_config(std::uint64_t placement_seed) {
    sim::DelayConfig config = sim::DelayConfig::spartan6();
    config.seed = placement_seed;
    return config;
}

/// Block accumulator: TVLA statistics plus the optional attribution
/// state.  The statistics live in the fused bin-vectorized MomentBank;
/// its snapshot form matches TvlaCampaign byte for byte.
struct GadgetBlockAcc {
    leakage::MomentBank bank;
    leakage::AttributionAccumulator attr;
};

}  // namespace

CampaignFingerprint gadget_fingerprint(const GadgetTvlaConfig& config) {
    std::uint64_t payload = kFnvOffset;
    payload = fnv1a64(payload, static_cast<std::uint64_t>(config.gadget));
    payload = fnv1a64(payload, config.replicas);
    payload = fnv1a64(payload, std::bit_cast<std::uint64_t>(config.noise_sigma));
    payload = fnv1a64(payload, config.placement_seed);
    payload = fnv1a64(payload, static_cast<std::uint64_t>(config.max_test_order));
    payload = fnv1a64(payload, GadgetHarness::kCycles);
    return CampaignFingerprint{fnv1a64_tag("gadget_tvla"), config.seed,
                               config.traces, config.block_size, payload};
}

GadgetHarness::GadgetHarness(GadgetKind kind, unsigned replicas,
                             std::uint64_t placement_seed)
    : circuit_(build_gadget_circuit(kind, replicas)),
      dm_(circuit_.nl, gadget_delay_config(placement_seed)) {
    clock_.period_ps = 90000;  // the zoo's clock
}

void GadgetHarness::drive(sim::ClockedSim& s,
                          const GadgetStimulus& stim) const {
    s.set_input(circuit_.x_in.s0, stim.shares[0]);
    s.set_input(circuit_.x_in.s1, stim.shares[1]);
    s.set_input(circuit_.y_in.s0, stim.shares[2]);
    s.set_input(circuit_.y_in.s1, stim.shares[3]);
    for (std::size_t i = 0; i < circuit_.rand_in.size(); ++i)
        s.set_input(circuit_.rand_in[i], stim.fresh[i]);
    s.step();
    s.set_enable(1, true);
    s.step();
    s.set_enable(1, false);
    if (circuit_.has_stage2) s.set_enable(2, true);
    s.step();
    if (circuit_.has_stage2) s.set_enable(2, false);
    s.step();
}

GadgetTvlaResult GadgetHarness::run(const GadgetTvlaConfig& config,
                                    ThreadPool& pool) const {
    validate_campaign_config(config.traces, config.block_size, config.lanes);
    const unsigned pass_lanes =
        resolve_lanes(config.lanes, /*timing_coupling=*/false);
    const ShardPlan plan{config.traces, config.block_size};
    const unsigned fresh = fresh_bits();

    power::PowerConfig power_config;
    power_config.bin_ps = clock_.period_ps;

    const std::string tag = std::string("gadget_") + gadget_name(circuit_.kind);
    const bool attribute = attribution_enabled(config.run);
    const leakage::AttributionPlan attr_plan =
        attribute ? leakage::AttributionPlan(circuit_.nl, kCycles,
                                             clock_.period_ps,
                                             config.run.attribution_scope)
                  : leakage::AttributionPlan();
    const leakage::AttributionPlan* probe_plan = attribute ? &attr_plan : nullptr;
    CampaignFingerprint fingerprint = gadget_fingerprint(config);
    if (attribute) fold_attribution_fingerprint(fingerprint, config.run);

    RunTelemetrySession session(tag, config.run, fingerprint, plan.traces,
                                pool.size(), pass_lanes);
    CheckpointPolicy policy = make_checkpoint_policy(config.run, tag);
    session.attach(policy);
    const auto encode = [attribute](const GadgetBlockAcc& acc,
                                    SnapshotWriter& out) {
        acc.bank.encode(out);
        if (attribute) acc.attr.encode(out);
    };
    const auto decode = [attribute](SnapshotReader& in) {
        GadgetBlockAcc acc{leakage::MomentBank::decode(in), {}};
        if (attribute) acc.attr = leakage::AttributionAccumulator::decode(in);
        return acc;
    };
    const auto make_acc = [&] {
        return GadgetBlockAcc{
            leakage::MomentBank(kCycles, config.max_test_order),
            leakage::AttributionAccumulator(attr_plan.points())};
    };
    const auto merge = [](GadgetBlockAcc& into, const GadgetBlockAcc& from) {
        into.bank.merge(from.bank);
        into.attr.merge(from.attr);
    };
    CampaignProgress progress;

    GadgetBlockAcc merged = [&] {
        if (pass_lanes != 1) {
            // Per-worker lane engine replica (eval/lane_backend.hpp): one
            // pass per group of up to group_lanes() consecutive trace
            // indices.
            return run_sharded_blocks_checkpointed(
                pool, plan,
                [&] {
                    auto worker = std::make_unique<LaneWorker>(
                        circuit_.nl, dm_, pass_lanes, clock_);
                    worker->attach_sinks(circuit_.nl, power_config,
                                         probe_plan);
                    return worker;
                },
                make_acc,
                [&](auto& worker, std::size_t begin, std::size_t end,
                    GadgetBlockAcc& acc) {
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
                        std::array<
                            std::array<std::uint64_t, sim::kMaxLaneChunks>,
                            3>
                            fresh_words{};
                        for (unsigned lane = 0; lane < count; ++lane) {
                            const GadgetStimulus stim = gadget_stimulus(
                                fresh, config.seed, group + lane);
                            const unsigned c = lane / 64u;
                            const std::uint64_t bit = std::uint64_t{1}
                                                      << (lane % 64u);
                            if (stim.fixed) fixed[c] |= bit;
                            for (std::size_t i = 0; i < 4; ++i)
                                if (stim.shares[i]) share_words[i][c] |= bit;
                            for (unsigned i = 0; i < fresh; ++i)
                                if (stim.fresh[i]) fresh_words[i][c] |= bit;
                        }

                        auto& s = worker->sim;
                        s.restart();
                        worker->begin_group(kCycles, fixed.data(), count,
                                            &acc.attr);
                        for (unsigned c = 0; c < s.chunks(); ++c) {
                            s.set_input_word(circuit_.x_in.s0, c,
                                             share_words[0][c]);
                            s.set_input_word(circuit_.x_in.s1, c,
                                             share_words[1][c]);
                            s.set_input_word(circuit_.y_in.s0, c,
                                             share_words[2][c]);
                            s.set_input_word(circuit_.y_in.s1, c,
                                             share_words[3][c]);
                            for (unsigned i = 0; i < fresh; ++i)
                                s.set_input_word(circuit_.rand_in[i], c,
                                                 fresh_words[i][c]);
                        }
                        s.step();
                        s.set_enable(1, true);
                        s.step();
                        s.set_enable(1, false);
                        if (circuit_.has_stage2) s.set_enable(2, true);
                        s.step();
                        if (circuit_.has_stage2) s.set_enable(2, false);
                        s.step();
                        phases.lap(telemetry::Counter::kPhaseSimNanos);

                        // Fused fold, chunk by chunk (chunk c == traces
                        // group+64c .. group+64c+63): each lane's noisy
                        // row streams straight into the moment bank,
                        // noise in the scalar path's per-trace bin
                        // order, lanes in lane order -- the same addend
                        // sequence per accumulator either way.
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

        struct Worker {
            sim::ClockedSim sim;
            power::PowerRecorder recorder;
            std::optional<leakage::AttributionProbe> probe;
            std::vector<double> noisy;
            telemetry::SimStats last_stats;
            Worker(const netlist::Netlist& nl, const sim::DelayModel& dm,
                   sim::ClockConfig clock, power::PowerConfig power_config,
                   const leakage::AttributionPlan* attr)
                : sim(nl, dm, clock), recorder(nl, power_config) {
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
                return std::make_unique<Worker>(circuit_.nl, dm_, clock_,
                                                power_config, probe_plan);
            },
            make_acc,
            [&](std::unique_ptr<Worker>& worker, std::size_t begin,
                std::size_t end, GadgetBlockAcc& acc) {
                telemetry::PhaseClock phases;
                phases.mark();
                for (std::size_t trace_index = begin; trace_index < end;
                     ++trace_index) {
                    const GadgetStimulus stim =
                        gadget_stimulus(fresh, config.seed, trace_index);
                    Xoshiro256 noise_rng =
                        trace_rng(config.seed, kNoiseStream, trace_index);

                    worker->sim.restart();
                    worker->recorder.begin_trace(kCycles);
                    if (worker->probe) worker->probe->begin_trace();
                    drive(worker->sim, stim);
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

    GadgetTvlaResult result;
    result.gadget = circuit_.kind;
    result.max_abs_t1 = merged.bank.max_abs_t(1, &result.argmax_cycle);
    result.max_abs_t2 = merged.bank.max_abs_t(2);
    result.leaks_first_order = result.max_abs_t1 > leakage::kTvlaThreshold;
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

GadgetTvlaResult run_gadget_tvla(const GadgetTvlaConfig& config) {
    const GadgetHarness harness(config.gadget, config.replicas,
                                config.placement_seed);
    ThreadPool pool(resolve_workers(config.workers));
    return harness.run(config, pool);
}

}  // namespace glitchmask::eval
