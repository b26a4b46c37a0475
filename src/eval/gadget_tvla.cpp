#include "eval/gadget_tvla.hpp"

#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/sharing.hpp"
#include "eval/parallel_campaign.hpp"
#include "eval/trace_campaign.hpp"
#include "leakage/tvla.hpp"
#include "support/simd.hpp"

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
    if (fresh_bits > kMaxFreshBits)
        throw std::invalid_argument("gadget_stimulus: too many fresh bits");
    Xoshiro256 rng = trace_rng(seed, kStimulusStream, trace_index);
    GadgetStimulus stim;
    stim.fixed = rng.bit();
    const bool x = stim.fixed ? true : rng.bit();
    const bool y = stim.fixed ? true : rng.bit();
    const core::MaskedBit mx = core::mask_bit(x, rng);
    const core::MaskedBit my = core::mask_bit(y, rng);
    stim.shares = {mx.s0, mx.s1, my.s0, my.s1};
    for (unsigned i = 0; i < fresh_bits; ++i) stim.fresh[i] = rng.bit();
    return stim;
}

void pack_gadget_stimulus(unsigned fresh_bits, std::uint64_t seed,
                          std::size_t first, unsigned count,
                          std::span<LaneWords> words, LaneWords& fixed) {
    if (fresh_bits > kMaxFreshBits || words.size() < 4 + fresh_bits ||
        count > sim::kMaxLaneChunks * 64u)
        throw std::invalid_argument("pack_gadget_stimulus: bad shape");
#if defined(GLITCHMASK_HAVE_AVX512)
    if (support::active_simd_level() >= support::SimdLevel::kAvx512) {
        pack_gadget_stimulus_avx512(fresh_bits, mix64(seed, kStimulusStream),
                                    first, count, words, fixed);
        return;
    }
#endif
    for (unsigned lane = 0; lane < count; ++lane) {
        const GadgetStimulus stim =
            gadget_stimulus(fresh_bits, seed, first + lane);
        if (stim.fixed) set_lane(fixed, lane);
        for (std::size_t i = 0; i < 4; ++i)
            if (stim.shares[i]) set_lane(words[i], lane);
        for (unsigned i = 0; i < fresh_bits; ++i)
            if (stim.fresh[i]) set_lane(words[4 + i], lane);
    }
}

void load_gadget_lanes(LaneGroup& group,
                       std::span<const netlist::NetId> inputs,
                       std::uint64_t seed) {
    const unsigned fresh_bits = static_cast<unsigned>(inputs.size() - 4);
    std::array<LaneWords, 4 + kMaxFreshBits> words{};
    pack_gadget_stimulus(fresh_bits, seed, group.first, group.count,
                         std::span<LaneWords>(words.data(), inputs.size()),
                         group.fixed);
    group.start();
    for (unsigned c = 0; c < group.sim.chunks(); ++c)
        for (std::size_t i = 0; i < inputs.size(); ++i)
            group.sim.set_input_word(inputs[i], c, words[i][c]);
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

/// The zoo's schedule once the inputs are applied: load, enable stage 1,
/// stage 2 (gadgets that have one), settle.
template <class Sim>
void run_gadget_schedule(Sim& s, bool has_stage2) {
    s.step();
    s.set_enable(1, true);
    s.step();
    s.set_enable(1, false);
    if (has_stage2) s.set_enable(2, true);
    s.step();
    if (has_stage2) s.set_enable(2, false);
    s.step();
}

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
      dm_(circuit_.nl, placement_delay_config(placement_seed)) {
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
    run_gadget_schedule(s, circuit_.has_stage2);
}

GadgetTvlaResult GadgetHarness::run(const GadgetTvlaConfig& config,
                                    ThreadPool& pool) const {
    const unsigned fresh = fresh_bits();
    const std::uint64_t seed = config.seed;
    // Input order of load_gadget_lanes.
    std::vector<netlist::NetId> inputs = {circuit_.x_in.s0, circuit_.x_in.s1,
                                          circuit_.y_in.s0, circuit_.y_in.s1};
    inputs.insert(inputs.end(), circuit_.rand_in.begin(),
                  circuit_.rand_in.end());
    const Workload workload{
        .nl = circuit_.nl,
        .dm = dm_,
        .clock = clock_,
        .bins = kCycles,
        .tag = std::string("gadget_") + gadget_name(circuit_.kind),
        .fingerprint = gadget_fingerprint(config),
        .fold = {.max_test_order = config.max_test_order,
                 .noise_sigma = config.noise_sigma},
        .drive_lanes =
            [&](LaneGroup& group) {
                load_gadget_lanes(group, inputs, seed);
                run_gadget_schedule(group.sim, circuit_.has_stage2);
            },
        .drive_trace =
            [&](sim::ClockedSim& s, std::size_t trace_index) {
                const GadgetStimulus stim =
                    gadget_stimulus(fresh, seed, trace_index);
                drive(s, stim);
                return stim.fixed;
            },
    };
    TraceCampaignResult campaign = run_trace_campaign(
        workload, {config.traces, config.block_size, seed, config.lanes},
        config.run, pool);

    GadgetTvlaResult result;
    result.gadget = circuit_.kind;
    result.max_abs_t1 = campaign.max_abs_t[1];
    result.argmax_cycle = campaign.argmax[1];
    result.max_abs_t2 = campaign.max_abs_t[2];
    result.leaks_first_order = result.max_abs_t1 > leakage::kTvlaThreshold;
    static_cast<CampaignSummary&>(result) = std::move(campaign);
    return result;
}

GadgetTvlaResult run_gadget_tvla(const GadgetTvlaConfig& config) {
    const GadgetHarness harness(config.gadget, config.replicas,
                                config.placement_seed);
    ThreadPool pool(resolve_workers(config.workers));
    return harness.run(config, pool);
}

}  // namespace glitchmask::eval
