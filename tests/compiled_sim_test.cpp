// Exact-equivalence harness for the compiled lane engine past one chunk.
//
// The contract is the same as batch_sim_test.cpp's, one level wider: every
// lane of a CompiledClockedSim pass (here 128 lanes = 2 chunks, so the
// multi-chunk data path is exercised) must commit exactly the toggle
// stream, power trace and toggle count of a scalar EventSimulator run of
// that lane's stimulus -- with inertial filtering on and off, and with
// energy coupling on where the gadget has coupled pairs.  On top of the
// engine-level checks, the campaign drivers must be bit-identical across
// lane widths (TVLA t-curves, attribution rankings), a checkpoint must
// resume bit-identically across scalar <-> 64 <-> 512 lanes, and the
// process-wide program cache must actually share programs.  The shared
// schedule's exact counters are pinned, and the engine's batched commit
// delivery must hand every lane its commits in scalar order.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/circuits.hpp"
#include "core/gadgets.hpp"
#include "des/masked_des.hpp"
#include "eval/des_experiments.hpp"
#include "eval/gadget_tvla.hpp"
#include "eval/parallel_campaign.hpp"
#include "leakage/attribution.hpp"
#include "power/batch_power.hpp"
#include "power/power_model.hpp"
#include "sim/clocked.hpp"
#include "sim/compiled_simulator.hpp"
#include "sim/simulator.hpp"
#include "support/atomic_file.hpp"
#include "support/cancel.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace glitchmask {
namespace {

using core::SharedNet;
using netlist::NetId;
using sim::TimePs;

constexpr unsigned kLanes = 128;  // 2 chunks: cross-chunk wiring in play
constexpr unsigned kChunks = kLanes / 64u;

struct ToggleRec {
    NetId net;
    TimePs time;
    bool value;

    bool operator==(const ToggleRec&) const = default;
};

/// Records the scalar commit stream while forwarding to a power recorder.
class ScalarTee final : public sim::ToggleSink {
public:
    explicit ScalarTee(sim::ToggleSink* next = nullptr) : next_(next) {}
    void on_toggle(NetId net, TimePs time, bool value) override {
        records.push_back({net, time, value});
        if (next_ != nullptr) next_->on_toggle(net, time, value);
    }
    std::vector<ToggleRec> records;

private:
    sim::ToggleSink* next_;
};

/// Records one chunk's commit stream while forwarding to its recorder.
class ChunkTee final : public sim::BatchToggleSink {
public:
    explicit ChunkTee(sim::BatchToggleSink* next = nullptr) : next_(next) {}
    void on_toggle(NetId net, TimePs time, std::uint64_t values,
                   std::uint64_t toggled) override {
        records.push_back({net, time, values, toggled});
        if (next_ != nullptr) next_->on_toggle(net, time, values, toggled);
    }
    // The engine delivers batches; passing them (and the partner table)
    // through keeps the recorder's coupling words those of commit time.
    void on_toggles(std::span<const sim::ToggleEntry> batch) override {
        for (const sim::ToggleEntry& e : batch)
            records.push_back({e.net, e.time, e.values, e.toggled});
        if (next_ != nullptr) next_->on_toggles(batch);
    }
    [[nodiscard]] const NetId* coupling_partners() const noexcept override {
        return next_ != nullptr ? next_->coupling_partners() : nullptr;
    }

    /// The chunk stream restricted to one lane (0..63), in commit order.
    [[nodiscard]] std::vector<ToggleRec> lane(unsigned l) const {
        std::vector<ToggleRec> out;
        for (const auto& rec : records)
            if (((rec.toggled >> l) & 1u) != 0)
                out.push_back({rec.net, rec.time, ((rec.values >> l) & 1u) != 0});
        return out;
    }

    struct Rec {
        NetId net;
        TimePs time;
        std::uint64_t values;
        std::uint64_t toggled;
    };
    std::vector<Rec> records;

private:
    sim::BatchToggleSink* next_;
};

unsigned fresh_bits(eval::GadgetKind kind) {
    return eval::gadget_fresh_bits(kind);
}

struct Harness {
    core::Netlist nl;
    SharedNet x_in{}, y_in{};
    std::vector<NetId> rand_in;
};

/// Same structure as the gadget-zoo bench: registered shared inputs and
/// registered fresh bits feeding `replicas` gadget instances.
Harness build(eval::GadgetKind kind, unsigned replicas) {
    Harness h;
    h.x_in = core::shared_input(h.nl, "x");
    h.y_in = core::shared_input(h.nl, "y");
    for (unsigned i = 0; i < fresh_bits(kind); ++i)
        h.rand_in.push_back(h.nl.input("r" + std::to_string(i)));
    const SharedNet x = core::reg_shares(h.nl, h.x_in, 1);
    const SharedNet y = core::reg_shares(h.nl, h.y_in, 1);
    std::vector<NetId> rand_regs;
    for (const NetId r : h.rand_in) rand_regs.push_back(h.nl.dff(r, 1));

    for (unsigned k = 0; k < replicas; ++k) {
        const std::string name = "g" + std::to_string(k);
        switch (kind) {
            case eval::GadgetKind::Naive:
                (void)core::secand2(h.nl, x, y, name);
                break;
            case eval::GadgetKind::Ff:
                (void)core::secand2_ff(h.nl, x, y, 2, 3, name);
                break;
            case eval::GadgetKind::Pd:
                (void)core::secand2_pd(h.nl, x, y, {10, true}, name);
                break;
            case eval::GadgetKind::Trichina:
                (void)core::trichina_and(h.nl, x, y, rand_regs[0], name);
                break;
            case eval::GadgetKind::DomIndep:
                (void)core::dom_and_indep(h.nl, x, y, rand_regs[0], 2, name);
                break;
            case eval::GadgetKind::DomDep:
                (void)core::dom_and_dep(h.nl, x, y, rand_regs[0], rand_regs[1],
                                        rand_regs[2], 2, name);
                break;
        }
    }
    h.nl.freeze();
    return h;
}

std::vector<NetId> all_inputs(const Harness& h) {
    std::vector<NetId> nets{h.x_in.s0, h.x_in.s1, h.y_in.s0, h.y_in.s1};
    nets.insert(nets.end(), h.rand_in.begin(), h.rand_in.end());
    return nets;
}

/// The zoo's drive schedule, against either clocked driver.
template <typename Sim>
void run_schedule(Sim& sim, bool has_stage2) {
    sim.step();
    sim.set_enable(1, true);
    sim.step();
    sim.set_enable(1, false);
    if (has_stage2) sim.set_enable(2, true);
    sim.step();
    if (has_stage2) sim.set_enable(2, false);
    sim.step();
    sim.step();
}

constexpr std::size_t kCycles = 5;
constexpr TimePs kPeriod = 90000;

/// `probed` puts a BatchAttributionProbe between each chunk's tee and
/// its recorder, the sink chain campaigns build with attribution on.
void expect_compiled_equivalence(eval::GadgetKind kind, bool inertial,
                                 double epsilon, bool probed = false) {
    SCOPED_TRACE(std::string(eval::gadget_name(kind)) +
                 (inertial ? " inertial" : " transport") +
                 (epsilon != 0.0 ? " coupled" : "") +
                 (probed ? " probed" : ""));
    Harness h = build(kind, 4);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    const sim::ClockConfig clock{kPeriod};
    const sim::SimOptions options{inertial, 1.0};
    const power::PowerConfig power_config{.coupling_epsilon = epsilon,
                                          .bin_ps = kPeriod};
    const bool has_stage2 = h.nl.max_ctrl_group() >= 2;
    const std::vector<NetId> inputs = all_inputs(h);

    // Per-lane random stimulus.
    Xoshiro256 rng(4321 + static_cast<std::uint64_t>(kind));
    std::vector<std::vector<bool>> stim(kLanes);
    for (auto& lane_bits : stim)
        for (std::size_t i = 0; i < inputs.size(); ++i)
            lane_bits.push_back(rng.bit());

    // kLanes scalar reference runs.
    std::vector<std::vector<ToggleRec>> scalar_stream(kLanes);
    std::vector<std::vector<double>> scalar_trace(kLanes);
    std::vector<std::uint64_t> scalar_toggles(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        sim::ClockedSim sim(h.nl, dm, clock, {}, options);
        power::PowerRecorder recorder(h.nl, power_config);
        recorder.attach(&sim.engine());
        ScalarTee tee(&recorder);
        sim.engine().set_sink(&tee);
        recorder.begin_trace(kCycles);
        for (std::size_t i = 0; i < inputs.size(); ++i)
            sim.set_input(inputs[i], stim[lane][i]);
        run_schedule(sim, has_stage2);
        scalar_stream[lane] = std::move(tee.records);
        scalar_trace[lane] = recorder.trace();
        scalar_toggles[lane] = recorder.trace_toggles();
    }

    // One compiled 128-lane pass (per-chunk sinks, like the drivers).
    sim::CompiledClockedSim wide(h.nl, dm, kLanes, clock, {}, options);
    std::vector<power::BatchPowerRecorder> recorders;
    std::vector<ChunkTee> tees(kChunks);
    recorders.reserve(kChunks);
    for (unsigned c = 0; c < kChunks; ++c) {
        recorders.emplace_back(h.nl, power_config);
        recorders.back().attach(wide.chunk_view(c));
    }
    const leakage::AttributionPlan plan(h.nl, kCycles, kPeriod);
    leakage::AttributionAccumulator acc(plan.points());
    std::vector<leakage::BatchAttributionProbe> probes;
    probes.reserve(kChunks);
    for (unsigned c = 0; c < kChunks; ++c) {
        probes.emplace_back(plan, &recorders[c]);
        probes.back().begin_group(0, 64, acc);
    }
    for (unsigned c = 0; c < kChunks; ++c) {
        tees[c] = ChunkTee(probed ? static_cast<sim::BatchToggleSink*>(&probes[c])
                                  : &recorders[c]);
        wide.set_sink(c, &tees[c]);
        recorders[c].begin_trace(kCycles);
    }
    for (std::size_t i = 0; i < inputs.size(); ++i)
        for (unsigned c = 0; c < kChunks; ++c) {
            std::uint64_t word = 0;
            for (unsigned l = 0; l < 64; ++l)
                if (stim[c * 64u + l][i]) word |= std::uint64_t{1} << l;
            wide.set_input_word(inputs[i], c, word);
        }
    run_schedule(wide, has_stage2);

    std::vector<double> lane_trace;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        SCOPED_TRACE("lane " + std::to_string(lane));
        const unsigned c = lane / 64u;
        const unsigned l = lane % 64u;
        EXPECT_EQ(tees[c].lane(l), scalar_stream[lane]);
        EXPECT_EQ(recorders[c].lane_toggles(l), scalar_toggles[lane]);
        recorders[c].lane_trace_into(l, lane_trace);
        ASSERT_EQ(lane_trace.size(), scalar_trace[lane].size());
        for (std::size_t bin = 0; bin < lane_trace.size(); ++bin)
            EXPECT_EQ(lane_trace[bin], scalar_trace[lane][bin]) << "bin " << bin;
    }
}

TEST(CompiledSim, ZooEquivalenceInertial) {
    for (const eval::GadgetKind kind : eval::kAllGadgets)
        expect_compiled_equivalence(kind, true, 0.0);
}

TEST(CompiledSim, ZooEquivalenceTransportDelay) {
    for (const eval::GadgetKind kind : eval::kAllGadgets)
        expect_compiled_equivalence(kind, false, 0.0);
}

TEST(CompiledSim, EnergyCouplingEquivalence) {
    // secAND2-PD registers its delay chains as coupled pairs; the Miller
    // energy term must pick the per-lane neighbour level from the
    // compiled engine's chunk view.
    expect_compiled_equivalence(eval::GadgetKind::Pd, true, 0.25);
}

TEST(CompiledSim, EnergyCouplingEquivalenceBehindAttributionProbe) {
    // Campaigns with attribution on put the probe in front of the
    // recorder: the partner table must reach the engine through it, or
    // every entry carries partner word 0 and the Miller terms drift.
    expect_compiled_equivalence(eval::GadgetKind::Pd, true, 0.25,
                                /*probed=*/true);
}

TEST(CompiledSim, GadgetCampaignWithAttributionBitIdentical) {
    // Driver-level identity on the attribution engine's primary workload:
    // the full TVLA statistics AND the per-net attribution report (ranked
    // nets, |t| heatmap, glitch matrix -- compared with operator==, i.e.
    // exact doubles) must not depend on the lane width.
    eval::GadgetTvlaConfig config;
    config.gadget = eval::GadgetKind::Trichina;
    config.replicas = 8;
    config.traces = 640;
    config.noise_sigma = 0.5;
    config.seed = 11;
    config.workers = 1;
    config.block_size = 128;
    config.run.attribution = true;

    config.lanes = 64;
    const eval::GadgetTvlaResult narrow = eval::run_gadget_tvla(config);

    config.lanes = 256;
    const eval::GadgetTvlaResult compiled = eval::run_gadget_tvla(config);

    EXPECT_EQ(narrow.max_abs_t1, compiled.max_abs_t1);
    EXPECT_EQ(narrow.max_abs_t2, compiled.max_abs_t2);
    EXPECT_EQ(narrow.argmax_cycle, compiled.argmax_cycle);
    EXPECT_EQ(narrow.leaks_first_order, compiled.leaks_first_order);
    EXPECT_EQ(narrow.attribution, compiled.attribution);
    ASSERT_TRUE(compiled.attribution.enabled);
    ASSERT_FALSE(compiled.attribution.ranked.empty());
    EXPECT_GT(compiled.attribution.ranked.front().max_abs_t, 0.0);  // not vacuous
}

TEST(CompiledSim, DesTvlaMatchesScalarBitForBit) {
    // The headline workload: a (small) DES TVLA campaign through the
    // compiled lane engine against the scalar event path, exact t-curve
    // equality at every order -- including a partial final group
    // (96 % 512 != 0, so the wide pass runs with dead lanes masked).
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    eval::DesTvlaConfig config;
    config.traces = 96;
    config.seed = 23;
    config.workers = 1;
    config.block_size = 48;

    config.lanes = 1;
    const eval::DesTvlaResult scalar = eval::run_des_tvla(core, config);

    config.lanes = 512;
    const eval::DesTvlaResult compiled = eval::run_des_tvla(core, config);

    EXPECT_EQ(scalar.toggles, compiled.toggles);
    for (int order = 1; order <= 3; ++order) {
        const std::vector<double> ts = scalar.campaign.t_curve(order);
        const std::vector<double> tc = compiled.campaign.t_curve(order);
        ASSERT_EQ(ts.size(), tc.size());
        for (std::size_t i = 0; i < ts.size(); ++i)
            EXPECT_EQ(ts[i], tc[i]) << "order " << order << " sample " << i;
    }
}

TEST(CompiledSim, ResumeAcrossLaneWidthsIsBitIdentical) {
    // Lane width is not part of the campaign fingerprint: a checkpoint
    // written on the scalar path resumes on 64 lanes, a 64-lane one on
    // 512, and a 512-lane one back on the scalar path -- each finishing
    // with exactly the statistics of an uninterrupted run.
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path =
        ::testing::TempDir() + "glitchmask_lane_resume.gmsnap";

    auto base_config = [&path](unsigned lanes) {
        eval::DesTvlaConfig config;
        config.traces = 96;
        config.seed = 23;
        config.block_size = 32;
        config.lanes = lanes;
        config.workers = 1;
        config.run.checkpoint_path = path;
        config.run.checkpoint_every = 1;
        return config;
    };

    std::remove(path.c_str());
    eval::DesTvlaConfig plain = base_config(64);
    plain.run.checkpoint_path.clear();
    const eval::DesTvlaResult reference = eval::run_des_tvla(core, plain);

    for (const auto& [first, second] :
         {std::pair<unsigned, unsigned>{1, 64}, {64, 512}, {512, 1}}) {
        SCOPED_TRACE(std::to_string(first) + " -> " +
                     std::to_string(second) + " lanes");
        std::remove(path.c_str());
        CancelToken token;
        eval::DesTvlaConfig cfg = base_config(first);
        cfg.run.cancel = &token;
        cfg.run.on_checkpoint = [&token](std::size_t completed_blocks) {
            if (completed_blocks >= 1) token.request();
        };
        const eval::DesTvlaResult partial = eval::run_des_tvla(core, cfg);
        ASSERT_TRUE(partial.progress.cancelled);
        ASSERT_LT(partial.progress.completed_traces, cfg.traces);
        ASSERT_TRUE(read_file_if_exists(path).has_value());

        const eval::DesTvlaResult resumed =
            eval::run_des_tvla(core, base_config(second));
        EXPECT_TRUE(resumed.progress.resumed);
        EXPECT_EQ(resumed.progress.completed_traces, cfg.traces);
        EXPECT_EQ(resumed.toggles, reference.toggles);
        for (int order = 1; order <= 3; ++order) {
            const std::vector<double> tr = reference.campaign.t_curve(order);
            const std::vector<double> tc = resumed.campaign.t_curve(order);
            ASSERT_EQ(tr.size(), tc.size());
            for (std::size_t i = 0; i < tr.size(); ++i)
                ASSERT_EQ(tr[i], tc[i]) << "order " << order << " sample " << i;
        }
    }
    std::remove(path.c_str());
}

TEST(CompiledSim, ProgramCacheSharesCompiledPrograms) {
    // Two engines over the same (netlist, delay model, options) triple
    // must share one immutable program through the process-wide registry;
    // a different SimOptions compiles a distinct program, and a program
    // dies with its last engine.
    Harness h = build(eval::GadgetKind::Trichina, 4);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    const sim::ClockConfig clock{kPeriod};

    sim::clear_compiled_program_cache();
    const sim::CompiledCacheStats before = sim::compiled_program_cache_stats();
    ASSERT_EQ(before.entries, 0u);

    sim::CompiledClockedSim a(h.nl, dm, 64, clock);
    sim::CompiledClockedSim b(h.nl, dm, 512, clock);  // width is not a key
    EXPECT_EQ(a.program().get(), b.program().get());

    sim::CompiledClockedSim c(h.nl, dm, 64, clock, {},
                              sim::SimOptions{false, 1.0});  // transport mode
    EXPECT_NE(a.program().get(), c.program().get());

    const sim::CompiledCacheStats after = sim::compiled_program_cache_stats();
    EXPECT_EQ(after.entries, 2u);
    EXPECT_EQ(after.misses, before.misses + 2);
    EXPECT_GE(after.hits, before.hits + 1);

    std::weak_ptr<const sim::CompiledProgram> gone;
    {
        sim::CompiledClockedSim d(h.nl, dm, 64, clock, {},
                                  sim::SimOptions{true, 0.5});
        gone = d.program();
        EXPECT_EQ(sim::compiled_program_cache_stats().entries, 3u);
    }
    EXPECT_TRUE(gone.expired());
    EXPECT_EQ(sim::compiled_program_cache_stats().entries, 2u);
}

// ----- pinned schedules -------------------------------------------------

constexpr std::uint64_t kPinSeed = 0x5eed5ced;

/// Seed-fixed per-lane stimulus bits for the zoo harness's inputs.
std::vector<std::vector<bool>> zoo_stimulus(const Harness& h, unsigned lanes) {
    const std::size_t inputs = all_inputs(h).size();
    Xoshiro256 rng(kPinSeed);
    std::vector<std::vector<bool>> stim(lanes);
    for (auto& lane_bits : stim)
        for (std::size_t i = 0; i < inputs; ++i) lane_bits.push_back(rng.bit());
    return stim;
}

/// One zoo pass of `lanes` lanes over `stim`; `sink` (may be null) is
/// attached to every chunk.
telemetry::SimStats run_zoo_lanes(const Harness& h, const sim::DelayModel& dm,
                                  unsigned lanes,
                                  const std::vector<std::vector<bool>>& stim,
                                  sim::BatchToggleSink* const* sinks) {
    sim::CompiledClockedSim wide(h.nl, dm, lanes, sim::ClockConfig{kPeriod});
    if (sinks != nullptr)
        for (unsigned c = 0; c < wide.chunks(); ++c) wide.set_sink(c, sinks[c]);
    const std::vector<NetId> inputs = all_inputs(h);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        for (unsigned c = 0; c < wide.chunks(); ++c) {
            std::uint64_t word = 0;
            for (unsigned l = 0; l < 64; ++l)
                if (stim[c * 64u + l][i]) word |= std::uint64_t{1} << l;
            wide.set_input_word(inputs[i], c, word);
        }
    run_schedule(wide, h.nl.max_ctrl_group() >= 2);
    return wide.stats();
}

/// Seed-fixed DES group: per-lane masked plaintext and key plus the
/// generator that continues into the round refresh bits.
struct DesLanes {
    std::vector<core::MaskedWord> pts, keys;
    std::vector<Xoshiro256> prngs;
};

DesLanes des_lanes(unsigned lanes) {
    DesLanes d;
    for (unsigned lane = 0; lane < lanes; ++lane) {
        Xoshiro256 rng = eval::trace_rng(kPinSeed, eval::kStimulusStream, lane);
        const std::uint64_t pt = rng();
        d.pts.push_back(core::mask_word(pt, 64, rng));
        d.keys.push_back(core::mask_word(0x133457799BBCDFF1ull, 64, rng));
        d.prngs.push_back(rng);
    }
    return d;
}

telemetry::SimStats run_des_lanes(const des::MaskedDesCore& core,
                                  const sim::DelayModel& dm, unsigned lanes,
                                  sim::BatchToggleSink* const* sinks) {
    sim::CompiledClockedSim wide(core.nl(), dm, lanes,
                                 sim::ClockConfig{core.recommended_period()});
    if (sinks != nullptr)
        for (unsigned c = 0; c < wide.chunks(); ++c) wide.set_sink(c, sinks[c]);
    DesLanes d = des_lanes(lanes);
    (void)core.encrypt_batch_chunks(wide, std::span<const core::MaskedWord>(d.pts),
                                    std::span<const core::MaskedWord>(d.keys),
                                    std::span<Xoshiro256>(d.prngs));
    return wide.stats();
}

struct PinnedStats {
    std::uint64_t events, toggles, glitches, inertial_cancels, queue_peak;
};

void expect_stats(const telemetry::SimStats& got, const PinnedStats& want) {
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.toggles, want.toggles);
    EXPECT_EQ(got.glitches, want.glitches);
    EXPECT_EQ(got.inertial_cancels, want.inertial_cancels);
    EXPECT_EQ(got.queue_peak, want.queue_peak);
}

TEST(CompiledSim, ScheduleCountersArePinned) {
    // The shared schedule's exact counters on seed-fixed stimulus: one
    // DES group and the six-gadget zoo, at 64 and 512 lanes.  Literals
    // recorded before the batched-delivery / flat-ring rework of the
    // engine's hot path; any change to event order, scheduling or
    // inertial filtering moves them.
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const sim::DelayModel des_dm(core.nl(), sim::DelayConfig::spartan6());
    const PinnedStats des_want[2] = {
        {1599201, 9416324, 3264429, 254944, 3119},
        {3175190, 75362633, 26142384, 2035075, 9538}};
    const unsigned widths[2] = {64, 512};
    for (int w = 0; w < 2; ++w) {
        SCOPED_TRACE("DES " + std::to_string(widths[w]) + " lanes");
        expect_stats(run_des_lanes(core, des_dm, widths[w], nullptr),
                     des_want[w]);
    }
    // kAllGadgets order: naive, FF, PD, Trichina, DOM-indep, DOM-dep.
    const PinnedStats zoo_want[6][2] = {
        {{53, 620, 61, 0, 24}, {109, 4876, 449, 0, 32}},
        {{60, 648, 0, 0, 20}, {116, 5142, 0, 0, 32}},
        {{372, 5560, 0, 0, 20}, {428, 44758, 0, 0, 32}},
        {{175, 1654, 325, 36, 36}, {245, 12832, 2503, 263, 40}},
        {{167, 1724, 105, 23, 40}, {237, 13184, 695, 301, 40}},
        {{261, 2904, 180, 84, 40}, {359, 23494, 1387, 649, 56}}};
    int k = 0;
    for (const eval::GadgetKind kind : eval::kAllGadgets) {
        const Harness h = build(kind, 4);
        const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
        for (int w = 0; w < 2; ++w) {
            SCOPED_TRACE(std::string(eval::gadget_name(kind)) + " " +
                         std::to_string(widths[w]) + " lanes");
            expect_stats(run_zoo_lanes(h, dm, widths[w],
                                       zoo_stimulus(h, widths[w]), nullptr),
                         zoo_want[k][w]);
        }
        ++k;
    }
}


// ----- deferred delivery --------------------------------------------------

/// Per-lane order-sensitive fold (FNV-1a) and length of the committed
/// (net, time, value) stream.
struct LaneStreams {
    std::vector<std::uint64_t> hash;
    std::vector<std::uint64_t> count;

    explicit LaneStreams(unsigned lanes)
        : hash(lanes, 0xcbf29ce484222325ull), count(lanes, 0) {}

    void add(unsigned lane, NetId net, TimePs time, bool value) {
        std::uint64_t h = hash[lane];
        for (const std::uint64_t word :
             {std::uint64_t{net}, std::uint64_t{time}, std::uint64_t{value}})
            for (unsigned b = 0; b < 8; ++b)
                h = (h ^ ((word >> (8 * b)) & 0xFFu)) * 0x100000001b3ull;
        hash[lane] = h;
        ++count[lane];
    }
};

/// Folds one chunk's stream per lane.  Overrides only on_toggle(): the
/// engine's batches reach it through the default on_toggles().
class LaneOrderSink final : public sim::BatchToggleSink {
public:
    LaneOrderSink(LaneStreams& streams, unsigned chunk)
        : streams_(&streams), chunk_(chunk) {}
    void on_toggle(NetId net, TimePs time, std::uint64_t values,
                   std::uint64_t toggled) override {
        for (std::uint64_t rest = toggled; rest != 0; rest &= rest - 1) {
            const unsigned l = static_cast<unsigned>(std::countr_zero(rest));
            streams_->add(chunk_ * 64u + l, net, time, ((values >> l) & 1u) != 0);
        }
    }

private:
    LaneStreams* streams_;
    unsigned chunk_;
};

/// Counts the batch sizes the engine hands over, then passes each batch
/// on unchanged.
class BatchSizeProbe final : public sim::BatchToggleSink {
public:
    explicit BatchSizeProbe(sim::BatchToggleSink& next) : next_(&next) {}
    void on_toggle(NetId net, TimePs time, std::uint64_t values,
                   std::uint64_t toggled) override {
        next_->on_toggle(net, time, values, toggled);
    }
    void on_toggles(std::span<const sim::ToggleEntry> batch) override {
        ++(batch.size() == sim::kToggleBatch ? full : partial);
        next_->on_toggles(batch);
    }
    unsigned full = 0;
    unsigned partial = 0;

private:
    sim::BatchToggleSink* next_;
};

/// The scalar reference: one lane's stream into the same fold.
class ScalarOrderSink final : public sim::ToggleSink {
public:
    ScalarOrderSink(LaneStreams& streams, unsigned lane)
        : streams_(&streams), lane_(lane) {}
    void on_toggle(NetId net, TimePs time, bool value) override {
        streams_->add(lane_, net, time, value);
    }

private:
    LaneStreams* streams_;
    unsigned lane_;
};

void expect_same_streams(const LaneStreams& batched, const LaneStreams& scalar) {
    for (std::size_t lane = 0; lane < scalar.hash.size(); ++lane) {
        EXPECT_EQ(batched.count[lane], scalar.count[lane]) << "lane " << lane;
        EXPECT_EQ(batched.hash[lane], scalar.hash[lane]) << "lane " << lane;
    }
}

TEST(CompiledSim, DeferredDeliveryKeepsEachLanesCommitOrder) {
    // The engine buffers commits and hands them over in batches: when a
    // chunk's buffer fills mid-step and at every run_until boundary.  A
    // sink that only implements on_toggle() must still see, per lane,
    // exactly the (net, time, value) sequence of a scalar EventSimulator
    // run of that lane's stimulus.
    constexpr unsigned kOrderLanes = 64;
    for (const eval::GadgetKind kind : eval::kAllGadgets) {
        SCOPED_TRACE(eval::gadget_name(kind));
        const Harness h = build(kind, 4);
        const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
        const std::vector<std::vector<bool>> stim = zoo_stimulus(h, kOrderLanes);
        LaneStreams batched(kOrderLanes);
        LaneOrderSink sink(batched, 0);
        sim::BatchToggleSink* sinks[1] = {&sink};
        (void)run_zoo_lanes(h, dm, kOrderLanes, stim, sinks);

        LaneStreams scalar(kOrderLanes);
        const std::vector<NetId> inputs = all_inputs(h);
        for (unsigned lane = 0; lane < kOrderLanes; ++lane) {
            sim::ClockedSim sim(h.nl, dm, sim::ClockConfig{kPeriod});
            ScalarOrderSink tee(scalar, lane);
            sim.engine().set_sink(&tee);
            for (std::size_t i = 0; i < inputs.size(); ++i)
                sim.set_input(inputs[i], stim[lane][i]);
            run_schedule(sim, h.nl.max_ctrl_group() >= 2);
        }
        expect_same_streams(batched, scalar);
    }

    // One DES group: thousands of commits per clock cycle, so buffers
    // fill mid-step, and each step's run_until flushes a partial one.
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const sim::DelayModel dm(core.nl(), sim::DelayConfig::spartan6());
    LaneStreams batched(kOrderLanes);
    LaneOrderSink sink(batched, 0);
    BatchSizeProbe sizes(sink);
    sim::BatchToggleSink* sinks[1] = {&sizes};
    (void)run_des_lanes(core, dm, kOrderLanes, sinks);
    EXPECT_GT(sizes.full, 0u);
    EXPECT_GE(sizes.partial, core.total_cycles() / 2);

    LaneStreams scalar(kOrderLanes);
    DesLanes d = des_lanes(kOrderLanes);
    for (unsigned lane = 0; lane < kOrderLanes; ++lane) {
        sim::ClockedSim sim(core.nl(), dm,
                            sim::ClockConfig{core.recommended_period()});
        ScalarOrderSink tee(scalar, lane);
        sim.engine().set_sink(&tee);
        (void)core.encrypt(sim, d.pts[lane], d.keys[lane], &d.prngs[lane]);
    }
    expect_same_streams(batched, scalar);
}

}  // namespace
}  // namespace glitchmask
