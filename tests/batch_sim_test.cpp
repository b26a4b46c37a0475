// Exact-equivalence harness for the lane engine at its default width:
// every masked-AND gadget in the zoo runs 64 random-stimulus traces
// through the scalar EventSimulator (one run per lane) and once through a
// 64-lane (one chunk) compiled engine, and the per-lane committed toggle
// streams, power traces, toggle counts and settle times must match
// bit-for-bit -- with inertial filtering on and off, and with energy
// coupling on where the gadget has coupled pairs.  The last cases pin the
// engine's time-slot buckets: a restart with events still queued,
// overflow-heap events migrating into a non-empty slot, same-time
// pushes during a slot drain, and every slot size from 1 to 12 commits.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <span>
#include <string>
#include <vector>

#include "core/circuits.hpp"
#include "core/gadgets.hpp"
#include "des/masked_des.hpp"
#include "eval/campaign.hpp"
#include "eval/des_experiments.hpp"
#include "eval/gadget_tvla.hpp"
#include "power/batch_power.hpp"
#include "power/deposit_kernels.hpp"
#include "power/power_model.hpp"
#include "sim/clocked.hpp"
#include "sim/compiled_simulator.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/telemetry.hpp"

namespace glitchmask {
namespace {

using core::SharedNet;
using netlist::NetId;
using sim::TimePs;

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
class BatchTee final : public sim::BatchToggleSink {
public:
    explicit BatchTee(sim::BatchToggleSink* next = nullptr) : next_(next) {}
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

    /// The batch stream restricted to one lane, in commit order.
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

enum class Kind { Naive, Ff, Pd, Trichina, DomIndep, DomDep };

constexpr Kind kZoo[] = {Kind::Naive,    Kind::Ff,       Kind::Pd,
                         Kind::Trichina, Kind::DomIndep, Kind::DomDep};

const char* kind_name(Kind kind) {
    switch (kind) {
        case Kind::Naive: return "naive";
        case Kind::Ff: return "ff";
        case Kind::Pd: return "pd";
        case Kind::Trichina: return "trichina";
        case Kind::DomIndep: return "dom_indep";
        case Kind::DomDep: return "dom_dep";
    }
    return "?";
}

unsigned fresh_bits(Kind kind) {
    switch (kind) {
        case Kind::Trichina:
        case Kind::DomIndep: return 1;
        case Kind::DomDep: return 3;
        default: return 0;
    }
}

struct Harness {
    core::Netlist nl;
    SharedNet x_in{}, y_in{};
    std::vector<NetId> rand_in;
};

/// Same structure as the gadget-zoo bench: registered shared inputs and
/// registered fresh bits feeding `replicas` gadget instances.
Harness build(Kind kind, unsigned replicas) {
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
            case Kind::Naive:
                (void)core::secand2(h.nl, x, y, name);
                break;
            case Kind::Ff:
                (void)core::secand2_ff(h.nl, x, y, 2, 3, name);
                break;
            case Kind::Pd:
                (void)core::secand2_pd(h.nl, x, y, {10, true}, name);
                break;
            case Kind::Trichina:
                (void)core::trichina_and(h.nl, x, y, rand_regs[0], name);
                break;
            case Kind::DomIndep:
                (void)core::dom_and_indep(h.nl, x, y, rand_regs[0], 2, name);
                break;
            case Kind::DomDep:
                (void)core::dom_and_dep(h.nl, x, y, rand_regs[0], rand_regs[1],
                                        rand_regs[2], 2, name);
                break;
        }
    }
    h.nl.freeze();
    return h;
}

/// Combinational-only variant for raw-engine tests: the gadgets read the
/// primary inputs directly (no registration, no clock), so input pulses
/// reach the gadget logic.  Only register-free gadgets qualify.
Harness build_comb(Kind kind, unsigned replicas) {
    Harness h;
    h.x_in = core::shared_input(h.nl, "x");
    h.y_in = core::shared_input(h.nl, "y");
    for (unsigned i = 0; i < fresh_bits(kind); ++i)
        h.rand_in.push_back(h.nl.input("r" + std::to_string(i)));
    for (unsigned k = 0; k < replicas; ++k) {
        const std::string name = "g" + std::to_string(k);
        switch (kind) {
            case Kind::Naive:
                (void)core::secand2(h.nl, h.x_in, h.y_in, name);
                break;
            case Kind::Pd:
                (void)core::secand2_pd(h.nl, h.x_in, h.y_in, {10, true}, name);
                break;
            case Kind::Trichina:
                (void)core::trichina_and(h.nl, h.x_in, h.y_in, h.rand_in[0],
                                         name);
                break;
            default:
                throw std::logic_error("gadget has registers");
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

void expect_clocked_equivalence(Kind kind, bool inertial, double epsilon) {
    SCOPED_TRACE(std::string(kind_name(kind)) +
                 (inertial ? " inertial" : " transport") +
                 (epsilon != 0.0 ? " coupled" : ""));
    Harness h = build(kind, 4);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    const sim::ClockConfig clock{kPeriod};
    const sim::SimOptions options{inertial, 1.0};
    const power::PowerConfig power_config{.coupling_epsilon = epsilon,
                                          .bin_ps = kPeriod};
    const bool has_stage2 = h.nl.max_ctrl_group() >= 2;
    const std::vector<NetId> inputs = all_inputs(h);

    // Per-lane random stimulus.
    Xoshiro256 rng(1234 + static_cast<std::uint64_t>(kind));
    std::vector<std::vector<bool>> stim(sim::kBatchLanes);
    for (auto& lane_bits : stim)
        for (std::size_t i = 0; i < inputs.size(); ++i)
            lane_bits.push_back(rng.bit());

    // 64 scalar reference runs.
    std::vector<std::vector<ToggleRec>> scalar_stream(sim::kBatchLanes);
    std::vector<std::vector<double>> scalar_trace(sim::kBatchLanes);
    std::vector<std::uint64_t> scalar_toggles(sim::kBatchLanes);
    for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
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

    // One 64-lane compiled pass.
    sim::CompiledClockedSim batch(h.nl, dm, sim::kBatchLanes, clock, {},
                                  options);
    power::BatchPowerRecorder recorder(h.nl, power_config);
    recorder.attach(batch.chunk_view(0));
    BatchTee tee(&recorder);
    batch.set_sink(0, &tee);
    recorder.begin_trace(kCycles);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        std::uint64_t word = 0;
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane)
            if (stim[lane][i]) word |= std::uint64_t{1} << lane;
        batch.set_input_word(inputs[i], 0, word);
    }
    run_schedule(batch, has_stage2);

    std::vector<double> lane_trace;
    for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
        SCOPED_TRACE("lane " + std::to_string(lane));
        EXPECT_EQ(tee.lane(lane), scalar_stream[lane]);
        EXPECT_EQ(recorder.lane_toggles(lane), scalar_toggles[lane]);
        recorder.lane_trace_into(lane, lane_trace);
        ASSERT_EQ(lane_trace.size(), scalar_trace[lane].size());
        for (std::size_t bin = 0; bin < lane_trace.size(); ++bin)
            EXPECT_EQ(lane_trace[bin], scalar_trace[lane][bin]) << "bin " << bin;
    }
}

/// A raw one-chunk engine (drive / run API, no clock) for `nl`.
std::unique_ptr<sim::CompiledEngineBase> raw_engine(
    const core::Netlist& nl, const sim::DelayModel& dm,
    sim::SimOptions options = {}) {
    return sim::make_compiled_engine(sim::compile_netlist(nl, dm, options), 1);
}

std::uint64_t lane_word(const std::vector<std::vector<bool>>& wave,
                        std::size_t i) {
    std::uint64_t word = 0;
    for (unsigned lane = 0; lane < wave.size(); ++lane)
        if (wave[lane][i]) word |= std::uint64_t{1} << lane;
    return word;
}

TEST(BatchSim, ZooEquivalenceInertial) {
    for (const Kind kind : kZoo) expect_clocked_equivalence(kind, true, 0.0);
}

TEST(BatchSim, ZooEquivalenceTransportDelay) {
    for (const Kind kind : kZoo) expect_clocked_equivalence(kind, false, 0.0);
}

TEST(BatchSim, EnergyCouplingEquivalence) {
    // secAND2-PD registers its delay chains as coupled pairs; the Miller
    // energy term must pick the per-lane neighbour level.
    expect_clocked_equivalence(Kind::Pd, true, 0.25);
}

TEST(BatchSim, CombinationalQuiescenceEquivalence) {
    // Raw engine drive/settle on the combinational gadgets, two input
    // waves per lane: per-lane streams, final values and the global
    // settle time (max over lanes) must match the scalar runs.
    for (const Kind kind : {Kind::Naive, Kind::Pd, Kind::Trichina}) {
        SCOPED_TRACE(kind_name(kind));
        Harness h = build_comb(kind, 4);
        const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
        const std::vector<NetId> inputs = all_inputs(h);
        constexpr TimePs kWave2 = 40000;

        Xoshiro256 rng(99 + static_cast<std::uint64_t>(kind));
        std::vector<std::vector<bool>> wave1(sim::kBatchLanes);
        std::vector<std::vector<bool>> wave2(sim::kBatchLanes);
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane)
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                wave1[lane].push_back(rng.bit());
                wave2[lane].push_back(rng.bit());
            }

        std::vector<std::vector<ToggleRec>> scalar_stream(sim::kBatchLanes);
        TimePs max_settle = 0;
        std::vector<std::vector<bool>> finals(sim::kBatchLanes);
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
            sim::EventSimulator engine(h.nl, dm);
            ScalarTee tee;
            engine.set_sink(&tee);
            for (std::size_t i = 0; i < inputs.size(); ++i)
                engine.drive(inputs[i], wave1[lane][i], 0);
            for (std::size_t i = 0; i < inputs.size(); ++i)
                engine.drive(inputs[i], wave2[lane][i], kWave2);
            const TimePs settle = engine.run_to_quiescence();
            if (settle > max_settle) max_settle = settle;
            scalar_stream[lane] = std::move(tee.records);
            for (NetId net = 0; net < h.nl.size(); ++net)
                finals[lane].push_back(engine.value(net));
        }

        const auto batch = raw_engine(h.nl, dm);
        BatchTee tee;
        batch->set_sink(0, &tee);
        for (std::size_t i = 0; i < inputs.size(); ++i)
            batch->drive_chunk(inputs[i], 0, lane_word(wave1, i),
                               sim::kAllLanes, 0);
        for (std::size_t i = 0; i < inputs.size(); ++i)
            batch->drive_chunk(inputs[i], 0, lane_word(wave2, i),
                               sim::kAllLanes, kWave2);
        EXPECT_EQ(batch->run_to_quiescence(), max_settle);

        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
            SCOPED_TRACE("lane " + std::to_string(lane));
            EXPECT_EQ(tee.lane(lane), scalar_stream[lane]);
            for (NetId net = 0; net < h.nl.size(); ++net)
                ASSERT_EQ(((batch->word(net, 0) >> lane) & 1u) != 0,
                          finals[lane][net])
                    << "net " << net;
        }
    }
}

TEST(BatchSim, PerLanePulseCancellationEquivalence) {
    // Per-lane input pulses of widths from well under to well over the
    // gate inertial windows: some lanes' pulses get swallowed while their
    // neighbours' propagate, so pending-commit cancellation masks genuinely
    // differ per lane.  Equivalence must hold, and transport-delay mode
    // (no filtering) must commit strictly more toggles -- guarding the
    // equivalence suite against vacuously never firing the inertial path.
    Harness h = build_comb(Kind::Naive, 4);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    const std::vector<NetId> inputs = all_inputs(h);

    // Lane l: all inputs rise at 0, fall again after 40 + 55*l ps.
    auto fall_time = [](unsigned lane) {
        return static_cast<TimePs>(40 + 55 * lane);
    };

    std::uint64_t toggles_by_mode[2] = {0, 0};
    for (const bool inertial : {true, false}) {
        std::vector<std::vector<ToggleRec>> scalar_stream(sim::kBatchLanes);
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
            sim::EventSimulator engine(h.nl, dm, {},
                                       sim::SimOptions{inertial, 1.0});
            ScalarTee tee;
            engine.set_sink(&tee);
            for (const NetId input : inputs) engine.drive(input, true, 0);
            for (const NetId input : inputs)
                engine.drive(input, false, fall_time(lane));
            engine.run_to_quiescence();
            scalar_stream[lane] = std::move(tee.records);
        }

        const auto batch =
            raw_engine(h.nl, dm, sim::SimOptions{inertial, 1.0});
        BatchTee tee;
        batch->set_sink(0, &tee);
        for (const NetId input : inputs)
            batch->drive_chunk(input, 0, sim::kAllLanes, sim::kAllLanes, 0);
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane)
            for (const NetId input : inputs)
                batch->drive_chunk(input, 0, 0, std::uint64_t{1} << lane,
                                   fall_time(lane));
        batch->run_to_quiescence();

        std::size_t total = 0;
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
            SCOPED_TRACE((inertial ? "inertial lane " : "transport lane ") +
                         std::to_string(lane));
            EXPECT_EQ(tee.lane(lane), scalar_stream[lane]);
            total += scalar_stream[lane].size();
        }
        toggles_by_mode[inertial ? 0 : 1] = total;
    }
    EXPECT_GT(toggles_by_mode[1], toggles_by_mode[0]);
}

TEST(BatchSim, RejectsTimingCoupling) {
    Harness h = build(Kind::Pd, 1);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    sim::CouplingConfig coupling;
    coupling.timing_enabled = true;
    EXPECT_THROW(sim::CompiledClockedSim(h.nl, dm, sim::kBatchLanes, {},
                                         coupling),
                 std::invalid_argument);
}

TEST(BatchSim, CoupledRecorderRefusesLoneCommits) {
    // A lone on_toggle() carries no commit-time partner word; a coupled,
    // attached recorder must refuse it rather than read the chunk view
    // after the partner may have moved.
    Harness h = build(Kind::Pd, 1);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    sim::CompiledClockedSim wide(h.nl, dm, sim::kBatchLanes);
    power::BatchPowerRecorder coupled(h.nl, {.coupling_epsilon = 0.25});
    coupled.begin_trace(1);
    coupled.on_toggle(h.x_in.s0, 0, 1, 1);  // unattached: no coupling term
    coupled.attach(wide.chunk_view(0));
    EXPECT_THROW(coupled.on_toggle(h.x_in.s0, 0, 0, 1), std::logic_error);
    power::BatchPowerRecorder plain(h.nl, {});
    plain.attach(wide.chunk_view(0));
    plain.begin_trace(1);
    plain.on_toggle(h.x_in.s0, 0, 1, 1);
    EXPECT_EQ(plain.trace_toggles(), 1u);
}

TEST(BatchSim, BroadcastInputMatchesScalarFsm) {
    // set_input(bool) must behave as the same control bit in every lane.
    Harness h = build(Kind::Ff, 1);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    sim::CompiledClockedSim batch(h.nl, dm, sim::kBatchLanes,
                                  sim::ClockConfig{kPeriod});
    batch.set_input(h.x_in.s0, true);
    batch.step();
    batch.step();
    EXPECT_EQ(batch.word(h.x_in.s0, 0), sim::kAllLanes);
    batch.set_input(h.x_in.s0, false);
    batch.step();
    batch.step();
    EXPECT_EQ(batch.word(h.x_in.s0, 0), 0u);
}

// ----- time-slot buckets ---------------------------------------------------

/// Per-lane random two-wave stimulus for the raw-engine bucket cases.
struct Waves {
    std::vector<std::vector<bool>> first, second;
};

Waves random_waves(std::size_t inputs, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    Waves w{std::vector<std::vector<bool>>(sim::kBatchLanes),
            std::vector<std::vector<bool>>(sim::kBatchLanes)};
    for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane)
        for (std::size_t i = 0; i < inputs; ++i) {
            w.first[lane].push_back(rng.bit());
            w.second[lane].push_back(rng.bit());
        }
    return w;
}

/// One scalar run per lane of the two-wave schedule: wave 1 at 0, wave 2
/// at `t2`, settle.  Returns the per-lane commit streams.
std::vector<std::vector<ToggleRec>> scalar_waves(const Harness& h,
                                                 const sim::DelayModel& dm,
                                                 const Waves& w, TimePs t2) {
    const std::vector<NetId> inputs = all_inputs(h);
    std::vector<std::vector<ToggleRec>> out(sim::kBatchLanes);
    for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
        sim::EventSimulator engine(h.nl, dm);
        ScalarTee tee;
        engine.set_sink(&tee);
        for (std::size_t i = 0; i < inputs.size(); ++i)
            engine.drive(inputs[i], w.first[lane][i], 0);
        for (std::size_t i = 0; i < inputs.size(); ++i)
            engine.drive(inputs[i], w.second[lane][i], t2);
        engine.run_to_quiescence();
        out[lane] = std::move(tee.records);
    }
    return out;
}

TEST(BatchSim, RestartWithPendingEventsMatchesFreshEngine) {
    // initialize() must drop every queued event -- ring slots and the
    // overflow heap -- and leave the engine exactly as fresh, even though
    // it skips the ring sweep when nothing is queued.
    Harness h = build_comb(Kind::Trichina, 2);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    const std::vector<NetId> inputs = all_inputs(h);
    const auto engine = raw_engine(h.nl, dm);
    const TimePs horizon = sim::compile_netlist(h.nl, dm)->ring_size;
    constexpr TimePs kWave2 = 20000;
    const Waves w = random_waves(inputs.size(), 5);

    // Queue a wave in the ring and one past the horizon, replay only the
    // first few hundred picoseconds, then restart with both still queued.
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        engine->drive_chunk(inputs[i], 0, sim::kAllLanes, sim::kAllLanes, 0);
        engine->drive_chunk(inputs[i], 0, 0, sim::kAllLanes, 3 * horizon);
    }
    engine->run_until(300);
    engine->initialize();
    EXPECT_EQ(engine->now(), 0u);
    const auto fresh = raw_engine(h.nl, dm);
    for (NetId net = 0; net < h.nl.size(); ++net)
        ASSERT_EQ(engine->word(net, 0), fresh->word(net, 0)) << "net " << net;

    // Run the restart twice: the second restart finds an empty queue.
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        if (round > 0) engine->initialize();
        BatchTee tee;
        engine->set_sink(0, &tee);
        for (std::size_t i = 0; i < inputs.size(); ++i)
            engine->drive_chunk(inputs[i], 0, lane_word(w.first, i),
                                sim::kAllLanes, 0);
        for (std::size_t i = 0; i < inputs.size(); ++i)
            engine->drive_chunk(inputs[i], 0, lane_word(w.second, i),
                                sim::kAllLanes, kWave2);
        engine->run_to_quiescence();
        engine->set_sink(0, nullptr);

        const auto scalar = scalar_waves(h, dm, w, kWave2);
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane)
            ASSERT_EQ(tee.lane(lane), scalar[lane]) << "lane " << lane;
    }
}

TEST(BatchSim, OverflowEventsMigrateInSeqOrder) {
    // Two drives per input far past the ring horizon wait in the overflow
    // heap; after time advances, later same-time drives land in the ring
    // slot directly.  Migration must splice the heap events in ahead of
    // them (and after each other) in seq order, exactly the scalar
    // engine's (time, seq) order -- otherwise the final values flip.
    Harness h = build_comb(Kind::Naive, 2);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    const std::vector<NetId> inputs = all_inputs(h);
    const TimePs t = 5 * sim::compile_netlist(h.nl, dm)->ring_size + 17;
    const std::uint64_t a = 0x00FF00FF00FF00FFull;
    const std::uint64_t b = 0x0F0F0F0F0F0F0F0Full;
    const std::uint64_t c = 0x3333333333333333ull;

    std::vector<std::vector<ToggleRec>> scalar(sim::kBatchLanes);
    std::vector<std::vector<bool>> finals(sim::kBatchLanes);
    for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
        const auto bit = [lane](std::uint64_t word) {
            return ((word >> lane) & 1u) != 0;
        };
        sim::EventSimulator engine(h.nl, dm);
        ScalarTee tee;
        engine.set_sink(&tee);
        for (const NetId input : inputs) {
            engine.drive(input, bit(a), t);
            engine.drive(input, bit(b), t);
        }
        engine.run_until(t - 5);
        for (const NetId input : inputs) engine.drive(input, bit(c), t);
        engine.run_to_quiescence();
        scalar[lane] = std::move(tee.records);
        for (NetId net = 0; net < h.nl.size(); ++net)
            finals[lane].push_back(engine.value(net));
    }

    const auto engine = raw_engine(h.nl, dm);
    BatchTee tee;
    engine->set_sink(0, &tee);
    for (const NetId input : inputs) {
        engine->drive_chunk(input, 0, a, sim::kAllLanes, t);
        engine->drive_chunk(input, 0, b, sim::kAllLanes, t);
    }
    engine->run_until(t - 5);
    for (const NetId input : inputs)
        engine->drive_chunk(input, 0, c, sim::kAllLanes, t);
    engine->run_to_quiescence();

    for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
        SCOPED_TRACE("lane " + std::to_string(lane));
        EXPECT_EQ(tee.lane(lane), scalar[lane]);
        for (NetId net = 0; net < h.nl.size(); ++net)
            ASSERT_EQ(((engine->word(net, 0) >> lane) & 1u) != 0,
                      finals[lane][net])
                << "net " << net;
    }
    // Every input ends on the ring drive, not on a migrated one.
    for (const NetId input : inputs) EXPECT_EQ(engine->word(input, 0), c);
}

TEST(BatchSim, SameTimePushesDuringDrainMatchScalar) {
    // Zero wire delay: every commit pushes its fanout pin events into the
    // slot being drained, and the monotonic +1 bumps chain further
    // events right behind it.  The drain must pick them up in the same
    // pass, in seq order.
    Harness h = build_comb(Kind::Pd, 2);
    sim::DelayConfig config = sim::DelayConfig::spartan6();
    config.wire_min_ps = 0;
    config.wire_max_ps = 0;
    const sim::DelayModel dm(h.nl, config);
    const std::vector<NetId> inputs = all_inputs(h);
    constexpr TimePs kWave2 = 15000;
    const Waves w = random_waves(inputs.size(), 11);
    const auto scalar = scalar_waves(h, dm, w, kWave2);

    const auto engine = raw_engine(h.nl, dm);
    BatchTee tee;
    engine->set_sink(0, &tee);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        engine->drive_chunk(inputs[i], 0, lane_word(w.first, i),
                            sim::kAllLanes, 0);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        engine->drive_chunk(inputs[i], 0, lane_word(w.second, i),
                            sim::kAllLanes, kWave2);
    engine->run_to_quiescence();

    std::size_t toggles = 0;
    for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
        EXPECT_EQ(tee.lane(lane), scalar[lane]) << "lane " << lane;
        toggles += scalar[lane].size();
    }
    EXPECT_GT(toggles, 0u);  // not vacuous
}

/// `n` registered inputs; each input and its flop feed an XOR, and each
/// input ANDs with the next input's flop, so every commit has fanout.
struct SlotCircuit {
    core::Netlist nl;
    std::vector<NetId> inputs;
};

SlotCircuit slot_circuit(unsigned n) {
    SlotCircuit c;
    std::vector<NetId> flops;
    for (unsigned i = 0; i < n; ++i)
        c.inputs.push_back(c.nl.input("in" + std::to_string(i)));
    for (const NetId input : c.inputs) flops.push_back(c.nl.dff(input));
    for (unsigned i = 0; i < n; ++i) {
        (void)c.nl.xor2(c.inputs[i], flops[i]);
        (void)c.nl.and2(c.inputs[i], flops[(i + 1) % n]);
    }
    c.nl.freeze();
    return c;
}

TEST(BatchSim, EverySlotSizeMatchesScalar) {
    // 1..12 commits land in one time slot, so the drain crosses the
    // inline -> spill boundary whatever the inline record count per
    // slot is.  Wire delays are zero: every commit pushes its fanout pin
    // events into the slot being drained, so the slot also overflows
    // mid-drain.  Part one launches n inputs (and, from the second edge
    // on, n flops) on each clock edge.  Part two parks 2n drives past
    // the ring horizon, then fills their slot with n same-time ring
    // drives, so (once n passes the inline records) the overflow events
    // migrate into a slot that has already spilled.  Part three starts
    // a spill FIFO mid-drain while another slot holds one.
    sim::DelayConfig config = sim::DelayConfig::spartan6();
    config.wire_min_ps = 0;
    config.wire_max_ps = 0;
    constexpr std::size_t kEdges = 4;
    for (unsigned n = 1; n <= 12; ++n) {
        SCOPED_TRACE("n = " + std::to_string(n));
        const SlotCircuit c = slot_circuit(n);
        const sim::DelayModel dm(c.nl, config);
        const sim::ClockConfig clock{kPeriod};
        Xoshiro256 rng(300 + n);
        const auto bit = [](std::uint64_t word, unsigned lane) {
            return ((word >> lane) & 1u) != 0;
        };

        // Part one: clock-edge launches.
        std::vector<std::vector<std::uint64_t>> stim(kEdges);
        for (auto& edge : stim)
            for (unsigned i = 0; i < n; ++i) edge.push_back(rng());
        std::vector<std::vector<ToggleRec>> scalar(sim::kBatchLanes);
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
            sim::ClockedSim sim(c.nl, dm, clock);
            ScalarTee tee;
            sim.engine().set_sink(&tee);
            for (const auto& edge : stim) {
                for (unsigned i = 0; i < n; ++i)
                    sim.set_input(c.inputs[i], bit(edge[i], lane));
                sim.step();
            }
            sim.step();  // the last inputs reach the flops
            scalar[lane] = std::move(tee.records);
        }
        sim::CompiledClockedSim wide(c.nl, dm, sim::kBatchLanes, clock);
        BatchTee wide_tee;
        wide.set_sink(0, &wide_tee);
        for (const auto& edge : stim) {
            for (unsigned i = 0; i < n; ++i)
                wide.set_input_word(c.inputs[i], 0, edge[i]);
            wide.step();
        }
        wide.step();
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane)
            ASSERT_EQ(wide_tee.lane(lane), scalar[lane]) << "lane " << lane;

        // Part two: overflow events migrating into a spilled slot.
        const TimePs t = 5 * sim::compile_netlist(c.nl, dm)->ring_size + 17;
        std::vector<std::uint64_t> a, b, ring;
        for (unsigned i = 0; i < n; ++i) {
            a.push_back(rng());
            b.push_back(rng());
            ring.push_back(rng());
        }
        std::vector<std::vector<bool>> finals(sim::kBatchLanes);
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
            sim::EventSimulator engine(c.nl, dm);
            ScalarTee tee;
            engine.set_sink(&tee);
            for (unsigned i = 0; i < n; ++i) {
                engine.drive(c.inputs[i], bit(a[i], lane), t);
                engine.drive(c.inputs[i], bit(b[i], lane), t);
            }
            engine.run_until(t - 5);
            for (unsigned i = 0; i < n; ++i)
                engine.drive(c.inputs[i], bit(ring[i], lane), t);
            engine.run_to_quiescence();
            scalar[lane] = std::move(tee.records);
            for (NetId net = 0; net < c.nl.size(); ++net)
                finals[lane].push_back(engine.value(net));
        }
        const auto engine = raw_engine(c.nl, dm);
        BatchTee tee;
        engine->set_sink(0, &tee);
        for (unsigned i = 0; i < n; ++i) {
            engine->drive_chunk(c.inputs[i], 0, a[i], sim::kAllLanes, t);
            engine->drive_chunk(c.inputs[i], 0, b[i], sim::kAllLanes, t);
        }
        engine->run_until(t - 5);
        for (unsigned i = 0; i < n; ++i)
            engine->drive_chunk(c.inputs[i], 0, ring[i], sim::kAllLanes, t);
        engine->run_to_quiescence();
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
            SCOPED_TRACE("lane " + std::to_string(lane));
            ASSERT_EQ(tee.lane(lane), scalar[lane]);
            for (NetId net = 0; net < c.nl.size(); ++net)
                ASSERT_EQ(bit(engine->word(net, 0), lane), finals[lane][net])
                    << "net " << net;
        }
        for (unsigned i = 0; i < n; ++i)
            EXPECT_EQ(engine->word(c.inputs[i], 0), ring[i]);

        // Part three: a drain that starts its own spill FIFO while a later
        // slot's FIFO is already queued.  2n drives wait at t0 + 40, then
        // n drives at t0 grow their slot to 4n events mid-drain; some n
        // in 1..12 puts 2n past the inline records and n within them.
        constexpr TimePs t0 = 1000;
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
            sim::EventSimulator scalar_engine(c.nl, dm);
            ScalarTee scalar_tee;
            scalar_engine.set_sink(&scalar_tee);
            for (unsigned i = 0; i < n; ++i) {
                scalar_engine.drive(c.inputs[i], bit(a[i], lane), t0 + 40);
                scalar_engine.drive(c.inputs[i], bit(b[i], lane), t0 + 40);
            }
            for (unsigned i = 0; i < n; ++i)
                scalar_engine.drive(c.inputs[i], bit(ring[i], lane), t0);
            scalar_engine.run_to_quiescence();
            scalar[lane] = std::move(scalar_tee.records);
        }
        const auto fresh = raw_engine(c.nl, dm);
        BatchTee fresh_tee;
        fresh->set_sink(0, &fresh_tee);
        for (unsigned i = 0; i < n; ++i) {
            fresh->drive_chunk(c.inputs[i], 0, a[i], sim::kAllLanes, t0 + 40);
            fresh->drive_chunk(c.inputs[i], 0, b[i], sim::kAllLanes, t0 + 40);
        }
        for (unsigned i = 0; i < n; ++i)
            fresh->drive_chunk(c.inputs[i], 0, ring[i], sim::kAllLanes, t0);
        fresh->run_to_quiescence();
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane)
            ASSERT_EQ(fresh_tee.lane(lane), scalar[lane]) << "lane " << lane;
    }
}

TEST(BatchSim, SequenceCampaignBitIdentical) {
    // Golden-campaign criterion: the full TVLA statistics of a sequence
    // experiment must be bit-identical (exact double equality) between the
    // scalar and the 64-lane compiled path, including a partial final
    // lane group (200 % 64 != 0) and a multi-worker pool.
    eval::SequenceExperimentConfig config;
    config.replicas = 4;
    config.traces = 200;
    config.noise_sigma = 1.0;
    config.seed = 77;
    config.workers = 2;
    config.block_size = 64;
    config.max_test_order = 2;
    const core::InputSequence sequence = core::all_input_sequences().front();

    config.lanes = 1;
    const eval::SequenceLeakResult scalar =
        eval::run_sequence_experiment(sequence, config);
    config.lanes = 64;
    const eval::SequenceLeakResult batch =
        eval::run_sequence_experiment(sequence, config);

    EXPECT_EQ(scalar.max_abs_t1, batch.max_abs_t1);
    EXPECT_EQ(scalar.max_abs_t2, batch.max_abs_t2);
    EXPECT_EQ(scalar.argmax_cycle, batch.argmax_cycle);
    EXPECT_EQ(scalar.leaks_first_order, batch.leaks_first_order);
    EXPECT_GT(scalar.max_abs_t1, 0.0);  // not vacuous
}

TEST(BatchSim, DefaultCampaignsRunTheLaneEngine) {
    // lanes = 0 must select the lane engine in every driver, not just
    // resolve to 64: the results cannot tell (both paths give the same
    // bits), but the simulator's event count can -- one lane pass
    // schedules the union of its traces' events, far fewer than the
    // scalar path's per-trace sum.
    if (std::getenv("GLITCHMASK_LANES") != nullptr)
        GTEST_SKIP() << "GLITCHMASK_LANES overrides the default width";
    const telemetry::ScopedTelemetryEnable telemetry_on;
    const auto events = [](const std::function<void(unsigned)>& run,
                           unsigned lanes) {
        const telemetry::Snapshot before = telemetry::snapshot();
        run(lanes);
        return telemetry::snapshot().delta_since(before).value(
            telemetry::Counter::kSimEvents);
    };
    const auto expect_lane_default = [&](const char* driver,
                                         const std::function<void(unsigned)>&
                                             run) {
        SCOPED_TRACE(driver);
        const std::uint64_t lane = events(run, 0);
        const std::uint64_t scalar = events(run, 1);
        EXPECT_GT(lane, 0u);
        EXPECT_LT(lane, scalar);
    };

    expect_lane_default("sequence_tvla", [](unsigned lanes) {
        eval::SequenceExperimentConfig config;
        config.replicas = 2;
        config.traces = 16;
        config.workers = 1;
        config.lanes = lanes;
        (void)eval::run_sequence_experiment(
            core::all_input_sequences().front(), config);
    });
    expect_lane_default("gadget_tvla", [](unsigned lanes) {
        eval::GadgetTvlaConfig config;
        config.replicas = 2;
        config.traces = 16;
        config.workers = 1;
        config.lanes = lanes;
        (void)eval::run_gadget_tvla(config);
    });
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    expect_lane_default("des_tvla", [&core](unsigned lanes) {
        eval::DesTvlaConfig config;
        config.traces = 4;
        config.workers = 1;
        config.lanes = lanes;
        (void)eval::run_des_tvla(core, config);
    });
    expect_lane_default("mean_power", [&core](unsigned lanes) {
        (void)eval::mean_power_trace(core, 4, /*seed=*/1, /*placement_seed=*/1,
                                     /*workers=*/1, lanes);
    });
}


TEST(BatchSim, DepositRunKernelsAreBitIdentical) {
    // Every dispatch level of the run deposit must perform the scalar
    // walk's per-lane adds exactly: sparse and dense masks, coupled and
    // uncoupled nets, one run carried across several kernel calls.
    namespace k = power::kernels;
    constexpr std::size_t kNets = 40;
    Xoshiro256 rng(99);
    std::vector<double> weight(kNets);
    std::vector<NetId> partner(kNets, netlist::kNoNet);
    for (std::size_t net = 0; net < kNets; ++net) {
        weight[net] = 0.5 + static_cast<double>(rng() % 1000) / 997.0;
        if (rng() % 3 == 0) partner[net] = static_cast<NetId>(rng() % kNets);
    }
    std::vector<sim::ToggleEntry> entries(300);
    for (sim::ToggleEntry& e : entries) {
        e.net = static_cast<NetId>(rng() % kNets);
        const unsigned density = static_cast<unsigned>(rng() % 4);
        e.toggled = density == 0   ? std::uint64_t{1} << (rng() % 64)
                    : density == 1 ? rng() & rng() & rng()
                                   : rng();
        e.values = rng();
        e.partner = rng();
    }
    struct Level {
        const char* name;
        k::DepositRunFn deposit;
        k::CountRunFn count;
    };
    std::vector<Level> levels{{"scalar", k::deposit_run_scalar, k::count_run_scalar}};
#if defined(GLITCHMASK_HAVE_AVX2)
    if (support::active_simd_level() >= support::SimdLevel::kAvx2)
        levels.push_back({"avx2", k::deposit_run_avx2, k::count_run_avx2});
#endif
#if defined(GLITCHMASK_HAVE_AVX512)
    if (support::active_simd_level() >= support::SimdLevel::kAvx512)
        levels.push_back({"avx512", k::deposit_run_avx512, k::count_run_avx512});
#endif
    std::vector<std::vector<double>> rows;
    std::vector<std::vector<std::uint64_t>> counts;
    std::vector<std::uint64_t> totals;
    for (const Level& level : levels) {
        for (const NetId* partners : {static_cast<const NetId*>(nullptr),
                                      static_cast<const NetId*>(partner.data())}) {
            std::vector<double> row(64, 0.125);
            std::vector<std::uint64_t> lane_toggles(64, 0);
            std::uint64_t total = 0;
            for (std::size_t at = 0; at < entries.size(); at += 100)
                total += level.deposit(row.data(), lane_toggles.data(),
                                       entries.data() + at, 100, weight.data(),
                                       partners, 0.25);
            total += level.count(lane_toggles.data(), entries.data(), 37);
            rows.push_back(row);
            counts.push_back(lane_toggles);
            totals.push_back(total);
        }
    }
    for (std::size_t i = 2; i < rows.size(); ++i) {
        SCOPED_TRACE(levels[i / 2].name + std::string(i % 2 ? " coupled" : ""));
        EXPECT_EQ(rows[i], rows[i % 2]);  // doubles compared with ==
        EXPECT_EQ(counts[i], counts[i % 2]);
        EXPECT_EQ(totals[i], totals[i % 2]);
    }
    EXPECT_NE(rows[0], rows[1]);  // the coupling term is exercised
}

}  // namespace
}  // namespace glitchmask
