// First-order masked DES encryption cores (paper Sec. IV, Figs. 8b / 9b).
//
// Both cores implement the full round-based DES datapath on two Boolean
// shares, including the masked key schedule (C/D rotation registers per
// share -- the key is freshly masked before every operation), with the
// substitution layer built from the masked S-boxes of des/masked_sbox.hpp.
// All 8 S-boxes share the same 14 fresh random bits per round, exactly as
// the paper's reference implementation recycles them.
//
//   * secAND2-FF core: 7 cycles per round, 115 cycles per block
//     (1 load + 16 x 7 + readout margin), matching the paper.
//     Round schedule (enable groups):
//       c0 g_state+g_key | c1 g_sbox_in (+ gadget reset) | c2 g_layer1 |
//       c3 g_layer2+g_sync | c4 g_mux2 | c5 g_out | c6 settle.
//   * secAND2-PD core: 2 cycles per round, ~34 cycles per block.  The
//     S-box output feeds the S-box input register *directly* (through the
//     combinational round feedback), the state register updates in
//     parallel, and the key registers rotate at the same edge -- the
//     paper's Fig. 9b timing.  Arrival order inside a cycle is enforced
//     purely by DelayUnit chains.
//
// The control FSM lives in C++ (encrypt() below) and drives the enable/
// reset groups plus two unmasked control inputs (load select, shift-by-one
// select); neither carries key- or data-dependent information.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/sharing.hpp"
#include "des/des_reference.hpp"
#include "des/masked_sbox.hpp"
#include "netlist/builder.hpp"
#include "sim/delay_model.hpp"

namespace glitchmask::des {

using core::MaskedWord;
using netlist::Bus;

/// FF and PD are the paper's two designs; DOM is the baseline the paper
/// compares against ([17]), built from DOM-indep gadgets.
enum class CoreFlavor { FF, PD, DOM };

struct MaskedDesOptions {
    CoreFlavor flavor = CoreFlavor::FF;
    /// PD only: LUTs per DelayUnit (paper's optimum: 10).
    unsigned delayunit_luts = 10;
    /// PD only: register adjacent delay chains as coupled.
    bool couple_adjacent = true;
    /// Recycle the 14 fresh bits across all 8 S-boxes (the paper's
    /// reference choice); false = 14 dedicated bits per S-box (112 per
    /// round, the paper's non-recycled variant).
    bool recycle_randomness = true;
};

class MaskedDesCore {
public:
    explicit MaskedDesCore(const MaskedDesOptions& options = {});

    [[nodiscard]] const Netlist& nl() const noexcept { return *nl_; }
    [[nodiscard]] const MaskedDesOptions& options() const noexcept {
        return options_;
    }

    [[nodiscard]] unsigned cycles_per_round() const noexcept {
        return options_.flavor == CoreFlavor::PD ? 2u : 7u;
    }
    /// Cycles from the first stimulus edge to a readable ciphertext
    /// (= the number of power samples per trace): 113 for the FF core
    /// (1 stimulus + 16 x 7), 34 for the PD core (1 + 16 x 2 + settle).
    /// The static form answers without building the (expensive) core --
    /// the sample count depends only on the flavor.
    [[nodiscard]] static constexpr unsigned total_cycles_for(
        CoreFlavor flavor) noexcept {
        return flavor == CoreFlavor::PD ? 1u + 16u * 2u + 1u : 1u + 16u * 7u;
    }
    [[nodiscard]] unsigned total_cycles() const noexcept {
        return total_cycles_for(options_.flavor);
    }

    /// Recommended clock period [ps] (PD needs room for its delay chains:
    /// up to 6 DelayUnits plus routing on the mini S-box AND stage).
    [[nodiscard]] sim::TimePs recommended_period() const noexcept {
        return options_.flavor == CoreFlavor::PD ? 90000u : 20000u;
    }

    /// Fresh random bits consumed per round.
    [[nodiscard]] unsigned random_bits_per_round() const noexcept {
        return static_cast<unsigned>(rand_.size());
    }

    // ----- I/O nets (MSB-first buses: bus[0] = DES bit 1) ----------------
    [[nodiscard]] const Bus& pt_s0() const noexcept { return pt_s0_; }
    [[nodiscard]] const Bus& pt_s1() const noexcept { return pt_s1_; }
    [[nodiscard]] const Bus& key_s0() const noexcept { return key_s0_; }
    [[nodiscard]] const Bus& key_s1() const noexcept { return key_s1_; }
    [[nodiscard]] const Bus& rand() const noexcept { return rand_; }
    [[nodiscard]] const Bus& ct_s0() const noexcept { return ct_s0_; }
    [[nodiscard]] const Bus& ct_s1() const noexcept { return ct_s1_; }

    /// Runs one masked encryption on any simulator with the ClockedSim
    /// drive API (works for sim::ClockedSim and sim::ZeroDelaySim).  The
    /// caller restarts the simulator first.  `prng` supplies the 14 round
    /// refresh bits; nullptr = PRNG off (all refresh bits zero).
    template <class Sim>
    MaskedWord encrypt(Sim& sim, const MaskedWord& pt, const MaskedWord& key,
                       Xoshiro256* prng) const {
        set_word(sim, pt_s0_, pt.s0);
        set_word(sim, pt_s1_, pt.s1);
        set_word(sim, key_s0_, key.s0);
        set_word(sim, key_s1_, key.s1);
        set_rand(sim, prng);
        sim.set_input(load_sel_, true);
        sim.set_input(shift_one_, true);  // round 1 shifts by 1
        sim.step();                       // stimulus lands

        switch (options_.flavor) {
            case CoreFlavor::FF: run_rounds_ff(sim, prng); break;
            case CoreFlavor::PD: run_rounds_pd(sim, prng); break;
            case CoreFlavor::DOM: run_rounds_dom(sim, prng); break;
        }

        MaskedWord ct;
        ct.s0 = read_word(sim, ct_s0_);
        ct.s1 = read_word(sim, ct_s1_);
        return ct;
    }

    /// Lane-parallel counterpart of encrypt() for the lane engine
    /// (sim::CompiledClockedSim): one pass carries up to sim.chunks()*64
    /// independent encryptions, trace t in lane t%64 of chunk t/64 running
    /// the stimulus of pt[t]/key[t].  `prngs[t]` supplies trace t's 14
    /// refresh bits per round in the same draw order as the scalar path
    /// (pass the generator whose state continues from that trace's mask
    /// draws; the draws stay net-outer / lane-inner across all chunks);
    /// an empty span is "PRNG off" in every lane.  Unused lanes see
    /// all-zero stimulus.  Each lane's waveform -- and therefore its
    /// ciphertext and power trace -- is bit-identical to a scalar
    /// encrypt() of that trace's inputs.
    template <class ChunkedSim>
    std::vector<MaskedWord> encrypt_batch_chunks(
        ChunkedSim& sim, std::span<const MaskedWord> pt,
        std::span<const MaskedWord> key, std::span<Xoshiro256> prngs) const {
        set_share_chunks(sim, pt_s0_, pt, false);
        set_share_chunks(sim, pt_s1_, pt, true);
        set_share_chunks(sim, key_s0_, key, false);
        set_share_chunks(sim, key_s1_, key, true);
        set_rand(sim, prngs);
        sim.set_input(load_sel_, true);
        sim.set_input(shift_one_, true);  // round 1 shifts by 1
        sim.step();                       // stimulus lands

        switch (options_.flavor) {
            case CoreFlavor::FF: run_rounds_ff(sim, prngs); break;
            case CoreFlavor::PD: run_rounds_pd(sim, prngs); break;
            case CoreFlavor::DOM: run_rounds_dom(sim, prngs); break;
        }

        std::vector<MaskedWord> ct(pt.size());
        for (std::size_t t = 0; t < pt.size(); ++t) {
            ct[t].s0 = read_word_chunk(sim, ct_s0_, t);
            ct[t].s1 = read_word_chunk(sim, ct_s1_, t);
        }
        return ct;
    }

    /// Convenience: masks plaintext/key with `masks` (or zero masks when
    /// nullptr, the "PRNG off" mode), encrypts, and unmasks.
    template <class Sim>
    std::uint64_t encrypt_value(Sim& sim, std::uint64_t pt, std::uint64_t key,
                                Xoshiro256* masks) const {
        const MaskedWord mpt = masks != nullptr ? core::mask_word(pt, 64, *masks)
                                                : MaskedWord{0, pt};
        const MaskedWord mkey = masks != nullptr
                                    ? core::mask_word(key, 64, *masks)
                                    : MaskedWord{0, key};
        return encrypt(sim, mpt, mkey, masks).value();
    }

private:
    void build();
    void build_datapath();

    template <class Sim>
    static void set_word(Sim& sim, const Bus& bus, std::uint64_t value) {
        for (std::size_t i = 0; i < bus.size(); ++i)
            sim.set_input(bus[i], ((value >> (bus.size() - 1 - i)) & 1u) != 0);
    }
    template <class Sim>
    static std::uint64_t read_word(const Sim& sim, const Bus& bus) {
        std::uint64_t value = 0;
        for (std::size_t i = 0; i < bus.size(); ++i)
            if (sim.value(bus[i])) value |= std::uint64_t{1}
                                            << (bus.size() - 1 - i);
        return value;
    }
    template <class Sim>
    void set_rand(Sim& sim, Xoshiro256* prng) const {
        for (const netlist::NetId net : rand_)
            sim.set_input(net, prng != nullptr && prng->bit());
    }
    /// Per-lane refresh randomness: net-outer / lane-inner across all
    /// chunks, so each lane draws its bits in exactly the scalar set_rand
    /// order.
    template <class Sim>
    void set_rand(Sim& sim, std::span<Xoshiro256> prngs) const {
        for (const netlist::NetId net : rand_) {
            for (unsigned c = 0; c < sim.chunks(); ++c) {
                std::uint64_t word = 0;
                const std::size_t base = std::size_t{c} * 64u;
                for (std::size_t lane = base;
                     lane < base + 64u && lane < prngs.size(); ++lane)
                    if (prngs[lane].bit())
                        word |= std::uint64_t{1} << (lane - base);
                sim.set_input_word(net, c, word);
            }
        }
    }
    /// Packs `words`' share (s1 when share1) bit bus.size()-1-i into
    /// bus[i], trace t in lane t%64 of chunk t/64; unused lanes get zero.
    template <class Sim>
    void set_share_chunks(Sim& sim, const Bus& bus,
                          std::span<const MaskedWord> words,
                          bool share1) const {
        for (std::size_t i = 0; i < bus.size(); ++i) {
            const unsigned shift = static_cast<unsigned>(bus.size() - 1 - i);
            for (unsigned c = 0; c < sim.chunks(); ++c) {
                std::uint64_t word = 0;
                for (std::size_t lane = 0; lane < 64; ++lane) {
                    const std::size_t t = std::size_t{c} * 64u + lane;
                    if (t >= words.size()) break;
                    const std::uint64_t v =
                        share1 ? words[t].s1 : words[t].s0;
                    word |= ((v >> shift) & 1u) << lane;
                }
                sim.set_input_word(bus[i], c, word);
            }
        }
    }
    template <class Sim>
    static std::uint64_t read_word_chunk(const Sim& sim, const Bus& bus,
                                         std::size_t trace) {
        std::uint64_t value = 0;
        for (std::size_t i = 0; i < bus.size(); ++i)
            if ((sim.word(bus[i], static_cast<unsigned>(trace / 64u)) >>
                 (trace % 64u)) &
                1u)
                value |= std::uint64_t{1} << (bus.size() - 1 - i);
        return value;
    }
    template <class Sim>
    void pulse(Sim& sim, std::initializer_list<netlist::CtrlGroup> groups,
               netlist::CtrlGroup reset_group = 0) const {
        for (const auto group : groups) sim.set_enable(group, true);
        if (reset_group != 0) sim.set_reset(reset_group, true);
        sim.step();
        for (const auto group : groups) sim.set_enable(group, false);
        if (reset_group != 0) sim.set_reset(reset_group, false);
    }

    /// Queues the control/random stimulus for round `round` so it lands
    /// one edge before that round's first sampling edge.  `Rand` is either
    /// Xoshiro256* (scalar) or std::span<Xoshiro256> (one generator per
    /// lane) -- set_rand overloads on it.
    template <class Sim, class Rand>
    void prepare_round(Sim& sim, unsigned round, Rand prng) const {
        sim.set_input(shift_one_, key_shifts()[round] == 1);
        sim.set_input(load_sel_, round == 0);
        set_rand(sim, prng);
    }

    template <class Sim, class Rand>
    void run_rounds_ff(Sim& sim, Rand prng) const {
        // Round 0's controls landed at the stimulus edge (encrypt()).
        // The y1-delay FFs reset strictly *before* fresh operands can
        // reach them (reset racing new data would let an x share arrive
        // while both old y shares are visible -- the Table I hazard), and
        // the resets themselves are staggered: late-layer flops (triples,
        // MUX stage 2) clear at c5, so that the pair/mini transitions
        // caused by the early-layer reset at c0 meet already-cleared
        // downstream y1 inputs.
        for (unsigned round = 0; round < kRounds; ++round) {
            pulse(sim, {kStateG, kKeyG}, kRstEarly);  // c0 (load on round 0)
            pulse(sim, {kSboxInG});                   // c1
            pulse(sim, {kLayer1G});                   // c2
            pulse(sim, {kLayer2G, kSyncG});           // c3
            pulse(sim, {kMux2G});                     // c4
            pulse(sim, {kOutG}, kRstLate);            // c5
            if (round + 1 < kRounds) prepare_round(sim, round + 1, prng);
            sim.step();                               // c6 settle
        }
    }

    template <class Sim, class Rand>
    void run_rounds_dom(Sim& sim, Rand prng) const {
        // DOM is glitch-robust by its register stages; no resets, no
        // arrival-order choreography -- just one enable per layer.
        for (unsigned round = 0; round < kRounds; ++round) {
            pulse(sim, {kStateG, kKeyG});  // c0 (load on round 0)
            pulse(sim, {kSboxInG});        // c1
            pulse(sim, {kLayer1G});        // c2: pair + select DOM stages
            pulse(sim, {kLayer2G});        // c3: triple DOM stages
            pulse(sim, {kMux2G});          // c4: stage-2 DOM stages
            pulse(sim, {kOutG});           // c5
            if (round + 1 < kRounds) prepare_round(sim, round + 1, prng);
            sim.step();                    // c6 settle
        }
    }

    template <class Sim, class Rand>
    void run_rounds_pd(Sim& sim, Rand prng) const {
        for (unsigned round = 0; round < kRounds; ++round) {
            pulse(sim, {kStateG, kKeyG, kSboxInG});  // even edge
            if (round + 1 < kRounds) prepare_round(sim, round + 1, prng);
            pulse(sim, {kMidG});                     // odd edge; controls land
        }
        sim.step();  // final stage-2/3 settle before readout
    }

    // Enable/reset groups (shared by both flavours where applicable).
    static constexpr netlist::CtrlGroup kStateG = 1;
    static constexpr netlist::CtrlGroup kKeyG = 2;
    static constexpr netlist::CtrlGroup kSboxInG = 3;
    static constexpr netlist::CtrlGroup kLayer1G = 4;
    static constexpr netlist::CtrlGroup kLayer2G = 5;
    static constexpr netlist::CtrlGroup kSyncG = 6;
    static constexpr netlist::CtrlGroup kMux2G = 7;
    static constexpr netlist::CtrlGroup kOutG = 8;
    static constexpr netlist::CtrlGroup kRstEarly = 9;
    static constexpr netlist::CtrlGroup kRstLate = 10;
    static constexpr netlist::CtrlGroup kMidG = 4;  // PD: g_mid

    MaskedDesOptions options_;
    std::unique_ptr<Netlist> nl_;
    Bus pt_s0_, pt_s1_, key_s0_, key_s1_, rand_;
    Bus ct_s0_, ct_s1_;
    netlist::NetId load_sel_ = netlist::kNoNet;
    netlist::NetId shift_one_ = netlist::kNoNet;
};

}  // namespace glitchmask::des
