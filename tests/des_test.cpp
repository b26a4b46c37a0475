#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <vector>

#include "core/gadgets.hpp"
#include "core/sharing.hpp"
#include "des/des_reference.hpp"
#include "des/masked_des.hpp"
#include "des/masked_sbox.hpp"
#include "des/sbox_anf.hpp"
#include "sim/clocked.hpp"
#include "sim/compiled_simulator.hpp"
#include "sim/functional.hpp"
#include "support/rng.hpp"

namespace glitchmask::des {
namespace {

using core::MaskedWord;

// ----- reference DES ------------------------------------------------------

TEST(DesReference, ClassicWorkedExample) {
    // The widely used worked example (key 133457799BBCDFF1).
    EXPECT_EQ(encrypt_block(0x0123456789ABCDEFull, 0x133457799BBCDFF1ull),
              0x85E813540F0AB405ull);
}

TEST(DesReference, ZeroCiphertextVector) {
    EXPECT_EQ(encrypt_block(0x8787878787878787ull, 0x0E329232EA6D0D73ull),
              0x0000000000000000ull);
}

TEST(DesReference, DecryptInvertsEncrypt) {
    Xoshiro256 rng(1);
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t pt = rng();
        const std::uint64_t key = rng();
        EXPECT_EQ(decrypt_block(encrypt_block(pt, key), key), pt);
    }
}

TEST(DesReference, IpFpAreInverse) {
    Xoshiro256 rng(2);
    for (int i = 0; i < 20; ++i) {
        const std::uint64_t v = rng();
        EXPECT_EQ(permute(permute(v, table_ip(), 64), table_fp(), 64), v);
    }
}

TEST(DesReference, SubkeysAre48Bits) {
    const auto subkeys = key_schedule(0x133457799BBCDFF1ull);
    std::set<std::uint64_t> unique;
    for (const std::uint64_t k : subkeys) {
        EXPECT_EQ(k >> 48, 0u);
        unique.insert(k);
    }
    EXPECT_EQ(unique.size(), 16u);
    // Worked-example K1 = 000110110000001011101111111111000111000001110010b.
    EXPECT_EQ(subkeys[0], 0x1B02EFFC7072ull);
}

TEST(DesReference, ComplementationProperty) {
    // DES(~p, ~k) == ~DES(p, k).
    Xoshiro256 rng(3);
    for (int i = 0; i < 20; ++i) {
        const std::uint64_t pt = rng();
        const std::uint64_t key = rng();
        EXPECT_EQ(encrypt_block(~pt, ~key), ~encrypt_block(pt, key));
    }
}

TEST(DesReference, TraceIsConsistentWithBlock) {
    const RoundTrace trace =
        encrypt_trace(0x0123456789ABCDEFull, 0x133457799BBCDFF1ull);
    EXPECT_EQ(trace.ciphertext, 0x85E813540F0AB405ull);
    // Worked example: L1 = EF4A6544, R1 = EF4A6544? (R1 known: EF4A6544 is
    // L2).  Check the structural invariant instead: L_{i+1} == R_i.
    for (unsigned round = 0; round < kRounds; ++round)
        EXPECT_EQ(trace.left[round + 1], trace.right[round]);
}

TEST(DesReference, TdesCollapsesToSingleDesWithEqualKeys) {
    Xoshiro256 rng(4);
    for (int i = 0; i < 20; ++i) {
        const std::uint64_t pt = rng();
        const std::uint64_t key = rng();
        EXPECT_EQ(tdes_encrypt(pt, key, key, key), encrypt_block(pt, key));
    }
}

TEST(DesReference, TdesRoundtrip) {
    Xoshiro256 rng(5);
    for (int i = 0; i < 20; ++i) {
        const std::uint64_t pt = rng();
        const std::uint64_t k1 = rng();
        const std::uint64_t k2 = rng();
        const std::uint64_t k3 = rng();
        EXPECT_EQ(tdes_decrypt(tdes_encrypt(pt, k1, k2, k3), k1, k2, k3), pt);
    }
}

// ----- ANF decomposition --------------------------------------------------

class MiniSboxAnfTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(MiniSboxAnfTest, EvaluatesToTableAndDegreeAtMost3) {
    const auto [box, row] = GetParam();
    const MiniSboxAnf anf = mini_sbox_anf(box, row);
    for (unsigned column = 0; column < 16; ++column)
        EXPECT_EQ(eval_mini_anf(anf, static_cast<std::uint8_t>(column)),
                  mini_sbox(box, row, static_cast<std::uint8_t>(column)))
            << "box=" << box << " row=" << row << " col=" << column;
    EXPECT_LE(max_degree(anf), 3);
    // Every nonlinear monomial must come from the fixed set of 10.
    for (const auto& terms : anf.terms)
        for (const std::uint8_t mask : terms)
            if (std::popcount(mask) >= 2)
                EXPECT_NO_THROW((void)product_monomial_index(mask));
}

INSTANTIATE_TEST_SUITE_P(AllMiniSboxes, MiniSboxAnfTest,
                         ::testing::Combine(::testing::Range(0u, 8u),
                                            ::testing::Range(0u, 4u)));

TEST(SboxAnf, TenCanonicalMonomials) {
    const auto monomials = all_product_monomials();
    ASSERT_EQ(monomials.size(), 10u);
    int deg2 = 0;
    int deg3 = 0;
    for (const std::uint8_t mask : monomials) {
        if (std::popcount(mask) == 2) ++deg2;
        if (std::popcount(mask) == 3) ++deg3;
    }
    EXPECT_EQ(deg2, 6);
    EXPECT_EQ(deg3, 4);
    EXPECT_THROW((void)product_monomial_index(0b0001), std::out_of_range);
}

TEST(SboxAnf, MuxReconstructionMatchesFullSbox) {
    // Row select = (b5, b0); mini S-boxes cover the middle bits.
    for (unsigned box = 0; box < 8; ++box) {
        for (unsigned in = 0; in < 64; ++in) {
            const unsigned row = ((in >> 4) & 2u) | (in & 1u);
            const auto column = static_cast<std::uint8_t>((in >> 1) & 0xFu);
            const MiniSboxAnf anf = mini_sbox_anf(box, row);
            EXPECT_EQ(eval_mini_anf(anf, column),
                      sbox(box, static_cast<std::uint8_t>(in)));
        }
    }
}

// ----- masked S-box netlists ----------------------------------------------

struct SboxHarness {
    core::Netlist nl;
    core::SharedBus in;      // primary inputs (6 masked bits)
    core::SharedBus reg_in;  // registered shares fed to the builder
    netlist::Bus rand;
    core::SharedBus out;
};

SboxHarness make_ff_harness(unsigned box) {
    SboxHarness h;
    h.in = core::shared_input_bus(h.nl, "x", 6);
    h.rand = netlist::input_bus(h.nl, "r", kRandomBitsPerSbox);
    h.reg_in.resize(6);
    for (unsigned i = 0; i < 6; ++i)
        h.reg_in[i] = core::reg_shares(h.nl, h.in[i], /*enable=*/1);
    SboxFfGroups groups;
    groups.g_layer1 = 2;
    groups.g_layer2 = 3;
    groups.g_sync = 4;
    groups.g_mux2 = 5;
    groups.g_out = 6;
    groups.rst_early = 7;
    groups.rst_late = 7;
    h.out = build_masked_sbox_ff(h.nl, box, h.reg_in, h.rand, groups);
    h.nl.freeze();
    return h;
}

SboxHarness make_pd_harness(unsigned box, unsigned luts = 2) {
    SboxHarness h;
    h.in = core::shared_input_bus(h.nl, "x", 6);
    h.rand = netlist::input_bus(h.nl, "r", kRandomBitsPerSbox);
    h.reg_in.resize(6);
    for (unsigned i = 0; i < 6; ++i)
        h.reg_in[i] = core::reg_shares(h.nl, h.in[i], /*enable=*/1);
    SboxPdGroups groups;
    groups.g_mid = 2;
    SboxPdOptions options;
    options.luts_per_unit = luts;
    h.out = build_masked_sbox_pd(h.nl, box, h.reg_in, h.rand, groups, options);
    h.nl.freeze();
    return h;
}

std::uint8_t run_ff_sbox(SboxHarness& h, sim::ZeroDelaySim& sim,
                         std::uint8_t value, Xoshiro256& rng) {
    sim.restart();
    for (unsigned i = 0; i < 6; ++i) {
        const core::MaskedBit b = core::mask_bit(((value >> (5 - i)) & 1) != 0, rng);
        sim.set_input(h.in[i].s0, b.s0);
        sim.set_input(h.in[i].s1, b.s1);
    }
    for (const netlist::NetId r : h.rand) sim.set_input(r, rng.bit());
    sim.step();  // stimulus lands
    auto pulse = [&sim](netlist::CtrlGroup g, bool rst = false) {
        sim.set_enable(g, true);
        if (rst) sim.set_reset(7, true);
        sim.step();
        sim.set_enable(g, false);
        if (rst) sim.set_reset(7, false);
    };
    pulse(1, true);  // input registers + gadget reset
    pulse(2);
    sim.set_enable(4, true);
    pulse(3);
    sim.set_enable(4, false);
    pulse(5);
    pulse(6);
    std::uint8_t out = 0;
    for (unsigned bit = 0; bit < 4; ++bit) {
        const bool v = sim.value(h.out[bit].s0) != sim.value(h.out[bit].s1);
        out |= static_cast<std::uint8_t>(v) << (3 - bit);
    }
    return out;
}

std::uint8_t run_pd_sbox(SboxHarness& h, sim::ZeroDelaySim& sim,
                         std::uint8_t value, Xoshiro256& rng) {
    sim.restart();
    for (unsigned i = 0; i < 6; ++i) {
        const core::MaskedBit b = core::mask_bit(((value >> (5 - i)) & 1) != 0, rng);
        sim.set_input(h.in[i].s0, b.s0);
        sim.set_input(h.in[i].s1, b.s1);
    }
    for (const netlist::NetId r : h.rand) sim.set_input(r, rng.bit());
    sim.step();  // stimulus lands
    sim.set_enable(1, true);
    sim.step();
    sim.set_enable(1, false);
    sim.set_enable(2, true);
    sim.step();
    sim.set_enable(2, false);
    sim.step();  // stage 2/3 settle (zero-delay: values already final)
    std::uint8_t out = 0;
    for (unsigned bit = 0; bit < 4; ++bit) {
        const bool v = sim.value(h.out[bit].s0) != sim.value(h.out[bit].s1);
        out |= static_cast<std::uint8_t>(v) << (3 - bit);
    }
    return out;
}

class MaskedSboxTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MaskedSboxTest, FfFlavourMatchesTableExhaustively) {
    const unsigned box = GetParam();
    SboxHarness h = make_ff_harness(box);
    sim::ZeroDelaySim sim(h.nl);
    Xoshiro256 rng(10 + box);
    for (unsigned value = 0; value < 64; ++value)
        EXPECT_EQ(run_ff_sbox(h, sim, static_cast<std::uint8_t>(value), rng),
                  sbox(box, static_cast<std::uint8_t>(value)))
            << "box=" << box << " in=" << value;
}

TEST_P(MaskedSboxTest, PdFlavourMatchesTableExhaustively) {
    const unsigned box = GetParam();
    SboxHarness h = make_pd_harness(box);
    sim::ZeroDelaySim sim(h.nl);
    Xoshiro256 rng(20 + box);
    for (unsigned value = 0; value < 64; ++value)
        EXPECT_EQ(run_pd_sbox(h, sim, static_cast<std::uint8_t>(value), rng),
                  sbox(box, static_cast<std::uint8_t>(value)))
            << "box=" << box << " in=" << value;
}

INSTANTIATE_TEST_SUITE_P(AllBoxes, MaskedSboxTest, ::testing::Range(0u, 8u));

TEST(MaskedSbox, FfUsesThirtySecand2) {
    SboxHarness h = make_ff_harness(0);
    // 30 secAND2 gadgets, each with exactly two SecAnd3 output cells.
    const auto hist = h.nl.kind_histogram();
    EXPECT_EQ(hist[static_cast<std::size_t>(netlist::CellKind::SecAnd3)],
              2u * kSecand2PerSbox);
}

TEST(MaskedSbox, PdRegistersCoupledChains) {
    SboxHarness h = make_pd_harness(0, /*luts=*/2);
    EXPECT_GT(h.nl.coupled_pairs().size(), 0u);
}

// ----- full masked DES cores ----------------------------------------------

TEST(MaskedDes, FfCoreMatchesReferenceZeroDelay) {
    const MaskedDesCore core(MaskedDesOptions{.flavor = CoreFlavor::FF});
    sim::ZeroDelaySim sim(core.nl());
    Xoshiro256 rng(30);
    // Known vector first.
    sim.restart();
    EXPECT_EQ(core.encrypt_value(sim, 0x0123456789ABCDEFull,
                                 0x133457799BBCDFF1ull, &rng),
              0x85E813540F0AB405ull);
    for (int i = 0; i < 6; ++i) {
        const std::uint64_t pt = rng();
        const std::uint64_t key = rng();
        sim.restart();
        EXPECT_EQ(core.encrypt_value(sim, pt, key, &rng),
                  encrypt_block(pt, key))
            << "i=" << i;
    }
}

TEST(MaskedDes, PdCoreMatchesReferenceZeroDelay) {
    const MaskedDesCore core(MaskedDesOptions{.flavor = CoreFlavor::PD,
                                              .delayunit_luts = 1});
    sim::ZeroDelaySim sim(core.nl());
    Xoshiro256 rng(31);
    sim.restart();
    EXPECT_EQ(core.encrypt_value(sim, 0x0123456789ABCDEFull,
                                 0x133457799BBCDFF1ull, &rng),
              0x85E813540F0AB405ull);
    for (int i = 0; i < 6; ++i) {
        const std::uint64_t pt = rng();
        const std::uint64_t key = rng();
        sim.restart();
        EXPECT_EQ(core.encrypt_value(sim, pt, key, &rng),
                  encrypt_block(pt, key))
            << "i=" << i;
    }
}

TEST(MaskedDes, PrngOffStillEncryptsCorrectly) {
    const MaskedDesCore core(MaskedDesOptions{.flavor = CoreFlavor::FF});
    sim::ZeroDelaySim sim(core.nl());
    sim.restart();
    EXPECT_EQ(core.encrypt_value(sim, 0x0123456789ABCDEFull,
                                 0x133457799BBCDFF1ull, nullptr),
              0x85E813540F0AB405ull);
}

TEST(MaskedDes, SharesActuallyMaskTheCiphertext) {
    const MaskedDesCore core(MaskedDesOptions{.flavor = CoreFlavor::FF});
    sim::ZeroDelaySim sim(core.nl());
    Xoshiro256 rng(32);
    sim.restart();
    const MaskedWord pt = core::mask_word(0x0123456789ABCDEFull, 64, rng);
    const MaskedWord key = core::mask_word(0x133457799BBCDFF1ull, 64, rng);
    const MaskedWord ct = core.encrypt(sim, pt, key, &rng);
    EXPECT_EQ(ct.value(), 0x85E813540F0AB405ull);
    EXPECT_NE(ct.s0, 0u);  // share 0 is a nontrivial mask
    EXPECT_NE(ct.s0, ct.value());
}

TEST(MaskedDes, FfCoreMatchesReferenceUnderTiming) {
    const MaskedDesCore core(MaskedDesOptions{.flavor = CoreFlavor::FF});
    const sim::DelayModel dm(core.nl(), sim::DelayConfig::spartan6());
    sim::ClockConfig clock;
    clock.period_ps = core.recommended_period();
    sim::ClockedSim sim(core.nl(), dm, clock);
    Xoshiro256 rng(33);
    for (int i = 0; i < 2; ++i) {
        const std::uint64_t pt = rng();
        const std::uint64_t key = rng();
        sim.restart();
        EXPECT_EQ(core.encrypt_value(sim, pt, key, &rng),
                  encrypt_block(pt, key))
            << "i=" << i;
    }
}

TEST(MaskedDes, PdCoreMatchesReferenceUnderTiming) {
    const MaskedDesCore core(MaskedDesOptions{.flavor = CoreFlavor::PD,
                                              .delayunit_luts = 10});
    const sim::DelayModel dm(core.nl(), sim::DelayConfig::spartan6());
    sim::ClockConfig clock;
    clock.period_ps = core.recommended_period();
    sim::ClockedSim sim(core.nl(), dm, clock);
    Xoshiro256 rng(34);
    const std::uint64_t pt = rng();
    const std::uint64_t key = rng();
    sim.restart();
    EXPECT_EQ(core.encrypt_value(sim, pt, key, &rng), encrypt_block(pt, key));
}

TEST(MaskedDes, BatchEncryptMatchesScalarPerLane) {
    const MaskedDesCore core(MaskedDesOptions{.flavor = CoreFlavor::FF});
    const sim::DelayModel dm(core.nl(), sim::DelayConfig::spartan6());
    sim::ClockConfig clock;
    clock.period_ps = core.recommended_period();

    constexpr unsigned kCount = 5;
    std::vector<MaskedWord> pts, keys;
    std::vector<Xoshiro256> prngs;
    Xoshiro256 rng(77);
    for (unsigned lane = 0; lane < kCount; ++lane) {
        pts.push_back(core::mask_word(rng(), 64, rng));
        keys.push_back(core::mask_word(rng(), 64, rng));
        prngs.emplace_back(rng());
    }

    // Scalar references, each lane from a copy of its refresh generator.
    sim::ClockedSim scalar(core.nl(), dm, clock);
    std::vector<MaskedWord> want;
    for (unsigned lane = 0; lane < kCount; ++lane) {
        Xoshiro256 prng = prngs[lane];
        scalar.restart();
        want.push_back(core.encrypt(scalar, pts[lane], keys[lane], &prng));
    }

    sim::CompiledClockedSim batch(core.nl(), dm, sim::kBatchLanes, clock);
    batch.restart();
    const std::vector<MaskedWord> got =
        core.encrypt_batch_chunks(batch, pts, keys, prngs);
    ASSERT_EQ(got.size(), kCount);
    for (unsigned lane = 0; lane < kCount; ++lane) {
        EXPECT_EQ(got[lane].s0, want[lane].s0) << "lane " << lane;
        EXPECT_EQ(got[lane].s1, want[lane].s1) << "lane " << lane;
        EXPECT_EQ(got[lane].value(),
                  encrypt_block(pts[lane].value(), keys[lane].value()))
            << "lane " << lane;
    }
    // Unused lanes ran the all-zero stimulus with refresh off, so their
    // unmasked ciphertext is DES(0, 0).
    const unsigned unused = kCount;
    std::uint64_t ct0 = 0, ct1 = 0;
    const netlist::Bus& s0 = core.ct_s0();
    const netlist::Bus& s1 = core.ct_s1();
    for (std::size_t i = 0; i < s0.size(); ++i) {
        if (batch.value(s0[i], unused)) ct0 |= std::uint64_t{1} << (63 - i);
        if (batch.value(s1[i], unused)) ct1 |= std::uint64_t{1} << (63 - i);
    }
    EXPECT_EQ(ct0 ^ ct1, encrypt_block(0, 0));
}

TEST(MaskedDes, StructuralCounts) {
    const MaskedDesCore ff(MaskedDesOptions{.flavor = CoreFlavor::FF});
    EXPECT_EQ(ff.cycles_per_round(), 7u);
    EXPECT_EQ(ff.total_cycles(), 113u);
    const MaskedDesCore pd(MaskedDesOptions{.flavor = CoreFlavor::PD,
                                            .delayunit_luts = 1});
    EXPECT_EQ(pd.cycles_per_round(), 2u);
    EXPECT_EQ(pd.total_cycles(), 34u);
    EXPECT_EQ(ff.random_bits_per_round(), 14u);
}

// ----- DOM baseline --------------------------------------------------------

SboxHarness make_dom_harness(unsigned box) {
    SboxHarness h;
    h.in = core::shared_input_bus(h.nl, "x", 6);
    h.rand = netlist::input_bus(h.nl, "r", kDomRandomBitsPerSbox);
    h.reg_in.resize(6);
    for (unsigned i = 0; i < 6; ++i)
        h.reg_in[i] = core::reg_shares(h.nl, h.in[i], /*enable=*/1);
    SboxDomGroups groups;
    groups.g_dom1 = 2;
    groups.g_dom2 = 3;
    groups.g_dom3 = 4;
    groups.g_out = 5;
    h.out = build_masked_sbox_dom(h.nl, box, h.reg_in, h.rand, groups);
    h.nl.freeze();
    return h;
}

std::uint8_t run_dom_sbox(SboxHarness& h, sim::ZeroDelaySim& sim,
                          std::uint8_t value, Xoshiro256& rng) {
    sim.restart();
    for (unsigned i = 0; i < 6; ++i) {
        const core::MaskedBit b =
            core::mask_bit(((value >> (5 - i)) & 1) != 0, rng);
        sim.set_input(h.in[i].s0, b.s0);
        sim.set_input(h.in[i].s1, b.s1);
    }
    for (const netlist::NetId r : h.rand) sim.set_input(r, rng.bit());
    sim.step();  // stimulus lands
    for (const netlist::CtrlGroup g : {1, 2, 3, 4, 5}) {
        sim.set_enable(g, true);
        sim.step();
        sim.set_enable(g, false);
    }
    std::uint8_t out = 0;
    for (unsigned bit = 0; bit < 4; ++bit) {
        const bool v = sim.value(h.out[bit].s0) != sim.value(h.out[bit].s1);
        out |= static_cast<std::uint8_t>(v) << (3 - bit);
    }
    return out;
}

TEST_P(MaskedSboxTest, DomFlavourMatchesTableExhaustively) {
    const unsigned box = GetParam();
    SboxHarness h = make_dom_harness(box);
    sim::ZeroDelaySim sim(h.nl);
    Xoshiro256 rng(40 + box);
    for (unsigned value = 0; value < 64; ++value)
        EXPECT_EQ(run_dom_sbox(h, sim, static_cast<std::uint8_t>(value), rng),
                  sbox(box, static_cast<std::uint8_t>(value)))
            << "box=" << box << " in=" << value;
}

TEST(MaskedDes, DomCoreMatchesReferenceZeroDelay) {
    const MaskedDesCore core(MaskedDesOptions{.flavor = CoreFlavor::DOM});
    EXPECT_EQ(core.random_bits_per_round(), 30u);
    EXPECT_EQ(core.cycles_per_round(), 7u);
    sim::ZeroDelaySim sim(core.nl());
    Xoshiro256 rng(41);
    sim.restart();
    EXPECT_EQ(core.encrypt_value(sim, 0x0123456789ABCDEFull,
                                 0x133457799BBCDFF1ull, &rng),
              0x85E813540F0AB405ull);
    for (int i = 0; i < 4; ++i) {
        const std::uint64_t pt = rng();
        const std::uint64_t key = rng();
        sim.restart();
        EXPECT_EQ(core.encrypt_value(sim, pt, key, &rng),
                  encrypt_block(pt, key))
            << "i=" << i;
    }
}

TEST(MaskedDes, DomCoreMatchesReferenceUnderTiming) {
    const MaskedDesCore core(MaskedDesOptions{.flavor = CoreFlavor::DOM});
    const sim::DelayModel dm(core.nl(), sim::DelayConfig::spartan6());
    sim::ClockConfig clock;
    clock.period_ps = core.recommended_period();
    sim::ClockedSim sim(core.nl(), dm, clock);
    Xoshiro256 rng(42);
    const std::uint64_t pt = rng();
    const std::uint64_t key = rng();
    sim.restart();
    EXPECT_EQ(core.encrypt_value(sim, pt, key, &rng), encrypt_block(pt, key));
}

}  // namespace
}  // namespace glitchmask::des
