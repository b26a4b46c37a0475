#include "des/masked_des.hpp"

#include <string>

#include "des/des_reference.hpp"

namespace glitchmask::des {

namespace {

using netlist::kNoNet;
using netlist::NetId;

/// Pure wiring: output bit i aliases input bit table[i]-1 (both MSB-first).
Bus wire_perm(const Bus& in, std::span<const std::uint8_t> table) {
    Bus out(table.size());
    for (std::size_t i = 0; i < table.size(); ++i) out[i] = in[table[i] - 1];
    return out;
}

Bus concat(const Bus& a, const Bus& b) {
    Bus out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
}

Bus slice(const Bus& in, std::size_t begin, std::size_t count) {
    return Bus(in.begin() + static_cast<std::ptrdiff_t>(begin),
               in.begin() + static_cast<std::ptrdiff_t>(begin + count));
}

/// Left rotation as wiring (MSB-first bus).
Bus rotl_wire(const Bus& in, unsigned amount) {
    Bus out(in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        out[i] = in[(i + amount) % in.size()];
    return out;
}

Bus xor_wire(Netlist& nl, const Bus& a, const Bus& b) {
    Bus out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = nl.xor2(a[i], b[i]);
    return out;
}

/// out[i] = sel ? when1[i] : when0[i].
Bus mux_wire(Netlist& nl, const Bus& when0, const Bus& when1, NetId sel) {
    Bus out(when0.size());
    for (std::size_t i = 0; i < when0.size(); ++i)
        out[i] = nl.mux2(when0[i], when1[i], sel);
    return out;
}

}  // namespace

MaskedDesCore::MaskedDesCore(const MaskedDesOptions& options)
    : options_(options), nl_(std::make_unique<Netlist>()) {
    build();
}

void MaskedDesCore::build() {
    Netlist& nl = *nl_;
    pt_s0_ = netlist::input_bus(nl, "pt_s0", 64);
    pt_s1_ = netlist::input_bus(nl, "pt_s1", 64);
    key_s0_ = netlist::input_bus(nl, "key_s0", 64);
    key_s1_ = netlist::input_bus(nl, "key_s1", 64);
    const std::size_t per_sbox = options_.flavor == CoreFlavor::DOM
                                     ? kDomRandomBitsPerSbox
                                     : kRandomBitsPerSbox;
    rand_ = netlist::input_bus(
        nl, "rand", options_.recycle_randomness ? per_sbox : 8 * per_sbox);
    load_sel_ = nl.input("load_sel");
    shift_one_ = nl.input("shift_one");
    build_datapath();
    nl.freeze();
}

void MaskedDesCore::build_datapath() {
    Netlist& nl = *nl_;
    const bool pd = options_.flavor == CoreFlavor::PD;

    struct ShareSide {
        Bus L, R, C, D;          // register Q nets
        Bus ip_left, ip_right;   // IP wiring of the plaintext share
        Bus subkey;              // PC2 output feeding the S-box input path
        Bus sbin;                // S-box input register Q nets (48)
    };
    std::array<ShareSide, 2> side{};

    // Registers and key schedule per share.
    for (unsigned s = 0; s < 2; ++s) {
        Netlist::Scope scope(nl, "share" + std::to_string(s));
        ShareSide& sh = side[s];
        const Bus& pt = (s == 0) ? pt_s0_ : pt_s1_;
        const Bus& key = (s == 0) ? key_s0_ : key_s1_;

        const Bus ip = wire_perm(pt, table_ip());
        sh.ip_left = slice(ip, 0, 32);
        sh.ip_right = slice(ip, 32, 32);

        sh.L = netlist::register_bank_floating(nl, 32, kStateG,
                                               netlist::kAlwaysEnabled, "L");
        sh.R = netlist::register_bank_floating(nl, 32, kStateG,
                                               netlist::kAlwaysEnabled, "R");
        sh.sbin = netlist::register_bank_floating(
            nl, 48, kSboxInG, netlist::kAlwaysEnabled, "sbin");

        // Masked key schedule: C/D rotation registers with a load mux and
        // a shift-by-1/2 select; all wiring is linear and share-wise.
        Netlist::Scope key_scope(nl, "keysched");
        const Bus cd = wire_perm(key, table_pc1());
        sh.C = netlist::register_bank_floating(nl, 28, kKeyG,
                                               netlist::kAlwaysEnabled, "C");
        sh.D = netlist::register_bank_floating(nl, 28, kKeyG,
                                               netlist::kAlwaysEnabled, "D");
        const Bus base_c = mux_wire(nl, sh.C, slice(cd, 0, 28), load_sel_);
        const Bus base_d = mux_wire(nl, sh.D, slice(cd, 28, 28), load_sel_);
        const Bus c_next =
            mux_wire(nl, rotl_wire(base_c, 2), rotl_wire(base_c, 1), shift_one_);
        const Bus d_next =
            mux_wire(nl, rotl_wire(base_d, 2), rotl_wire(base_d, 1), shift_one_);
        for (std::size_t i = 0; i < 28; ++i) {
            nl.connect_flop(sh.C[i], c_next[i]);
            nl.connect_flop(sh.D[i], d_next[i]);
        }
        // FF core: subkey from the registered C/D (sampled one cycle
        // before the S-box input register).  PD core: the S-box input
        // register samples at the same edge as C/D, so it taps the
        // combinational next-key value instead (Fig. 9b timing).
        sh.subkey = pd ? wire_perm(concat(c_next, d_next), table_pc2())
                       : wire_perm(concat(sh.C, sh.D), table_pc2());
    }

    // Substitution layer: 8 masked S-boxes on the registered inputs,
    // sharing the 14 random nets.
    std::array<Bus, 2> sout{Bus(32, kNoNet), Bus(32, kNoNet)};
    for (unsigned box = 0; box < 8; ++box) {
        SharedBus in(6);
        for (unsigned bit = 0; bit < 6; ++bit)
            in[bit] = SharedNet{side[0].sbin[box * 6 + bit],
                                side[1].sbin[box * 6 + bit]};
        const std::size_t per_sbox = options_.flavor == CoreFlavor::DOM
                                         ? kDomRandomBitsPerSbox
                                         : kRandomBitsPerSbox;
        const std::size_t rand_base =
            options_.recycle_randomness ? 0 : box * per_sbox;
        const std::span<const NetId> sbox_rand{rand_.data() + rand_base,
                                               per_sbox};
        SharedBus out;
        if (options_.flavor == CoreFlavor::DOM) {
            SboxDomGroups groups;
            groups.g_dom1 = kLayer1G;
            groups.g_dom2 = kLayer2G;
            groups.g_dom3 = kMux2G;
            groups.g_out = kOutG;
            out = build_masked_sbox_dom(nl, box, in, sbox_rand, groups);
        } else if (pd) {
            SboxPdGroups groups;
            groups.g_mid = kMidG;
            SboxPdOptions sbox_options;
            sbox_options.luts_per_unit = options_.delayunit_luts;
            sbox_options.couple_adjacent = options_.couple_adjacent;
            out = build_masked_sbox_pd(nl, box, in, sbox_rand, groups,
                                       sbox_options);
        } else {
            SboxFfGroups groups;
            groups.g_layer1 = kLayer1G;
            groups.g_layer2 = kLayer2G;
            groups.g_sync = kSyncG;
            groups.g_mux2 = kMux2G;
            groups.g_out = kOutG;
            groups.rst_early = kRstEarly;
            groups.rst_late = kRstLate;
            out = build_masked_sbox_ff(nl, box, in, sbox_rand, groups);
        }
        for (unsigned bit = 0; bit < 4; ++bit) {
            sout[0][box * 4 + bit] = out[bit].s0;
            sout[1][box * 4 + bit] = out[bit].s1;
        }
    }

    // Linear round feedback, S-box input path, and ciphertext per share.
    for (unsigned s = 0; s < 2; ++s) {
        Netlist::Scope scope(nl, "share" + std::to_string(s));
        ShareSide& sh = side[s];
        const Bus f_out = wire_perm(sout[s], table_p());
        const Bus r_feedback = xor_wire(nl, f_out, sh.L);
        const Bus r_next = mux_wire(nl, r_feedback, sh.ip_right, load_sel_);
        const Bus l_next = mux_wire(nl, sh.R, sh.ip_left, load_sel_);
        for (std::size_t i = 0; i < 32; ++i) {
            nl.connect_flop(sh.L[i], l_next[i]);
            nl.connect_flop(sh.R[i], r_next[i]);
        }

        // S-box input register D pins: E(R?) xor K.  The FF core reads the
        // state register (one cycle earlier); the PD core reads the
        // combinational feedback so the input register can sample at the
        // state-update edge itself (S-box output -> input register direct).
        const Bus r_for_sbox = pd ? r_next : sh.R;
        const Bus expanded = wire_perm(r_for_sbox, table_e());
        const Bus keyed = xor_wire(nl, expanded, sh.subkey);
        for (std::size_t i = 0; i < 48; ++i)
            nl.connect_flop(sh.sbin[i], keyed[i]);

        // Ciphertext: FP(R16 || L16), R16 = combinational feedback,
        // L16 = the R register (holding R15 after the last round).
        const Bus preoutput = concat(r_next, sh.R);
        Bus& ct = (s == 0) ? ct_s0_ : ct_s1_;
        ct = wire_perm(preoutput, table_fp());
    }
}

}  // namespace glitchmask::des
