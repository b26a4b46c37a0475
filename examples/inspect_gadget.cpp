// Inspect any zoo gadget like an EDA tool would: structural Verilog
// export, Graphviz schematic, static timing, value-domain probing -- and,
// with --attribute, *where* the leak lives: a sharded TVLA campaign with
// per-net attribution prints the ranked culprit table (gate instance,
// gadget role, max |t|, glitch density), writes the annotated netlist
// (DOT heat-colored by rank + CSV heatmap), and dumps a single-trace VCD
// with a glitch-marker companion signal on the top culprit.
//
//   inspect_gadget [gadget] [--attribute] [--top-k <n>]
//                  [--progress[=s]] [--report <path>]
//
// gadget: naive | ff | pd | trichina | dom-indep | dom-dep (default pd).
// Try `inspect_gadget trichina --attribute`: the top-ranked net is the
// unprotected cross-domain product chain the paper blames.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "eval/gadget_tvla.hpp"
#include "leakage/attribution.hpp"
#include "leakage/probing.hpp"
#include "netlist/area.hpp"
#include "netlist/export.hpp"
#include "netlist/lutmap.hpp"
#include "sim/vcd.hpp"
#include "support/cli.hpp"

using namespace glitchmask;

int main(int argc, char** argv) {
    const CliOptions cli = parse_cli(argc, argv, /*allow_positional=*/true);

    eval::GadgetKind kind = eval::GadgetKind::Pd;
    if (!cli.positional.empty()) {
        const auto parsed = eval::parse_gadget(cli.positional[0]);
        if (!parsed) {
            std::fprintf(stderr, "unknown gadget '%s'; expected one of:",
                         cli.positional[0].c_str());
            for (const eval::GadgetKind g : eval::kAllGadgets)
                std::fprintf(stderr, " %s", eval::gadget_name(g));
            std::fprintf(stderr, "\n");
            return 2;
        }
        kind = *parsed;
    }
    const std::string name = eval::gadget_name(kind);
    std::string ident = name;  // filename/module stem: '-' is not Verilog
    for (char& c : ident)
        if (c == '-') c = '_';

    eval::GadgetTvlaConfig config;
    config.gadget = kind;
    config.run.attribution = cli.attribute;
    config.run.attribution_top_k = cli.top_k;
    config.run.report_path = cli.report_path;

    std::printf("Inspecting %s (zoo harness: %u replicas)\n\n", name.c_str(),
                config.replicas);
    const eval::GadgetHarness harness(kind, config.replicas,
                                      config.placement_seed);
    const netlist::Netlist& nl = harness.nl();

    // Structure and cost.
    const auto luts = netlist::estimate_luts(nl);
    std::printf(
        "cells: %zu   LUT estimate: %zu (of which %zu delay)   FFs: %zu\n",
        nl.size(), luts.luts, luts.delay_luts, luts.ffs);
    std::printf("GE (delay chains as 12 INV per LUT): %.1f\n",
                netlist::total_ge(
                    nl, netlist::AreaModel::nangate45_with_delay_inverters(12)));

    // Timing on the campaign's own placement.
    const sim::CriticalPath critical = sim::analyze_timing(nl, harness.delay_model());
    std::printf("critical path: %.1f ns  -> max %.0f MHz\n",
                critical.delay_ps / 1000.0, critical.max_freq_mhz);

    // Value-domain probing on a single replica (exhaustive over the share
    // and fresh inputs; value-domain security says nothing about glitches,
    // which is exactly the gap attribution makes visible).
    {
        const eval::GadgetCircuit one = eval::build_gadget_circuit(kind, 1);
        leakage::ProbingAnalyzer probing(one.nl, {one.x_in, one.y_in},
                                         one.rand_in);
        std::printf("probing (value domain): %s\n",
                    probing.first_order_secure()
                        ? "every wire first-order independent"
                        : "FIRST-ORDER VIOLATION");
    }

    // Structural exports.
    netlist::write_verilog(nl, ident + ".v", ident);
    {
        std::ofstream dot(ident + ".dot");
        dot << netlist::to_dot(nl);
    }
    std::printf("wrote %s.v and %s.dot\n\n", ident.c_str(), ident.c_str());

    // The campaign itself (deterministic, sharded, crash-safe).
    const eval::GadgetTvlaResult result = eval::run_gadget_tvla(config);
    std::printf("TVLA, %zu traces: max|t1| = %.2f @ cycle %zu,"
                " max|t2| = %.2f -> %s\n",
                result.progress.completed_traces, result.max_abs_t1,
                result.argmax_cycle, result.max_abs_t2,
                result.leaks_first_order ? "LEAKS (1st order)" : "clean");

    if (!cli.attribute) {
        std::printf("\nRe-run with --attribute to rank the culprit nets.\n");
        return 0;
    }

    // Where the leak lives.
    std::printf("\n");
    leakage::print_culprit_table(result.attribution, cli.top_k);
    leakage::write_attribution_csv(ident + "_attribution.csv",
                                   result.attribution);
    {
        std::ofstream dot(ident + "_annotated.dot");
        dot << leakage::attribution_dot(nl, result.attribution, cli.top_k);
    }
    std::printf("wrote %s_attribution.csv and %s_annotated.dot"
                " (heat-colored by |t| rank)\n",
                ident.c_str(), ident.c_str());

    // Single-trace waveform with the glitch marker on the top culprit.
    if (!result.attribution.ranked.empty()) {
        const leakage::NetAttribution& top = result.attribution.ranked.front();
        const eval::GadgetCircuit& circuit = harness.circuit();
        std::vector<netlist::NetId> watch = {circuit.x_in.s0, circuit.x_in.s1,
                                             circuit.y_in.s0, circuit.y_in.s1};
        const std::size_t shown =
            std::min<std::size_t>(cli.top_k, result.attribution.ranked.size());
        for (std::size_t i = 0; i < shown; ++i)
            watch.push_back(result.attribution.ranked[i].net);

        sim::ClockedSim sim(nl, harness.delay_model(), harness.clock());
        sim::VcdWriter vcd(
            nl, ident + ".vcd", watch,
            sim::GlitchMarkerConfig{top.net, harness.clock().period_ps});
        vcd.dump_initial(sim.engine());
        sim.engine().set_sink(&vcd);
        const eval::GadgetStimulus stim =
            eval::gadget_stimulus(harness.fresh_bits(), config.seed, 0);
        harness.drive(sim, stim);
        vcd.close();
        std::printf("wrote %s.vcd -- %s_glitchmark flags %s's glitch windows\n",
                    ident.c_str(), top.name.c_str(), top.name.c_str());
    }

    // Exit status mirrors the verdict so scripts can gate on it: the
    // protected gadgets must come out clean.
    const bool expect_leak = kind == eval::GadgetKind::Naive ||
                             kind == eval::GadgetKind::Trichina;
    return result.leaks_first_order == expect_leak ? 0 : 1;
}
