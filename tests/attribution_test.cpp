// Per-net leakage attribution (leakage/attribution.hpp) end to end.
//
// The determinism contract mirrors the trace campaign's and is asserted
// the same way: EXPECT_EQ on raw doubles, never EXPECT_NEAR.  Worker
// counts, scalar-vs-bitsliced engines, and SIGKILL-resume must all
// produce the identical AttributionResult, and enabling attribution must
// not move the power statistics by a single bit.
//
// The golden ranking test pins the paper's spatial claim: Trichina's top
// culprit is the XOR-chain net accumulating the cross-domain product
// (g*/c1, |t| far above 4.5) while no secAND2-FF net comes anywhere near
// the threshold.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "des/masked_des.hpp"
#include "eval/des_experiments.hpp"
#include "eval/gadget_tvla.hpp"
#include "eval/run_report.hpp"
#include "leakage/attribution.hpp"
#include "leakage/ttest.hpp"
#include "sim/vcd.hpp"
#include "support/atomic_file.hpp"
#include "support/campaign_error.hpp"
#include "support/cancel.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/snapshot.hpp"

namespace glitchmask::eval {
namespace {

std::string temp_path(const std::string& name) {
    const std::string path = ::testing::TempDir() + "glitchmask_" + name;
    std::remove(path.c_str());
    return path;
}

GadgetTvlaConfig small_gadget_campaign(GadgetKind kind) {
    GadgetTvlaConfig config;
    config.gadget = kind;
    config.traces = 512;
    config.seed = 11;
    config.block_size = 64;
    config.workers = 2;
    config.lanes = 64;
    config.run.attribution = true;
    return config;
}

// ----- accumulator algebra ------------------------------------------------

leakage::AttributionAccumulator synthetic_acc(std::uint64_t salt) {
    leakage::AttributionAccumulator acc(3);
    acc.traces_fixed = 10 + salt;
    acc.traces_random = 20 + salt;
    for (std::size_t i = 0; i < acc.size(); ++i) {
        leakage::PointStats& p = acc.point(i);
        p.sum_fixed = 1.5 * static_cast<double>(i + salt);
        p.sumsq_fixed = 2.25 * static_cast<double>(i + salt);
        p.sum_random = 0.5 * static_cast<double>(i) + static_cast<double>(salt);
        p.sumsq_random = static_cast<double>(i * i + salt);
        p.toggles = 100 * (i + 1) + salt;
        p.glitches = 7 * i + salt;
    }
    return acc;
}

TEST(AttributionAccumulator, MergeIsComponentwiseAddition) {
    const leakage::AttributionAccumulator a = synthetic_acc(1);
    const leakage::AttributionAccumulator b = synthetic_acc(41);

    leakage::AttributionAccumulator merged = a;
    merged.merge(b);

    EXPECT_EQ(merged.traces_fixed, a.traces_fixed + b.traces_fixed);
    EXPECT_EQ(merged.traces_random, a.traces_random + b.traces_random);
    for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged.point(i).sum_fixed,
                  a.point(i).sum_fixed + b.point(i).sum_fixed);
        EXPECT_EQ(merged.point(i).sumsq_random,
                  a.point(i).sumsq_random + b.point(i).sumsq_random);
        EXPECT_EQ(merged.point(i).toggles,
                  a.point(i).toggles + b.point(i).toggles);
        EXPECT_EQ(merged.point(i).glitches,
                  a.point(i).glitches + b.point(i).glitches);
    }

    // Merging a default (zero-point) accumulator into itself is the
    // disabled path; it must stay empty and not throw.
    leakage::AttributionAccumulator off;
    off.merge(leakage::AttributionAccumulator{});
    EXPECT_FALSE(off.enabled());

    // Point-count mismatches are config bugs, not silent truncation.
    leakage::AttributionAccumulator wrong(2);
    EXPECT_THROW(wrong.merge(a), std::exception);
}

TEST(AttributionAccumulator, SnapshotRoundTripIsExactOverFullRange) {
    leakage::AttributionAccumulator acc(2);
    // Full-range u64 counters and awkward FP bit patterns: the encoding
    // must be exact, not printf-shaped.
    acc.traces_fixed = std::numeric_limits<std::uint64_t>::max();
    acc.traces_random = std::numeric_limits<std::uint64_t>::max() - 1;
    acc.point(0).sum_fixed = -0.0;
    acc.point(0).sumsq_fixed = std::numeric_limits<double>::denorm_min();
    acc.point(0).sum_random = 0x1.fffffffffffffp+1023;  // DBL_MAX
    acc.point(0).sumsq_random = 1.0 / 3.0;
    acc.point(0).toggles = std::numeric_limits<std::uint64_t>::max();
    acc.point(0).glitches = (1ull << 53) + 1;  // not double-representable
    acc.point(1).sum_fixed = 1e-300;
    acc.point(1).toggles = 0;

    SnapshotWriter out;
    acc.encode(out);
    const std::vector<std::uint8_t> sealed = std::move(out).finish();
    SnapshotReader in(sealed);
    const leakage::AttributionAccumulator back =
        leakage::AttributionAccumulator::decode(in);

    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(back, acc);  // defaulted ==: every field, exact
    EXPECT_TRUE(std::signbit(back.point(0).sum_fixed));
}

// ----- campaign determinism ----------------------------------------------

void expect_identical_attribution(const leakage::AttributionResult& a,
                                  const leakage::AttributionResult& b,
                                  const std::string& label) {
    ASSERT_EQ(a.enabled, b.enabled) << label;
    EXPECT_EQ(a.traces_fixed, b.traces_fixed) << label;
    EXPECT_EQ(a.traces_random, b.traces_random) << label;
    ASSERT_EQ(a.ranked.size(), b.ranked.size()) << label;
    for (std::size_t i = 0; i < a.ranked.size(); ++i)
        EXPECT_EQ(a.ranked[i], b.ranked[i]) << label << " rank " << i;
    EXPECT_EQ(a.abs_t, b.abs_t) << label;
    EXPECT_EQ(a.window_glitches, b.window_glitches) << label;
}

TEST(AttributionCampaign, WorkerCountInvariance) {
    GadgetTvlaConfig one = small_gadget_campaign(GadgetKind::Trichina);
    one.workers = 1;
    GadgetTvlaConfig four = small_gadget_campaign(GadgetKind::Trichina);
    four.workers = 4;

    const GadgetTvlaResult r1 = run_gadget_tvla(one);
    const GadgetTvlaResult r4 = run_gadget_tvla(four);
    EXPECT_EQ(r1.max_abs_t1, r4.max_abs_t1);
    expect_identical_attribution(r1.attribution, r4.attribution,
                                 "1 vs 4 workers");
}

TEST(AttributionCampaign, ScalarAndBitslicedEnginesAreBitIdentical) {
    GadgetTvlaConfig scalar = small_gadget_campaign(GadgetKind::Trichina);
    scalar.lanes = 1;
    GadgetTvlaConfig batch = small_gadget_campaign(GadgetKind::Trichina);
    batch.lanes = 64;

    const GadgetTvlaResult rs = run_gadget_tvla(scalar);
    const GadgetTvlaResult rb = run_gadget_tvla(batch);
    EXPECT_EQ(rs.max_abs_t1, rb.max_abs_t1);
    EXPECT_EQ(rs.max_abs_t2, rb.max_abs_t2);
    expect_identical_attribution(rs.attribution, rb.attribution,
                                 "scalar vs 64-lane");
}

TEST(AttributionCampaign, AttributionDoesNotPerturbPowerStatistics) {
    GadgetTvlaConfig off = small_gadget_campaign(GadgetKind::Trichina);
    off.run.attribution = false;
    GadgetTvlaConfig on = small_gadget_campaign(GadgetKind::Trichina);

    const GadgetTvlaResult r_off = run_gadget_tvla(off);
    const GadgetTvlaResult r_on = run_gadget_tvla(on);
    EXPECT_EQ(r_off.max_abs_t1, r_on.max_abs_t1);
    EXPECT_EQ(r_off.max_abs_t2, r_on.max_abs_t2);
    EXPECT_EQ(r_off.argmax_cycle, r_on.argmax_cycle);
    EXPECT_FALSE(r_off.attribution.enabled);
    EXPECT_TRUE(r_on.attribution.enabled);
}

TEST(AttributionCampaign, SigkillMidRunThenResumeIsBitIdentical) {
    const std::string path = temp_path("attr_sigkill.gmsnap");

    GadgetTvlaConfig plain = small_gadget_campaign(GadgetKind::Trichina);
    plain.lanes = 1;  // scalar: many small blocks, several checkpoints
    plain.block_size = 32;
    const GadgetTvlaResult baseline = run_gadget_tvla(plain);

    const pid_t child = fork();
    ASSERT_GE(child, 0) << "fork failed";
    if (child == 0) {
        GadgetTvlaConfig cfg = plain;
        cfg.run.checkpoint_path = path;
        cfg.run.checkpoint_every = 2;
        cfg.run.on_checkpoint = [](std::size_t completed_blocks) {
            if (completed_blocks >= 6) ::kill(::getpid(), SIGKILL);
        };
        (void)run_gadget_tvla(cfg);
        ::_exit(0);  // not reached
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
    ASSERT_TRUE(read_file_if_exists(path).has_value());

    GadgetTvlaConfig resume = plain;
    resume.run.checkpoint_path = path;
    resume.workers = 4;  // resume at a different worker count
    const GadgetTvlaResult resumed = run_gadget_tvla(resume);
    EXPECT_TRUE(resumed.progress.resumed);
    EXPECT_EQ(resumed.progress.completed_traces, plain.traces);
    EXPECT_EQ(baseline.max_abs_t1, resumed.max_abs_t1);
    expect_identical_attribution(baseline.attribution, resumed.attribution,
                                 "SIGKILL resume");
    std::remove(path.c_str());
}

TEST(AttributionCampaign, ResumeAcrossAttributionToggleIsRejected) {
    const std::string path = temp_path("attr_toggle.gmsnap");

    // Leave a mid-run checkpoint behind via a cooperative cancel.
    CancelToken token;
    GadgetTvlaConfig cfg = small_gadget_campaign(GadgetKind::Trichina);
    cfg.lanes = 1;
    cfg.block_size = 32;
    cfg.run.checkpoint_path = path;
    cfg.run.checkpoint_every = 2;
    cfg.run.cancel = &token;
    cfg.run.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 4) token.request();
    };
    const GadgetTvlaResult partial = run_gadget_tvla(cfg);
    ASSERT_TRUE(partial.progress.cancelled);
    ASSERT_TRUE(read_file_if_exists(path).has_value());

    // An attributed snapshot must not resume an unattributed run: the
    // payload layouts differ, so this is ConfigMismatch, not misparsing.
    GadgetTvlaConfig off = cfg;
    off.run.attribution = false;
    off.run.cancel = nullptr;
    off.run.on_checkpoint = nullptr;
    try {
        (void)run_gadget_tvla(off);
        FAIL() << "resume with attribution off accepted an attributed snapshot";
    } catch (const CampaignError& e) {
        EXPECT_EQ(e.kind(), CampaignErrorKind::ConfigMismatch);
    }
    std::remove(path.c_str());
}

// ----- the paper's spatial claim -----------------------------------------

TEST(AttributionGolden, TrichinaBlamesCrossDomainChainSecand2StaysClean) {
    GadgetTvlaConfig trichina = small_gadget_campaign(GadgetKind::Trichina);
    trichina.traces = 4000;
    const GadgetTvlaResult leaky = run_gadget_tvla(trichina);

    ASSERT_TRUE(leaky.attribution.enabled);
    ASSERT_FALSE(leaky.attribution.ranked.empty());
    const leakage::NetAttribution& top = leaky.attribution.ranked.front();
    // The culprit: the XOR accumulating the cross-domain product x0*y1
    // into the z0 chain (named c1 in trichina_and), leaking through
    // glitches exactly as the paper argues.
    EXPECT_GT(top.max_abs_t, leakage::kTvlaThreshold);
    EXPECT_EQ(top.kind, "XOR2");
    EXPECT_NE(top.name.find("/c1"), std::string::npos) << top.name;
    EXPECT_GT(top.glitches, 0u);
    // Ranking is sorted by max |t| descending.
    for (std::size_t i = 1; i < leaky.attribution.ranked.size(); ++i)
        EXPECT_GE(leaky.attribution.ranked[i - 1].max_abs_t,
                  leaky.attribution.ranked[i].max_abs_t);

    // secAND2-FF: the same campaign finds *no* net anywhere near the
    // threshold -- the delay separation neutralizes every site.
    GadgetTvlaConfig ff = small_gadget_campaign(GadgetKind::Ff);
    ff.traces = 4000;
    const GadgetTvlaResult clean = run_gadget_tvla(ff);
    ASSERT_TRUE(clean.attribution.enabled);
    for (const leakage::NetAttribution& net : clean.attribution.ranked)
        EXPECT_LT(net.max_abs_t, leakage::kTvlaThreshold) << net.name;
}

// ----- DES and mean-power drivers ----------------------------------------

TEST(AttributionDes, SboxScopeRestrictsAndRanks) {
    const des::MaskedDesCore core{des::MaskedDesOptions{}};
    DesTvlaConfig config;
    config.traces = 48;
    config.seed = 5;
    config.workers = 2;
    config.lanes = 64;
    config.run.attribution = true;
    config.run.attribution_scope = "sbox";

    const DesTvlaResult r = run_des_tvla(core, config);
    ASSERT_TRUE(r.attribution.enabled);
    EXPECT_EQ(r.attribution.windows, core.total_cycles());
    EXPECT_EQ(r.attribution.traces_fixed + r.attribution.traces_random,
              static_cast<std::uint64_t>(config.traces));
    ASSERT_FALSE(r.attribution.ranked.empty());
    for (const leakage::NetAttribution& net : r.attribution.ranked)
        EXPECT_NE(net.module.find("sbox"), std::string::npos)
            << net.name << " in " << net.module;

    // Scalar engine, same campaign: identical attribution.
    DesTvlaConfig scalar = config;
    scalar.lanes = 1;
    const DesTvlaResult rs = run_des_tvla(core, scalar);
    expect_identical_attribution(r.attribution, rs.attribution,
                                 "des scalar vs batch");
}

TEST(AttributionDes, MeanPowerAttributionIsGlitchHeatmapOnly) {
    const des::MaskedDesCore core{des::MaskedDesOptions{}};
    CampaignRunOptions run;
    run.attribution = true;
    run.attribution_scope = "sbox";

    const std::vector<double> plain =
        mean_power_trace(core, /*traces=*/32, /*seed=*/3).mean;
    const MeanPowerResult result =
        mean_power_trace(core, 32, 3, /*placement_seed=*/1, /*workers=*/2,
                         /*lanes=*/64, run);
    const std::vector<double>& attributed = result.mean;
    const leakage::AttributionResult& attribution = result.attribution;

    // The probe must not move the mean trace by a single bit.
    ASSERT_EQ(plain.size(), attributed.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
        EXPECT_EQ(plain[i], attributed[i]) << "cycle " << i;

    ASSERT_TRUE(attribution.enabled);
    // One class only: every t-statistic is the degenerate-input sentinel;
    // the value of the run is the per-net glitch heatmap.
    EXPECT_EQ(attribution.traces_fixed, 0u);
    EXPECT_EQ(attribution.traces_random, 32u);
    std::uint64_t total_toggles = 0;
    for (const leakage::NetAttribution& net : attribution.ranked) {
        EXPECT_EQ(net.max_abs_t, 0.0) << net.name;
        total_toggles += net.toggles;
    }
    EXPECT_GT(total_toggles, 0u);
}

// ----- reports, exports, waveform markers --------------------------------

TEST(AttributionReportV2, RoundTripsThroughJson) {
    GadgetTvlaConfig config = small_gadget_campaign(GadgetKind::Trichina);
    config.run.attribution_top_k = 3;
    config.run.attribution_scope = "g";
    config.run.report_path = temp_path("attr_report.json");
    const GadgetTvlaResult r = run_gadget_tvla(config);
    ASSERT_TRUE(r.attribution.enabled);

    const auto report = read_run_report(config.run.report_path);
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(report->attribution.enabled);
    EXPECT_EQ(report->attribution.top_k, 3u);
    EXPECT_EQ(report->attribution.scope, "g");
    EXPECT_EQ(report->attribution.traces_fixed, r.attribution.traces_fixed);
    EXPECT_EQ(report->attribution.traces_random, r.attribution.traces_random);
    ASSERT_EQ(report->attribution.nets.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        const AttributionNetReport& net = report->attribution.nets[i];
        const leakage::NetAttribution& want = r.attribution.ranked[i];
        EXPECT_EQ(net.net, static_cast<std::uint64_t>(want.net));
        EXPECT_EQ(net.name, want.name);
        EXPECT_EQ(net.kind, want.kind);
        EXPECT_EQ(net.module, want.module);
        EXPECT_EQ(net.toggles, want.toggles);
        EXPECT_EQ(net.glitches, want.glitches);
        // The run record carries the same culprits, reduced to the
        // fields the ledger's diff compares.
        EXPECT_EQ(report->entry.attribution.at(i),
                  (LedgerNet{net.net, net.name, net.max_abs_t, net.toggles,
                             net.glitches}));
    }
    std::remove(config.run.report_path.c_str());
}

TEST(AttributionReportV2, FullRangeCountersRoundTrip) {
    // Synthetic report with counters a double cannot represent exactly.
    RunReport report;
    report.entry.campaign = "attr_unit";
    report.attribution.enabled = true;
    report.attribution.top_k = 1;
    report.attribution.traces_fixed =
        std::numeric_limits<std::uint64_t>::max();
    report.attribution.traces_random = (1ull << 53) + 1;
    AttributionNetReport net;
    net.net = 42;
    net.name = "g0/c1";
    net.kind = "XOR2";
    net.module = "g0/";
    net.max_abs_t = 21.5;
    net.toggles = std::numeric_limits<std::uint64_t>::max() - 7;
    net.glitches = (1ull << 60) + 3;
    report.attribution.nets.push_back(net);

    const std::string path = temp_path("attr_unit_report.json");
    write_run_report(path, report);
    const auto back = read_run_report(path);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->attribution, report.attribution);  // exact u64 parse
    std::remove(path.c_str());
}

TEST(AttributionExports, CsvAndAnnotatedDotCarryTheRanking) {
    GadgetTvlaConfig config = small_gadget_campaign(GadgetKind::Trichina);
    config.traces = 1024;
    const GadgetTvlaResult r = run_gadget_tvla(config);
    ASSERT_TRUE(r.attribution.enabled);

    const std::string csv = leakage::attribution_csv(r.attribution);
    EXPECT_NE(csv.find("net,name,kind,module,max_abs_t"), std::string::npos);
    EXPECT_NE(csv.find("abs_t_w0"), std::string::npos);
    EXPECT_NE(csv.find(r.attribution.ranked.front().name), std::string::npos);
    // One header plus one row per ranked net.
    const std::size_t lines =
        static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
    EXPECT_EQ(lines, r.attribution.ranked.size() + 1);

    const GadgetHarness harness(config.gadget, config.replicas,
                                config.placement_seed);
    const std::string dot =
        leakage::attribution_dot(harness.nl(), r.attribution, /*top_k=*/3);
    EXPECT_NE(dot.find("|t|="), std::string::npos);
    EXPECT_NE(dot.find("fillcolor"), std::string::npos);
}

TEST(AttributionVcd, GlitchMarkerFlagsOnlyGlitchWindows) {
    core::Netlist nl;
    const netlist::NetId a = nl.input("a");
    nl.freeze();

    const std::string path = temp_path("marker.vcd");
    {
        sim::VcdWriter vcd(nl, path, {a},
                           sim::GlitchMarkerConfig{a, /*window_ps=*/90000});
        // Window 0: three transitions -> a glitch; the marker rises at the
        // second one and drops at the window boundary.  Window 1: a single
        // clean transition -> the marker stays low.
        vcd.on_toggle(a, 1000, true);
        vcd.on_toggle(a, 2000, false);
        vcd.on_toggle(a, 3000, true);
        vcd.on_toggle(a, 95000, false);
        vcd.close();
    }
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string vcd_text = buffer.str();

    EXPECT_NE(vcd_text.find("a_glitchmark"), std::string::npos);
    // Net code is "!" (first watched), marker code is "\"" (second var).
    EXPECT_NE(vcd_text.find("#2000\n0!\n1\""), std::string::npos)
        << vcd_text;  // marker rises with the second transition
    EXPECT_NE(vcd_text.find("#90000\n0\""), std::string::npos)
        << vcd_text;  // and drops at the window boundary
    // Exactly one rise: the clean window-1 transition adds none.
    EXPECT_EQ(vcd_text.find("1\""), vcd_text.rfind("1\""));
    std::remove(path.c_str());
}

// ----- plan / probe units -------------------------------------------------

TEST(AttributionPlan, ScopeFilterWatchesOneGadget) {
    const GadgetCircuit circuit =
        build_gadget_circuit(GadgetKind::Trichina, /*replicas=*/4);
    const leakage::AttributionPlan all(circuit.nl, /*windows=*/5,
                                       /*window_ps=*/90000);
    const leakage::AttributionPlan g0(circuit.nl, 5, 90000, "g0");

    EXPECT_EQ(all.net_count(), circuit.nl.size());
    EXPECT_EQ(all.points(), circuit.nl.size() * 5);
    ASSERT_TRUE(g0.enabled());
    EXPECT_LT(g0.net_count(), all.net_count());
    for (std::size_t i = 0; i < g0.net_count(); ++i) {
        const std::string& module =
            circuit.nl.module_names()[circuit.nl.module_of(g0.net(i))];
        EXPECT_NE(module.find("g0"), std::string::npos) << module;
    }
    // Unwatched nets map to the sentinel.
    EXPECT_EQ(g0.probe_of(circuit.x_in.s0), leakage::AttributionPlan::kUnwatched);

    EXPECT_THROW(leakage::AttributionPlan(circuit.nl, 0, 90000),
                 std::invalid_argument);
    EXPECT_THROW(leakage::AttributionPlan(circuit.nl, 5, 0),
                 std::invalid_argument);
}

TEST(AttributionProbe, CountsWindowsAndSaturatesAt255) {
    core::Netlist nl;
    const netlist::NetId a = nl.input("a");
    nl.freeze();
    const leakage::AttributionPlan plan(nl, /*windows=*/2, /*window_ps=*/100);
    leakage::AttributionProbe probe(plan, /*next=*/nullptr);
    leakage::AttributionAccumulator acc(plan.points());

    probe.begin_trace();
    // 300 toggles in window 0 saturate at 255; 2 toggles in window 1 are
    // exact; toggles past the last window are dropped.
    for (int i = 0; i < 300; ++i) probe.on_toggle(a, 50, i % 2 == 0);
    probe.on_toggle(a, 150, true);
    probe.on_toggle(a, 151, false);
    probe.on_toggle(a, 999, true);  // window 9: out of range, dropped
    probe.fold_trace(/*fixed=*/true, acc);

    const std::size_t probe_a = plan.probe_of(a);
    const std::size_t w0 = plan.point_index(probe_a, 0);
    const std::size_t w1 = plan.point_index(probe_a, 1);
    EXPECT_EQ(acc.traces_fixed, 1u);
    EXPECT_EQ(acc.point(w0).sum_fixed, 255.0);
    EXPECT_EQ(acc.point(w0).toggles, 255u);
    EXPECT_EQ(acc.point(w0).glitches, 254u);
    EXPECT_EQ(acc.point(w1).sum_fixed, 2.0);
    EXPECT_EQ(acc.point(w1).glitches, 1u);

    // fold_trace re-armed the probe: a quiet trace adds only the class
    // count.
    probe.fold_trace(/*fixed=*/false, acc);
    EXPECT_EQ(acc.traces_random, 1u);
    EXPECT_EQ(acc.point(w0).sum_random, 0.0);
}

TEST(AnalyzeAttribution, OneSidedPointsCountAndArgmaxIsFirstMaxWindow) {
    // Net a toggles only in random-class traces, in windows 0 and 2 with
    // identical statistics; window 1 and net b never toggle.  A point
    // with no fixed-class toggles still has a t-statistic, a never-toggled
    // point reads the 0.0 sentinel, and a tie keeps the first window.
    core::Netlist nl;
    const netlist::NetId a = nl.input("a");
    const netlist::NetId b = nl.input("b");
    nl.freeze();
    const leakage::AttributionPlan plan(nl, /*windows=*/3, /*window_ps=*/100);
    leakage::AttributionAccumulator acc(plan.points());
    acc.traces_fixed = 4;
    acc.traces_random = 4;
    for (const std::size_t w : {std::size_t{0}, std::size_t{2}}) {
        leakage::PointStats& p =
            acc.point(plan.point_index(plan.probe_of(a), w));
        p.sum_random = 4.0;  // per-trace counts 2, 1, 1, 0
        p.sumsq_random = 6.0;
        p.toggles = 4;
        p.glitches = 1;
    }
    const leakage::AttributionResult result =
        leakage::analyze_attribution(nl, plan, acc);
    const double var_random = (6.0 - 4.0 * 1.0 * 1.0) / (4.0 - 1.0);
    const double t = leakage::welch_t(0.0, 0.0, 4.0, 1.0, var_random, 4.0);
    ASSERT_GT(std::abs(t), 0.0);
    ASSERT_EQ(result.ranked.size(), 2u);
    EXPECT_EQ(result.ranked[0].net, a);
    EXPECT_EQ(result.ranked[0].max_abs_t, std::abs(t));
    EXPECT_EQ(result.ranked[0].argmax_window, 0u);
    EXPECT_EQ(result.t_at(0, 1), 0.0);
    EXPECT_EQ(result.t_at(0, 2), std::abs(t));
    EXPECT_EQ(result.glitches_at(0, 2), 1u);
    EXPECT_EQ(result.ranked[0].glitches, 2u);
    EXPECT_EQ(result.ranked[1].net, b);
    EXPECT_EQ(result.ranked[1].max_abs_t, 0.0);
}

TEST(BatchAttributionProbe, BitPlaneCountsEqualPerLaneScalarProbes) {
    // Three nets, three windows, a partial 61-lane group and two groups
    // into one block: per-lane counts from 0 to past saturation (net `a`
    // takes 300 all-lane toggles in window 1), so every plane, the
    // counts <= 3 fast path and the 255 pin all run.  Reference: one
    // scalar probe per live lane, folded in lane order.
    core::Netlist nl;
    const netlist::NetId nets[3] = {nl.input("a"), nl.input("b"),
                                    nl.input("c")};
    nl.freeze();
    const leakage::AttributionPlan plan(nl, /*windows=*/3, /*window_ps=*/100);
    struct Toggle {
        netlist::NetId net;
        sim::TimePs time;
        std::uint64_t lanes;
    };
    Xoshiro256 rng(2024);
    leakage::AttributionAccumulator batch_acc(plan.points());
    leakage::AttributionAccumulator scalar_acc(plan.points());
    leakage::BatchAttributionProbe batch(plan, /*next=*/nullptr);
    leakage::AttributionProbe scalar(plan, /*next=*/nullptr);
    for (const unsigned count : {61u, 64u}) {
        std::vector<Toggle> stream;
        for (sim::TimePs w = 0; w < 4; ++w) {  // window 3: dropped
            for (int i = 0; i < 120; ++i) {
                const std::uint64_t mask = rng() & rng();  // ~1/4 density
                stream.push_back({nets[rng() % 3], w * 100 + i / 2,
                                  mask == 0 ? 1u : mask});
            }
            if (w == 1)
                for (int i = 0; i < 300; ++i)
                    stream.push_back({nets[0], 170, ~std::uint64_t{0}});
        }
        const std::uint64_t fixed_mask = rng();
        batch.begin_group(fixed_mask, count, batch_acc);
        for (const Toggle& t : stream)
            batch.on_toggle(t.net, t.time, t.lanes, t.lanes);
        batch.fold_group();
        for (unsigned lane = 0; lane < count; ++lane) {
            scalar.begin_trace();
            for (const Toggle& t : stream)
                if ((t.lanes >> lane) & 1u)
                    scalar.on_toggle(t.net, t.time, true);
            scalar.fold_trace(((fixed_mask >> lane) & 1u) != 0, scalar_acc);
        }
    }
    batch.spill_block();
    const std::size_t heavy = plan.point_index(plan.probe_of(nets[0]), 1);
    EXPECT_EQ(scalar_acc.point(heavy).toggles, 125u * 255u);  // saturated
    EXPECT_EQ(batch_acc, scalar_acc);
}

TEST(BatchAttributionProbe, PlaneFoldKernelsAreBitIdentical) {
#if defined(GLITCHMASK_HAVE_AVX2)
    if (support::active_simd_level() < support::SimdLevel::kAvx2)
        GTEST_SKIP() << "CPU/GLITCHMASK_SIMD level below AVX2";
    constexpr std::size_t kNets = 150;
    constexpr unsigned kPlanes = leakage::plane_kernels::kPlanes;
    Xoshiro256 rng(7);
    std::vector<std::uint64_t> planes(kNets * kPlanes);
    std::vector<std::uint64_t> touched((kNets + 63) / 64);
    for (std::size_t net = 0; net < kNets; ++net) {
        // Top plane in use varies per net: 1..8 planes, so both the
        // counts <= 3 path and the general path run.
        const unsigned used = 1 + static_cast<unsigned>(rng() % kPlanes);
        for (unsigned k = 0; k < used; ++k)
            planes[net * kPlanes + k] = rng() & rng();
        if (rng() % 4 != 0) touched[net / 64] |= std::uint64_t{1} << (net % 64);
    }
    const std::uint64_t fixed = rng() & ((std::uint64_t{1} << 50) - 1);
    const std::uint64_t random = ~fixed & ((std::uint64_t{1} << 50) - 1);
    auto planes_avx2 = planes;
    auto touched_avx2 = touched;
    std::vector<std::uint32_t> block(kNets * 5, 3u), block_avx2 = block;
    leakage::plane_kernels::fold_planes_scalar(planes.data(), touched.data(),
                                               touched.size(), fixed, random,
                                               block.data());
    leakage::plane_kernels::fold_planes_avx2(
        planes_avx2.data(), touched_avx2.data(), touched_avx2.size(), fixed,
        random, block_avx2.data());
    EXPECT_EQ(block, block_avx2);
    EXPECT_EQ(planes, planes_avx2);
    EXPECT_EQ(touched, touched_avx2);
    EXPECT_TRUE(std::all_of(touched.begin(), touched.end(),
                            [](std::uint64_t w) { return w == 0; }));
#else
    GTEST_SKIP() << "built without AVX2 kernels";
#endif
}

}  // namespace
}  // namespace glitchmask::eval
