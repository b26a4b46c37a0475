// Campaign throughput harness: traces/sec and toggle-activity MB/s of the
// trace-collection engine on the DES TVLA workload (the paper's dominant
// cost: Sec. VII campaigns at up to 50M traces), swept over the scaling
// axes -- worker count and lanes per pass (scalar = the reference
// EventSimulator at 1 lane; compiled = the lane engine of
// sim/compiled_simulator.hpp at 64/128/256/512 lanes).
// Emits JSON -- one object, schema documented in EXPERIMENTS.md -- to
// stdout and to BENCH_batch_sim.json so future PRs can track the perf
// trajectory.
//
// Every row replays the identical campaign (counter-based per-trace
// seeding, one shared block size of 512 so wide compiled passes fill
// their lanes), so the max|t| column doubles as a live equivalence
// check: all rows -- across worker counts, lane widths, checkpointing
// and attribution -- must agree bit-for-bit.
//
// Scale with GLITCHMASK_TRACES (default 1024) and GLITCHMASK_NOISE; note
// that meaningful worker speedups need as many physical cores as workers
// (and traces >= workers x 512 blocks), while the lane speedup is
// per-core.
//
// Flags: --progress[=seconds] (stderr heartbeat) and --report <path>
// (run report of each row; the file is rewritten per row, so it ends up
// describing the last row of the sweep).  Before the sweep the harness
// times off-vs-on pairs of three instruments and emits each relative
// cost as a top-level key: telemetry ("telemetry_overhead", CI gate
// <= 3%), full block/phase span tracing ("trace_overhead", gated <= 5%)
// and the S-box-scoped attribution probe taps ("attribution_overhead",
// gated <= 30%).  That a disabled instrument costs nothing is checked
// by a deterministic test instead (trace_test's
// DisabledInstrumentsLeaveNoTrace).  A statistics-fold microbench times
// the pre-fusion gather path against the fused MomentBank fold on
// identical data
// ("stats_speedup", CI gate >= 1.5x), and every sweep row carries a
// "phases_cpu" breakdown (sim/noise/moments/attribution/checkpoint CPU
// seconds from the phase.* telemetry counters -- summed across workers,
// so a row's phases_cpu can exceed its wall "seconds") plus an
// "oversubscribed" flag for worker counts beyond the machine's physical
// cores (top-level "physical_cores").  Each run is stamped with its git
// "revision", "hostname", and UTC timestamp so the results ledger
// (src/obs/) can attribute entries without trusting file mtimes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "des/masked_des.hpp"
#include "eval/des_experiments.hpp"
#include "leakage/moment_bank.hpp"
#include "leakage/tvla.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/runenv.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

using namespace glitchmask;

namespace {

/// Bytes the simulator touches per committed toggle event: the event
/// record plus the power bin read-modify-write (documented in
/// EXPERIMENTS.md; a fixed constant so MB/s stays comparable across PRs).
constexpr double kBytesPerToggle = 16.0;

/// One shared block size: blocks are cut at 512-trace boundaries in every
/// row, so the widest compiled pass (512 lanes) fills all its lanes and
/// every row folds the accumulators at the same 64-trace granularity.
constexpr std::size_t kBlockSize = 512;

/// Best-of repetitions per timed overhead pair.  At CI's 256 traces the
/// 64-lane engine finishes a run in ~0.6 s; three repetitions of runs
/// that short leave the minimum swinging by several percent on a shared
/// host, which trips the 3%-5% gates on noise alone.  Seven keep the
/// total timed wall time where the gates were calibrated (three runs of
/// ~1.2 s each on the retired, 2.3x slower event engine).
constexpr int kOverheadReps = 7;

/// Best-of repetitions for the scalar and compiled-64 rows, the two
/// sides of the gated compiled64_speedup_1worker headline.
constexpr int kHeadlineReps = 3;

struct Series {
    std::string backend = "compiled";
    unsigned lanes = 0;
    unsigned workers = 0;
    std::size_t checkpoint_every = 0;  // blocks between snapshots; 0 = off
    bool attribution = false;          // per-net probe taps (scope "sbox")
    bool oversubscribed = false;       // workers > physical cores
    double seconds = 0.0;
    double traces_per_sec = 0.0;
    double toggle_mb_per_sec = 0.0;
    double max_abs_t1 = 0.0;
    double speedup = 1.0;  // vs the scalar 1-worker baseline
    std::uint64_t toggles = 0;
    std::uint64_t sim_events = 0;
    std::uint64_t sim_glitches = 0;
    std::uint64_t sim_inertial_cancels = 0;
    std::uint64_t sim_queue_peak = 0;
    // Per-phase *CPU* seconds from the block-level phase.* telemetry
    // counters.  Each worker's on-thread time is summed, so with W
    // workers these can total up to W x the row's wall seconds -- they
    // answer "where did the cores spend their cycles", not "what took so
    // long".  Emitted as "phases_cpu" to keep the ambiguity out of the
    // artifact; "other" is everything the phase clocks do not cover
    // (thread handoff, block orchestration, finalization).
    double phase_sim = 0.0;
    double phase_noise = 0.0;
    double phase_moments = 0.0;
    double phase_attribution = 0.0;
    double phase_checkpoint = 0.0;
};

/// Physical (non-SMT) core count: unique (physical id, core id) pairs in
/// /proc/cpuinfo, falling back to hardware_concurrency where the file is
/// absent (non-Linux) or unparsable.  Worker counts above this figure
/// only measure scheduler time-slicing, so rows get flagged -- not
/// dropped -- as "oversubscribed".
unsigned physical_core_count() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::set<std::pair<int, int>> cores;
    int physical_id = 0;
    std::string line;
    while (std::getline(cpuinfo, line)) {
        const auto colon = line.find(':');
        if (colon == std::string::npos) continue;
        const std::string key = line.substr(0, line.find('\t'));
        const int value = std::atoi(line.c_str() + colon + 1);
        if (key == "physical id") physical_id = value;
        else if (key == "core id") cores.emplace(physical_id, value);
    }
    if (!cores.empty()) return static_cast<unsigned>(cores.size());
    const unsigned fallback = std::thread::hardware_concurrency();
    return fallback > 0 ? fallback : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const bench::CliOptions cli = bench::parse_cli(argc, argv);
    bench::banner(
        "Campaign throughput: DES TVLA, scalar vs compiled lane engine");

    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::size_t traces = static_cast<std::size_t>(
        env_int("GLITCHMASK_TRACES", static_cast<std::int64_t>(
                                         bench::scaled_traces(1024))));
    const double noise = env_double("GLITCHMASK_NOISE", 1.0);

    // Telemetry cost check: identical default-width (64-lane) 1-worker
    // campaigns with the registry off vs on, best of kOverheadReps each (no
    // report path here -- a report would force telemetry on and void the
    // "off" timings).
    auto time_once = [&](bool telemetry_on) {
        telemetry::set_enabled(telemetry_on);
        eval::DesTvlaConfig config;
        config.traces = traces;
        config.block_size = kBlockSize;
        config.noise_sigma = noise;
        config.seed = 7;
        config.workers = 1;
        config.lanes = 64;
        const auto start = std::chrono::steady_clock::now();
        (void)eval::run_des_tvla(core, config);
        const auto stop = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(stop - start).count();
    };
    double best_off = std::numeric_limits<double>::infinity();
    double best_on = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kOverheadReps; ++rep) {
        best_off = std::min(best_off, time_once(false));
        best_on = std::min(best_on, time_once(true));
    }
    const double telemetry_overhead = best_on / best_off - 1.0;

    // Tracing cost check, same protocol: collection adds a
    // block-granularity span plus the phase leaves, which must stay cheap
    // (CI gate <= 5%).  Telemetry is held off throughout so the pair
    // isolates tracing.
    auto time_traced = [&](bool tracing_on) {
        trace::set_enabled(tracing_on);
        eval::DesTvlaConfig config;
        config.traces = traces;
        config.block_size = kBlockSize;
        config.noise_sigma = noise;
        config.seed = 7;
        config.workers = 1;
        config.lanes = 64;
        const auto start = std::chrono::steady_clock::now();
        (void)eval::run_des_tvla(core, config);
        const auto stop = std::chrono::steady_clock::now();
        // Spans are measurement-only here: drain so repeated traced runs
        // never hit the global buffer cap mid-timing.
        if (tracing_on) (void)trace::take_spans();
        return std::chrono::duration<double>(stop - start).count();
    };
    telemetry::set_enabled(false);
    double best_trace_base = std::numeric_limits<double>::infinity();
    double best_trace_on = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kOverheadReps; ++rep) {
        best_trace_base = std::min(best_trace_base, time_traced(false));
        best_trace_on = std::min(best_trace_on, time_traced(true));
    }
    trace::set_enabled(false);
    trace::reset();
    const double trace_overhead = best_trace_on / best_trace_base - 1.0;
    // The telemetry pair above leaves collection on; the attribution pair
    // below historically runs in that state -- restore it.
    telemetry::set_enabled(true);

    // Attribution cost check.  The on-cost scales with the watched point
    // count (here the S-box scope); with bit-plane lane counters (one
    // branch-free ripple-carry add per deposit, a popcount fold per
    // window) CI holds it to <= 30% on the 64-lane engine.
    auto time_attribution = [&](bool attribute) {
        eval::DesTvlaConfig config;
        config.traces = traces;
        config.block_size = kBlockSize;
        config.noise_sigma = noise;
        config.seed = 7;
        config.workers = 1;
        config.lanes = 64;
        config.run.attribution = attribute;
        config.run.attribution_scope = "sbox";
        const auto start = std::chrono::steady_clock::now();
        (void)eval::run_des_tvla(core, config);
        const auto stop = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(stop - start).count();
    };
    double best_plain = std::numeric_limits<double>::infinity();
    double best_attr_on = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kOverheadReps; ++rep) {
        best_plain = std::min(best_plain, time_attribution(false));
        best_attr_on = std::min(best_attr_on, time_attribution(true));
    }
    const double attribution_overhead = best_attr_on / best_plain - 1.0;

    // Statistics-fold microbench: the pre-fusion gather path (a bin-major
    // noisy batch swept point-by-point into per-point scalar accumulators
    // via TvlaCampaign::add_lane_traces) against the fused fold (each lane
    // row streamed straight into the bin-vectorized MomentBank).  Both
    // layouts hold the same values and are built outside the timed
    // region, so the ratio isolates the moment update itself.  Both sides
    // must land on the same t statistic to the bit (the bank feeds every
    // per-point accumulator the same addend sequence); CI gates the
    // speedup at >= 1.5x.
    const std::size_t stat_points = core.total_cycles();
    constexpr unsigned kStatLanes = 64;
    constexpr std::size_t kStatBlocks = 8;
    std::vector<std::vector<double>> stat_bins;    // [block][point*lanes+lane]
    std::vector<std::vector<double>> stat_rows;    // [block*lanes][point]
    std::vector<std::uint64_t> stat_masks;
    {
        Xoshiro256 stat_rng(99);
        for (std::size_t b = 0; b < kStatBlocks; ++b) {
            std::vector<double> bins(stat_points * kStatLanes);
            for (double& x : bins) x = stat_rng.gaussian(0.0, 1.0);
            for (unsigned lane = 0; lane < kStatLanes; ++lane) {
                std::vector<double> row(stat_points);
                for (std::size_t i = 0; i < stat_points; ++i)
                    row[i] = bins[i * kStatLanes + lane];
                stat_rows.push_back(std::move(row));
            }
            stat_bins.push_back(std::move(bins));
            stat_masks.push_back(stat_rng());
        }
    }
    double best_gather = std::numeric_limits<double>::infinity();
    double best_fused = std::numeric_limits<double>::infinity();
    double gather_t1 = 0.0;
    double fused_t1 = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        {
            leakage::TvlaCampaign campaign(stat_points, 2);
            const auto start = std::chrono::steady_clock::now();
            for (std::size_t b = 0; b < kStatBlocks; ++b)
                campaign.add_lane_traces(stat_bins[b], kStatLanes,
                                         stat_masks[b], kStatLanes);
            const auto stop = std::chrono::steady_clock::now();
            best_gather = std::min(
                best_gather,
                std::chrono::duration<double>(stop - start).count());
            gather_t1 = campaign.max_abs_t(1);
        }
        {
            leakage::MomentBank bank(stat_points, 2);
            const auto start = std::chrono::steady_clock::now();
            for (std::size_t b = 0; b < kStatBlocks; ++b)
                for (unsigned lane = 0; lane < kStatLanes; ++lane)
                    bank.add_trace(((stat_masks[b] >> lane) & 1u) != 0,
                                   stat_rows[b * kStatLanes + lane].data());
            const auto stop = std::chrono::steady_clock::now();
            best_fused = std::min(
                best_fused,
                std::chrono::duration<double>(stop - start).count());
            fused_t1 = bank.max_abs_t(1);
        }
    }
    const double stats_speedup = best_gather / best_fused;
    const bool stats_identical = gather_t1 == fused_t1;

    // Counters for every sweep row below.
    telemetry::set_enabled(true);
    const unsigned physical_cores = physical_core_count();

    TablePrinter table({"backend", "lanes", "workers", "ckpt", "attr",
                        "seconds", "traces/s", "toggle MB/s", "speedup",
                        "max|t1|"});
    std::vector<Series> series;
    const std::string snapshot_path = "BENCH_checkpoint.gmsnap";

    auto run_row = [&](unsigned lanes, unsigned workers,
                       std::size_t checkpoint_every, bool attribute = false,
                       int repeats = 1) {
        // The scalar reference row keeps its historical label: it is
        // still the event-driven EventSimulator, and the results ledger
        // builds a bench row's fingerprint from this string, so a new
        // label would cut the row off from its history.
        const std::string backend = lanes == 1 ? "event" : "compiled";
        eval::DesTvlaConfig config;
        config.traces = traces;
        config.block_size = kBlockSize;
        config.noise_sigma = noise;
        config.seed = 7;
        config.workers = workers;
        config.lanes = lanes;
        config.run.report_path = cli.report_path;
        config.run.attribution = attribute;
        config.run.attribution_scope = "sbox";
        if (checkpoint_every > 0) {
            config.run.checkpoint_path = snapshot_path;
            config.run.checkpoint_every = checkpoint_every;
        }

        // Best of `repeats` runs: the result and every counter repeat
        // exactly (the engine is deterministic), only the clock differs.
        double seconds = std::numeric_limits<double>::infinity();
        std::optional<eval::DesTvlaResult> result;
        telemetry::Snapshot counters;
        for (int rep = 0; rep < repeats; ++rep) {
            // Fresh file each run: a leftover snapshot would resume (and
            // "finish" instantly), voiding the timing.
            if (checkpoint_every > 0) std::remove(snapshot_path.c_str());
            // Fresh registry per run so Max counters (queue peak) are
            // row-local.
            telemetry::reset();
            const auto start = std::chrono::steady_clock::now();
            result.emplace(eval::run_des_tvla(core, config));
            const auto stop = std::chrono::steady_clock::now();
            counters = telemetry::snapshot();
            seconds = std::min(
                seconds, std::chrono::duration<double>(stop - start).count());
        }
        const eval::DesTvlaResult& r = *result;

        Series s;
        s.backend = backend;
        s.lanes = lanes;
        s.workers = workers;
        s.checkpoint_every = checkpoint_every;
        s.attribution = attribute;
        s.oversubscribed = workers > physical_cores;
        s.seconds = seconds;
        s.traces_per_sec = static_cast<double>(r.traces) / s.seconds;
        s.toggle_mb_per_sec =
            static_cast<double>(r.toggles) * kBytesPerToggle / 1e6 / s.seconds;
        s.max_abs_t1 = r.max_abs_t[1];
        s.toggles = r.toggles;
        s.sim_events = counters.value(telemetry::Counter::kSimEvents);
        s.sim_glitches = counters.value(telemetry::Counter::kSimGlitches);
        s.sim_inertial_cancels =
            counters.value(telemetry::Counter::kSimInertialCancels);
        s.sim_queue_peak = counters.value(telemetry::Counter::kSimQueuePeak);
        const auto phase_seconds = [&](telemetry::Counter c) {
            return static_cast<double>(counters.value(c)) / 1e9;
        };
        s.phase_sim = phase_seconds(telemetry::Counter::kPhaseSimNanos);
        s.phase_noise = phase_seconds(telemetry::Counter::kPhaseNoiseNanos);
        s.phase_moments =
            phase_seconds(telemetry::Counter::kPhaseMomentsNanos);
        s.phase_attribution =
            phase_seconds(telemetry::Counter::kPhaseAttributionNanos);
        s.phase_checkpoint =
            phase_seconds(telemetry::Counter::kCheckpointNanos);
        s.speedup = series.empty() ? 1.0 : series.front().seconds / s.seconds;
        series.push_back(s);

        table.add_row({backend, std::to_string(lanes),
                       std::to_string(workers),
                       checkpoint_every == 0 ? std::string("off")
                                             : std::to_string(checkpoint_every),
                       attribute ? "on" : "off",
                       TablePrinter::num(s.seconds, 2),
                       TablePrinter::num(s.traces_per_sec, 1),
                       TablePrinter::num(s.toggle_mb_per_sec, 1),
                       TablePrinter::num(s.speedup, 2),
                       TablePrinter::num(s.max_abs_t1, 6)});
        return s;
    };

    // The scalar reference, then the lane-width sweep at one worker, then
    // workers on the default and the widest pass.  The fastest width
    // carries compiled_best_lanes: wider is not always faster once the
    // lane-word state outgrows L2, so the sweep itself picks the
    // per-machine sweet spot.
    // The two rows behind the gated compiled64_speedup_1worker headline
    // are timed best of kHeadlineReps (both sides alike): a single
    // sub-second compiled-64 run swings the ratio by +-10% on a shared
    // host.
    run_row(1, 1, /*checkpoint_every=*/0, false, kHeadlineReps);
    Series compiled64_1w;
    Series compiled_best_1w;
    compiled_best_1w.seconds = std::numeric_limits<double>::infinity();
    for (const unsigned lanes : {64u, 128u, 256u, 512u}) {
        const Series s =
            run_row(lanes, 1, 0, false, lanes == 64 ? kHeadlineReps : 1);
        if (lanes == 64) compiled64_1w = s;
        if (s.seconds < compiled_best_1w.seconds) compiled_best_1w = s;
    }
    const Series compiled64_2w = run_row(64, 2, 0);
    run_row(512, 2, 0);

    // Crash-safe runtime axis: same campaign with periodic snapshots.  The
    // merge-frontier checkpoint is O(log blocks) accumulators, so even the
    // most aggressive cadence (a snapshot after every block) must stay
    // within a few percent of the plain run (acceptance bar: <= 5%).
    double checkpoint_overhead = 0.0;
    for (const std::size_t every : {4u, 1u}) {
        const Series s = run_row(64, 2, every);
        checkpoint_overhead = std::max(checkpoint_overhead,
                                       s.seconds / compiled64_2w.seconds - 1.0);
    }
    // Attribution axis: same campaign with S-box probe taps at the default
    // and the widest pass.  Rides the determinism check below -- the
    // probe must not perturb the power statistics by a single bit.
    run_row(64, 1, /*checkpoint_every=*/0, /*attribute=*/true);
    run_row(512, 1, /*checkpoint_every=*/0, /*attribute=*/true);
    std::remove(snapshot_path.c_str());
    table.print();

    bool deterministic = true;
    for (const Series& s : series)
        deterministic &= (s.max_abs_t1 == series.front().max_abs_t1) &&
                         (s.toggles == series.front().toggles);
    std::printf("\nEquivalence across workers, lane widths, checkpointing "
                "and attribution: %s\n",
                deterministic ? "bit-identical" : "MISMATCH (bug!)");
    std::printf("Checkpoint overhead (worst cadence, compiled-64 / 2 workers): "
                "%.2f%%\n",
                checkpoint_overhead * 100.0);
    std::printf("Telemetry overhead (compiled-64 / 1 worker, best of %d): "
                "%.2f%%\n",
                kOverheadReps, telemetry_overhead * 100.0);
    std::printf("Tracing-on cost (block+phase spans): %.2f%%\n",
                trace_overhead * 100.0);
    std::printf("Attribution-on cost (sbox scope): %.2f%%\n",
                attribution_overhead * 100.0);
    std::printf("Statistics fold (%zu bins x %zu traces): gather %.1f ms, "
                "fused %.1f ms -> %.2fx (%s)\n",
                stat_points, kStatBlocks * (std::size_t)kStatLanes,
                best_gather * 1e3, best_fused * 1e3, stats_speedup,
                stats_identical ? "bit-identical" : "MISMATCH (bug!)");
    std::printf("Physical cores: %u%s\n", physical_cores,
                physical_cores < 2
                    ? " (multi-worker rows flagged oversubscribed)"
                    : "");

    // The headline number, per core: the lane engine at its default width
    // over the scalar reference.
    const double compiled64_speedup_1w =
        series.front().seconds / compiled64_1w.seconds;
    std::printf("Compiled-64 speedup over scalar at 1 worker: %.2fx "
                "(fastest width: %u lanes)\n",
                compiled64_speedup_1w, compiled_best_1w.lanes);

    std::string json = "{\n  \"workload\": \"des_ff_tvla\",\n";
    json += "  \"revision\": \"" + git_revision() + "\",\n";
    json += "  \"hostname\": \"" + host_name() + "\",\n";
    json += "  \"utc\": \"" + utc_timestamp() + "\",\n";
    json += "  \"traces\": " + std::to_string(traces) + ",\n";
    json += "  \"block_size\": " + std::to_string(kBlockSize) + ",\n";
    json += "  \"samples\": " + std::to_string(core.total_cycles()) + ",\n";
    json += "  \"noise_sigma\": " + TablePrinter::num(noise, 3) + ",\n";
    json += "  \"bytes_per_toggle\": " + TablePrinter::num(kBytesPerToggle, 0) +
            ",\n";
    json += std::string("  \"deterministic\": ") +
            (deterministic ? "true" : "false") + ",\n";
    json += "  \"compiled64_speedup_1worker\": " +
            TablePrinter::num(compiled64_speedup_1w, 3) + ",\n";
    json += "  \"compiled_best_lanes\": " +
            std::to_string(compiled_best_1w.lanes) + ",\n";
    json += "  \"checkpoint_overhead\": " +
            TablePrinter::num(checkpoint_overhead, 4) + ",\n";
    json += "  \"telemetry_overhead\": " +
            TablePrinter::num(telemetry_overhead, 4) + ",\n";
    json += "  \"trace_overhead\": " +
            TablePrinter::num(trace_overhead, 4) + ",\n";
    json += "  \"attribution_overhead\": " +
            TablePrinter::num(attribution_overhead, 4) + ",\n";
    json += "  \"stats_speedup\": " + TablePrinter::num(stats_speedup, 3) +
            ",\n";
    json += "  \"physical_cores\": " + std::to_string(physical_cores) + ",\n";
    json += "  \"series\": [\n";
    for (std::size_t i = 0; i < series.size(); ++i) {
        const Series& s = series[i];
        json += "    {\"backend\": \"" + s.backend + "\"" +
                ", \"lanes\": " + std::to_string(s.lanes) +
                ", \"workers\": " + std::to_string(s.workers) +
                ", \"checkpoint_every\": " + std::to_string(s.checkpoint_every) +
                std::string(", \"attribution\": ") +
                (s.attribution ? "true" : "false") +
                std::string(", \"oversubscribed\": ") +
                (s.oversubscribed ? "true" : "false") +
                ", \"seconds\": " + TablePrinter::num(s.seconds, 4) +
                ", \"traces_per_sec\": " + TablePrinter::num(s.traces_per_sec, 2) +
                ", \"toggle_mb_per_sec\": " +
                TablePrinter::num(s.toggle_mb_per_sec, 2) +
                ", \"toggles\": " + std::to_string(s.toggles) +
                ", \"sim_events\": " + std::to_string(s.sim_events) +
                ", \"sim_glitches\": " + std::to_string(s.sim_glitches) +
                ", \"sim_inertial_cancels\": " +
                std::to_string(s.sim_inertial_cancels) +
                ", \"sim_queue_peak\": " + std::to_string(s.sim_queue_peak) +
                ", \"speedup\": " + TablePrinter::num(s.speedup, 3) +
                ", \"max_abs_t1\": " + TablePrinter::num(s.max_abs_t1, 9) +
                ", \"phases_cpu\": {\"sim\": " +
                TablePrinter::num(s.phase_sim, 4) +
                ", \"noise\": " + TablePrinter::num(s.phase_noise, 4) +
                ", \"moments\": " + TablePrinter::num(s.phase_moments, 4) +
                ", \"attribution\": " +
                TablePrinter::num(s.phase_attribution, 4) +
                ", \"checkpoint\": " +
                TablePrinter::num(s.phase_checkpoint, 4) + "}}";
        json += (i + 1 < series.size()) ? ",\n" : "\n";
    }
    json += "  ]\n}\n";

    std::fputs(json.c_str(), stdout);
    if (std::FILE* f = std::fopen("BENCH_batch_sim.json", "w")) {
        std::fputs(json.c_str(), f);
        std::fclose(f);
        std::printf("JSON: BENCH_batch_sim.json\n");
    }
    return (deterministic && stats_identical) ? 0 : 1;
}
