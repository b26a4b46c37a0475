// Telemetry layer tests: registry shard merging, exact simulator counts
// on the secAND2 campaign, run-report JSON round-trips and the progress
// meter.  The load-bearing properties:
//
//   * shard merges are associative/commutative, so merged totals are
//     independent of thread scheduling and thread exit order;
//   * the deterministic counters (sim.*) and trace-count histograms are a
//     pure function of the campaign -- exact at any worker count;
//   * enabling telemetry does not perturb a single result bit;
//   * a rendered report parses back with every u64 exact.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/circuits.hpp"
#include "des/masked_des.hpp"
#include "eval/campaign.hpp"
#include "eval/des_experiments.hpp"
#include "eval/run_report.hpp"
#include "support/telemetry.hpp"

using namespace glitchmask;

namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "glitchmask_" + name;
}

// ----- registry ----------------------------------------------------------

TEST(TelemetryRegistry, CounterMetadataIsStableAndUnique) {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
        const auto counter = static_cast<telemetry::Counter>(i);
        const std::string name = telemetry::counter_name(counter);
        EXPECT_FALSE(name.empty());
        for (const std::string& seen : names) EXPECT_NE(name, seen);
        names.push_back(name);
    }
    EXPECT_EQ(telemetry::counter_merge(telemetry::Counter::kSimQueuePeak),
              telemetry::MergeKind::kMax);
    EXPECT_EQ(telemetry::counter_merge(telemetry::Counter::kSimEvents),
              telemetry::MergeKind::kSum);
    EXPECT_TRUE(telemetry::counter_deterministic(
        telemetry::Counter::kSimGlitches));
    EXPECT_FALSE(telemetry::counter_deterministic(
        telemetry::Counter::kPoolTasksExecuted));
}

TEST(TelemetryRegistry, ShardMergeIsExactAcrossThreadsAndThreadExit) {
    telemetry::reset();
    // Every thread adds a known amount; half the threads exit before the
    // snapshot (their shards retire), half are still alive behind a
    // barrier.  The merged totals must be the analytic sum / max either
    // way -- merge order never matters.
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 1000;
    std::atomic<int> arrived{0};
    std::atomic<bool> release{false};
    std::vector<std::thread> stayers;
    auto work = [&](int id, bool stay) {
        telemetry::Shard& shard = telemetry::shard();
        for (std::uint64_t n = 0; n < kPerThread; ++n)
            shard.add(telemetry::Counter::kSimEvents, 1);
        shard.add(telemetry::Counter::kSimToggles, kPerThread * 2);
        shard.peak(telemetry::Counter::kSimQueuePeak,
                   static_cast<std::uint64_t>(100 + id));
        arrived.fetch_add(1);
        if (stay)
            while (!release.load()) std::this_thread::yield();
    };
    {
        std::vector<std::thread> leavers;
        for (int id = 0; id < kThreads / 2; ++id)
            leavers.emplace_back(work, id, /*stay=*/false);
        for (std::thread& t : leavers) t.join();  // shards retired
    }
    for (int id = kThreads / 2; id < kThreads; ++id)
        stayers.emplace_back(work, id, /*stay=*/true);
    while (arrived.load() < kThreads) std::this_thread::yield();

    const telemetry::Snapshot merged = telemetry::snapshot();
    EXPECT_EQ(merged.value(telemetry::Counter::kSimEvents),
              kPerThread * kThreads);
    EXPECT_EQ(merged.value(telemetry::Counter::kSimToggles),
              kPerThread * 2 * kThreads);
    EXPECT_EQ(merged.value(telemetry::Counter::kSimQueuePeak),
              static_cast<std::uint64_t>(100 + kThreads - 1));

    release.store(true);
    for (std::thread& t : stayers) t.join();

    // Live and retired shards fold identically: totals are unchanged
    // after the remaining threads exit.
    const telemetry::Snapshot after = telemetry::snapshot();
    EXPECT_EQ(after.values, merged.values);
    telemetry::reset();
    EXPECT_EQ(telemetry::snapshot().value(telemetry::Counter::kSimEvents), 0u);
}

TEST(TelemetryRegistry, DeltaSubtractsSumsAndKeepsHighWater) {
    telemetry::Snapshot start;
    start.values[static_cast<std::size_t>(telemetry::Counter::kSimEvents)] = 10;
    start.values[static_cast<std::size_t>(telemetry::Counter::kSimQueuePeak)] =
        500;
    telemetry::Snapshot end = start;
    end.values[static_cast<std::size_t>(telemetry::Counter::kSimEvents)] = 35;
    end.values[static_cast<std::size_t>(telemetry::Counter::kSimQueuePeak)] =
        700;
    const telemetry::Snapshot delta = end.delta_since(start);
    EXPECT_EQ(delta.value(telemetry::Counter::kSimEvents), 25u);
    EXPECT_EQ(delta.value(telemetry::Counter::kSimQueuePeak), 700u);
}

TEST(TelemetryRegistry, RecordSimBlockFoldsDeltasAndAdvancesLast) {
    telemetry::reset();
    telemetry::SimStats last;
    telemetry::SimStats now{100, 50, 7, 3, 40};
    telemetry::record_sim_block(now, last);
    now = telemetry::SimStats{250, 90, 11, 3, 20};
    telemetry::record_sim_block(now, last);
    const telemetry::Snapshot merged = telemetry::snapshot();
    EXPECT_EQ(merged.value(telemetry::Counter::kSimEvents), 250u);
    EXPECT_EQ(merged.value(telemetry::Counter::kSimToggles), 90u);
    EXPECT_EQ(merged.value(telemetry::Counter::kSimGlitches), 11u);
    EXPECT_EQ(merged.value(telemetry::Counter::kSimInertialCancels), 3u);
    EXPECT_EQ(merged.value(telemetry::Counter::kSimQueuePeak), 40u);
    EXPECT_EQ(last.events, 250u);
    telemetry::reset();
}

// ----- histograms & gauges -----------------------------------------------

TEST(TelemetryHistogram, BucketMappingCoversTheFullU64Range) {
    // Bucket 0 holds exactly the value 0; bucket i >= 1 spans
    // [2^(i-1), 2^i).  The topmost bucket (64) catches everything from
    // 2^63 up to the u64 maximum.
    EXPECT_EQ(telemetry::histogram_bucket(0), 0u);
    EXPECT_EQ(telemetry::histogram_bucket(1), 1u);
    EXPECT_EQ(telemetry::histogram_bucket(2), 2u);
    EXPECT_EQ(telemetry::histogram_bucket(3), 2u);
    EXPECT_EQ(telemetry::histogram_bucket(4), 3u);
    EXPECT_EQ(telemetry::histogram_bucket(1023), 10u);
    EXPECT_EQ(telemetry::histogram_bucket(1024), 11u);
    EXPECT_EQ(telemetry::histogram_bucket(std::uint64_t{1} << 63), 64u);
    EXPECT_EQ(telemetry::histogram_bucket(~std::uint64_t{0}), 64u);
    // Floors invert the mapping: every bucket's floor maps back into it.
    for (std::size_t b = 0; b < telemetry::kHistogramBuckets; ++b)
        EXPECT_EQ(telemetry::histogram_bucket(
                      telemetry::histogram_bucket_floor(b)),
                  b);
    // Metadata is stable, unique and classifies the trace-count families
    // as deterministic.
    std::vector<std::string> names;
    for (std::size_t i = 0; i < telemetry::kHistogramCount; ++i) {
        const auto histogram = static_cast<telemetry::Histogram>(i);
        const std::string name = telemetry::histogram_name(histogram);
        EXPECT_FALSE(name.empty());
        for (const std::string& seen : names) EXPECT_NE(name, seen);
        names.push_back(name);
    }
    EXPECT_TRUE(telemetry::histogram_deterministic(
        telemetry::Histogram::kBlockTraces));
    EXPECT_TRUE(telemetry::histogram_deterministic(
        telemetry::Histogram::kJobTraces));
    EXPECT_FALSE(telemetry::histogram_deterministic(
        telemetry::Histogram::kExecuteNanos));
}

TEST(TelemetryHistogram, ShardMergeIsExactAcrossThreadsAndThreadExit) {
    telemetry::reset();
    const telemetry::ScopedTelemetryEnable scoped;
    // Every thread observes the same value set (including 0 and the u64
    // extremes); the merged buckets must be the analytic per-thread
    // distribution times the thread count -- element-wise u64 sums are
    // associative and commutative, so thread exit order cannot matter.
    constexpr int kThreads = 8;
    const std::vector<std::uint64_t> values = {
        0, 1, 1, 7, 4096, std::uint64_t{1} << 63, ~std::uint64_t{0}};
    {
        std::vector<std::thread> workers;
        for (int t = 0; t < kThreads; ++t)
            workers.emplace_back([&] {
                telemetry::Shard& shard = telemetry::shard();
                for (const std::uint64_t v : values)
                    shard.observe(telemetry::Histogram::kQueueWaitNanos, v);
            });
        for (std::thread& w : workers) w.join();  // all shards retired
    }
    const telemetry::HistogramSnapshot merged =
        telemetry::snapshot().histogram(telemetry::Histogram::kQueueWaitNanos);
    EXPECT_EQ(merged.count, values.size() * kThreads);
    // Sum wraps mod 2^64 identically no matter the fold order.
    std::uint64_t per_thread_sum = 0;
    for (const std::uint64_t v : values) per_thread_sum += v;
    EXPECT_EQ(merged.sum, per_thread_sum * kThreads);
    EXPECT_EQ(merged.max, ~std::uint64_t{0});
    EXPECT_EQ(merged.buckets[0], 1u * kThreads);   // the observed 0
    EXPECT_EQ(merged.buckets[1], 2u * kThreads);   // both 1s
    EXPECT_EQ(merged.buckets[3], 1u * kThreads);   // 7
    EXPECT_EQ(merged.buckets[13], 1u * kThreads);  // 4096
    EXPECT_EQ(merged.buckets[64], 2u * kThreads);  // 2^63 and u64 max
    std::uint64_t total = 0;
    for (const std::uint64_t b : merged.buckets) total += b;
    EXPECT_EQ(total, merged.count);
    telemetry::reset();
    EXPECT_EQ(telemetry::snapshot()
                  .histogram(telemetry::Histogram::kQueueWaitNanos)
                  .count,
              0u);
}

TEST(TelemetryHistogram, DeltaSubtractsBucketsAndKeepsMaxima) {
    telemetry::Snapshot start;
    auto& h0 = start.histograms[static_cast<std::size_t>(
        telemetry::Histogram::kBlockNanos)];
    h0.buckets[5] = 10;
    h0.count = 10;
    h0.sum = 200;
    h0.max = 31;
    telemetry::Snapshot end = start;
    auto& h1 = end.histograms[static_cast<std::size_t>(
        telemetry::Histogram::kBlockNanos)];
    h1.buckets[5] = 14;
    h1.buckets[7] = 2;
    h1.count = 16;
    h1.sum = 500;
    h1.max = 100;
    const telemetry::Snapshot delta = end.delta_since(start);
    const telemetry::HistogramSnapshot& d =
        delta.histogram(telemetry::Histogram::kBlockNanos);
    EXPECT_EQ(d.buckets[5], 4u);
    EXPECT_EQ(d.buckets[7], 2u);
    EXPECT_EQ(d.count, 6u);
    EXPECT_EQ(d.sum, 300u);
    EXPECT_EQ(d.max, 100u);  // high-water keeps the end value
}

TEST(TelemetryGauge, SetReadResetAndSnapshot) {
    telemetry::reset();
    // Gauges are ungated instantaneous values: set wins over set, and a
    // snapshot carries the latest stores.
    telemetry::set_gauge(telemetry::Gauge::kServiceQueueDepth, 7);
    telemetry::set_gauge(telemetry::Gauge::kServiceQueueDepth, 3);
    telemetry::set_gauge(telemetry::Gauge::kServiceSpoolBytes, 1 << 20);
    EXPECT_EQ(telemetry::gauge_value(telemetry::Gauge::kServiceQueueDepth),
              3u);
    const telemetry::Snapshot snap = telemetry::snapshot();
    EXPECT_EQ(snap.gauge(telemetry::Gauge::kServiceQueueDepth), 3u);
    EXPECT_EQ(snap.gauge(telemetry::Gauge::kServiceSpoolBytes),
              std::uint64_t{1} << 20);
    EXPECT_EQ(snap.gauge(telemetry::Gauge::kServiceRunningJobs), 0u);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < telemetry::kGaugeCount; ++i) {
        const std::string name =
            telemetry::gauge_name(static_cast<telemetry::Gauge>(i));
        EXPECT_FALSE(name.empty());
        for (const std::string& seen : names) EXPECT_NE(name, seen);
        names.push_back(name);
    }
    telemetry::reset();
    EXPECT_EQ(telemetry::gauge_value(telemetry::Gauge::kServiceSpoolBytes),
              0u);
}

TEST(TelemetryExposition, PrometheusTextRendersAllThreeFamilies) {
    telemetry::Snapshot snap;
    snap.values[static_cast<std::size_t>(telemetry::Counter::kSimEvents)] =
        42;
    auto& h = snap.histograms[static_cast<std::size_t>(
        telemetry::Histogram::kExecuteNanos)];
    h.buckets[1] = 2;  // two observations of 1
    h.buckets[64] = 1;  // one top-bucket observation
    h.count = 3;
    h.sum = 2 + 0;  // sums are opaque to the renderer; any value works
    h.max = ~std::uint64_t{0};
    snap.gauges[static_cast<std::size_t>(
        telemetry::Gauge::kServiceQueueDepth)] = 5;
    const std::string text = telemetry::render_prometheus_text(snap);
    EXPECT_NE(text.find("glitchmask_sim_events 42"), std::string::npos);
    EXPECT_NE(text.find("glitchmask_service_queue_depth 5"),
              std::string::npos);
    // Cumulative buckets: le="1" sees both small observations, +Inf sees
    // the full count, and _count matches.
    EXPECT_NE(text.find("glitchmask_service_execute_nanos_bucket{le=\"1\"} 2"),
              std::string::npos);
    EXPECT_NE(
        text.find("glitchmask_service_execute_nanos_bucket{le=\"+Inf\"} 3"),
        std::string::npos);
    EXPECT_NE(text.find("glitchmask_service_execute_nanos_count 3"),
              std::string::npos);
    // No dotted names escape the mangling.
    EXPECT_EQ(text.find("glitchmask_sim.events"), std::string::npos);
}

// ----- exact campaign counts --------------------------------------------

eval::SequenceExperimentConfig small_config(unsigned workers, unsigned lanes) {
    eval::SequenceExperimentConfig config;
    config.replicas = 4;
    config.traces = 96;
    config.block_size = 16;
    config.seed = 5;
    config.max_test_order = 2;
    config.workers = workers;
    config.lanes = lanes;
    return config;
}

struct CountedRun {
    eval::SequenceLeakResult result;
    telemetry::Snapshot counters;
};

CountedRun run_counted(unsigned workers, unsigned lanes) {
    const telemetry::ScopedTelemetryEnable scoped;
    telemetry::reset();
    CountedRun run{eval::run_sequence_experiment(
                       core::all_input_sequences().front(),
                       small_config(workers, lanes)),
                   telemetry::snapshot()};
    telemetry::reset();
    return run;
}

TEST(TelemetryCampaign, Secand2CountsExactAtAnyWorkerCount) {
    const CountedRun w1 = run_counted(1, 64);
    const CountedRun w4 = run_counted(4, 64);
    // Activity happened and was counted.  (No glitch floor here: the
    // share-per-cycle sequences exist precisely to avoid glitching in the
    // masked AND -- the DES campaign below asserts nonzero glitches.)
    EXPECT_GT(w1.counters.value(telemetry::Counter::kSimEvents), 0u);
    EXPECT_GT(w1.counters.value(telemetry::Counter::kSimToggles), 0u);
    EXPECT_GE(w1.counters.value(telemetry::Counter::kSimToggles),
              w1.counters.value(telemetry::Counter::kSimGlitches));
    EXPECT_EQ(w1.counters.histogram(telemetry::Histogram::kBlockTraces).sum,
              96u);
    EXPECT_EQ(w1.counters.histogram(telemetry::Histogram::kBlockTraces).count,
              6u);
    // The deterministic counters are a pure function of the campaign:
    // exact equality across worker counts, not just statistical agreement.
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
        const auto counter = static_cast<telemetry::Counter>(i);
        if (!telemetry::counter_deterministic(counter)) continue;
        EXPECT_EQ(w1.counters.value(counter), w4.counters.value(counter))
            << telemetry::counter_name(counter);
    }
    EXPECT_EQ(w1.result.max_abs_t1, w4.result.max_abs_t1);
    // The trace-count histograms are pure functions of the workload too:
    // 6 blocks of 16 traces, landing entirely in bucket [16, 32), and the
    // whole HistogramSnapshot (buckets, count, sum, max) bit-identical at
    // any worker count.
    const telemetry::HistogramSnapshot& blocks1 =
        w1.counters.histogram(telemetry::Histogram::kBlockTraces);
    EXPECT_EQ(blocks1.count, 6u);
    EXPECT_EQ(blocks1.sum, 96u);
    EXPECT_EQ(blocks1.max, 16u);
    EXPECT_EQ(blocks1.buckets[telemetry::histogram_bucket(16)], 6u);
    for (std::size_t i = 0; i < telemetry::kHistogramCount; ++i) {
        const auto histogram = static_cast<telemetry::Histogram>(i);
        if (!telemetry::histogram_deterministic(histogram)) continue;
        EXPECT_EQ(w1.counters.histogram(histogram),
                  w4.counters.histogram(histogram))
            << telemetry::histogram_name(histogram);
    }
    // And the wall-clock block-latency histogram saw every block even
    // though its shape is schedule-dependent.
    EXPECT_EQ(w1.counters.histogram(telemetry::Histogram::kBlockNanos).count,
              6u);
}

TEST(TelemetryCampaign, DesGlitchCountsExactAtAnyWorkerCount) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    auto run_des = [&](unsigned workers) {
        eval::DesTvlaConfig config;
        config.traces = 16;
        config.block_size = 4;
        config.seed = 9;
        config.max_test_order = 1;
        config.workers = workers;
        config.lanes = 64;
        const telemetry::ScopedTelemetryEnable scoped;
        telemetry::reset();
        (void)eval::run_des_tvla(core, config);
        const telemetry::Snapshot counters = telemetry::snapshot();
        telemetry::reset();
        return counters;
    };
    const telemetry::Snapshot w1 = run_des(1);
    const telemetry::Snapshot w4 = run_des(4);
    // The DES round logic glitches heavily (reconvergent S-box paths), so
    // the transient counter must be busy -- and exact across workers.
    EXPECT_GT(w1.value(telemetry::Counter::kSimGlitches), 0u);
    EXPECT_GT(w1.value(telemetry::Counter::kSimInertialCancels), 0u);
    EXPECT_GT(w1.value(telemetry::Counter::kSimToggles),
              w1.value(telemetry::Counter::kSimGlitches));
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
        const auto counter = static_cast<telemetry::Counter>(i);
        if (!telemetry::counter_deterministic(counter)) continue;
        EXPECT_EQ(w1.value(counter), w4.value(counter))
            << telemetry::counter_name(counter);
    }
}

TEST(TelemetryCampaign, ScalarAndBatchEnginesAgreeOnCommittedToggles) {
    const CountedRun scalar = run_counted(2, 1);
    const CountedRun batch = run_counted(2, 64);
    // Committed per-lane transitions are the engines' shared observable:
    // both drive the same power traces, so the totals must match exactly.
    // Schedule-shape counters (events, queue peak, cancellations, glitch
    // attribution) measure the engine's internal evaluation order and are
    // compared only within an engine.
    EXPECT_EQ(scalar.counters.value(telemetry::Counter::kSimToggles),
              batch.counters.value(telemetry::Counter::kSimToggles));
    EXPECT_EQ(scalar.result.max_abs_t1, batch.result.max_abs_t1);
    EXPECT_EQ(scalar.result.max_abs_t2, batch.result.max_abs_t2);
}

TEST(TelemetryCampaign, EnablingTelemetryIsBitIdentical) {
    telemetry::set_enabled(false);
    const eval::SequenceLeakResult off = eval::run_sequence_experiment(
        core::all_input_sequences().front(), small_config(2, 64));
    const CountedRun on = run_counted(2, 64);
    EXPECT_EQ(off.max_abs_t1, on.result.max_abs_t1);
    EXPECT_EQ(off.max_abs_t2, on.result.max_abs_t2);
    EXPECT_EQ(off.argmax_cycle, on.result.argmax_cycle);
}

// ----- run reports -------------------------------------------------------

TEST(RunReport, JsonParserReadsScalarsExactly) {
    const JsonValue doc = parse_json(
        R"({"a": 18446744073709551615, "b": -2.5, "c": "x\"\nA",
            "d": [true, false, null], "e": {"nested": 1}})");
    ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
    ASSERT_NE(doc.find("a"), nullptr);
    EXPECT_EQ(doc.find("a")->kind, JsonValue::Kind::kUnsigned);
    EXPECT_EQ(doc.find("a")->unsigned_value, 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(doc.find("b")->as_number(), -2.5);
    EXPECT_EQ(doc.find("c")->string, "x\"\nA");
    ASSERT_EQ(doc.find("d")->array.size(), 3u);
    EXPECT_TRUE(doc.find("d")->array[0].boolean);
    EXPECT_EQ(doc.find("e")->find("nested")->unsigned_value, 1u);
    EXPECT_THROW((void)parse_json("{\"unterminated\": "),
                 std::runtime_error);
    EXPECT_THROW((void)parse_json("{} trailing"), std::runtime_error);
}

TEST(RunReport, RoundTripKeepsEveryFieldExact) {
    eval::RunReport report;
    eval::LedgerEntry& entry = report.entry;
    entry.source = "run_report";
    entry.campaign = "round_trip";
    // Fingerprint words exercise the full u64 range -- a double round-trip
    // would corrupt them.
    entry.fingerprint = {0xFFFFFFFFFFFFFFFFull, 0x8000000000000001ull,
                         1234567, 64, 0xDEADBEEFCAFEF00Dull};
    entry.revision = "cafe";
    entry.host = "rig";
    entry.utc = "2026-08-09T12:00:00Z";
    entry.workers = 8;
    entry.lanes = 64;
    entry.wall_seconds = 12.75;
    entry.cpu_seconds = 98.5;
    entry.max_abs_t1 = 4.125;
    entry.toggles = 1000000;
    entry.attribution = {{7, "g0.t1", 9.5, 12, 3}};
    entry.phases = {{"sim", 1.5, 0.75}};
    entry.metrics = {{"max_abs_t_order1", 4.125}, {"toggles", 1e6}};
    report.counters.values[static_cast<std::size_t>(
        telemetry::Counter::kSimEvents)] = 0xFFFFFFFFFFFFFFFEull;
    report.counters.values[static_cast<std::size_t>(
        telemetry::Counter::kSimQueuePeak)] = 4242;
    report.progress.completed_blocks = 19;
    report.progress.completed_traces = 1216;
    report.progress.resumed = true;
    report.progress.cancelled = false;
    report.progress.checkpoint_blocks = {16, 19};

    const std::string path = temp_path("roundtrip.report.json");
    eval::write_run_report(path, report);
    const auto read = eval::read_run_report(path);
    std::remove(path.c_str());
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(read->entry, report.entry);
    EXPECT_EQ(read->counters.values, report.counters.values);
    EXPECT_EQ(read->progress.completed_blocks, report.progress.completed_blocks);
    EXPECT_EQ(read->progress.completed_traces, report.progress.completed_traces);
    EXPECT_TRUE(read->progress.resumed);
    EXPECT_FALSE(read->progress.cancelled);
    EXPECT_EQ(read->progress.checkpoint_blocks,
              report.progress.checkpoint_blocks);
    EXPECT_FALSE(eval::read_run_report(temp_path("missing.report.json"))
                     .has_value());
}

// A v5 report carries the run record under "entry" in the ledger's own
// bytes.
TEST(RunReport, RecordIsWrittenWithTheLedgerEncoder) {
    eval::RunReport report;
    report.entry.campaign = "v5";
    report.entry.toggles = 0xFFFFFFFFFFFFFFFFull;
    EXPECT_NE(eval::render_run_report(report).find(
                  "\"entry\":" + eval::render_ledger_entry(report.entry) +
                  ","),
              std::string::npos);
}

// A report whose values have the wrong JSON kind must fail to read, not
// read as 0 or "" -- the ledger would store that 0 as a leakage fact.
// One hostile value per field kind the reader takes: u64 (a counter, a
// histogram bucket pair, a checkpoint mark), string, bool and number.
TEST(RunReport, ReaderRejectsValuesOfTheWrongKind) {
    eval::RunReport report;
    report.entry.campaign = "hostile";
    report.entry.wall_seconds = 1.5;
    report.counters.values[static_cast<std::size_t>(
        telemetry::Counter::kSimToggles)] = 7;
    auto& traces = report.counters.histograms[static_cast<std::size_t>(
        telemetry::Histogram::kBlockTraces)];
    traces.buckets[telemetry::histogram_bucket(16)] = 6;
    traces.count = 6;
    traces.sum = 96;
    traces.max = 16;
    report.progress.checkpoint_blocks = {4, 8};
    const std::string text = eval::render_run_report(report);
    const auto decode = [](const std::string& json) {
        return eval::decode_run_report(parse_json(json));
    };
    EXPECT_EQ(decode(text).counters.values, report.counters.values);

    const std::pair<const char*, const char*> kHostile[] = {
        {"\"sim.toggles\":7", "\"sim.toggles\":-5"},
        {"\"sim.toggles\":7", "\"sim.toggles\":\"x\""},
        {"\"sim.toggles\":7", "\"sim.toggles\":1.5"},
        {"[16,6]", "[\"x\",6]"},
        {"[16,6]", "[16,-6]"},
        {"\"checkpoint_blocks\":[4,8]", "\"checkpoint_blocks\":[4,\"x\"]"},
        {"\"campaign\":\"hostile\"", "\"campaign\":7"},
        {"\"resumed\":false", "\"resumed\":0"},
        {"\"wall_seconds\":1.5", "\"wall_seconds\":\"x\""},
    };
    for (const auto& [valid, hostile] : kHostile) {
        std::string bad = text;
        const std::size_t at = bad.find(valid);
        ASSERT_NE(at, std::string::npos) << valid;
        bad.replace(at, std::string_view(valid).size(), hostile);
        EXPECT_THROW((void)decode(bad), std::runtime_error) << hostile;
    }
}

TEST(RunReport, DriverWritesAValidatedReport) {
    const std::string path = temp_path("seq_driver.report.json");
    eval::SequenceExperimentConfig config = small_config(2, 64);
    config.run.report_path = path;
    const bool was_enabled = telemetry::enabled();
    telemetry::set_enabled(false);  // the session must enable it itself
    const eval::SequenceLeakResult result = eval::run_sequence_experiment(
        core::all_input_sequences().front(), config);
    telemetry::set_enabled(was_enabled);

    const auto report = eval::read_run_report(path);
    std::remove(path.c_str());
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->entry.source, "run_report");
    EXPECT_EQ(report->entry.status, "completed");
    EXPECT_EQ(report->entry.fingerprint.seed, 5u);
    EXPECT_EQ(report->entry.fingerprint.traces, 96u);
    EXPECT_EQ(report->entry.workers, 2u);
    EXPECT_EQ(report->entry.lanes, 64u);
    EXPECT_GT(report->entry.wall_seconds, 0.0);
    EXPECT_EQ(report->entry.max_abs_t1, result.max_abs_t1);
    EXPECT_GT(report->counters.value(telemetry::Counter::kSimEvents), 0u);
    EXPECT_EQ(
        report->counters.histogram(telemetry::Histogram::kBlockTraces).sum,
        96u);
    EXPECT_EQ(report->progress.completed_traces, 96u);
    bool has_t1 = false;
    for (const auto& [name, value] : report->entry.metrics)
        if (name == "max_abs_t_order1") {
            has_t1 = true;
            EXPECT_DOUBLE_EQ(value, result.max_abs_t1);
        }
    EXPECT_TRUE(has_t1);
}

TEST(RunReport, PathResolutionMirrorsCheckpoints) {
    eval::CampaignRunOptions run;
    ::unsetenv("GLITCHMASK_REPORT_DIR");
    EXPECT_EQ(eval::resolve_report_path(run, "des_tvla"), "");
    run.report_path = "/tmp/explicit.report.json";
    EXPECT_EQ(eval::resolve_report_path(run, "des_tvla"),
              "/tmp/explicit.report.json");
    run.report_path.clear();
    ::setenv("GLITCHMASK_REPORT_DIR", "/tmp/gm_reports", 1);
    EXPECT_EQ(eval::resolve_report_path(run, "des_tvla"),
              "/tmp/gm_reports/des_tvla.report.json");
    ::unsetenv("GLITCHMASK_REPORT_DIR");
}

// ----- progress meter ----------------------------------------------------

TEST(ProgressMeter, InactiveWithoutCallbackOrHeartbeat) {
    telemetry::set_heartbeat_interval(0.0);
    telemetry::ProgressMeter meter("idle", 100, nullptr);
    EXPECT_FALSE(meter.active());
    meter.advance(10);  // must be safe even when inactive
    EXPECT_EQ(meter.completed(), 10u);
}

TEST(ProgressMeter, CallbackSeesRateLimitedAndFinalUpdates) {
    telemetry::set_heartbeat_interval(0.0);
    std::vector<telemetry::ProgressUpdate> updates;
    telemetry::ProgressMeter meter(
        "cb", 64, [&](const telemetry::ProgressUpdate& u) {
            updates.push_back(u);
        });
    EXPECT_TRUE(meter.active());
    // The first advance always lands (the emit deadline starts at 0); the
    // immediately-following ones fall inside the rate-limit window.
    for (int i = 0; i < 32; ++i) meter.advance(1);
    meter.finish();
    ASSERT_GE(updates.size(), 2u);
    EXPECT_LT(updates.size(), 32u);  // rate limit suppressed the burst
    EXPECT_EQ(updates.front().campaign, "cb");
    EXPECT_EQ(updates.front().total_traces, 64u);
    EXPECT_FALSE(updates.front().final);
    EXPECT_TRUE(updates.back().final);
    EXPECT_EQ(updates.back().completed_traces, 32u);
}

TEST(ProgressMeter, ResumedTracesCountTowardCompletionNotRate) {
    telemetry::set_heartbeat_interval(0.0);
    telemetry::ProgressUpdate last;
    telemetry::ProgressMeter meter(
        "resume", 100, [&](const telemetry::ProgressUpdate& u) { last = u; });
    meter.note_resumed(60);
    meter.advance(5);
    meter.finish();
    EXPECT_EQ(last.completed_traces, 65u);
    EXPECT_TRUE(last.final);
    // Rate derives from the 5 fresh traces only; with 35 left the ETA can
    // exceed the elapsed time many-fold, but it must be finite and the
    // rate positive.
    EXPECT_GT(last.traces_per_sec, 0.0);
}

TEST(ProgressMeter, ZeroFreshTracesNeverDividesByZero) {
    telemetry::set_heartbeat_interval(0.0);
    // A campaign cancelled before its first block finishes with zero
    // completed traces; the rate/ETA math must report clean zeros, never
    // 0/elapsed artifacts or NaN.
    telemetry::ProgressUpdate last;
    telemetry::ProgressMeter meter(
        "empty", 100, [&](const telemetry::ProgressUpdate& u) { last = u; });
    meter.finish();
    EXPECT_TRUE(last.final);
    EXPECT_EQ(last.completed_traces, 0u);
    EXPECT_EQ(last.traces_per_sec, 0.0);
    EXPECT_EQ(last.eta_sec, 0.0);
    EXPECT_GE(last.elapsed_sec, 0.0);
}

TEST(ProgressMeter, ResumeCreditWithNoFreshWorkKeepsRateZero) {
    telemetry::set_heartbeat_interval(0.0);
    // A resume credits 80 traces before any fresh block lands.  The fresh
    // count (completed - resumed) is zero; an unguarded u64 subtraction
    // under the emit/note_resumed race would instead produce a ~1.8e19
    // "fresh" count.  With zero rate, the 20 remaining traces must yield
    // ETA 0 (unknown), never a division by the zero rate.
    telemetry::ProgressUpdate last;
    telemetry::ProgressMeter meter(
        "saturate", 100,
        [&](const telemetry::ProgressUpdate& u) { last = u; });
    meter.note_resumed(80);
    meter.finish();
    EXPECT_EQ(last.completed_traces, 80u);
    EXPECT_EQ(last.traces_per_sec, 0.0);
    EXPECT_EQ(last.eta_sec, 0.0);
}

TEST(ProgressMeter, FullyResumedRunReportsZeroEta) {
    telemetry::set_heartbeat_interval(0.0);
    // Everything was done by the previous process: completion is total,
    // the fresh-trace rate is zero, and the ETA must not go negative or
    // divide by the zero rate.
    telemetry::ProgressUpdate last;
    telemetry::ProgressMeter meter(
        "all_resumed", 50,
        [&](const telemetry::ProgressUpdate& u) { last = u; });
    meter.note_resumed(50);
    meter.advance(0);
    meter.finish();
    EXPECT_EQ(last.completed_traces, 50u);
    EXPECT_EQ(last.traces_per_sec, 0.0);
    EXPECT_EQ(last.eta_sec, 0.0);
}

}  // namespace
