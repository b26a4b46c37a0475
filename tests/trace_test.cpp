// Span-tracing tests: the recorder's parenting/buffering semantics, the
// Chrome-trace export, the run report's histogram and span sections, that
// every timed interval feeds its histogram and its span once, and -- the
// load-bearing property -- that turning tracing on never perturbs a
// campaign result bit.  Tracing shares telemetry's zero-cost-off
// contract: a disabled ScopedSpan reads no clock and allocates no id, so
// the default configuration pays nothing for the instrumentation
// sprinkled through the runners and the service.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/circuits.hpp"
#include "des/masked_des.hpp"
#include "eval/campaign.hpp"
#include "eval/des_experiments.hpp"
#include "eval/run_report.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

using namespace glitchmask;

namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "glitchmask_" + name;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

const trace::Span* find_span(const std::vector<trace::Span>& spans,
                             const std::string& name) {
    for (const trace::Span& span : spans)
        if (span.name == name) return &span;
    return nullptr;
}

eval::SequenceExperimentConfig small_config(unsigned workers) {
    eval::SequenceExperimentConfig config;
    config.replicas = 4;
    config.traces = 96;
    config.block_size = 16;
    config.seed = 5;
    config.max_test_order = 2;
    config.workers = workers;
    config.lanes = 64;
    return config;
}

// ----- recorder ----------------------------------------------------------

TEST(TraceRecorder, DisabledRecorderIsInert) {
    trace::set_enabled(false);
    trace::reset();
    {
        const trace::ScopedSpan span("noop");
        EXPECT_EQ(span.id(), 0u);           // no id allocated when off
        EXPECT_EQ(trace::current_span(), 0u);  // and no ambient join
    }
    trace::record_span(trace::new_span_id(), "manual", 0, 10, 20);
    EXPECT_TRUE(trace::take_spans().empty());
    EXPECT_EQ(trace::dropped_spans(), 0u);
}

TEST(TraceRecorder, ScopedSpansNestUnderTheAmbientStack) {
    const trace::ScopedTraceEnable scoped;
    trace::reset();
    trace::SpanId outer_id = 0;
    trace::SpanId inner_id = 0;
    {
        const trace::ScopedSpan outer("outer");
        outer_id = outer.id();
        ASSERT_NE(outer_id, 0u);
        EXPECT_EQ(trace::current_span(), outer_id);
        {
            const trace::ScopedSpan inner("inner", 0, {{"key", "value"}});
            inner_id = inner.id();
            EXPECT_NE(inner_id, outer_id);
            EXPECT_EQ(trace::current_span(), inner_id);
        }
        EXPECT_EQ(trace::current_span(), outer_id);
    }
    EXPECT_EQ(trace::current_span(), 0u);

    const std::vector<trace::Span> spans = trace::take_spans();
    ASSERT_EQ(spans.size(), 2u);
    const trace::Span* outer = find_span(spans, "outer");
    const trace::Span* inner = find_span(spans, "inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->id, outer_id);
    EXPECT_EQ(outer->parent, 0u);           // root: no ambient above it
    EXPECT_EQ(inner->parent, outer_id);     // defaulted from the ambient
    ASSERT_EQ(inner->attrs.size(), 1u);
    EXPECT_EQ(inner->attrs[0].first, "key");
    EXPECT_EQ(inner->attrs[0].second, "value");
    EXPECT_GE(outer->end_ns, outer->begin_ns);
    EXPECT_LE(outer->begin_ns, inner->begin_ns);

    // take_spans drained the buffers; a second drain is empty.
    EXPECT_TRUE(trace::take_spans().empty());
    trace::reset();
}

TEST(TraceRecorder, ExplicitParentOverridesTheAmbientSpan) {
    const trace::ScopedTraceEnable scoped;
    trace::reset();
    const trace::SpanId external = trace::new_span_id();
    {
        const trace::ScopedSpan ambient("ambient");
        const trace::ScopedSpan child("child", external);
        EXPECT_NE(child.id(), 0u);
    }
    const std::vector<trace::Span> spans = trace::take_spans();
    const trace::Span* child = find_span(spans, "child");
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(child->parent, external);
    trace::reset();
}

TEST(TraceRecorder, ExplicitIdsStitchSpansAcrossExitedThreads) {
    const trace::ScopedTraceEnable scoped;
    trace::reset();
    // A service job's shape: the root id is allocated on one thread, the
    // work happens (and records) on another that exits before the drain,
    // and the root span itself is recorded retrospectively at the end.
    const trace::SpanId root = trace::new_span_id();
    std::thread worker([&] {
        trace::push_ambient(root);
        { const trace::ScopedSpan leaf("leaf"); }
        trace::pop_ambient();
    });
    worker.join();  // worker's buffer must survive the thread
    trace::record_span(root, "root", 0, 5, 50,
                       {{"job", "1"}});
    const std::vector<trace::Span> spans = trace::take_spans();
    ASSERT_EQ(spans.size(), 2u);
    const trace::Span* leaf = find_span(spans, "leaf");
    const trace::Span* recorded = find_span(spans, "root");
    ASSERT_NE(leaf, nullptr);
    ASSERT_NE(recorded, nullptr);
    EXPECT_EQ(leaf->parent, root);
    EXPECT_EQ(recorded->id, root);
    EXPECT_EQ(recorded->begin_ns, 5u);
    EXPECT_EQ(recorded->end_ns, 50u);
    trace::reset();
}

TEST(TraceRecorder, SummarizeAggregatesByNameSorted) {
    std::vector<trace::Span> spans(4);
    spans[0].name = "block";
    spans[0].begin_ns = 100;
    spans[0].end_ns = 400;
    spans[1].name = "sim";
    spans[1].begin_ns = 100;
    spans[1].end_ns = 150;
    spans[2].name = "block";
    spans[2].begin_ns = 400;
    spans[2].end_ns = 1000;
    spans[3].name = "execute";
    spans[3].begin_ns = 0;
    spans[3].end_ns = 2000;
    const std::vector<trace::SpanSummary> summary =
        trace::summarize_spans(spans);
    const std::vector<trace::SpanSummary> expected = {
        {"block", 2, 900}, {"execute", 1, 2000}, {"sim", 1, 50}};
    EXPECT_EQ(summary, expected);
    EXPECT_TRUE(trace::summarize_spans({}).empty());
}

// ----- Chrome-trace export -----------------------------------------------

TEST(ChromeTrace, RenderedJsonIsWellFormed) {
    std::vector<trace::Span> spans(2);
    spans[0].id = 7;
    spans[0].name = "execute \"q\"\n";  // must survive JSON escaping
    spans[0].begin_ns = 1500;
    spans[0].end_ns = 4500;
    spans[0].thread = 2;
    spans[0].attrs = {{"job", "9"}};
    spans[1].id = 8;
    spans[1].parent = 7;
    spans[1].name = "block";
    spans[1].begin_ns = 2000;
    spans[1].end_ns = 2100;

    const eval::JsonValue doc =
        eval::parse_json(trace::render_chrome_trace(spans));
    const eval::JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array.size(), 2u);
    for (const eval::JsonValue& event : events->array) {
        ASSERT_NE(event.find("ph"), nullptr);
        EXPECT_EQ(event.find("ph")->string, "X");  // complete events
        EXPECT_NE(event.find("name"), nullptr);
        EXPECT_NE(event.find("ts"), nullptr);
        EXPECT_NE(event.find("dur"), nullptr);
        EXPECT_NE(event.find("pid"), nullptr);
        EXPECT_NE(event.find("tid"), nullptr);
        ASSERT_NE(event.find("args"), nullptr);
    }
    const eval::JsonValue& exec = events->array[0];
    EXPECT_EQ(exec.find("name")->string, "execute \"q\"\n");
    EXPECT_DOUBLE_EQ(exec.find("ts")->as_number(), 1.5);    // 1500 ns in us
    EXPECT_DOUBLE_EQ(exec.find("dur")->as_number(), 3.0);   // 3000 ns
    EXPECT_EQ(exec.find("args")->find("job")->string, "9");
    const eval::JsonValue& block = events->array[1];
    EXPECT_EQ(block.find("args")->find("parent")->string, "7");
    EXPECT_EQ(block.find("args")->find("id")->string, "8");
}

TEST(ChromeTrace, ThreadIndexBecomesTheTid) {
    std::vector<trace::Span> spans(2);
    spans[0].id = 1;
    spans[0].name = "a";
    spans[0].thread = 2;
    spans[1].id = 2;
    spans[1].name = "b";
    spans[1].thread = 0;
    const eval::JsonValue doc =
        eval::parse_json(trace::render_chrome_trace(spans));
    const auto& events = doc.find("traceEvents")->array;
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].find("tid")->unsigned_value, 2u);
    EXPECT_EQ(events[1].find("tid")->unsigned_value, 0u);
}

TEST(ChromeTrace, WriteExportsALoadableFile) {
    std::vector<trace::Span> spans(1);
    spans[0].id = 1;
    spans[0].name = "job";
    spans[0].end_ns = 1000;
    const std::string path = temp_path("export.trace.json");
    trace::write_chrome_trace(path, spans);
    const std::string text = read_file(path);
    std::remove(path.c_str());
    ASSERT_FALSE(text.empty());
    const eval::JsonValue doc = eval::parse_json(text);
    ASSERT_NE(doc.find("traceEvents"), nullptr);
    ASSERT_EQ(doc.find("traceEvents")->array.size(), 1u);
    EXPECT_EQ(doc.find("traceEvents")->array[0].find("name")->string, "job");
}

// ----- campaigns under tracing -------------------------------------------

TEST(TraceCampaign, EnablingTracingIsBitIdentical) {
    trace::set_enabled(false);
    trace::reset();
    const eval::SequenceLeakResult off = eval::run_sequence_experiment(
        core::all_input_sequences().front(), small_config(2));

    eval::SequenceLeakResult on;
    std::vector<trace::Span> spans;
    {
        const trace::ScopedTraceEnable scoped;
        trace::reset();
        on = eval::run_sequence_experiment(
            core::all_input_sequences().front(), small_config(2));
        spans = trace::take_spans();
    }
    trace::reset();

    // Recording is measurement-only: the statistics agree bit for bit.
    EXPECT_EQ(off.max_abs_t1, on.max_abs_t1);
    EXPECT_EQ(off.max_abs_t2, on.max_abs_t2);
    EXPECT_EQ(off.argmax_cycle, on.argmax_cycle);

    // And the traced run actually produced the block/phase tree: one
    // "block" span per shard block, with the phase leaves nested under
    // block spans (cross-thread parenting via the ambient stack).
    std::size_t blocks = 0;
    for (const trace::Span& span : spans)
        if (span.name == "block") ++blocks;
    EXPECT_EQ(blocks, 6u);  // 96 traces / block_size 16
    const trace::Span* sim = find_span(spans, "sim");
    ASSERT_NE(sim, nullptr);
    const trace::Span* parent = nullptr;
    for (const trace::Span& span : spans)
        if (span.id == sim->parent) parent = &span;
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(parent->name, "block");
}

// One checkpointed campaign: 6 blocks, snapshots after blocks 4 and 6.
eval::SequenceExperimentConfig checkpointed_config(const std::string& path) {
    eval::SequenceExperimentConfig config = small_config(2);
    config.run.checkpoint_path = path;
    config.run.checkpoint_every = 4;
    return config;
}

// Every interval is measured once: with telemetry and tracing both on,
// each family that has a span holds exactly the intervals its spans
// cover -- the histogram's count is the span count and its sum is the
// spans' total duration, because one call fed both from one pair of
// clock reads.
TEST(TraceCampaign, EachIntervalIsMeasuredOnce) {
    const std::string snapshot = temp_path("measured_once.gmsnap");
    std::remove(snapshot.c_str());
    const telemetry::ScopedTelemetryEnable telemetry_on;
    const trace::ScopedTraceEnable tracing_on;
    telemetry::reset();
    trace::reset();
    (void)eval::run_sequence_experiment(core::all_input_sequences().front(),
                                        checkpointed_config(snapshot));
    const telemetry::Snapshot registry = telemetry::snapshot();
    const std::vector<trace::SpanSummary> spans =
        trace::summarize_spans(trace::take_spans());
    std::remove(snapshot.c_str());
    telemetry::reset();

    std::vector<std::string> exercised;
    for (std::size_t i = 0; i < telemetry::kHistogramCount; ++i) {
        const auto histogram = static_cast<telemetry::Histogram>(i);
        const char* name = telemetry::histogram_span_name(histogram);
        if (name == nullptr) continue;
        trace::SpanSummary rollup{name, 0, 0};
        for (const trace::SpanSummary& span : spans)
            if (span.name == name) rollup = span;
        const telemetry::HistogramSnapshot& h = registry.histogram(histogram);
        EXPECT_EQ(h.count, rollup.count) << name;
        EXPECT_EQ(h.sum, rollup.total_ns) << name;
        if (h.count != 0) exercised.push_back(name);
    }
    // The campaign families all ran; the service ones (queue_wait,
    // execute, cache_lookup) stayed at zero on both sides.
    for (const char* name : {"block", "checkpoint", "sim", "noise", "moments"})
        EXPECT_NE(std::find(exercised.begin(), exercised.end(), name),
                  exercised.end())
            << name;
    EXPECT_EQ(registry.histogram(telemetry::Histogram::kBlockNanos).count, 6u);
    EXPECT_EQ(
        registry.histogram(telemetry::Histogram::kCheckpointWriteNanos).count,
        2u);
}

// An interval that ends by an exception keeps its span but is not
// counted: the histogram holds only completed work (a checkpoint write
// that throws never lands).
TEST(ScopedInterval, AnIntervalLeftByAnExceptionIsTracedNotCounted) {
    const telemetry::ScopedTelemetryEnable telemetry_on;
    const trace::ScopedTraceEnable tracing_on;
    telemetry::reset();
    trace::reset();
    try {
        const telemetry::ScopedInterval interval(
            telemetry::Histogram::kCheckpointWriteNanos);
        throw std::runtime_error("write failed");
    } catch (const std::runtime_error&) {
    }
    {
        const telemetry::ScopedInterval interval(
            telemetry::Histogram::kCheckpointWriteNanos);
    }
    const std::vector<trace::Span> spans = trace::take_spans();
    EXPECT_EQ(spans.size(), 2u);
    EXPECT_EQ(telemetry::snapshot()
                  .histogram(telemetry::Histogram::kCheckpointWriteNanos)
                  .count,
              1u);
    EXPECT_EQ(trace::current_span(), 0u);
    telemetry::reset();
    trace::reset();
}

// Either instrument alone leaves no mark in the other: telemetry without
// tracing allocates no span id, tracing without telemetry observes no
// histogram.
TEST(TraceCampaign, OneInstrumentLeavesTheOtherUntouched) {
    const std::string snapshot = temp_path("one_instrument.gmsnap");
    {
        std::remove(snapshot.c_str());
        const telemetry::ScopedTelemetryEnable telemetry_on;
        trace::set_enabled(false);
        telemetry::reset();
        trace::reset();
        const trace::SpanId before = trace::new_span_id();
        (void)eval::run_sequence_experiment(
            core::all_input_sequences().front(),
            checkpointed_config(snapshot));
        EXPECT_EQ(trace::new_span_id(), before + 1);
        EXPECT_TRUE(trace::take_spans().empty());
        EXPECT_EQ(telemetry::snapshot()
                      .histogram(telemetry::Histogram::kBlockNanos)
                      .count,
                  6u);
    }
    {
        std::remove(snapshot.c_str());
        const trace::ScopedTraceEnable tracing_on;
        telemetry::set_enabled(false);
        telemetry::reset();
        trace::reset();
        (void)eval::run_sequence_experiment(
            core::all_input_sequences().front(),
            checkpointed_config(snapshot));
        EXPECT_FALSE(trace::take_spans().empty());
        const telemetry::Snapshot registry = telemetry::snapshot();
        for (std::size_t i = 0; i < telemetry::kHistogramCount; ++i)
            EXPECT_EQ(registry.histograms[i], telemetry::HistogramSnapshot{})
                << telemetry::histogram_name(
                       static_cast<telemetry::Histogram>(i));
    }
    std::remove(snapshot.c_str());
    telemetry::reset();
    trace::reset();
}

// A 64-lane DES campaign with telemetry, tracing and attribution off
// leaves no mark of any of them: it allocates no span id, records no
// span, leaves every telemetry counter and histogram at zero and returns
// a disabled attribution result.  Deterministic, unlike timing the
// disabled path against itself, which can only measure host noise.
TEST(TraceCampaign, DisabledInstrumentsLeaveNoTrace) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    eval::DesTvlaConfig config;
    config.traces = 64;
    config.workers = 1;
    config.lanes = 64;
    config.run.attribution = false;
    telemetry::set_enabled(false);
    trace::set_enabled(false);
    telemetry::reset();
    trace::reset();

    const trace::SpanId before = trace::new_span_id();
    const eval::DesTvlaResult result = eval::run_des_tvla(core, config);
    const trace::SpanId after = trace::new_span_id();

    EXPECT_EQ(result.progress.completed_traces, 64u);
    EXPECT_EQ(after, before + 1);
    EXPECT_TRUE(trace::take_spans().empty());
    EXPECT_EQ(trace::dropped_spans(), 0u);
    const telemetry::Snapshot snapshot = telemetry::snapshot();
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i)
        EXPECT_EQ(snapshot.values[i], 0u) << telemetry::counter_name(
            static_cast<telemetry::Counter>(i));
    for (std::size_t i = 0; i < telemetry::kHistogramCount; ++i)
        EXPECT_EQ(snapshot.histograms[i], telemetry::HistogramSnapshot{})
            << telemetry::histogram_name(static_cast<telemetry::Histogram>(i));
    EXPECT_FALSE(result.attribution.enabled);
}

// ----- run-report v3 ------------------------------------------------------

TEST(RunReportV3, RoundTripKeepsHistogramsAndSpans) {
    eval::RunReport report;
    report.campaign = "v3_round_trip";
    report.fingerprint = {1, 2, 3, 4, 5};
    report.workers = 2;
    report.lanes = 64;
    report.telemetry_enabled = true;

    auto& execute = report.counters.histograms[static_cast<std::size_t>(
        telemetry::Histogram::kExecuteNanos)];
    execute.buckets[telemetry::histogram_bucket(123456)] = 3;
    execute.buckets[telemetry::histogram_bucket(0)] = 1;
    // Full-range observation: the topmost bucket's floor is 2^63, which a
    // double round-trip would corrupt.
    execute.buckets[telemetry::histogram_bucket(~std::uint64_t{0})] = 1;
    execute.count = 5;
    execute.sum = 3 * 123456ull + ~std::uint64_t{0};
    execute.max = ~std::uint64_t{0};
    auto& traces = report.counters.histograms[static_cast<std::size_t>(
        telemetry::Histogram::kBlockTraces)];
    traces.buckets[telemetry::histogram_bucket(16)] = 6;
    traces.count = 6;
    traces.sum = 96;
    traces.max = 16;

    report.spans = {{"block", 6, 1234567}, {"execute", 1, 99999999}};

    const std::string path = temp_path("v3.report.json");
    eval::write_run_report(path, report);
    const auto read = eval::read_run_report(path);
    std::remove(path.c_str());
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(read->counters.histograms, report.counters.histograms);
    EXPECT_EQ(read->spans, report.spans);
}

TEST(RunReportV3, ReaderRejectsAnUnknownVersion) {
    const char* common = R"(
      "campaign": "legacy",
      "fingerprint": {"kind": 1, "seed": 2, "traces": 3,
                      "block_size": 4, "payload": 5},
      "workers": 1,
      "lanes": 64,
      "wall_seconds": 1.5,
      "cpu_seconds": 2.5,
      "telemetry_enabled": false,
      "counters": {},
      "progress": {"completed_blocks": 1, "completed_traces": 16,
                   "resumed": false, "cancelled": false},
      "checkpoint_blocks": [],
      "metrics": {})";
    const std::string text =
        std::string("{\"schema\": \"glitchmask.run_report\", "
                    "\"version\": 99,") +
        common + "}\n";
    const std::string path = temp_path("future.report.json");
    {
        std::ofstream out(path, std::ios::binary);
        out << text;
    }
    EXPECT_THROW((void)eval::read_run_report(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(RunReportV3, SessionExportsTraceViaEnvDir) {
    const std::string dir = ::testing::TempDir() + "glitchmask_trace_dir";
    std::filesystem::create_directories(dir);
    ::setenv("GLITCHMASK_TRACE_DIR", dir.c_str(), 1);
    trace::set_enabled(false);
    trace::reset();

    eval::SequenceExperimentConfig config = small_config(2);
    config.run.campaign_id = "trace_session";
    const eval::SequenceLeakResult result = eval::run_sequence_experiment(
        core::all_input_sequences().front(), config);
    (void)result;
    ::unsetenv("GLITCHMASK_TRACE_DIR");
    EXPECT_FALSE(trace::enabled());  // the session restored the gate

    const std::string path = dir + "/trace_session.trace.json";
    const std::string text = read_file(path);
    std::remove(path.c_str());
    ASSERT_FALSE(text.empty()) << "session did not export " << path;
    const eval::JsonValue doc = eval::parse_json(text);
    const eval::JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool saw_block = false;
    for (const eval::JsonValue& event : events->array)
        if (event.find("name") != nullptr &&
            event.find("name")->string == "block")
            saw_block = true;
    EXPECT_TRUE(saw_block);
    trace::reset();
}

}  // namespace
