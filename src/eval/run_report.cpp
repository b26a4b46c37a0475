#include "eval/run_report.hpp"

#include <span>
#include <stdexcept>

#include "leakage/attribution.hpp"
#include "support/atomic_file.hpp"
#include "support/campaign_error.hpp"
#include "support/env.hpp"
#include "support/json.hpp"

namespace glitchmask::eval {

namespace {

using Kind = JsonValue::Kind;
constexpr std::string_view kReport = "run report";

/// The phase split of a reported run: CPU seconds from the phase
/// histograms' sums (summed across workers), wall seconds from the
/// same-named trace span rollup when the run collected one.
std::vector<LedgerPhase> phase_split(
    const telemetry::Snapshot& counters,
    const std::vector<trace::SpanSummary>& spans) {
    std::vector<LedgerPhase> phases;
    for (const telemetry::Histogram histogram :
         {telemetry::Histogram::kPhaseSimNanos,
          telemetry::Histogram::kPhaseNoiseNanos,
          telemetry::Histogram::kPhaseMomentsNanos,
          telemetry::Histogram::kPhaseAttributionNanos,
          telemetry::Histogram::kCheckpointWriteNanos}) {
        LedgerPhase phase;
        phase.name = telemetry::histogram_span_name(histogram);
        phase.cpu_seconds =
            static_cast<double>(counters.histogram(histogram).sum) * 1e-9;
        for (const trace::SpanSummary& span : spans)
            if (span.name == phase.name)
                phase.wall_seconds = static_cast<double>(span.total_ns) * 1e-9;
        if (phase.cpu_seconds > 0.0 || phase.wall_seconds > 0.0)
            phases.push_back(std::move(phase));
    }
    return phases;
}

}  // namespace

std::string resolve_report_path(const CampaignRunOptions& run,
                                const std::string& default_id) {
    if (!run.report_path.empty()) return run.report_path;
    const std::string dir = env_string("GLITCHMASK_REPORT_DIR", "");
    if (dir.empty()) return {};
    const std::string id =
        run.campaign_id.empty() ? default_id : run.campaign_id;
    return dir + "/" + id + ".report.json";
}

std::string resolve_trace_path(const CampaignRunOptions& run,
                               const std::string& default_id) {
    const std::string dir = env_string("GLITCHMASK_TRACE_DIR", "");
    if (dir.empty()) return {};
    const std::string id =
        run.campaign_id.empty() ? default_id : run.campaign_id;
    return dir + "/" + id + ".trace.json";
}

std::string render_run_report(const RunReport& report) {
    JsonWriter w;
    w.begin_object();
    w.member("schema", kRunReportSchema);
    w.member("version", std::uint64_t{kRunReportVersion});
    w.key("entry");
    write_json(w, report.entry);
    telemetry::write_json(w, report.counters);
    w.key("progress");
    w.begin_object();
    w.member("completed_blocks", report.progress.completed_blocks);
    w.member("completed_traces", report.progress.completed_traces);
    w.member("resumed", report.progress.resumed);
    w.member("cancelled", report.progress.cancelled);
    w.key("checkpoint_blocks");
    w.begin_array();
    for (const std::uint64_t mark : report.progress.checkpoint_blocks)
        w.value(mark);
    w.end_array();
    w.end_object();
    if (report.attribution.enabled) {
        const AttributionReport& attr = report.attribution;
        w.key("attribution");
        w.begin_object();
        w.member("top_k", attr.top_k);
        w.member("scope", attr.scope);
        w.member("traces_fixed", attr.traces_fixed);
        w.member("traces_random", attr.traces_random);
        w.key("nets");
        w.begin_array();
        for (const AttributionNetReport& net : attr.nets) {
            w.begin_object();
            w.member("net", net.net);
            w.member("name", net.name);
            w.member("kind", net.kind);
            w.member("module", net.module);
            w.member("max_abs_t", net.max_abs_t);
            w.member("argmax_window", net.argmax_window);
            w.member("snr", net.snr);
            w.member("toggles", net.toggles);
            w.member("glitches", net.glitches);
            w.member("glitch_density", net.glitch_density);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    if (!report.spans.empty()) {
        w.key("spans");
        trace::write_json(w, report.spans);
    }
    w.end_object();
    std::string out = w.take();
    out += '\n';
    return out;
}

void write_run_report(const std::string& path, const RunReport& report) {
    const std::string text = render_run_report(report);
    atomic_write_file(path,
                      std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(text.data()),
                          text.size()));
}

std::optional<RunReport> read_run_report(const std::string& path) {
    const auto bytes = read_file_if_exists(path);
    if (!bytes.has_value()) return std::nullopt;
    const JsonValue root = parse_json(std::string_view(
        reinterpret_cast<const char*>(bytes->data()), bytes->size()));
    return decode_run_report(root);
}

RunReport decode_run_report(const JsonValue& root) {
    expect_kind(root, Kind::kObject, kReport, "(document)");
    const std::string& schema = require_string(root, "schema", kReport);
    if (schema != kRunReportSchema)
        throw std::runtime_error("run report: unexpected schema '" + schema +
                                 "'");
    const std::uint64_t version = require_u64(root, "version", kReport);
    if (version != kRunReportVersion) throw RunReportVersionError(version);

    RunReport report;
    report.entry =
        decode_ledger_entry(require(root, "entry", Kind::kObject, kReport));
    // Sparse: an absent counter or histogram reads as 0.
    const JsonValue& counters = require(root, "counters", Kind::kObject, kReport);
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
        const char* name =
            telemetry::counter_name(static_cast<telemetry::Counter>(i));
        if (counters.find(name) != nullptr)
            report.counters.values[i] = require_u64(counters, name, kReport);
    }
    if (const JsonValue* histograms = root.find("histograms")) {
        expect_kind(*histograms, Kind::kObject, kReport, "histograms");
        for (std::size_t i = 0; i < telemetry::kHistogramCount; ++i) {
            const char* name = telemetry::histogram_name(
                static_cast<telemetry::Histogram>(i));
            if (histograms->find(name) == nullptr) continue;
            const JsonValue& cell =
                require(*histograms, name, Kind::kObject, kReport);
            telemetry::HistogramSnapshot& h = report.counters.histograms[i];
            h.count = require_u64(cell, "count", kReport);
            h.sum = require_u64(cell, "sum", kReport);
            h.max = require_u64(cell, "max", kReport);
            for (const JsonValue& pair :
                 require(cell, "buckets", Kind::kArray, kReport).array) {
                if (expect_kind(pair, Kind::kArray, kReport, "buckets")
                        .array.size() != 2)
                    throw std::runtime_error(
                        "run report: histogram bucket is not a "
                        "[floor, count] pair");
                const std::size_t bucket = telemetry::histogram_bucket(
                    expect_kind(pair.array[0], Kind::kUnsigned, kReport,
                                "buckets")
                        .unsigned_value);
                h.buckets[bucket] = expect_kind(pair.array[1], Kind::kUnsigned,
                                                kReport, "buckets")
                                        .unsigned_value;
            }
        }
    }
    const JsonValue& progress = require(root, "progress", Kind::kObject, kReport);
    report.progress.completed_blocks = static_cast<std::size_t>(
        require_u64(progress, "completed_blocks", kReport));
    report.progress.completed_traces = static_cast<std::size_t>(
        require_u64(progress, "completed_traces", kReport));
    report.progress.resumed = require_bool(progress, "resumed", kReport);
    report.progress.cancelled = require_bool(progress, "cancelled", kReport);
    for (const JsonValue& mark :
         require(progress, "checkpoint_blocks", Kind::kArray, kReport).array)
        report.progress.checkpoint_blocks.push_back(
            expect_kind(mark, Kind::kUnsigned, kReport, "checkpoint_blocks")
                .unsigned_value);
    // Absent in unattributed runs.
    if (const JsonValue* attr = root.find("attribution")) {
        expect_kind(*attr, Kind::kObject, kReport, "attribution");
        report.attribution.enabled = true;
        report.attribution.top_k = require_u64(*attr, "top_k", kReport);
        report.attribution.scope = require_string(*attr, "scope", kReport);
        report.attribution.traces_fixed =
            require_u64(*attr, "traces_fixed", kReport);
        report.attribution.traces_random =
            require_u64(*attr, "traces_random", kReport);
        for (const JsonValue& row :
             require(*attr, "nets", Kind::kArray, kReport).array) {
            AttributionNetReport net;
            net.net = require_u64(row, "net", kReport);
            net.name = require_string(row, "name", kReport);
            net.kind = require_string(row, "kind", kReport);
            net.module = require_string(row, "module", kReport);
            net.max_abs_t = require_number(row, "max_abs_t", kReport);
            net.argmax_window = require_u64(row, "argmax_window", kReport);
            net.snr = require_number(row, "snr", kReport);
            net.toggles = require_u64(row, "toggles", kReport);
            net.glitches = require_u64(row, "glitches", kReport);
            net.glitch_density = require_number(row, "glitch_density", kReport);
            report.attribution.nets.push_back(std::move(net));
        }
    }
    // Absent in untraced runs.
    if (const JsonValue* spans = root.find("spans")) {
        for (const JsonValue& row :
             expect_kind(*spans, Kind::kArray, kReport, "spans").array) {
            trace::SpanSummary span;
            span.name = require_string(row, "name", kReport);
            span.count = require_u64(row, "count", kReport);
            span.total_ns = require_u64(row, "total_ns", kReport);
            report.spans.push_back(std::move(span));
        }
    }
    return report;
}

// ----- RunTelemetrySession -----------------------------------------------

RunTelemetrySession::RunTelemetrySession(std::string campaign_id,
                                         const CampaignRunOptions& run,
                                         const CampaignFingerprint& fingerprint,
                                         std::size_t total_traces,
                                         unsigned workers, unsigned lanes)
    : campaign_(std::move(campaign_id)),
      report_path_(resolve_report_path(run, campaign_)),
      trace_path_(resolve_trace_path(run, campaign_)),
      fingerprint_(fingerprint),
      workers_(workers),
      lanes_(lanes),
      restore_enabled_(telemetry::enabled()),
      restore_trace_(trace::enabled()),
      meter_(campaign_, total_traces, run.on_progress) {
    // A requested report implies collection for this run; drivers without
    // a report keep whatever GLITCHMASK_TELEMETRY selected.  Likewise a
    // requested trace file implies span collection.
    if (!trace_path_.empty()) trace::set_enabled(true);
    if (report_path_.empty()) return;
    telemetry::set_enabled(true);
    start_ = telemetry::snapshot();
    cpu_start_ = telemetry::process_cpu_seconds();
    wall_start_ns_ = telemetry::steady_now_ns();
}

RunTelemetrySession::~RunTelemetrySession() {
    telemetry::set_enabled(restore_enabled_);
    trace::set_enabled(restore_trace_);
}

telemetry::ProgressMeter* RunTelemetrySession::meter() noexcept {
    return meter_.active() ? &meter_ : nullptr;
}

void RunTelemetrySession::add_metric(std::string name, double value) {
    metrics_.emplace_back(std::move(name), value);
}

void RunTelemetrySession::set_attribution(
    const leakage::AttributionResult& result, std::size_t top_k,
    std::string scope) {
    if (!result.enabled) return;
    attribution_.enabled = true;
    attribution_.top_k = top_k;
    attribution_.scope = std::move(scope);
    attribution_.traces_fixed = result.traces_fixed;
    attribution_.traces_random = result.traces_random;
    attribution_.nets.clear();
    const std::size_t rows = std::min(top_k, result.ranked.size());
    for (std::size_t rank = 0; rank < rows; ++rank) {
        const leakage::NetAttribution& from = result.ranked[rank];
        AttributionNetReport net;
        net.net = from.net;
        net.name = from.name;
        net.kind = from.kind;
        net.module = from.module;
        net.max_abs_t = from.max_abs_t;
        net.argmax_window = from.argmax_window;
        net.snr = from.snr;
        net.toggles = from.toggles;
        net.glitches = from.glitches;
        net.glitch_density = from.glitch_density;
        attribution_.nets.push_back(std::move(net));
    }
}

void RunTelemetrySession::finish(const CampaignProgress& progress) {
    if (finished_) return;
    finished_ = true;
    meter_.finish();

    // Only a session that *asked* for a trace file drains the global span
    // buffer -- under the daemon, spans belong to the service's per-job
    // harvest and draining here would steal them.
    std::vector<trace::SpanSummary> span_summary;
    if (!trace_path_.empty()) {
        const std::vector<trace::Span> spans = trace::take_spans();
        trace::write_chrome_trace(trace_path_, spans);
        span_summary = trace::summarize_spans(spans);
    }
    if (report_path_.empty()) return;

    RunReport report;
    report.counters = telemetry::snapshot().delta_since(start_);
    report.progress = progress;
    report.attribution = std::move(attribution_);
    report.spans = std::move(span_summary);
    report.entry = make_run_record("run_report", campaign_, fingerprint_,
                                   workers_, lanes_, std::move(metrics_));
    LedgerEntry& entry = report.entry;
    entry.status = progress.cancelled ? "cancelled" : "completed";
    entry.wall_seconds =
        static_cast<double>(telemetry::steady_now_ns() - wall_start_ns_) * 1e-9;
    entry.cpu_seconds = telemetry::process_cpu_seconds() - cpu_start_;
    for (const AttributionNetReport& net : report.attribution.nets)
        entry.attribution.push_back(LedgerNet{net.net, net.name, net.max_abs_t,
                                              net.toggles, net.glitches});
    entry.phases = phase_split(report.counters, report.spans);
    write_run_report(report_path_, report);
}

}  // namespace glitchmask::eval
