#include "eval/run_report.hpp"

#include <charconv>
#include <span>
#include <stdexcept>

#include "leakage/attribution.hpp"
#include "support/atomic_file.hpp"
#include "support/campaign_error.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/runenv.hpp"

namespace glitchmask::eval {

namespace {

// ----- parser ------------------------------------------------------------

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue document() {
        JsonValue value = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters");
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("parse_json: " + what + " at byte " +
                                 std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal) return false;
        pos_ += literal.size();
        return true;
    }

    JsonValue parse_value() {
        skip_ws();
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': {
                JsonValue value;
                value.kind = JsonValue::Kind::kString;
                value.string = parse_string();
                return value;
            }
            case 't': {
                if (!consume_literal("true")) fail("bad literal");
                JsonValue value;
                value.kind = JsonValue::Kind::kBool;
                value.boolean = true;
                return value;
            }
            case 'f': {
                if (!consume_literal("false")) fail("bad literal");
                JsonValue value;
                value.kind = JsonValue::Kind::kBool;
                value.boolean = false;
                return value;
            }
            case 'n':
                if (!consume_literal("null")) fail("bad literal");
                return JsonValue{};
            default: return parse_number();
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= h - '0';
                        else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
                        else fail("bad \\u escape");
                    }
                    // Reports only emit \u for control chars; keep other
                    // BMP points as UTF-8.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default: fail("bad escape");
            }
        }
    }

    /// JSON number grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
    /// converted with the whole token consumed.
    JsonValue parse_number() {
        const std::size_t start = pos_;
        const auto digits = [&] {
            const std::size_t from = pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
            return pos_ - from;
        };
        const bool negative = pos_ < text_.size() && text_[pos_] == '-';
        if (negative) ++pos_;
        const std::size_t int_start = pos_;
        const std::size_t int_digits = digits();
        if (int_digits == 0) fail("bad number");
        if (int_digits > 1 && text_[int_start] == '0')
            fail("bad number (leading zero)");
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (digits() == 0) fail("bad number (no digits after '.')");
            integral = false;
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (digits() == 0) fail("bad number (no exponent digits)");
            integral = false;
        }
        const char* first = text_.data() + start;
        const char* last = text_.data() + pos_;
        JsonValue value;
        std::from_chars_result parsed;
        if (integral && !negative) {
            // Exact u64 path: fingerprint words must round-trip.
            value.kind = JsonValue::Kind::kUnsigned;
            parsed = std::from_chars(first, last, value.unsigned_value);
        } else {
            value.kind = JsonValue::Kind::kNumber;
            parsed = std::from_chars(first, last, value.number);
        }
        if (parsed.ec == std::errc::result_out_of_range)
            fail("number out of range");
        if (parsed.ec != std::errc{} || parsed.ptr != last) fail("bad number");
        return value;
    }

    /// Arrays and objects may nest at most kJsonMaxDepth deep, so hostile
    /// input cannot exhaust the stack.
    void enter() {
        if (++depth_ > kJsonMaxDepth) fail("nesting deeper than " +
                                          std::to_string(kJsonMaxDepth));
    }

    JsonValue parse_array() {
        expect('[');
        enter();
        JsonValue value;
        value.kind = JsonValue::Kind::kArray;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return value;
        }
        for (;;) {
            value.array.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            --depth_;
            return value;
        }
    }

    JsonValue parse_object() {
        expect('{');
        enter();
        JsonValue value;
        value.kind = JsonValue::Kind::kObject;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return value;
        }
        for (;;) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            value.object.emplace_back(std::move(key), parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            --depth_;
            return value;
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

using Kind = JsonValue::Kind;

/// Throws unless `value` is of `kind` (an unsigned integer also passes as
/// a number), so a malformed report fails instead of reading as 0 or "".
const JsonValue& expect(const JsonValue& value, Kind kind,
                        std::string_view what) {
    if (value.kind == kind ||
        (kind == Kind::kNumber && value.kind == Kind::kUnsigned))
        return value;
    static constexpr const char* kNames[] = {
        "null",     "a boolean", "an unsigned integer", "a number",
        "a string", "an array",  "an object"};
    throw std::runtime_error("run report: field '" + std::string(what) +
                             "' is not " +
                             kNames[static_cast<std::size_t>(kind)]);
}

const JsonValue& require(const JsonValue& object, std::string_view key,
                         Kind kind) {
    const JsonValue* member = object.find(key);
    if (member == nullptr)
        throw std::runtime_error("run report: missing field '" +
                                 std::string(key) + "'");
    return expect(*member, kind, key);
}

std::uint64_t require_u64(const JsonValue& object, std::string_view key) {
    return require(object, key, Kind::kUnsigned).unsigned_value;
}

const std::string& require_string(const JsonValue& object,
                                  std::string_view key) {
    return require(object, key, Kind::kString).string;
}

bool require_bool(const JsonValue& object, std::string_view key) {
    return require(object, key, Kind::kBool).boolean;
}

double require_number(const JsonValue& object, std::string_view key) {
    return require(object, key, Kind::kNumber).as_number();
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [name, value] : object)
        if (name == key) return &value;
    return nullptr;
}

JsonValue parse_json(std::string_view text) {
    return Parser(text).document();
}

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
    w.member("campaign", report.campaign);
    w.key("fingerprint");
    w.begin_object();
    w.member("kind", report.fingerprint.kind);
    w.member("seed", report.fingerprint.seed);
    w.member("traces", report.fingerprint.traces);
    w.member("block_size", report.fingerprint.block_size);
    w.member("payload", report.fingerprint.payload);
    w.end_object();
    w.member("workers", std::uint64_t{report.workers});
    w.member("lanes", std::uint64_t{report.lanes});
    w.member("revision", report.revision);
    w.member("hostname", report.hostname);
    w.member("utc", report.utc);
    w.member("wall_seconds", report.wall_seconds);
    w.member("cpu_seconds", report.cpu_seconds);
    w.member("telemetry_enabled", report.telemetry_enabled);
    telemetry::write_json(w, report.counters);
    w.key("progress");
    w.begin_object();
    w.member("completed_blocks", report.progress.completed_blocks);
    w.member("completed_traces", report.progress.completed_traces);
    w.member("resumed", report.progress.resumed);
    w.member("cancelled", report.progress.cancelled);
    w.end_object();
    w.key("checkpoint_blocks");
    w.begin_array();
    for (const std::uint64_t mark : report.checkpoint_blocks) w.value(mark);
    w.end_array();
    w.key("metrics");
    w.begin_object();
    for (const auto& [name, value] : report.metrics) w.member(name, value);
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
    expect(root, Kind::kObject, "(document)");
    const std::string& schema = require_string(root, "schema");
    if (schema != kRunReportSchema)
        throw std::runtime_error("run report: unexpected schema '" + schema +
                                 "'");
    const std::uint64_t version = require_u64(root, "version");
    if (version != kRunReportVersion)
        throw std::runtime_error("run report: unsupported version " +
                                 std::to_string(version));

    RunReport report;
    report.campaign = require_string(root, "campaign");
    const JsonValue& fp = require(root, "fingerprint", Kind::kObject);
    report.fingerprint.kind = require_u64(fp, "kind");
    report.fingerprint.seed = require_u64(fp, "seed");
    report.fingerprint.traces = require_u64(fp, "traces");
    report.fingerprint.block_size = require_u64(fp, "block_size");
    report.fingerprint.payload = require_u64(fp, "payload");
    report.workers = static_cast<unsigned>(require_u64(root, "workers"));
    report.lanes = static_cast<unsigned>(require_u64(root, "lanes"));
    report.revision = require_string(root, "revision");
    report.hostname = require_string(root, "hostname");
    report.utc = require_string(root, "utc");
    report.wall_seconds = require_number(root, "wall_seconds");
    report.cpu_seconds = require_number(root, "cpu_seconds");
    report.telemetry_enabled = require_bool(root, "telemetry_enabled");
    // Sparse: an absent counter or histogram reads as 0.
    const JsonValue& counters = require(root, "counters", Kind::kObject);
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
        const char* name =
            telemetry::counter_name(static_cast<telemetry::Counter>(i));
        if (counters.find(name) != nullptr)
            report.counters.values[i] = require_u64(counters, name);
    }
    if (const JsonValue* histograms = root.find("histograms")) {
        expect(*histograms, Kind::kObject, "histograms");
        for (std::size_t i = 0; i < telemetry::kHistogramCount; ++i) {
            const char* name = telemetry::histogram_name(
                static_cast<telemetry::Histogram>(i));
            if (histograms->find(name) == nullptr) continue;
            const JsonValue& cell = require(*histograms, name, Kind::kObject);
            telemetry::HistogramSnapshot& h = report.counters.histograms[i];
            h.count = require_u64(cell, "count");
            h.sum = require_u64(cell, "sum");
            h.max = require_u64(cell, "max");
            for (const JsonValue& pair :
                 require(cell, "buckets", Kind::kArray).array) {
                if (expect(pair, Kind::kArray, "buckets").array.size() != 2)
                    throw std::runtime_error(
                        "run report: histogram bucket is not a "
                        "[floor, count] pair");
                const std::size_t bucket = telemetry::histogram_bucket(
                    expect(pair.array[0], Kind::kUnsigned, "buckets")
                        .unsigned_value);
                h.buckets[bucket] =
                    expect(pair.array[1], Kind::kUnsigned, "buckets")
                        .unsigned_value;
            }
        }
    }
    const JsonValue& progress = require(root, "progress", Kind::kObject);
    report.progress.completed_blocks =
        static_cast<std::size_t>(require_u64(progress, "completed_blocks"));
    report.progress.completed_traces =
        static_cast<std::size_t>(require_u64(progress, "completed_traces"));
    report.progress.resumed = require_bool(progress, "resumed");
    report.progress.cancelled = require_bool(progress, "cancelled");
    for (const JsonValue& mark :
         require(root, "checkpoint_blocks", Kind::kArray).array)
        report.checkpoint_blocks.push_back(
            expect(mark, Kind::kUnsigned, "checkpoint_blocks").unsigned_value);
    for (const auto& [name, value] :
         require(root, "metrics", Kind::kObject).object)
        report.metrics.emplace_back(
            name, expect(value, Kind::kNumber, name).as_number());
    // Absent in unattributed runs.
    if (const JsonValue* attr = root.find("attribution")) {
        expect(*attr, Kind::kObject, "attribution");
        report.attribution.enabled = true;
        report.attribution.top_k = require_u64(*attr, "top_k");
        report.attribution.scope = require_string(*attr, "scope");
        report.attribution.traces_fixed = require_u64(*attr, "traces_fixed");
        report.attribution.traces_random = require_u64(*attr, "traces_random");
        for (const JsonValue& entry :
             require(*attr, "nets", Kind::kArray).array) {
            AttributionNetReport net;
            net.net = require_u64(entry, "net");
            net.name = require_string(entry, "name");
            net.kind = require_string(entry, "kind");
            net.module = require_string(entry, "module");
            net.max_abs_t = require_number(entry, "max_abs_t");
            net.argmax_window = require_u64(entry, "argmax_window");
            net.snr = require_number(entry, "snr");
            net.toggles = require_u64(entry, "toggles");
            net.glitches = require_u64(entry, "glitches");
            net.glitch_density = require_number(entry, "glitch_density");
            report.attribution.nets.push_back(std::move(net));
        }
    }
    // Absent in untraced runs.
    if (const JsonValue* spans = root.find("spans")) {
        for (const JsonValue& entry :
             expect(*spans, Kind::kArray, "spans").array) {
            trace::SpanSummary span;
            span.name = require_string(entry, "name");
            span.count = require_u64(entry, "count");
            span.total_ns = require_u64(entry, "total_ns");
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
    if (!report_path_.empty()) telemetry::set_enabled(true);
    if (!trace_path_.empty()) trace::set_enabled(true);
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
    report.campaign = campaign_;
    report.fingerprint = fingerprint_;
    report.workers = workers_;
    report.lanes = lanes_;
    report.revision = git_revision();
    report.hostname = host_name();
    report.utc = utc_timestamp();
    report.wall_seconds =
        static_cast<double>(telemetry::steady_now_ns() - wall_start_ns_) * 1e-9;
    report.cpu_seconds = telemetry::process_cpu_seconds() - cpu_start_;
    report.telemetry_enabled = true;
    report.counters = telemetry::snapshot().delta_since(start_);
    report.progress = progress;
    report.checkpoint_blocks = progress.checkpoint_blocks;
    report.metrics = metrics_;
    report.attribution = attribution_;
    report.spans = std::move(span_summary);
    write_run_report(report_path_, report);
}

}  // namespace glitchmask::eval
