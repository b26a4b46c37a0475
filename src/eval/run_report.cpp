#include "eval/run_report.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
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

std::int64_t steady_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void append_double(std::string& out, double value) {
    if (!std::isfinite(value)) value = 0.0;  // JSON has no NaN/Inf
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    out += buffer;
}

void append_u64(std::string& out, std::uint64_t value) {
    out += std::to_string(value);
}

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

const JsonValue& require(const JsonValue& object, std::string_view key) {
    const JsonValue* member = object.find(key);
    if (member == nullptr)
        throw std::runtime_error("run report: missing field '" +
                                 std::string(key) + "'");
    return *member;
}

std::uint64_t require_u64(const JsonValue& object, std::string_view key) {
    const JsonValue& member = require(object, key);
    if (member.kind != JsonValue::Kind::kUnsigned)
        throw std::runtime_error("run report: field '" + std::string(key) +
                                 "' is not an unsigned integer");
    return member.unsigned_value;
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
    std::string out;
    out.reserve(2048);
    out += "{\n  \"schema\": ";
    append_json_string(out, kRunReportSchema);
    out += ",\n  \"version\": ";
    append_u64(out, kRunReportVersion);
    out += ",\n  \"campaign\": ";
    append_json_string(out, report.campaign);
    out += ",\n  \"fingerprint\": {";
    out += "\"kind\": ";
    append_u64(out, report.fingerprint.kind);
    out += ", \"seed\": ";
    append_u64(out, report.fingerprint.seed);
    out += ", \"traces\": ";
    append_u64(out, report.fingerprint.traces);
    out += ", \"block_size\": ";
    append_u64(out, report.fingerprint.block_size);
    out += ", \"payload\": ";
    append_u64(out, report.fingerprint.payload);
    out += "},\n  \"workers\": ";
    append_u64(out, report.workers);
    out += ",\n  \"lanes\": ";
    append_u64(out, report.lanes);
    out += ",\n  \"revision\": ";
    append_json_string(out, report.revision);
    out += ",\n  \"hostname\": ";
    append_json_string(out, report.hostname);
    out += ",\n  \"utc\": ";
    append_json_string(out, report.utc);
    out += ",\n  \"wall_seconds\": ";
    append_double(out, report.wall_seconds);
    out += ",\n  \"cpu_seconds\": ";
    append_double(out, report.cpu_seconds);
    out += ",\n  \"telemetry_enabled\": ";
    out += report.telemetry_enabled ? "true" : "false";
    out += ",\n  \"counters\": {";
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
        if (i != 0) out += ",";
        out += "\n    ";
        append_json_string(out,
                       telemetry::counter_name(static_cast<telemetry::Counter>(i)));
        out += ": ";
        append_u64(out, report.counters.values[i]);
    }
    out += "\n  },\n  \"histograms\": {";
    // v3, sparse: only observed families, only nonzero buckets, each
    // bucket as [floor, count] (the floor maps back to its index via
    // histogram_bucket()).
    bool first_histogram = true;
    for (std::size_t i = 0; i < telemetry::kHistogramCount; ++i) {
        const telemetry::HistogramSnapshot& h = report.counters.histograms[i];
        if (h.count == 0) continue;
        if (!first_histogram) out += ",";
        first_histogram = false;
        out += "\n    ";
        append_json_string(out, telemetry::histogram_name(
                                static_cast<telemetry::Histogram>(i)));
        out += ": {\"count\": ";
        append_u64(out, h.count);
        out += ", \"sum\": ";
        append_u64(out, h.sum);
        out += ", \"max\": ";
        append_u64(out, h.max);
        out += ", \"buckets\": [";
        bool first_bucket = true;
        for (std::size_t b = 0; b < telemetry::kHistogramBuckets; ++b) {
            if (h.buckets[b] == 0) continue;
            if (!first_bucket) out += ", ";
            first_bucket = false;
            out += "[";
            append_u64(out, telemetry::histogram_bucket_floor(b));
            out += ", ";
            append_u64(out, h.buckets[b]);
            out += "]";
        }
        out += "]}";
    }
    out += first_histogram ? "}" : "\n  }";
    out += ",\n  \"progress\": {";
    out += "\"completed_blocks\": ";
    append_u64(out, report.progress.completed_blocks);
    out += ", \"completed_traces\": ";
    append_u64(out, report.progress.completed_traces);
    out += ", \"resumed\": ";
    out += report.progress.resumed ? "true" : "false";
    out += ", \"cancelled\": ";
    out += report.progress.cancelled ? "true" : "false";
    out += "},\n  \"checkpoint_blocks\": [";
    for (std::size_t i = 0; i < report.checkpoint_blocks.size(); ++i) {
        if (i != 0) out += ", ";
        append_u64(out, report.checkpoint_blocks[i]);
    }
    out += "],\n  \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        if (i != 0) out += ",";
        out += "\n    ";
        append_json_string(out, report.metrics[i].first);
        out += ": ";
        append_double(out, report.metrics[i].second);
    }
    out += report.metrics.empty() ? "}" : "\n  }";
    if (report.attribution.enabled) {
        const AttributionReport& attr = report.attribution;
        out += ",\n  \"attribution\": {\n    \"top_k\": ";
        append_u64(out, attr.top_k);
        out += ",\n    \"scope\": ";
        append_json_string(out, attr.scope);
        out += ",\n    \"traces_fixed\": ";
        append_u64(out, attr.traces_fixed);
        out += ",\n    \"traces_random\": ";
        append_u64(out, attr.traces_random);
        out += ",\n    \"nets\": [";
        for (std::size_t i = 0; i < attr.nets.size(); ++i) {
            const AttributionNetReport& net = attr.nets[i];
            out += i != 0 ? "," : "";
            out += "\n      {\"net\": ";
            append_u64(out, net.net);
            out += ", \"name\": ";
            append_json_string(out, net.name);
            out += ", \"kind\": ";
            append_json_string(out, net.kind);
            out += ", \"module\": ";
            append_json_string(out, net.module);
            out += ", \"max_abs_t\": ";
            append_double(out, net.max_abs_t);
            out += ", \"argmax_window\": ";
            append_u64(out, net.argmax_window);
            out += ", \"snr\": ";
            append_double(out, net.snr);
            out += ", \"toggles\": ";
            append_u64(out, net.toggles);
            out += ", \"glitches\": ";
            append_u64(out, net.glitches);
            out += ", \"glitch_density\": ";
            append_double(out, net.glitch_density);
            out += "}";
        }
        out += attr.nets.empty() ? "]\n  }" : "\n    ]\n  }";
    }
    if (!report.spans.empty()) {
        out += ",\n  \"spans\": [";
        for (std::size_t i = 0; i < report.spans.size(); ++i) {
            const trace::SpanSummary& span = report.spans[i];
            out += i != 0 ? "," : "";
            out += "\n    {\"name\": ";
            append_json_string(out, span.name);
            out += ", \"count\": ";
            append_u64(out, span.count);
            out += ", \"total_ns\": ";
            append_u64(out, span.total_ns);
            out += "}";
        }
        out += "\n  ]";
    }
    out += "\n}\n";
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
    if (root.kind != JsonValue::Kind::kObject)
        throw std::runtime_error("run report: not a JSON object");
    const JsonValue& schema = require(root, "schema");
    if (schema.string != kRunReportSchema)
        throw std::runtime_error("run report: unexpected schema '" +
                                 schema.string + "'");
    const std::uint64_t version = require_u64(root, "version");
    if (version != kRunReportVersion)
        throw std::runtime_error("run report: unsupported version " +
                                 std::to_string(version));

    RunReport report;
    report.campaign = require(root, "campaign").string;
    const JsonValue& fp = require(root, "fingerprint");
    report.fingerprint.kind = require_u64(fp, "kind");
    report.fingerprint.seed = require_u64(fp, "seed");
    report.fingerprint.traces = require_u64(fp, "traces");
    report.fingerprint.block_size = require_u64(fp, "block_size");
    report.fingerprint.payload = require_u64(fp, "payload");
    report.workers = static_cast<unsigned>(require_u64(root, "workers"));
    report.lanes = static_cast<unsigned>(require_u64(root, "lanes"));
    report.revision = require(root, "revision").string;
    report.hostname = require(root, "hostname").string;
    report.utc = require(root, "utc").string;
    report.wall_seconds = require(root, "wall_seconds").as_number();
    report.cpu_seconds = require(root, "cpu_seconds").as_number();
    report.telemetry_enabled = require(root, "telemetry_enabled").boolean;
    const JsonValue& counters = require(root, "counters");
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
        const char* name =
            telemetry::counter_name(static_cast<telemetry::Counter>(i));
        if (const JsonValue* value = counters.find(name))
            report.counters.values[i] = value->unsigned_value;
    }
    // Absent in histogram-free runs.
    if (const JsonValue* histograms = root.find("histograms")) {
        for (std::size_t i = 0; i < telemetry::kHistogramCount; ++i) {
            const char* name = telemetry::histogram_name(
                static_cast<telemetry::Histogram>(i));
            const JsonValue* cell = histograms->find(name);
            if (cell == nullptr) continue;
            telemetry::HistogramSnapshot& h = report.counters.histograms[i];
            h.count = require_u64(*cell, "count");
            h.sum = require_u64(*cell, "sum");
            h.max = require_u64(*cell, "max");
            for (const JsonValue& pair : require(*cell, "buckets").array) {
                if (pair.kind != JsonValue::Kind::kArray ||
                    pair.array.size() != 2)
                    throw std::runtime_error(
                        "run report: histogram bucket is not a "
                        "[floor, count] pair");
                const std::size_t bucket = telemetry::histogram_bucket(
                    pair.array[0].unsigned_value);
                h.buckets[bucket] = pair.array[1].unsigned_value;
            }
        }
    }
    const JsonValue& progress = require(root, "progress");
    report.progress.completed_blocks =
        static_cast<std::size_t>(require_u64(progress, "completed_blocks"));
    report.progress.completed_traces =
        static_cast<std::size_t>(require_u64(progress, "completed_traces"));
    report.progress.resumed = require(progress, "resumed").boolean;
    report.progress.cancelled = require(progress, "cancelled").boolean;
    for (const JsonValue& mark : require(root, "checkpoint_blocks").array)
        report.checkpoint_blocks.push_back(mark.unsigned_value);
    for (const auto& [name, value] : require(root, "metrics").object)
        report.metrics.emplace_back(name, value.as_number());
    // Absent in unattributed runs.
    if (const JsonValue* attr = root.find("attribution")) {
        report.attribution.enabled = true;
        report.attribution.top_k = require_u64(*attr, "top_k");
        report.attribution.scope = require(*attr, "scope").string;
        report.attribution.traces_fixed = require_u64(*attr, "traces_fixed");
        report.attribution.traces_random = require_u64(*attr, "traces_random");
        for (const JsonValue& entry : require(*attr, "nets").array) {
            AttributionNetReport net;
            net.net = require_u64(entry, "net");
            net.name = require(entry, "name").string;
            net.kind = require(entry, "kind").string;
            net.module = require(entry, "module").string;
            net.max_abs_t = require(entry, "max_abs_t").as_number();
            net.argmax_window = require_u64(entry, "argmax_window");
            net.snr = require(entry, "snr").as_number();
            net.toggles = require_u64(entry, "toggles");
            net.glitches = require_u64(entry, "glitches");
            net.glitch_density = require(entry, "glitch_density").as_number();
            report.attribution.nets.push_back(std::move(net));
        }
    }
    // Absent in untraced runs.
    if (const JsonValue* spans = root.find("spans")) {
        for (const JsonValue& entry : spans->array) {
            trace::SpanSummary span;
            span.name = require(entry, "name").string;
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
    wall_start_ns_ = steady_ns();
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
        static_cast<double>(steady_ns() - wall_start_ns_) * 1e-9;
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
