// Machine-readable run reports + the per-run telemetry session drivers
// wrap around a campaign.
//
// Every driver (DES TVLA, sequence experiments, mean power) can emit a
// versioned JSON report describing what ran and what it cost: campaign
// identity (the same fingerprint the checkpoint format uses), seed,
// wall/CPU time, the telemetry counter dump, checkpoint/resume history
// and the driver's headline metrics (peak |t| per order).  Reports are
// written with atomic_write_file so a crash never leaves a torn file,
// and they are pure observability -- the runtime never reads one back.
//
// Path resolution mirrors checkpoints: an explicit run.report_path wins,
// otherwise $GLITCHMASK_REPORT_DIR/<campaign_id>.report.json when the
// env var is set, otherwise no report.  Note an explicit path is
// overwritten on every run (same contract as checkpoint_path).
//
// The JSON subset used is deliberately tiny; parse_json() reads it back
// keeping unsigned integer literals exact at 64 bits (fingerprint words
// do not survive a double round-trip), which the schema round-trip test
// relies on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/checkpoint.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace glitchmask::leakage {
struct AttributionResult;
}

namespace glitchmask::eval {

inline constexpr const char* kRunReportSchema = "glitchmask.run_report";
/// v2 added the optional "attribution" section (per-net culprit summary);
/// v3 adds the optional "histograms" (sparse latency-histogram dump) and
/// "spans" (per-name trace rollup) sections; v4 adds run attribution --
/// "revision", "hostname", "utc" (support/runenv.hpp) -- so the cross-run
/// ledger (obs/ledger.hpp) can key history by where and when a report was
/// produced.  The reader accepts v4 only; its optional sections read back
/// empty/disabled when absent.
inline constexpr std::uint32_t kRunReportVersion = 4;

/// One culprit row of the report's attribution section (a flat copy of
/// leakage::NetAttribution, kept here so the report schema does not pull
/// in the simulator headers).
struct AttributionNetReport {
    std::uint64_t net = 0;
    std::string name;
    std::string kind;
    std::string module;
    double max_abs_t = 0.0;
    std::uint64_t argmax_window = 0;
    double snr = 0.0;
    std::uint64_t toggles = 0;
    std::uint64_t glitches = 0;
    double glitch_density = 0.0;

    friend bool operator==(const AttributionNetReport&,
                           const AttributionNetReport&) = default;
};

/// v2 attribution section: top-k culprits of an attributed campaign.
struct AttributionReport {
    bool enabled = false;
    std::uint64_t top_k = 0;
    std::string scope;
    std::uint64_t traces_fixed = 0;
    std::uint64_t traces_random = 0;
    std::vector<AttributionNetReport> nets;  // ranked, at most top_k

    friend bool operator==(const AttributionReport&,
                           const AttributionReport&) = default;
};

/// Everything a report records.  `counters` is the per-run registry
/// delta (all zero when telemetry collection was off for the run).
struct RunReport {
    std::string campaign;                 // driver id ("des_tvla", ...)
    CampaignFingerprint fingerprint;
    unsigned workers = 0;
    unsigned lanes = 0;
    /// v4 run attribution (support/runenv.hpp); "" in v1-v3 files and
    /// when the producer could not resolve a value.
    std::string revision;                 // git commit of the producer
    std::string hostname;
    std::string utc;                      // "YYYY-MM-DDTHH:MM:SSZ"
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;             // user+sys, all threads
    bool telemetry_enabled = false;
    telemetry::Snapshot counters;
    CampaignProgress progress;
    /// Completed-block marks at each successful snapshot write, in order
    /// (empty for a run without a snapshot path).  A resumed run records
    /// only this process's writes.
    std::vector<std::uint64_t> checkpoint_blocks;
    /// Driver headline numbers, e.g. {"max_abs_t_order1", 4.2}.
    std::vector<std::pair<std::string, double>> metrics;
    /// v2: per-net leakage attribution summary; the JSON section is
    /// emitted only when enabled.
    AttributionReport attribution;
    /// v3: per-name rollup of the run's trace spans (block, sim, noise,
    /// moments, checkpoint, ...); empty when tracing was off.  The JSON
    /// section is emitted only when non-empty.
    std::vector<trace::SpanSummary> spans;
};

/// Report path for one driver run: explicit run.report_path, else
/// $GLITCHMASK_REPORT_DIR/<id>.report.json, else "" (no report).
[[nodiscard]] std::string resolve_report_path(const CampaignRunOptions& run,
                                              const std::string& default_id);

/// Chrome-trace export path for one driver run:
/// $GLITCHMASK_TRACE_DIR/<id>.trace.json when the env var is set, else ""
/// (no per-run trace file).  The daemon deliberately does NOT set the env
/// var -- it exports per-*job* traces itself (ServiceConfig::trace_dir),
/// and a driver-side drain here would steal the service's span buffer.
[[nodiscard]] std::string resolve_trace_path(const CampaignRunOptions& run,
                                             const std::string& default_id);

/// Serializes the report as pretty-printed JSON (trailing newline).
[[nodiscard]] std::string render_run_report(const RunReport& report);

/// render + atomic_write_file; throws CampaignError{IoFailure} on I/O
/// errors.
void write_run_report(const std::string& path, const RunReport& report);

// ----- minimal JSON reader ----------------------------------------------

/// Parsed JSON value.  Non-negative integer literals stay exact u64s
/// (kind Unsigned); anything with a sign, fraction or exponent becomes a
/// double (kind Number).
struct JsonValue {
    enum class Kind { kNull, kBool, kUnsigned, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    std::uint64_t unsigned_value = 0;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /// Object member lookup; nullptr when absent or not an object.
    [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
    /// Numeric view: exact for Unsigned, lossy for large doubles.
    [[nodiscard]] double as_number() const noexcept {
        return kind == Kind::kUnsigned ? static_cast<double>(unsigned_value)
                                       : number;
    }
};

/// Deepest array/object nesting parse_json accepts (reports nest 4 deep).
inline constexpr std::size_t kJsonMaxDepth = 64;

/// Parses one JSON document (object/array/scalar); throws
/// std::runtime_error with a byte offset on malformed input, on numbers
/// outside the JSON grammar or the u64/double range, and on nesting
/// deeper than kJsonMaxDepth.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Decodes a parsed report document (any accepted schema version); throws
/// std::runtime_error on schema violations.  Exposed so the ledger can
/// ingest report *text* it obtained elsewhere (a spool, a socket) without
/// a temp file; read_run_report delegates here.
[[nodiscard]] RunReport decode_run_report(const JsonValue& root);

/// Reads back a report written by write_run_report; nullopt when the
/// file does not exist.  Throws on unreadable files, malformed JSON or a
/// schema/version mismatch.
[[nodiscard]] std::optional<RunReport> read_run_report(const std::string& path);

// ----- driver session ----------------------------------------------------

/// Brackets one driver run: resolves the report path, turns telemetry
/// collection on for the run's duration when a report was requested,
/// snapshots the counter registry and both clocks, and owns the progress
/// meter.  run_trace_campaign (eval/trace_campaign.cpp) brackets every
/// driver run this way:
///
///   RunTelemetrySession session(id, run, fingerprint, traces, workers,
///                               lanes);
///   ... the block runner fills `progress` (incl. its checkpoint marks)
///       and advances session.meter()
///   session.add_metric("max_abs_t_order1", t1);
///   session.finish(progress);          // final progress emit + report
class RunTelemetrySession {
public:
    RunTelemetrySession(std::string campaign_id, const CampaignRunOptions& run,
                        const CampaignFingerprint& fingerprint,
                        std::size_t total_traces, unsigned workers,
                        unsigned lanes);
    ~RunTelemetrySession();

    RunTelemetrySession(const RunTelemetrySession&) = delete;
    RunTelemetrySession& operator=(const RunTelemetrySession&) = delete;

    /// Meter pointer for the block runner; nullptr when neither a
    /// callback nor a heartbeat is configured (meter overhead skipped).
    [[nodiscard]] telemetry::ProgressMeter* meter() noexcept;

    void add_metric(std::string name, double value);

    /// Folds an attribution result's top-k ranking into the report's v2
    /// attribution section (no-op when the result is disabled).
    void set_attribution(const leakage::AttributionResult& result,
                         std::size_t top_k, std::string scope);

    /// True when finish() will write a report file.
    [[nodiscard]] bool writes_report() const noexcept {
        return !report_path_.empty();
    }
    [[nodiscard]] const std::string& report_path() const noexcept {
        return report_path_;
    }

    /// Emits the final progress update, exports the trace (when
    /// GLITCHMASK_TRACE_DIR resolved a path: drains the span buffer,
    /// writes the Chrome-trace file, folds the rollup into the report's
    /// "spans" section) and writes the report (when one was requested).
    /// Idempotent; safe to skip on exception paths (the destructor
    /// restores telemetry/trace state but writes nothing).
    void finish(const CampaignProgress& progress);

private:
    std::string campaign_;
    std::string report_path_;
    std::string trace_path_;
    CampaignFingerprint fingerprint_;
    unsigned workers_ = 0;
    unsigned lanes_ = 0;
    bool restore_enabled_ = false;   // telemetry state to restore
    bool restore_trace_ = false;     // trace state to restore
    bool finished_ = false;
    telemetry::Snapshot start_;
    double cpu_start_ = 0.0;
    std::int64_t wall_start_ns_ = 0;
    telemetry::ProgressMeter meter_;
    std::vector<std::pair<std::string, double>> metrics_;
    AttributionReport attribution_;
};

}  // namespace glitchmask::eval
