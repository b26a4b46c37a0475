// Run reports and the per-run telemetry session drivers wrap around a
// campaign.
//
// A run report (v5) is the run record (eval/run_record.hpp) under
// "entry", written with the ledger's own encoder, plus the sections only
// a report carries: the telemetry registry delta (sparse counters and
// histograms, as the daemon's metrics verb writes them), progress with
// its checkpoint marks, the full attribution rows and the span rollup.
// Reports are written with atomic_write_file so a crash never leaves a
// torn file, and they are pure observability -- the runtime never reads
// one back.
//
// Path resolution mirrors checkpoints: an explicit run.report_path wins,
// otherwise $GLITCHMASK_REPORT_DIR/<campaign_id>.report.json when the
// env var is set, otherwise no report.  Note an explicit path is
// overwritten on every run (same contract as checkpoint_path).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "eval/checkpoint.hpp"
#include "eval/run_record.hpp"
#include "support/json.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace glitchmask::leakage {
struct AttributionResult;
}

namespace glitchmask::eval {

inline constexpr const char* kRunReportSchema = "glitchmask.run_report";
/// v5 writes the run record (LedgerEntry) under "entry" with the ledger's
/// own encoder and keeps only the sections around it: "counters" and
/// "histograms", "progress", "attribution" and "spans".  The reader
/// accepts v5 only.
inline constexpr std::uint32_t kRunReportVersion = 5;

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

/// The attribution section: top-k culprits of an attributed campaign.
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

/// A run report: the run record plus the sections that only a report
/// carries.
struct RunReport {
    LedgerEntry entry;
    /// Per-run registry delta (sparse counters and histograms).
    telemetry::Snapshot counters;
    /// Includes the completed-block marks of each snapshot write
    /// (progress.checkpoint_blocks).
    CampaignProgress progress;
    /// Full culprit rows; the JSON section is emitted only when enabled.
    AttributionReport attribution;
    /// Per-name rollup of the run's trace spans (block, sim, noise,
    /// moments, checkpoint, ...); empty when tracing was off.  The JSON
    /// section is emitted only when non-empty.
    std::vector<trace::SpanSummary> spans;
};

/// Thrown by decode_run_report for a report of another schema version.
struct RunReportVersionError : std::runtime_error {
    explicit RunReportVersionError(std::uint64_t found_version)
        : std::runtime_error("run report: unsupported version " +
                             std::to_string(found_version)),
          version(found_version) {}
    std::uint64_t version;
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

/// Serializes the report as one line of JSON (trailing newline).
[[nodiscard]] std::string render_run_report(const RunReport& report);

/// render + atomic_write_file; throws CampaignError{IoFailure} on I/O
/// errors.
void write_run_report(const std::string& path, const RunReport& report);

/// Decodes a parsed v5 report document; throws RunReportVersionError for
/// another version and std::runtime_error on other schema violations,
/// including a field of the wrong JSON kind (a negative, fractional or
/// string counter never reads as 0).  Exposed so the ledger can ingest
/// report *text* it obtained elsewhere (a spool, a socket) without a temp
/// file; read_run_report delegates here.
[[nodiscard]] RunReport decode_run_report(const JsonValue& root);

/// Reads back a report written by write_run_report; nullopt when the
/// file does not exist.  Throws on unreadable files, malformed JSON or a
/// schema/version mismatch.
[[nodiscard]] std::optional<RunReport> read_run_report(const std::string& path);

// ----- driver session ----------------------------------------------------

/// Brackets one driver run: resolves the report path, owns the progress
/// meter and, when a report was requested, turns telemetry collection on
/// for the run's duration and snapshots the counter registry and both
/// clocks.  A run without a report takes no snapshot and builds no
/// record.  run_trace_campaign (eval/trace_campaign.cpp) brackets every
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

    /// Folds an attribution result's top-k ranking into the report's
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
    /// "spans" section) and, when a report was requested, builds the run
    /// record (make_run_record plus status, timings, culprits and the
    /// phase split) and writes the report.
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
    std::uint64_t wall_start_ns_ = 0;
    telemetry::ProgressMeter meter_;
    std::vector<std::pair<std::string, double>> metrics_;
    AttributionReport attribution_;
};

}  // namespace glitchmask::eval
