// The daemon's wire protocol: newline-delimited JSON over a local Unix
// socket.
//
// Requests (one object per line, "op" selects the verb):
//
//   {"op":"submit", "kind":"gadget_tvla", ...request fields...}
//   {"op":"status", "job":N}
//   {"op":"cancel", "job":N}
//   {"op":"stats"}
//   {"op":"metrics"}
//   {"op":"history", "fingerprint":"<80 hex>"}
//   {"op":"shutdown", "drain":true}
//
// Responses and asynchronous events (one object per line, "event"
// discriminates):
//
//   {"event":"accepted",  "job":N, "fingerprint":"..."}
//   {"event":"overloaded"}               submit rejected: queue full
//   {"event":"rejected",  "reason":...}  malformed request / draining
//   {"event":"progress",  "job":N, "completed":..., "total":...,
//                         "traces_per_sec":..., "eta_sec":...}
//   {"event":"result",    "job":N, "state":"completed"|..., "cached":...,
//                         "metrics":{...}, "error_kind":..., ...}
//   {"event":"status",    ...}           answer to a status op
//   {"event":"stats",     ...}
//   {"event":"metrics",   "counters":{...}, "histograms":{...},
//                         "gauges":{...}, "service":{...}}
//   {"event":"history",   "fingerprint":"...", "entries":[{...},...]}
//   {"event":"shutting_down"}
//
// Terminal result/status events for jobs that carry a span rollup also
// include "spans":[{"name":...,"count":...,"total_ns":...},...] -- the
// per-job latency breakdown (queue_wait, execute, block, sim, ...).
//
// Progress events are advisory and *droppable* (a slow client loses
// progress lines, never results); every other line is reliable up to the
// connection's hard buffer cap.  Encoders live here so the daemon, the
// example client, and the tests agree on one schema.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/ledger.hpp"
#include "service/campaign_request.hpp"
#include "service/service.hpp"
#include "support/telemetry.hpp"

namespace glitchmask::service {

/// One parsed client line.
struct ClientCommand {
    enum class Op {
        Submit, Status, Cancel, Stats, Metrics, History, Shutdown
    };
    Op op = Op::Stats;
    std::optional<CampaignRequest> request;  // Submit
    std::uint64_t job_id = 0;                // Status / Cancel
    std::string fingerprint;                 // History (80-hex ledger key)
    bool drain = true;                       // Shutdown
};

/// Parses one NDJSON request line; throws std::runtime_error with a
/// client-presentable message on malformed input.
[[nodiscard]] ClientCommand parse_client_command(const std::string& line);

// ----- event encoders (each returns one line, '\n'-terminated) ----------

[[nodiscard]] std::string encode_accepted(std::uint64_t job_id,
                                          const std::string& fingerprint_hex);
[[nodiscard]] std::string encode_overloaded();
[[nodiscard]] std::string encode_rejected(const std::string& reason);
[[nodiscard]] std::string encode_progress(
    std::uint64_t job_id, const telemetry::ProgressUpdate& update);
[[nodiscard]] std::string encode_result(const JobStatus& status);
[[nodiscard]] std::string encode_status(const JobStatus& status);
[[nodiscard]] std::string encode_stats(const CampaignService::Stats& stats);
/// The full observability surface in one line: every telemetry counter,
/// every latency histogram (sparse [bucket_floor, count] pairs), every
/// gauge, plus the service-health figures from metrics_info().
[[nodiscard]] std::string encode_metrics(
    const telemetry::Snapshot& snapshot,
    const CampaignService::MetricsInfo& info);
/// The ledger's view of one fingerprint: every matching entry in
/// canonical (oldest-first) order, each written whole by the record's
/// encoder (eval::write_json).  `entries` must already be filtered and
/// sorted -- the encoder renders, it does not select.
[[nodiscard]] std::string encode_history(
    const std::string& fingerprint_hex,
    const std::vector<obs::LedgerEntry>& entries);
[[nodiscard]] std::string encode_shutting_down();

}  // namespace glitchmask::service
