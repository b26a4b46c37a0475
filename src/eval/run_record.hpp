// The run record: the one record of a finished campaign.
//
// A LedgerEntry says what ran (campaign id, the checkpoint fingerprint,
// workers, lanes), where and when (revision, host, utc), what it cost
// (wall/CPU seconds, the phase split) and what it found (peak |t| at
// order 1, the committed toggles, the top-k culprit nets, the driver's
// headline metrics).  Three producers build it -- a driver session that
// writes a run report (eval/run_report.hpp), the campaign service's
// ledger append (ServiceConfig::ledger_path) and the bench-JSON converter
// (obs/ledger.hpp) -- and the results ledger stores it as it is, one
// CRC-framed line per record.  This header has the type, its one builder,
// its one encoder and its one decoder, and pulls in no telemetry.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "eval/checkpoint.hpp"
#include "support/json.hpp"

namespace glitchmask::eval {

inline constexpr const char* kLedgerSchema = "glitchmask.ledger";
inline constexpr std::uint32_t kLedgerVersion = 1;

/// Per-phase cost split.  cpu_seconds is the sum of the phase's telemetry
/// histogram (phase.*_nanos, checkpoint.write_latency_nanos), summed
/// across workers -- CPU time, can exceed the run's wall clock;
/// wall_seconds comes from the trace span rollup where one was collected.
/// 0 = not measured, never "instant".
struct LedgerPhase {
    std::string name;  // "sim", "noise", "moments", ...
    double cpu_seconds = 0.0;
    double wall_seconds = 0.0;

    friend bool operator==(const LedgerPhase&, const LedgerPhase&) = default;
};

/// One ranked row of the per-net attribution table (the leakage-culprit
/// identity the diff layer tracks across revisions).
struct LedgerNet {
    std::uint64_t net = 0;
    std::string name;
    double max_abs_t = 0.0;
    std::uint64_t toggles = 0;
    std::uint64_t glitches = 0;

    friend bool operator==(const LedgerNet&, const LedgerNet&) = default;
};

/// The run record: one finished campaign as the results ledger
/// (obs/ledger.hpp) remembers it.  A driver session that writes a report,
/// the campaign service's ledger append and the bench-JSON converter all
/// produce this one type; a run report is this record plus its sections.
struct LedgerEntry {
    std::string source;    // "run_report" | "bench" | "service"
    std::string campaign;  // driver id / bench row id
    CampaignFingerprint fingerprint{};
    std::string revision;  // git commit, "" = unknown
    std::string host;
    std::string utc;       // "YYYY-MM-DDTHH:MM:SSZ"; sorts chronologically
    std::string status{"completed"};  // job_state_name-style verdict
    std::string backend;   // bench rows: "event" (scalar engine), "compiled"
    unsigned workers = 0;
    unsigned lanes = 0;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;
    // Leakage facts, compared bit-exactly by obs/diff.hpp.
    double max_abs_t1 = 0.0;
    std::uint64_t toggles = 0;
    std::vector<LedgerNet> attribution;  // ranked top-k culprits
    std::vector<LedgerPhase> phases;
    /// Everything else the producer reported, name -> value ("speedup",
    /// "telemetry_overhead", "max_abs_t_order2", ...).
    std::vector<std::pair<std::string, double>> metrics;

    friend bool operator==(const LedgerEntry&, const LedgerEntry&) = default;
};

/// The one record builder of a campaign run: stamps revision/host/utc
/// (support/runenv.hpp) and derives the leakage facts from the metrics --
/// max_abs_t1 from "max_abs_t_order1", toggles from "toggles" (the
/// committed-toggle count of a fold that counts them; 0 for a campaign
/// that does not).  The caller fills status, timings, culprits and
/// phases.
[[nodiscard]] LedgerEntry make_run_record(
    std::string source, std::string campaign,
    const CampaignFingerprint& fingerprint, unsigned workers, unsigned lanes,
    std::vector<std::pair<std::string, double>> metrics);

/// Writes `entry` as one JSON object: the record's one encoder.  The
/// ledger line, the run report's "entry" and the daemon's history reply
/// all carry these bytes.
void write_json(JsonWriter& w, const LedgerEntry& entry);

/// Canonical single-line JSON of one entry (no trailing newline).  The
/// ledger's CRC is computed over exactly these bytes, and the regression
/// radar sorts equal-timestamp entries by this text.
[[nodiscard]] std::string render_ledger_entry(const LedgerEntry& entry);

/// Decodes an entry object, kind-checking every field; throws
/// std::runtime_error naming the problem on schema violations.
[[nodiscard]] LedgerEntry decode_ledger_entry(const JsonValue& json);

}  // namespace glitchmask::eval
