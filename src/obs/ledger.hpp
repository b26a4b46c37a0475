// The cross-run results ledger: an append-only, CRC-guarded NDJSON
// history of campaign outcomes.
//
// PR 9 made a single campaign observable; nothing remembered anything
// *across* runs -- BENCH_batch_sim.json is overwritten in place and run
// reports are write-once files nobody re-reads.  The ledger is the
// durable memory: one line per finished campaign, keyed by the same
// request fingerprint the checkpoint/cache layers already use, plus the
// git revision and host that produced it.  obs/diff.hpp compares two
// entries field by field (leakage exactly, to the bit); obs/regression.hpp
// judges a candidate against its rolling same-fingerprint history with a
// deterministic noise-aware rule.
//
// File format -- one self-checking line per entry:
//
//   {"crc32":C,"entry":{...canonical single-line JSON...}}\n
//
// C is the CRC-32 (support/snapshot.hpp, the checkpoint polynomial) of
// the exact bytes of the entry object.  Appends are single O_APPEND
// writes, so concurrent writers interleave at line granularity; readers
// verify each line's CRC and *skip* corrupt or truncated lines (counting
// them) instead of failing -- a torn tail must never cost the intact
// prefix.  Doubles are rendered with %.17g, so every value -- including
// full-range u64 counters, which stay bare digit runs -- round-trips
// bit-exactly; "bit-identical" verdicts downstream are therefore real
// bit comparisons, not epsilon tests.
//
// Entries are ingested from three producers:
//   * run report files (eval/run_report.hpp, version v4),
//   * the bench harness's BENCH_batch_sim.json (one entry per sweep row
//     plus a headline entry carrying the overhead/speedup gates),
//   * the campaign service (ServiceConfig::ledger_path appends one entry
//     per executed terminal job).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/checkpoint.hpp"
#include "eval/run_report.hpp"

namespace glitchmask::obs {

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

/// One finished campaign as the ledger remembers it.
struct LedgerEntry {
    std::string source;    // "run_report" | "bench" | "service"
    std::string campaign;  // driver id / bench row id
    eval::CampaignFingerprint fingerprint{};
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

/// 80 lowercase hex digits of the five fingerprint words -- the same
/// string the service uses as its cache/spool key, so ledger history
/// lookups and daemon job identities agree (service::fingerprint_hex
/// delegates here).
[[nodiscard]] std::string fingerprint_key(
    const eval::CampaignFingerprint& fingerprint);

/// Canonical single-line JSON of one entry (no trailing newline).  The
/// CRC is computed over exactly these bytes, and the regression radar
/// sorts equal-timestamp entries by this text -- one canonical form,
/// three uses.
[[nodiscard]] std::string render_ledger_entry(const LedgerEntry& entry);

/// One complete ledger line: CRC wrapper + entry + '\n'.
[[nodiscard]] std::string render_ledger_line(const LedgerEntry& entry);

/// Decodes the *entry object* (not the CRC wrapper); throws
/// std::runtime_error naming the problem on schema violations.
[[nodiscard]] LedgerEntry decode_ledger_entry(const eval::JsonValue& json);

struct LedgerFile {
    std::vector<LedgerEntry> entries;  // file order (append order)
    /// Lines dropped by the CRC/parse guard: a truncated tail, torn
    /// concurrent appends, bit rot.  The intact prefix is always kept.
    std::size_t corrupt_lines = 0;
};

/// Reads every intact line of the ledger; a missing file reads as empty.
/// Throws CampaignError{IoFailure} only on unreadable-but-present files.
[[nodiscard]] LedgerFile read_ledger(const std::string& path);

/// Appends one line with a single O_APPEND write (concurrent appenders
/// interleave whole lines).  Throws CampaignError{IoFailure}.
void append_ledger(const std::string& path, const LedgerEntry& entry);

/// Total order used everywhere history order matters: (utc, revision,
/// host, canonical text).  Any ingest interleaving of the same entry set
/// sorts to the same sequence, which is what makes the regression
/// verdict byte-identical at any concurrent-writer order.
void sort_ledger(std::vector<LedgerEntry>& entries);

// ----- ingestion ---------------------------------------------------------

/// Fills empty revision/host/utc fields at ingest time (flags win over
/// file contents only where the file carries nothing).
struct IngestOverrides {
    std::string revision;
    std::string host;
    std::string utc;
};

/// One entry from a (v4) run report.
[[nodiscard]] LedgerEntry entry_from_run_report(const eval::RunReport& report);

/// Entries from a parsed BENCH_batch_sim.json: one per sweep row plus a
/// "<workload>/headline" entry carrying the top-level overhead/speedup
/// figures; a row's "phases_cpu" object becomes its phase split.
[[nodiscard]] std::vector<LedgerEntry> entries_from_bench_json(
    const eval::JsonValue& json);

/// Classifies + converts one producer file (run report or bench JSON) and
/// applies the overrides.  Throws std::runtime_error on unrecognized
/// documents.
[[nodiscard]] std::vector<LedgerEntry> entries_from_file_text(
    std::string_view text, const IngestOverrides& overrides);

}  // namespace glitchmask::obs
