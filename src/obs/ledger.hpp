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
// The entry type is the run record (eval::LedgerEntry, with its one
// encoder and decoder in eval/run_record.hpp); this layer only frames,
// reads, appends and sorts it.  Records arrive from three producers:
//   * run report files (eval/run_report.hpp, v5): `glitchmask_ledger
//     ingest` appends the report's record as it is,
//   * the bench harness's BENCH_batch_sim.json (one entry per sweep row
//     plus a headline entry carrying the overhead/speedup gates; the
//     converter below),
//   * the campaign service (ServiceConfig::ledger_path appends one entry
//     per executed terminal job).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/run_record.hpp"
#include "support/json.hpp"

namespace glitchmask::obs {

using eval::LedgerEntry;
using eval::LedgerNet;
using eval::LedgerPhase;

/// 80 lowercase hex digits of the five fingerprint words -- the same
/// string the service uses as its cache/spool key, so ledger history
/// lookups and daemon job identities agree (service::fingerprint_hex
/// delegates here).
[[nodiscard]] std::string fingerprint_key(
    const eval::CampaignFingerprint& fingerprint);

/// One complete ledger line: CRC wrapper + eval::render_ledger_entry +
/// '\n'.
[[nodiscard]] std::string render_ledger_line(const LedgerEntry& entry);

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

/// Entries from a parsed BENCH_batch_sim.json: one per sweep row plus a
/// "<workload>/headline" entry carrying the top-level overhead/speedup
/// figures; a row's "phases_cpu" object becomes its phase split.
[[nodiscard]] std::vector<LedgerEntry> entries_from_bench_json(
    const JsonValue& json);

/// Classifies one producer file -- a run report yields its record as it
/// is, a bench JSON its converted rows -- and applies the overrides.  Throws std::runtime_error on unrecognized
/// documents.
[[nodiscard]] std::vector<LedgerEntry> entries_from_file_text(
    std::string_view text, const IngestOverrides& overrides);

}  // namespace glitchmask::obs
