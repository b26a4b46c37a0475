// Campaign checkpoint framing: identity fingerprint, run options, and
// the versioned snapshot file layout.
//
// A checkpoint stores the campaign's *merge frontier*: the stack of
// partial subtree accumulators the index-ordered pairwise reduction has
// built so far (see the runner in eval/trace_campaign.cpp -- the stack
// reproduces a fixed pairwise tree over block indices), plus the number
// of contiguously completed blocks.  Because the counter-based per-trace
// RNG makes every block a pure function of (seed, block index), resuming
// from the frontier is bit-identical to an uninterrupted run at any
// worker or lane count.
//
// File layout (all little-endian, support/snapshot.hpp primitives):
//
//   u32 magic   'GMSN'            u32 version  (1)
//   u64 kind    u64 seed  u64 traces  u64 block_size  u64 payload_hash
//   u64 completed_blocks
//   u64 stack_entries
//   per entry: u64 blocks_spanned, then the accumulator payload
//   u32 CRC-32 over everything above (appended by SnapshotWriter::finish)
//
// The five fingerprint words identify the campaign; workers and lanes are
// deliberately absent (results are bit-identical across both -- a
// snapshot written by the scalar path resumes on any compiled lane width
// and back, and the fingerprints equal those of the retired bitsliced
// event engine, so older checkpoints and spools still resume), while
// anything that changes the stimulus, the noise, or the statistics --
// seed, trace budget, block plan, and the driver-specific payload hash --
// is load-bearing.  A mismatch on resume throws
// CampaignError{ConfigMismatch} naming the offending field.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/cancel.hpp"
#include "support/retry.hpp"
#include "support/snapshot.hpp"
#include "support/telemetry_types.hpp"

namespace glitchmask::eval {

inline constexpr std::uint32_t kSnapshotMagic = 0x4E534D47u;  // "GMSN"
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// FNV-1a accumulation over 64-bit words; drivers fold every
/// campaign-defining config field into the fingerprint's payload hash.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::uint64_t hash,
                                              std::uint64_t word) noexcept {
    for (int i = 0; i < 8; ++i) {
        hash ^= (word >> (8 * i)) & 0xFFu;
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

/// Hash of a short tag string (campaign kind names).
[[nodiscard]] constexpr std::uint64_t fnv1a64_tag(const char* tag) noexcept {
    std::uint64_t hash = kFnvOffset;
    for (; *tag != '\0'; ++tag) {
        hash ^= static_cast<std::uint8_t>(*tag);
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

/// The workers/lanes-independent identity of a campaign.  Two campaigns
/// with equal fingerprints produce bit-identical statistics, so a
/// snapshot written by one may seed the other.
struct CampaignFingerprint {
    std::uint64_t kind = 0;        // driver tag (fnv1a64_tag of its name)
    std::uint64_t seed = 0;
    std::uint64_t traces = 0;
    std::uint64_t block_size = 0;
    std::uint64_t payload = 0;     // hash of the remaining config fields

    friend bool operator==(const CampaignFingerprint&,
                           const CampaignFingerprint&) = default;
};

/// Throws CampaignError{ConfigMismatch} naming the first differing field.
void require_fingerprint_match(const CampaignFingerprint& expected,
                               const CampaignFingerprint& stored);

/// Blocks per wave, and so between snapshots, when
/// CampaignRunOptions::checkpoint_every is 0.
inline constexpr std::size_t kDefaultCheckpointEvery = 16;

/// User-facing knobs for the crash-safe runtime, embedded in every
/// driver config.
struct CampaignRunOptions {
    /// Explicit snapshot file.  Empty: derived as
    /// $GLITCHMASK_CHECKPOINT_DIR/<campaign_id>.gmsnap when the env var
    /// is set, otherwise checkpointing is off.
    std::string checkpoint_path;
    /// Filename stem under GLITCHMASK_CHECKPOINT_DIR; empty = the
    /// driver's default id ("des_tvla", "mean_power", "seq_<n>").
    std::string campaign_id;
    /// Blocks between checkpoints; 0 = kDefaultCheckpointEvery.
    /// Durability granularity only -- the merge frontier makes results
    /// independent of the checkpoint cadence.
    std::size_t checkpoint_every = 0;
    /// Cooperative cancellation; in-flight blocks finish, a final
    /// checkpoint is written, and a partial result is returned.
    CancelToken* cancel = nullptr;
    /// Test hook: called with the completed-block count after every wave
    /// of blocks, whether or not a snapshot was written (cancel and
    /// fault-injection tests cancel or kill the process here).
    std::function<void(std::size_t)> on_checkpoint;
    /// Explicit run-report file (JSON).  Empty: derived as
    /// $GLITCHMASK_REPORT_DIR/<campaign_id>.report.json when the env var
    /// is set, otherwise no report is written.  Pure observability --
    /// never read back by the runtime.
    std::string report_path;
    /// Rate-limited progress observer (see telemetry::ProgressMeter);
    /// also enabled campaign-wide by GLITCHMASK_PROGRESS=<seconds>,
    /// which prints a stderr heartbeat instead.
    telemetry::ProgressFn on_progress;
    /// Per-net leakage attribution (leakage/attribution.hpp): probe taps
    /// stream per-(net, clock-window) toggle counts into per-class
    /// accumulators alongside the power trace, producing a ranked culprit
    /// table in the result and the run report.  Also enabled campaign-wide
    /// by GLITCHMASK_ATTRIBUTION=1.  Changes the snapshot payload -- a
    /// checkpoint written with attribution on cannot resume a run with it
    /// off (and vice versa).
    bool attribution = false;
    /// Culprit-table depth for reports (result ranking is always full).
    std::size_t attribution_top_k = 10;
    /// Restrict attribution to nets whose module path contains this
    /// substring (empty = every net).  Bounds probe memory on large
    /// designs: the accumulator holds 48 B per (net, window) point.
    std::string attribution_scope;
    /// Retry ladder for transient checkpoint-write errors (EINTR/EIO);
    /// permanent errnos (ENOSPC, EROFS, ...) are never retried.
    RetryPolicy io_retry;
    /// Graceful degradation: when a checkpoint write fails persistently
    /// (e.g. ENOSPC), keep the campaign running on its in-memory merge
    /// frontier -- correct results, no further durability -- instead of
    /// failing the run.  Off by default: a CLI run should fail loudly.
    bool degrade_on_io_error = false;
    /// Graceful degradation: a corrupt resume snapshot is quarantined
    /// (renamed `<path>.corrupt`) and the campaign restarts from zero --
    /// bit-identical to a fresh run -- instead of throwing.  Fingerprint
    /// mismatches still throw (they mean a *different* campaign's file).
    bool discard_corrupt_snapshot = false;
    /// Observer for every degradation decision: what is one of
    /// "checkpoint_degraded" / "snapshot_discarded", detail the message
    /// of the triggering error.
    std::function<void(const char* what, const std::string& detail)>
        on_degraded;
    /// Trace span the campaign's block/checkpoint spans parent to -- the
    /// service sets this to its execute span id; 0 = top-level.  Only
    /// meaningful when trace collection (support/trace.hpp) is on.
    std::uint64_t trace_parent = 0;
};

/// True when this run should attribute: the explicit flag or
/// GLITCHMASK_ATTRIBUTION=1.
[[nodiscard]] bool attribution_enabled(const CampaignRunOptions& run);

/// Folds the attribution identity (tag + scope) into a fingerprint's
/// payload.  Drivers call this only when attribution is on: off-runs keep
/// their pre-attribution fingerprints and snapshot layout, and resuming
/// an attributed snapshot into an unattributed run (or vice versa) fails
/// with ConfigMismatch instead of misparsing the payload.
void fold_attribution_fingerprint(CampaignFingerprint& fingerprint,
                                  const CampaignRunOptions& run);

/// Snapshot file for one driver run: explicit run.checkpoint_path, else
/// $GLITCHMASK_CHECKPOINT_DIR/<id>.gmsnap (id = run.campaign_id or
/// `default_id`), else "" (no snapshots).
[[nodiscard]] std::string resolve_checkpoint_path(const CampaignRunOptions& run,
                                                  const std::string& default_id);

/// Progress report of a (possibly cancelled or resumed) campaign run.
struct CampaignProgress {
    std::size_t completed_blocks = 0;
    std::size_t completed_traces = 0;
    bool cancelled = false;   // token fired; result covers a prefix only
    bool resumed = false;     // a snapshot seeded this run
    /// Checkpoint writes failed persistently and the policy allowed
    /// degradation: the run continued on its in-memory frontier only.
    bool checkpoint_degraded = false;
    /// A corrupt resume snapshot was quarantined and the campaign
    /// restarted from zero (results unaffected).
    bool snapshot_discarded = false;
    /// Completed-block marks of this run's successful snapshot writes, in
    /// order (the run report's checkpoint history).
    std::vector<std::uint64_t> checkpoint_blocks;
};

// --- snapshot file framing (used by the campaign runner) -----------------

/// Starts a checkpoint buffer: magic, version, fingerprint, completed
/// block count and stack entry count.  The caller appends each entry's
/// blocks-spanned word + payload, then seals with finish().
[[nodiscard]] SnapshotWriter begin_checkpoint(const CampaignFingerprint& fp,
                                              std::uint64_t completed_blocks,
                                              std::uint64_t stack_entries);

struct CheckpointHeader {
    CampaignFingerprint fingerprint;
    std::uint64_t completed_blocks = 0;
    std::uint64_t stack_entries = 0;
};

/// Reads and validates the header written by begin_checkpoint; throws
/// CampaignError{CorruptSnapshot} on bad magic/version.
[[nodiscard]] CheckpointHeader read_checkpoint_header(SnapshotReader& in);

}  // namespace glitchmask::eval
