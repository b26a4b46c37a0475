#include "eval/checkpoint.hpp"

#include <string>

#include "support/env.hpp"

namespace glitchmask::eval {

namespace {

[[noreturn]] void mismatch(const char* field, std::uint64_t expected,
                           std::uint64_t stored) {
    throw CampaignError(
        CampaignErrorKind::ConfigMismatch,
        std::string("resume config mismatch on field '") + field +
            "': campaign has " + std::to_string(expected) +
            ", snapshot was written with " + std::to_string(stored));
}

}  // namespace

void require_fingerprint_match(const CampaignFingerprint& expected,
                               const CampaignFingerprint& stored) {
    if (expected.kind != stored.kind)
        mismatch("kind", expected.kind, stored.kind);
    if (expected.seed != stored.seed)
        mismatch("seed", expected.seed, stored.seed);
    if (expected.traces != stored.traces)
        mismatch("traces", expected.traces, stored.traces);
    if (expected.block_size != stored.block_size)
        mismatch("block_size", expected.block_size, stored.block_size);
    if (expected.payload != stored.payload)
        mismatch("config payload hash", expected.payload, stored.payload);
}

bool attribution_enabled(const CampaignRunOptions& run) {
    return run.attribution || env_int("GLITCHMASK_ATTRIBUTION", 0) != 0;
}

void fold_attribution_fingerprint(CampaignFingerprint& fingerprint,
                                  const CampaignRunOptions& run) {
    fingerprint.payload =
        fnv1a64(fingerprint.payload, fnv1a64_tag("attribution"));
    fingerprint.payload = fnv1a64(
        fingerprint.payload, fnv1a64_tag(run.attribution_scope.c_str()));
}

std::string resolve_checkpoint_path(const CampaignRunOptions& run,
                                    const std::string& default_id) {
    if (!run.checkpoint_path.empty()) return run.checkpoint_path;
    const std::string dir = env_string("GLITCHMASK_CHECKPOINT_DIR", "");
    if (dir.empty()) return {};
    const std::string id =
        run.campaign_id.empty() ? default_id : run.campaign_id;
    return dir + "/" + id + ".gmsnap";
}

SnapshotWriter begin_checkpoint(const CampaignFingerprint& fp,
                                std::uint64_t completed_blocks,
                                std::uint64_t stack_entries) {
    SnapshotWriter out;
    out.u32(kSnapshotMagic);
    out.u32(kSnapshotVersion);
    out.u64(fp.kind);
    out.u64(fp.seed);
    out.u64(fp.traces);
    out.u64(fp.block_size);
    out.u64(fp.payload);
    out.u64(completed_blocks);
    out.u64(stack_entries);
    return out;
}

CheckpointHeader read_checkpoint_header(SnapshotReader& in) {
    if (in.u32() != kSnapshotMagic)
        throw CampaignError(CampaignErrorKind::CorruptSnapshot,
                            "snapshot: bad magic (not a glitchmask snapshot)");
    const std::uint32_t version = in.u32();
    if (version != kSnapshotVersion)
        throw CampaignError(
            CampaignErrorKind::CorruptSnapshot,
            "snapshot: unsupported version " + std::to_string(version));
    CheckpointHeader header;
    header.fingerprint.kind = in.u64();
    header.fingerprint.seed = in.u64();
    header.fingerprint.traces = in.u64();
    header.fingerprint.block_size = in.u64();
    header.fingerprint.payload = in.u64();
    header.completed_blocks = in.u64();
    header.stack_entries = in.u64();
    return header;
}

}  // namespace glitchmask::eval
