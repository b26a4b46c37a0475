// Unit tests of the crash-safe runtime's building blocks: the sealed
// snapshot byte format (CRC + truncation detection), atomic file
// replacement, cooperative cancellation, and the checkpoint framing with
// its fingerprint matching.  The end-to-end kill-and-resume behaviour
// lives in campaign_resume_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "eval/checkpoint.hpp"
#include "support/atomic_file.hpp"
#include "support/campaign_error.hpp"
#include "support/cancel.hpp"
#include "support/snapshot.hpp"
#include "support/thread_pool.hpp"

namespace glitchmask {
namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "glitchmask_" + name;
}

TEST(Snapshot, WriterReaderRoundTrip) {
    SnapshotWriter out;
    out.u32(0xDEADBEEFu);
    out.u64(0x0123456789ABCDEFull);
    out.f64(3.141592653589793);
    out.f64(-0.0);
    const std::vector<std::uint8_t> raw{1, 2, 3, 4, 5, 6, 7, 8};
    out.bytes(raw);
    const std::vector<std::uint8_t> sealed = std::move(out).finish();

    SnapshotReader in(sealed);
    EXPECT_EQ(in.u32(), 0xDEADBEEFu);
    EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(in.f64(), 3.141592653589793);
    const double neg_zero = in.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));  // exact bit pattern, not value
    // bytes() writes raw octets; integers are little-endian over them.
    EXPECT_EQ(in.u64(), 0x0807060504030201ull);
    EXPECT_TRUE(in.exhausted());
}

TEST(Snapshot, ReaderExhaustionIsTracked) {
    SnapshotWriter out;
    out.u64(7);
    const std::vector<std::uint8_t> sealed = std::move(out).finish();
    SnapshotReader in(sealed);
    EXPECT_FALSE(in.exhausted());
    EXPECT_EQ(in.u64(), 7u);
    EXPECT_TRUE(in.exhausted());
}

TEST(Snapshot, BitFlipAnywhereFailsTheCrc) {
    SnapshotWriter out;
    for (std::uint64_t i = 0; i < 16; ++i) out.u64(i * 0x9E3779B97F4A7C15ull);
    const std::vector<std::uint8_t> sealed = std::move(out).finish();

    for (std::size_t byte : {std::size_t{0}, sealed.size() / 2,
                             sealed.size() - 5, sealed.size() - 1}) {
        std::vector<std::uint8_t> corrupt = sealed;
        corrupt[byte] ^= 0x10;
        try {
            SnapshotReader in(corrupt);
            FAIL() << "bit flip at byte " << byte << " was not detected";
        } catch (const CampaignError& e) {
            EXPECT_EQ(e.kind(), CampaignErrorKind::CorruptSnapshot);
        }
    }
}

TEST(Snapshot, TruncationIsDetected) {
    SnapshotWriter out;
    out.u64(1);
    out.u64(2);
    const std::vector<std::uint8_t> sealed = std::move(out).finish();

    // Chopping bytes off the end invalidates the CRC trailer (or leaves
    // too few bytes to even hold one).
    for (std::size_t keep = 0; keep < sealed.size(); ++keep) {
        const std::vector<std::uint8_t> cut(sealed.begin(),
                                            sealed.begin() + keep);
        EXPECT_THROW(SnapshotReader{cut}, CampaignError) << "kept " << keep;
    }

    // An intact CRC but over-reading the payload must also throw.
    SnapshotWriter short_out;
    short_out.u32(5);
    const std::vector<std::uint8_t> short_sealed = std::move(short_out).finish();
    SnapshotReader in(short_sealed);
    EXPECT_EQ(in.u32(), 5u);
    EXPECT_THROW((void)in.u64(), CampaignError);
}

TEST(AtomicFile, WriteReadRoundTripAndReplace) {
    const std::string path = temp_path("atomic_roundtrip.bin");
    const std::vector<std::uint8_t> first{10, 20, 30};
    atomic_write_file(path, first);
    auto read_back = read_file_if_exists(path);
    ASSERT_TRUE(read_back.has_value());
    EXPECT_EQ(*read_back, first);

    const std::vector<std::uint8_t> second{99};
    atomic_write_file(path, second);
    read_back = read_file_if_exists(path);
    ASSERT_TRUE(read_back.has_value());
    EXPECT_EQ(*read_back, second);

    // No .tmp litter after a successful replace.
    EXPECT_FALSE(read_file_if_exists(path + ".tmp").has_value());
    std::remove(path.c_str());
}

TEST(AtomicFile, MissingFileReadsAsNullopt) {
    EXPECT_FALSE(read_file_if_exists(temp_path("never_written")).has_value());
}

TEST(AtomicFile, UnwritableTargetThrowsIoFailure) {
    const std::vector<std::uint8_t> bytes{1};
    try {
        atomic_write_file("/nonexistent_dir_glitchmask/file.bin", bytes);
        FAIL() << "write into a missing directory should throw";
    } catch (const CampaignError& e) {
        EXPECT_EQ(e.kind(), CampaignErrorKind::IoFailure);
    }
}

TEST(CancelToken, RequestIsStickyUntilReset) {
    CancelToken token;
    EXPECT_FALSE(token.requested());
    token.request();
    token.request();  // idempotent
    EXPECT_TRUE(token.requested());
    token.reset();
    EXPECT_FALSE(token.requested());
}

TEST(CancelToken, TaskGroupSkipsQueuedTasksAfterCancel) {
    ThreadPool pool(2);
    CancelToken token;
    token.request();  // fire before anything is queued
    std::atomic<int> executed{0};
    TaskGroup group(pool, &token);
    for (int i = 0; i < 32; ++i) group.run([&] { executed.fetch_add(1); });
    group.wait();
    EXPECT_EQ(executed.load(), 0);
    EXPECT_EQ(group.skipped(), 32u);
}

TEST(CancelToken, TaskGroupRunsEverythingWithoutCancel) {
    ThreadPool pool(2);
    CancelToken token;
    std::atomic<int> executed{0};
    TaskGroup group(pool, &token);
    for (int i = 0; i < 32; ++i) group.run([&] { executed.fetch_add(1); });
    group.wait();
    EXPECT_EQ(executed.load(), 32);
    EXPECT_EQ(group.skipped(), 0u);
}

TEST(ScopedSignalCancel, SigintRequestsTheTokenInsteadOfKilling) {
    CancelToken token;
    {
        ScopedSignalCancel guard(token);
        EXPECT_FALSE(token.requested());
        std::raise(SIGINT);
        EXPECT_TRUE(token.requested());
        token.reset();
        std::raise(SIGTERM);
        EXPECT_TRUE(token.requested());
    }
    // Handlers restored; a second guard may be installed afterwards.
    token.reset();
    ScopedSignalCancel again(token);
    std::raise(SIGINT);
    EXPECT_TRUE(token.requested());
}

TEST(ScopedSignalCancel, SecondSimultaneousGuardIsRejected) {
    CancelToken a, b;
    ScopedSignalCancel guard(a);
    EXPECT_THROW(ScopedSignalCancel{b}, std::logic_error);
}

}  // namespace
}  // namespace glitchmask

namespace glitchmask::eval {
namespace {

TEST(CheckpointFraming, HeaderRoundTrip) {
    const CampaignFingerprint fp{fnv1a64_tag("unit_test"), 7, 1000, 64,
                                 0xABCDull};
    SnapshotWriter out = begin_checkpoint(fp, /*completed_blocks=*/5,
                                          /*stack_entries=*/2);
    out.u64(4);  // entry spans
    out.u64(1);
    const std::vector<std::uint8_t> sealed = std::move(out).finish();

    SnapshotReader in(sealed);
    const CheckpointHeader header = read_checkpoint_header(in);
    EXPECT_EQ(header.fingerprint.kind, fp.kind);
    EXPECT_EQ(header.fingerprint.seed, fp.seed);
    EXPECT_EQ(header.fingerprint.traces, fp.traces);
    EXPECT_EQ(header.fingerprint.block_size, fp.block_size);
    EXPECT_EQ(header.fingerprint.payload, fp.payload);
    EXPECT_EQ(header.completed_blocks, 5u);
    EXPECT_EQ(header.stack_entries, 2u);
    EXPECT_EQ(in.u64(), 4u);
    EXPECT_EQ(in.u64(), 1u);
}

TEST(CheckpointFraming, BadMagicAndVersionAreCorrupt) {
    SnapshotWriter bad_magic;
    bad_magic.u32(0x12345678u);
    bad_magic.u32(kSnapshotVersion);
    const std::vector<std::uint8_t> sealed_magic = std::move(bad_magic).finish();
    SnapshotReader in_magic(sealed_magic);
    try {
        (void)read_checkpoint_header(in_magic);
        FAIL() << "bad magic accepted";
    } catch (const CampaignError& e) {
        EXPECT_EQ(e.kind(), CampaignErrorKind::CorruptSnapshot);
    }

    SnapshotWriter bad_version;
    bad_version.u32(kSnapshotMagic);
    bad_version.u32(kSnapshotVersion + 7);
    const std::vector<std::uint8_t> sealed_version =
        std::move(bad_version).finish();
    SnapshotReader in_version(sealed_version);
    EXPECT_THROW((void)read_checkpoint_header(in_version), CampaignError);
}

TEST(CheckpointFraming, FingerprintMismatchNamesTheField) {
    const CampaignFingerprint expected{1, 2, 3, 4, 5};
    CampaignFingerprint stored = expected;
    require_fingerprint_match(expected, stored);  // equal: no throw

    stored.seed = 99;
    try {
        require_fingerprint_match(expected, stored);
        FAIL() << "seed mismatch accepted";
    } catch (const CampaignError& e) {
        EXPECT_EQ(e.kind(), CampaignErrorKind::ConfigMismatch);
        EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
    }

    stored = expected;
    stored.traces = 77;
    try {
        require_fingerprint_match(expected, stored);
        FAIL() << "traces mismatch accepted";
    } catch (const CampaignError& e) {
        EXPECT_NE(std::string(e.what()).find("traces"), std::string::npos);
    }

    stored = expected;
    stored.block_size = 128;
    EXPECT_THROW(require_fingerprint_match(expected, stored), CampaignError);
}

TEST(CheckpointPathTest, ExplicitPathWinsOverEnvironment) {
    ::setenv("GLITCHMASK_CHECKPOINT_DIR", "/tmp/gm_env_dir", 1);
    CampaignRunOptions run;
    run.checkpoint_path = "/tmp/explicit.gmsnap";
    EXPECT_EQ(resolve_checkpoint_path(run, "def"), "/tmp/explicit.gmsnap");
    ::unsetenv("GLITCHMASK_CHECKPOINT_DIR");
}

TEST(CheckpointPathTest, EnvironmentDirectoryNamesFileByCampaignId) {
    ::setenv("GLITCHMASK_CHECKPOINT_DIR", "/tmp/gm_env_dir", 1);
    EXPECT_EQ(resolve_checkpoint_path(CampaignRunOptions{}, "des_tvla"),
              "/tmp/gm_env_dir/des_tvla.gmsnap");

    CampaignRunOptions run;
    run.campaign_id = "custom";
    EXPECT_EQ(resolve_checkpoint_path(run, "des_tvla"),
              "/tmp/gm_env_dir/custom.gmsnap");
    ::unsetenv("GLITCHMASK_CHECKPOINT_DIR");
}

TEST(CheckpointPathTest, NoSnapshotsWithoutPathOrDirectory) {
    ::unsetenv("GLITCHMASK_CHECKPOINT_DIR");
    EXPECT_EQ(resolve_checkpoint_path(CampaignRunOptions{}, "x"), "");
    EXPECT_EQ(CampaignRunOptions{}.checkpoint_every, 0u);
    EXPECT_EQ(kDefaultCheckpointEvery, 16u);  // what checkpoint_every 0 means
}

}  // namespace
}  // namespace glitchmask::eval
