// End-to-end fault injection for the crash-safe campaign runtime.
//
// The resume contract is *bit-identity*: a campaign killed at any
// checkpoint boundary -- SIGKILL (no cleanup whatsoever) or a cooperative
// SIGINT-style cancel -- and later resumed must produce exactly the
// statistics of an uninterrupted run, at any worker or lane count.  All
// comparisons here are EXPECT_EQ on raw doubles, never EXPECT_NEAR.
//
// The SIGKILL test forks a child that runs the campaign and kills itself
// from the on_checkpoint hook; fork is safe here because campaign thread
// pools are created and joined inside each driver call, so the parent has
// no live threads at fork time.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "des/masked_des.hpp"
#include "eval/campaign.hpp"
#include "eval/des_experiments.hpp"
#include "eval/gadget_tvla.hpp"
#include "eval/lane_backend.hpp"
#include "eval/run_report.hpp"
#include "support/atomic_file.hpp"
#include "support/campaign_error.hpp"
#include "support/cancel.hpp"

namespace glitchmask::eval {
namespace {

std::string temp_snapshot(const std::string& name) {
    const std::string path = ::testing::TempDir() + "glitchmask_" + name;
    std::remove(path.c_str());
    return path;
}

DesTvlaConfig small_campaign(const std::string& checkpoint_path) {
    DesTvlaConfig config;
    config.traces = 96;
    config.seed = 23;
    config.block_size = 8;  // 12 blocks: room for several checkpoints
    config.lanes = 1;       // scalar: cheap and exercises the wrapped path
    config.workers = 2;
    config.run.checkpoint_path = checkpoint_path;
    config.run.checkpoint_every = 2;
    return config;
}

void expect_identical(const DesTvlaResult& a, const DesTvlaResult& b,
                      const std::string& label) {
    EXPECT_EQ(a.toggles, b.toggles) << label;
    for (int order = 1; order <= 3; ++order) {
        const std::vector<double> ta = a.campaign.t_curve(order);
        const std::vector<double> tb = b.campaign.t_curve(order);
        ASSERT_EQ(ta.size(), tb.size()) << label;
        for (std::size_t i = 0; i < ta.size(); ++i)
            EXPECT_EQ(ta[i], tb[i])
                << label << " order " << order << " sample " << i;
    }
}

TEST(CampaignResume, CheckpointedRunMatchesPlainRunBitForBit) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("plain_vs_ckpt.gmsnap");

    DesTvlaConfig plain = small_campaign("");
    plain.run.checkpoint_every = 0;
    const DesTvlaResult baseline = run_des_tvla(core, plain);

    const DesTvlaConfig checkpointed = small_campaign(path);
    const DesTvlaResult with_snapshots = run_des_tvla(core, checkpointed);

    expect_identical(baseline, with_snapshots, "checkpointed");
    EXPECT_FALSE(with_snapshots.progress.cancelled);
    EXPECT_FALSE(with_snapshots.progress.resumed);
    EXPECT_EQ(with_snapshots.progress.completed_traces, checkpointed.traces);
    std::remove(path.c_str());
}

TEST(CampaignResume, SigkillMidRunThenResumeIsBitIdentical) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("sigkill.gmsnap");

    DesTvlaConfig plain = small_campaign("");
    const DesTvlaResult baseline = run_des_tvla(core, plain);

    // Resume must be bit-identical regardless of the worker count on
    // either side of the kill.
    for (const unsigned resume_workers : {1u, 4u}) {
        std::remove(path.c_str());
        const pid_t child = fork();
        ASSERT_GE(child, 0) << "fork failed";
        if (child == 0) {
            // Child: run with a hook that SIGKILLs the process after the
            // second checkpoint -- no destructors, no flushes, exactly
            // like an OOM kill or a power cut mid-campaign.
            DesTvlaConfig cfg = small_campaign(path);
            cfg.run.on_checkpoint = [](std::size_t completed_blocks) {
                if (completed_blocks >= 4) ::kill(::getpid(), SIGKILL);
            };
            (void)run_des_tvla(core, cfg);
            ::_exit(0);  // not reached
        }
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
        ASSERT_EQ(WTERMSIG(status), SIGKILL);

        // The snapshot left behind must be a valid mid-run checkpoint.
        ASSERT_TRUE(read_file_if_exists(path).has_value());

        DesTvlaConfig resume = small_campaign(path);
        resume.workers = resume_workers;
        const DesTvlaResult resumed = run_des_tvla(core, resume);
        EXPECT_TRUE(resumed.progress.resumed) << resume_workers;
        EXPECT_FALSE(resumed.progress.cancelled) << resume_workers;
        EXPECT_EQ(resumed.progress.completed_traces, resume.traces)
            << resume_workers;
        expect_identical(baseline, resumed,
                         "resume workers=" + std::to_string(resume_workers));
    }
    std::remove(path.c_str());
}

TEST(CampaignResume, CancelledRunResumesToIdenticalResult) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("cancel.gmsnap");

    DesTvlaConfig plain = small_campaign("");
    const DesTvlaResult baseline = run_des_tvla(core, plain);

    // Phase 1: cooperative cancel (the SIGINT path routes a signal into
    // exactly this token; tests fire it from the checkpoint hook to make
    // the interruption point deterministic).
    CancelToken token;
    DesTvlaConfig cancelled_cfg = small_campaign(path);
    cancelled_cfg.run.cancel = &token;
    cancelled_cfg.run.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 4) token.request();
    };
    const DesTvlaResult partial = run_des_tvla(core, cancelled_cfg);
    EXPECT_TRUE(partial.progress.cancelled);
    EXPECT_LT(partial.progress.completed_traces, cancelled_cfg.traces);
    EXPECT_GT(partial.progress.completed_traces, 0u);
    // The partial statistics cover exactly the completed prefix.
    EXPECT_EQ(partial.campaign.traces(true) + partial.campaign.traces(false),
              partial.progress.completed_traces);

    // Phase 2: resume without the token -> runs to completion.
    const DesTvlaConfig resume = small_campaign(path);
    const DesTvlaResult resumed = run_des_tvla(core, resume);
    EXPECT_TRUE(resumed.progress.resumed);
    EXPECT_FALSE(resumed.progress.cancelled);
    expect_identical(baseline, resumed, "resume after cancel");
    std::remove(path.c_str());
}

TEST(CampaignResume, SigintViaScopedSignalCancelStopsGracefully) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("sigint.gmsnap");

    CancelToken token;
    ScopedSignalCancel guard(token);
    DesTvlaConfig cfg = small_campaign(path);
    cfg.run.cancel = &token;
    cfg.run.on_checkpoint = [](std::size_t completed_blocks) {
        if (completed_blocks >= 2) std::raise(SIGINT);  // a real Ctrl-C
    };
    const DesTvlaResult partial = run_des_tvla(core, cfg);
    EXPECT_TRUE(partial.progress.cancelled);
    EXPECT_LT(partial.progress.completed_traces, cfg.traces);
    ASSERT_TRUE(read_file_if_exists(path).has_value());

    // And the interrupted run resumes to the uninterrupted result.
    token.reset();
    DesTvlaConfig plain = small_campaign("");
    const DesTvlaResult baseline = run_des_tvla(core, plain);
    DesTvlaConfig resume = small_campaign(path);
    resume.run.cancel = &token;  // armed but never fired this time
    const DesTvlaResult resumed = run_des_tvla(core, resume);
    EXPECT_TRUE(resumed.progress.resumed);
    expect_identical(baseline, resumed, "resume after SIGINT");
    std::remove(path.c_str());
}

TEST(CampaignResume, ResumeAcrossLaneConfigsIsBitIdentical) {
    // A snapshot written by the scalar engine must seed the 64-lane one
    // (and vice versa): lanes are absent from the fingerprint because the
    // two paths are proven bit-identical.
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("lanes.gmsnap");

    const DesTvlaResult baseline = run_des_tvla(core, small_campaign(""));

    CancelToken token;
    DesTvlaConfig scalar_cfg = small_campaign(path);
    scalar_cfg.lanes = 1;
    scalar_cfg.run.cancel = &token;
    scalar_cfg.run.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 4) token.request();
    };
    const DesTvlaResult partial = run_des_tvla(core, scalar_cfg);
    ASSERT_TRUE(partial.progress.cancelled);

    DesTvlaConfig lane_resume = small_campaign(path);
    lane_resume.lanes = 64;
    const DesTvlaResult resumed = run_des_tvla(core, lane_resume);
    EXPECT_TRUE(resumed.progress.resumed);
    expect_identical(baseline, resumed, "scalar snapshot, 64-lane resume");
    std::remove(path.c_str());
}

TEST(CampaignResume, CorruptSnapshotIsRejectedNeverReadAsData) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("corrupt.gmsnap");

    // Produce a genuine mid-run snapshot.
    CancelToken token;
    DesTvlaConfig cfg = small_campaign(path);
    cfg.run.cancel = &token;
    cfg.run.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 4) token.request();
    };
    (void)run_des_tvla(core, cfg);
    auto bytes = read_file_if_exists(path);
    ASSERT_TRUE(bytes.has_value());

    // Bit flip in the middle of the accumulator payload.
    std::vector<std::uint8_t> flipped = *bytes;
    flipped[flipped.size() / 2] ^= 0x01;
    atomic_write_file(path, flipped);
    try {
        (void)run_des_tvla(core, small_campaign(path));
        FAIL() << "bit-flipped snapshot was accepted";
    } catch (const CampaignError& e) {
        EXPECT_EQ(e.kind(), CampaignErrorKind::CorruptSnapshot);
    }

    // Truncation (torn write simulated past the atomic-rename guarantee).
    std::vector<std::uint8_t> truncated(*bytes);
    truncated.resize(truncated.size() / 2);
    atomic_write_file(path, truncated);
    try {
        (void)run_des_tvla(core, small_campaign(path));
        FAIL() << "truncated snapshot was accepted";
    } catch (const CampaignError& e) {
        EXPECT_EQ(e.kind(), CampaignErrorKind::CorruptSnapshot);
    }
    std::remove(path.c_str());
}

TEST(CampaignResume, ConfigMismatchOnResumeNamesTheField) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("mismatch.gmsnap");

    CancelToken token;
    DesTvlaConfig cfg = small_campaign(path);
    cfg.run.cancel = &token;
    cfg.run.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 2) token.request();
    };
    (void)run_des_tvla(core, cfg);
    ASSERT_TRUE(read_file_if_exists(path).has_value());

    DesTvlaConfig other_seed = small_campaign(path);
    other_seed.seed = 999;
    try {
        (void)run_des_tvla(core, other_seed);
        FAIL() << "seed mismatch accepted on resume";
    } catch (const CampaignError& e) {
        EXPECT_EQ(e.kind(), CampaignErrorKind::ConfigMismatch);
        EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
    }

    DesTvlaConfig other_noise = small_campaign(path);
    other_noise.noise_sigma = 2.5;  // folded into the payload hash
    try {
        (void)run_des_tvla(core, other_noise);
        FAIL() << "noise mismatch accepted on resume";
    } catch (const CampaignError& e) {
        EXPECT_EQ(e.kind(), CampaignErrorKind::ConfigMismatch);
    }
    std::remove(path.c_str());
}

TEST(CampaignResume, MeanPowerTraceCheckpointAndResume) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("mean_power.gmsnap");

    const std::vector<double> baseline =
        mean_power_trace(core, /*traces=*/192, /*seed=*/5).mean;

    CancelToken token;
    CampaignRunOptions run;
    run.checkpoint_path = path;
    run.checkpoint_every = 1;
    run.cancel = &token;
    run.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 1) token.request();
    };
    // workers=1 keeps the wave at 2 blocks, so the cancel lands mid-run
    // (192 traces = 3 blocks of 64).
    const MeanPowerResult partial =
        mean_power_trace(core, 192, 5, 1, /*workers=*/1, 0, run);
    EXPECT_TRUE(partial.progress.cancelled);
    EXPECT_LT(partial.progress.completed_traces, 192u);
    EXPECT_EQ(partial.mean.size(), baseline.size());  // a full-width trace

    CampaignRunOptions resume;
    resume.checkpoint_path = path;
    const MeanPowerResult resumed =
        mean_power_trace(core, 192, 5, 1, 2, 0, resume);
    EXPECT_TRUE(resumed.progress.resumed);
    ASSERT_EQ(resumed.mean.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i)
        EXPECT_EQ(resumed.mean[i], baseline[i]) << "sample " << i;
    std::remove(path.c_str());
}

TEST(CampaignResume, SequenceExperimentCheckpointAndResume) {
    const core::InputSequence sequence{core::ShareId::Y0, core::ShareId::X1,
                                       core::ShareId::Y1, core::ShareId::X0};
    SequenceExperimentConfig config;
    config.replicas = 2;
    config.traces = 256;
    config.seed = 42;
    config.block_size = 16;
    config.workers = 2;

    const SequenceLeakResult baseline =
        run_sequence_experiment(sequence, config);
    EXPECT_EQ(baseline.progress.completed_traces, config.traces);

    const std::string path = temp_snapshot("sequence.gmsnap");
    CancelToken token;
    SequenceExperimentConfig interrupted = config;
    interrupted.run.checkpoint_path = path;
    interrupted.run.checkpoint_every = 2;
    interrupted.run.cancel = &token;
    interrupted.run.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 4) token.request();
    };
    const SequenceLeakResult partial =
        run_sequence_experiment(sequence, interrupted);
    EXPECT_TRUE(partial.progress.cancelled);
    EXPECT_LT(partial.progress.completed_traces, config.traces);

    SequenceExperimentConfig resume = config;
    resume.run.checkpoint_path = path;
    const SequenceLeakResult resumed =
        run_sequence_experiment(sequence, resume);
    EXPECT_TRUE(resumed.progress.resumed);
    EXPECT_EQ(resumed.max_abs_t1, baseline.max_abs_t1);
    EXPECT_EQ(resumed.max_abs_t2, baseline.max_abs_t2);
    EXPECT_EQ(resumed.argmax_cycle, baseline.argmax_cycle);
    std::remove(path.c_str());
}

TEST(CampaignValidation, RejectsDegenerateConfigsNamingTheField) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});

    DesTvlaConfig zero_traces;
    zero_traces.traces = 0;
    try {
        (void)run_des_tvla(core, zero_traces);
        FAIL() << "traces=0 accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("traces"), std::string::npos);
    }

    DesTvlaConfig zero_block;
    zero_block.traces = 8;
    zero_block.block_size = 0;
    try {
        (void)run_des_tvla(core, zero_block);
        FAIL() << "block_size=0 accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("block_size"), std::string::npos);
    }

    DesTvlaConfig bad_lanes;
    bad_lanes.traces = 8;
    bad_lanes.lanes = 7;
    try {
        (void)run_des_tvla(core, bad_lanes);
        FAIL() << "lanes=7 accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("lanes"), std::string::npos);
    }

    EXPECT_THROW(validate_campaign_config(0, 64, 0), std::invalid_argument);
    EXPECT_THROW(validate_campaign_config(10, 0, 0), std::invalid_argument);
    EXPECT_THROW(validate_campaign_config(10, 64, 2), std::invalid_argument);
    EXPECT_NO_THROW(validate_campaign_config(10, 64, 0));
    EXPECT_NO_THROW(validate_campaign_config(10, 64, 1));
    EXPECT_NO_THROW(validate_campaign_config(10, 64, 64));
    EXPECT_NO_THROW(validate_campaign_config(10, 64, 512));
    EXPECT_THROW(validate_campaign_config(10, 64, 1024), std::invalid_argument);
}

TEST(CampaignResume, LanePlanDefaultsToOneChunk) {
    if (std::getenv("GLITCHMASK_LANES") != nullptr)
        GTEST_SKIP() << "GLITCHMASK_LANES overrides the default width";
    // lanes = 0 is one 64-lane chunk -- the width the drivers run, which
    // an out-of-driver replay of the same request must also resolve to.
    EXPECT_EQ(resolve_lanes(0, /*timing_coupling=*/false), 64u);
    const BackendPlan plan =
        resolve_backend_plan({}, 0, /*timing_coupling=*/false, 3802);
    EXPECT_EQ(plan.lanes, 64u);
    EXPECT_EQ(plan.backend, SimBackend::Compiled);
    const BackendPlan scalar = resolve_backend_plan({}, 1, false);
    EXPECT_TRUE(scalar.scalar());
    EXPECT_EQ(scalar.backend, SimBackend::Scalar);
    // Data-dependent delays cannot share a lane schedule.
    EXPECT_EQ(resolve_lanes(512, /*timing_coupling=*/true), 1u);
    EXPECT_THROW((void)resolve_lanes(32, false), std::invalid_argument);
}

TEST(CampaignResume, DefaultFingerprintsArePinned) {
    // The identity a default-config run writes into its checkpoints (and
    // the daemon into its spool) must never drift: these literals are the
    // fingerprints the drivers wrote before the lane engine became the
    // compiled one, so every older snapshot still resumes.  Changing one
    // strands every checkpoint written under it.
    struct Pin {
        const char* campaign;
        std::uint64_t kind;
        std::uint64_t payload;
    };
    const auto expect_pinned = [](const std::string& report_path,
                                  const Pin& pin) {
        SCOPED_TRACE(pin.campaign);
        const std::optional<RunReport> report = read_run_report(report_path);
        ASSERT_TRUE(report.has_value());
        EXPECT_EQ(report->entry.fingerprint.kind, pin.kind);
        EXPECT_EQ(report->entry.fingerprint.seed, 1u);
        EXPECT_EQ(report->entry.fingerprint.traces, 64u);
        EXPECT_EQ(report->entry.fingerprint.block_size, 64u);
        EXPECT_EQ(report->entry.fingerprint.payload, pin.payload);
        std::remove(report_path.c_str());
    };
    const std::string dir = ::testing::TempDir() + "glitchmask_pin_";

    SequenceExperimentConfig seq;
    seq.traces = 64;
    seq.workers = 1;
    seq.run.report_path = dir + "seq.report.json";
    (void)run_sequence_experiment(core::all_input_sequences().front(), seq);
    expect_pinned(seq.run.report_path,
                  {"sequence_tvla", 0xcc8b7bfdf19b7978ull,
                   0x0c61d2bd55aa2f0dull});

    GadgetTvlaConfig gadget;
    gadget.traces = 64;
    gadget.workers = 1;
    gadget.run.report_path = dir + "gadget.report.json";
    (void)run_gadget_tvla(gadget);
    expect_pinned(gadget.run.report_path,
                  {"gadget_tvla", 0xbe991b8f54cebb1full,
                   0xe841c2b4f59c2d5eull});

    const des::MaskedDesCore core(des::MaskedDesOptions{});
    DesTvlaConfig des;
    des.traces = 64;
    des.workers = 1;
    des.run.report_path = dir + "des.report.json";
    (void)run_des_tvla(core, des);
    expect_pinned(des.run.report_path,
                  {"des_tvla", 0x24fbf3947386f3b1ull, 0x1fce5162ef9c1fe2ull});

    CampaignRunOptions mean;
    mean.report_path = dir + "mean.report.json";
    (void)mean_power_trace(core, 64, /*seed=*/1, /*placement_seed=*/1,
                           /*workers=*/1, /*lanes=*/0, mean);
    expect_pinned(mean.report_path,
                  {"mean_power", 0x801d8eb867bf54d2ull, 0x272222ac65b77c75ull});
}

TEST(CampaignResume, SnapshotBytesArePinned) {
    // A restarted daemon resumes the .gmsnap files in its spool, so their
    // byte layout is an external contract: a self-consistent change (the
    // DES toggle word moved, the attribution section reordered) would
    // pass every resume test above yet strand every spooled snapshot.
    // Each driver runs its default config at 192 traces (3 blocks of 64),
    // checkpoints every block and cancels after block 2; the snapshot
    // carries no timestamp, so its bytes are deterministic.  These FNV-1a
    // hashes were recorded before the four drivers shared one pipeline.
    struct Pin {
        const char* campaign;
        std::uint64_t plain;
        std::uint64_t attributed;
    };
    const auto snapshot_hash = [](const std::string& path) {
        const auto bytes = read_file_if_exists(path);
        EXPECT_TRUE(bytes.has_value()) << path;
        std::uint64_t hash = kFnvOffset;
        for (const std::uint8_t byte : bytes.value_or(std::vector<std::uint8_t>{})) {
            hash ^= byte;
            hash *= 0x100000001B3ULL;
        }
        std::remove(path.c_str());
        return hash;
    };
    // Fills `run` to checkpoint every block into `path` and cancel once
    // block 2 is on disk (one worker: the first wave is blocks 0-1).
    const auto cancel_after_two = [](CampaignRunOptions& run,
                                     CancelToken& token,
                                     const std::string& path,
                                     bool attribute) {
        run.checkpoint_path = path;
        run.checkpoint_every = 1;
        run.cancel = &token;
        run.attribution = attribute;
        run.on_checkpoint = [&token](std::size_t completed_blocks) {
            if (completed_blocks >= 2) token.request();
        };
    };
    const std::string path = temp_snapshot("pin_bytes.gmsnap");
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    std::vector<std::uint64_t> hashes;
    for (const bool attribute : {false, true}) {
        SequenceExperimentConfig seq;
        seq.traces = 192;
        seq.workers = 1;
        CancelToken seq_token;
        cancel_after_two(seq.run, seq_token, path, attribute);
        EXPECT_TRUE(run_sequence_experiment(core::all_input_sequences().front(),
                                            seq)
                        .progress.cancelled);
        hashes.push_back(snapshot_hash(path));

        GadgetTvlaConfig gadget;
        gadget.traces = 192;
        gadget.workers = 1;
        CancelToken gadget_token;
        cancel_after_two(gadget.run, gadget_token, path, attribute);
        EXPECT_TRUE(run_gadget_tvla(gadget).progress.cancelled);
        hashes.push_back(snapshot_hash(path));

        DesTvlaConfig des;
        des.traces = 192;
        des.workers = 1;
        CancelToken des_token;
        cancel_after_two(des.run, des_token, path, attribute);
        EXPECT_TRUE(run_des_tvla(core, des).progress.cancelled);
        hashes.push_back(snapshot_hash(path));

        CampaignRunOptions mean;
        CancelToken mean_token;
        cancel_after_two(mean, mean_token, path, attribute);
        EXPECT_TRUE(mean_power_trace(core, 192, /*seed=*/1,
                                     /*placement_seed=*/1, /*workers=*/1,
                                     /*lanes=*/0, mean)
                        .progress.cancelled);
        hashes.push_back(snapshot_hash(path));
    }
    const Pin pins[] = {
        {"sequence_tvla", 0xc93d48a2bf1f3f1aull, 0x8c999ee3fb8a5abfull},
        {"gadget_tvla", 0xca697b027048a6e5ull, 0xc65126d1f7aeff8aull},
        {"des_tvla", 0xf76e181167144bb2ull, 0x5e075f4b31865134ull},
        {"mean_power", 0x318121bbd9b1e329ull, 0x320337c3951c864dull},
    };
    for (std::size_t i = 0; i < 4; ++i) {
        SCOPED_TRACE(pins[i].campaign);
        EXPECT_EQ(hashes[i], pins[i].plain);
        EXPECT_EQ(hashes[4 + i], pins[i].attributed);
    }
}

}  // namespace
}  // namespace glitchmask::eval
