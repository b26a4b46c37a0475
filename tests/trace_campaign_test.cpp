// The Workload contract of eval/trace_campaign.hpp, checked on a toy
// workload defined right here: a registered two-share XOR.  Its few
// dozen lines are all a new experiment has to write -- circuit, stimulus,
// drive schedule and fold -- and the pipeline must then deliver the
// campaign guarantees on its own: scalar == every lane width == any
// worker count == an interrupted-and-resumed run, bit for bit, with
// attribution off and on.  Every comparison is ==, never NEAR.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "eval/parallel_campaign.hpp"
#include "eval/run_report.hpp"
#include "eval/trace_campaign.hpp"
#include "support/cancel.hpp"
#include "support/fault.hpp"
#include "support/snapshot.hpp"
#include "support/telemetry.hpp"

namespace glitchmask::eval {
namespace {

constexpr std::size_t kTraces = 900;     // blocks of 200, a 100-trace tail
constexpr std::size_t kBlockSize = 200;  // 64-lane groups leave an 8 tail

// ----- the toy workload ---------------------------------------------------

/// The shares of a masked bit load into two registers (enable group 1)
/// whose XOR recombines the bit.  The mean toggle count is balanced, but
/// the fixed class always toggles exactly one register while the random
/// class toggles 0..2, so the campaign leaks at second order and the
/// statistics below are not vacuous.
struct ToyXor {
    netlist::Netlist nl;
    std::array<netlist::NetId, 2> in{};
    ToyXor() {
        in = {nl.input("a0"), nl.input("a1")};
        (void)nl.xor2(nl.dff(in[0], 1), nl.dff(in[1], 1), "x");
        nl.freeze();
    }
};

/// Trace n: class bit (fixed: a = 1), then a masked a.
std::pair<bool, std::array<bool, 2>> toy_stimulus(std::uint64_t seed,
                                                  std::size_t n) {
    Xoshiro256 rng = trace_rng(seed, kStimulusStream, n);
    const bool fixed = rng.bit();
    const bool a = fixed || rng.bit();
    const bool mask = rng.bit();
    return {fixed, {a != mask, mask}};
}

template <class Sim>
void toy_schedule(Sim& s) {
    s.step();  // shares land on the register inputs
    s.set_enable(1, true);
    s.step();  // registers load, the XOR settles
    s.step();
}

Workload toy_workload(const ToyXor& toy, const sim::DelayModel& dm,
                      std::uint64_t seed, std::size_t traces = kTraces,
                      std::size_t block_size = kBlockSize) {
    return Workload{
        .nl = toy.nl,
        .dm = dm,
        .clock = {},
        .bins = 3,
        .tag = "toy_xor",
        .fingerprint = {fnv1a64_tag("toy_xor"), seed, traces, block_size,
                        kFnvOffset},
        .fold = {.max_test_order = 2, .noise_sigma = 0.5},
        .drive_lanes =
            [&toy, seed](LaneGroup& group) {
                std::array<LaneWords, 2> shares{};
                for (unsigned lane = 0; lane < group.count; ++lane) {
                    const auto [fixed, v] = toy_stimulus(seed, group.first + lane);
                    if (fixed) set_lane(group.fixed, lane);
                    for (std::size_t i = 0; i < 2; ++i)
                        if (v[i]) set_lane(shares[i], lane);
                }
                group.start();
                for (unsigned c = 0; c < group.sim.chunks(); ++c)
                    for (std::size_t i = 0; i < 2; ++i)
                        group.sim.set_input_word(toy.in[i], c, shares[i][c]);
                toy_schedule(group.sim);
            },
        .drive_trace =
            [&toy, seed](sim::ClockedSim& s, std::size_t n) {
                const auto [fixed, v] = toy_stimulus(seed, n);
                for (std::size_t i = 0; i < 2; ++i) s.set_input(toy.in[i], v[i]);
                toy_schedule(s);
                return fixed;
            },
    };
}

// ----- the contract ---------------------------------------------------------

class TraceCampaignTest : public ::testing::TestWithParam<bool> {
protected:
    TraceCampaignTest() : dm_(toy_.nl, placement_delay_config(7)) {}

    [[nodiscard]] TraceCampaignResult run(unsigned lanes, unsigned workers,
                                          CampaignRunOptions options = {}) {
        options.attribution = GetParam();
        ThreadPool pool(workers);
        return run_trace_campaign(toy_workload(toy_, dm_, /*seed=*/11),
                                  {kTraces, kBlockSize, /*seed=*/11, lanes},
                                  options, pool);
    }

    ToyXor toy_;
    sim::DelayModel dm_;
};

std::vector<std::uint8_t> bank_bytes(const leakage::MomentBank& bank) {
    SnapshotWriter out;
    bank.encode(out);
    return std::move(out).finish();
}

void expect_identical(const TraceCampaignResult& a, const TraceCampaignResult& b,
                      const std::string& label) {
    EXPECT_EQ(bank_bytes(a.bank), bank_bytes(b.bank)) << label;
    EXPECT_EQ(a.max_abs_t, b.max_abs_t) << label;
    EXPECT_EQ(a.argmax, b.argmax) << label;
    EXPECT_EQ(a.attribution, b.attribution) << label;
}

TEST_P(TraceCampaignTest, ScalarEqualsEveryLaneWidthAndWorkerCount) {
    const TraceCampaignResult scalar = run(/*lanes=*/1, /*workers=*/1);
    ASSERT_EQ(scalar.progress.completed_traces, kTraces);
    EXPECT_EQ(scalar.bank.count(true) + scalar.bank.count(false),
              static_cast<double>(kTraces));
    EXPECT_GT(scalar.max_abs_t[2], 4.5);  // not vacuous
    EXPECT_EQ(scalar.attribution.enabled, GetParam());
    EXPECT_EQ(scalar.attribution.ranked.empty(), !GetParam());

    expect_identical(scalar, run(64, 1), "64 lanes");
    expect_identical(scalar, run(512, 1), "512 lanes");
    expect_identical(scalar, run(64, 3), "64 lanes, 3 workers");
}

TEST_P(TraceCampaignTest, CancelledAtBlockTwoThenResumedEqualsUninterrupted) {
    const std::string path = ::testing::TempDir() + "glitchmask_toy_xor_" +
                             std::to_string(GetParam()) + ".gmsnap";
    std::remove(path.c_str());
    const TraceCampaignResult baseline = run(64, 1);

    CancelToken token;
    CampaignRunOptions cancelled;
    cancelled.checkpoint_path = path;
    cancelled.checkpoint_every = 1;
    cancelled.cancel = &token;
    cancelled.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 2) token.request();
    };
    // One worker: the first wave is blocks 0-1, so the cancel lands there.
    const TraceCampaignResult partial = run(64, 1, cancelled);
    EXPECT_TRUE(partial.progress.cancelled);
    EXPECT_EQ(partial.progress.completed_traces, 2 * kBlockSize);

    CampaignRunOptions resume;
    resume.checkpoint_path = path;
    const TraceCampaignResult resumed = run(/*lanes=*/1, /*workers=*/3, resume);
    EXPECT_TRUE(resumed.progress.resumed);
    EXPECT_FALSE(resumed.progress.cancelled);
    EXPECT_EQ(resumed.progress.completed_traces, kTraces);
    expect_identical(baseline, resumed, "resumed");
    std::remove(path.c_str());
}

// The fixed reduction shape, pinned.  13 blocks leave a merge frontier
// spanning 8 + 4 + 1 blocks, which the runner folds right to left,
// 8 + (4 + 1), reproducing the pairwise tree over block indices.  Every
// equality test above compares two runs of the same runner, so a change to
// that shape would pass them all; these literals were recorded before the
// runner became the only one.
TEST(TraceCampaignReductionShape, ThirteenBlockFoldIsPinned) {
    constexpr std::size_t kPinBlock = 64;
    constexpr std::size_t kPinTraces = 12 * kPinBlock + 40;  // 13 blocks
    const ToyXor toy;
    const sim::DelayModel dm(toy.nl, placement_delay_config(7));
    for (const unsigned workers : {1u, 3u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        ThreadPool pool(workers);
        const TraceCampaignResult result = run_trace_campaign(
            toy_workload(toy, dm, /*seed=*/5, kPinTraces, kPinBlock),
            {kPinTraces, kPinBlock, /*seed=*/5, /*lanes=*/64}, {}, pool);
        ASSERT_EQ(result.progress.completed_blocks, 13u);
        std::uint64_t hash = kFnvOffset;
        for (const std::uint8_t byte : bank_bytes(result.bank)) {
            hash ^= byte;
            hash *= 0x100000001B3ULL;
        }
        EXPECT_EQ(hash, 0x5bb8812708fa3443ull);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(result.max_abs_t[1]),
                  0x3fe25d697766b74bull);  // 0.57390282936624
        EXPECT_EQ(std::bit_cast<std::uint64_t>(result.max_abs_t[2]),
                  0x4032172fa2e81d8dull);  // 18.0905706230820
    }
}

// ----- checkpoint history ---------------------------------------------------

/// The run report's checkpoint_blocks lists the marks of snapshot writes
/// that landed -- not the wave boundaries on_checkpoint sees.
class CheckpointHistoryTest : public ::testing::Test {
protected:
    CheckpointHistoryTest() : dm_(toy_.nl, placement_delay_config(7)) {}
    ~CheckpointHistoryTest() override {
        fault::clear();
        std::remove(snapshot_.c_str());
        std::remove(report_.c_str());
    }

    /// One worker, `blocks` blocks of 20 traces; writes a report and
    /// returns it with the run's progress.
    std::pair<CampaignProgress, RunReport> run(std::size_t blocks,
                                               CampaignRunOptions options) {
        const std::size_t traces = blocks * 20;
        options.report_path = report_;
        ThreadPool pool(1);
        TraceCampaignResult result = run_trace_campaign(
            toy_workload(toy_, dm_, /*seed=*/3, traces, 20),
            {traces, 20, /*seed=*/3, /*lanes=*/64}, options, pool);
        std::optional<RunReport> report = read_run_report(report_);
        EXPECT_TRUE(report.has_value());
        return {std::move(result.progress), report.value_or(RunReport{})};
    }

    ToyXor toy_;
    sim::DelayModel dm_;
    std::string snapshot_ = ::testing::TempDir() + "glitchmask_history.gmsnap";
    std::string report_ =
        ::testing::TempDir() + "glitchmask_history.report.json";
};

TEST_F(CheckpointHistoryTest, NoSnapshotPathRecordsNoMarks) {
    ::unsetenv("GLITCHMASK_CHECKPOINT_DIR");
    std::vector<std::size_t> waves;
    CampaignRunOptions options;
    options.on_checkpoint = [&waves](std::size_t blocks) {
        waves.push_back(blocks);
    };
    const auto [progress, report] = run(40, options);
    // The hook still fires after every wave of the default 16-block cadence.
    EXPECT_EQ(waves, (std::vector<std::size_t>{16, 32, 40}));
    EXPECT_TRUE(progress.checkpoint_blocks.empty());
    EXPECT_TRUE(report.progress.checkpoint_blocks.empty());
    EXPECT_EQ(report.counters
                  .histogram(telemetry::Histogram::kCheckpointWriteNanos)
                  .count,
              0u);
}

TEST_F(CheckpointHistoryTest, OneMarkPerSnapshotWrite) {
    CampaignRunOptions options;
    options.checkpoint_path = snapshot_;
    options.checkpoint_every = 4;
    const auto [progress, report] = run(16, options);
    const std::vector<std::uint64_t> marks{4, 8, 12, 16};
    EXPECT_EQ(progress.checkpoint_blocks, marks);
    EXPECT_EQ(report.progress.checkpoint_blocks, marks);
    EXPECT_EQ(report.counters
                  .histogram(telemetry::Histogram::kCheckpointWriteNanos)
                  .count,
              marks.size());
}

TEST_F(CheckpointHistoryTest, NoMarksAfterWritesDegrade) {
    // The first snapshot lands and the second hits a full disk; the run
    // then writes no further snapshot (the report write succeeds).
    fault::install(
        fault::parse_fault_plan("atomic_file.fsync=enospc@after=1,count=1"));
    CampaignRunOptions options;
    options.checkpoint_path = snapshot_;
    options.checkpoint_every = 4;
    options.degrade_on_io_error = true;
    const auto [progress, report] = run(16, options);
    EXPECT_TRUE(progress.checkpoint_degraded);
    EXPECT_EQ(progress.completed_blocks, 16u);
    EXPECT_EQ(progress.checkpoint_blocks, (std::vector<std::uint64_t>{4}));
    EXPECT_EQ(report.progress.checkpoint_blocks, (std::vector<std::uint64_t>{4}));
    EXPECT_EQ(report.counters
                  .histogram(telemetry::Histogram::kCheckpointWriteNanos)
                  .count,
              1u);
}

INSTANTIATE_TEST_SUITE_P(Attribution, TraceCampaignTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return info.param ? "On" : "Off";
                         });

}  // namespace
}  // namespace glitchmask::eval
