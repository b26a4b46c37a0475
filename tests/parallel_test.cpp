// Determinism contract of the sharded campaign engine: a campaign's
// statistics are a pure function of (seed, traces, block size) -- the
// worker count must not show up in a single result bit.  These tests run
// the same campaigns at 1, 2 and 4 workers and compare with exact double
// equality (EXPECT_EQ, not EXPECT_NEAR: "close" would hide a broken merge
// tree or a shared RNG stream).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "des/masked_des.hpp"
#include "eval/campaign.hpp"
#include "eval/des_experiments.hpp"
#include "eval/parallel_campaign.hpp"

namespace glitchmask::eval {
namespace {

TEST(ShardPlan, CoversBudgetWithFixedBlocks) {
    const ShardPlan plan{130, 64};
    EXPECT_EQ(plan.blocks(), 3u);
    EXPECT_EQ(plan.block_begin(0), 0u);
    EXPECT_EQ(plan.block_end(0), 64u);
    EXPECT_EQ(plan.block_begin(2), 128u);
    EXPECT_EQ(plan.block_end(2), 130u);  // short tail block
    EXPECT_EQ(ShardPlan{0}.blocks(), 0u);
}

TEST(TraceRng, StreamsAreDecorrelatedPerTraceAndPurpose) {
    Xoshiro256 a = trace_rng(1, kStimulusStream, 0);
    Xoshiro256 a2 = trace_rng(1, kStimulusStream, 0);
    Xoshiro256 b = trace_rng(1, kStimulusStream, 1);
    Xoshiro256 c = trace_rng(1, kNoiseStream, 0);
    EXPECT_EQ(a(), a2());
    int equal_b = 0;
    int equal_c = 0;
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t va = a();
        equal_b += (va == b());
        equal_c += (va == c());
    }
    EXPECT_LT(equal_b, 2);
    EXPECT_LT(equal_c, 2);
}

TEST(ParallelCampaign, SequenceExperimentBitExactAcrossWorkerCounts) {
    SequenceExperimentConfig config;
    config.replicas = 4;
    config.traces = 600;
    config.noise_sigma = 0.5;
    config.seed = 42;
    const core::InputSequence sequence{core::ShareId::Y0, core::ShareId::X1,
                                       core::ShareId::Y1, core::ShareId::X0};

    config.workers = 1;
    const SequenceLeakResult serial = run_sequence_experiment(sequence, config);
    for (const unsigned workers : {2u, 4u}) {
        config.workers = workers;
        const SequenceLeakResult parallel =
            run_sequence_experiment(sequence, config);
        EXPECT_EQ(parallel.max_abs_t1, serial.max_abs_t1) << workers;
        EXPECT_EQ(parallel.max_abs_t2, serial.max_abs_t2) << workers;
        EXPECT_EQ(parallel.argmax_cycle, serial.argmax_cycle) << workers;
    }
}

TEST(ParallelCampaign, DesTvlaBitExactAcrossWorkerCounts) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    DesTvlaConfig config;
    config.traces = 60;
    config.seed = 9;
    config.block_size = 16;  // several blocks even at this tiny budget

    config.workers = 1;
    const DesTvlaResult serial = run_des_tvla(core, config);
    for (const unsigned workers : {2u, 4u}) {
        config.workers = workers;
        const DesTvlaResult parallel = run_des_tvla(core, config);
        for (int order = 1; order <= config.max_test_order; ++order) {
            EXPECT_EQ(parallel.max_abs_t[order], serial.max_abs_t[order])
                << "order " << order << " workers " << workers;
            EXPECT_EQ(parallel.argmax[order], serial.argmax[order])
                << "order " << order << " workers " << workers;
        }
        EXPECT_EQ(parallel.toggles, serial.toggles) << workers;
        // Full t-curves, not just the maxima.
        for (int order = 1; order <= config.max_test_order; ++order) {
            const std::vector<double> ts = serial.campaign.t_curve(order);
            const std::vector<double> tp = parallel.campaign.t_curve(order);
            ASSERT_EQ(ts.size(), tp.size());
            for (std::size_t i = 0; i < ts.size(); ++i)
                EXPECT_EQ(tp[i], ts[i]) << "order " << order << " sample " << i;
        }
    }
}

TEST(ParallelCampaign, MeanPowerTraceBitExactAcrossWorkerCounts) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::vector<double> serial =
        mean_power_trace(core, /*traces=*/48, /*seed=*/5, /*placement_seed=*/1,
                         /*workers=*/1).mean;
    for (const unsigned workers : {2u, 4u}) {
        const std::vector<double> parallel =
            mean_power_trace(core, 48, 5, 1, workers).mean;
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(parallel[i], serial[i]) << "sample " << i;
    }
}

TEST(BatchLanes, DesTvlaBitExactAcrossLaneConfigs) {
    // The bitsliced engine must reproduce the scalar campaign bit for bit:
    // full t-curves, argmaxima and the toggle count, with PRNG on and off,
    // including a partial final lane group (80 = 64 + 16).
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    DesTvlaConfig config;
    config.traces = 80;
    config.seed = 11;
    config.workers = 2;
    config.block_size = 64;

    for (const bool prng_on : {true, false}) {
        config.prng_on = prng_on;
        config.lanes = 1;
        const DesTvlaResult scalar = run_des_tvla(core, config);
        config.lanes = 64;
        const DesTvlaResult batch = run_des_tvla(core, config);
        EXPECT_EQ(batch.toggles, scalar.toggles) << "prng " << prng_on;
        for (int order = 1; order <= config.max_test_order; ++order) {
            EXPECT_EQ(batch.max_abs_t[order], scalar.max_abs_t[order])
                << "prng " << prng_on << " order " << order;
            EXPECT_EQ(batch.argmax[order], scalar.argmax[order])
                << "prng " << prng_on << " order " << order;
            const std::vector<double> ts = scalar.campaign.t_curve(order);
            const std::vector<double> tb = batch.campaign.t_curve(order);
            ASSERT_EQ(ts.size(), tb.size());
            for (std::size_t i = 0; i < ts.size(); ++i)
                EXPECT_EQ(tb[i], ts[i])
                    << "prng " << prng_on << " order " << order << " sample "
                    << i;
        }
    }
}

TEST(BatchLanes, TimingCouplingFallsBackToScalar) {
    // Data-dependent delays break the shared-schedule premise, so a
    // 64-lane request under timing coupling must silently run the scalar
    // engine -- and therefore reproduce the scalar goldens exactly.
    const des::MaskedDesCore core(des::MaskedDesOptions{
        .flavor = des::CoreFlavor::PD, .delayunit_luts = 10});
    DesTvlaConfig config;
    config.traces = 24;
    config.seed = 3;
    config.coupling.timing_enabled = true;

    config.lanes = 1;
    const DesTvlaResult scalar = run_des_tvla(core, config);
    for (const unsigned lanes : {0u, 64u}) {
        config.lanes = lanes;
        const DesTvlaResult fallback = run_des_tvla(core, config);
        EXPECT_EQ(fallback.toggles, scalar.toggles) << "lanes " << lanes;
        for (int order = 1; order <= config.max_test_order; ++order)
            EXPECT_EQ(fallback.max_abs_t[order], scalar.max_abs_t[order])
                << "lanes " << lanes << " order " << order;
    }
}

TEST(BatchLanes, MeanPowerTraceBitExactAcrossLaneConfigs) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::vector<double> scalar =
        mean_power_trace(core, /*traces=*/48, /*seed=*/5, /*placement_seed=*/1,
                         /*workers=*/2, /*lanes=*/1).mean;
    const std::vector<double> batch =
        mean_power_trace(core, 48, 5, 1, 2, 64).mean;
    ASSERT_EQ(batch.size(), scalar.size());
    for (std::size_t i = 0; i < scalar.size(); ++i)
        EXPECT_EQ(batch[i], scalar[i]) << "sample " << i;
}

TEST(ParallelCampaign, BlockSizeIsPartOfTheResultIdentity) {
    // Changing the block size changes the merge tree, which is allowed to
    // move the low bits -- but the statistics must stay equivalent.  This
    // documents the contract: bit-exactness is promised across *worker
    // counts*, not across block sizes.
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    DesTvlaConfig config;
    config.traces = 60;
    config.seed = 9;
    config.workers = 2;

    config.block_size = 16;
    const DesTvlaResult a = run_des_tvla(core, config);
    config.block_size = 60;
    const DesTvlaResult b = run_des_tvla(core, config);
    EXPECT_EQ(a.toggles, b.toggles);  // stimulus identical per trace
    for (int order = 1; order <= config.max_test_order; ++order)
        EXPECT_NEAR(a.max_abs_t[order], b.max_abs_t[order],
                    1e-6 * std::max(1.0, a.max_abs_t[order]))
            << "order " << order;
}

}  // namespace
}  // namespace glitchmask::eval
