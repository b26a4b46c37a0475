#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "eval/gadget_tvla.hpp"
#include "leakage/moment_bank.hpp"
#include "leakage/snr.hpp"
#include "leakage/ttest.hpp"
#include "leakage/tvla.hpp"
#include "support/campaign_error.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/snapshot.hpp"

namespace glitchmask::leakage {
namespace {

std::vector<double> random_row(Xoshiro256& rng, std::size_t points) {
    std::vector<double> row(points);
    for (double& x : row) x = rng.gaussian(1.5, 2.0);
    return row;
}

/// Feeds the same labelled random traces to a MomentBank and a
/// TvlaCampaign.  Point count deliberately not a multiple of 4 so the
/// AVX2 kernel exercises its scalar tail.
struct Pair {
    MomentBank bank;
    TvlaCampaign campaign;

    Pair(std::size_t points, int order)
        : bank(points, order), campaign(points, order) {}

    void feed(std::uint64_t seed, std::size_t traces) {
        Xoshiro256 rng(seed);
        for (std::size_t n = 0; n < traces; ++n) {
            const bool fixed = rng.bit();
            const std::vector<double> row = random_row(rng, bank.points());
            bank.add_trace(fixed, row.data());
            campaign.add_trace(fixed, row);
        }
    }
};

/// Exact (==) state comparison: counts, means, raw central sums and the
/// t statistics at every order.  The bank's contract is bit-identity
/// with the scalar accumulators, not closeness.
void expect_identical(const MomentBank& bank, const TvlaCampaign& campaign) {
    ASSERT_EQ(bank.points(), campaign.samples());
    for (std::size_t i = 0; i < bank.points(); ++i) {
        const UnivariateTTest& point = campaign.point(i);
        for (const bool cls : {true, false}) {
            const MomentAccumulator& acc = point.moments(cls);
            EXPECT_EQ(bank.count(cls), acc.count());
            EXPECT_EQ(bank.mean(cls, i), acc.mean()) << "point " << i;
            for (int p = 2; p <= acc.max_order(); ++p)
                EXPECT_EQ(bank.central_sum(cls, i, p), acc.raw_sums()[p])
                    << "point " << i << " order " << p;
        }
        for (int order = 1; order <= bank.max_test_order(); ++order)
            EXPECT_EQ(bank.t(i, order), point.t(order))
                << "point " << i << " order " << order;
    }
}

TEST(MomentBank, MatchesScalarAccumulatorsExactly) {
    for (const int order : {1, 2, 3}) {
        SCOPED_TRACE(order);
        Pair pair(23, order);
        pair.feed(7 + static_cast<std::uint64_t>(order), 400);
        expect_identical(pair.bank, pair.campaign);
        for (int d = 1; d <= order; ++d) {
            EXPECT_EQ(pair.bank.max_abs_t(d), pair.campaign.max_abs_t(d));
            EXPECT_EQ(pair.bank.t_curve(d), pair.campaign.t_curve(d));
            EXPECT_EQ(pair.bank.exceedances(d, 0.5),
                      pair.campaign.exceedances(d, 0.5));
        }
        std::size_t bank_argmax = 99;
        std::size_t campaign_argmax = 77;
        (void)pair.bank.max_abs_t(1, &bank_argmax);
        (void)pair.campaign.max_abs_t(1, &campaign_argmax);
        EXPECT_EQ(bank_argmax, campaign_argmax);
    }
}

TEST(MomentBank, FirstTraceAndSentinelsMatchTTest) {
    // Degenerate regimes: empty classes, a single trace per class
    // (Pebay's n1 == 0 branch), both must return the scalar sentinels.
    Pair pair(5, 3);
    for (int order = 1; order <= 3; ++order)
        EXPECT_EQ(pair.bank.t(0, order), pair.campaign.point(0).t(order));
    pair.feed(3, 1);
    expect_identical(pair.bank, pair.campaign);
    pair.feed(4, 2);
    expect_identical(pair.bank, pair.campaign);
}

TEST(MomentBank, VectorKernelsMatchScalarKernelExactly) {
    struct Level {
        const char* name;
        bank_kernels::FoldRowFn fn;
    };
    std::vector<Level> levels;
    const support::SimdLevel active = support::active_simd_level();
#if defined(GLITCHMASK_HAVE_AVX2)
    if (active >= support::SimdLevel::kAvx2)
        levels.push_back({"avx2", bank_kernels::fold_row_avx2});
#endif
#if defined(GLITCHMASK_HAVE_AVX512)
    if (active >= support::SimdLevel::kAvx512)
        levels.push_back({"avx512", bank_kernels::fold_row_avx512});
#endif
    if (levels.empty())
        GTEST_SKIP() << "no vector kernel at GLITCHMASK_SIMD="
                     << support::simd_level_name(active);
    // Drive each kernel and the scalar one through the same (n1, n)
    // sequence, from the class's first trace (n1 == 0) on, on identical
    // plane copies; every double must match bit for bit.  1..21 points
    // cover the AVX2 scalar tail and every AVX-512 mask.  The planes are
    // padded past `points` and the padding must stay untouched.
    for (const Level& level : levels) {
        for (std::size_t points = 1; points <= 21; ++points) {
            for (int order = 1; order <= 3; ++order) {
                const int max_order = 2 * order;
                const std::size_t stride = points + 5;
                std::vector<double> mean_s(stride, -7.0);
                std::vector<double> sums_s((max_order + 1) * stride, -7.0);
                for (std::size_t i = 0; i < points; ++i) {
                    mean_s[i] = 0.0;
                    for (int p = 0; p <= max_order; ++p)
                        sums_s[p * stride + i] = 0.0;
                }
                std::vector<double> mean_v = mean_s;
                std::vector<double> sums_v = sums_s;
                Xoshiro256 rng(1000 * points + static_cast<unsigned>(order));
                for (std::size_t n = 1; n <= 60; ++n) {
                    const std::vector<double> row = random_row(rng, stride);
                    const double n1 = static_cast<double>(n - 1);
                    const double nn = static_cast<double>(n);
                    bank_kernels::fold_row_scalar(mean_s.data(), sums_s.data(),
                                                  points, stride, max_order,
                                                  n1, nn, row.data());
                    level.fn(mean_v.data(), sums_v.data(), points, stride,
                             max_order, n1, nn, row.data());
                    // memcmp: == on the bits, so a -0.0 for 0.0 fails too.
                    ASSERT_EQ(std::memcmp(mean_s.data(), mean_v.data(),
                                          stride * sizeof(double)),
                              0)
                        << level.name << " points " << points << " order "
                        << order << " trace " << n;
                    ASSERT_EQ(std::memcmp(sums_s.data(), sums_v.data(),
                                          sums_s.size() * sizeof(double)),
                              0)
                        << level.name << " points " << points << " order "
                        << order << " trace " << n;
                }
            }
        }
    }
}

TEST(MomentBank, MergeMatchesCampaignMergeExactly) {
    // Split/merge must mirror the per-point accumulator merges: compare
    // the merged bank both against a merged campaign and against one
    // bank fed sequentially (merge order effects included).
    Pair left(17, 3);
    Pair right(17, 3);
    left.feed(101, 137);
    right.feed(202, 363);
    left.bank.merge(right.bank);
    left.campaign.merge(right.campaign);
    expect_identical(left.bank, left.campaign);

    // Merging into an empty bank copies; merging an empty is a no-op.
    MomentBank empty(17, 3);
    empty.merge(left.bank);
    expect_identical(empty, left.campaign);
    left.bank.merge(MomentBank(17, 3));
    expect_identical(left.bank, left.campaign);

    MomentBank mismatched(16, 3);
    EXPECT_THROW(left.bank.merge(mismatched), std::invalid_argument);
}

TEST(MomentBank, SnapshotIsByteIdenticalToCampaignAndRoundTrips) {
    Pair pair(13, 3);
    pair.feed(55, 250);

    // The wire format is TvlaCampaign's, byte for byte -- checkpoints
    // written by either representation resume into the other.
    SnapshotWriter bank_out;
    pair.bank.encode(bank_out);
    SnapshotWriter campaign_out;
    pair.campaign.encode(campaign_out);
    const std::vector<std::uint8_t> bank_bytes = std::move(bank_out).finish();
    const std::vector<std::uint8_t> campaign_bytes =
        std::move(campaign_out).finish();
    EXPECT_EQ(bank_bytes, campaign_bytes);

    SnapshotReader bank_in(bank_bytes);
    const MomentBank decoded = MomentBank::decode(bank_in);
    expect_identical(decoded, pair.campaign);

    SnapshotReader campaign_in(bank_bytes);
    const TvlaCampaign cross = TvlaCampaign::decode(campaign_in);
    expect_identical(pair.bank, cross);

    expect_identical(pair.bank, pair.bank.to_campaign());
    expect_identical(MomentBank::from_campaign(pair.campaign), pair.campaign);
}

TEST(MomentBank, DecodeRejectsCorruptSnapshots) {
    // The bank's extra structural invariant: every point must carry the
    // same test order and per-class count (TvlaCampaign can never write
    // anything else, so nonuniformity means corruption).
    const auto write_point = [](SnapshotWriter& out, std::uint32_t order,
                                std::uint32_t acc_order, double n) {
        out.u32(order);
        for (int cls = 0; cls < 2; ++cls) {
            out.u32(acc_order);
            out.f64(n);
            out.f64(0.25);  // mean
            for (std::uint32_t p = 0; p <= acc_order; ++p) out.f64(0.0);
        }
    };
    const auto expect_corrupt = [](SnapshotWriter&& out) {
        const std::vector<std::uint8_t> bytes = std::move(out).finish();
        SnapshotReader in(bytes);
        EXPECT_THROW((void)MomentBank::decode(in), CampaignError);
    };

    SnapshotWriter nonuniform_n;
    nonuniform_n.u64(2);
    write_point(nonuniform_n, 3, 6, 2.0);
    write_point(nonuniform_n, 3, 6, 3.0);
    expect_corrupt(std::move(nonuniform_n));

    SnapshotWriter nonuniform_order;
    nonuniform_order.u64(2);
    write_point(nonuniform_order, 3, 6, 2.0);
    write_point(nonuniform_order, 2, 4, 2.0);
    expect_corrupt(std::move(nonuniform_order));

    SnapshotWriter bad_acc_order;
    bad_acc_order.u64(1);
    write_point(bad_acc_order, 3, 4, 2.0);
    expect_corrupt(std::move(bad_acc_order));

    SnapshotWriter bad_order;
    bad_order.u64(1);
    write_point(bad_order, 9, 18, 2.0);
    expect_corrupt(std::move(bad_order));
}

TEST(MomentBank, SnrMatchesSnrAccumulator) {
    constexpr std::size_t kPoints = 9;
    MomentBank bank(kPoints, 1);
    std::vector<SnrAccumulator> snr;
    for (std::size_t i = 0; i < kPoints; ++i) snr.emplace_back(2);
    Xoshiro256 rng(61);
    for (std::size_t n = 0; n < 300; ++n) {
        const bool fixed = rng.bit();
        const std::vector<double> row = random_row(rng, kPoints);
        bank.add_trace(fixed, row.data());
        for (std::size_t i = 0; i < kPoints; ++i)
            snr[i].add(fixed ? 0 : 1, row[i]);
    }
    for (std::size_t i = 0; i < kPoints; ++i) {
        // Same formula over differently-streamed state (Welford M2 vs
        // Pebay central sums): equal to rounding, not necessarily to the
        // last bit.
        EXPECT_NEAR(bank.snr(i), snr[i].snr(), 1e-12)
            << "point " << i;
        EXPECT_GT(bank.snr(i), 0.0);
    }
}

TEST(MomentBank, GadgetTvlaIdenticalAcrossLaneWidths) {
    // End-to-end through the fused driver fold: the gadget campaign's
    // statistics must not depend on the lane width now that every path
    // streams rows into the bank.
    eval::GadgetTvlaConfig config;
    config.gadget = eval::GadgetKind::Ff;
    config.replicas = 2;
    config.traces = 320;
    config.noise_sigma = 0.5;
    config.seed = 17;
    config.workers = 1;
    config.block_size = 128;

    config.lanes = 1;
    const eval::GadgetTvlaResult scalar = eval::run_gadget_tvla(config);
    ASSERT_EQ(scalar.progress.completed_traces, config.traces);
    ASSERT_GT(scalar.max_abs_t1, 0.0);  // not vacuous

    for (const unsigned lanes : {64u, 256u, 512u}) {
        SCOPED_TRACE(std::to_string(lanes) + " lanes");
        config.lanes = lanes;
        const eval::GadgetTvlaResult wide = eval::run_gadget_tvla(config);
        EXPECT_EQ(scalar.max_abs_t1, wide.max_abs_t1);
        EXPECT_EQ(scalar.max_abs_t2, wide.max_abs_t2);
        EXPECT_EQ(scalar.argmax_cycle, wide.argmax_cycle);
    }
}

}  // namespace
}  // namespace glitchmask::leakage
