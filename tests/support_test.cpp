#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "support/bits.hpp"
#include "support/csv.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/runenv.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace glitchmask {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
    Xoshiro256 a(42);
    Xoshiro256 b(42);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
    Xoshiro256 a(1);
    Xoshiro256 b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += (a() == b());
    EXPECT_LT(equal, 2);
}

TEST(Rng, BitIsRoughlyBalanced) {
    Xoshiro256 rng(7);
    int ones = 0;
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) ones += rng.bit();
    EXPECT_NEAR(static_cast<double>(ones) / kDraws, 0.5, 0.01);
}

TEST(Rng, BitsStayInRange) {
    Xoshiro256 rng(9);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.bits(4), 16u);
        EXPECT_LT(rng.bits(1), 2u);
    }
    EXPECT_EQ(rng.bits(0), 0u);
}

TEST(Rng, UniformInUnitInterval) {
    Xoshiro256 rng(11);
    double sum = 0.0;
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
    Xoshiro256 rng(13);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.below(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, GaussianMomentsMatch) {
    Xoshiro256 rng(17);
    double sum = 0.0;
    double sum_sq = 0.0;
    constexpr int kDraws = 200000;
    for (int i = 0; i < kDraws; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(Rng, GaussianScaling) {
    Xoshiro256 rng(19);
    double sum = 0.0;
    constexpr int kDraws = 50000;
    for (int i = 0; i < kDraws; ++i) sum += rng.gaussian(3.0, 0.5);
    EXPECT_NEAR(sum / kDraws, 3.0, 0.02);
}

TEST(Rng, Mix64AvoidsTrivialCollisions) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(mix64(1, i));
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(Bits, BasicOps) {
    EXPECT_TRUE(bit_of(0b100, 2));
    EXPECT_FALSE(bit_of(0b100, 1));
    EXPECT_EQ(with_bit(0, 3, true), 8u);
    EXPECT_EQ(with_bit(0xF, 0, false), 0xEu);
    EXPECT_TRUE(parity(0b111));
    EXPECT_FALSE(parity(0b110011));
    EXPECT_EQ(hamming_weight(0xFF), 8);
    EXPECT_EQ(hamming_distance(0b1010, 0b0110), 2);
}

TEST(Bits, Popcount64) {
    EXPECT_EQ(popcount64(0), 0);
    EXPECT_EQ(popcount64(~std::uint64_t{0}), 64);
    EXPECT_EQ(popcount64(0x8000000000000001ULL), 2);
    Xoshiro256 rng(31);
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t w = rng();
        int naive = 0;
        for (unsigned b = 0; b < 64; ++b) naive += bit_of(w, b);
        EXPECT_EQ(popcount64(w), naive);
    }
}

TEST(Bits, RotlBits) {
    EXPECT_EQ(rotl_bits(0b0001, 4, 1), 0b0010u);
    EXPECT_EQ(rotl_bits(0b1000, 4, 1), 0b0001u);
    EXPECT_EQ(rotl_bits(0x0FFFFFFF, 28, 28), 0x0FFFFFFFu);
    // DES key-schedule style: rotate 28-bit halves by 2.
    EXPECT_EQ(rotl_bits(0x8000001, 28, 2), 0x6u);
}

TEST(Csv, WritesHeaderAndRows) {
    const std::string path = ::testing::TempDir() + "glitchmask_csv_test.csv";
    {
        CsvWriter csv(path, {"a", "b"});
        csv.row({1.0, 2.5});
        csv.raw_row({"x", "y"});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2.5");
    std::getline(in, line);
    EXPECT_EQ(line, "x,y");
    std::remove(path.c_str());
}

TEST(Env, FallbacksAndParsing) {
    EXPECT_EQ(env_int("GLITCHMASK_SURELY_UNSET_VAR", 123), 123);
    EXPECT_DOUBLE_EQ(env_double("GLITCHMASK_SURELY_UNSET_VAR", 1.5), 1.5);
    ::setenv("GLITCHMASK_TEST_VAR", "77", 1);
    EXPECT_EQ(env_int("GLITCHMASK_TEST_VAR", 0), 77);
    ::setenv("GLITCHMASK_TEST_VAR", "2.25", 1);
    EXPECT_DOUBLE_EQ(env_double("GLITCHMASK_TEST_VAR", 0.0), 2.25);
    ::setenv("GLITCHMASK_TEST_VAR", "notanumber", 1);
    EXPECT_EQ(env_int("GLITCHMASK_TEST_VAR", 5), 5);
    ::unsetenv("GLITCHMASK_TEST_VAR");
}

TEST(Table, AlignsColumns) {
    TablePrinter table({"Name", "GE"});
    table.add_row({"secAND2-FF", "15180"});
    table.add_row({"x", "1"});
    const std::string out = table.str();
    EXPECT_NE(out.find("Name"), std::string::npos);
    EXPECT_NE(out.find("secAND2-FF"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, NumberFormatting) {
    EXPECT_EQ(TablePrinter::num(1.2345, 2), "1.23");
    EXPECT_EQ(TablePrinter::integer(15180), "15180");
}

TEST(ThreadPool, RunsEveryTask) {
    ThreadPool pool(4);
    TaskGroup group(pool);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; ++i)
        group.run([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
    group.wait();
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, WorkerIdsAreValidAndOwn) {
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_EQ(pool.current_worker(), -1);  // caller is not a pool thread
    TaskGroup group(pool);
    std::atomic<int> bad{0};
    for (int i = 0; i < 64; ++i)
        group.run([&] {
            const int id = pool.current_worker();
            if (id < 0 || id >= 3) bad.fetch_add(1);
        });
    group.wait();
    EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, NestedSubmitsFromWorkersComplete) {
    ThreadPool pool(2);
    TaskGroup group(pool);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i)
        group.run([&] {
            // Tasks submitted from a worker land on its own deque and may
            // be stolen; all must still be tracked by the group.
            group.run([&] { count.fetch_add(1); });
        });
    group.wait();
    EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, TaskGroupPropagatesFirstException) {
    ThreadPool pool(2);
    TaskGroup group(pool);
    std::atomic<int> completed{0};
    for (int i = 0; i < 16; ++i)
        group.run([&, i] {
            if (i == 5) throw std::runtime_error("boom");
            completed.fetch_add(1);
        });
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(completed.load(), 15);  // the other tasks still ran
}

TEST(ThreadPool, DefaultWorkerCountHonoursEnv) {
    ::setenv("GLITCHMASK_WORKERS", "3", 1);
    EXPECT_EQ(ThreadPool::default_worker_count(), 3u);
    ::unsetenv("GLITCHMASK_WORKERS");
    EXPECT_GE(ThreadPool::default_worker_count(), 1u);
}

TEST(RunEnv, GitRevisionIsTheBuildStampWhereverItRuns) {
    ::setenv("GLITCHMASK_GIT_REVISION", "pinned", 1);
    EXPECT_EQ(git_revision(), "pinned");
    ::unsetenv("GLITCHMASK_GIT_REVISION");

    // "" from a build outside a checkout, else HEAD's 40 hex digits with
    // "-dirty" for an uncommitted tree.
    const std::string stamp = git_revision();
    if (!stamp.empty()) {
        ASSERT_GE(stamp.size(), 40u);
        for (std::size_t i = 0; i < 40; ++i)
            EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(stamp[i])))
                << stamp;
        const std::string suffix = stamp.substr(40);
        EXPECT_TRUE(suffix.empty() || suffix == "-dirty") << stamp;
    }

    // The working directory plays no part.
    char cwd[4096] = {};
    ASSERT_NE(::getcwd(cwd, sizeof cwd), nullptr);
    ASSERT_EQ(::chdir("/"), 0);
    const std::string from_root = git_revision();
    ASSERT_EQ(::chdir(cwd), 0);
    EXPECT_EQ(from_root, stamp);
}

}  // namespace
}  // namespace glitchmask
