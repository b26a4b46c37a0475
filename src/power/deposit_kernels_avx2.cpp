// AVX2 deposit kernels: 4 lanes per vector, 16 groups per 64-lane mask.
//
// Bit-identity discipline: toggled lanes get exactly one double add per
// entry in entry order (each lane is independent, so "order" is per-lane
// and trivially preserved); untouched lanes are rewritten with their
// original bit pattern via blendv, never recomputed.  Counter bumps
// subtract the all-ones lane mask (-1) from the counter vector.  Sixteen
// row and sixteen counter vectors exceed the register file, so the run's
// row and counters stay in L1 and each entry touches only its non-empty
// groups; sparse entries (a few glitching lanes) take the bit walk.
// Compiled with -mavx2 -ffp-contract=off (see deposit_kernels.hpp).
#include "power/deposit_kernels.hpp"

#if defined(GLITCHMASK_HAVE_AVX2)

#include <immintrin.h>

#include <bit>

namespace glitchmask::power::kernels {

namespace {

/// All-ones 64-bit element for every set bit of the low nibble of
/// `bits`: broadcast, AND with {1,2,4,8}, compare-equal.
inline __m256i nibble_mask(std::uint64_t bits) noexcept {
    const __m256i select = _mm256_set_epi64x(8, 4, 2, 1);
    const __m256i b = _mm256_set1_epi64x(static_cast<long long>(bits & 15u));
    return _mm256_cmpeq_epi64(_mm256_and_si256(b, select), select);
}

/// Below this many toggled lanes the bit walk beats 16 vector groups;
/// either form performs the same per-lane adds.
constexpr int kDenseCutover = 8;

inline void bump_counts(std::uint64_t* lane_toggles, unsigned g,
                        __m256i m) noexcept {
    auto* p = reinterpret_cast<__m256i*>(lane_toggles + 4 * g);
    _mm256_storeu_si256(p, _mm256_sub_epi64(_mm256_loadu_si256(p), m));
}

inline void add_masked(double* row, unsigned g, __m256i m,
                       __m256d addend) noexcept {
    const __m256d v = _mm256_loadu_pd(row + 4 * g);
    _mm256_storeu_pd(row + 4 * g,
                     _mm256_blendv_pd(v, _mm256_add_pd(v, addend),
                                      _mm256_castsi256_pd(m)));
}

}  // namespace

std::uint64_t deposit_run_avx2(double* row, std::uint64_t* lane_toggles,
                               const sim::ToggleEntry* entries, std::size_t n,
                               const double* weight,
                               const netlist::NetId* partner, double eps) {
    std::uint64_t total = 0;
    const __m256d pos = _mm256_set1_pd(eps);
    const __m256d neg = _mm256_set1_pd(-eps);
    for (std::size_t k = 0; k < n; ++k) {
        const sim::ToggleEntry& e = entries[k];
        const int count = std::popcount(e.toggled);
        if (count < kDenseCutover) {
            total += deposit_run_scalar(row, lane_toggles, &e, 1, weight,
                                        partner, eps);
            continue;
        }
        total += static_cast<std::uint64_t>(count);
        const bool coupled =
            partner != nullptr && partner[e.net] != netlist::kNoNet;
        const __m256d w = _mm256_set1_pd(weight[e.net]);
        const std::uint64_t opposite = e.partner ^ e.values;
        for (unsigned g = 0; g < 16; ++g) {
            const std::uint64_t bits = (e.toggled >> (4 * g)) & 15u;
            if (bits == 0) continue;
            const __m256i m = nibble_mask(bits);
            bump_counts(lane_toggles, g, m);
            // weight + (+-eps): one add, then the deposit add -- two
            // double adds per lane, same as the scalar expression.
            const __m256d addend =
                coupled ? _mm256_add_pd(
                              w, _mm256_blendv_pd(
                                     neg, pos,
                                     _mm256_castsi256_pd(nibble_mask(
                                         opposite >> (4 * g)))))
                        : w;
            add_masked(row, g, m, addend);
        }
    }
    return total;
}

std::uint64_t count_run_avx2(std::uint64_t* lane_toggles,
                             const sim::ToggleEntry* entries, std::size_t n) {
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const std::uint64_t toggled = entries[k].toggled;
        total += static_cast<std::uint64_t>(std::popcount(toggled));
        for (unsigned g = 0; g < 16; ++g) {
            const std::uint64_t bits = (toggled >> (4 * g)) & 15u;
            if (bits != 0) bump_counts(lane_toggles, g, nibble_mask(bits));
        }
    }
    return total;
}

}  // namespace glitchmask::power::kernels

#endif  // GLITCHMASK_HAVE_AVX2
