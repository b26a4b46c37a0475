// AVX-512F deposit kernels: 8 lanes per vector, native 8-bit masks taken
// straight from the toggle word.  A run's whole bin row (8 vectors) and
// lane counters (8 vectors) stay in registers from its first entry to
// its last, so an entry costs 16 masked adds and no memory traffic.
// Masked adds leave untouched lanes unchanged at element granularity,
// so bit-identity with the scalar walk is structural.  Compiled with
// -mavx512f -ffp-contract=off.
#include "power/deposit_kernels.hpp"

#if defined(GLITCHMASK_HAVE_AVX512)

#include <immintrin.h>

#include <bit>

namespace glitchmask::power::kernels {

std::uint64_t deposit_run_avx512(double* row, std::uint64_t* lane_toggles,
                                 const sim::ToggleEntry* entries,
                                 std::size_t n, const double* weight,
                                 const netlist::NetId* partner, double eps) {
    __m512d r[8];
    __m512i c[8];
#pragma GCC unroll 8
    for (unsigned g = 0; g < 8; ++g) {
        r[g] = _mm512_loadu_pd(row + 8 * g);
        c[g] = _mm512_loadu_si512(lane_toggles + 8 * g);
    }
    const __m512i one = _mm512_set1_epi64(1);
    const __m512d pos = _mm512_set1_pd(eps);
    const __m512d neg = _mm512_set1_pd(-eps);
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const sim::ToggleEntry& e = entries[k];
        const std::uint64_t toggled = e.toggled;
        total += static_cast<std::uint64_t>(std::popcount(toggled));
        const __m512d w = _mm512_set1_pd(weight[e.net]);
        if (partner != nullptr && partner[e.net] != netlist::kNoNet) {
            const std::uint64_t opposite = e.partner ^ e.values;
#pragma GCC unroll 8
            for (unsigned g = 0; g < 8; ++g) {
                const __mmask8 m = static_cast<__mmask8>(toggled >> (8 * g));
                const __mmask8 om = static_cast<__mmask8>(opposite >> (8 * g));
                // weight + (+-eps) first, then the deposit add: two double
                // adds per lane in the scalar expression's order.
                const __m512d addend =
                    _mm512_add_pd(w, _mm512_mask_blend_pd(om, neg, pos));
                r[g] = _mm512_mask_add_pd(r[g], m, r[g], addend);
                c[g] = _mm512_mask_add_epi64(c[g], m, c[g], one);
            }
        } else {
#pragma GCC unroll 8
            for (unsigned g = 0; g < 8; ++g) {
                const __mmask8 m = static_cast<__mmask8>(toggled >> (8 * g));
                r[g] = _mm512_mask_add_pd(r[g], m, r[g], w);
                c[g] = _mm512_mask_add_epi64(c[g], m, c[g], one);
            }
        }
    }
#pragma GCC unroll 8
    for (unsigned g = 0; g < 8; ++g) {
        _mm512_storeu_pd(row + 8 * g, r[g]);
        _mm512_storeu_si512(lane_toggles + 8 * g, c[g]);
    }
    return total;
}

std::uint64_t count_run_avx512(std::uint64_t* lane_toggles,
                               const sim::ToggleEntry* entries, std::size_t n) {
    __m512i c[8];
#pragma GCC unroll 8
    for (unsigned g = 0; g < 8; ++g)
        c[g] = _mm512_loadu_si512(lane_toggles + 8 * g);
    const __m512i one = _mm512_set1_epi64(1);
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const std::uint64_t toggled = entries[k].toggled;
        total += static_cast<std::uint64_t>(std::popcount(toggled));
#pragma GCC unroll 8
        for (unsigned g = 0; g < 8; ++g)
            c[g] = _mm512_mask_add_epi64(
                c[g], static_cast<__mmask8>(toggled >> (8 * g)), c[g], one);
    }
#pragma GCC unroll 8
    for (unsigned g = 0; g < 8; ++g)
        _mm512_storeu_si512(lane_toggles + 8 * g, c[g]);
    return total;
}

}  // namespace glitchmask::power::kernels

#endif  // GLITCHMASK_HAVE_AVX512
