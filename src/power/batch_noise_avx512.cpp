// AVX-512 chunk noise: the per-lane walk of
// BatchPowerRecorder::noisy_lane_trace_into for eight lanes per vector.
//
// Bit-identity discipline (support/simd.hpp): every lane keeps its own
// stream (Xoshiro256x8), its own rejection state and its own spare.  The
// spare state is the same on every lane -- each bin either starts a new
// polar pair on all lanes or takes the spare on all lanes -- so only the
// rejection loop needs a mask.  The uniform draws, u * u + v * v, the
// factor sqrt(-2.0 * log(s) / s) and sample + (0.0 + sigma * g) are the
// scalar expressions' IEEE operations in the same order; std::log is
// called per lane, since no vector log matches libm's rounding.
// Compiled with -mavx512f -mavx512dq -ffp-contract=off.
#include "power/batch_power.hpp"

#if defined(GLITCHMASK_HAVE_AVX512)

#include <immintrin.h>

#include <cmath>

#include "support/rng.hpp"

namespace glitchmask::power::kernels {

namespace {

/// One accepted polar pair per lane of `live`: u and v scaled by the
/// lane's factor (g for this bin, the spare for the next).
struct PolarPair {
    __m512d g;
    __m512d spare;
};

PolarPair polar_pair(Xoshiro256x8& rng, __mmask8 live) {
    __m512d u = _mm512_setzero_pd();
    __m512d v = _mm512_setzero_pd();
    __m512d s = _mm512_set1_pd(1.0);
    // do { u, v, s } while (s >= 1.0 || s == 0.0), per lane.
    for (__mmask8 need = live; need != 0;) {
        const __m512d du = rng.uniform_pm1(need);
        const __m512d dv = rng.uniform_pm1(need);
        const __m512d ds =
            _mm512_add_pd(_mm512_mul_pd(du, du), _mm512_mul_pd(dv, dv));
        u = _mm512_mask_mov_pd(u, need, du);
        v = _mm512_mask_mov_pd(v, need, dv);
        s = _mm512_mask_mov_pd(s, need, ds);
        const __mmask8 accepted =
            _mm512_mask_cmp_pd_mask(need, ds, _mm512_set1_pd(1.0), _CMP_LT_OQ) &
            _mm512_cmp_pd_mask(ds, _mm512_setzero_pd(), _CMP_NEQ_UQ);
        need = static_cast<__mmask8>(need & ~accepted);
    }
    alignas(64) double lanes[8];
    _mm512_store_pd(lanes, s);
    for (double& lane : lanes) lane = std::log(lane);  // dead lanes: log 1
    // All-lanes masked sqrt: the plain intrinsic trips GCC 12's
    // -Wmaybe-uninitialized in its own header.
    const __m512d factor = _mm512_maskz_sqrt_pd(0xff, _mm512_div_pd(
        _mm512_mul_pd(_mm512_set1_pd(-2.0), _mm512_load_pd(lanes)), s));
    return {_mm512_mul_pd(u, factor), _mm512_mul_pd(v, factor)};
}

}  // namespace

void noisy_rows_avx512(const double* trace, std::size_t bins, unsigned live,
                       std::uint64_t stream, std::uint64_t first, double sigma,
                       double* out) {
    const __m512d vsigma = _mm512_set1_pd(sigma);
    const __m512d zero = _mm512_setzero_pd();
    // Lane j of group g lands at out[(8g + j) * bins + bin].
    const __m512i row = _mm512_mullo_epi64(
        _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
        _mm512_set1_epi64(static_cast<long long>(bins)));
    for (unsigned g = 0; 8 * g < live; ++g) {
        const unsigned left = live - 8 * g;
        const __mmask8 mask =
            left >= 8 ? __mmask8{0xff}
                      : static_cast<__mmask8>((1u << left) - 1u);
        const double* column = trace + 8 * g;
        double* rows = out + std::size_t{8} * g * bins;
        if (!(sigma > 0.0)) {
            for (std::size_t bin = 0; bin < bins; ++bin)
                _mm512_mask_i64scatter_pd(
                    rows + bin, mask, row,
                    _mm512_loadu_pd(column + bin * sim::kBatchLanes), 8);
            continue;
        }
        Xoshiro256x8 rng(stream, first + 8 * g);
        PolarPair pair{zero, zero};
        for (std::size_t bin = 0; bin < bins; ++bin) {
            __m512d g_bin;
            if (bin % 2 == 0) {
                pair = polar_pair(rng, mask);
                g_bin = pair.g;
            } else {
                g_bin = pair.spare;
            }
            const __m512d noise =
                _mm512_add_pd(zero, _mm512_mul_pd(vsigma, g_bin));
            const __m512d sample = _mm512_add_pd(
                _mm512_loadu_pd(column + bin * sim::kBatchLanes), noise);
            _mm512_mask_i64scatter_pd(rows + bin, mask, row, sample, 8);
        }
    }
}

}  // namespace glitchmask::power::kernels

#endif  // GLITCHMASK_HAVE_AVX512
