// AVX-512 moment-bank fold: the Pebay single-point increment of
// fold_row_scalar applied to eight sample points per vector.
//
// The operation sequence per point is fold_row_avx2's (see there and
// support/simd.hpp): broadcast coefficients, the same left-to-right
// multiply chains, sign-bit negation, no horizontal operations.  The
// last vector of a row is masked instead of handed to the scalar kernel,
// so a 5- or 6-bin row is one vector per plane.  Masked-off elements are
// neither read nor written.  Compiled with -mavx512f -mavx512dq
// -ffp-contract=off (src/CMakeLists.txt).
#include "leakage/moment_bank.hpp"

#if defined(GLITCHMASK_HAVE_AVX512)

#include <immintrin.h>

namespace glitchmask::leakage::bank_kernels {

namespace {

/// ipow as the identical multiply chain, eight points wide.
[[nodiscard]] inline __m512d ipow_pd(__m512d base, int exponent) noexcept {
    __m512d result = _mm512_set1_pd(1.0);
    for (int i = 0; i < exponent; ++i) result = _mm512_mul_pd(result, base);
    return result;
}

}  // namespace

void fold_row_avx512(double* mean, double* sums, std::size_t points,
                     std::size_t stride, int max_order, double n1, double n,
                     const double* row) {
    const __m512d vn = _mm512_set1_pd(n);
    const __m512d vn1 = _mm512_set1_pd(n1);
    const __m512d sign = _mm512_set1_pd(-0.0);
    const bool first = n1 == 0.0;
    const FoldCoefficients c =
        first ? FoldCoefficients{} : fold_coefficients(max_order, n1);
    for (std::size_t i = 0; i < points; i += 8) {
        const std::size_t left = points - i;
        const __mmask8 m = left >= 8
                               ? __mmask8{0xff}
                               : static_cast<__mmask8>((1u << left) - 1u);
        const __m512d x = _mm512_maskz_loadu_pd(m, row + i);
        const __m512d old_mean = _mm512_maskz_loadu_pd(m, mean + i);
        const __m512d delta = _mm512_sub_pd(x, old_mean);
        const __m512d delta_n = _mm512_div_pd(delta, vn);
        _mm512_mask_storeu_pd(mean + i, m, _mm512_add_pd(old_mean, delta_n));
        // First trace of the class: central sums stay zero.
        if (first) continue;
        // -delta_n via sign-bit xor: exact negation, unlike 0.0 - x.
        const __m512d neg_delta_n = _mm512_xor_pd(delta_n, sign);
        const __m512d term = _mm512_div_pd(_mm512_mul_pd(vn1, delta), vn);
        for (int p = max_order; p >= 2; --p) {
            double* prow = sums + static_cast<std::size_t>(p) * stride + i;
            __m512d update = _mm512_maskz_loadu_pd(m, prow);
            for (int k = 1; k <= p - 2; ++k) {
                const double* krow =
                    sums + static_cast<std::size_t>(p - k) * stride + i;
                // binom * sums * ipow, left to right as in the scalar form.
                const __m512d product = _mm512_mul_pd(
                    _mm512_mul_pd(_mm512_set1_pd(c.binom[p][k]),
                                  _mm512_maskz_loadu_pd(m, krow)),
                    ipow_pd(neg_delta_n, k));
                update = _mm512_add_pd(update, product);
            }
            update = _mm512_add_pd(
                update,
                _mm512_mul_pd(ipow_pd(term, p), _mm512_set1_pd(c.tail[p])));
            _mm512_mask_storeu_pd(prow, m, update);
        }
    }
}

}  // namespace glitchmask::leakage::bank_kernels

#endif  // GLITCHMASK_HAVE_AVX512
