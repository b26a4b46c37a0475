// AVX2 moment-bank fold: the Pebay single-point increment of
// fold_row_scalar applied to four sample points per vector.
//
// Bit-identity discipline (support/simd.hpp): each point's accumulator
// is independent, the scalar coefficients (n, n1, binomials, the
// correction tails) are broadcast, and every per-point operation is
// performed in the scalar kernel's order -- the ipow chains are the same
// left-to-right multiply sequences, negation is a sign-bit flip (exact),
// and there are no horizontal operations.  Compiled with -mavx2
// -ffp-contract=off (src/CMakeLists.txt) so no mul+add pair can fuse
// into an FMA behind our back; the tail loop reuses the scalar kernel.
#include "leakage/moment_bank.hpp"

#if defined(GLITCHMASK_HAVE_AVX2)

#include <immintrin.h>

namespace glitchmask::leakage::bank_kernels {

namespace {

/// ipow as the identical multiply chain, four points wide.
[[nodiscard]] inline __m256d ipow_pd(__m256d base, int exponent) noexcept {
    __m256d result = _mm256_set1_pd(1.0);
    for (int i = 0; i < exponent; ++i) result = _mm256_mul_pd(result, base);
    return result;
}

}  // namespace

void fold_row_avx2(double* mean, double* sums, std::size_t points,
                   std::size_t stride, int max_order, double n1, double n,
                   const double* row) {
    const std::size_t main = points & ~std::size_t{3};
    const __m256d vn = _mm256_set1_pd(n);
    if (n1 == 0.0) {
        std::size_t i = 0;
        for (; i < main; i += 4) {
            const __m256d m = _mm256_loadu_pd(mean + i);
            const __m256d delta = _mm256_sub_pd(_mm256_loadu_pd(row + i), m);
            const __m256d delta_n = _mm256_div_pd(delta, vn);
            _mm256_storeu_pd(mean + i, _mm256_add_pd(m, delta_n));
        }
        if (i < points)
            fold_row_scalar(mean + i, sums + i, points - i, stride, max_order,
                            n1, n, row + i);
        return;
    }

    const FoldCoefficients c = fold_coefficients(max_order, n1);
    const __m256d vn1 = _mm256_set1_pd(n1);
    const __m256d sign = _mm256_set1_pd(-0.0);
    std::size_t i = 0;
    for (; i < main; i += 4) {
        const __m256d x = _mm256_loadu_pd(row + i);
        const __m256d m = _mm256_loadu_pd(mean + i);
        const __m256d delta = _mm256_sub_pd(x, m);
        const __m256d delta_n = _mm256_div_pd(delta, vn);
        _mm256_storeu_pd(mean + i, _mm256_add_pd(m, delta_n));
        // -delta_n via sign-bit xor: exact negation, unlike 0.0 - x.
        const __m256d neg_delta_n = _mm256_xor_pd(delta_n, sign);
        const __m256d term =
            _mm256_div_pd(_mm256_mul_pd(vn1, delta), vn);
        for (int p = max_order; p >= 2; --p) {
            double* prow = sums + static_cast<std::size_t>(p) * stride + i;
            __m256d update = _mm256_loadu_pd(prow);
            for (int k = 1; k <= p - 2; ++k) {
                const double* krow =
                    sums + static_cast<std::size_t>(p - k) * stride + i;
                // binom * sums * ipow, left to right as in the scalar form.
                const __m256d product = _mm256_mul_pd(
                    _mm256_mul_pd(_mm256_set1_pd(c.binom[p][k]),
                                  _mm256_loadu_pd(krow)),
                    ipow_pd(neg_delta_n, k));
                update = _mm256_add_pd(update, product);
            }
            update = _mm256_add_pd(
                update,
                _mm256_mul_pd(ipow_pd(term, p), _mm256_set1_pd(c.tail[p])));
            _mm256_storeu_pd(prow, update);
        }
    }
    if (i < points)
        fold_row_scalar(mean + i, sums + i, points - i, stride, max_order, n1,
                        n, row + i);
}

}  // namespace glitchmask::leakage::bank_kernels

#endif  // GLITCHMASK_HAVE_AVX2
