#include "power/deposit_kernels.hpp"

#include <bit>

#include "support/simd.hpp"

namespace glitchmask::power::kernels {

std::uint64_t deposit_run_scalar(double* row, std::uint64_t* lane_toggles,
                                 const sim::ToggleEntry* entries,
                                 std::size_t n, const double* weight,
                                 const netlist::NetId* partner, double eps) {
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const sim::ToggleEntry& e = entries[k];
        total += static_cast<std::uint64_t>(std::popcount(e.toggled));
        const double w = weight[e.net];
        if (partner != nullptr && partner[e.net] != netlist::kNoNet) {
            const std::uint64_t opposite = e.partner ^ e.values;
            for (std::uint64_t rest = e.toggled; rest != 0; rest &= rest - 1) {
                const unsigned lane =
                    static_cast<unsigned>(std::countr_zero(rest));
                ++lane_toggles[lane];
                row[lane] += w + (((opposite >> lane) & 1u) != 0 ? eps : -eps);
            }
        } else {
            for (std::uint64_t rest = e.toggled; rest != 0; rest &= rest - 1) {
                const unsigned lane =
                    static_cast<unsigned>(std::countr_zero(rest));
                ++lane_toggles[lane];
                row[lane] += w;
            }
        }
    }
    return total;
}

std::uint64_t count_run_scalar(std::uint64_t* lane_toggles,
                               const sim::ToggleEntry* entries, std::size_t n) {
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < n; ++k) {
        total += static_cast<std::uint64_t>(std::popcount(entries[k].toggled));
        for (std::uint64_t rest = entries[k].toggled; rest != 0;
             rest &= rest - 1)
            ++lane_toggles[std::countr_zero(rest)];
    }
    return total;
}

DepositKernels resolve_deposit_kernels() noexcept {
    const support::SimdLevel level = support::active_simd_level();
#if defined(GLITCHMASK_HAVE_AVX512)
    if (level >= support::SimdLevel::kAvx512)
        return {deposit_run_avx512, count_run_avx512};
#endif
#if defined(GLITCHMASK_HAVE_AVX2)
    if (level >= support::SimdLevel::kAvx2)
        return {deposit_run_avx2, count_run_avx2};
#endif
    (void)level;
    return {deposit_run_scalar, count_run_scalar};
}

}  // namespace glitchmask::power::kernels
