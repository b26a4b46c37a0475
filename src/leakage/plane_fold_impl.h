// Window fold of BatchAttributionProbe's bit-plane lane counters
// (leakage/attribution.hpp), shared by the portable kernel
// (leakage/attribution.cpp) and the AVX2 one
// (leakage/attribution_avx2.cpp).  The fold is popcount-bound, and the
// portable build has no POPCNT instruction -- std::popcount there is a
// libgcc call -- so the AVX2 translation unit (whose -mavx2 implies
// POPCNT) is worth a dispatch.  Integer-only, so every level is
// bit-identical by construction.  Internal linkage: each including TU
// compiles its own copy under its own ISA flags.
#pragma once

#include <cstddef>
#include <cstdint>

#include "leakage/attribution.hpp"

namespace glitchmask::leakage::plane_kernels {
namespace {

// Builtins rather than <bit> templates: a template instantiation is a
// weak symbol the linker may share between the two ISA builds.
[[nodiscard]] inline std::uint32_t ones(std::uint64_t word) noexcept {
    return static_cast<std::uint32_t>(__builtin_popcountll(word));
}

inline void fold_planes_impl(std::uint64_t* planes, std::uint64_t* touched,
                             std::size_t words, std::uint64_t fixed_lanes,
                             std::uint64_t random_lanes,
                             std::uint32_t* block) noexcept {
    const std::uint64_t lane_class[2] = {random_lanes, fixed_lanes};
    const std::uint64_t live = fixed_lanes | random_lanes;
    for (std::size_t word = 0; word < words; ++word) {
        for (std::uint64_t bits = touched[word]; bits != 0; bits &= bits - 1) {
            const std::size_t net =
                word * 64u + static_cast<unsigned>(__builtin_ctzll(bits));
            std::uint64_t* p = planes + net * std::size_t{kPlanes};
            if (block != nullptr) {
                std::uint32_t sums[2] = {0, 0};
                std::uint32_t sumsqs[2] = {0, 0};
                std::uint64_t any = p[0] | p[1];
                std::uint64_t high = 0;
                for (unsigned k = 2; k < kPlanes; ++k) high |= p[k];
                if (high == 0) {
                    // Every count <= 3 (the common case): c = b0 + 2 b1
                    // and c^2 = b0 + 4 b1 + 4 b0 b1.
                    for (unsigned cls = 0; cls < 2; ++cls) {
                        const std::uint64_t m = lane_class[cls];
                        const std::uint32_t n0 = ones(p[0] & m);
                        const std::uint32_t n1 = ones(p[1] & m);
                        const std::uint32_t n01 = ones(p[0] & p[1] & m);
                        sums[cls] = n0 + 2u * n1;
                        sumsqs[cls] = n0 + 4u * (n1 + n01);
                    }
                } else {
                    any |= high;
                    unsigned used = kPlanes;
                    while (p[used - 1] == 0) --used;
                    // Per class: sum c = sum_k 2^k |plane_k| and sum c^2 =
                    // sum_{j,k} 2^(j+k) |plane_j & plane_k| (off-diagonal
                    // pairs twice), |x| = lanes of the class set in x.
                    for (unsigned k = 0; k < used; ++k) {
                        for (unsigned cls = 0; cls < 2; ++cls) {
                            const std::uint64_t pk = p[k] & lane_class[cls];
                            const std::uint32_t n = ones(pk);
                            sums[cls] += n << k;
                            sumsqs[cls] += n << (2 * k);
                            for (unsigned j = 0; j < k; ++j)
                                sumsqs[cls] += ones(pk & p[j]) << (j + k + 1);
                        }
                    }
                }
                std::uint32_t* b = block + net * std::size_t{5};
                b[0] += sums[1];
                b[1] += sumsqs[1];
                b[2] += sums[0];
                b[3] += sumsqs[0];
                b[4] += ones(any & live);
            }
            for (unsigned k = 0; k < kPlanes; ++k) p[k] = 0;
        }
        touched[word] = 0;
    }
}

}  // namespace
}  // namespace glitchmask::leakage::plane_kernels
