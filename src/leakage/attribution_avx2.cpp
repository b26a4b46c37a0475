// AVX2-level window fold of the batch attribution probe: the shared
// kernel body (leakage/plane_fold_impl.h) compiled with -mavx2, which
// turns every popcount into one POPCNT instruction.
#include "leakage/attribution.hpp"

#if defined(GLITCHMASK_HAVE_AVX2)

#include "leakage/plane_fold_impl.h"

namespace glitchmask::leakage::plane_kernels {

void fold_planes_avx2(std::uint64_t* planes, std::uint64_t* touched,
                      std::size_t words, std::uint64_t fixed_lanes,
                      std::uint64_t random_lanes, std::uint32_t* block) {
    fold_planes_impl(planes, touched, words, fixed_lanes, random_lanes, block);
}

}  // namespace glitchmask::leakage::plane_kernels

#endif  // GLITCHMASK_HAVE_AVX2
