#include "support/simd.hpp"

#include <string>

#include "support/env.hpp"
#include "support/log.hpp"

namespace glitchmask::support {

namespace {

SimdLevel detect_level() {
    SimdLevel cpu = SimdLevel::kScalar;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) cpu = SimdLevel::kAvx2;
    // The AVX-512 kernels use DQ instructions (vpmullq, vcvtuqq2pd,
    // vpmovq2m); an F-only CPU stays on the AVX2 level.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq"))
        cpu = SimdLevel::kAvx512;
#endif
    const std::string req = env_string("GLITCHMASK_SIMD", "auto");
    SimdLevel capped = cpu;
    if (req == "off" || req == "scalar") {
        capped = SimdLevel::kScalar;
    } else if (req == "avx2") {
        capped = cpu < SimdLevel::kAvx2 ? cpu : SimdLevel::kAvx2;
    } else if (req == "avx512" || req == "auto") {
        capped = cpu;
    } else {
        log::warn("unknown GLITCHMASK_SIMD value '" + req + "', using auto");
    }
    return capped;
}

}  // namespace

SimdLevel active_simd_level() noexcept {
    static const SimdLevel level = detect_level();
    return level;
}

const char* simd_level_name(SimdLevel level) noexcept {
    switch (level) {
        case SimdLevel::kAvx512:
            return "avx512";
        case SimdLevel::kAvx2:
            return "avx2";
        default:
            return "scalar";
    }
}

}  // namespace glitchmask::support
