// Runtime SIMD dispatch for the hot numeric kernels.
//
// Every vector kernel in the tree (power deposit, moment-bank update,
// lane-word engine ops) exists in a portable scalar form plus optional
// AVX2/AVX-512 forms compiled in separate translation units with the
// matching -m flags (and -ffp-contract=off: the kernels must never let
// the compiler fuse a mul+add into an FMA, which would change results).
// The vector forms keep every accumulator's FP operation order identical
// to the scalar form -- vectorization is across *independent* lanes/bins
// only -- so dispatch level never changes a single output bit.  That
// invariant is what lets GLITCHMASK_SIMD exist as a debugging aid rather
// than a results knob.
//
// GLITCHMASK_SIMD: "off"/"scalar" forces the portable path, "avx2" caps
// at AVX2, "avx512" / "auto" (default) use the best level the CPU
// reports.  Requesting a level the CPU lacks silently clamps down.
// kAvx2 needs the avx2 CPU flag; kAvx512 needs avx512f *and* avx512dq
// (the 64-bit multiplies and conversions of the noise, stimulus and fold
// kernels), so an F-only CPU runs the AVX2 level.
#pragma once

namespace glitchmask::support {

enum class SimdLevel {
    kScalar = 0,
    kAvx2 = 1,
    kAvx512 = 2,
};

/// Resolved once per process from GLITCHMASK_SIMD + CPUID; cached.
[[nodiscard]] SimdLevel active_simd_level() noexcept;

[[nodiscard]] const char* simd_level_name(SimdLevel level) noexcept;

}  // namespace glitchmask::support
