// Deterministic pseudo-random number generation for the whole library.
//
// Everything in glitchmask that needs randomness -- mask shares, refresh
// bits, plaintext selection, delay jitter, measurement noise -- draws from
// an explicitly seeded generator so that every experiment is reproducible
// bit-for-bit.  We use xoshiro256++ (public domain, Blackman/Vigna) seeded
// through SplitMix64, which is both much faster than std::mt19937_64 and
// free of its seeding pitfalls.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>
#endif

namespace glitchmask {

/// SplitMix64 step: turns an arbitrary 64-bit seed stream into well-mixed
/// values.  Used to seed Xoshiro256 and to derive per-instance static
/// jitter from (seed, instance-id) pairs without constructing a generator.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// One-shot hash of two 64-bit values to a well-mixed 64-bit value.
/// Handy for "seed per (netlist-seed, gate-id)" style derivations.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
    std::uint64_t s = a ^ (b * 0x9e3779b97f4a7c15ULL);
    std::uint64_t v = splitmix64(s);
    return splitmix64(s) ^ v;
}

/// xoshiro256++ generator.  Satisfies std::uniform_random_bit_generator so
/// it can drive <random> distributions, but also offers the small helpers
/// (bit(), chance(), uniform()) the library uses in hot loops.
class Xoshiro256 {
public:
    using result_type = std::uint64_t;

    /// Seed through SplitMix64 so that nearby seeds give unrelated streams.
    explicit constexpr Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
        std::uint64_t sm = seed;
        for (auto& word : state_) word = splitmix64(sm);
    }

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    constexpr result_type operator()() noexcept {
        const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// One uniformly random bit.
    [[nodiscard]] constexpr bool bit() noexcept { return ((*this)() >> 63) != 0; }

    /// `n` (<= 64) uniformly random bits in the low positions.
    [[nodiscard]] constexpr std::uint64_t bits(unsigned n) noexcept {
        return n == 0 ? 0 : (*this)() >> (64u - n);
    }

    /// Uniform double in [0, 1).
    [[nodiscard]] constexpr double uniform() noexcept {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    [[nodiscard]] constexpr double uniform(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform();
    }

    /// Uniform integer in [0, n).  n must be > 0.  Uses Lemire rejection.
    [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept;

    /// Bernoulli draw with probability p of returning true.
    [[nodiscard]] constexpr bool chance(double p) noexcept { return uniform() < p; }

    /// Standard-normal draw (Marsaglia polar method with cached spare).
    [[nodiscard]] double gaussian() noexcept;

    /// Normal draw with the given mean and standard deviation.
    [[nodiscard]] double gaussian(double mean, double sigma) noexcept {
        return mean + sigma * gaussian();
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
    double spare_ = 0.0;
    bool has_spare_ = false;
};

#if defined(__AVX512F__) && defined(__AVX512DQ__)

/// Eight counter-based Xoshiro256 streams, one per 64-bit lane of an
/// AVX-512 vector: lane l is Xoshiro256(mix64(stream, first + l)), so
/// with stream = mix64(seed, tag) it is the per-trace generator
/// trace_rng(seed, tag, first + l) of eval/parallel_campaign.hpp.  The
/// seeding is mix64 and SplitMix64 on all lanes at once, and next()
/// advances only the lanes of its mask, so lanes that draw different
/// counts (rejection loops, class-dependent stimulus) stay exact.  Only
/// visible to translation units built with -mavx512f -mavx512dq.
class Xoshiro256x8 {
public:
    Xoshiro256x8(std::uint64_t stream, std::uint64_t first) noexcept {
        const __m512i counter = _mm512_add_epi64(
            _mm512_set1_epi64(static_cast<long long>(first)),
            _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));
        // mix64(stream, counter).
        __m512i s = _mm512_xor_si512(
            _mm512_set1_epi64(static_cast<long long>(stream)),
            _mm512_mullo_epi64(counter, golden()));
        const __m512i v = splitmix64(s);
        __m512i sm = _mm512_xor_si512(splitmix64(s), v);
        // Xoshiro256(seed)'s SplitMix64 seeding.
        s0_ = splitmix64(sm);
        s1_ = splitmix64(sm);
        s2_ = splitmix64(sm);
        s3_ = splitmix64(sm);
    }

    /// The next output of every lane in `active`; the other lanes'
    /// outputs are unspecified and their states do not move.
    [[nodiscard]] __m512i next(__mmask8 active) noexcept {
        const __m512i result =
            _mm512_add_epi64(rotl(_mm512_add_epi64(s0_, s3_), 23), s0_);
        const __m512i t = shl(s1_, 17);
        __m512i s2 = _mm512_xor_si512(s2_, s0_);
        __m512i s3 = _mm512_xor_si512(s3_, s1_);
        const __m512i s1 = _mm512_xor_si512(s1_, s2);
        const __m512i s0 = _mm512_xor_si512(s0_, s3);
        s2 = _mm512_xor_si512(s2, t);
        s3 = rotl(s3, 45);
        s0_ = _mm512_mask_mov_epi64(s0_, active, s0);
        s1_ = _mm512_mask_mov_epi64(s1_, active, s1);
        s2_ = _mm512_mask_mov_epi64(s2_, active, s2);
        s3_ = _mm512_mask_mov_epi64(s3_, active, s3);
        return result;
    }

    /// Xoshiro256::bit() of the lanes in `active` as a lane mask.
    [[nodiscard]] __mmask8 bit(__mmask8 active) noexcept {
        return _mm512_movepi64_mask(next(active)) & active;
    }

    /// Xoshiro256::uniform(-1.0, 1.0) of the lanes in `active`, with the
    /// scalar expression's operations: (x >> 11) converts exactly, then
    /// -1.0 + 2.0 * (that * 2^-53).
    [[nodiscard]] __m512d uniform_pm1(__mmask8 active) noexcept {
        const __m512d u = _mm512_mul_pd(
            _mm512_cvtepu64_pd(shr(next(active), 11)),
            _mm512_set1_pd(0x1.0p-53));
        return _mm512_add_pd(_mm512_set1_pd(-1.0),
                             _mm512_mul_pd(_mm512_set1_pd(2.0), u));
    }

private:
    // Shifts as vector-extension operators: GCC 12's immediate-shift and
    // rotate intrinsics trip -Wmaybe-uninitialized in its own headers.
    using U64x8 = std::uint64_t __attribute__((vector_size(64)));
    static __m512i shl(__m512i x, int n) noexcept {
        return (__m512i)((U64x8)x << n);
    }
    static __m512i shr(__m512i x, int n) noexcept {
        return (__m512i)((U64x8)x >> n);
    }
    static __m512i rotl(__m512i x, int k) noexcept {
        return _mm512_or_si512(shl(x, k), shr(x, 64 - k));
    }

    static __m512i golden() noexcept {
        return _mm512_set1_epi64(static_cast<long long>(0x9e3779b97f4a7c15ULL));
    }

    /// The SplitMix64 step of every lane.
    static __m512i splitmix64(__m512i& state) noexcept {
        state = _mm512_add_epi64(state, golden());
        __m512i z = state;
        z = _mm512_mullo_epi64(_mm512_xor_si512(z, shr(z, 30)),
                               _mm512_set1_epi64(static_cast<long long>(
                                   0xbf58476d1ce4e5b9ULL)));
        z = _mm512_mullo_epi64(_mm512_xor_si512(z, shr(z, 27)),
                               _mm512_set1_epi64(static_cast<long long>(
                                   0x94d049bb133111ebULL)));
        return _mm512_xor_si512(z, shr(z, 31));
    }

    __m512i s0_, s1_, s2_, s3_;
};

#endif  // __AVX512F__ && __AVX512DQ__

}  // namespace glitchmask
