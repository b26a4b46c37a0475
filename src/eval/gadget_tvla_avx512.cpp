// AVX-512 stimulus packing: gadget_stimulus() for eight lanes per
// vector, each lane on its own trace stream (Xoshiro256x8).
//
// gadget_stimulus draws the class bit, then x and y on random-class
// traces only, then the two mask bits and the fresh bits.  The class
// mask gates the x/y draws, so every lane advances its stream exactly as
// the per-trace function does; each draw's bit is its top bit.  Integer
// only, so the packing is exact by construction.  Compiled with
// -mavx512f -mavx512dq (src/CMakeLists.txt).
#include "eval/gadget_tvla.hpp"

#if defined(GLITCHMASK_HAVE_AVX512)

#include <immintrin.h>

#include "support/rng.hpp"

namespace glitchmask::eval {

void pack_gadget_stimulus_avx512(unsigned fresh_bits, std::uint64_t stream,
                                 std::size_t first, unsigned count,
                                 std::span<LaneWords> words, LaneWords& fixed) {
    for (unsigned g = 0; 8 * g < count; ++g) {
        const unsigned left = count - 8 * g;
        const __mmask8 live = left >= 8
                                  ? __mmask8{0xff}
                                  : static_cast<__mmask8>((1u << left) - 1u);
        Xoshiro256x8 rng(stream, first + 8 * g);
        const __mmask8 is_fixed = rng.bit(live);
        const __mmask8 random = static_cast<__mmask8>(live & ~is_fixed);
        const __mmask8 x = is_fixed | rng.bit(random);
        const __mmask8 y = is_fixed | rng.bit(random);
        // mask_bit(v): r = bit(), shares {r, r != v}.
        const __mmask8 rx = rng.bit(live);
        const __mmask8 ry = rng.bit(live);
        const __mmask8 shares[4] = {rx, static_cast<__mmask8>(rx ^ x), ry,
                                    static_cast<__mmask8>(ry ^ y)};
        const unsigned word = g / 8;
        const unsigned shift = 8 * (g % 8);
        fixed[word] |= std::uint64_t{is_fixed} << shift;
        for (unsigned i = 0; i < 4; ++i)
            words[i][word] |= std::uint64_t{shares[i]} << shift;
        for (unsigned i = 0; i < fresh_bits; ++i)
            words[4 + i][word] |= std::uint64_t{rng.bit(live)} << shift;
    }
}

}  // namespace glitchmask::eval

#endif  // GLITCHMASK_HAVE_AVX512
