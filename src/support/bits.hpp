// Small bit-twiddling helpers shared across the DES model, the gadget
// library and the test suite.  Bit numbering follows the convention stated
// at each function; DES-specific (1-based, MSB-first) numbering lives in
// des/des_reference.cpp, not here.
#pragma once

#include <bit>
#include <cstdint>

namespace glitchmask {

/// Bit `i` (0 = least significant) of `word`.
[[nodiscard]] constexpr bool bit_of(std::uint64_t word, unsigned i) noexcept {
    return ((word >> i) & 1u) != 0;
}

/// `word` with bit `i` (0 = LSB) set to `value`.
[[nodiscard]] constexpr std::uint64_t with_bit(std::uint64_t word, unsigned i,
                                               bool value) noexcept {
    return (word & ~(std::uint64_t{1} << i)) | (std::uint64_t{value} << i);
}

/// XOR-parity of `word`.
[[nodiscard]] constexpr bool parity(std::uint64_t word) noexcept {
    return (std::popcount(word) & 1) != 0;
}

/// Hamming weight.
[[nodiscard]] constexpr int hamming_weight(std::uint64_t word) noexcept {
    return std::popcount(word);
}

/// Hamming distance between two words.
[[nodiscard]] constexpr int hamming_distance(std::uint64_t a, std::uint64_t b) noexcept {
    return std::popcount(a ^ b);
}

/// Population count as a plain function: the batch recorder's per-lane
/// Hamming-activity accumulation is written against this name so the
/// intent ("count toggled lanes") reads at the call site.
[[nodiscard]] constexpr int popcount64(std::uint64_t word) noexcept {
    return std::popcount(word);
}

/// Left-rotate the low `width` bits of `word` by `amount`.
[[nodiscard]] constexpr std::uint64_t rotl_bits(std::uint64_t word, unsigned width,
                                                unsigned amount) noexcept {
    const std::uint64_t mask = (width >= 64) ? ~std::uint64_t{0}
                                             : ((std::uint64_t{1} << width) - 1);
    word &= mask;
    amount %= width;
    return ((word << amount) | (word >> (width - amount))) & mask;
}

}  // namespace glitchmask
