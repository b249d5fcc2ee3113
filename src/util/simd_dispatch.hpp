/**
 * @file
 * Name of the tableau's word-loop backend, for benchmark configuration
 * lines. The bit-sliced tableau and the Pauli strings run one portable
 * 64-bit word loop per operation; there is no other backend to choose.
 */
#ifndef QUCLEAR_UTIL_SIMD_DISPATCH_HPP
#define QUCLEAR_UTIL_SIMD_DISPATCH_HPP

#include <cstdint>

namespace quclear::simd {

/** The one word-loop level. */
enum class Level : uint8_t
{
    Scalar = 0,
};

/** Level of the word loops in this build: always Scalar. */
inline Level
activeLevel()
{
    return Level::Scalar;
}

/** Lower-case level name: "scalar". */
inline const char *
levelName(Level)
{
    return "scalar";
}

} // namespace quclear::simd

#endif // QUCLEAR_UTIL_SIMD_DISPATCH_HPP
