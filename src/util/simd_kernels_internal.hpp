/**
 * @file
 * Private interface between the SIMD dispatcher and its backend TUs.
 *
 * The AVX2 backend TU is always part of the build; it gets -mavx2 and
 * the QUCLEAR_SIMD_COMPILE_AVX2 define whenever the compiler accepts
 * the flag. Compiled without the define it returns nullptr here, so
 * the dispatcher discovers at runtime whether AVX2 exists in this
 * binary without any link-time variation.
 */
#ifndef QUCLEAR_UTIL_SIMD_KERNELS_INTERNAL_HPP
#define QUCLEAR_UTIL_SIMD_KERNELS_INTERNAL_HPP

#include "util/simd_dispatch.hpp"

namespace quclear::simd::detail {

/** The portable reference table (never null). */
const Kernels &scalarKernelsImpl();

/** AVX2 table, or nullptr when this binary was built without it. */
const Kernels *avx2KernelsOrNull();

} // namespace quclear::simd::detail

#endif // QUCLEAR_UTIL_SIMD_KERNELS_INTERNAL_HPP
