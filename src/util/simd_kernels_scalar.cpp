/**
 * @file
 * Portable scalar backend of the SIMD kernel table.
 *
 * These are the reference loops: the word-level bodies were lifted
 * verbatim from the pre-dispatch CliffordTableau / PauliString hot paths
 * (see the gate comments there for the sign algebra), so rewiring the
 * engine onto the table is a pure refactor at this level. The wide
 * backends must match these bit for bit.
 */
#include <bit>
#include <cstdint>
#include <utility>

#include "util/simd_kernels_internal.hpp"
#include "util/support_index.hpp"

namespace quclear::simd {

namespace {

inline uint32_t
popcnt(uint64_t v)
{
    return static_cast<uint32_t>(std::popcount(v));
}

/**
 * Exclusive prefix-parity scan: bit l of the result is the parity of
 * bits 0..l-1 of @p v.
 */
inline uint64_t
prefixParityExclusive(uint64_t v)
{
    v ^= v << 1;
    v ^= v << 2;
    v ^= v << 4;
    v ^= v << 8;
    v ^= v << 16;
    v ^= v << 32;
    return v << 1;
}

void
appendH(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // H: X <-> Z, Y -> -Y.
        s[w] ^= x[w] & z[w];
        std::swap(x[w], z[w]);
    }
}

void
appendS(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // S: X -> Y, Y -> -X, Z -> Z.
        s[w] ^= x[w] & z[w];
        z[w] ^= x[w];
    }
}

void
appendSdg(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // Sdg: X -> -Y, Y -> X, Z -> Z.
        s[w] ^= x[w] & ~z[w];
        z[w] ^= x[w];
    }
}

void
appendSqrtX(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // sqrt(X): X -> X, Z -> -Y, Y -> Z.
        s[w] ^= ~x[w] & z[w];
        x[w] ^= z[w];
    }
}

void
appendSqrtXdg(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // sqrt(X)~: X -> X, Z -> Y, Y -> -Z.
        s[w] ^= x[w] & z[w];
        x[w] ^= z[w];
    }
}

void
appendCX(uint64_t *xc, uint64_t *zc, uint64_t *xt, uint64_t *zt,
         uint64_t *s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // Aaronson-Gottesman: sign flips iff xc & zt & ~(xt ^ zc).
        s[w] ^= xc[w] & zt[w] & ~(xt[w] ^ zc[w]);
        xt[w] ^= xc[w];
        zc[w] ^= zt[w];
    }
}

void
appendCZ(uint64_t *xa, uint64_t *za, uint64_t *xb, uint64_t *zb,
         uint64_t *s, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w) {
        // CZ: sign flips iff xa & xb & (za ^ zb); za ^= xb, zb ^= xa.
        s[w] ^= xa[w] & xb[w] & (za[w] ^ zb[w]);
        za[w] ^= xb[w];
        zb[w] ^= xa[w];
    }
}

void
xorInto(uint64_t *dst, const uint64_t *a, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w)
        dst[w] ^= a[w];
}

void
xorInto2(uint64_t *dst, const uint64_t *a, const uint64_t *b, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w)
        dst[w] ^= a[w] ^ b[w];
}

void
swapWords(uint64_t *a, uint64_t *b, uint32_t n)
{
    for (uint32_t w = 0; w < n; ++w)
        std::swap(a[w], b[w]);
}

uint32_t
anticommuteParity(const uint64_t *xa, const uint64_t *za,
                  const uint64_t *xb, const uint64_t *zb, uint32_t n)
{
    // Symplectic inner product: parities fold across words because
    // popcount(a) + popcount(b) == popcount(a ^ b) (mod 2).
    uint64_t acc = 0;
    for (uint32_t w = 0; w < n; ++w)
        acc ^= static_cast<uint64_t>(popcnt(xa[w] & zb[w])) ^
               static_cast<uint64_t>(popcnt(za[w] & xb[w]));
    return static_cast<uint32_t>(acc & 1);
}

uint32_t
mulWords(uint64_t *xa, uint64_t *za, const uint64_t *xb,
         const uint64_t *zb, uint32_t n)
{
    // Per qubit, the i-exponent of sigma(x1,z1).sigma(x2,z2) is +1 for
    // (X,Y),(Y,Z),(Z,X) and -1 for the reversed orders (0 otherwise);
    // the +-1 tallies become two branch-free popcounts per word.
    uint64_t plus = 0, minus = 0;
    for (uint32_t w = 0; w < n; ++w) {
        const uint64_t x1 = xa[w], z1 = za[w];
        const uint64_t x2 = xb[w], z2 = zb[w];
        const uint64_t p = (x1 & ~z1 & x2 & z2) |
                           (x1 & z1 & ~x2 & z2) |
                           (~x1 & z1 & x2 & ~z2);
        const uint64_t m = (x2 & ~z2 & x1 & z1) |
                           (x2 & z2 & ~x1 & z1) |
                           (~x2 & z2 & x1 & ~z1);
        plus += popcnt(p);
        minus += popcnt(m);
        xa[w] ^= x2;
        za[w] ^= z2;
    }
    return static_cast<uint32_t>((plus + 3 * (minus & 3)) & 3);
}

DenseColumnResult
denseColumn(const uint64_t *xc, const uint64_t *zc, const uint64_t *mask,
            uint32_t n)
{
    uint64_t x_fold = 0, z_fold = 0;
    uint64_t pair_fold = 0;
    uint32_t y_count = 0;
    uint64_t z_run = 0; // parity (0/1) of z bits in lower words
    for (uint32_t w = 0; w < n; ++w) {
        const uint64_t ux = xc[w] & mask[w];
        const uint64_t uz = zc[w] & mask[w];
        x_fold ^= ux;
        z_fold ^= uz;
        y_count += popcnt(ux & uz);
        // Ordered (z_j, x_l), j < l pairs: in-word via the prefix scan,
        // cross-word via the running z parity broadcast.
        pair_fold ^= ux & prefixParityExclusive(uz);
        pair_fold ^= (0 - z_run) & ux;
        z_run ^= popcnt(uz) & 1;
    }
    return { popcnt(x_fold) & 1, popcnt(z_fold) & 1, y_count, pair_fold };
}

/**
 * Row-product walk with the words-per-row count as a compile-time
 * constant when RW > 0, so the inner word loop fully unrolls (RW == 0
 * is the generic fallback above 256 qubits).
 */
template <uint32_t RW>
RowProductResult
rowProductImpl(const RowProductArgs &a)
{
    const uint32_t rw = RW != 0 ? RW : a.rw;
    uint64_t *acc_x = a.scratch;
    uint64_t *acc_z = acc_x + rw;
    uint64_t *fold = acc_z + rw;
    for (uint32_t u = 0; u < rw; ++u) {
        acc_x[u] = 0;
        acc_z[u] = 0;
        fold[u] = 0;
    }

    uint32_t sign_rows = 0; // rows contributing -1
    uint32_t y_rows = 0;    // sum of per-row |x_j & z_j| (mod 4 at end)
    a.maskIndex->forEachWord([&](uint32_t w) {
        const uint64_t mw = a.mask[w];
        sign_rows += popcnt(a.signs[w] & mw);
        uint64_t bits = mw;
        while (bits) {
            const uint32_t r =
                64 * w + static_cast<uint32_t>(std::countr_zero(bits));
            bits &= bits - 1;
            const uint64_t *xr =
                a.rowsXZ + static_cast<size_t>(r) * a.stride;
            const uint64_t *zr = xr + a.rwPad;
            for (uint32_t u = 0; u < rw; ++u) {
                fold[u] ^= acc_z[u] & xr[u]; // ordered pairs, j < l
                acc_x[u] ^= xr[u];
                acc_z[u] ^= zr[u];
            }
            y_rows += a.yCount[r];
        }
    });

    uint64_t pair_fold = 0;
    uint32_t y_result = 0; // |outX & outZ|
    for (uint32_t u = 0; u < rw; ++u) {
        pair_fold ^= fold[u];
        y_result += popcnt(acc_x[u] & acc_z[u]);
        a.outX[u] = acc_x[u];
        a.outZ[u] = acc_z[u];
    }
    return { sign_rows, y_rows, popcnt(pair_fold) & 1, y_result };
}

RowProductResult
rowProduct(const RowProductArgs &a)
{
    switch (a.rw) {
      case 1:  return rowProductImpl<1>(a);
      case 2:  return rowProductImpl<2>(a);
      case 3:  return rowProductImpl<3>(a);
      case 4:  return rowProductImpl<4>(a);
      default: return rowProductImpl<0>(a);
    }
}

uint32_t
padRowWords(uint32_t rw)
{
    return rw; // scalar loads one word at a time, no padding needed
}

/**
 * One block-swap round of the 64x64 bit transpose with a compile-time
 * stride so the 32-iteration loop fully unrolls.
 */
template <uint32_t J, uint64_t M>
inline void
transposeStep(uint64_t a[64])
{
    for (uint32_t base = 0; base < 64; base += 2 * J) {
        for (uint32_t off = 0; off < J; ++off) {
            const uint32_t k = base + off;
            const uint64_t t = ((a[k] >> J) ^ a[k | J]) & M;
            a[k] ^= t << J;
            a[k | J] ^= t;
        }
    }
}

/**
 * In-place 64x64 bit-matrix transpose (recursive block swap, Hacker's
 * Delight 7-3 adapted to LSB-first bit order): afterwards bit j of
 * a[i] is the old bit i of a[j].
 */
inline void
transpose64(uint64_t a[64])
{
    transposeStep<32, 0x00000000FFFFFFFFULL>(a);
    transposeStep<16, 0x0000FFFF0000FFFFULL>(a);
    transposeStep<8, 0x00FF00FF00FF00FFULL>(a);
    transposeStep<4, 0x0F0F0F0F0F0F0F0FULL>(a);
    transposeStep<2, 0x3333333333333333ULL>(a);
    transposeStep<1, 0x5555555555555555ULL>(a);
}

void
transpose64x2(uint64_t *x, uint64_t *z)
{
    transpose64(x);
    transpose64(z);
}

constexpr Kernels kScalarKernels = {
    Level::Scalar,
    "scalar",
    appendH,
    appendS,
    appendSdg,
    appendSqrtX,
    appendSqrtXdg,
    appendCX,
    appendCZ,
    xorInto,
    xorInto2,
    swapWords,
    anticommuteParity,
    mulWords,
    denseColumn,
    rowProduct,
    padRowWords,
    transpose64x2,
};

} // namespace

namespace detail {

const Kernels &
scalarKernelsImpl()
{
    return kScalarKernels;
}

} // namespace detail

} // namespace quclear::simd
