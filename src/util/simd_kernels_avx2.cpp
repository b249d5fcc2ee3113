/**
 * @file
 * AVX2 backend of the SIMD kernel table: 256-bit ops, 4 tableau words
 * per step.
 *
 * This TU is the only place that may use AVX intrinsics: CMake
 * confines -mavx2 to it and defines QUCLEAR_SIMD_COMPILE_AVX2, so the
 * rest of the binary stays runnable on non-AVX hosts and the
 * dispatcher only hands these kernels out after the CPUID probe
 * passes.
 *
 * Bit-identicality with the scalar backend is by construction: every
 * kernel computes the same XOR-folds and popcount sums over the same
 * words, and XOR/addition are commutative across the lane regrouping.
 * Tails (n % 4 words) run the scalar word loop.
 */
#include "util/simd_kernels_internal.hpp"

#if defined(QUCLEAR_SIMD_COMPILE_AVX2) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>

#include "util/support_index.hpp"

namespace quclear::simd {

namespace {

inline uint32_t
popcnt(uint64_t v)
{
    return static_cast<uint32_t>(std::popcount(v));
}

inline __m256i
loadu(const uint64_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
storeu(uint64_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

/** Per-64-bit-lane popcount (pshufb nibble LUT + psadbw). */
inline __m256i
popcnt64x4(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0F);
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

/** Sum of the four 64-bit lanes. */
inline uint64_t
hsum(__m256i v)
{
    const __m128i s =
        _mm_add_epi64(_mm256_castsi256_si128(v),
                      _mm256_extracti128_si256(v, 1));
    return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) +
           static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

/** XOR of the four 64-bit lanes. */
inline uint64_t
hxor(__m256i v)
{
    const __m128i s =
        _mm_xor_si128(_mm256_castsi256_si128(v),
                      _mm256_extracti128_si256(v, 1));
    return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) ^
           static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

void
appendH(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n)
{
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i vx = loadu(x + w);
        const __m256i vz = loadu(z + w);
        storeu(s + w,
               _mm256_xor_si256(loadu(s + w), _mm256_and_si256(vx, vz)));
        storeu(x + w, vz);
        storeu(z + w, vx);
    }
    for (; w < n; ++w) {
        s[w] ^= x[w] & z[w];
        std::swap(x[w], z[w]);
    }
}

void
appendS(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n)
{
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i vx = loadu(x + w);
        const __m256i vz = loadu(z + w);
        storeu(s + w,
               _mm256_xor_si256(loadu(s + w), _mm256_and_si256(vx, vz)));
        storeu(z + w, _mm256_xor_si256(vz, vx));
    }
    for (; w < n; ++w) {
        s[w] ^= x[w] & z[w];
        z[w] ^= x[w];
    }
}

void
appendSdg(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n)
{
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i vx = loadu(x + w);
        const __m256i vz = loadu(z + w);
        storeu(s + w, _mm256_xor_si256(loadu(s + w),
                                       _mm256_andnot_si256(vz, vx)));
        storeu(z + w, _mm256_xor_si256(vz, vx));
    }
    for (; w < n; ++w) {
        s[w] ^= x[w] & ~z[w];
        z[w] ^= x[w];
    }
}

void
appendSqrtX(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n)
{
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i vx = loadu(x + w);
        const __m256i vz = loadu(z + w);
        storeu(s + w, _mm256_xor_si256(loadu(s + w),
                                       _mm256_andnot_si256(vx, vz)));
        storeu(x + w, _mm256_xor_si256(vx, vz));
    }
    for (; w < n; ++w) {
        s[w] ^= ~x[w] & z[w];
        x[w] ^= z[w];
    }
}

void
appendSqrtXdg(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n)
{
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i vx = loadu(x + w);
        const __m256i vz = loadu(z + w);
        storeu(s + w,
               _mm256_xor_si256(loadu(s + w), _mm256_and_si256(vx, vz)));
        storeu(x + w, _mm256_xor_si256(vx, vz));
    }
    for (; w < n; ++w) {
        s[w] ^= x[w] & z[w];
        x[w] ^= z[w];
    }
}

void
appendCX(uint64_t *xc, uint64_t *zc, uint64_t *xt, uint64_t *zt,
         uint64_t *s, uint32_t n)
{
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i vxc = loadu(xc + w);
        const __m256i vzc = loadu(zc + w);
        const __m256i vxt = loadu(xt + w);
        const __m256i vzt = loadu(zt + w);
        // signs ^= xc & zt & ~(xt ^ zc)
        const __m256i flip = _mm256_andnot_si256(
            _mm256_xor_si256(vxt, vzc), _mm256_and_si256(vxc, vzt));
        storeu(s + w, _mm256_xor_si256(loadu(s + w), flip));
        storeu(xt + w, _mm256_xor_si256(vxt, vxc));
        storeu(zc + w, _mm256_xor_si256(vzc, vzt));
    }
    for (; w < n; ++w) {
        s[w] ^= xc[w] & zt[w] & ~(xt[w] ^ zc[w]);
        xt[w] ^= xc[w];
        zc[w] ^= zt[w];
    }
}

void
appendCZ(uint64_t *xa, uint64_t *za, uint64_t *xb, uint64_t *zb,
         uint64_t *s, uint32_t n)
{
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i vxa = loadu(xa + w);
        const __m256i vza = loadu(za + w);
        const __m256i vxb = loadu(xb + w);
        const __m256i vzb = loadu(zb + w);
        const __m256i flip = _mm256_and_si256(
            _mm256_and_si256(vxa, vxb), _mm256_xor_si256(vza, vzb));
        storeu(s + w, _mm256_xor_si256(loadu(s + w), flip));
        storeu(za + w, _mm256_xor_si256(vza, vxb));
        storeu(zb + w, _mm256_xor_si256(vzb, vxa));
    }
    for (; w < n; ++w) {
        s[w] ^= xa[w] & xb[w] & (za[w] ^ zb[w]);
        za[w] ^= xb[w];
        zb[w] ^= xa[w];
    }
}

void
xorInto(uint64_t *dst, const uint64_t *a, uint32_t n)
{
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4)
        storeu(dst + w, _mm256_xor_si256(loadu(dst + w), loadu(a + w)));
    for (; w < n; ++w)
        dst[w] ^= a[w];
}

void
xorInto2(uint64_t *dst, const uint64_t *a, const uint64_t *b, uint32_t n)
{
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4)
        storeu(dst + w,
               _mm256_xor_si256(loadu(dst + w),
                                _mm256_xor_si256(loadu(a + w),
                                                 loadu(b + w))));
    for (; w < n; ++w)
        dst[w] ^= a[w] ^ b[w];
}

void
swapWords(uint64_t *a, uint64_t *b, uint32_t n)
{
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i va = loadu(a + w);
        const __m256i vb = loadu(b + w);
        storeu(a + w, vb);
        storeu(b + w, va);
    }
    for (; w < n; ++w)
        std::swap(a[w], b[w]);
}

uint32_t
anticommuteParity(const uint64_t *xa, const uint64_t *za,
                  const uint64_t *xb, const uint64_t *zb, uint32_t n)
{
    // Parity folds: popcount parity of a set of words equals the
    // popcount parity of their XOR, so no popcounts until the end.
    __m256i fold = _mm256_setzero_si256();
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i t = _mm256_xor_si256(
            _mm256_and_si256(loadu(xa + w), loadu(zb + w)),
            _mm256_and_si256(loadu(za + w), loadu(xb + w)));
        fold = _mm256_xor_si256(fold, t);
    }
    uint64_t f = hxor(fold);
    for (; w < n; ++w)
        f ^= (xa[w] & zb[w]) ^ (za[w] & xb[w]);
    return popcnt(f) & 1;
}

uint32_t
mulWords(uint64_t *xa, uint64_t *za, const uint64_t *xb,
         const uint64_t *zb, uint32_t n)
{
    __m256i plus_v = _mm256_setzero_si256();
    __m256i minus_v = _mm256_setzero_si256();
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i x1 = loadu(xa + w);
        const __m256i z1 = loadu(za + w);
        const __m256i x2 = loadu(xb + w);
        const __m256i z2 = loadu(zb + w);
        // +i cases: X.Y, Y.Z, Z.X (see scalar backend).
        const __m256i p = _mm256_or_si256(
            _mm256_or_si256(
                _mm256_and_si256(_mm256_andnot_si256(z1, x1),
                                 _mm256_and_si256(x2, z2)),
                _mm256_and_si256(_mm256_and_si256(x1, z1),
                                 _mm256_andnot_si256(x2, z2))),
            _mm256_and_si256(_mm256_andnot_si256(x1, z1),
                             _mm256_andnot_si256(z2, x2)));
        // -i cases: the transposes.
        const __m256i m = _mm256_or_si256(
            _mm256_or_si256(
                _mm256_and_si256(_mm256_andnot_si256(z2, x2),
                                 _mm256_and_si256(x1, z1)),
                _mm256_and_si256(_mm256_and_si256(x2, z2),
                                 _mm256_andnot_si256(x1, z1))),
            _mm256_and_si256(_mm256_andnot_si256(x2, z2),
                             _mm256_andnot_si256(z1, x1)));
        plus_v = _mm256_add_epi64(plus_v, popcnt64x4(p));
        minus_v = _mm256_add_epi64(minus_v, popcnt64x4(m));
        storeu(xa + w, _mm256_xor_si256(x1, x2));
        storeu(za + w, _mm256_xor_si256(z1, z2));
    }
    uint64_t plus = hsum(plus_v);
    uint64_t minus = hsum(minus_v);
    for (; w < n; ++w) {
        const uint64_t x1 = xa[w], z1 = za[w];
        const uint64_t x2 = xb[w], z2 = zb[w];
        plus += popcnt((x1 & ~z1 & x2 & z2) | (x1 & z1 & ~x2 & z2) |
                       (~x1 & z1 & x2 & ~z2));
        minus += popcnt((x2 & ~z2 & x1 & z1) | (x2 & z2 & ~x1 & z1) |
                        (~x2 & z2 & x1 & ~z1));
        xa[w] ^= x2;
        za[w] ^= z2;
    }
    return static_cast<uint32_t>((plus + 3 * (minus & 3)) & 3);
}

inline uint64_t
prefixParityExclusiveScalar(uint64_t v)
{
    v ^= v << 1;
    v ^= v << 2;
    v ^= v << 4;
    v ^= v << 8;
    v ^= v << 16;
    v ^= v << 32;
    return v << 1;
}

/** Per-lane exclusive prefix-parity scan (the scalar shift cascade). */
inline __m256i
prefixParityExclusive4(__m256i v)
{
    v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 1));
    v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 2));
    v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 4));
    v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 8));
    v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 16));
    v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 32));
    return _mm256_slli_epi64(v, 1);
}

/**
 * Lane-select table: row e has lane k = all-ones iff bit k of e is
 * set. Used to broadcast the per-lane exclusive z-run parities into
 * AND masks (AVX2 has no movm; a load beats four inserts).
 */
constexpr uint64_t kSet = ~0ULL;
alignas(32) constexpr uint64_t kLaneMask[16][4] = {
    { 0, 0, 0, 0 },          { kSet, 0, 0, 0 },
    { 0, kSet, 0, 0 },       { kSet, kSet, 0, 0 },
    { 0, 0, kSet, 0 },       { kSet, 0, kSet, 0 },
    { 0, kSet, kSet, 0 },    { kSet, kSet, kSet, 0 },
    { 0, 0, 0, kSet },       { kSet, 0, 0, kSet },
    { 0, kSet, 0, kSet },    { kSet, kSet, 0, kSet },
    { 0, 0, kSet, kSet },    { kSet, 0, kSet, kSet },
    { 0, kSet, kSet, kSet }, { kSet, kSet, kSet, kSet },
};

DenseColumnResult
denseColumn(const uint64_t *xc, const uint64_t *zc, const uint64_t *mask,
            uint32_t n)
{
    __m256i xfold_v = _mm256_setzero_si256();
    __m256i zfold_v = _mm256_setzero_si256();
    __m256i pair_v = _mm256_setzero_si256();
    __m256i ycnt_v = _mm256_setzero_si256();
    uint64_t z_run = 0; // parity (0/1) of z bits in lower words
    uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i mw = loadu(mask + w);
        const __m256i ux = _mm256_and_si256(loadu(xc + w), mw);
        const __m256i uz = _mm256_and_si256(loadu(zc + w), mw);
        xfold_v = _mm256_xor_si256(xfold_v, ux);
        zfold_v = _mm256_xor_si256(zfold_v, uz);
        ycnt_v = _mm256_add_epi64(
            ycnt_v, popcnt64x4(_mm256_and_si256(ux, uz)));
        // In-word ordered pairs: per-lane prefix scan.
        pair_v = _mm256_xor_si256(
            pair_v, _mm256_and_si256(ux, prefixParityExclusive4(uz)));
        // Cross-word pairs: exclusive prefix parity of the per-lane z
        // popcount parities (4-bit mask trick), seeded with z_run.
        const __m256i cnt = popcnt64x4(uz);
        const uint32_t m = static_cast<uint32_t>(_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_slli_epi64(cnt, 63))));
        uint32_t pm = m ^ (m << 1);
        pm ^= pm << 2;
        const uint32_t ep =
            ((pm << 1) & 0xFu) ^ (z_run != 0 ? 0xFu : 0u);
        pair_v = _mm256_xor_si256(
            pair_v,
            _mm256_and_si256(
                _mm256_load_si256(reinterpret_cast<const __m256i *>(
                    kLaneMask[ep])),
                ux));
        z_run ^= static_cast<uint64_t>(std::popcount(m)) & 1;
    }
    uint64_t x_fold = hxor(xfold_v);
    uint64_t z_fold = hxor(zfold_v);
    uint64_t pair_fold = hxor(pair_v);
    uint64_t y_count = hsum(ycnt_v);
    for (; w < n; ++w) {
        const uint64_t ux = xc[w] & mask[w];
        const uint64_t uz = zc[w] & mask[w];
        x_fold ^= ux;
        z_fold ^= uz;
        y_count += popcnt(ux & uz);
        pair_fold ^= ux & prefixParityExclusiveScalar(uz);
        pair_fold ^= (0 - z_run) & ux;
        z_run ^= popcnt(uz) & 1;
    }
    return { popcnt(x_fold) & 1, popcnt(z_fold) & 1,
             static_cast<uint32_t>(y_count), pair_fold };
}

/** rw == 1: one 128-bit register holds the whole [x | z] row slot. */
RowProductResult
rowProduct1(const RowProductArgs &a)
{
    __m128i acc = _mm_setzero_si128();  // [acc_x, acc_z]
    __m128i fold = _mm_setzero_si128(); // lane 1 accumulates accz & xr
    uint32_t sign_rows = 0;
    uint32_t y_rows = 0;
    a.maskIndex->forEachWord([&](uint32_t w) {
        const uint64_t mw = a.mask[w];
        sign_rows += popcnt(a.signs[w] & mw);
        uint64_t bits = mw;
        while (bits) {
            const uint32_t r =
                64 * w + static_cast<uint32_t>(std::countr_zero(bits));
            bits &= bits - 1;
            const __m128i row = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(
                    a.rowsXZ + static_cast<size_t>(r) * a.stride));
            // swapped = [z, x]; acc & swapped lane 1 = acc_z & x_row.
            const __m128i swapped = _mm_shuffle_epi32(row, 0x4E);
            fold = _mm_xor_si128(fold, _mm_and_si128(acc, swapped));
            acc = _mm_xor_si128(acc, row);
            y_rows += a.yCount[r];
        }
    });
    const uint64_t acc_x =
        static_cast<uint64_t>(_mm_cvtsi128_si64(acc));
    const uint64_t acc_z =
        static_cast<uint64_t>(_mm_extract_epi64(acc, 1));
    const uint64_t pf =
        static_cast<uint64_t>(_mm_extract_epi64(fold, 1));
    a.outX[0] = acc_x;
    a.outZ[0] = acc_z;
    return { sign_rows, y_rows, popcnt(pf) & 1, popcnt(acc_x & acc_z) };
}

/** rw == 2: one 256-bit register holds [x0, x1, z0, z1]. */
RowProductResult
rowProduct2(const RowProductArgs &a)
{
    __m256i acc = _mm256_setzero_si256();
    __m256i fold = _mm256_setzero_si256(); // lanes 2,3: accz & xr
    uint32_t sign_rows = 0;
    uint32_t y_rows = 0;
    a.maskIndex->forEachWord([&](uint32_t w) {
        const uint64_t mw = a.mask[w];
        sign_rows += popcnt(a.signs[w] & mw);
        uint64_t bits = mw;
        while (bits) {
            const uint32_t r =
                64 * w + static_cast<uint32_t>(std::countr_zero(bits));
            bits &= bits - 1;
            const __m256i row =
                loadu(a.rowsXZ + static_cast<size_t>(r) * a.stride);
            const __m256i swapped =
                _mm256_permute4x64_epi64(row, 0x4E); // [z0,z1,x0,x1]
            fold = _mm256_xor_si256(fold, _mm256_and_si256(acc, swapped));
            acc = _mm256_xor_si256(acc, row);
            y_rows += a.yCount[r];
        }
    });
    alignas(32) uint64_t lanes[4];
    storeu(lanes, acc);
    a.outX[0] = lanes[0];
    a.outX[1] = lanes[1];
    a.outZ[0] = lanes[2];
    a.outZ[1] = lanes[3];
    const uint32_t y_result = popcnt(lanes[0] & lanes[2]) +
                              popcnt(lanes[1] & lanes[3]);
    alignas(32) uint64_t flanes[4];
    storeu(flanes, fold);
    return { sign_rows, y_rows, popcnt(flanes[2] ^ flanes[3]) & 1,
             y_result };
}

/** rw == 3..4: split ymm accumulators, rwPad == 4. */
RowProductResult
rowProduct4(const RowProductArgs &a)
{
    __m256i acc_x = _mm256_setzero_si256();
    __m256i acc_z = _mm256_setzero_si256();
    __m256i fold = _mm256_setzero_si256();
    uint32_t sign_rows = 0;
    uint32_t y_rows = 0;
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
            const __m256i vx = loadu(xr);
            const __m256i vz = loadu(xr + a.rwPad);
            fold = _mm256_xor_si256(fold, _mm256_and_si256(acc_z, vx));
            acc_x = _mm256_xor_si256(acc_x, vx);
            acc_z = _mm256_xor_si256(acc_z, vz);
            y_rows += a.yCount[r];
        }
    });
    alignas(32) uint64_t lx[4];
    alignas(32) uint64_t lz[4];
    storeu(lx, acc_x);
    storeu(lz, acc_z);
    uint32_t y_result = 0;
    for (uint32_t u = 0; u < a.rw; ++u) {
        a.outX[u] = lx[u];
        a.outZ[u] = lz[u];
        y_result += popcnt(lx[u] & lz[u]);
    }
    return { sign_rows, y_rows, popcnt(hxor(fold)) & 1, y_result };
}

/** Generic path: rwPad is a multiple of 4, accumulators in scratch. */
RowProductResult
rowProductWide(const RowProductArgs &a)
{
    uint64_t *acc_x = a.scratch;
    uint64_t *acc_z = acc_x + a.rwPad;
    uint64_t *fold = acc_z + a.rwPad;
    const __m256i zero = _mm256_setzero_si256();
    for (uint32_t u = 0; u < a.rwPad; u += 4) {
        storeu(acc_x + u, zero);
        storeu(acc_z + u, zero);
        storeu(fold + u, zero);
    }
    uint32_t sign_rows = 0;
    uint32_t y_rows = 0;
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
            for (uint32_t u = 0; u < a.rwPad; u += 4) {
                const __m256i vx = loadu(xr + u);
                storeu(fold + u,
                       _mm256_xor_si256(loadu(fold + u),
                                        _mm256_and_si256(
                                            loadu(acc_z + u), vx)));
                storeu(acc_x + u,
                       _mm256_xor_si256(loadu(acc_x + u), vx));
                storeu(acc_z + u, _mm256_xor_si256(loadu(acc_z + u),
                                                   loadu(zr + u)));
            }
            y_rows += a.yCount[r];
        }
    });
    uint64_t pair_fold = 0;
    uint32_t y_result = 0;
    for (uint32_t u = 0; u < a.rw; ++u) {
        pair_fold ^= fold[u];
        y_result += popcnt(acc_x[u] & acc_z[u]);
        a.outX[u] = acc_x[u];
        a.outZ[u] = acc_z[u];
    }
    // Padding words of fold are XORs of zero padding — always zero —
    // but fold them anyway so the expression stays shape-uniform.
    for (uint32_t u = a.rw; u < a.rwPad; ++u)
        pair_fold ^= fold[u];
    return { sign_rows, y_rows, popcnt(pair_fold) & 1, y_result };
}

RowProductResult
rowProduct(const RowProductArgs &a)
{
    switch (a.rwPad) {
      case 1:  return rowProduct1(a);
      case 2:  return rowProduct2(a);
      case 4:  return rowProduct4(a);
      default: return rowProductWide(a);
    }
}

uint32_t
padRowWords(uint32_t rw)
{
    // 1 -> [x|z] in one xmm, 2 -> one ymm; beyond that pad each half
    // to whole ymm vectors.
    if (rw <= 2)
        return rw;
    return (rw + 3) & ~3u;
}

/** Strided transpose round for J >= 4: vector pairs at distance J. */
template <uint32_t J>
inline void
transposeStepWide(uint64_t a[64], uint64_t m)
{
    const __m256i vm = _mm256_set1_epi64x(static_cast<int64_t>(m));
    for (uint32_t base = 0; base < 64; base += 2 * J) {
        for (uint32_t off = 0; off < J; off += 4) {
            uint64_t *pa = a + base + off;
            uint64_t *pb = pa + J;
            const __m256i va = loadu(pa);
            const __m256i vb = loadu(pb);
            const __m256i t = _mm256_and_si256(
                _mm256_xor_si256(_mm256_srli_epi64(va, J), vb), vm);
            storeu(pa, _mm256_xor_si256(va, _mm256_slli_epi64(t, J)));
            storeu(pb, _mm256_xor_si256(vb, t));
        }
    }
}

/**
 * In-register rounds J=2 and J=1: the partner word lives in the same
 * vector, so the pair swap is a lane permute and the update masks to
 * the low lane of each pair (t computed at lane k, k & J == 0).
 */
inline void
transposeTail(uint64_t a[64])
{
    const __m256i m2 = _mm256_set1_epi64x(0x3333333333333333LL);
    const __m256i m1 = _mm256_set1_epi64x(0x5555555555555555LL);
    const __m256i even2 = _mm256_setr_epi64x(-1, -1, 0, 0);
    const __m256i even1 = _mm256_setr_epi64x(-1, 0, -1, 0);
    for (uint32_t k = 0; k < 64; k += 4) {
        __m256i v = loadu(a + k);
        // J = 2: lanes (0,2) and (1,3) pair across the 128-bit halves.
        __m256i sw = _mm256_permute4x64_epi64(v, 0x4E);
        __m256i t = _mm256_and_si256(
            _mm256_xor_si256(_mm256_srli_epi64(v, 2), sw), m2);
        t = _mm256_and_si256(t, even2);
        v = _mm256_xor_si256(
            v, _mm256_xor_si256(_mm256_slli_epi64(t, 2),
                                _mm256_permute4x64_epi64(t, 0x4E)));
        // J = 1: adjacent lanes pair within each 128-bit half.
        sw = _mm256_shuffle_epi32(v, 0x4E);
        t = _mm256_and_si256(
            _mm256_xor_si256(_mm256_srli_epi64(v, 1), sw), m1);
        t = _mm256_and_si256(t, even1);
        v = _mm256_xor_si256(
            v, _mm256_xor_si256(_mm256_slli_epi64(t, 1),
                                _mm256_shuffle_epi32(t, 0x4E)));
        storeu(a + k, v);
    }
}

inline void
transpose64(uint64_t a[64])
{
    transposeStepWide<32>(a, 0x00000000FFFFFFFFULL);
    transposeStepWide<16>(a, 0x0000FFFF0000FFFFULL);
    transposeStepWide<8>(a, 0x00FF00FF00FF00FFULL);
    transposeStepWide<4>(a, 0x0F0F0F0F0F0F0F0FULL);
    transposeTail(a);
}

void
transpose64x2(uint64_t *x, uint64_t *z)
{
    transpose64(x);
    transpose64(z);
}

constexpr Kernels kAvx2Kernels = {
    Level::Avx2,
    "avx2",
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

const Kernels *
avx2KernelsOrNull()
{
    return &kAvx2Kernels;
}

} // namespace detail

} // namespace quclear::simd

#else // !QUCLEAR_SIMD_COMPILE_AVX2

namespace quclear::simd::detail {

const Kernels *
avx2KernelsOrNull()
{
    return nullptr;
}

} // namespace quclear::simd::detail

#endif
