/**
 * @file
 * Runtime-dispatched SIMD backend for the packed bit-kernels.
 *
 * Every hot word-loop of the bit-sliced engine — gate-append column
 * updates, the symplectic parity reduction, Pauli multiplication, the dense
 * conjugation column pass, the batch row-product walk, and the 64x64
 * bit-block transpose — is routed through a table of function pointers
 * (Kernels). Two backends implement the table:
 *
 *   scalar  portable uint64_t loops, always compiled, the semantic
 *           reference;
 *   avx2    256-bit AVX2 intrinsics (4 words per op), compiled
 *           whenever the compiler accepts -mavx2.
 *
 * The active table is resolved once per process: AVX2 when it is
 * compiled in and the running CPU supports it (CPUID probe via
 * __builtin_cpu_supports), scalar otherwise. CMake confines -mavx2 to
 * the AVX2 TU, so the binary still runs on non-AVX hosts. The
 * QUCLEAR_SIMD environment variable (auto|avx2|scalar) can lower the
 * choice to scalar. Tests and benchmarks can pin a level with
 * forceLevel().
 *
 * Contract: every backend is BIT-IDENTICAL to the scalar path. All
 * kernels compute exact integer/bitwise results — there is no
 * floating point, no reassociation hazard, and reductions are
 * XOR-folds or popcount sums whose order does not affect the result —
 * so equality is exact, not approximate. The cross-check suite
 * (test_simd) asserts this per kernel and end-to-end per level.
 */
#ifndef QUCLEAR_UTIL_SIMD_DISPATCH_HPP
#define QUCLEAR_UTIL_SIMD_DISPATCH_HPP

#include <cstdint>
#include <string>

#include "util/support_index.hpp"

namespace quclear::simd {

/** Dispatch levels, widest last. */
enum class Level : uint8_t
{
    Scalar = 0,
    Avx2 = 1,
};

/** Per-column result of the dense-conjugation column kernel. */
struct DenseColumnResult
{
    uint32_t xParity;  //!< parity of the selected x bits (result x bit)
    uint32_t zParity;  //!< parity of the selected z bits (result z bit)
    uint32_t yCount;   //!< sum over words of |x & z & mask|
    uint64_t pairFold; //!< XOR-fold word for the ordered-pair parity
};

/**
 * Inputs of the batch conjugation row-product walk. The row-major
 * tableau snapshot stores each row as [x words | z words], each half
 * padded to rwPad words (padding is zero) so the wide backends can use
 * full-width loads; stride = 2 * rwPad.
 */
struct RowProductArgs
{
    const uint64_t *rowsXZ; //!< interleaved snapshot, row r at r * stride
    uint32_t stride;        //!< words per row slot (2 * rwPad)
    uint32_t rwPad;         //!< padded words per row half
    uint32_t rw;            //!< meaningful words per row half
    const uint8_t *yCount;  //!< per-row |x & z| mod 4
    const uint64_t *signs;  //!< tableau sign words
    const uint64_t *mask;   //!< row-selection mask (valid where indexed)
    const SupportIndex *maskIndex; //!< nonzero mask words
    uint64_t *scratch;      //!< >= 3 * rwPad words, contents undefined
    uint64_t *outX;         //!< result x words (rw written)
    uint64_t *outZ;         //!< result z words (rw written)
};

/** Phase bookkeeping of one row-product walk. */
struct RowProductResult
{
    uint32_t signRows;   //!< count of selected rows with sign -1
    uint32_t yRows;      //!< sum of selected rows' y counts (mod 4 used)
    uint32_t pairParity; //!< ordered (z_j, x_l), j < l pair parity
    uint32_t yResult;    //!< |outX & outZ| (mod 4 used)
};

/**
 * Backend kernel table. All word arrays are unaligned uint64_t spans
 * of n words; kernels may process them in any width but must produce
 * results bit-identical to the scalar backend.
 */
struct Kernels
{
    Level level;
    const char *name;

    /** @name Gate-append column kernels (the XOR/AND/ANDN folds). @{ */
    void (*appendH)(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n);
    void (*appendS)(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n);
    void (*appendSdg)(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n);
    void (*appendSqrtX)(uint64_t *x, uint64_t *z, uint64_t *s, uint32_t n);
    void (*appendSqrtXdg)(uint64_t *x, uint64_t *z, uint64_t *s,
                          uint32_t n);
    void (*appendCX)(uint64_t *xc, uint64_t *zc, uint64_t *xt,
                     uint64_t *zt, uint64_t *s, uint32_t n);
    void (*appendCZ)(uint64_t *xa, uint64_t *za, uint64_t *xb,
                     uint64_t *zb, uint64_t *s, uint32_t n);
    void (*xorInto)(uint64_t *dst, const uint64_t *a, uint32_t n);
    void (*xorInto2)(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                     uint32_t n);
    void (*swapWords)(uint64_t *a, uint64_t *b, uint32_t n);
    /** @} */

    /** Symplectic product parity: |xa & zb| + |za & xb| mod 2. */
    uint32_t (*anticommuteParity)(const uint64_t *xa, const uint64_t *za,
                                  const uint64_t *xb, const uint64_t *zb,
                                  uint32_t n);

    /**
     * Pauli word multiply: xa ^= xb, za ^= zb, returning the
     * i-exponent contribution of the per-qubit products (mod 4),
     * excluding the operands' global phases.
     */
    uint32_t (*mulWords)(uint64_t *xa, uint64_t *za, const uint64_t *xb,
                         const uint64_t *zb, uint32_t n);

    /**
     * One column of the dense (lone) conjugation pass: folds the
     * selected x/z bits, counts Ys, and accumulates the in-column
     * ordered-pair parity (prefix-XOR within words, running z parity
     * across words).
     */
    DenseColumnResult (*denseColumn)(const uint64_t *xc,
                                     const uint64_t *zc,
                                     const uint64_t *mask, uint32_t n);

    /**
     * The batch conjugation inner kernel: walk the selected rows (via
     * the mask index — unflagged words are skipped entirely, the
     * hierarchical sparse-support payoff) in ascending order,
     * XOR-accumulating x/z and the carry-save pair fold, and return
     * the phase bookkeeping.
     */
    RowProductResult (*rowProduct)(const RowProductArgs &args);

    /**
     * Row-half padding this backend wants in the row-major snapshot
     * (so its loads are full vectors). Padding words are zero and do
     * not affect results.
     */
    uint32_t (*padRowWords)(uint32_t rw);

    /** In-place 64x64 bit transpose of two tiles (x and z). */
    void (*transpose64x2)(uint64_t *x, uint64_t *z);
};

/** The scalar kernel table (always available). */
const Kernels &scalarKernels();

/**
 * The active kernel table. First call resolves CPUID + QUCLEAR_SIMD;
 * subsequent calls are one relaxed atomic load.
 */
const Kernels &active();

/** Level of the active table. */
Level activeLevel();

/** Lower-case level name ("scalar", "avx2"). */
const char *levelName(Level level);

/** Parse a level name (also accepts "auto" -> best). */
bool parseLevel(const std::string &name, Level &out);

/** True iff the backend for @p level was compiled into this binary. */
bool levelCompiled(Level level);

/** True iff @p level is compiled in and the running CPU supports it. */
bool levelSupported(Level level);

/** Widest supported level on this host. */
Level bestSupportedLevel();

/**
 * Pin the active table to @p level (tests / per-level benchmarks).
 * @return false (and leave the table unchanged) when unsupported.
 */
bool forceLevel(Level level);

/** Drop a forceLevel() pin and re-resolve from QUCLEAR_SIMD / auto. */
void resetLevel();

/**
 * The QUCLEAR_SIMD override this process resolved with ("auto" when
 * unset), for artifact config groups.
 */
const char *configuredOverride();

/**
 * Space-separated host CPU SIMD feature flags from the same CPUID
 * probe the dispatcher uses ("sse2 popcnt avx avx2 ..."), recorded in
 * bench artifacts so cross-machine comparisons are diagnosable.
 */
std::string cpuFeatureString();

} // namespace quclear::simd

#endif // QUCLEAR_UTIL_SIMD_DISPATCH_HPP
