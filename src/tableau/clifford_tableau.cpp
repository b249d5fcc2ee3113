#include "tableau/clifford_tableau.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace quclear {

namespace {

/** Spread the low 32 bits of @p v into the even bit positions. */
inline uint64_t
spreadBits(uint64_t v)
{
    v &= 0xFFFFFFFFULL;
    v = (v | (v << 16)) & 0x0000FFFF0000FFFFULL;
    v = (v | (v << 8)) & 0x00FF00FF00FF00FFULL;
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0FULL;
    v = (v | (v << 2)) & 0x3333333333333333ULL;
    v = (v | (v << 1)) & 0x5555555555555555ULL;
    return v;
}

inline uint32_t
popcnt(uint64_t v)
{
    return static_cast<uint32_t>(std::popcount(v));
}

/**
 * Selected-row count below which the gather/multiply conjugation path
 * wins over the transpose + row-walk one: gathering a row costs O(n)
 * bit extractions, the transpose a fixed O(n . 2n/64) word ops
 * regardless of weight, so the crossover grows linearly with n.
 */
inline uint32_t
sparseConjugateRowLimit(uint32_t num_qubits)
{
    return num_qubits / 16 > 6 ? num_qubits / 16 : 6;
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

/** Phase bookkeeping of one row-product walk. */
struct RowWalk
{
    uint32_t signRows;   //!< count of selected rows with sign -1
    uint32_t yRows;      //!< sum of selected rows' y counts (mod 4 used)
    uint32_t pairParity; //!< ordered (z_j, x_l), j < l pair parity
    uint32_t yResult;    //!< |outX & outZ| (mod 4 used)
};

/**
 * Walk the rows selected by @p mask (via @p idx: unflagged words are
 * skipped entirely) in ascending order through a row-major snapshot
 * whose row r is [x words | z words] at rows + r * 2 * rw, XOR-
 * accumulating x/z and the carry-save pair fold into @p scratch (3 * rw
 * words), and write the product's x/z words to @p out_x / @p out_z.
 * With RW > 0 the words-per-row count is a compile-time constant, so
 * the inner word loop fully unrolls (RW == 0 is the generic form above
 * 256 qubits).
 */
template <uint32_t RW>
RowWalk
walkRows(const uint64_t *rows, uint32_t rw_runtime, const uint8_t *y_count,
         const uint64_t *signs, const uint64_t *mask,
         const SupportIndex &idx, uint64_t *scratch, uint64_t *out_x,
         uint64_t *out_z)
{
    const uint32_t rw = RW != 0 ? RW : rw_runtime;
    uint64_t *acc_x = scratch;
    uint64_t *acc_z = acc_x + rw;
    uint64_t *fold = acc_z + rw;
    for (uint32_t u = 0; u < rw; ++u) {
        acc_x[u] = 0;
        acc_z[u] = 0;
        fold[u] = 0;
    }

    uint32_t sign_rows = 0; // rows contributing -1
    uint32_t y_rows = 0;    // sum of per-row |x_j & z_j| (mod 4 at end)
    idx.forEachWord([&](uint32_t w) {
        const uint64_t mw = mask[w];
        sign_rows += popcnt(signs[w] & mw);
        uint64_t bits = mw;
        while (bits) {
            const uint32_t r =
                64 * w + static_cast<uint32_t>(std::countr_zero(bits));
            bits &= bits - 1;
            const uint64_t *xr = rows + static_cast<size_t>(r) * 2 * rw;
            const uint64_t *zr = xr + rw;
            for (uint32_t u = 0; u < rw; ++u) {
                fold[u] ^= acc_z[u] & xr[u]; // ordered pairs, j < l
                acc_x[u] ^= xr[u];
                acc_z[u] ^= zr[u];
            }
            y_rows += y_count[r];
        }
    });

    uint64_t pair_fold = 0;
    uint32_t y_result = 0; // |outX & outZ|
    for (uint32_t u = 0; u < rw; ++u) {
        pair_fold ^= fold[u];
        y_result += popcnt(acc_x[u] & acc_z[u]);
        out_x[u] = acc_x[u];
        out_z[u] = acc_z[u];
    }
    return { sign_rows, y_rows, popcnt(pair_fold) & 1, y_result };
}

} // namespace

CliffordTableau::CliffordTableau(uint32_t num_qubits)
    : numQubits_(num_qubits), words_(wordsForRows(num_qubits)),
      x_(static_cast<size_t>(num_qubits) * words_, 0),
      z_(static_cast<size_t>(num_qubits) * words_, 0),
      signs_(words_, 0)
{
    // Identity: rowX_q = +X_q (row 2q), rowZ_q = +Z_q (row 2q+1).
    for (uint32_t q = 0; q < num_qubits; ++q) {
        const uint32_t rx = 2 * q;
        const uint32_t rz = 2 * q + 1;
        x_[q * words_ + (rx >> 6)] |= 1ULL << (rx & 63);
        z_[q * words_ + (rz >> 6)] |= 1ULL << (rz & 63);
    }
}

CliffordTableau
CliffordTableau::fromCircuit(const QuantumCircuit &qc)
{
    CliffordTableau t(qc.numQubits());
    t.appendCircuit(qc);
    return t;
}

// Gate appends: one pass over the words of the touched columns and
// the sign words, with the Aaronson-Gottesman update rules.

void
CliffordTableau::appendH(uint32_t q)
{
    uint64_t *xc = &x_[q * words_];
    uint64_t *zc = &z_[q * words_];
    uint64_t *s = signs_.data();
    for (uint32_t w = 0; w < words_; ++w) {
        s[w] ^= xc[w] & zc[w]; // H: X <-> Z, Y -> -Y
        std::swap(xc[w], zc[w]);
    }
}

void
CliffordTableau::appendS(uint32_t q)
{
    uint64_t *xc = &x_[q * words_];
    uint64_t *zc = &z_[q * words_];
    uint64_t *s = signs_.data();
    for (uint32_t w = 0; w < words_; ++w) {
        s[w] ^= xc[w] & zc[w]; // S: X -> Y, Y -> -X
        zc[w] ^= xc[w];
    }
}

void
CliffordTableau::appendSdg(uint32_t q)
{
    uint64_t *xc = &x_[q * words_];
    uint64_t *zc = &z_[q * words_];
    uint64_t *s = signs_.data();
    for (uint32_t w = 0; w < words_; ++w) {
        s[w] ^= xc[w] & ~zc[w]; // Sdg: X -> -Y, Y -> X
        zc[w] ^= xc[w];
    }
}

void
CliffordTableau::appendX(uint32_t q)
{
    // X anticommutes with Z and Y.
    const uint64_t *zc = &z_[q * words_];
    for (uint32_t w = 0; w < words_; ++w)
        signs_[w] ^= zc[w];
}

void
CliffordTableau::appendY(uint32_t q)
{
    // Y anticommutes with X and Z.
    const uint64_t *xc = &x_[q * words_];
    const uint64_t *zc = &z_[q * words_];
    for (uint32_t w = 0; w < words_; ++w)
        signs_[w] ^= xc[w] ^ zc[w];
}

void
CliffordTableau::appendZ(uint32_t q)
{
    // Z anticommutes with X and Y.
    const uint64_t *xc = &x_[q * words_];
    for (uint32_t w = 0; w < words_; ++w)
        signs_[w] ^= xc[w];
}

void
CliffordTableau::appendSqrtX(uint32_t q)
{
    uint64_t *xc = &x_[q * words_];
    uint64_t *zc = &z_[q * words_];
    uint64_t *s = signs_.data();
    for (uint32_t w = 0; w < words_; ++w) {
        s[w] ^= ~xc[w] & zc[w]; // sqrt(X): Z -> -Y, Y -> Z
        xc[w] ^= zc[w];
    }
}

void
CliffordTableau::appendSqrtXdg(uint32_t q)
{
    uint64_t *xc = &x_[q * words_];
    uint64_t *zc = &z_[q * words_];
    uint64_t *s = signs_.data();
    for (uint32_t w = 0; w < words_; ++w) {
        s[w] ^= xc[w] & zc[w]; // sqrt(X)~: Z -> Y, Y -> -Z
        xc[w] ^= zc[w];
    }
}

void
CliffordTableau::appendCX(uint32_t control, uint32_t target)
{
    assert(control != target);
    uint64_t *xc = &x_[control * words_];
    uint64_t *zc = &z_[control * words_];
    uint64_t *xt = &x_[target * words_];
    uint64_t *zt = &z_[target * words_];
    uint64_t *s = signs_.data();
    for (uint32_t w = 0; w < words_; ++w) {
        // Sign flips iff xc & zt & ~(xt ^ zc).
        s[w] ^= xc[w] & zt[w] & ~(xt[w] ^ zc[w]);
        xt[w] ^= xc[w];
        zc[w] ^= zt[w];
    }
}

void
CliffordTableau::appendCZ(uint32_t a, uint32_t b)
{
    assert(a != b);
    uint64_t *xa = &x_[a * words_];
    uint64_t *za = &z_[a * words_];
    uint64_t *xb = &x_[b * words_];
    uint64_t *zb = &z_[b * words_];
    uint64_t *s = signs_.data();
    for (uint32_t w = 0; w < words_; ++w) {
        // Sign flips iff xa & xb & (za ^ zb); za ^= xb, zb ^= xa.
        s[w] ^= xa[w] & xb[w] & (za[w] ^ zb[w]);
        za[w] ^= xb[w];
        zb[w] ^= xa[w];
    }
}

void
CliffordTableau::appendSwap(uint32_t a, uint32_t b)
{
    assert(a != b);
    uint64_t *xa = &x_[a * words_];
    uint64_t *za = &z_[a * words_];
    uint64_t *xb = &x_[b * words_];
    uint64_t *zb = &z_[b * words_];
    for (uint32_t w = 0; w < words_; ++w) {
        std::swap(xa[w], xb[w]);
        std::swap(za[w], zb[w]);
    }
}

void
CliffordTableau::appendGate(const Gate &g)
{
    switch (g.type) {
      case GateType::H:    appendH(g.q0); break;
      case GateType::S:    appendS(g.q0); break;
      case GateType::Sdg:  appendSdg(g.q0); break;
      case GateType::X:    appendX(g.q0); break;
      case GateType::Y:    appendY(g.q0); break;
      case GateType::Z:    appendZ(g.q0); break;
      case GateType::SX:   appendSqrtX(g.q0); break;
      case GateType::SXdg: appendSqrtXdg(g.q0); break;
      case GateType::CX:   appendCX(g.q0, g.q1); break;
      case GateType::CZ:   appendCZ(g.q0, g.q1); break;
      case GateType::Swap: appendSwap(g.q0, g.q1); break;
      default:
        assert(false && "non-Clifford gate appended to tableau");
    }
}

void
CliffordTableau::appendCircuit(const QuantumCircuit &qc)
{
    assert(qc.numQubits() == numQubits_);
    for (const Gate &g : qc.gates())
        appendGate(g);
}

PauliString
CliffordTableau::rowAt(uint32_t r) const
{
    assert(r < 2 * numQubits_);
    PauliString p(numQubits_);
    for (uint32_t c = 0; c < numQubits_; ++c) {
        const uint8_t code =
            static_cast<uint8_t>(static_cast<uint8_t>(xBitRC(r, c)) |
                                 (static_cast<uint8_t>(zBitRC(r, c)) << 1));
        if (code)
            p.setOp(c, static_cast<PauliOp>(code));
    }
    p.setPhase(signBit(r) ? 2 : 0);
    return p;
}

void
CliffordTableau::setRow(uint32_t r, const PauliString &p)
{
    assert(r < 2 * numQubits_);
    assert(p.phase() == 0 || p.phase() == 2);
    const uint32_t w = r >> 6;
    const uint64_t m = 1ULL << (r & 63);
    for (uint32_t c = 0; c < numQubits_; ++c) {
        if (p.xBit(c))
            x_[c * words_ + w] |= m;
        else
            x_[c * words_ + w] &= ~m;
        if (p.zBit(c))
            z_[c * words_ + w] |= m;
        else
            z_[c * words_ + w] &= ~m;
    }
    if (p.phase() == 2)
        signs_[w] |= m;
    else
        signs_[w] &= ~m;
}

void
CliffordTableau::buildRowMask(const PauliString &p, uint64_t *mask,
                              SupportIndex &idx) const
{
    // Row 2q selects the X_q image, row 2q+1 the Z_q image; interleave
    // p's x and z bits 32 qubits at a time. Only source words with any
    // support expand (the spread cascade is the expensive part), and
    // only nonzero mask words are written + flagged — for a sparse
    // term the whole build touches O(support words), not O(words_).
    idx.clear();
    const auto xw = p.xWords();
    const auto zw = p.zWords();
    for (uint32_t src = 0; src < xw.size(); ++src) {
        const uint64_t xv = xw[src];
        const uint64_t zv = zw[src];
        if ((xv | zv) == 0)
            continue;
        for (uint32_t half = 0; half < 2; ++half) {
            const uint32_t w = 2 * src + half;
            if (w >= words_)
                break;
            const uint32_t shift = half != 0 ? 32 : 0;
            const uint64_t m =
                spreadBits((xv >> shift) & 0xFFFFFFFFULL) |
                (spreadBits((zv >> shift) & 0xFFFFFFFFULL) << 1);
            if (m != 0) {
                mask[w] = m;
                idx.markWord(w);
            }
        }
    }
}

PauliString
CliffordTableau::conjugate(const PauliString &p) const
{
    assert(p.numQubits() == numQubits_);

    // The result is the ordered product of the selected rows. Writing
    // each Hermitian row R_j = (-1)^{s_j} i^{|x_j & z_j|} X^{x_j} Z^{z_j}
    // and normal-ordering the product gives the closed form
    //
    //   phase = 2.sum s_j + sum_j |x_j & z_j| + 2.sum_{j<l} (z_j . x_l)
    //           - |A & B|  + p.phase + |p.x & p.z|          (mod 4)
    //
    // with A = xor of x_j, B = xor of z_j — exactly the phase the
    // row-major reference accumulates with sequential multiplications.
    uint64_t mask_small[16]; // stack mask up to 512 qubits
    std::vector<uint64_t> mask_heap;
    uint64_t *mask = mask_small;
    if (words_ > 16) {
        mask_heap.resize(words_);
        mask = mask_heap.data();
    }
    SupportIndex idx;
    buildRowMask(p, mask, idx);

    uint32_t selected = 0;
    idx.forEachWord([&](uint32_t w) { selected += popcnt(mask[w]); });

    uint64_t phase_acc = p.phase();
    for (uint32_t w = 0; w < p.numWords(); ++w)
        phase_acc += popcnt(p.xWords()[w] & p.zWords()[w]); // one i per Y

    if (selected == 0) {
        PauliString result(numQubits_);
        result.setPhase(static_cast<uint8_t>(phase_acc & 3));
        return result;
    }

    if (selected <= sparseConjugateRowLimit(numQubits_)) {
        // Gather/multiply path: identical to the reference row walk.
        // The index walk visits only the occupied mask words, in the
        // ascending order the phase accounting requires.
        PauliString result(numQubits_);
        idx.forEachWord([&](uint32_t w) {
            uint64_t bits = mask[w];
            while (bits) {
                const int b = std::countr_zero(bits);
                bits &= bits - 1;
                result.mulRight(
                    rowAt(64 * w + static_cast<uint32_t>(b)));
            }
        });
        result.setPhase(
            static_cast<uint8_t>((result.phase() + phase_acc) & 3));
        return result;
    }

    // Dense lone conjugate: column-parallel pass with the closed-form
    // phase. Per column it folds the selected x/z bits, counts Ys, and
    // accumulates the ordered-pair parity (prefix-XOR within words,
    // running z parity across words). A transpose to row-major (the
    // batch walk) cannot win here — its fixed cost is the same
    // O(n . W) as this whole pass — so the transpose only pays off when
    // amortized over a batch; conjugateBatch makes that call (see
    // kMinBatchForTranspose). The column pass scans every word, so
    // materialize the zeros buildRowMask skipped (O(words_),
    // negligible against the pass).
    for (uint32_t w = 0; w < words_; ++w) {
        if (!idx.hasWord(w))
            mask[w] = 0;
    }
    PauliString result(numQubits_);
    uint32_t sign_rows = 0;  // rows contributing -1
    uint64_t y_rows = 0;     // sum of per-row |x_j & z_j|
    uint64_t y_result = 0;   // |A & B|
    uint64_t pair_fold = 0;  // XOR-fold of the per-word pair contributions
    idx.forEachWord(
        [&](uint32_t w) { sign_rows += popcnt(signs_[w] & mask[w]); });

    for (uint32_t c = 0; c < numQubits_; ++c) {
        const uint64_t *xc = &x_[c * words_];
        const uint64_t *zc = &z_[c * words_];
        uint64_t x_fold = 0, z_fold = 0;
        uint64_t z_run = 0; // parity (0/1) of z bits in lower words
        for (uint32_t w = 0; w < words_; ++w) {
            const uint64_t ux = xc[w] & mask[w];
            const uint64_t uz = zc[w] & mask[w];
            x_fold ^= ux;
            z_fold ^= uz;
            y_rows += popcnt(ux & uz);
            // Ordered (z_j, x_l), j < l pairs: in-word via the prefix
            // scan, cross-word via the running z parity broadcast.
            pair_fold ^= ux & prefixParityExclusive(uz);
            pair_fold ^= (0 - z_run) & ux;
            z_run ^= popcnt(uz) & 1;
        }
        const auto xbit = static_cast<uint8_t>(popcnt(x_fold) & 1);
        const auto zbit = static_cast<uint8_t>(popcnt(z_fold) & 1);
        if (xbit | zbit)
            result.setOp(c, static_cast<PauliOp>(
                                static_cast<uint8_t>(xbit | (zbit << 1))));
        y_result += xbit & zbit;
    }

    const uint64_t pair_parity = popcnt(pair_fold) & 1;
    phase_acc += 2 * (sign_rows & 1) + y_rows + 2 * pair_parity +
                 3 * (y_result & 3); // 3 == -1 mod 4
    result.setPhase(static_cast<uint8_t>(phase_acc & 3));
    return result;
}

CliffordTableau::RowMajor &
CliffordTableau::rowMajorScratch()
{
    thread_local RowMajor scratch;
    return scratch;
}

void
CliffordTableau::buildRowMajor(RowMajor &out) const
{
    const uint32_t rw = wordsForColumns(numQubits_);
    const uint32_t stride = 2 * rw;
    // The tile scatter below overwrites every word (all 64 rows of
    // every row block, all rw column words), so no zero-fill is
    // needed.
    out.rowWords = rw;
    out.xz.resize(64 * static_cast<size_t>(words_) * stride);
    out.yCount.assign(2 * static_cast<size_t>(numQubits_), 0);

    // Columns go 32 at a time: one 64-word tile holds the x words of 32
    // columns in its low half and their z words in its high half, so
    // one transpose yields, per row, those columns' x bits in the low
    // 32 bits and their z bits in the high 32. A register of up to 32
    // qubits thus needs one transpose per row block, not two.
    uint64_t tile[64];
    for (uint32_t c0 = 0; c0 < numQubits_; c0 += 32) {
        const uint32_t cb = c0 / 64;
        const uint32_t shift = c0 % 64; // 0: first half of the word
        const uint32_t cols = numQubits_ - c0 < 32 ? numQubits_ - c0 : 32;
        for (uint32_t w = 0; w < words_; ++w) {
            // Gather the column words covering rows [64w, 64w+63],
            // transpose, scatter into the row words; the per-row Y
            // counts accumulate while the tile is in registers.
            for (uint32_t j = 0; j < cols; ++j) {
                tile[j] = x_[(c0 + j) * static_cast<size_t>(words_) + w];
                tile[32 + j] = z_[(c0 + j) * static_cast<size_t>(words_) + w];
            }
            for (uint32_t j = cols; j < 32; ++j) {
                tile[j] = 0;
                tile[32 + j] = 0;
            }
            transpose64(tile);
            const uint32_t r0 = 64 * w;
            const uint32_t rows =
                2 * numQubits_ - r0 < 64 ? 2 * numQubits_ - r0 : 64;
            for (uint32_t i = 0; i < 64; ++i) {
                uint64_t *row =
                    &out.xz[(static_cast<size_t>(r0) + i) * stride];
                const uint64_t xs = (tile[i] & 0xFFFFFFFFULL) << shift;
                const uint64_t zs = (tile[i] >> 32) << shift;
                // The first half of a word assigns, the second ORs in.
                row[cb] = shift != 0 ? row[cb] | xs : xs;
                row[rw + cb] = shift != 0 ? row[rw + cb] | zs : zs;
            }
            for (uint32_t i = 0; i < rows; ++i)
                out.yCount[r0 + i] = static_cast<uint8_t>(
                    (out.yCount[r0 + i] +
                     popcnt(tile[i] & (tile[i] >> 32))) &
                    3);
        }
    }
}

void
CliffordTableau::conjugateViaRows(const RowMajor &rm, PauliString &p,
                                  uint64_t *mask, SupportIndex &idx,
                                  uint64_t *kscratch, uint64_t *out_x,
                                  uint64_t *out_z) const
{
    assert(p.numQubits() == numQubits_);
    buildRowMask(p, mask, idx);

    // Same closed form as the dense path header comment; the ordered
    // (z_j, x_l) pair parity is accumulated per multiplied row l as
    // parity(Zacc & x_l) with Zacc the XOR of all earlier rows' z bits
    // (parities fold across rows and words because popcount(a ^ b) ==
    // popcount(a) + popcount(b) mod 2). The row walk skips unoccupied
    // mask words via the index.
    uint64_t phase_acc = p.phase();
    for (uint32_t w = 0; w < p.numWords(); ++w)
        phase_acc += popcnt(p.xWords()[w] & p.zWords()[w]); // one i per Y

    const uint32_t rw = rm.rowWords;
    const auto walk = rw == 1   ? walkRows<1>
                      : rw == 2 ? walkRows<2>
                      : rw == 3 ? walkRows<3>
                      : rw == 4 ? walkRows<4>
                                : walkRows<0>;
    const RowWalk r = walk(rm.xz.data(), rw, rm.yCount.data(),
                           signs_.data(), mask, idx, kscratch, out_x, out_z);

    phase_acc += 2 * (r.signRows & 1) + r.yRows +
                 2 * (r.pairParity & 1) +
                 3ULL * (r.yResult & 3); // 3 == -1 mod 4
    p.assignWords(std::span<const uint64_t>(out_x, rw),
                  std::span<const uint64_t>(out_z, rw),
                  static_cast<uint8_t>(phase_acc & 3));
}

void
CliffordTableau::conjugateBatch(std::span<PauliString> terms) const
{
    // Below this size the transpose cannot amortize (its fixed cost is
    // roughly two dense conjugations), so tiny batches take the
    // per-term paths instead.
    constexpr size_t kMinBatchForTranspose = 3;
    if (terms.size() < kMinBatchForTranspose) {
        for (PauliString &term : terms)
            term = conjugate(term);
        return;
    }
    RowMajor &rm = rowMajorScratch();
    buildRowMajor(rm);

    // Scratch: mask + walk accumulators + result halves. The mask
    // array is deliberately left dirty between terms — the support
    // index tracks which words are live.
    const uint32_t rw = rm.rowWords;
    std::vector<uint64_t> scratch(static_cast<size_t>(words_) +
                                  5 * static_cast<size_t>(rw));
    SupportIndex idx;
    uint64_t *mask = scratch.data();
    uint64_t *kscratch = mask + words_;
    uint64_t *out_x = kscratch + 3 * static_cast<size_t>(rw);
    uint64_t *out_z = out_x + rw;
    for (PauliString &term : terms)
        conjugateViaRows(rm, term, mask, idx, kscratch, out_x, out_z);
}

void
CliffordTableau::prependGate(const Gate &g)
{
    // T'(P) = T(g P g~): only generators touching g's qubits change.
    // The conjugated generators are low weight, so the sparse conjugate
    // path evaluates them; rows are rewritten afterwards.
    uint32_t qubits[2] = { g.q0, 0 };
    uint32_t num_qubits = 1;
    if (isTwoQubit(g.type))
        qubits[num_qubits++] = g.q1;

    uint32_t rows[4];
    PauliString new_rows[4];
    uint32_t count = 0;
    QuantumCircuit one(numQubits_);
    one.append(g);
    for (uint32_t i = 0; i < num_qubits; ++i) {
        for (const bool is_z : { false, true }) {
            PauliString generator(numQubits_);
            generator.setOp(qubits[i], is_z ? PauliOp::Z : PauliOp::X);
            one.conjugatePauli(generator);
            new_rows[count] = conjugate(generator);
            rows[count] = 2 * qubits[i] + (is_z ? 1u : 0u);
            ++count;
        }
    }
    for (uint32_t i = 0; i < count; ++i)
        setRow(rows[i], new_rows[i]);
}

void
CliffordTableau::composeWith(const CliffordTableau &other)
{
    assert(other.numQubits_ == numQubits_);
    // (other . U) P (other . U)~ = other(U(P)): conjugate all 2n rows
    // through `other` as one batch so its transpose is built once.
    std::vector<PauliString> rows;
    rows.reserve(2 * static_cast<size_t>(numQubits_));
    for (uint32_t r = 0; r < 2 * numQubits_; ++r)
        rows.push_back(rowAt(r));
    other.conjugateBatch(rows);
    for (uint32_t r = 0; r < 2 * numQubits_; ++r)
        setRow(r, rows[r]);
}

CliffordTableau
CliffordTableau::inverse() const
{
    return fromCircuit(toCircuit().inverse());
}

bool
CliffordTableau::isIdentity() const
{
    // Allocation-free scan (the old identity-tableau comparison built
    // three full-size vectors per call): identity means all signs +,
    // and column c holds exactly the diagonal bits — row 2c in x and
    // row 2c+1 in z, which always share one word since 2c is even.
    for (const uint64_t w : signs_)
        if (w != 0)
            return false;
    for (uint32_t c = 0; c < numQubits_; ++c) {
        const uint64_t *xc = &x_[static_cast<size_t>(c) * words_];
        const uint64_t *zc = &z_[static_cast<size_t>(c) * words_];
        const uint32_t diag_word = (2 * c) >> 6;
        for (uint32_t w = 0; w < words_; ++w) {
            const uint64_t want_x =
                w == diag_word ? 1ULL << ((2 * c) & 63) : 0;
            const uint64_t want_z =
                w == diag_word ? 1ULL << ((2 * c + 1) & 63) : 0;
            if (xc[w] != want_x || zc[w] != want_z)
                return false;
        }
    }
    return true;
}

bool
CliffordTableau::operator==(const CliffordTableau &other) const
{
    return numQubits_ == other.numQubits_ && x_ == other.x_ &&
           z_ == other.z_ && signs_ == other.signs_;
}

QuantumCircuit
CliffordTableau::toCircuit() const
{
    // Reduce a working copy to the identity tableau while recording the
    // appended gates; the circuit is then the reversed, inverted record.
    // Mirrors the row-major reference elimination step for step, so the
    // emitted gate sequence is identical for equal tableaux.
    CliffordTableau work = *this;
    std::vector<Gate> record;

    auto emit = [&](const Gate &g) {
        work.appendGate(g);
        record.push_back(g);
    };

    const uint32_t n = numQubits_;
    for (uint32_t q = 0; q < n; ++q) {
        const uint32_t rx = 2 * q;
        const uint32_t rz = 2 * q + 1;
        // --- Step A: reduce imageX(q) to +-X_q. ---
        {
            // Find a pivot with an x bit; fall back to a z bit + H.
            uint32_t pivot = n;
            for (uint32_t j = q; j < n; ++j) {
                if (work.xBitRC(rx, j)) {
                    pivot = j;
                    break;
                }
            }
            if (pivot == n) {
                for (uint32_t j = q; j < n; ++j) {
                    if (work.zBitRC(rx, j)) {
                        emit({ GateType::H, j });
                        pivot = j;
                        break;
                    }
                }
            }
            assert(pivot < n && "tableau is not invertible");
            if (pivot != q)
                emit({ GateType::Swap, q, pivot });
            if (work.opRC(rx, q) == PauliOp::Y)
                emit({ GateType::S, q });
            // Clear remaining support.
            for (uint32_t j = 0; j < n; ++j) {
                if (j == q)
                    continue;
                const PauliOp op = work.opRC(rx, j);
                if (op == PauliOp::I)
                    continue;
                if (op == PauliOp::Z) {
                    emit({ GateType::H, j });
                } else if (op == PauliOp::Y) {
                    emit({ GateType::S, j });
                }
                emit({ GateType::CX, q, j });
            }
        }

        // --- Step B: reduce imageZ(q) to +-Z_q, preserving X_q. ---
        {
            // Position q anticommutes with X_q, so it is Z or Y there.
            if (work.opRC(rz, q) == PauliOp::Y) {
                // sqrt(X) maps Y -> Z while fixing X.
                emit({ GateType::SX, q });
            }
            for (uint32_t j = 0; j < n; ++j) {
                if (j == q)
                    continue;
                const PauliOp op = work.opRC(rz, j);
                if (op == PauliOp::I)
                    continue;
                if (op == PauliOp::X) {
                    emit({ GateType::H, j });
                } else if (op == PauliOp::Y) {
                    emit({ GateType::S, j }); // Y -> -X
                    emit({ GateType::H, j }); // X -> Z
                }
                emit({ GateType::CX, j, q });
            }
        }

        assert(work.rowAt(rx).equalsUpToPhase([&] {
            PauliString e(n);
            e.setOp(q, PauliOp::X);
            return e;
        }()));
    }

    // --- Fix signs with a final Pauli layer. ---
    for (uint32_t q = 0; q < n; ++q) {
        if (work.signBit(2 * q))
            emit({ GateType::Z, q });
        if (work.signBit(2 * q + 1))
            emit({ GateType::X, q });
    }
    assert(work.isIdentity());

    // work = g_k ... g_1 . U = I, so U = g_1~ ... g_k~; in circuit time
    // order that is g_k~ first.
    QuantumCircuit qc(n);
    for (size_t i = record.size(); i-- > 0;) {
        Gate g = record[i];
        g.type = inverseType(g.type);
        qc.append(g);
    }
    return qc;
}

} // namespace quclear
