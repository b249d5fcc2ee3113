/**
 * @file
 * Phase-tracked n-qubit Pauli string with packed bit representation.
 *
 * A PauliString represents i^phase . s_0 (x) s_1 (x) ... (x) s_{n-1} where
 * each s_q is an atomic single-qubit Pauli (I, X, Y, or Z). The x and z
 * bits of all qubits are packed into 64-bit words, so commutation checks
 * and multiplications run word-parallel.
 *
 * Label convention (matches Qiskit and the paper's figures): the leftmost
 * character of a label corresponds to the highest qubit index. "ZY" on two
 * qubits means Z on qubit 1 and Y on qubit 0.
 */
#ifndef QUCLEAR_PAULI_PAULI_STRING_HPP
#define QUCLEAR_PAULI_PAULI_STRING_HPP

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pauli/pauli_op.hpp"
#include "util/support_index.hpp"

namespace quclear {

/**
 * An n-qubit Pauli string with a global phase i^k, k in {0,1,2,3}.
 *
 * Clifford conjugation of a Hermitian string always yields phase 0 or 2
 * (sign +1 / -1); multiplication of two strings may produce any k.
 */
class PauliString
{
  public:
    /** The identity string on zero qubits. */
    PauliString() : numQubits_(0), phase_(0) {}

    /** Identity string on n qubits. */
    explicit PauliString(uint32_t num_qubits);

    /**
     * Parse a label such as "XIZY" or "-XIZY" or "+ZZ".
     * The leftmost Pauli character acts on qubit (n-1).
     * @throws std::invalid_argument on malformed labels.
     */
    static PauliString fromLabel(const std::string &label);

    /** Number of qubits. */
    uint32_t numQubits() const { return numQubits_; }

    /** Operator acting on qubit q. */
    PauliOp op(uint32_t q) const;

    /** Set the operator acting on qubit q. */
    void setOp(uint32_t q, PauliOp op);

    /** x bit of qubit q. */
    bool xBit(uint32_t q) const;

    /** z bit of qubit q. */
    bool zBit(uint32_t q) const;

    /** Global phase exponent k in i^k, 0 <= k < 4. */
    uint8_t phase() const { return phase_; }

    /** Set the global phase exponent (mod 4). */
    void setPhase(uint8_t k) { phase_ = k & 3; }

    /**
     * Sign of a Hermitian string: +1 for phase 0, -1 for phase 2.
     * Asserts that the phase is real.
     */
    int sign() const;

    /** Number of non-identity positions. */
    uint32_t weight() const;

    /** Indices of qubits with a non-identity operator, ascending. */
    std::vector<uint32_t> support() const;

    /** @name Word-level access (bit-sliced tableau engine, hot loops).
     * The packed x/z words cover qubits [64w, 64w+63]; bits past
     * numQubits() are always zero.
     * @{ */
    uint32_t numWords() const { return static_cast<uint32_t>(x_.size()); }
    std::span<const uint64_t> xWords() const { return x_; }
    std::span<const uint64_t> zWords() const { return z_; }

    /**
     * Overwrite all packed words and the phase in one call (the batch
     * conjugation kernel writes results through this instead of n setOp
     * calls). Spans must hold exactly numWords() entries with every bit
     * past numQubits() zero.
     */
    void assignWords(std::span<const uint64_t> x, std::span<const uint64_t> z,
                     uint8_t phase);

    /**
     * XOR @p x and @p z into packed word @p w, phase untouched. Bits
     * past numQubits() must stay zero.
     */
    void xorWords(uint32_t w, uint64_t x, uint64_t z)
    {
        x_[w] ^= x;
        z_[w] ^= z;
    }
    /** @} */

    /**
     * Visit every non-identity position in ascending qubit order without
     * materializing a support vector: fn(qubit, op). Allocation-free; the
     * extraction hot path uses this instead of support().
     */
    template <typename Fn>
    void forEachSupport(Fn &&fn) const
    {
        for (size_t w = 0; w < x_.size(); ++w) {
            uint64_t bits = x_[w] | z_[w];
            while (bits) {
                const int b = std::countr_zero(bits);
                bits &= bits - 1;
                const uint8_t code =
                    static_cast<uint8_t>(((x_[w] >> b) & 1) |
                                         (((z_[w] >> b) & 1) << 1));
                fn(static_cast<uint32_t>(w * 64 + static_cast<size_t>(b)),
                   static_cast<PauliOp>(code));
            }
        }
    }

    /**
     * Record which packed words carry a non-identity position into the
     * reusable occupancy index (clears @p idx first). Pairing this with
     * the index-driven forEachSupport overload lets wide-register
     * callers iterate only occupied words of very sparse strings.
     */
    void buildSupportIndex(SupportIndex &idx) const
    {
        idx.clear();
        for (size_t w = 0; w < x_.size(); ++w)
            if ((x_[w] | z_[w]) != 0)
                idx.markWord(static_cast<uint32_t>(w));
    }

    /**
     * Index-driven variant of forEachSupport: visits only the words
     * flagged in @p idx (which must have been built from THIS string by
     * buildSupportIndex, or a superset of its occupancy). Ascending
     * qubit order, same callback shape.
     */
    template <typename Fn>
    void forEachSupport(const SupportIndex &idx, Fn &&fn) const
    {
        idx.forEachWord([&](uint32_t w) {
            uint64_t bits = x_[w] | z_[w];
            while (bits) {
                const int b = std::countr_zero(bits);
                bits &= bits - 1;
                const uint8_t code =
                    static_cast<uint8_t>(((x_[w] >> b) & 1) |
                                         (((z_[w] >> b) & 1) << 1));
                fn(static_cast<uint32_t>(64 * w +
                                         static_cast<uint32_t>(b)),
                   static_cast<PauliOp>(code));
            }
        });
    }

    /** True iff every position is the identity (phase ignored). */
    bool isIdentity() const;

    /** True iff the two strings commute (phases ignored). */
    bool commutesWith(const PauliString &other) const;

    /** True iff all operators are Z or I. */
    bool isZOnly() const;

    /** True iff all operators are X or I. */
    bool isXOnly() const;

    /**
     * In-place multiplication: *this = (*this) . rhs, with exact phase
     * tracking. Both strings must have the same qubit count.
     */
    void mulRight(const PauliString &rhs);

    /** In-place multiplication from the left: *this = lhs . (*this). */
    void mulLeft(const PauliString &lhs);

    /** @name Heisenberg-picture Clifford conjugation, P -> G P G~.
     * These update the string in place, tracking the sign exactly.
     * @{ */
    void applyH(uint32_t q);
    void applyS(uint32_t q);
    void applySdg(uint32_t q);
    void applyX(uint32_t q);
    void applyY(uint32_t q);
    void applyZ(uint32_t q);
    void applySqrtX(uint32_t q);    //!< V = e^{-i pi X / 4} conjugation
    void applySqrtXdg(uint32_t q);
    void applyCX(uint32_t control, uint32_t target);
    void applyCZ(uint32_t a, uint32_t b);
    void applySwap(uint32_t a, uint32_t b);
    /** @} */

    /** Label with sign prefix when the phase is nonzero, e.g. "-XIZY". */
    std::string toLabel() const;

    /** Equality includes the phase. */
    bool operator==(const PauliString &other) const;
    bool operator!=(const PauliString &other) const { return !(*this == other); }

    /** True iff the bit patterns match, regardless of phase. */
    bool equalsUpToPhase(const PauliString &other) const;

    /** Hash over bits and phase, usable with std::unordered_map. */
    size_t hash() const;

  private:
    static uint32_t wordsFor(uint32_t n) { return (n + 63) / 64; }

    uint32_t numQubits_;
    uint8_t phase_; // exponent of i, mod 4
    std::vector<uint64_t> x_;
    std::vector<uint64_t> z_;
};

/** Hash functor so PauliString can key unordered containers. */
struct PauliStringHash
{
    size_t operator()(const PauliString &p) const { return p.hash(); }
};

} // namespace quclear

#endif // QUCLEAR_PAULI_PAULI_STRING_HPP
