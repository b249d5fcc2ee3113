/**
 * @file
 * Row-major reference tableau — the seed implementation, kept verbatim.
 *
 * This is the original Aaronson-Gottesman style tableau that stores the
 * 2n generator images as heap-allocated PauliString rows, so a gate
 * append walks all 2n rows (O(n) object touches) and conjugation
 * multiplies the selected rows sequentially. The production engine is
 * the bit-sliced CliffordTableau (see clifford_tableau.hpp); this class
 * exists as the independent oracle for the randomized cross-check suite
 * (test_tableau_packed) and as the baseline the bench_micro tableau
 * microbenchmarks measure speedups against. Do not use it on hot paths.
 */
#ifndef QUCLEAR_TABLEAU_REFERENCE_TABLEAU_HPP
#define QUCLEAR_TABLEAU_REFERENCE_TABLEAU_HPP

#include <cstdint>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "pauli/pauli_string.hpp"

namespace quclear {

/** Row-major unitary Clifford tableau over n qubits (reference oracle). */
class ReferenceTableau
{
  public:
    /** Identity tableau on n qubits. */
    explicit ReferenceTableau(uint32_t num_qubits);

    /** Build the tableau of an entire Clifford circuit. */
    static ReferenceTableau fromCircuit(const QuantumCircuit &qc);

    uint32_t numQubits() const { return numQubits_; }

    /** Image of X_q under conjugation by the accumulated unitary. */
    const PauliString &imageX(uint32_t q) const { return rowX_[q]; }

    /** Image of Z_q under conjugation by the accumulated unitary. */
    const PauliString &imageZ(uint32_t q) const { return rowZ_[q]; }

    /** @name Append a gate: U <- g . U. Each walks all 2n rows. @{ */
    void appendH(uint32_t q);
    void appendS(uint32_t q);
    void appendSdg(uint32_t q);
    void appendX(uint32_t q);
    void appendY(uint32_t q);
    void appendZ(uint32_t q);
    void appendSqrtX(uint32_t q);
    void appendSqrtXdg(uint32_t q);
    void appendCX(uint32_t control, uint32_t target);
    void appendCZ(uint32_t a, uint32_t b);
    void appendSwap(uint32_t a, uint32_t b);
    void appendGate(const Gate &g);
    void appendCircuit(const QuantumCircuit &qc);
    /** @} */

    /** Prepend a gate: U <- U . g (see CliffordTableau::prependGate). */
    void prependGate(const Gate &g);

    /** Conjugate a Pauli string: returns U P U~ with exact phase. */
    PauliString conjugate(const PauliString &p) const;

    /** True iff this tableau is the identity map (all signs +). */
    bool isIdentity() const;

    /** Compose: first this map, then @p other (U <- other.U). */
    void composeWith(const ReferenceTableau &other);

    /** The inverse tableau (U~), via synthesis + inverted replay. */
    ReferenceTableau inverse() const;

    /** Canonical H/S/CX synthesis by symplectic Gaussian elimination. */
    QuantumCircuit toCircuit() const;

    bool operator==(const ReferenceTableau &other) const;
    bool operator!=(const ReferenceTableau &other) const
    {
        return !(*this == other);
    }

  private:
    uint32_t numQubits_;
    std::vector<PauliString> rowX_;
    std::vector<PauliString> rowZ_;
};

} // namespace quclear

#endif // QUCLEAR_TABLEAU_REFERENCE_TABLEAU_HPP
