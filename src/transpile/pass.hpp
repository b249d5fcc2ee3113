/**
 * @file
 * Transpiler pass interface and shared gate-commutation predicate.
 *
 * These local rewrite passes stand in for the Qiskit optimization-level-3
 * pipeline the paper applies after QuCLEAR and Paulihedral. They cover
 * the same rewrite classes: two-qubit gate cancellation, single-qubit
 * fusion, Hadamard-conjugation rewrites, and commutation-aware
 * cancellation.
 */
#ifndef QUCLEAR_TRANSPILE_PASS_HPP
#define QUCLEAR_TRANSPILE_PASS_HPP

#include <cstdint>
#include <string>

#include "circuit/quantum_circuit.hpp"

namespace quclear {

/** A circuit-to-circuit rewrite. Passes must preserve the unitary. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Human-readable pass name for logging. */
    virtual std::string name() const = 0;

    /**
     * Rewrite the circuit in place.
     * @return true iff anything changed (drives fixpoint iteration)
     */
    virtual bool run(QuantumCircuit &qc) const = 0;
};

/**
 * Conservative commutation test between two gates: true only when the
 * gates provably commute. Used to move cancellation candidates past
 * intervening gates.
 */
bool gatesCommute(const Gate &a, const Gate &b);

/** True iff the gate is diagonal in the computational basis. */
bool isDiagonalGate(const Gate &g);

/**
 * Commutation class of a gate on one of its wires: the Pauli axis the
 * gate preserves there. Z covers diagonal 1q gates, the CX control and
 * both CZ wires; X covers X-axis 1q gates and the CX target; Y covers
 * Y and Ry; Other covers H and Swap.
 *
 * Two properties tie it to gatesCommute, and DepthScheduling relies on
 * both (tests/test_depth_scheduling.cpp checks them over every pair):
 *  - gates in the same class on every wire they share commute (for
 *    Other, only identical gates count as the same class);
 *  - gates in different classes on a shared wire do not commute. The
 *    one exception is Swap, which commutes with a Swap or CZ on its
 *    own qubit pair.
 */
enum class WireClass : uint8_t
{
    Z,
    X,
    Y,
    Other,
};

/** Class of @p g on wire @p q (q must be one of the gate's qubits). */
WireClass wireClass(const Gate &g, uint32_t q);

} // namespace quclear

#endif // QUCLEAR_TRANSPILE_PASS_HPP
