/**
 * @file
 * Clifford Absorption pre-processing (CA-Pre module, Sec. VI).
 *
 * Observable mode: every Pauli observable O is replaced by
 * O' = U_CL~ O U_CL via the extraction tableau, and a single-qubit basis
 * change is appended so O' can be read out with Z-basis measurements.
 *
 * Probability mode: the tail is reduced to H layer + CNOT network
 * (Prop. 1); only the H layer is appended to the device circuit, the
 * network is handed to CA-Post for classical XOR post-processing.
 */
#ifndef QUCLEAR_CORE_ABSORPTION_PRE_HPP
#define QUCLEAR_CORE_ABSORPTION_PRE_HPP

#include <cstdint>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "core/clifford_extractor.hpp"
#include "core/qaoa_reduction.hpp"
#include "pauli/pauli_string.hpp"

namespace quclear {

/** One observable after absorption. */
struct AbsorbedObservable
{
    PauliString original;

    /** O' = U_CL~ O U_CL; its phase carries the +-1 sign. */
    PauliString transformed;

    /** +1 or -1: expectation of the original = sign x expectation of O'. */
    int sign = 1;

    /**
     * Single-qubit gates appended before Z-basis measurement so that the
     * measured bit parity over measuredQubits samples O'.
     */
    QuantumCircuit basisChange;

    /** Support of O': qubits whose outcome bits enter the parity. */
    std::vector<uint32_t> measuredQubits;
};

/** Result of CA-Pre in probability mode. */
struct ProbabilityAbsorption
{
    /**
     * Circuit to execute on the device: the optimized circuit plus the
     * residual H layer from the Prop. 1 reduction.
     */
    QuantumCircuit deviceCircuit;

    /** Classical remainder (CNOT network + bit-flip corrections). */
    ReducedClifford reduction;
};

/**
 * Absorb the extracted Clifford into a set of Pauli observables.
 * The observables are split into one contiguous chunk per worker of
 * @p threads (0 = hardware concurrency, 1 = sequential); each chunk
 * runs as one batch through the conjugator tableau (one tableau
 * transpose per chunk) and then builds its observables' measurement
 * bases. The result is identical for every thread count. Runtime
 * O(k n^2 / 64) for k observables (Sec. VI-A).
 */
std::vector<AbsorbedObservable>
absorbObservables(const ExtractionResult &extraction,
                  const std::vector<PauliString> &observables,
                  uint32_t threads = 1);

/**
 * Full measurement circuit for one absorbed observable: the optimized
 * circuit followed by the observable's basis change.
 */
QuantumCircuit measurementCircuit(const ExtractionResult &extraction,
                                  const AbsorbedObservable &obs);

/**
 * Absorb the extracted Clifford into computational-basis probability
 * measurements. Requires the tail to have the Prop. 1 structure (true
 * for QAOA programs); asserts otherwise.
 */
ProbabilityAbsorption
absorbProbabilities(const ExtractionResult &extraction);

} // namespace quclear

#endif // QUCLEAR_CORE_ABSORPTION_PRE_HPP
