/**
 * @file
 * Output oracles of the benchmark. None of them reuses the code path
 * that produced the output it checks:
 *
 * - compile: U' followed by U_CL is rewritten as a Pauli program with
 *   circuitToPauliProgram, after splitting back out the Clifford phases
 *   that local optimization folds into Rz angles (splitFoldedPhases);
 *   it must be the identity Clifford plus the input's rotations (a multiset of sign-normalised Paulis, angles
 *   summed mod 2 pi), and the conjugator must invert the tail on seeded
 *   random Paulis (the tail is walked gate by gate with
 *   PauliString::apply*, not through a tableau);
 * - observable absorption: each O' is the tail pull-back of O, its sign
 *   is the pull-back's, and the basis change maps it to +Z on exactly
 *   the measured qubits;
 * - probability absorption: the H layer, the reduced CNOT network and
 *   the bit-flip corrections pull every Z_q back to the same Pauli as
 *   the tail does, and remapped counts match a bit-level replay of the
 *   network circuit;
 * - noise Monte-Carlo: the estimate lies within kNoiseSigmas standard
 *   errors of the exact ideal * prod_j (1 - 2 q_j), with q_j taken from
 *   the pulled-back observable's letters at every fault site.
 *
 * Every check returns an empty string on success and a reason otherwise.
 */
#ifndef PERFBENCH_ORACLES_HPP
#define PERFBENCH_ORACLES_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "core/quclear.hpp"
#include "pauli/pauli_string.hpp"
#include "pauli/pauli_term.hpp"
#include "sim/noise_model.hpp"

namespace perfbench {

using Counts = std::map<uint64_t, uint64_t>;

/** p <- g p g~ for a Clifford gate, through PauliString::apply*. */
void conjugateByGate(quclear::PauliString &p, const quclear::Gate &g);

/** U p U~ for a Clifford circuit U (gates applied in circuit order). */
quclear::PauliString conjugateThrough(const quclear::QuantumCircuit &c,
                                      quclear::PauliString p);

/** U~ p U for a Clifford circuit U (the Heisenberg pull-back). */
quclear::PauliString pullBackThrough(const quclear::QuantumCircuit &c,
                                     quclear::PauliString p);

/** Uniformly random non-identity Pauli string with phase 0. */
quclear::PauliString randomPauli(uint32_t n, quclear::Rng &rng);

/**
 * Rewrite every Rz(theta) of @p circuit as Rz(theta_base) followed by
 * S^m, where theta_base is the angle of the matching input rotation:
 * local optimization folds Clifford phase gates into rotation angles,
 * which shifts them by multiples of pi/2 without changing the unitary.
 * Sets @p why when a rotation matches no input angle.
 */
quclear::QuantumCircuit
splitFoldedPhases(const std::vector<quclear::PauliTerm> &input,
                  const quclear::QuantumCircuit &circuit, std::string &why);

std::string checkCompile(const std::vector<quclear::PauliTerm> &input,
                         const quclear::ExtractionResult &result,
                         uint64_t probe_seed);

std::string
checkObservables(const quclear::ExtractionResult &result,
                 const std::vector<quclear::PauliString> &observables,
                 const std::vector<quclear::AbsorbedObservable> &absorbed);

std::string checkProbabilities(const quclear::ExtractionResult &result,
                               const quclear::ProbabilityAbsorption &pa,
                               const Counts &counts, const Counts &remapped);

/** Standard errors the noise estimate may lie from the exact value. */
inline constexpr double kNoiseSigmas = 5.0;

/** The exact noisy expectation of an observable after a Clifford circuit. */
struct ExactNoise
{
    /** Noise-free expectation on |0...0>: -1, 0 or +1. */
    int ideal = 0;

    /** ideal * prod_j (1 - 2 q_j). */
    double expectation = 0.0;

    /** Standard error of a shots-sample mean of +-1 outcomes. */
    double sigma = 0.0;
};

ExactNoise exactNoise(const quclear::QuantumCircuit &circuit,
                      const quclear::PauliString &observable,
                      const quclear::NoiseModel &model, size_t shots);

std::string checkNoise(double estimate, const ExactNoise &exact);

/** First field in which two extraction results differ; empty if equal. */
std::string diffExtraction(const quclear::ExtractionResult &a,
                           const quclear::ExtractionResult &b);

/** @name FNV-1a digests of outputs, for the pass-to-pass comparison. @{ */
uint64_t hashExtraction(const quclear::ExtractionResult &r, uint64_t h);
uint64_t hashAbsorbed(const std::vector<quclear::AbsorbedObservable> &a,
                      uint64_t h);
uint64_t hashProbability(const quclear::ProbabilityAbsorption &pa,
                         const Counts &remapped, uint64_t h);
inline constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;
/** @} */

} // namespace perfbench

#endif // PERFBENCH_ORACLES_HPP
