/**
 * @file
 * Depolarizing noise model: the motivation behind all of the paper's
 * gate-count reductions is that every gate multiplies the circuit's
 * success probability by (1 - error rate). This model turns the
 * Table III metrics into estimated fidelities so the end-to-end
 * benefit is visible (see bench_fidelity), and exposes the underlying
 * Pauli channels for Monte-Carlo fault injection: on Clifford
 * circuits, sampled Pauli faults keep every trajectory a stabilizer
 * state, so noisy expectation values are simulable at scale
 * (Gottesman-Knill, the same fact Clifford Absorption exploits).
 */
#ifndef QUCLEAR_SIM_NOISE_MODEL_HPP
#define QUCLEAR_SIM_NOISE_MODEL_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "circuit/quantum_circuit.hpp"
#include "pauli/pauli_string.hpp"
#include "util/rng.hpp"

namespace quclear {

/** Per-gate depolarizing error rates (defaults ~ current superconducting
 *  hardware: 0.03% per 1q gate, 0.5% per 2q gate). */
struct NoiseModel
{
    double singleQubitError = 3e-4;
    double twoQubitError = 5e-3;

    /**
     * Estimated success probability of a circuit: the product of
     * per-gate survival probabilities (SWAPs count as 3 two-qubit
     * gates). A standard first-order fidelity proxy.
     */
    double estimatedSuccessProbability(const QuantumCircuit &qc) const;

    /**
     * Error-per-layered-gate-style log-domain cost; lower is better and
     * additive across circuit fragments.
     */
    double logInfidelity(const QuantumCircuit &qc) const;

    /**
     * Single-qubit depolarizing channel as Pauli probabilities in the
     * order {I, X, Y, Z}: {1 - p, p/3, p/3, p/3}. Sums to one.
     */
    std::array<double, 4> singleQubitChannel() const;

    /**
     * Two-qubit depolarizing channel over the 16 two-qubit Paulis:
     * index 4*b + a is (P_a on the first qubit, P_b on the second) with
     * the {I, X, Y, Z} letter order; entry 0 (II) is 1 - p, the 15
     * faults get p/15 each. Sums to one.
     */
    std::array<double, 16> twoQubitChannel() const;

    /** Draw a fault from the 1q channel (PauliOp::I = no error). */
    PauliOp sampleSingleQubitError(Rng &rng) const;

    /** Draw a fault pair from the 2q channel ({I, I} = no error). */
    std::pair<PauliOp, PauliOp> sampleTwoQubitError(Rng &rng) const;

    /**
     * Number of fault-free sites before the next fault in a run of
     * sites that each fault with probability @p p: geometric,
     * P(gap = k) = (1 - p)^k p, drawn by inversion as
     * floor(-ln(1 - U) / -ln1p(-p)) from one U = rng.uniformReal().
     * p <= 0 returns SIZE_MAX and p >= 1 returns 0, neither drawing;
     * a gap too large for size_t (tiny or subnormal p) is SIZE_MAX.
     */
    static size_t sampleFaultGap(Rng &rng, double p);

    /** Outcome of a Monte-Carlo noisy stabilizer simulation. */
    struct NoisySimResult
    {
        /** Shot-averaged expectation of the observable. */
        double expectation = 0.0;

        /** Fault locations that drew a non-identity Pauli. */
        size_t errorEvents = 0;

        /** Total fault locations sampled (gates x shots). */
        size_t faultSites = 0;
    };

    /** Shot batching and parallelism knobs of the Monte-Carlo sampler. */
    struct SamplerOptions
    {
        /** Master seed; shot s draws from Rng(shotSeed(seed, s)). */
        uint64_t seed = 1;

        /** Worker threads for the shot blocks: 0 = hardware
         *  concurrency, 1 = inline (no pool), N = exactly N. */
        uint32_t threads = 1;

        /** Shots per block (a block is the unit of parallel work and
         *  of result combination; the combine is an exact integer sum
         *  in block order, so results are bit-identical for every
         *  threads / shotBlock choice). */
        size_t shotBlock = 1024;
    };

    /**
     * Per-shot counter-based RNG stream: a SplitMix64 finalizer over
     * the master seed and shot index. Every shot's stream is
     * reproducible in isolation — the differential replay oracle in
     * tests/test_noise_model.cpp re-simulates single shots with
     * Rng(shotSeed(seed, shot)) and must land on the batched result.
     *
     * Draw order of one shot on Rng(shotSeed(seed, shot)): first the
     * one-qubit class (the 1q gates, in gate order, at rate
     * singleQubitError), then the two-qubit class (the 2q gates, Swap
     * included, at rate twoQubitError). Within a class, starting at
     * its first site: one sampleFaultGap(); if the gap lands inside
     * the class, the fault letter — uniformInt(3) over {X, Y, Z}, or
     * 1 + uniformInt(15) as the twoQubitChannel() index — and the next
     * gap starts after the faulty site. A class ends at the first gap
     * that runs past its last site, or once its last site has faulted
     * (no further draw).
     */
    static uint64_t shotSeed(uint64_t seed, uint64_t shot);

    /**
     * Shot-averaged expectation of @p observable on @p qc with a
     * sampled Pauli fault injected after every gate (depolarizing
     * channels above). The circuit must be Clifford; every trajectory
     * then stays a stabilizer state, so each shot is polynomial.
     * Deterministic for a fixed @p rng seed.
     *
     * Draws one value from @p rng for the master seed and delegates to
     * the batched overload below (single-threaded).
     */
    NoisySimResult noisyStabilizerExpectation(const QuantumCircuit &qc,
                                              const PauliString &observable,
                                              size_t shots, Rng &rng) const;

    /**
     * Batched Monte-Carlo sampler. Instead of re-simulating the
     * Clifford circuit per shot, the observable is pulled back through
     * the circuit once (Heisenberg picture): the trajectory value is
     * the ideal expectation times (-1)^k where k counts sampled faults
     * that anticommute with the pulled-back observable at their site.
     * A shot then has no simulator state at all: it draws the
     * geometric gaps between faulty sites (sampleFaultGap), so it
     * costs O(faults), not O(gates), in the draw order documented at
     * shotSeed. Shots are replayed in independent blocks (see
     * SamplerOptions) with per-shot counter-based RNG streams, so the
     * result is bit-identical for every thread count.
     */
    NoisySimResult noisyStabilizerExpectation(
        const QuantumCircuit &qc, const PauliString &observable,
        size_t shots, const SamplerOptions &options) const;
};

} // namespace quclear

#endif // QUCLEAR_SIM_NOISE_MODEL_HPP
