/**
 * @file
 * Phase-polynomial rotation folding: merges Z-axis rotations that act
 * on the same GF(2) parity of wire values, however far apart they sit
 * in a CX/X/Swap stream. This is the full-strength version of
 * "Rz-angle merging through CX controls": a CX re-routes parities but
 * never creates or destroys phase, so two rotations keyed by the same
 * parity always merge (e.g. CX Rz(t,a) CX ... CX Rz(t,b) CX folds a+b).
 */
#ifndef QUCLEAR_TRANSPILE_PHASE_ROTATION_FOLDING_HPP
#define QUCLEAR_TRANSPILE_PHASE_ROTATION_FOLDING_HPP

#include <cstdint>
#include <string>

#include "transpile/pass.hpp"

namespace quclear {

/**
 * Folds parity-equivalent diagonal rotations (Rz, S, Sdg, Z).
 *
 * The pass walks the circuit tracking, per wire, the affine function of
 * "symbol" values it currently carries: CX xors parities, Swap permutes
 * them, X toggles negation, CZ and other diagonal gates are transparent.
 * Any other gate (H, Rx, ...) makes the wire's value untrackable and
 * allocates a fresh symbol for it — the standard phase-folding
 * invalidation, which is what keeps merging across those seams sound.
 * Rotations with an identical parity key are summed into the first
 * occurrence (signs adjusted for negation); zero sums vanish entirely.
 * Two-qubit structure is never touched, so gate count and two-qubit
 * count never increase.
 *
 * Keys are found through a 64-bit Zobrist hash per wire (the xor of
 * its symbols' hashes, updated in O(1) per CX/Swap/invalidation) into
 * chained buckets; every bucket hit is confirmed against the group's
 * stored key, so a hash collision never merges two groups. Stored keys
 * keep only their nonzero 64-bit words.
 */
class PhaseRotationFolding : public Pass
{
  public:
    std::string name() const override { return "phase-rotation-folding"; }
    bool run(QuantumCircuit &qc) const override;
};

namespace detail {

/** Per-symbol hash feeding the folding's Zobrist wire keys. */
using SymbolHash = uint64_t (*)(uint64_t symbol);

/**
 * PhaseRotationFolding::run with the symbol hash supplied. The pass
 * uses a SplitMix64 finalizer; tests pass degenerate hashes to force
 * bucket collisions, which must not change the output.
 */
bool foldPhaseRotations(QuantumCircuit &qc, SymbolHash symbol_hash);

} // namespace detail

} // namespace quclear

#endif // QUCLEAR_TRANSPILE_PHASE_ROTATION_FOLDING_HPP
