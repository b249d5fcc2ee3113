/**
 * @file
 * Commutation-aware depth scheduling.
 *
 * Entangling depth (the Table III metric) depends on gate order even
 * among commuting gates: a gate placed early can serialize an otherwise
 * parallel chain. This pass rebuilds the circuit by critical-path list
 * scheduling over the commutation DAG — gates are emitted level by
 * level, longest-path-first — which never changes the unitary (only
 * provably commuting gates are reordered) and never increases depth.
 *
 * The DAG is run-reduced: each gate links only to the non-commuting
 * gates of the previous WireClass run on each of its wires (plus the
 * Swap carry-over described in depth_scheduling.cpp). It has the same
 * transitive closure as the all-pairs DAG, so the output is identical
 * to scheduling over every non-commuting pair, at
 * O(G·r + levels·R log R) cost (r: previous-run size, R: ready set).
 */
#ifndef QUCLEAR_TRANSPILE_DEPTH_SCHEDULING_HPP
#define QUCLEAR_TRANSPILE_DEPTH_SCHEDULING_HPP

#include "transpile/pass.hpp"

#include <string>

namespace quclear {

/** Critical-path list scheduler over the commutation DAG. */
class DepthScheduling : public Pass
{
  public:
    std::string name() const override { return "depth-scheduling"; }

    /** Replace @p qc by schedule(qc) iff that lowers entangling depth. */
    bool run(QuantumCircuit &qc) const override;

    /**
     * The list-scheduled order of @p qc, whether or not it improves
     * depth (run() adopts it only when it does).
     */
    static QuantumCircuit schedule(const QuantumCircuit &qc);
};

} // namespace quclear

#endif // QUCLEAR_TRANSPILE_DEPTH_SCHEDULING_HPP
