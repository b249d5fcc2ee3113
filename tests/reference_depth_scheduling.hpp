/**
 * @file
 * Test-only reference for DepthScheduling: the all-pairs commutation
 * DAG (an edge from every earlier non-commuting gate on a shared wire)
 * with the same priority and level rules. It is quadratic in the gate
 * count and exists so the library's run-reduced builder can be checked
 * bit for bit against the obvious construction.
 */
#ifndef QUCLEAR_TESTS_REFERENCE_DEPTH_SCHEDULING_HPP
#define QUCLEAR_TESTS_REFERENCE_DEPTH_SCHEDULING_HPP

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "transpile/pass.hpp"

namespace quclear {

/** Reference implementation of DepthScheduling::schedule. */
inline QuantumCircuit
referenceDepthSchedule(const QuantumCircuit &qc)
{
    const auto &gates = qc.gates();
    const size_t n_gates = gates.size();

    std::vector<std::vector<size_t>> succs(n_gates);
    std::vector<uint32_t> indeg(n_gates, 0);
    std::vector<std::vector<size_t>> per_qubit(qc.numQubits());
    for (size_t j = 0; j < n_gates; ++j) {
        const Gate &gj = gates[j];
        const uint32_t qubits[2] = { gj.q0, gj.q1 };
        const int nq = isTwoQubit(gj.type) && gj.q1 != gj.q0 ? 2 : 1;
        for (int k = 0; k < nq; ++k) {
            for (size_t i : per_qubit[qubits[k]]) {
                if (gatesCommute(gates[i], gj))
                    continue;
                if (std::find(succs[i].begin(), succs[i].end(), j) ==
                    succs[i].end()) {
                    succs[i].push_back(j);
                    ++indeg[j];
                }
            }
        }
        for (int k = 0; k < nq; ++k)
            per_qubit[qubits[k]].push_back(j);
    }

    std::vector<uint32_t> priority(n_gates, 0);
    for (size_t i = n_gates; i-- > 0;) {
        uint32_t best = 0;
        for (size_t j : succs[i])
            best = std::max(best, priority[j]);
        priority[i] = best + (isTwoQubit(gates[i].type) ? 1 : 0);
    }

    // Level loop kept as first written: newly ready gates are merged
    // into the next level by membership scans.
    std::vector<Gate> scheduled;
    std::vector<size_t> ready;
    for (size_t i = 0; i < n_gates; ++i)
        if (indeg[i] == 0)
            ready.push_back(i);
    while (scheduled.size() < n_gates) {
        std::sort(ready.begin(), ready.end(), [&](size_t a, size_t b) {
            if (priority[a] != priority[b])
                return priority[a] > priority[b];
            return a < b;
        });
        std::vector<bool> busy(qc.numQubits(), false);
        std::vector<size_t> next_ready;
        std::vector<size_t> level;
        for (size_t i : ready) {
            const Gate &g = gates[i];
            const bool two = isTwoQubit(g.type);
            if (busy[g.q0] || (two && busy[g.q1])) {
                next_ready.push_back(i);
                continue;
            }
            if (two) {
                busy[g.q0] = true;
                busy[g.q1] = true;
            }
            level.push_back(i);
        }
        for (size_t i : level) {
            scheduled.push_back(gates[i]);
            for (size_t j : succs[i])
                if (--indeg[j] == 0)
                    ready.push_back(j);
        }
        for (size_t idx : ready) {
            const bool in_level =
                std::find(level.begin(), level.end(), idx) != level.end();
            const bool in_next =
                std::find(next_ready.begin(), next_ready.end(), idx) !=
                next_ready.end();
            if (!in_level && !in_next)
                next_ready.push_back(idx);
        }
        ready = std::move(next_ready);
    }

    QuantumCircuit rebuilt(qc.numQubits());
    for (const Gate &g : scheduled)
        rebuilt.append(g);
    return rebuilt;
}

} // namespace quclear

#endif // QUCLEAR_TESTS_REFERENCE_DEPTH_SCHEDULING_HPP
