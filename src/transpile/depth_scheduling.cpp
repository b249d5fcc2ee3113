#include "transpile/depth_scheduling.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "circuit/circuit_stats.hpp"

namespace quclear {

namespace {

/**
 * Per-wire state of the DAG build. A run is a maximal stretch of
 * consecutive gates on the wire with the same WireClass (an Other run
 * holds identical copies of one gate). `prev` is the previous run plus
 * any earlier gates carried forward because they commute with a gate of
 * the run after them.
 */
struct WireRuns
{
    std::vector<size_t> prev;
    std::vector<uint8_t> carry; //!< prev[k] commutes with a gate of `run`
    std::vector<size_t> run;
    WireClass cls = WireClass::Other;
    std::vector<size_t> history; //!< every gate on the wire, for full scans
};

} // namespace

QuantumCircuit
DepthScheduling::schedule(const QuantumCircuit &qc)
{
    const auto &gates = qc.gates();
    const size_t n_gates = gates.size();

    // Dependency DAG with the transitive closure of "i precedes j iff
    // i < j, they share a qubit, and they do not provably commute", but
    // only a fraction of its edges. Gate j links to the non-commuting
    // gates of the previous run on each wire: gates of consecutive runs
    // never commute, so anything earlier already reaches j through the
    // runs in between. Swap breaks that (it commutes with Swap and CZ on
    // its own pair), so a gate that commutes with a run after it is
    // carried forward, and a gate that commutes with a member of its
    // `prev` set scans the whole wire history instead.
    std::vector<std::vector<size_t>> succs(n_gates);
    std::vector<uint32_t> indeg(n_gates, 0);
    {
        std::vector<WireRuns> wires(qc.numQubits());
        // Last successor linked from each gate: dedups i -> j in O(1),
        // since all links into j are made before j + 1 is processed.
        std::vector<size_t> last_succ(n_gates,
                                      std::numeric_limits<size_t>::max());
        auto link = [&](size_t i, size_t j) {
            if (last_succ[i] == j)
                return;
            last_succ[i] = j;
            succs[i].push_back(j);
            ++indeg[j];
        };
        for (size_t j = 0; j < n_gates; ++j) {
            const Gate &gj = gates[j];
            const uint32_t qubits[2] = { gj.q0, gj.q1 };
            const int nq = isTwoQubit(gj.type) && gj.q1 != gj.q0 ? 2 : 1;
            for (int k = 0; k < nq; ++k) {
                WireRuns &w = wires[qubits[k]];
                const WireClass cls = wireClass(gj, qubits[k]);
                const bool extends =
                    !w.run.empty() && cls == w.cls &&
                    (cls != WireClass::Other || gates[w.run.front()] == gj);
                if (!extends) {
                    std::vector<size_t> next = std::move(w.run);
                    for (size_t p = 0; p < w.prev.size(); ++p)
                        if (w.carry[p])
                            next.push_back(w.prev[p]);
                    w.prev = std::move(next);
                    w.carry.assign(w.prev.size(), 0);
                    w.run.clear();
                    w.cls = cls;
                }
                bool full_scan = false;
                for (size_t p = 0; p < w.prev.size(); ++p) {
                    const size_t i = w.prev[p];
                    if (gatesCommute(gates[i], gj)) {
                        w.carry[p] = 1;
                        full_scan = true;
                    } else {
                        link(i, j);
                    }
                }
                if (full_scan) {
                    for (size_t i : w.history)
                        if (!gatesCommute(gates[i], gj))
                            link(i, j);
                }
                w.run.push_back(j);
                w.history.push_back(j);
            }
        }
    }

    // Critical-path priority: longest chain of two-qubit gates from
    // each node to a sink (reverse topological DP over gate index,
    // valid since all edges go forward). Equal to the all-pairs DAG's
    // value because the closure is the same.
    std::vector<uint32_t> priority(n_gates, 0);
    for (size_t i = n_gates; i-- > 0;) {
        uint32_t best = 0;
        for (size_t j : succs[i])
            best = std::max(best, priority[j]);
        priority[i] = best + (isTwoQubit(gates[i].type) ? 1 : 0);
    }

    // List scheduling: emit ready gates longest-path-first; per level,
    // each qubit hosts at most one two-qubit gate (single-qubit gates
    // ride along for free, matching the entangling-depth metric).
    // Deferred and newly ready gates both go to the next level's list.
    QuantumCircuit scheduled(qc.numQubits());
    std::vector<size_t> ready;
    for (size_t i = 0; i < n_gates; ++i)
        if (indeg[i] == 0)
            ready.push_back(i);

    std::vector<size_t> next_ready;
    std::vector<uint8_t> busy(qc.numQubits(), 0);
    std::vector<uint32_t> touched;
    while (!ready.empty()) {
        std::sort(ready.begin(), ready.end(),
                  [&](size_t a, size_t b) {
                      if (priority[a] != priority[b])
                          return priority[a] > priority[b];
                      return a < b;
                  });
        next_ready.clear();
        for (size_t i : ready) {
            const Gate &g = gates[i];
            const bool two = isTwoQubit(g.type);
            if (busy[g.q0] || (two && busy[g.q1])) {
                next_ready.push_back(i);
                continue;
            }
            if (two) {
                busy[g.q0] = 1;
                busy[g.q1] = 1;
                touched.push_back(g.q0);
                touched.push_back(g.q1);
            }
            scheduled.append(g);
            for (size_t j : succs[i])
                if (--indeg[j] == 0)
                    next_ready.push_back(j);
        }
        for (uint32_t q : touched)
            busy[q] = 0;
        touched.clear();
        std::swap(ready, next_ready);
    }

    return scheduled;
}

bool
DepthScheduling::run(QuantumCircuit &qc) const
{
    if (qc.size() < 2)
        return false;
    QuantumCircuit rebuilt = schedule(qc);

    // Accept only improvements (the scheduler can tie; never regress).
    if (entanglingDepth(rebuilt) < entanglingDepth(qc)) {
        qc = std::move(rebuilt);
        return true;
    }
    return false;
}

} // namespace quclear
