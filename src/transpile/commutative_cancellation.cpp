#include "transpile/commutative_cancellation.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "transpile/gate_algebra.hpp"

namespace quclear {

namespace {

bool
touches(const Gate &g, uint32_t q)
{
    return g.q0 == q || (isTwoQubit(g.type) && g.q1 == q);
}

/** Same unordered qubit pair, for the symmetric 2q gates. */
bool
samePair(const Gate &a, const Gate &b)
{
    return (a.q0 == b.q0 && a.q1 == b.q1) ||
           (a.q0 == b.q1 && a.q1 == b.q0);
}

/** 1q gates the merge scan may move forward (every axis rotation). */
bool
isMovableRotation(const Gate &g)
{
    return !isTwoQubit(g.type) && gateAxis(g.type) != GateAxis::Other;
}

} // namespace

bool
isDiagonalGate(const Gate &g)
{
    switch (g.type) {
      case GateType::Z:
      case GateType::S:
      case GateType::Sdg:
      case GateType::Rz:
      case GateType::CZ:
        return true;
      default:
        return false;
    }
}

WireClass
wireClass(const Gate &g, uint32_t q)
{
    switch (g.type) {
      case GateType::CX:
        return q == g.q0 ? WireClass::Z : WireClass::X;
      case GateType::CZ:
        return WireClass::Z;
      case GateType::Swap:
        return WireClass::Other;
      default:
        break;
    }
    switch (gateAxis(g.type)) {
      case GateAxis::Z: return WireClass::Z;
      case GateAxis::X: return WireClass::X;
      case GateAxis::Y: return WireClass::Y;
      default: return WireClass::Other;
    }
}

bool
gatesCommute(const Gate &a, const Gate &b)
{
    // Disjoint qubits always commute.
    const bool share0 = touches(b, a.q0);
    const bool share1 = isTwoQubit(a.type) && touches(b, a.q1);
    if (!share0 && !share1)
        return true;

    // Every gate commutes with an identical copy of itself.
    if (a == b)
        return true;

    // Diagonal gates commute with each other regardless of overlap.
    if (isDiagonalGate(a) && isDiagonalGate(b))
        return true;

    // 1q gates rotating about the same axis on the same qubit commute,
    // whatever the angles (e.g. Rx Rx, X SX, Ry Y).
    if (!isTwoQubit(a.type) && !isTwoQubit(b.type) && a.q0 == b.q0) {
        const GateAxis axis = gateAxis(a.type);
        return axis != GateAxis::Other && gateAxis(b.type) == axis;
    }

    auto is_x_axis = [](GateType t) {
        return t == GateType::X || t == GateType::SX ||
               t == GateType::SXdg || t == GateType::Rx;
    };

    // CX vs 1q on one of its qubits.
    auto cx_vs_1q = [&](const Gate &cx, const Gate &g1) {
        if (g1.q0 == cx.q0) // on control: diagonal gates commute
            return isDiagonalGate(g1);
        if (g1.q0 == cx.q1) // on target: X-axis gates commute
            return is_x_axis(g1.type);
        return true;
    };

    if (a.type == GateType::CX && !isTwoQubit(b.type))
        return cx_vs_1q(a, b);
    if (b.type == GateType::CX && !isTwoQubit(a.type))
        return cx_vs_1q(b, a);

    // CX vs CX: sharing only controls or only targets commutes.
    if (a.type == GateType::CX && b.type == GateType::CX) {
        const bool cross = a.q0 == b.q1 || a.q1 == b.q0;
        return !cross;
    }

    // CZ vs CX: commute unless the CX target lies on the CZ.
    if (a.type == GateType::CZ && b.type == GateType::CX)
        return b.q1 != a.q0 && b.q1 != a.q1;
    if (a.type == GateType::CX && b.type == GateType::CZ)
        return a.q1 != b.q0 && a.q1 != b.q1;

    // Swap is symmetric in its pair: it commutes with any gate that is
    // itself pair-symmetric on the same two qubits (Swap, CZ).
    if (a.type == GateType::Swap &&
        (b.type == GateType::Swap || b.type == GateType::CZ))
        return samePair(a, b);
    if (b.type == GateType::Swap && a.type == GateType::CZ)
        return samePair(a, b);

    // Conservative default: assume non-commuting.
    return false;
}

bool
CommutativeCancellation::run(QuantumCircuit &qc) const
{
    std::vector<Gate> gates(qc.gates().begin(), qc.gates().end());
    bool changed = false;
    constexpr size_t kEnd = ~size_t(0);
    // next_on[2j + s]: the next gate after j on j's wire q0 (s = 0) or
    // q1 (s = 1). A forward scan only ever needs the candidate's own
    // wires: gates elsewhere commute with it and can never match it.
    std::vector<size_t> next_on;
    std::vector<size_t> last_on(qc.numQubits());

    // Iterate to a local fixpoint: each cancellation can unblock
    // another (e.g. an inner Swap pair hiding an outer CX pair).
    for (bool dirty = true; dirty;) {
        dirty = false;
        const size_t n_gates = gates.size();
        std::vector<bool> removed(n_gates, false);

        next_on.assign(2 * n_gates, kEnd);
        std::fill(last_on.begin(), last_on.end(), kEnd);
        for (size_t j = n_gates; j-- > 0;) {
            const Gate &h = gates[j];
            next_on[2 * j] = last_on[h.q0];
            last_on[h.q0] = j;
            if (isTwoQubit(h.type)) {
                next_on[2 * j + 1] = last_on[h.q1];
                last_on[h.q1] = j;
            }
        }
        // The gate after j on wire q (j must touch q).
        auto next_after = [&](size_t j, uint32_t q) {
            return next_on[2 * j + (gates[j].q0 == q ? 0 : 1)];
        };

        for (size_t i = 0; i < n_gates; ++i) {
            if (removed[i])
                continue;
            const Gate &g = gates[i];

            if (g.type == GateType::CX || g.type == GateType::CZ ||
                g.type == GateType::Swap) {
                // 2q pair cancellation through commuting gates: walk
                // the later gates on either wire of g in index order.
                size_t a = next_on[2 * i];
                size_t b = next_on[2 * i + 1];
                while (a != kEnd || b != kEnd) {
                    const size_t j = std::min(a, b);
                    if (a == j)
                        a = next_after(j, g.q0);
                    if (b == j)
                        b = next_after(j, g.q1);
                    if (removed[j])
                        continue;
                    const Gate &h = gates[j];
                    const bool same = h.type == g.type && h.q0 == g.q0 &&
                                      h.q1 == g.q1;
                    const bool symmetric =
                        (g.type == GateType::CZ ||
                         g.type == GateType::Swap) &&
                        h.type == g.type && h.q0 == g.q1 && h.q1 == g.q0;
                    if (same || symmetric) {
                        removed[i] = true;
                        removed[j] = true;
                        dirty = true;
                        break;
                    }
                    if (!gatesCommute(g, h))
                        break;
                }
            } else if (mergeRotations_ && isMovableRotation(g)) {
                // Rotation merging through commuting windows: move g
                // forward past gates it commutes with (Rz through CX
                // controls, Rx through CX targets, ...) onto the next
                // same-axis gate on its qubit.
                for (size_t j = next_on[2 * i]; j != kEnd;
                     j = next_after(j, g.q0)) {
                    if (removed[j])
                        continue;
                    const Gate &h = gates[j];
                    if (!isTwoQubit(h.type) && h.q0 == g.q0) {
                        const CombinedGate c = combineSingleQubit(g, h);
                        if (c.combined) {
                            removed[i] = true;
                            if (c.identity)
                                removed[j] = true;
                            else
                                gates[j] = c.merged;
                            dirty = true;
                            break;
                        }
                    }
                    if (!gatesCommute(g, h))
                        break;
                }
            }
        }

        if (dirty) {
            changed = true;
            std::vector<Gate> kept;
            kept.reserve(gates.size());
            for (size_t i = 0; i < gates.size(); ++i)
                if (!removed[i])
                    kept.push_back(gates[i]);
            gates = std::move(kept);
        }
    }

    if (!changed)
        return false;
    qc.mutableGates() = std::move(gates);
    return true;
}

} // namespace quclear
