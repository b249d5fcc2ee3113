/**
 * @file
 * Test-only references for the two expensive level3 passes, in their
 * direct form:
 *  - PhaseRotationFolding keyed by a std::map over dense parity
 *    bitsets (every diagonal gate copies its wire's whole bitset into
 *    the lookup);
 *  - CommutativeCancellation with a forward scan over every later
 *    gate, on any wire.
 * The library's hash-bucketed folding and wire-local scan are checked
 * bit for bit (gate lists and return values) against these.
 */
#ifndef QUCLEAR_TESTS_REFERENCE_LEVEL3_HPP
#define QUCLEAR_TESTS_REFERENCE_LEVEL3_HPP

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "transpile/commutative_cancellation.hpp"
#include "transpile/cx_cancellation.hpp"
#include "transpile/gate_algebra.hpp"
#include "transpile/hadamard_rewrite.hpp"
#include "transpile/pass.hpp"
#include "transpile/phase_rotation_folding.hpp"
#include "transpile/single_qubit_fusion.hpp"

namespace quclear {

namespace reference_level3_detail {

constexpr double kPi = 3.14159265358979323846;

/** Phase contribution of a diagonal 1q gate, in diag(1, e^{i phi}) form. */
inline bool
diagonalPhase(const Gate &g, double &phi)
{
    switch (g.type) {
      case GateType::Rz:  phi = g.angle; return true;
      case GateType::S:   phi = kPi / 2; return true;
      case GateType::Sdg: phi = -kPi / 2; return true;
      case GateType::Z:   phi = kPi; return true;
      default:            return false;
    }
}

/** 1q gates the merge scan may move forward (every axis rotation). */
inline bool
isMovableRotation(const Gate &g)
{
    return !isTwoQubit(g.type) && gateAxis(g.type) != GateAxis::Other;
}

} // namespace reference_level3_detail

/** Reference PhaseRotationFolding::run. */
inline bool
referencePhaseRotationFolding(QuantumCircuit &qc)
{
    using reference_level3_detail::diagonalPhase;

    const auto &gates = qc.gates();
    const size_t n_gates = gates.size();
    const uint32_t n = qc.numQubits();
    if (n == 0 || n_gates == 0)
        return false;

    // Symbol capacity: one initial symbol per wire plus one fresh symbol
    // per wire slot of every untrackable gate.
    size_t capacity = n;
    for (const Gate &g : gates) {
        switch (g.type) {
          case GateType::CX:
          case GateType::CZ:
          case GateType::Swap:
          case GateType::X:
          case GateType::Rz:
          case GateType::S:
          case GateType::Sdg:
          case GateType::Z:
            break;
          default:
            capacity += isTwoQubit(g.type) ? 2u : 1u;
        }
    }
    const size_t words = (capacity + 63) / 64;

    // parity[w]: bitset of symbols whose xor is wire w's current value;
    // neg[w]: the affine constant (X gates toggle it).
    std::vector<std::vector<uint64_t>> parity(
        n, std::vector<uint64_t>(words, 0));
    std::vector<uint8_t> neg(n, 0);
    for (uint32_t q = 0; q < n; ++q)
        parity[q][q / 64] |= uint64_t(1) << (q % 64);
    size_t next_symbol = n;

    auto invalidate = [&](uint32_t w) {
        std::fill(parity[w].begin(), parity[w].end(), uint64_t(0));
        parity[w][next_symbol / 64] |= uint64_t(1) << (next_symbol % 64);
        ++next_symbol;
        neg[w] = 0;
    };

    struct Group
    {
        size_t first;     //!< gate index of the first member
        double phase;     //!< summed phase in un-negated key space
        uint32_t members; //!< number of folded rotations
        uint8_t firstNeg; //!< wire negation at the first member
    };
    std::vector<Group> groups;
    std::map<std::vector<uint64_t>, size_t> key_to_group;
    // group_of[i] >= 0: gate i is a member of that rotation group.
    std::vector<std::ptrdiff_t> group_of(n_gates, -1);

    for (size_t i = 0; i < n_gates; ++i) {
        const Gate &g = gates[i];
        double phi = 0.0;
        if (diagonalPhase(g, phi)) {
            const double keyed = neg[g.q0] ? -phi : phi;
            auto [it, inserted] =
                key_to_group.try_emplace(parity[g.q0], groups.size());
            if (inserted)
                groups.push_back({ i, keyed, 1, neg[g.q0] });
            else {
                groups[it->second].phase += keyed;
                ++groups[it->second].members;
            }
            group_of[i] = static_cast<std::ptrdiff_t>(it->second);
            continue;
        }
        switch (g.type) {
          case GateType::CX:
            for (size_t w = 0; w < words; ++w)
                parity[g.q1][w] ^= parity[g.q0][w];
            neg[g.q1] = static_cast<uint8_t>(neg[g.q1] ^ neg[g.q0]);
            break;
          case GateType::Swap:
            parity[g.q0].swap(parity[g.q1]);
            std::swap(neg[g.q0], neg[g.q1]);
            break;
          case GateType::X:
            neg[g.q0] = static_cast<uint8_t>(neg[g.q0] ^ 1);
            break;
          case GateType::CZ:
            break; // diagonal: transparent to parity tracking
          default:
            invalidate(g.q0);
            if (isTwoQubit(g.type))
                invalidate(g.q1);
            break;
        }
    }

    // Rewrite: groups with several members fold into their first slot;
    // trivial sums (and trivial singletons, e.g. rz(q, 0)) vanish.
    bool changed = false;
    for (const Group &grp : groups) {
        if (grp.members > 1 || angleIsTrivial(grp.phase))
            changed = true;
    }
    if (!changed)
        return false;

    std::vector<Gate> kept;
    kept.reserve(n_gates);
    for (size_t i = 0; i < n_gates; ++i) {
        if (group_of[i] < 0) {
            kept.push_back(gates[i]);
            continue;
        }
        const Group &grp = groups[static_cast<size_t>(group_of[i])];
        if (i != grp.first)
            continue; // folded into the first member
        if (grp.members == 1 && !angleIsTrivial(grp.phase)) {
            kept.push_back(gates[i]); // untouched singleton
            continue;
        }
        if (angleIsTrivial(grp.phase))
            continue; // rotations cancelled outright
        const double theta = grp.firstNeg ? -grp.phase : grp.phase;
        kept.push_back(axisRotationGate(GateAxis::Z, gates[i].q0, theta));
    }
    qc.mutableGates() = std::move(kept);
    return true;
}

/** Reference CommutativeCancellation(merge_rotations).run. */
inline bool
referenceCommutativeCancellation(QuantumCircuit &qc, bool merge_rotations)
{
    using reference_level3_detail::isMovableRotation;

    std::vector<Gate> gates(qc.gates().begin(), qc.gates().end());
    bool changed = false;

    // Iterate to a local fixpoint: each cancellation can unblock
    // another (e.g. an inner Swap pair hiding an outer CX pair).
    for (bool dirty = true; dirty;) {
        dirty = false;
        const size_t n_gates = gates.size();
        std::vector<bool> removed(n_gates, false);

        for (size_t i = 0; i < n_gates; ++i) {
            if (removed[i])
                continue;
            const Gate &g = gates[i];

            if (g.type == GateType::CX || g.type == GateType::CZ ||
                g.type == GateType::Swap) {
                // 2q pair cancellation through commuting gates.
                for (size_t j = i + 1; j < n_gates; ++j) {
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
            } else if (merge_rotations && isMovableRotation(g)) {
                // Rotation merging through commuting windows: move g
                // forward past gates it commutes with (Rz through CX
                // controls, Rx through CX targets, ...) onto the next
                // same-axis gate on its qubit.
                for (size_t j = i + 1; j < n_gates; ++j) {
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

/** Gate-for-gate equality with exact angles. */
inline void
expectIdenticalGates(const QuantumCircuit &got, const QuantumCircuit &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        ASSERT_TRUE(got.gate(i) == want.gate(i))
            << "gate " << i << ": " << gateName(got.gate(i).type) << " vs "
            << gateName(want.gate(i).type);
}

/**
 * Run @p pass on @p qc and @p reference on a copy, expect the same
 * return value and gate list, and return the pass's return value.
 */
template <typename Reference>
bool
expectPassMatchesReference(const Pass &pass, Reference &&reference,
                           QuantumCircuit &qc)
{
    QuantumCircuit want = qc;
    const bool want_changed = reference(want);
    const bool changed = pass.run(qc);
    EXPECT_EQ(changed, want_changed) << pass.name();
    expectIdenticalGates(qc, want);
    return changed;
}

/**
 * The level3 pipeline (PassManager::level3's pass order and sweep
 * bound) with CommutativeCancellation and PhaseRotationFolding checked
 * against their references on every input they meet, so later sweeps
 * exercise the passes on each other's output.
 */
inline void
expectLevel3MatchesReference(QuantumCircuit qc)
{
    const SingleQubitFusion fusion;
    const CxCancellation cx_cancel;
    const HadamardRewrite hadamard;
    const CommutativeCancellation commutative;
    const PhaseRotationFolding folding;
    for (size_t sweep = 0; sweep < 32; ++sweep) {
        bool changed = fusion.run(qc);
        changed |= cx_cancel.run(qc);
        changed |= hadamard.run(qc);
        changed |= expectPassMatchesReference(
            commutative,
            [](QuantumCircuit &c) {
                return referenceCommutativeCancellation(c, true);
            },
            qc);
        changed |= expectPassMatchesReference(
            folding, referencePhaseRotationFolding, qc);
        if (::testing::Test::HasFailure() || !changed)
            return;
    }
}

} // namespace quclear

#endif // QUCLEAR_TESTS_REFERENCE_LEVEL3_HPP
