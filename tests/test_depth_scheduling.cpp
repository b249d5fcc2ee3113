/**
 * @file
 * DepthScheduling against its all-pairs reference: bit-identical output
 * over a seeded fuzz corpus of every gate type, the WireClass properties
 * the run-reduced DAG rests on, and the Swap cases that break a plain
 * run argument.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "reference_depth_scheduling.hpp"
#include "sim/statevector.hpp"
#include "transpile/depth_scheduling.hpp"
#include "transpile/pass.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

constexpr GateType kAllTypes[] = {
    GateType::H,    GateType::S,  GateType::Sdg, GateType::X,
    GateType::Y,    GateType::Z,  GateType::SX,  GateType::SXdg,
    GateType::Rz,   GateType::Rx, GateType::Ry,  GateType::CX,
    GateType::CZ,   GateType::Swap,
};

/**
 * Random circuit over all 14 gate types, biased towards the patterns
 * that stress run boundaries: repeated identical gates (H H, Swap
 * Swap), a few shared angles, and Swap/CZ on the same qubit pairs.
 */
QuantumCircuit
randomSchedulingCircuit(uint32_t n, size_t len, Rng &rng)
{
    static constexpr double kAngles[] = { 0.3, -0.3, 1.1 };
    QuantumCircuit qc(n);
    std::vector<Gate> out;
    while (out.size() < len) {
        if (!out.empty() && rng.uniformInt(5) == 0) {
            out.push_back(out[rng.uniformInt(out.size())]);
            continue;
        }
        const GateType t = kAllTypes[rng.uniformInt(14)];
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        if (isTwoQubit(t)) {
            uint32_t r = static_cast<uint32_t>(rng.uniformInt(n - 1));
            if (r >= q)
                ++r;
            out.emplace_back(t, q, r);
        } else if (isParameterized(t)) {
            out.emplace_back(t, q, kAngles[rng.uniformInt(3)]);
        } else {
            out.emplace_back(t, q);
        }
    }
    for (const Gate &g : out)
        qc.append(g);
    return qc;
}

void
expectMatchesReference(const QuantumCircuit &input)
{
    EXPECT_EQ(DepthScheduling::schedule(input).gates(),
              referenceDepthSchedule(input).gates());
}

TEST(DepthSchedulingOracle, FuzzBitIdenticalToAllPairsReference)
{
    Rng rng(20261017);
    size_t reordered = 0;
    for (int trial = 0; trial < 6000; ++trial) {
        const uint32_t n = 2 + static_cast<uint32_t>(rng.uniformInt(5));
        const size_t len = 2 + rng.uniformInt(60);
        const QuantumCircuit qc = randomSchedulingCircuit(n, len, rng);
        const QuantumCircuit fast = DepthScheduling::schedule(qc);
        ASSERT_EQ(fast.gates(), referenceDepthSchedule(qc).gates())
            << "trial " << trial;
        if (fast.gates() != qc.gates()) {
            ++reordered;
            if (reordered % 8 == 0) {
                ASSERT_TRUE(circuitsEquivalent(qc, fast)) << "trial " << trial;
            }
        }
    }
    // The corpus must exercise actual reordering, not just no-ops.
    EXPECT_GT(reordered, 3000u);
}

TEST(DepthSchedulingOracle, LongCircuitsOnFewQubits)
{
    // Long runs on few wires: large previous runs and many carries.
    Rng rng(4242);
    for (int trial = 0; trial < 200; ++trial) {
        const uint32_t n = 2 + static_cast<uint32_t>(rng.uniformInt(3));
        expectMatchesReference(randomSchedulingCircuit(n, 300, rng));
    }
}

TEST(DepthSchedulingSwap, CzSwapHKeepsHAfterCz)
{
    // CZ(0,1) and Swap(0,1) commute, and Swap(0,1) and H(0) do not, but
    // H(0) must still follow CZ(0,1). A builder that links H(0) only to
    // the Swap run before it loses that edge; the CX chain after H(0)
    // then ranks H(0) above CZ(0,1) and lets it overtake.
    for (const bool with_chain : { false, true }) {
        QuantumCircuit qc(4);
        qc.cz(0, 1);
        qc.swap(0, 1);
        qc.h(0);
        if (with_chain) {
            qc.cx(0, 2);
            qc.cx(2, 3);
        }
        expectMatchesReference(qc);
        const QuantumCircuit scheduled = DepthScheduling::schedule(qc);
        EXPECT_TRUE(circuitsEquivalent(qc, scheduled));
        QuantumCircuit adopted = qc;
        DepthScheduling().run(adopted);
        EXPECT_TRUE(circuitsEquivalent(qc, adopted));
    }
}

TEST(DepthSchedulingSwap, CommutingNeighboursAroundSwap)
{
    // Each case puts a Swap next to a gate it commutes with, padded with
    // independent CX ladders on other wires.
    const std::vector<std::vector<Gate>> cores = {
        { Gate(GateType::CZ, 0u, 1u), Gate(GateType::Swap, 0u, 1u),
          Gate(GateType::H, 0u) },
        { Gate(GateType::H, 0u), Gate(GateType::CZ, 0u, 1u),
          Gate(GateType::Swap, 0u, 1u) },
        { Gate(GateType::Swap, 0u, 1u), Gate(GateType::CZ, 1u, 0u),
          Gate(GateType::X, 1u) },
        { Gate(GateType::Swap, 0u, 1u), Gate(GateType::Swap, 1u, 0u),
          Gate(GateType::S, 0u) },
        { Gate(GateType::Rx, 1u, 0.4), Gate(GateType::Swap, 1u, 0u),
          Gate(GateType::Swap, 0u, 1u), Gate(GateType::CX, 0u, 2u) },
    };
    for (const auto &core : cores) {
        QuantumCircuit qc(4);
        qc.cx(2, 3);
        qc.cx(3, 2);
        for (const Gate &g : core)
            qc.append(g);
        qc.cx(2, 3);
        qc.cx(0, 1);
        qc.cx(3, 2);
        expectMatchesReference(qc);
        EXPECT_TRUE(circuitsEquivalent(qc, DepthScheduling::schedule(qc)));
    }
}

/** Every placement of every gate type on qubits {0, 1, 2}. */
std::vector<Gate>
allPlacements()
{
    std::vector<Gate> gates;
    for (GateType t : kAllTypes) {
        for (uint32_t a = 0; a < 3; ++a) {
            if (isTwoQubit(t)) {
                for (uint32_t b = 0; b < 3; ++b)
                    if (b != a)
                        gates.emplace_back(t, a, b);
            } else if (isParameterized(t)) {
                gates.emplace_back(t, a, 0.3);
                gates.emplace_back(t, a, 0.7);
            } else {
                gates.emplace_back(t, a);
            }
        }
    }
    return gates;
}

std::vector<uint32_t>
wiresOf(const Gate &g)
{
    if (isTwoQubit(g.type))
        return { g.q0, g.q1 };
    return { g.q0 };
}

/** Same class on wire q, counting Other as equal only for identical gates. */
bool
sameClassOn(const Gate &a, const Gate &b, uint32_t q)
{
    const WireClass ca = wireClass(a, q);
    return ca == wireClass(b, q) && (ca != WireClass::Other || a == b);
}

bool
isSwapException(const Gate &a, const Gate &b)
{
    const bool same_pair = (a.q0 == b.q0 && a.q1 == b.q1) ||
                           (a.q0 == b.q1 && a.q1 == b.q0);
    auto swap_with = [&](const Gate &s, const Gate &o) {
        return s.type == GateType::Swap &&
               (o.type == GateType::Swap || o.type == GateType::CZ);
    };
    return same_pair && (swap_with(a, b) || swap_with(b, a));
}

TEST(WireClassSoundness, AgreesWithGatesCommuteOnEveryPair)
{
    const std::vector<Gate> gates = allPlacements();
    size_t shared_pairs = 0;
    size_t exceptions = 0;
    for (const Gate &a : gates) {
        for (const Gate &b : gates) {
            std::vector<uint32_t> shared;
            for (uint32_t qa : wiresOf(a))
                for (uint32_t qb : wiresOf(b))
                    if (qa == qb)
                        shared.push_back(qa);
            if (shared.empty())
                continue;
            ++shared_pairs;
            bool all_same = true;
            bool any_differ = false;
            for (uint32_t q : shared) {
                const bool same = sameClassOn(a, b, q);
                all_same = all_same && same;
                any_differ = any_differ || !same;
            }
            const bool commute = gatesCommute(a, b);
            const std::string pair = gateName(a.type) + "(" +
                                     std::to_string(a.q0) + "," +
                                     std::to_string(a.q1) + ") vs " +
                                     gateName(b.type) + "(" +
                                     std::to_string(b.q0) + "," +
                                     std::to_string(b.q1) + ")";
            // Agreement on every shared wire: the gates commute (this is
            // what lets a run hold gates without edges between them).
            if (all_same) {
                EXPECT_TRUE(commute) << pair;
            }
            // Disagreement on a shared wire: they do not commute, except
            // for Swap against a Swap or CZ on its own pair.
            if (any_differ && commute) {
                EXPECT_TRUE(isSwapException(a, b)) << pair;
                ++exceptions;
            }
            // gatesCommute itself must be sound on the dense unitary.
            if (commute) {
                QuantumCircuit ab(3);
                ab.append(a);
                ab.append(b);
                QuantumCircuit ba(3);
                ba.append(b);
                ba.append(a);
                EXPECT_TRUE(circuitsEquivalent(ab, ba)) << pair;
            }
        }
    }
    EXPECT_GT(shared_pairs, 1000u);
    // Per qubit pair: Swap(a,b)/Swap(b,a) in 2 orders, plus 2 Swaps x
    // 2 CZs in 2 orders; three qubit pairs.
    EXPECT_EQ(exceptions, 3u * (2 + 8));
}

TEST(WireClassSoundness, ClassesOfEachWire)
{
    EXPECT_EQ(wireClass(Gate(GateType::CX, 0u, 1u), 0), WireClass::Z);
    EXPECT_EQ(wireClass(Gate(GateType::CX, 0u, 1u), 1), WireClass::X);
    EXPECT_EQ(wireClass(Gate(GateType::CZ, 0u, 1u), 1), WireClass::Z);
    EXPECT_EQ(wireClass(Gate(GateType::Swap, 0u, 1u), 0), WireClass::Other);
    EXPECT_EQ(wireClass(Gate(GateType::H, 2), 2), WireClass::Other);
    EXPECT_EQ(wireClass(Gate(GateType::Rz, 2, 0.1), 2), WireClass::Z);
    EXPECT_EQ(wireClass(Gate(GateType::Sdg, 2), 2), WireClass::Z);
    EXPECT_EQ(wireClass(Gate(GateType::SX, 2), 2), WireClass::X);
    EXPECT_EQ(wireClass(Gate(GateType::Ry, 2, 0.1), 2), WireClass::Y);
    EXPECT_EQ(wireClass(Gate(GateType::Y, 2), 2), WireClass::Y);
}

} // namespace
} // namespace quclear
