/**
 * @file
 * Tests for the local-rewrite pipeline (the "Qiskit O3" proxy). Every
 * pass must preserve the circuit unitary — checked exactly on dense
 * statevectors — while removing the targeted patterns.
 */
#include <gtest/gtest.h>

#include "benchgen/suite.hpp"
#include "core/clifford_extractor.hpp"
#include "sim/statevector.hpp"
#include "tableau/clifford_tableau.hpp"
#include "transpile/commutative_cancellation.hpp"
#include "circuit/circuit_stats.hpp"
#include "transpile/cx_cancellation.hpp"
#include "transpile/depth_scheduling.hpp"
#include "transpile/hadamard_rewrite.hpp"
#include "transpile/pass_manager.hpp"
#include "transpile/phase_rotation_folding.hpp"
#include "transpile/single_qubit_fusion.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

QuantumCircuit
randomCircuit(uint32_t n, size_t gates, Rng &rng)
{
    QuantumCircuit qc(n);
    while (qc.size() < gates) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(7)) {
          case 0: qc.h(q); break;
          case 1: qc.s(q); break;
          case 2: qc.sdg(q); break;
          case 3: qc.rz(q, rng.uniformReal(-3, 3)); break;
          case 4: qc.x(q); break;
          default: {
            const uint32_t r = static_cast<uint32_t>(rng.uniformInt(n));
            if (r != q)
                qc.cx(q, r);
            break;
          }
        }
    }
    return qc;
}

/** Wider gate vocabulary: adds Swap/CZ/Rx/Ry/SX to randomCircuit's set. */
QuantumCircuit
randomRichCircuit(uint32_t n, size_t gates, Rng &rng)
{
    QuantumCircuit qc(n);
    while (qc.size() < gates) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t r = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(12)) {
          case 0: qc.h(q); break;
          case 1: qc.s(q); break;
          case 2: qc.sdg(q); break;
          case 3: qc.rz(q, rng.uniformReal(-3, 3)); break;
          case 4: qc.x(q); break;
          case 5: qc.rx(q, rng.uniformReal(-3, 3)); break;
          case 6: qc.ry(q, rng.uniformReal(-3, 3)); break;
          case 7: qc.sx(q); break;
          case 8:
            if (r != q)
                qc.swap(q, r);
            break;
          case 9:
            if (r != q)
                qc.cz(q, r);
            break;
          default:
            if (r != q)
                qc.cx(q, r);
            break;
        }
    }
    return qc;
}

void
expectUnitaryPreserved(const Pass &pass, QuantumCircuit qc)
{
    QuantumCircuit before = qc;
    pass.run(qc);
    EXPECT_TRUE(circuitsEquivalent(before, qc))
        << pass.name() << " changed the unitary";
}

TEST(CxCancellationTest, AdjacentPairRemoved)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.cx(0, 1);
    CxCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 0u);
}

TEST(CxCancellationTest, InterveningGateBlocks)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.h(1);
    qc.cx(0, 1);
    CxCancellation pass;
    EXPECT_FALSE(pass.run(qc));
    EXPECT_EQ(qc.size(), 3u);
}

TEST(CxCancellationTest, SymmetricCzCancels)
{
    QuantumCircuit qc(2);
    qc.cz(0, 1);
    qc.cz(1, 0);
    CxCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 0u);
}

TEST(SingleQubitFusionTest, InversePairsCancel)
{
    QuantumCircuit qc(1);
    qc.h(0);
    qc.h(0);
    qc.s(0);
    qc.sdg(0);
    SingleQubitFusion pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 0u);
}

TEST(SingleQubitFusionTest, RzRunsMerge)
{
    QuantumCircuit qc(1);
    qc.rz(0, 0.25);
    qc.rz(0, 0.5);
    qc.rz(0, -0.75); // sums to zero: everything vanishes
    SingleQubitFusion pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 0u);
}

TEST(SingleQubitFusionTest, SSFusesToZ)
{
    QuantumCircuit qc(1);
    qc.s(0);
    qc.s(0);
    SingleQubitFusion pass;
    EXPECT_TRUE(pass.run(qc));
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::Z);
}

TEST(SingleQubitFusionTest, SFoldsIntoRz)
{
    QuantumCircuit qc(1);
    qc.s(0);
    qc.rz(0, 0.5);
    SingleQubitFusion pass;
    EXPECT_TRUE(pass.run(qc));
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::Rz);

    // Unitary preserved up to global phase.
    QuantumCircuit before(1);
    before.s(0);
    before.rz(0, 0.5);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(SingleQubitFusionTest, TwoQubitGateFlushesPending)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.cx(0, 1);
    qc.h(0); // must NOT cancel across the CX
    SingleQubitFusion pass;
    pass.run(qc);
    EXPECT_EQ(qc.size(), 3u);
}

TEST(HadamardRewriteTest, FourHadamardsReverseCx)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.h(1);
    qc.cx(0, 1);
    qc.h(0);
    qc.h(1);
    QuantumCircuit before = qc;
    HadamardRewrite pass;
    EXPECT_TRUE(pass.run(qc));
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::CX);
    EXPECT_EQ(qc.gate(0).q0, 1u);
    EXPECT_EQ(qc.gate(0).q1, 0u);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(HadamardRewriteTest, TargetHadamardsMakeCz)
{
    QuantumCircuit qc(2);
    qc.h(1);
    qc.cx(0, 1);
    qc.h(1);
    QuantumCircuit before = qc;
    HadamardRewrite pass;
    EXPECT_TRUE(pass.run(qc));
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::CZ);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(CommutativeCancellationTest, RzOnControlDoesNotBlock)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.rz(0, 0.7); // commutes with the CX control
    qc.cx(0, 1);
    QuantumCircuit before = qc;
    CommutativeCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 1u);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(CommutativeCancellationTest, RzOnTargetBlocks)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.rz(1, 0.7); // does not commute with the CX target
    qc.cx(0, 1);
    CommutativeCancellation pass;
    EXPECT_FALSE(pass.run(qc));
}

TEST(CommutativeCancellationTest, SharedControlCxDoesNotBlock)
{
    QuantumCircuit qc(3);
    qc.cx(0, 1);
    qc.cx(0, 2); // shares the control: commutes
    qc.cx(0, 1);
    QuantumCircuit before = qc;
    CommutativeCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 1u);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(GatesCommuteTest, SwapAndSelfCommutationRules)
{
    const Gate swap01{ GateType::Swap, 0u, 1u };
    const Gate swap10{ GateType::Swap, 1u, 0u };
    const Gate cz10{ GateType::CZ, 1u, 0u };
    const Gate cx01{ GateType::CX, 0u, 1u };
    // Swap is pair-symmetric: commutes with Swap/CZ on the same pair in
    // either orientation (regression: the old table answered false).
    EXPECT_TRUE(gatesCommute(swap01, swap10));
    EXPECT_TRUE(gatesCommute(swap01, cz10));
    EXPECT_TRUE(gatesCommute(cz10, swap01));
    // ... but not with an asymmetric CX on the pair.
    EXPECT_FALSE(gatesCommute(swap01, cx01));
    // Every gate commutes with an identical copy of itself.
    EXPECT_TRUE(gatesCommute(swap01, swap01));
    const Gate rx{ GateType::Rx, 0, 0.3 };
    EXPECT_TRUE(gatesCommute(rx, rx));
    // Same-axis 1q gates on the same qubit commute; cross-axis do not.
    EXPECT_TRUE(gatesCommute(rx, Gate{ GateType::SX, 0 }));
    EXPECT_FALSE(gatesCommute(rx, Gate{ GateType::Ry, 0, 0.2 }));
}

TEST(CommutativeCancellationTest, SwapPairCancelsThroughCz)
{
    QuantumCircuit qc(2);
    qc.swap(0, 1);
    qc.cz(1, 0); // pair-symmetric: does not block
    qc.swap(1, 0);
    QuantumCircuit before = qc;
    CommutativeCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::CZ);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(CommutativeCancellationTest, RzMergesThroughCxControl)
{
    QuantumCircuit qc(2);
    qc.rz(0, 0.4);
    qc.cx(0, 1); // Rz on the control commutes through
    qc.rz(0, 0.3);
    QuantumCircuit before = qc;
    CommutativeCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 2u);
    EXPECT_EQ(qc.twoQubitCount(true), 1u);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(CommutativeCancellationTest, RxCancelsThroughCxTarget)
{
    QuantumCircuit qc(2);
    qc.rx(1, 0.9);
    qc.cx(0, 1); // X-axis on the target commutes through
    qc.rx(1, -0.9);
    QuantumCircuit before = qc;
    CommutativeCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::CX);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(CommutativeCancellationTest, MergeOptOutKeepsRotationsInPlace)
{
    // The Rz-preserving mode (used by core/parameterized.hpp) must keep
    // rotation count and order while still doing 2q cancellation.
    QuantumCircuit qc(2);
    qc.rz(0, 0.4);
    qc.cx(0, 1);
    qc.cx(0, 1);
    qc.rz(0, 0.3);
    const CommutativeCancellation preserve(/*merge_rotations=*/false);
    EXPECT_TRUE(preserve.run(qc));
    ASSERT_EQ(qc.size(), 2u);
    EXPECT_EQ(qc.gate(0).angle, 0.4);
    EXPECT_EQ(qc.gate(1).angle, 0.3);
}

TEST(PhaseRotationFoldingTest, MergesAcrossCxParityWindow)
{
    // The wire-1 parity returns to its original value after the second
    // CX, so the outer rotations fold even though neither commutes with
    // the CX next to it.
    QuantumCircuit qc(2);
    qc.rz(1, 0.4);
    qc.cx(0, 1);
    qc.rz(1, 0.7); // distinct parity: stays
    qc.cx(0, 1);
    qc.rz(1, 0.2);
    QuantumCircuit before = qc;
    PhaseRotationFolding pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 4u);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
    // Idempotent on its own output.
    EXPECT_FALSE(pass.run(qc));
}

TEST(PhaseRotationFoldingTest, NegationFlipsRotationSign)
{
    // X Rz(a) X = Rz(-a): with the negation bit tracked, the two
    // rotations cancel exactly and only the Xs remain.
    QuantumCircuit qc(1);
    qc.x(0);
    qc.rz(0, 0.6);
    qc.x(0);
    qc.rz(0, 0.6);
    QuantumCircuit before = qc;
    PhaseRotationFolding pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 2u);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(PhaseRotationFoldingTest, BreakerGateBlocksFolding)
{
    // H re-bases the wire: the tracker must allocate a fresh symbol and
    // refuse to merge across it.
    QuantumCircuit qc(1);
    qc.rz(0, 0.4);
    qc.h(0);
    qc.rz(0, 0.3);
    PhaseRotationFolding pass;
    EXPECT_FALSE(pass.run(qc));
    EXPECT_EQ(qc.size(), 3u);
}

TEST(PhaseRotationFoldingTest, CliffordPhasesFoldToCliffordGates)
{
    // S + S folds to Z (not an Rz mnemonic), keeping the circuit
    // recognizably Clifford for the tail pipeline's tableau replay.
    QuantumCircuit qc(2);
    qc.s(1);
    qc.cx(0, 1);
    qc.cx(0, 1);
    qc.s(1);
    QuantumCircuit before = qc;
    PhaseRotationFolding pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_TRUE(circuitsEquivalent(before, qc));
    for (const Gate &g : qc.gates())
        EXPECT_TRUE(isClifford(g.type)) << gateName(g.type);
}

TEST(PassManagerTest, RunsToFixpoint)
{
    // A pattern that needs multiple sweeps: H H CX CX collapses fully.
    QuantumCircuit qc(2);
    qc.h(0);
    qc.cx(0, 1);
    qc.cx(0, 1);
    qc.h(0);
    const PassManager pm = PassManager::level3();
    pm.run(qc);
    EXPECT_EQ(qc.size(), 0u);
}

TEST(PassPropertyTest, AllPassesPreserveUnitaryOnRandomCircuits)
{
    Rng rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        const QuantumCircuit qc = randomCircuit(3, 25, rng);
        expectUnitaryPreserved(SingleQubitFusion(), qc);
        expectUnitaryPreserved(CxCancellation(), qc);
        expectUnitaryPreserved(HadamardRewrite(), qc);
        expectUnitaryPreserved(CommutativeCancellation(), qc);
        expectUnitaryPreserved(PhaseRotationFolding(), qc);
    }
}

TEST(PassPropertyTest, AllPassesPreserveUnitaryOnRichCircuits)
{
    // Same property over the full gate vocabulary (Swap, CZ, Rx, Ry,
    // SX) that the strengthened commutation table and the parity
    // tracker handle specially.
    Rng rng(101);
    for (int trial = 0; trial < 20; ++trial) {
        const QuantumCircuit qc = randomRichCircuit(3, 25, rng);
        expectUnitaryPreserved(SingleQubitFusion(), qc);
        expectUnitaryPreserved(CxCancellation(), qc);
        expectUnitaryPreserved(HadamardRewrite(), qc);
        expectUnitaryPreserved(CommutativeCancellation(), qc);
        expectUnitaryPreserved(PhaseRotationFolding(), qc);
    }
}

TEST(PassPropertyTest, Level3PreservesUnitaryAndNeverGrows)
{
    Rng rng(79);
    for (int trial = 0; trial < 10; ++trial) {
        QuantumCircuit qc = randomCircuit(4, 40, rng);
        QuantumCircuit before = qc;
        PassManager::level3().run(qc);
        EXPECT_TRUE(circuitsEquivalent(before, qc));
        EXPECT_LE(qc.size(), before.size());
        EXPECT_LE(qc.twoQubitCount(true), before.twoQubitCount(true));
    }
}

TEST(PassPropertyTest, Level3PreservesUnitaryOnRichCircuits)
{
    Rng rng(103);
    for (int trial = 0; trial < 10; ++trial) {
        QuantumCircuit qc = randomRichCircuit(4, 40, rng);
        QuantumCircuit before = qc;
        PassManager::level3().run(qc);
        EXPECT_TRUE(circuitsEquivalent(before, qc));
        EXPECT_LE(qc.size(), before.size());
        EXPECT_LE(qc.twoQubitCount(true), before.twoQubitCount(true));
    }
}

TEST(PassPropertyTest, Level3IsCliffordSafeWithEqualTableau)
{
    // The tail pipeline reuses level3 on absorbed Clifford circuits: on
    // Clifford input every pass must emit only Clifford gates, and the
    // tableau must replay identically — the property the adoption check
    // in QuClear::compile relies on.
    Rng rng(107);
    for (int trial = 0; trial < 10; ++trial) {
        QuantumCircuit qc(5);
        while (qc.size() < 60) {
            const uint32_t q = static_cast<uint32_t>(rng.uniformInt(5));
            const uint32_t r = static_cast<uint32_t>(rng.uniformInt(5));
            switch (rng.uniformInt(9)) {
              case 0: qc.h(q); break;
              case 1: qc.s(q); break;
              case 2: qc.sdg(q); break;
              case 3: qc.x(q); break;
              case 4: qc.z(q); break;
              case 5: qc.sx(q); break;
              case 6:
                if (r != q)
                    qc.cz(q, r);
                break;
              case 7:
                if (r != q)
                    qc.swap(q, r);
                break;
              default:
                if (r != q)
                    qc.cx(q, r);
                break;
            }
        }
        QuantumCircuit before = qc;
        PassManager::level3().run(qc);
        for (const Gate &g : qc.gates())
            EXPECT_TRUE(isClifford(g.type)) << gateName(g.type);
        EXPECT_TRUE(CliffordTableau::fromCircuit(qc) ==
                    CliffordTableau::fromCircuit(before));
    }
}

/** Random circuit over all 14 gate types (Clifford set plus rotations). */
QuantumCircuit
randomAnyGateCircuit(uint32_t n, size_t gates, Rng &rng)
{
    QuantumCircuit qc(n);
    while (qc.size() < gates) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(4)) {
          case 0: qc.rz(q, rng.uniformReal(-3, 3)); break;
          case 1: qc.rx(q, rng.uniformReal(-3, 3)); break;
          case 2: qc.ry(q, rng.uniformReal(-3, 3)); break;
          default: qc.append(randomCliffordGate(n, rng)); break;
        }
    }
    return qc;
}

/** Registry level3 inputs: U' and tail of every Table II row. */
std::vector<QuantumCircuit>
registryLevel3Inputs()
{
    std::vector<QuantumCircuit> inputs;
    ExtractionConfig config;
    config.threads = 1;
    for (const std::string &name : allBenchmarkNames()) {
        ExtractionResult result =
            CliffordExtractor(config).run(makeBenchmark(name).terms);
        inputs.push_back(std::move(result.optimized));
        inputs.push_back(std::move(result.extractedClifford));
    }
    return inputs;
}

/** @p pass, once run, has nothing left to do on its own output. */
void
expectIdempotent(const Pass &pass, QuantumCircuit qc)
{
    pass.run(qc);
    const QuantumCircuit once = qc;
    EXPECT_FALSE(pass.run(qc)) << pass.name() << " changed its own output";
    EXPECT_EQ(qc.size(), once.size()) << pass.name();
}

TEST(PassPropertyTest, PassesAreIdempotent)
{
    const SingleQubitFusion fusion;
    const CommutativeCancellation commutative;
    const CommutativeCancellation commutative_keep(false);
    const PhaseRotationFolding folding;
    const Pass *passes[] = { &fusion, &commutative, &commutative_keep,
                             &folding };
    std::vector<QuantumCircuit> corpus = registryLevel3Inputs();
    Rng rng(109);
    for (int trial = 0; trial < 300; ++trial) {
        const uint32_t n = 1 + static_cast<uint32_t>(rng.uniformInt(5));
        corpus.push_back(randomAnyGateCircuit(n, 10 + rng.uniformInt(120),
                                              rng));
        corpus.push_back(randomRichCircuit(n, 60, rng));
    }
    for (const QuantumCircuit &qc : corpus)
        for (const Pass *pass : passes)
            expectIdempotent(*pass, qc);
}

TEST(PassPropertyTest, CxCancellationNeedsSecondRunForNestedPairs)
{
    // The known exception to idempotence: CxCancellation pairs only
    // gates adjacent on both wires in one left-to-right scan, so the
    // outer pair of a nested CX(0,1) CX(0,2) CX(0,2) CX(0,1) only
    // becomes adjacent after the inner pair is gone.
    QuantumCircuit qc(3);
    qc.cx(0, 1);
    qc.cx(0, 2);
    qc.cx(0, 2);
    qc.cx(0, 1);
    const CxCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 2u);
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 0u);
    EXPECT_FALSE(pass.run(qc));
}


TEST(DepthSchedulingTest, ReordersCommutingChainForDepth)
{
    // CX(0,1), CX(1,2), CX(2,3) all share-target/control chains; the
    // first and last are parallelizable when the middle one moves.
    QuantumCircuit qc(4);
    qc.cx(0, 1);
    qc.cx(1, 2); // shares target-with-control: does not commute
    qc.cx(2, 3);
    // Depth is 3 in this order but CX(0,1) and CX(2,3) are disjoint:
    // scheduling can do better only if the dependency chain allows it.
    QuantumCircuit before = qc;
    DepthScheduling pass;
    pass.run(qc);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
    EXPECT_LE(entanglingDepth(qc), entanglingDepth(before));
}

TEST(DepthSchedulingTest, ImprovesSharedControlFan)
{
    // CX(1,0), CX(1,2), CX(3,2): the middle gate shares a control with
    // the first (commutes) and a target with the third (commutes).
    // Order (middle first) serializes; scheduling parallelizes the two
    // outer gates.
    QuantumCircuit qc(4);
    qc.cx(1, 2);
    qc.cx(1, 0);
    qc.cx(3, 2);
    QuantumCircuit before = qc;
    DepthScheduling pass;
    const bool changed = pass.run(qc);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
    if (changed) {
        EXPECT_LT(entanglingDepth(qc), entanglingDepth(before));
    }
}

TEST(DepthSchedulingTest, NeverIncreasesDepthOnRandomCircuits)
{
    Rng rng(83);
    for (int trial = 0; trial < 15; ++trial) {
        QuantumCircuit qc = randomCircuit(5, 30, rng);
        const size_t before_depth = entanglingDepth(qc);
        QuantumCircuit before = qc;
        DepthScheduling pass;
        pass.run(qc);
        EXPECT_LE(entanglingDepth(qc), before_depth);
        EXPECT_TRUE(circuitsEquivalent(before, qc));
    }
}

} // namespace
} // namespace quclear
