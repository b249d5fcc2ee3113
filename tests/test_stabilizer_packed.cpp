/**
 * @file
 * Differential cross-checks of the bit-sliced StabilizerSimulator
 * against ReferenceStabilizerSimulator (the seed row-major
 * implementation, kept as the semantic oracle).
 *
 * The two simulators share one contract: identical RNG consumption
 * (exactly one draw per random-outcome measurement) and identical
 * outcomes, generator tableaus, expectations, and sample maps for
 * every seed — bit equality, not distributional agreement. Widths
 * straddle every packing boundary of the interleaved 2n-row layout
 * (1, 63, 64, 65, 128, 256 qubits), and the whole battery re-runs
 * under every compiled-and-supported SIMD dispatch level, mirroring
 * test_simd's forced-level style.
 */
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "tableau/reference_stabilizer_simulator.hpp"
#include "tableau/stabilizer_simulator.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/simd_dispatch.hpp"

namespace quclear {
namespace {

/** Widths straddling the 64-bit packing boundaries of 2n rows. */
constexpr uint32_t kWidths[] = { 1, 2, 31, 32, 33, 63, 64, 65, 128, 256 };

/** Levels (scalar included) usable for whole-engine forced runs. */
std::vector<simd::Level>
supportedLevels()
{
    std::vector<simd::Level> out{ simd::Level::Scalar };
    for (simd::Level lvl : { simd::Level::Avx2 })
        if (simd::levelSupported(lvl))
            out.push_back(lvl);
    return out;
}

/** Restore auto dispatch even when a test body bails early. */
struct LevelGuard
{
    ~LevelGuard() { simd::resetLevel(); }
};

/** Both simulators after the same operations must hold the same
 *  generators, signs included. */
void
expectSameState(const StabilizerSimulator &packed,
                const ReferenceStabilizerSimulator &ref)
{
    ASSERT_EQ(packed.numQubits(), ref.numQubits());
    for (uint32_t i = 0; i < packed.numQubits(); ++i) {
        EXPECT_EQ(packed.destabilizer(i), ref.destabilizer(i))
            << "destabilizer " << i;
        EXPECT_EQ(packed.stabilizer(i), ref.stabilizer(i))
            << "stabilizer " << i;
    }
}

/** Drive both simulators through the same random gate stream. */
void
applyRandomGates(StabilizerSimulator &packed,
                 ReferenceStabilizerSimulator &ref, uint32_t n,
                 size_t count, Rng &rng)
{
    for (size_t i = 0; i < count; ++i) {
        const Gate g = randomCliffordGate(n, rng);
        packed.applyGate(g);
        ref.applyGate(g);
    }
}

/** Hermitian random Pauli (phase forced to 0 or 2). */
PauliString
randomHermitianPauli(uint32_t n, Rng &rng, double identity_bias)
{
    PauliString p = randomPhasedPauli(n, rng, identity_bias);
    p.setPhase(static_cast<uint8_t>(p.phase() & 2));
    return p;
}

TEST(StabilizerPacked, InitialStateMatchesReference)
{
    for (uint32_t n : kWidths) {
        StabilizerSimulator packed(n);
        ReferenceStabilizerSimulator ref(n);
        expectSameState(packed, ref);
    }
}

TEST(StabilizerPacked, RandomCircuitsMatchReferenceGenerators)
{
    Rng rng(101);
    for (uint32_t n : kWidths) {
        StabilizerSimulator packed(n);
        ReferenceStabilizerSimulator ref(n);
        applyRandomGates(packed, ref, n, 4 * n + 24, rng);
        expectSameState(packed, ref);
    }
}

TEST(StabilizerPacked, AppliedCircuitMatchesGateLoop)
{
    Rng rng(102);
    for (uint32_t n : { 3u, 64u, 65u }) {
        const QuantumCircuit qc = randomCliffordCircuit(n, 6 * n, rng);
        StabilizerSimulator packed(n);
        packed.applyCircuit(qc);
        ReferenceStabilizerSimulator ref(n);
        ref.applyCircuit(qc);
        expectSameState(packed, ref);
    }
}

TEST(StabilizerPacked, SeededMeasurementsMatchReference)
{
    Rng rng(103);
    for (uint32_t n : kWidths) {
        StabilizerSimulator packed(n);
        ReferenceStabilizerSimulator ref(n);
        // Twin RNGs with a shared seed: the packed simulator must
        // consume draws exactly like the reference (one per random
        // outcome), or the streams diverge and so do the outcomes.
        const uint64_t seed = 7'000 + n;
        Rng rng_packed(seed);
        Rng rng_ref(seed);
        for (int round = 0; round < 6; ++round) {
            applyRandomGates(packed, ref, n, n + 8, rng);
            for (int m = 0; m < 5; ++m) {
                const auto q =
                    static_cast<uint32_t>(rng.uniformInt(n));
                const bool a = packed.measure(q, rng_packed);
                const bool b = ref.measure(q, rng_ref);
                ASSERT_EQ(a, b) << "n=" << n << " q=" << q;
                // Immediate remeasurement is deterministic and equal.
                ASSERT_EQ(packed.measure(q, rng_packed), a);
                ASSERT_EQ(ref.measure(q, rng_ref), a);
            }
            expectSameState(packed, ref);
        }
    }
}

TEST(StabilizerPacked, ExpectationMatchesReference)
{
    Rng rng(104);
    for (uint32_t n : kWidths) {
        StabilizerSimulator packed(n);
        ReferenceStabilizerSimulator ref(n);
        applyRandomGates(packed, ref, n, 3 * n + 16, rng);
        for (int t = 0; t < 12; ++t) {
            // Dense, sparse, and identity-biased observables; sparse
            // ones are overwhelmingly outside the stabilizer group
            // (expectation 0), dense draws hit the +-1 paths too.
            const double bias = (t % 3) * 0.45;
            const PauliString obs = randomHermitianPauli(n, rng, bias);
            ASSERT_EQ(packed.expectation(obs), ref.expectation(obs))
                << "n=" << n << " t=" << t;
        }
        // Stabilizers themselves always have expectation +-1, and
        // anticommuting partners (the destabilizers) expectation 0.
        for (uint32_t i = 0; i < n; ++i) {
            EXPECT_EQ(packed.expectation(ref.stabilizer(i)), 1);
            EXPECT_EQ(packed.expectation(ref.destabilizer(i)),
                      ref.expectation(ref.destabilizer(i)));
        }
    }
}

TEST(StabilizerPacked, MeasureAllAndSampleMatchReference)
{
    Rng rng(105);
    for (uint32_t n : { 1u, 5u, 31u, 63u, 64u }) {
        {
            StabilizerSimulator packed(n);
            ReferenceStabilizerSimulator ref(n);
            applyRandomGates(packed, ref, n, 4 * n + 8, rng);
            Rng rng_packed(500 + n);
            Rng rng_ref(500 + n);
            ASSERT_EQ(packed.measureAll(rng_packed),
                      ref.measureAll(rng_ref))
                << "n=" << n;
            expectSameState(packed, ref);
        }
        const QuantumCircuit qc = randomCliffordCircuit(n, 3 * n + 6, rng);
        Rng rng_packed(900 + n);
        Rng rng_ref(900 + n);
        const auto counts_packed =
            StabilizerSimulator::sample(qc, 64, rng_packed);
        const auto counts_ref =
            ReferenceStabilizerSimulator::sample(qc, 64, rng_ref);
        EXPECT_EQ(counts_packed, counts_ref) << "n=" << n;
    }
}

TEST(StabilizerPacked, MeasurePauliMatchesReference)
{
    Rng rng(106);
    for (uint32_t n : kWidths) {
        StabilizerSimulator packed(n);
        ReferenceStabilizerSimulator ref(n);
        applyRandomGates(packed, ref, n, 2 * n + 12, rng);
        Rng rng_packed(40 + n);
        Rng rng_ref(40 + n);
        for (int t = 0; t < 8; ++t) {
            PauliString obs = randomSupportPauli(n, rng, 0.5);
            if (obs.weight() == 0)
                obs.setOp(static_cast<uint32_t>(rng.uniformInt(n)),
                          PauliOp::Z);
            if (rng.bernoulli(0.5))
                obs.setPhase(2);
            const bool a = packed.measurePauli(obs, rng_packed);
            const bool b = ref.measurePauli(obs, rng_ref);
            ASSERT_EQ(a, b) << "n=" << n << " t=" << t;
            // The observable is now (anti-)stabilized: expectation is
            // +1 for outcome false, -1 for outcome true, and repeating
            // the measurement is deterministic.
            ASSERT_EQ(packed.expectation(obs), a ? -1 : 1);
            ASSERT_EQ(packed.measurePauli(obs, rng_packed), a);
            ASSERT_EQ(ref.measurePauli(obs, rng_ref), a);
            expectSameState(packed, ref);
        }
    }
}

TEST(StabilizerPacked, ResetMatchesReference)
{
    Rng rng(107);
    for (uint32_t n : { 2u, 63u, 65u }) {
        StabilizerSimulator packed(n);
        ReferenceStabilizerSimulator ref(n);
        applyRandomGates(packed, ref, n, 3 * n, rng);
        Rng rng_packed(77);
        Rng rng_ref(77);
        for (uint32_t q = 0; q < n; ++q) {
            packed.reset(q, rng_packed);
            ref.reset(q, rng_ref);
            // A reset qubit reads 0 deterministically.
            ASSERT_FALSE(packed.measure(q, rng_packed));
            ASSERT_FALSE(ref.measure(q, rng_ref));
        }
        expectSameState(packed, ref);
    }
}

TEST(StabilizerPacked, InterleavedInstancesStayIndependent)
{
    // Two live simulators with different widths, operated alternately:
    // the per-instance measurement scratch must never leak between
    // them (a shared static scratch would corrupt one or the other).
    Rng rng(108);
    StabilizerSimulator packed_a(65);
    ReferenceStabilizerSimulator ref_a(65);
    StabilizerSimulator packed_b(7);
    ReferenceStabilizerSimulator ref_b(7);
    Rng rng_packed(11);
    Rng rng_ref(11);
    for (int round = 0; round < 8; ++round) {
        applyRandomGates(packed_a, ref_a, 65, 40, rng);
        applyRandomGates(packed_b, ref_b, 7, 10, rng);
        const auto qa = static_cast<uint32_t>(rng.uniformInt(65));
        const auto qb = static_cast<uint32_t>(rng.uniformInt(7));
        ASSERT_EQ(packed_a.measure(qa, rng_packed),
                  ref_a.measure(qa, rng_ref));
        ASSERT_EQ(packed_b.measure(qb, rng_packed),
                  ref_b.measure(qb, rng_ref));
    }
    expectSameState(packed_a, ref_a);
    expectSameState(packed_b, ref_b);
}

TEST(StabilizerPacked, ForcedDispatchLevelsAgree)
{
    LevelGuard guard;
    // The full gate + measurement + expectation scenario replayed under
    // every compiled-and-supported backend must be bit-identical: same
    // outcomes, same final generators.
    struct Transcript
    {
        std::vector<bool> outcomes;
        std::vector<int> expectations;
        std::vector<PauliString> rows;
    };
    std::vector<Transcript> transcripts;
    for (simd::Level lvl : supportedLevels()) {
        ASSERT_TRUE(simd::forceLevel(lvl));
        Transcript t;
        for (uint32_t n : { 5u, 64u, 129u }) {
            Rng rng(2'000 + n);
            Rng rng_meas(3'000 + n);
            StabilizerSimulator sim(n);
            for (int i = 0; i < 120; ++i)
                sim.applyGate(randomCliffordGate(n, rng));
            for (int m = 0; m < 10; ++m) {
                const auto q =
                    static_cast<uint32_t>(rng.uniformInt(n));
                t.outcomes.push_back(sim.measure(q, rng_meas));
                t.expectations.push_back(sim.expectation(
                    randomHermitianPauli(n, rng, 0.3)));
            }
            for (uint32_t i = 0; i < n; ++i) {
                t.rows.push_back(sim.destabilizer(i));
                t.rows.push_back(sim.stabilizer(i));
            }
        }
        transcripts.push_back(std::move(t));
    }
    for (size_t i = 1; i < transcripts.size(); ++i) {
        EXPECT_EQ(transcripts[0].outcomes, transcripts[i].outcomes);
        EXPECT_EQ(transcripts[0].expectations,
                  transcripts[i].expectations);
        EXPECT_EQ(transcripts[0].rows, transcripts[i].rows);
    }
}

} // namespace
} // namespace quclear
