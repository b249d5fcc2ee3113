/**
 * @file
 * Randomized property tests across the whole pipeline: many seeds, odd
 * shapes (single qubit, word-boundary widths, long programs, repeated
 * and identity terms), and cross-module consistency checks that
 * complement the targeted unit suites.
 *
 * Every stream is derived from util/rng's deterministic generator and a
 * fixed base seed, so CI runs are bit-for-bit reproducible. Set
 * QUCLEAR_FUZZ_SEED to explore a different region of the input space;
 * failures always print the effective seed for replay.
 */
#include <gtest/gtest.h>

#include <cstdlib>

#include "baselines/naive_synthesis.hpp"
#include "circuit/qasm.hpp"
#include "circuit/qasm_import.hpp"
#include "core/quclear.hpp"
#include "pauli/pauli_list.hpp"
#include "sim/expectation.hpp"
#include "support/reference_stabilizer_simulator.hpp"
#include "tableau/clifford_tableau.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

/**
 * Base seed mixed into every fuzz stream. Fixed by default so CI is
 * reproducible; QUCLEAR_FUZZ_SEED overrides it for exploratory runs.
 */
uint64_t
fuzzBaseSeed()
{
    static const uint64_t seed = [] {
        if (const char *env = std::getenv("QUCLEAR_FUZZ_SEED"))
            return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
        return static_cast<uint64_t>(0x51EEDULL);
    }();
    return seed;
}

/** Per-case stream: deterministic in (base seed, case seed). */
Rng
fuzzRng(uint64_t case_seed)
{
    return Rng(fuzzBaseSeed() * 0x9E3779B97F4A7C15ULL + case_seed);
}

PauliString
randomPauli(uint32_t n, Rng &rng, double identity_bias = 0.25)
{
    PauliString p(n);
    for (uint32_t q = 0; q < n; ++q) {
        if (rng.bernoulli(identity_bias))
            continue;
        p.setOp(q, static_cast<PauliOp>(1 + rng.uniformInt(3)));
    }
    return p;
}

class ExtractionFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ExtractionFuzz, ExtractionSoundOnRandomPrograms)
{
    Rng rng = fuzzRng(GetParam());
    const uint32_t n = 1 + static_cast<uint32_t>(rng.uniformInt(6));
    const size_t m = 1 + rng.uniformInt(14);
    std::vector<PauliTerm> terms;
    for (size_t i = 0; i < m; ++i) {
        // Deliberately allow identity and duplicate terms.
        terms.emplace_back(randomPauli(n, rng),
                           rng.uniformReal(-2.0, 2.0));
    }
    const QuClear compiler;
    const auto program = compiler.compile(terms);
    Statevector sv(n);
    sv.applyCircuit(program.circuit());
    sv.applyCircuit(program.extraction.extractedClifford);
    EXPECT_TRUE(referenceState(terms).equalsUpToGlobalPhase(sv))
        << "base seed " << fuzzBaseSeed() << ", case seed " << GetParam();

    // Observable absorption spot check.
    const PauliString obs = randomPauli(n, rng, 0.0);
    const auto absorbed =
        compiler.absorbObservables(program, { obs })[0];
    Statevector opt(n);
    opt.applyCircuit(program.circuit());
    PauliString unsigned_obs = absorbed.transformed;
    unsigned_obs.setPhase(0);
    EXPECT_NEAR(referenceState(terms).expectation(obs),
                absorbed.sign * opt.expectation(unsigned_obs), 1e-9)
        << "base seed " << fuzzBaseSeed() << ", case seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtractionFuzz,
                         ::testing::Range<uint64_t>(1, 41));

class PauliAlgebraFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PauliAlgebraFuzz, MultiplicationAssociativeAndConsistent)
{
    Rng rng = fuzzRng(GetParam() * 7919);
    // Widths straddling the 64-bit word boundary.
    for (uint32_t n : { 3u, 63u, 64u, 65u, 130u }) {
        PauliString a = randomPauli(n, rng);
        PauliString b = randomPauli(n, rng);
        PauliString c = randomPauli(n, rng);

        PauliString ab_c = a;
        ab_c.mulRight(b);
        ab_c.mulRight(c);
        PauliString bc = b;
        bc.mulRight(c);
        PauliString a_bc = a;
        a_bc.mulRight(bc);
        EXPECT_EQ(ab_c, a_bc) << "associativity, n=" << n;

        // P . P = I with phase 0 for Hermitian P.
        PauliString aa = a;
        aa.mulRight(a);
        EXPECT_TRUE(aa.isIdentity());
        EXPECT_EQ(aa.phase(), 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PauliAlgebraFuzz,
                         ::testing::Range<uint64_t>(1, 21));

TEST(WideProgramTest, ExtractionAt80QubitsRunsAndStaysConsistent)
{
    // Beyond dense-simulation reach: verify with tableau round trips
    // instead — E(tail(P)) == P for many random P.
    Rng rng = fuzzRng(424242);
    const uint32_t n = 80;
    std::vector<PauliTerm> terms;
    for (int i = 0; i < 60; ++i)
        terms.emplace_back(randomPauli(n, rng, 0.8),
                           rng.uniformReal(-1, 1));
    // Drop all-identity terms' influence by ensuring some weight.
    const CliffordExtractor extractor;
    const auto result = extractor.run(terms);
    EXPECT_TRUE(result.extractedClifford.isClifford());

    const CliffordTableau tail_tab =
        CliffordTableau::fromCircuit(result.extractedClifford);
    for (int trial = 0; trial < 10; ++trial) {
        const PauliString p = randomPauli(n, rng, 0.5);
        EXPECT_EQ(result.conjugator.conjugate(tail_tab.conjugate(p)), p);
    }
}

TEST(WideProgramTest, StabilizerSamplingOfWideTail)
{
    Rng rng = fuzzRng(515151);
    const uint32_t n = 48;
    std::vector<PauliTerm> terms;
    for (int i = 0; i < 30; ++i)
        terms.emplace_back(randomPauli(n, rng, 0.7),
                           rng.uniformReal(-1, 1));
    const auto result = CliffordExtractor().run(terms);
    ReferenceStabilizerSimulator sim(n);
    sim.applyCircuit(result.extractedClifford);
    expectTailStabilizesZeroState(sim, result.extractedClifford);
}

TEST(QasmFuzzTest, ExportImportIdempotent)
{
    Rng rng = fuzzRng(616161);
    for (int trial = 0; trial < 10; ++trial) {
        const uint32_t n = 1 + static_cast<uint32_t>(rng.uniformInt(8));
        QuantumCircuit qc(n);
        for (int i = 0; i < 30; ++i) {
            const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
            const uint32_t r = static_cast<uint32_t>(rng.uniformInt(n));
            switch (rng.uniformInt(8)) {
              case 0: qc.h(q); break;
              case 1: qc.s(q); break;
              case 2: qc.sxdg(q); break;
              case 3: qc.rz(q, rng.uniformReal(-7, 7)); break;
              case 4: qc.rx(q, rng.uniformReal(-7, 7)); break;
              case 5:
                if (q != r)
                    qc.swap(q, r);
                break;
              default:
                if (q != r)
                    qc.cx(q, r);
                break;
            }
        }
        const std::string once = toQasm(qc);
        const std::string twice = toQasm(fromQasm(once));
        EXPECT_EQ(once, twice);
    }
}

TEST(CommutingBlockFuzzTest, BlocksAreValidAndCoverEverything)
{
    Rng rng = fuzzRng(717171);
    for (int trial = 0; trial < 20; ++trial) {
        const uint32_t n = 2 + static_cast<uint32_t>(rng.uniformInt(6));
        std::vector<PauliTerm> terms;
        const size_t m = 1 + rng.uniformInt(30);
        for (size_t i = 0; i < m; ++i)
            terms.emplace_back(randomPauli(n, rng), 0.1);
        const auto blocks = commutingBlocks(terms);

        size_t covered = 0;
        size_t expected_index = 0;
        for (const auto &block : blocks) {
            covered += block.size();
            for (size_t idx : block) {
                EXPECT_EQ(idx, expected_index) << "order preserved";
                ++expected_index;
            }
            for (size_t i = 0; i < block.size(); ++i)
                for (size_t j = i + 1; j < block.size(); ++j)
                    EXPECT_TRUE(terms[block[i]].pauli.commutesWith(
                        terms[block[j]].pauli));
        }
        EXPECT_EQ(covered, terms.size());
    }
}

TEST(SingleQubitProgramTest, EveryCompilerHandlesWidthOne)
{
    const std::vector<PauliTerm> terms = {
        PauliTerm::fromLabel("X", 0.3),
        PauliTerm::fromLabel("Z", 0.7),
        PauliTerm::fromLabel("Y", -0.4),
    };
    const QuClear compiler;
    const auto program = compiler.compile(terms);
    Statevector sv(1);
    sv.applyCircuit(program.circuit());
    sv.applyCircuit(program.extraction.extractedClifford);
    EXPECT_TRUE(referenceState(terms).equalsUpToGlobalPhase(sv));

    Statevector nv(1);
    nv.applyCircuit(naiveSynthesis(terms));
    EXPECT_TRUE(referenceState(terms).equalsUpToGlobalPhase(nv));
}

} // namespace
} // namespace quclear
