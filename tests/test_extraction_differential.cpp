/**
 * @file
 * The extractor's pattern-table block loop against the direct block
 * loop of tests/reference_extraction.hpp, bit for bit, on fuzzed
 * programs. The programs mix the shapes that take each path of the
 * tables: long commuting blocks of small supports (memo hits), mixed
 * X/Y/Z blocks that need a basis layer, wide supports whose patterns
 * rarely repeat (memo misses) and supports above 32 qubits that cannot
 * be keyed at all, plus identity and repeated terms. Registers of 5, 30,
 * 64, 65 and 130 qubits cover one, two and three packed words; a
 * separate case puts two chains on interleaved (even / odd) qubit sets
 * with idle qubits between them at 96 and 130 qubits.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/clifford_extractor.hpp"
#include "pauli/support_pattern.hpp"
#include "reference_extraction.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

/** A term on @p k distinct random qubits with letters from @p letters. */
PauliString
randomTerm(uint32_t n, uint32_t k, const std::string &letters, Rng &rng)
{
    PauliString p(n);
    while (p.weight() < std::min(k, n)) {
        const auto q = static_cast<uint32_t>(rng.uniformInt(n));
        const char c = letters[rng.uniformInt(letters.size())];
        p.setOp(q, c == 'X' ? PauliOp::X : c == 'Y' ? PauliOp::Y : PauliOp::Z);
    }
    return p;
}

/**
 * One fuzzed program: four segments, each one of
 *  - a commuting all-Z block of @p block_terms to 2 * @p block_terms
 *    terms on 1-4 qubits (memo hits),
 *  - the same conjugated by a random local Clifford and a few CX, so
 *    the block still commutes but carries X and Y (basis layers),
 *  - random X/Y/Z terms with 1 to @p max_support qubit supports (the
 *    first one exactly @p max_support),
 * with identity terms and repeats of the segment's terms mixed in.
 */
std::vector<PauliTerm>
fuzzProgram(uint32_t n, uint32_t max_support, size_t block_terms, Rng &rng)
{
    std::vector<PauliTerm> terms;
    for (const uint64_t kind : { rng.uniformInt(3), uint64_t{ 0 },
                                 uint64_t{ 2 }, uint64_t{ 1 } }) {
        const size_t first = terms.size();
        const size_t count = kind == 2 ? 4 + rng.uniformInt(8)
                                       : block_terms + rng.uniformInt(block_terms);
        // A local Clifford plus a few CX keeps the supports small.
        QuantumCircuit mix(n);
        for (uint32_t q = 0; q < n; ++q) {
            if (rng.bernoulli(0.5))
                mix.h(q);
            if (rng.bernoulli(0.5))
                mix.s(q);
        }
        for (uint32_t c = 0; c < n / 8; ++c) {
            const auto a = static_cast<uint32_t>(rng.uniformInt(n));
            const auto b = static_cast<uint32_t>(rng.uniformInt(n));
            if (a != b)
                mix.cx(a, b);
        }
        for (size_t i = 0; i < count; ++i) {
            PauliString p(n);
            if (kind == 2) {
                const auto k =
                    i == 0 ? max_support
                           : static_cast<uint32_t>(
                                 1 + rng.uniformInt(max_support));
                p = randomTerm(n, k, "XYZ", rng);
            } else {
                const auto k = static_cast<uint32_t>(1 + rng.uniformInt(4));
                p = randomTerm(n, k, "Z", rng);
                if (kind == 1)
                    mix.conjugatePauli(p);
                p.setPhase(0);
            }
            terms.emplace_back(std::move(p), rng.uniformReal(-1, 1));
            if (rng.bernoulli(0.05))
                terms.emplace_back(PauliString(n), rng.uniformReal(-1, 1));
            if (rng.bernoulli(0.05)) {
                const size_t j = first + rng.uniformInt(terms.size() - first);
                terms.push_back(terms[j]);
            }
        }
    }
    return terms;
}

/**
 * A program whose chains sit on interleaved qubit sets: fuzzed programs
 * on the even qubits (chain side A) and on the odd qubits (side B),
 * with every eighth qubit and the last two left idle, spliced together
 * in random runs so commuting blocks bridge the two sides. Each chain
 * compiles in its own frame, so this drives the relabel both ways.
 */
std::vector<PauliTerm>
interleavedProgram(uint32_t n, Rng &rng)
{
    std::vector<uint32_t> lanes[2];
    for (uint32_t q = 0; q + 2 < n; ++q)
        if (q % 8 != 7)
            lanes[q % 2].push_back(q);
    std::vector<PauliTerm> sides[2];
    for (int side = 0; side < 2; ++side) {
        const auto k = static_cast<uint32_t>(lanes[side].size());
        for (const PauliTerm &t : fuzzProgram(k, 40, 30, rng)) {
            PauliString p(n);
            t.pauli.forEachSupport([&](uint32_t q, PauliOp op) {
                p.setOp(lanes[side][q], op);
            });
            sides[side].emplace_back(std::move(p), t.angle);
        }
    }
    std::vector<PauliTerm> terms;
    size_t next[2] = { 0, 0 };
    while (next[0] < sides[0].size() || next[1] < sides[1].size()) {
        const auto side = static_cast<int>(rng.uniformInt(2));
        for (uint64_t run = 1 + rng.uniformInt(6);
             run > 0 && next[side] < sides[side].size(); --run)
            terms.push_back(sides[side][next[side]++]);
    }
    return terms;
}

/** Connected components of the qubit-support graph (the chains). */
size_t
chainCount(const std::vector<PauliTerm> &terms, uint32_t n)
{
    std::vector<uint32_t> parent(n);
    for (uint32_t q = 0; q < n; ++q)
        parent[q] = q;
    const auto find = [&](uint32_t q) {
        while (parent[q] != q)
            q = parent[q] = parent[parent[q]];
        return q;
    };
    std::vector<bool> touched(n, false);
    for (const PauliTerm &t : terms) {
        uint32_t first = n;
        t.pauli.forEachSupport([&](uint32_t q, PauliOp) {
            touched[q] = true;
            if (first == n)
                first = q;
            else
                parent[find(q)] = find(first);
        });
    }
    size_t chains = 0;
    for (uint32_t q = 0; q < n; ++q)
        chains += touched[q] && find(q) == q ? 1 : 0;
    return chains;
}

/** Every combination the block loop branches on. */
std::vector<ExtractionConfig>
configGrid()
{
    std::vector<ExtractionConfig> grid;
    for (bool blocks : { true, false })
        for (uint32_t exhaustive : { 0u, 4u })
            for (uint32_t beam : { 0u, 8u })
                for (uint32_t lookahead : { 0u, 8u }) {
                    ExtractionConfig config;
                    config.useCommutingBlocks = blocks;
                    config.tree.exhaustiveThreshold = exhaustive;
                    config.tree.beamWidth = beam;
                    config.tree.maxLookahead = lookahead;
                    config.threads = 1;
                    grid.push_back(config);
                }
    return grid;
}

std::string
describe(const ExtractionConfig &config)
{
    return "blocks=" + std::to_string(config.useCommutingBlocks) +
           " exhaustive=" + std::to_string(config.tree.exhaustiveThreshold) +
           " beam=" + std::to_string(config.tree.beamWidth) +
           " lookahead=" + std::to_string(config.tree.maxLookahead) +
           " threads=" + std::to_string(config.threads);
}

class ExtractionDifferential : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(ExtractionDifferential, FuzzedProgramsMatchReference)
{
    const uint32_t n = GetParam();
    Rng rng(0xd1ffULL + n);
    for (int program = 0; program < 2; ++program) {
        const std::vector<PauliTerm> wide = fuzzProgram(n, 40, 50, rng);
        // A beam step copies width * k^2 states, so beam configs get a
        // short program with supports of at most 8 qubits (the beam is
        // the library's on both sides; only its inputs are under test).
        const std::vector<PauliTerm> narrow = fuzzProgram(n, 8, 10, rng);
        for (const ExtractionConfig &config : configGrid()) {
            const std::vector<PauliTerm> &terms =
                config.tree.beamWidth > 0 ? narrow : wide;
            SCOPED_TRACE("n=" + std::to_string(n) + " program " +
                         std::to_string(program) + " " + describe(config));
            expectSameExtraction(CliffordExtractor(config).run(terms),
                                 referenceExtract(terms, config));
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST_P(ExtractionDifferential, ThreadedMatchesReference)
{
    // The worker pool runs chains and batch conjugations; neither may
    // change what the tables compute.
    const uint32_t n = GetParam();
    Rng rng(0x7e4dULL + n);
    const std::vector<PauliTerm> terms = fuzzProgram(n, 40, 50, rng);
    ExtractionConfig config;
    const ExtractionResult want = referenceExtract(terms, config);
    for (uint32_t threads : { 2u, 4u }) {
        for (uint32_t bp : { 0u, 1u }) {
            config.threads = threads;
            config.blockParallelism = bp;
            SCOPED_TRACE(describe(config) + " bp=" + std::to_string(bp));
            expectSameExtraction(CliffordExtractor(config).run(terms), want);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Registers, ExtractionDifferential,
                         ::testing::Values(5u, 30u, 64u, 65u, 130u),
                         [](const ::testing::TestParamInfo<uint32_t> &param) {
                             return "n" + std::to_string(param.param);
                         });

TEST(ExtractionDifferentialChains, InterleavedChainsMatchReference)
{
    for (uint32_t n : { 96u, 130u }) {
        Rng rng(0xc4a1ULL + n);
        const std::vector<PauliTerm> terms = interleavedProgram(n, rng);
        ExtractionConfig config;
        config.threads = 1;
        const ExtractionResult want = referenceExtract(terms, config);
        for (uint32_t threads : { 1u, 4u }) {
            config.threads = threads;
            SCOPED_TRACE("n=" + std::to_string(n) + " " + describe(config));
            expectSameExtraction(CliffordExtractor(config).run(terms), want);
        }
    }
}

TEST(ExtractionDifferentialShapes, InterleavedProgramHasChainsAndIdleQubits)
{
    // Guard the interleaved fuzz: at least two chains, blocks that
    // bridge them (so they are sliced into sub-blocks), and idle qubits.
    for (uint32_t n : { 96u, 130u }) {
        Rng rng(0xc4a1ULL + n);
        const std::vector<PauliTerm> terms = interleavedProgram(n, rng);
        EXPECT_GE(chainCount(terms, n), 2u) << "n=" << n;
        size_t bridging = 0;
        for (const std::vector<size_t> &block : commutingBlocks(terms)) {
            bool side[2] = { false, false };
            for (size_t idx : block)
                terms[idx].pauli.forEachSupport(
                    [&](uint32_t q, PauliOp) { side[q % 2] = true; });
            bridging += side[0] && side[1] ? 1 : 0;
        }
        EXPECT_GT(bridging, 0u) << "n=" << n;
        std::vector<bool> touched(n, false);
        for (const PauliTerm &t : terms)
            t.pauli.forEachSupport(
                [&](uint32_t q, PauliOp) { touched[q] = true; });
        EXPECT_FALSE(touched[7]) << "n=" << n;
        EXPECT_FALSE(touched[n - 1]) << "n=" << n;
    }
}

TEST(ExtractionDifferentialShapes, FuzzHitsEveryTablePath)
{
    // Guard the fuzz distribution itself: some terms must have supports
    // above 32 qubits (no key), and some commuting blocks must be long
    // enough for small supports to repeat their patterns (memo hits).
    Rng rng(0xd1ffULL + 130);
    const std::vector<PauliTerm> terms = fuzzProgram(130, 40, 50, rng);
    size_t wide = 0;
    for (const PauliTerm &t : terms)
        wide += t.pauli.weight() > SupportPattern::kMaxQubits ? 1 : 0;
    EXPECT_GT(wide, 0u);
    size_t longest = 0;
    for (const std::vector<size_t> &block : commutingBlocks(terms))
        longest = std::max(longest, block.size());
    EXPECT_GE(longest, 50u);
}

} // namespace
} // namespace quclear
