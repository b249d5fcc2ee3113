/**
 * @file
 * Tests for commuting-block partitioning (convert_commute_sets of
 * Algorithm 2) and term-list helpers.
 */
#include <gtest/gtest.h>

#include "pauli/pauli_list.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

TEST(CommutingBlocksTest, AllCommutingFormsOneBlock)
{
    // Z-type strings all commute.
    const auto terms =
        termsFromLabels({ "ZZI", "IZZ", "ZIZ", "ZII" });
    const auto blocks = commutingBlocks(terms);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].size(), 4u);
}

TEST(CommutingBlocksTest, AnticommutingNeighborsSplit)
{
    const auto terms = termsFromLabels({ "ZI", "XI", "ZI" });
    const auto blocks = commutingBlocks(terms);
    ASSERT_EQ(blocks.size(), 3u);
}

TEST(CommutingBlocksTest, BlockRequiresCommutingWithAllMembers)
{
    // ZZ and XX commute; ZI anticommutes with XX but commutes with ZZ:
    // it must start a new block.
    const auto terms = termsFromLabels({ "ZZ", "XX", "ZI" });
    const auto blocks = commutingBlocks(terms);
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_EQ(blocks[0], (std::vector<size_t>{ 0, 1 }));
    EXPECT_EQ(blocks[1], (std::vector<size_t>{ 2 }));
}

TEST(CommutingBlocksTest, BlockOrderPreserved)
{
    // QAOA-like: problem layer then mixer layer -> exactly two blocks.
    const auto terms =
        termsFromLabels({ "ZZI", "IZZ", "XII", "IXI", "IIX" });
    const auto blocks = commutingBlocks(terms);
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_EQ(blocks[0].size(), 2u);
    EXPECT_EQ(blocks[1].size(), 3u);
}

TEST(CommutingBlocksTest, EmptyInput)
{
    EXPECT_TRUE(commutingBlocks({}).empty());
}

/** The per-member scan commutingBlocks runs when its masks overlap. */
std::vector<std::vector<size_t>>
naiveCommutingBlocks(const std::vector<PauliTerm> &terms)
{
    std::vector<std::vector<size_t>> blocks;
    for (size_t i = 0; i < terms.size(); ++i) {
        bool fits = !blocks.empty();
        if (fits) {
            for (size_t j : blocks.back()) {
                if (!terms[i].pauli.commutesWith(terms[j].pauli)) {
                    fits = false;
                    break;
                }
            }
        }
        if (fits)
            blocks.back().push_back(i);
        else
            blocks.push_back({ i });
    }
    return blocks;
}

TEST(CommutingBlocksTest, MatchesNaiveScanOnFuzzedTermLists)
{
    // All-Z lists (always one block), mixed X/Y/Z, identity terms and
    // repeated terms, at one-word and multi-word widths.
    Rng rng(4242);
    for (uint32_t n : { 1u, 3u, 8u, 64u, 70u, 130u }) {
        for (int trial = 0; trial < 60; ++trial) {
            const int kind = trial % 4;
            const double identity_bias =
                n > 8 ? 0.95 : 0.3 + 0.1 * (trial % 5);
            std::vector<PauliTerm> terms;
            const size_t m = 1 + rng.uniformInt(80);
            while (terms.size() < m) {
                PauliString p = randomSupportPauli(n, rng, identity_bias);
                if (kind == 0) { // all-Z
                    PauliString z(n);
                    for (uint32_t q : p.support())
                        z.setOp(q, PauliOp::Z);
                    p = z;
                } else if (kind == 2 && rng.bernoulli(0.2)) {
                    p = PauliString(n); // identity term
                } else if (kind == 3 && !terms.empty() &&
                           rng.bernoulli(0.3)) {
                    p = terms[rng.uniformInt(terms.size())].pauli;
                }
                terms.emplace_back(std::move(p), 0.1);
            }
            ASSERT_EQ(commutingBlocks(terms), naiveCommutingBlocks(terms))
                << "n=" << n << " trial=" << trial;
            if (kind == 0) {
                EXPECT_EQ(commutingBlocks(terms).size(), 1u);
            }
        }
    }
}

TEST(PauliListTest, TotalWeight)
{
    const auto terms = termsFromLabels({ "ZZI", "XYZ", "III" });
    EXPECT_EQ(totalWeight(terms), 5u);
}

TEST(PauliListTest, NumQubitsOf)
{
    EXPECT_EQ(numQubitsOf({}), 0u);
    EXPECT_EQ(numQubitsOf(termsFromLabels({ "XYZI" })), 4u);
}

TEST(PauliListTest, TermsFromLabelsSharedAngle)
{
    const auto terms = termsFromLabels({ "X", "Z" }, 0.25);
    ASSERT_EQ(terms.size(), 2u);
    EXPECT_EQ(terms[0].angle, 0.25);
    EXPECT_EQ(terms[1].angle, 0.25);
}

} // namespace
} // namespace quclear
