#include "pauli/pauli_list.hpp"

#include <cassert>
#include <cstdint>
#include <vector>

namespace quclear {

std::vector<std::vector<size_t>>
commutingBlocks(const std::vector<PauliTerm> &terms)
{
    std::vector<std::vector<size_t>> blocks;
    // OR of the open block's x- and z-words. A term whose z-bits miss
    // every member's x-bits and whose x-bits miss every member's z-bits
    // has a zero symplectic product with each member, so it joins
    // without the per-member scan (all-Z blocks always take this path).
    std::vector<uint64_t> block_x;
    std::vector<uint64_t> block_z;
    for (size_t i = 0; i < terms.size(); ++i) {
        const auto x = terms[i].pauli.xWords();
        const auto z = terms[i].pauli.zWords();
        bool fits = !blocks.empty();
        if (fits) {
            bool disjoint = true;
            for (size_t w = 0; w < x.size() && disjoint; ++w)
                disjoint = (z[w] & block_x[w]) == 0 &&
                           (x[w] & block_z[w]) == 0;
            if (!disjoint) {
                for (size_t j : blocks.back()) {
                    if (!terms[i].pauli.commutesWith(terms[j].pauli)) {
                        fits = false;
                        break;
                    }
                }
            }
        }
        if (fits) {
            blocks.back().push_back(i);
            for (size_t w = 0; w < x.size(); ++w) {
                block_x[w] |= x[w];
                block_z[w] |= z[w];
            }
        } else {
            blocks.push_back({ i });
            block_x.assign(x.begin(), x.end());
            block_z.assign(z.begin(), z.end());
        }
    }
    return blocks;
}

size_t
totalWeight(const std::vector<PauliTerm> &terms)
{
    size_t w = 0;
    for (const auto &t : terms)
        w += t.pauli.weight();
    return w;
}

uint32_t
numQubitsOf(const std::vector<PauliTerm> &terms)
{
    if (terms.empty())
        return 0;
    uint32_t n = terms.front().pauli.numQubits();
    for (const auto &t : terms) {
        assert(t.pauli.numQubits() == n);
        (void)t;
    }
    return n;
}

} // namespace quclear
