/**
 * @file
 * Test-only reference for CliffordExtractor::run: the block loop in its
 * direct form. Every candidate is scored by a full
 * nonRecursiveExtractionCost call, every committed gate is replayed on
 * every pending cache entry one gate at a time, and the exhaustive
 * tree search copies its lookahead window at every node. Chains,
 * sub-blocks, lookahead and the stitch follow the library's rules, so
 * the library's pattern-table block loop can be checked bit for bit
 * against the obvious construction. Sequential; `threads` and
 * `blockParallelism` are ignored.
 */
#ifndef QUCLEAR_TESTS_REFERENCE_EXTRACTION_HPP
#define QUCLEAR_TESTS_REFERENCE_EXTRACTION_HPP

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/clifford_extractor.hpp"
#include "core/tree_synthesis.hpp"
#include "pauli/pauli_list.hpp"

namespace quclear {

/**
 * Algorithm 1 with a copied lookahead read per call and a copying
 * exhaustive search. A beam search, when configured and reached, is
 * the library's own (this reference does not cover it).
 */
class ReferenceTreeSynthesizer
{
  public:
    ReferenceTreeSynthesizer(CliffordTableau &acc, QuantumCircuit &tree,
                             std::vector<PauliString> &lookahead,
                             const TreeSynthesisConfig &config)
        : acc_(acc), tree_(tree), lookahead_(lookahead), config_(config)
    {
    }

    uint32_t synthesize(const std::vector<uint32_t> &idxs)
    {
        if (idxs.size() >= 2 && config_.maxLookahead > 0) {
            if (idxs.size() <= config_.exhaustiveThreshold)
                return exhaustive(idxs);
            if (config_.beamWidth > 0)
                return TreeSynthesizer(acc_, tree_, lookahead_, config_)
                    .synthesize(idxs);
        }
        return synth(idxs, 0);
    }

  private:
    bool lookaheadAt(uint32_t depth, PauliString &out) const
    {
        if (depth >= config_.maxLookahead || depth >= lookahead_.size())
            return false;
        out = lookahead_[depth];
        return true;
    }

    void emitCx(uint32_t control, uint32_t target)
    {
        tree_.cx(control, target);
        acc_.appendCX(control, target);
        for (PauliString &p : lookahead_)
            p.applyCX(control, target);
    }

    uint32_t chain(const std::vector<uint32_t> &idxs)
    {
        for (size_t i = 0; i + 1 < idxs.size(); ++i)
            emitCx(idxs[i], idxs[i + 1]);
        return idxs.back();
    }

    uint32_t connectRoots(const std::vector<uint32_t> &roots, uint32_t depth)
    {
        if (roots.size() == 1)
            return roots[0];
        PauliString next;
        if (!lookaheadAt(depth, next))
            return chain(roots);
        std::vector<uint32_t> remaining = roots;
        while (remaining.size() > 1) {
            int best_delta = 3;
            size_t best_c = 0, best_t = 1;
            for (size_t ci = 0; ci < remaining.size(); ++ci) {
                for (size_t ti = 0; ti < remaining.size(); ++ti) {
                    if (ci == ti)
                        continue;
                    const int delta =
                        cxWeightDelta(next, remaining[ci], remaining[ti]);
                    if (delta < best_delta) {
                        best_delta = delta;
                        best_c = ci;
                        best_t = ti;
                    }
                }
            }
            const uint32_t c = remaining[best_c];
            const uint32_t t = remaining[best_t];
            emitCx(c, t);
            next.applyCX(c, t);
            remaining.erase(remaining.begin() +
                            static_cast<std::ptrdiff_t>(best_c));
        }
        return remaining[0];
    }

    uint32_t synth(const std::vector<uint32_t> &idxs, uint32_t depth)
    {
        if (idxs.size() == 1)
            return idxs[0];
        PauliString next;
        if (!lookaheadAt(depth, next))
            return chain(idxs);
        std::array<std::vector<uint32_t>, 4> groups;
        for (uint32_t q : idxs)
            groups[static_cast<uint8_t>(next.op(q))].push_back(q);
        std::vector<uint32_t> roots;
        for (const auto &group : groups) {
            if (group.empty())
                continue;
            uint32_t root;
            if (group.size() == 1) {
                root = group[0];
            } else if (group.size() == idxs.size()) {
                if (config_.recursive && depth + 1 < config_.maxLookahead)
                    return synth(group, depth + 1);
                return chain(group);
            } else if (config_.recursive) {
                root = synth(group, depth + 1);
            } else {
                root = chain(group);
            }
            roots.push_back(root);
        }
        return connectRoots(roots, depth);
    }

    uint32_t exhaustive(const std::vector<uint32_t> &idxs)
    {
        constexpr uint32_t kScoreDepth = 8;
        std::vector<PauliString> looks;
        for (uint32_t d = 0; d < kScoreDepth; ++d) {
            PauliString p;
            if (!lookaheadAt(d, p))
                break;
            looks.push_back(std::move(p));
        }
        if (looks.empty())
            return chain(idxs);
        const size_t depth = looks.size();

        std::vector<Gate> best_seq;
        std::array<uint32_t, kScoreDepth> best_score;
        best_score.fill(~0u);
        std::vector<Gate> seq;
        auto dfs = [&](auto &&self, const std::vector<uint32_t> &set,
                       const std::vector<PauliString> &ls) -> void {
            if (set.size() == 1) {
                std::array<uint32_t, kScoreDepth> score{};
                for (size_t d = 0; d < depth; ++d)
                    score[d] = ls[d].weight();
                if (score < best_score) {
                    best_score = score;
                    best_seq = seq;
                }
                return;
            }
            for (size_t ci = 0; ci < set.size(); ++ci) {
                for (size_t ti = 0; ti < set.size(); ++ti) {
                    if (ci == ti)
                        continue;
                    std::vector<PauliString> child = ls;
                    for (PauliString &l : child)
                        l.applyCX(set[ci], set[ti]);
                    std::vector<uint32_t> sub = set;
                    sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(ci));
                    seq.emplace_back(GateType::CX, set[ci], set[ti]);
                    self(self, sub, child);
                    seq.pop_back();
                }
            }
        };
        dfs(dfs, idxs, looks);

        for (const Gate &g : best_seq)
            emitCx(g.q0, g.q1);
        for (uint32_t q : idxs) {
            bool used_as_control = false;
            for (const Gate &g : best_seq)
                used_as_control = used_as_control || g.q0 == q;
            if (!used_as_control)
                return q;
        }
        assert(false && "no root survived the merge sequence");
        return idxs.back();
    }

    CliffordTableau &acc_;
    QuantumCircuit &tree_;
    std::vector<PauliString> &lookahead_;
    TreeSynthesisConfig config_;
};

/** Reference implementation of CliffordExtractor::run. */
inline ExtractionResult
referenceExtract(const std::vector<PauliTerm> &terms,
                 const ExtractionConfig &config)
{
    const uint32_t n = numQubitsOf(terms);
    std::vector<std::vector<size_t>> blocks;
    if (config.useCommutingBlocks) {
        blocks = commutingBlocks(terms);
    } else {
        for (size_t i = 0; i < terms.size(); ++i)
            blocks.push_back({ i });
    }

    // Chains: connected components of the qubit-support graph, found by
    // flooding a qubit-adjacency list rather than by union-find.
    std::vector<std::vector<uint32_t>> adjacent(n);
    for (const PauliTerm &term : terms) {
        const std::vector<uint32_t> s = term.pauli.support();
        for (size_t i = 1; i < s.size(); ++i) {
            adjacent[s[0]].push_back(s[i]);
            adjacent[s[i]].push_back(s[0]);
        }
    }
    std::vector<size_t> component(n, SIZE_MAX);
    std::vector<size_t> chain_of_component;
    for (uint32_t q = 0; q < n; ++q) {
        if (component[q] != SIZE_MAX)
            continue;
        std::vector<uint32_t> stack{ q };
        component[q] = q;
        while (!stack.empty()) {
            const uint32_t a = stack.back();
            stack.pop_back();
            for (uint32_t b : adjacent[a]) {
                if (component[b] == SIZE_MAX) {
                    component[b] = q;
                    stack.push_back(b);
                }
            }
        }
    }
    chain_of_component.assign(n, SIZE_MAX);

    // Sub-blocks: per block, one per chain in order of first touch;
    // identity terms ride with the nearest preceding non-identity term
    // of their block, or with the first sub-block.
    struct RefSubBlock
    {
        size_t chain;
        std::vector<size_t> terms;
    };
    std::vector<std::vector<RefSubBlock>> block_subs(blocks.size());
    size_t chains = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
        std::vector<size_t> leading;
        RefSubBlock *last = nullptr;
        for (size_t idx : blocks[b]) {
            const std::vector<uint32_t> s = terms[idx].pauli.support();
            if (s.empty()) {
                if (last != nullptr)
                    last->terms.push_back(idx);
                else
                    leading.push_back(idx);
                continue;
            }
            size_t &c = chain_of_component[component[s[0]]];
            if (c == SIZE_MAX)
                c = chains++;
            RefSubBlock *sub = nullptr;
            for (RefSubBlock &candidate : block_subs[b])
                if (candidate.chain == c)
                    sub = &candidate;
            if (sub == nullptr) {
                block_subs[b].push_back({ c, {} });
                sub = &block_subs[b].back();
            }
            sub->terms.insert(sub->terms.end(), leading.begin(),
                              leading.end());
            leading.clear();
            sub->terms.push_back(idx);
            last = sub;
        }
    }

    struct RefOutput
    {
        QuantumCircuit gates;
        std::vector<size_t> rotationTerms;
        std::vector<QuantumCircuit> vlist;
    };
    std::vector<std::vector<RefOutput>> outputs(blocks.size());
    for (size_t b = 0; b < blocks.size(); ++b)
        outputs[b].resize(block_subs[b].size(),
                          RefOutput{ QuantumCircuit(n), {}, {} });

    std::vector<CliffordTableau> accs(chains, CliffordTableau(n));
    for (size_t c = 0; c < chains; ++c) {
        CliffordTableau &acc = accs[c];
        // This chain's sub-blocks in block order, for the lookahead.
        std::vector<const RefSubBlock *> mine;
        std::vector<RefOutput *> outs;
        for (size_t b = 0; b < blocks.size(); ++b) {
            for (size_t i = 0; i < block_subs[b].size(); ++i) {
                if (block_subs[b][i].chain == c) {
                    mine.push_back(&block_subs[b][i]);
                    outs.push_back(&outputs[b][i]);
                }
            }
        }
        for (size_t ci = 0; ci < mine.size(); ++ci) {
            RefOutput &out = *outs[ci];
            std::vector<size_t> order = mine[ci]->terms;
            std::vector<PauliString> conj;
            for (size_t idx : order)
                conj.push_back(acc.conjugate(terms[idx].pauli));

            const auto replay = [&](size_t from, const QuantumCircuit &qc) {
                for (size_t k = from; k < conj.size(); ++k)
                    for (const Gate &g : qc.gates())
                        applyGateToPauli(conj[k], g);
            };

            for (size_t pos = 0; pos < order.size(); ++pos) {
                if (conj[pos].isIdentity())
                    continue;
                if (config.useCommutingBlocks && pos + 2 < order.size()) {
                    size_t best = pos + 1;
                    uint32_t best_cost = ~0u;
                    for (size_t j = pos + 1; j < order.size(); ++j) {
                        const uint32_t cost =
                            nonRecursiveExtractionCost(conj[pos], conj[j]);
                        if (cost < best_cost) {
                            best_cost = cost;
                            best = j;
                        }
                    }
                    // Move the pick right after pos, keeping the rest in
                    // order.
                    std::rotate(order.begin() + static_cast<long>(pos + 1),
                                order.begin() + static_cast<long>(best),
                                order.begin() + static_cast<long>(best + 1));
                    std::rotate(conj.begin() + static_cast<long>(pos + 1),
                                conj.begin() + static_cast<long>(best),
                                conj.begin() + static_cast<long>(best + 1));
                }

                const PauliString curr = conj[pos];
                const std::vector<uint32_t> support = curr.support();
                QuantumCircuit vj(n);
                for (uint32_t q : support) {
                    if (curr.op(q) == PauliOp::X) {
                        vj.h(q);
                    } else if (curr.op(q) == PauliOp::Y) {
                        vj.sdg(q);
                        vj.h(q);
                    }
                }
                acc.appendCircuit(vj);
                out.gates.appendCircuit(vj);
                replay(pos, vj);

                std::vector<PauliString> lookahead;
                for (size_t j = pos + 1; j < conj.size() &&
                                         lookahead.size() <
                                             config.tree.maxLookahead;
                     ++j)
                    lookahead.push_back(conj[j]);
                for (size_t cb = ci + 1; cb < mine.size(); ++cb)
                    for (size_t idx : mine[cb]->terms)
                        if (lookahead.size() < config.tree.maxLookahead)
                            lookahead.push_back(
                                acc.conjugate(terms[idx].pauli));

                QuantumCircuit tree(n);
                const uint32_t root =
                    ReferenceTreeSynthesizer(acc, tree, lookahead,
                                             config.tree)
                        .synthesize(support);
                out.gates.appendCircuit(tree);
                vj.appendCircuit(tree);
                replay(pos, tree);

                const PauliString &reduced = conj[pos];
                assert(reduced.weight() == 1 &&
                       reduced.op(root) == PauliOp::Z);
                const double t_eff = terms[order[pos]].angle * reduced.sign();
                out.gates.rz(root, -2.0 * t_eff);
                out.rotationTerms.push_back(order[pos]);
                out.vlist.push_back(std::move(vj));
            }
        }
    }

    ExtractionResult result{ QuantumCircuit(n), QuantumCircuit(n),
                             CliffordTableau(n), {} };
    std::vector<const QuantumCircuit *> vlist;
    for (size_t b = 0; b < blocks.size(); ++b) {
        for (const RefOutput &out : outputs[b]) {
            result.optimized.appendCircuit(out.gates);
            result.rotationTerms.insert(result.rotationTerms.end(),
                                        out.rotationTerms.begin(),
                                        out.rotationTerms.end());
            for (const QuantumCircuit &v : out.vlist)
                vlist.push_back(&v);
        }
    }
    for (size_t j = vlist.size(); j-- > 0;)
        result.extractedClifford.appendCircuit(vlist[j]->inverse());
    for (const CliffordTableau &acc : accs)
        result.conjugator.composeWith(acc);
    return result;
}

/** Index of the first differing gate, or SIZE_MAX if none. */
inline size_t
firstGateMismatch(const QuantumCircuit &a, const QuantumCircuit &b)
{
    const size_t common = std::min(a.size(), b.size());
    for (size_t i = 0; i < common; ++i)
        if (!(a.gate(i) == b.gate(i)))
            return i;
    return a.size() == b.size() ? SIZE_MAX : common;
}

/**
 * Bit-identical extraction results: U' gates, tail gates (exact
 * angles), rotation order and every conjugator image with its sign.
 */
inline void
expectSameExtraction(const ExtractionResult &got,
                     const ExtractionResult &want)
{
    EXPECT_EQ(firstGateMismatch(got.optimized, want.optimized), SIZE_MAX)
        << "U' differs (" << got.optimized.size() << " vs "
        << want.optimized.size() << " gates)";
    EXPECT_EQ(firstGateMismatch(got.extractedClifford,
                                want.extractedClifford),
              SIZE_MAX)
        << "tail differs";
    EXPECT_EQ(got.rotationTerms, want.rotationTerms);
    ASSERT_EQ(got.conjugator.numQubits(), want.conjugator.numQubits());
    for (uint32_t q = 0; q < want.conjugator.numQubits(); ++q) {
        ASSERT_EQ(got.conjugator.imageX(q), want.conjugator.imageX(q))
            << "X image of qubit " << q;
        ASSERT_EQ(got.conjugator.imageZ(q), want.conjugator.imageZ(q))
            << "Z image of qubit " << q;
    }
}

} // namespace quclear

#endif // QUCLEAR_TESTS_REFERENCE_EXTRACTION_HPP
