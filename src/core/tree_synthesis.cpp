#include "core/tree_synthesis.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace quclear {

namespace {

/**
 * Lookahead Paulis a schedule search scores. Deep scoring matters, or
 * a searched schedule is myopically optimal for the next rotation while
 * hurting later ones (see bench_ablation).
 */
constexpr size_t kScoreDepth = 8;

/** Weight contribution of an (x, z) bit pair. */
inline int
opWeight(bool x, bool z)
{
    return (x || z) ? 1 : 0;
}

} // namespace

int
cxWeightDelta(const PauliString &p, uint32_t control, uint32_t target)
{
    const bool xc = p.xBit(control), zc = p.zBit(control);
    const bool xt = p.xBit(target), zt = p.zBit(target);
    // CX conjugation: x_t ^= x_c, z_c ^= z_t.
    const bool nxt = xt ^ xc;
    const bool nzc = zc ^ zt;
    const int before = opWeight(xc, zc) + opWeight(xt, zt);
    const int after = opWeight(xc, nzc) + opWeight(nxt, zt);
    return after - before;
}

TreeSynthesizer::TreeSynthesizer(CliffordTableau &acc, QuantumCircuit &tree,
                                 std::span<PauliString> lookahead,
                                 const TreeSynthesisConfig &config)
    : acc_(acc), tree_(tree), lookahead_(lookahead), config_(config)
{
}

const PauliString *
TreeSynthesizer::lookaheadAt(uint32_t depth) const
{
    if (depth >= config_.maxLookahead || depth >= lookahead_.size())
        return nullptr;
    // The string already equals acc_.conjugate(original term): emitCx
    // keeps every entry in lockstep with the tableau.
    return &lookahead_[depth];
}

size_t
TreeSynthesizer::scoreDepth() const
{
    return std::min({ kScoreDepth, size_t{ config_.maxLookahead },
                      lookahead_.size() });
}

void
TreeSynthesizer::emitCx(uint32_t control, uint32_t target)
{
    tree_.cx(control, target);
    acc_.appendCX(control, target);
    for (PauliString &p : lookahead_)
        p.applyCX(control, target);
}

uint32_t
TreeSynthesizer::chain(const std::vector<uint32_t> &idxs)
{
    assert(!idxs.empty());
    for (size_t i = 0; i + 1 < idxs.size(); ++i)
        emitCx(idxs[i], idxs[i + 1]);
    return idxs.back();
}

uint32_t
TreeSynthesizer::connectRoots(const std::vector<uint32_t> &roots,
                              uint32_t depth)
{
    assert(!roots.empty());
    if (roots.size() == 1)
        return roots[0];

    const PauliString *next = lookaheadAt(depth);
    if (next == nullptr)
        return chain(roots);

    // Greedily pick the (control, target) pair with the best weight delta
    // per Table I; the control leaves the set, the target carries the
    // accumulated parity onward. emitCx conjugates *next along.
    std::vector<uint32_t> remaining = roots;
    while (remaining.size() > 1) {
        int best_delta = 3;
        size_t best_c = 0, best_t = 1;
        for (size_t ci = 0; ci < remaining.size(); ++ci) {
            for (size_t ti = 0; ti < remaining.size(); ++ti) {
                if (ci == ti)
                    continue;
                int delta =
                    cxWeightDelta(*next, remaining[ci], remaining[ti]);
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
        remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best_c));
    }
    return remaining[0];
}

uint32_t
TreeSynthesizer::synth(const std::vector<uint32_t> &idxs, uint32_t depth)
{
    assert(!idxs.empty());
    if (idxs.size() == 1)
        return idxs[0];

    const PauliString *next = lookaheadAt(depth);
    if (next == nullptr)
        return chain(idxs);

    // Partition by the next Pauli's operator (I/X/Y/Z subtrees), read
    // before the subtrees below emit anything.
    std::array<std::vector<uint32_t>, 4> groups;
    for (uint32_t q : idxs)
        groups[static_cast<uint8_t>(next->op(q))].push_back(q);

    // Synthesize each subtree; recursion orders the subtree's interior by
    // deeper lookahead (Sec. V-B), otherwise a simple index-order chain.
    std::vector<uint32_t> roots;
    for (const auto &group : groups) {
        if (group.empty())
            continue;
        uint32_t root;
        if (group.size() == 1) {
            root = group[0];
        } else if (group.size() == idxs.size()) {
            // Degenerate partition (all qubits in one subtree): recursing
            // with the same set would loop forever; advance the lookahead
            // instead to order the chain by the following Pauli.
            if (config_.recursive && depth + 1 < config_.maxLookahead)
                root = synth(group, depth + 1);
            else
                root = chain(group);
            return root;
        } else if (config_.recursive) {
            root = synth(group, depth + 1);
        } else {
            root = chain(group);
        }
        roots.push_back(root);
    }
    return connectRoots(roots, depth);
}

uint32_t
TreeSynthesizer::exhaustive(const std::vector<uint32_t> &idxs)
{
    // Enumerate every parity-tree schedule: repeatedly pick an ordered
    // (control, target) pair from the remaining set; the control leaves.
    // Score a complete schedule lexicographically by the weights of the
    // first scoreDepth() lookahead Paulis after conjugation.
    const size_t depth = scoreDepth();
    if (depth == 0)
        return chain(idxs);
    const std::span<PauliString> looks = lookahead_.first(depth);

    std::vector<Gate> best_seq;
    std::array<uint32_t, kScoreDepth> best_score;
    best_score.fill(~0u);
    std::vector<Gate> seq;
    seq.reserve(idxs.size());
    std::vector<uint32_t> set = idxs;

    // Depth-first over merge sequences, on the lookahead window and the
    // remaining set themselves: a trial CX is undone by applying it
    // again (CX conjugation is an involution, sign included), and the
    // control is put back where it was, so no node copies any state.
    // Sets are small (<= exhaustiveThreshold).
    auto dfs = [&](auto &&self) -> void {
        if (set.size() == 1) {
            std::array<uint32_t, kScoreDepth> score{};
            for (size_t d = 0; d < depth; ++d)
                score[d] = looks[d].weight();
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
                const uint32_t c = set[ci];
                const uint32_t t = set[ti];
                for (PauliString &l : looks)
                    l.applyCX(c, t);
                const auto at = static_cast<std::ptrdiff_t>(ci);
                set.erase(set.begin() + at);
                seq.emplace_back(GateType::CX, c, t);
                self(self);
                seq.pop_back();
                set.insert(set.begin() + at, c);
                for (PauliString &l : looks)
                    l.applyCX(c, t);
            }
        }
    };
    dfs(dfs);

    for (const Gate &g : best_seq)
        emitCx(g.q0, g.q1);
    // The surviving qubit is the one never used as a control. (Sets
    // here are tiny — at most exhaustiveThreshold — so a linear scan
    // beats a bitmask, which would also cap the qubit index at 64.)
    for (uint32_t q : idxs) {
        bool used_as_control = false;
        for (const Gate &g : best_seq) {
            if (g.q0 == q) {
                used_as_control = true;
                break;
            }
        }
        if (!used_as_control)
            return q;
    }
    assert(false && "no root survived the merge sequence");
    return idxs.back();
}

uint32_t
TreeSynthesizer::beam(const std::vector<uint32_t> &idxs)
{
    // Beam search over parity-tree schedules, scored lexicographically by
    // the weights of the first scoreDepth() lookahead Paulis (deep
    // lookahead is what makes the grouped recursion strong; the beam
    // needs it too).
    const size_t depth = scoreDepth();
    if (depth == 0)
        return chain(idxs);

    struct State
    {
        std::vector<uint32_t> set;
        std::vector<PauliString> looks;
        std::vector<Gate> seq;
        std::array<uint32_t, kScoreDepth> score{};
    };

    auto rescore = [&](State &state) {
        for (size_t d = 0; d < depth; ++d)
            state.score[d] = state.looks[d].weight();
    };

    std::vector<State> frontier(1);
    frontier[0].set = idxs;
    frontier[0].looks.assign(lookahead_.begin(),
                             lookahead_.begin() +
                                 static_cast<std::ptrdiff_t>(depth));
    rescore(frontier[0]);

    const size_t width = config_.beamWidth;
    while (frontier[0].set.size() > 1) {
        std::vector<State> next;
        next.reserve(frontier.size() * idxs.size() * idxs.size());
        for (const State &state : frontier) {
            for (size_t ci = 0; ci < state.set.size(); ++ci) {
                for (size_t ti = 0; ti < state.set.size(); ++ti) {
                    if (ci == ti)
                        continue;
                    State child = state;
                    const uint32_t c = child.set[ci];
                    const uint32_t t = child.set[ti];
                    for (auto &look : child.looks)
                        look.applyCX(c, t);
                    child.set.erase(child.set.begin() +
                                    static_cast<std::ptrdiff_t>(ci));
                    child.seq.emplace_back(GateType::CX, c, t);
                    rescore(child);
                    next.push_back(std::move(child));
                }
            }
        }
        // Keep the best `width` states; dedup identical (set, first
        // lookahead) pairs so the beam stays diverse.
        std::sort(next.begin(), next.end(),
                  [](const State &a, const State &b) {
                      return a.score < b.score;
                  });
        std::vector<State> pruned;
        pruned.reserve(width);
        for (State &state : next) {
            bool dup = false;
            for (const State &kept : pruned) {
                if (kept.set == state.set &&
                    kept.looks[0] == state.looks[0]) {
                    dup = true;
                    break;
                }
            }
            if (!dup)
                pruned.push_back(std::move(state));
            if (pruned.size() >= width)
                break;
        }
        frontier = std::move(pruned);
    }

    const State &best = frontier.front();
    for (const Gate &g : best.seq)
        emitCx(g.q0, g.q1);
    return best.set.front();
}

uint32_t
TreeSynthesizer::synthesize(const std::vector<uint32_t> &tree_idxs)
{
    if (tree_idxs.size() >= 2 && config_.maxLookahead > 0) {
        if (tree_idxs.size() <= config_.exhaustiveThreshold)
            return exhaustive(tree_idxs);
        if (config_.beamWidth > 0)
            return beam(tree_idxs);
    }
    return synth(tree_idxs, 0);
}

uint32_t
nonRecursiveExtractionCost(const PauliString &current,
                           const SupportIndex &current_idx,
                           const PauliString &candidate,
                           PauliString &scratch)
{
    PauliString &cand = scratch;
    cand = candidate; // vector assignment reuses the scratch capacity

    // Hypothetical basis layer of the current Pauli (index-driven
    // word-level walk; no support vector is materialized and empty
    // words are skipped via the occupancy index).
    current.forEachSupport(current_idx, [&](uint32_t q, PauliOp op) {
        switch (op) {
          case PauliOp::X:
            cand.applyH(q);
            break;
          case PauliOp::Y:
            cand.applySdg(q);
            cand.applyH(q);
            break;
          default:
            break;
        }
    });

    // Non-recursive tree: group the support by the candidate's operator,
    // chain each group in index order, then connect roots greedily.
    // A single ascending walk suffices: chaining CX(prev, q) only
    // touches bits at qubits <= q already classified, so each qubit's
    // group is read before any chain CX can disturb it, and per-group
    // running roots replace the materialized group vectors.
    std::array<uint32_t, 4> last;
    last.fill(~0u);
    current.forEachSupport(current_idx, [&](uint32_t q, PauliOp) {
        const auto g = static_cast<uint8_t>(cand.op(q));
        if (last[g] != ~0u)
            cand.applyCX(last[g], q);
        last[g] = q;
    });

    std::array<uint32_t, 4> remaining{};
    size_t num_roots = 0;
    // Root order must match the reference grouping: I, X, Z, Y.
    for (uint32_t root : last)
        if (root != ~0u)
            remaining[num_roots++] = root;

    while (num_roots > 1) {
        int best_delta = 3;
        size_t best_c = 0, best_t = 1;
        for (size_t ci = 0; ci < num_roots; ++ci) {
            for (size_t ti = 0; ti < num_roots; ++ti) {
                if (ci == ti)
                    continue;
                int delta =
                    cxWeightDelta(cand, remaining[ci], remaining[ti]);
                if (delta < best_delta) {
                    best_delta = delta;
                    best_c = ci;
                    best_t = ti;
                }
            }
        }
        cand.applyCX(remaining[best_c], remaining[best_t]);
        for (size_t i = best_c; i + 1 < num_roots; ++i)
            remaining[i] = remaining[i + 1];
        --num_roots;
    }
    return cand.weight();
}

uint32_t
nonRecursiveExtractionCost(const PauliString &current,
                           const PauliString &candidate,
                           PauliString &scratch)
{
    // One-shot callers pay a single occupancy scan; the index then
    // serves both support walks of the cost model.
    SupportIndex idx;
    current.buildSupportIndex(idx);
    return nonRecursiveExtractionCost(current, idx, candidate, scratch);
}

uint32_t
nonRecursiveExtractionCost(const PauliString &current,
                           const PauliString &candidate)
{
    PauliString scratch;
    return nonRecursiveExtractionCost(current, candidate, scratch);
}

} // namespace quclear
