#include "core/clifford_extractor.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "pauli/pauli_list.hpp"
#include "pauli/support_pattern.hpp"
#include "util/worker_pool.hpp"

namespace quclear {

namespace {

/**
 * A memo from the key of a Pauli string's operators on the k-qubit
 * support of the current pick (SupportPattern) to a value that depends
 * on those operators alone. Open addressing over at least twice
 * as many slots as the lookups it was reset for, so it never fills and
 * every probe sequence is short; keys are compared in full, so a hit is
 * exact. A reset is O(1): slots written before it are stale by their
 * epoch stamp.
 */
template <typename Value>
class PatternMemo
{
  public:
    /** Empty the memo for at most @p lookups keys on @p k qubits. */
    void reset(size_t k, size_t lookups)
    {
        // No more keys than 4^k patterns exist, whatever the lookups.
        if (k < 32)
            lookups = std::min<size_t>(lookups, size_t{ 1 } << (2 * k));
        const size_t size = std::bit_ceil(std::max<size_t>(2 * lookups, 2));
        shift_ = 64 - std::countr_zero(size);
        if (slots_.size() < size)
            slots_.resize(size);
        if (++epoch_ == 0) {
            for (Slot &slot : slots_)
                slot.epoch = 0;
            epoch_ = 1;
        }
    }

    /**
     * The value slot of @p key. @p found tells whether it holds key's
     * value; if not, the slot is now key's and the caller fills it.
     */
    Value &slot(uint64_t key, bool &found)
    {
        const size_t mask = (size_t{ 1 } << (64 - shift_)) - 1;
        for (size_t i = (key * 0x9E3779B97F4A7C15ULL) >> shift_;;
             i = (i + 1) & mask) {
            Slot &slot = slots_[i];
            if (slot.epoch != epoch_) {
                slot = Slot{ key, epoch_, {} };
                found = false;
                return slot.value;
            }
            if (slot.key == key) {
                found = true;
                return slot.value;
            }
        }
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        uint32_t epoch = 0;
        Value value{};
    };

    std::vector<Slot> slots_;
    int shift_ = 63;
    uint32_t epoch_ = 0;
};

/** What a gate burst does to one pattern: XOR of keys, phase step. */
struct PatternImage
{
    uint64_t flip = 0;
    uint8_t phase = 0;
};

/** Union-find over qubit indices (path halving + union by index). */
class QubitUnionFind
{
  public:
    explicit QubitUnionFind(uint32_t n) : parent_(n)
    {
        for (uint32_t q = 0; q < n; ++q)
            parent_[q] = q;
    }

    uint32_t find(uint32_t q)
    {
        while (parent_[q] != q) {
            parent_[q] = parent_[parent_[q]];
            q = parent_[q];
        }
        return q;
    }

    void unite(uint32_t a, uint32_t b)
    {
        const uint32_t ra = find(a);
        const uint32_t rb = find(b);
        if (ra != rb)
            parent_[ra < rb ? rb : ra] = ra < rb ? ra : rb;
    }

  private:
    std::vector<uint32_t> parent_;
};

/**
 * One block's contribution to one chain: the slice of the block's terms
 * whose supports live in the chain's qubit component, in block order.
 * A commuting block may bridge several components (terms on disjoint
 * qubits always commute, so greedy block formation happily crosses a
 * component boundary); the bridge is only ever through commutation,
 * never through shared qubits, so slicing the block per component is
 * exact — the dropped cross-component candidates could have changed
 * find_next_pauli's pick ORDER, but every term's own reduction only
 * sees gates on its own component, and rotations of one block commute,
 * so any per-component order compiles the same unitary.
 */
struct SubBlock
{
    /** Global index of the originating block. */
    size_t block = 0;

    /** Input-term indices, preserving the block's internal order. */
    std::vector<size_t> terms;

    /** Slot in the flat per-sub-block output array. */
    size_t slot = 0;
};

/**
 * A chain: its qubit component and its sub-blocks in ascending global
 * block order. The chain compiles in its own frame, where local qubit i
 * is global qubit qubits[i]; the relabel keeps qubit order, so every
 * tie the block loop breaks by qubit index breaks as in the global
 * frame.
 */
struct Chain
{
    /** Global qubit indices of the component, ascending. */
    std::vector<uint32_t> qubits;

    std::vector<SubBlock> subBlocks;
};

/**
 * The chain decomposition of a block list, plus the emission plan that
 * rebuilds the global circuit order from per-sub-block outputs.
 */
struct ChainPartition
{
    /** Chains ordered by first appearance in the term sequence. */
    std::vector<Chain> chains;

    /**
     * Per global block: the output slots of its sub-blocks in emission
     * order (the order the sub-blocks were first touched inside the
     * block). Concatenated over blocks this is the one merge order
     * every mode uses, so the stitched result cannot depend on which
     * runner finished first.
     */
    std::vector<std::vector<size_t>> stitch;

    /** Total sub-blocks (size of the flat output array). */
    size_t subBlockCount = 0;
};

/**
 * Partition the blocks into CHAINS — connected components of the
 * qubit-support graph, where each term connects the qubits it touches.
 * Every gate the extractor emits for a term acts only on that term's
 * (conjugated) support, which stays inside the term's component, so a
 * chain's accumulated Clifford is identity outside its qubit set:
 * chains commute, conjugate each other's terms trivially, and compile
 * independently, each on a tableau over its own qubits only.
 *
 * Identity terms have no support and no component; each rides with the
 * sub-block of the nearest preceding non-identity term of its block
 * (buffered onto the first sub-block when the block opens with
 * identities), which keeps a connected instance — one chain, every
 * block one sub-block, every term in place — on the exact sequential
 * path. A block of only identity terms emits nothing and is dropped.
 */
ChainPartition
partitionChains(const std::vector<PauliTerm> &terms,
                const std::vector<std::vector<size_t>> &blocks, uint32_t n)
{
    QubitUnionFind uf(n);
    for (const PauliTerm &term : terms) {
        uint32_t first = n;
        term.pauli.forEachSupport([&](uint32_t q, PauliOp) {
            if (first == n)
                first = q;
            else
                uf.unite(first, q);
        });
    }

    ChainPartition part;
    part.stitch.resize(blocks.size());
    std::vector<size_t> chain_of(n, static_cast<size_t>(-1));
    // Per-block scratch: (chain, sub-block position in that chain).
    std::vector<std::pair<size_t, size_t>> block_subs;
    std::vector<size_t> leading_identities;
    for (size_t b = 0; b < blocks.size(); ++b) {
        block_subs.clear();
        leading_identities.clear();
        SubBlock *last_sub = nullptr;
        for (const size_t idx : blocks[b]) {
            uint32_t first = n;
            terms[idx].pauli.forEachSupport([&](uint32_t q, PauliOp) {
                if (first == n)
                    first = q;
            });
            if (first == n) { // identity term: no component of its own
                if (last_sub != nullptr)
                    last_sub->terms.push_back(idx);
                else
                    leading_identities.push_back(idx);
                continue;
            }
            const uint32_t root = uf.find(first);
            if (chain_of[root] == static_cast<size_t>(-1)) {
                chain_of[root] = part.chains.size();
                part.chains.emplace_back();
            }
            const size_t c = chain_of[root];
            std::vector<SubBlock> &subs = part.chains[c].subBlocks;
            SubBlock *sub = nullptr;
            for (const auto &[sc, sp] : block_subs)
                if (sc == c)
                    sub = &subs[sp];
            if (sub == nullptr) {
                block_subs.emplace_back(c, subs.size());
                subs.push_back(SubBlock{ b, {}, part.subBlockCount });
                sub = &subs.back();
                part.stitch[b].push_back(part.subBlockCount);
                ++part.subBlockCount;
            }
            if (!leading_identities.empty()) {
                sub->terms.insert(sub->terms.end(),
                                  leading_identities.begin(),
                                  leading_identities.end());
                leading_identities.clear();
            }
            sub->terms.push_back(idx);
            last_sub = sub;
        }
        // A block of only identity terms emits nothing: drop it.
    }
    // Untouched qubits are their own roots and own no chain.
    for (uint32_t q = 0; q < n; ++q) {
        const size_t c = chain_of[uf.find(q)];
        if (c != static_cast<size_t>(-1))
            part.chains[c].qubits.push_back(q);
    }
    return part;
}

/**
 * Everything one sub-block contributes to the final result, written to
 * its own slot so concurrent chains never share a write target. The
 * gates member holds the whole U' segment (basis layers, CNOT trees,
 * and Rz rotations in emission order). Circuits are in the chain's
 * frame; the stitch maps them back through @c frame.
 */
struct BlockOutput
{
    const std::vector<uint32_t> *frame = nullptr;
    QuantumCircuit gates;
    std::vector<size_t> rotationTerms;
    std::vector<QuantumCircuit> vlist;
};

/** @p p restricted to the chain frame whose local qubit i is qubits[i]. */
PauliString
toFrame(const PauliString &p, const std::vector<uint32_t> &qubits)
{
    PauliString local(static_cast<uint32_t>(qubits.size()));
    uint32_t i = 0;
    p.forEachSupport([&](uint32_t q, PauliOp op) {
        while (qubits[i] != q)
            ++i;
        local.setOp(i, op);
    });
    local.setPhase(p.phase());
    return local;
}

/** @p gate moved from the chain frame of @p qubits to the global one. */
Gate
fromFrame(Gate gate, const std::vector<uint32_t> &qubits)
{
    gate.q0 = qubits[gate.q0];
    gate.q1 = qubits[gate.q1];
    return gate;
}

/**
 * Compile one chain in its own frame, against a tableau over its own
 * qubits: the conjugation cache, find_next_pauli reorder, basis layer,
 * lookahead, CNOT tree, and rotation emission, over the chain's
 * sub-blocks. The cross-block lookahead source is the chain's own later
 * sub-blocks. Lookahead never crosses a chain boundary in ANY mode (a
 * cross-chain term would make tree scores depend on the other chains'
 * in-flight state); for a connected instance there is exactly one
 * chain and the restriction is vacuous.
 *
 * Every per-pick step acts on the current Pauli's support S only: the
 * cost model's hypothetical extraction, the basis layer and the CNOT
 * tree. So an entry P = P_S (x) P_rest scores weight(P) - |P_S| +
 * f(P_S), and a committed burst C maps it to C(P_S) (x) P_rest with a
 * sign set by P_S alone. The pick loop therefore memoizes f and C per
 * pattern of P on S and computes each pattern once (PatternMemo).
 *
 * Thread safety: writes only the output slots of this chain's own
 * sub-blocks — disjoint from every other chain — and reads only the
 * shared immutable inputs. It runs on the calling thread throughout.
 */
void
extractChain(const std::vector<PauliTerm> &terms, const Chain &chain,
             const ExtractionConfig &config,
             std::vector<BlockOutput> &outputs)
{
    const auto k = static_cast<uint32_t>(chain.qubits.size());
    CliffordTableau acc(k);

    // The chain's terms in its frame, sub-block by sub-block.
    std::vector<std::vector<PauliString>> local(chain.subBlocks.size());
    for (size_t ci = 0; ci < chain.subBlocks.size(); ++ci)
        for (size_t idx : chain.subBlocks[ci].terms)
            local[ci].push_back(toFrame(terms[idx].pauli, chain.qubits));

    std::vector<PauliString> conj;      // cache, indexed by block position
    std::vector<uint32_t> order_next;   // singly-linked successor list
    std::vector<uint32_t> support;      // reusable support scratch
    std::vector<PauliString> lookahead; // reusable lookahead window
    PauliString cand_scratch;           // reusable cost-model buffer
    SupportIndex curr_support;          // reusable occupancy index of curr
    SupportPattern pattern;             // keys on the current support
    PatternMemo<uint32_t> cost_memo;    // f(P_S) of the current pick
    PatternMemo<PatternImage> replay_memo; // C(P_S) of the current burst

    for (size_t ci = 0; ci < chain.subBlocks.size(); ++ci) {
        const SubBlock &sub = chain.subBlocks[ci];
        const auto m = static_cast<uint32_t>(sub.terms.size());
        BlockOutput &out = outputs[sub.slot];
        out.frame = &chain.qubits;
        out.gates = QuantumCircuit(k);

        conj = local[ci];
        acc.conjugateBatch(conj);

        // Index-list order over block positions: reordering a pick is an
        // O(1) unlink + relink instead of the old vector erase/insert
        // shuffle; position m is the end sentinel.
        order_next.resize(m);
        for (uint32_t i = 0; i < m; ++i)
            order_next[i] = i + 1;

        uint32_t left = m; // entries from pos to the end of the order
        for (uint32_t pos = 0; pos != m; pos = order_next[pos], --left) {
            const size_t curr_idx = sub.terms[pos];
            PauliString &curr = conj[pos];
            if (curr.isIdentity())
                continue; // global phase only
            support.clear();
            curr.forEachSupport(
                [&](uint32_t q, PauliOp) { support.push_back(q); });
            const bool keyed = pattern.reset(support);

            // --- find_next_pauli: choose the successor inside the block
            // that ends up cheapest after extracting this block's
            // (non-recursive) Clifford. Candidates come straight from
            // the cache — no re-conjugation — and each pattern on the
            // support is costed once. Ties keep the earliest candidate. ---
            if (config.useCommutingBlocks && order_next[pos] != m &&
                order_next[order_next[pos]] != m) {
                // The cost model walks curr's support twice per
                // candidate; index curr once so every candidate's walks
                // jump straight to the occupied words.
                curr.buildSupportIndex(curr_support);
                if (keyed)
                    cost_memo.reset(support.size(), left - 1);
                const auto score = [&](const PauliString &cand) {
                    if (!keyed)
                        return nonRecursiveExtractionCost(
                            curr, curr_support, cand, cand_scratch);
                    const uint64_t key = pattern.key(cand);
                    const uint32_t rest = cand.weight() - pattern.weight(key);
                    bool found = false;
                    uint32_t &f = cost_memo.slot(key, found);
                    if (!found)
                        f = nonRecursiveExtractionCost(curr, curr_support,
                                                       cand, cand_scratch) -
                            rest;
                    return rest + f;
                };
                uint32_t best_j = order_next[pos];
                uint32_t best_prev = pos;
                uint32_t best_cost = ~0u;
                uint32_t prev = pos;
                for (uint32_t j = order_next[pos]; j != m;
                     prev = j, j = order_next[j]) {
                    const uint32_t cost = score(conj[j]);
                    if (cost < best_cost) {
                        best_cost = cost;
                        best_j = j;
                        best_prev = prev;
                    }
                }
                if (best_j != order_next[pos]) {
                    order_next[best_prev] = order_next[best_j];
                    order_next[best_j] = order_next[pos];
                    order_next[pos] = best_j;
                }
            }

            // --- Single-qubit basis layer (fixed by the Pauli string). ---
            QuantumCircuit vj(k);
            for (const uint32_t q : support) {
                switch (curr.op(q)) {
                  case PauliOp::X:
                    vj.h(q);
                    break;
                  case PauliOp::Y:
                    vj.sdg(q);
                    vj.h(q);
                    break;
                  default:
                    break;
                }
            }
            acc.appendCircuit(vj);
            out.gates.appendCircuit(vj);

            // --- Lookahead: upcoming Paulis in committed order, already
            // conjugated (cache copies within the sub-block, taken
            // through the basis layer here because the cache replays it
            // with the tree; one fresh batch conjugation only across the
            // boundary). Later terms come from THIS CHAIN's subsequent
            // sub-blocks only — terms of other chains live on disjoint
            // qubits, where they could only displace useful candidates
            // from the capped window. The window's strings are reused
            // from pick to pick. ---
            size_t looked = 0;
            const auto look = [&](const PauliString &p) {
                if (looked == lookahead.size())
                    lookahead.push_back(p);
                else
                    lookahead[looked] = p;
                ++looked;
            };
            for (uint32_t j = order_next[pos];
                 j != m && looked < config.tree.maxLookahead;
                 j = order_next[j]) {
                look(conj[j]);
                vj.conjugatePauli(lookahead[looked - 1]);
            }
            const size_t looked_cached = looked;
            for (size_t cb = ci + 1;
                 cb < local.size() && looked < config.tree.maxLookahead;
                 ++cb) {
                for (const PauliString &p : local[cb]) {
                    if (looked >= config.tree.maxLookahead)
                        break;
                    look(p);
                }
            }
            const std::span<PauliString> window =
                std::span(lookahead).first(looked);
            if (looked > looked_cached)
                acc.conjugateBatch(window.subspan(looked_cached));

            // --- CNOT tree (Algorithm 1). ---
            QuantumCircuit tree(k);
            TreeSynthesizer synth(acc, tree, window, config.tree);
            const uint32_t root = synth.synthesize(support);
            out.gates.appendCircuit(tree);
            vj.appendCircuit(tree);

            // --- Replay the committed burst vj (basis layer + tree),
            // which acts on the support only, onto the pending cache
            // entries: the current term and everything queued after it.
            // An entry that is the identity on the support is left as it
            // is; the rest look their pattern up, and a miss (or a
            // support too wide to key) conjugates the entry gate by gate
            // and records what that did to the pattern. ---
            const auto replay = [&vj](PauliString &entry) {
                for (const Gate &g : vj.gates())
                    applyGateToPauli(entry, g);
            };
            if (keyed)
                replay_memo.reset(support.size(), left);
            for (uint32_t j = pos; j != m; j = order_next[j]) {
                PauliString &entry = conj[j];
                if (!keyed) {
                    replay(entry);
                    continue;
                }
                const uint64_t key = pattern.key(entry);
                if (key == 0)
                    continue;
                bool found = false;
                PatternImage &image = replay_memo.slot(key, found);
                if (found) {
                    pattern.flip(entry, image.flip);
                    entry.setPhase(
                        static_cast<uint8_t>(entry.phase() + image.phase));
                    continue;
                }
                const uint8_t phase = entry.phase();
                replay(entry);
                image = { key ^ pattern.key(entry),
                          static_cast<uint8_t>(entry.phase() - phase) };
            }

            // --- Rotation on the parity root. ---
            // The cache kept `curr` conjugated through the basis layer
            // and the tree, so it IS the reduced Pauli +-Z_root; a
            // negative sign flips the rotation angle:
            // e^{i(-P)t} = e^{iP(-t)}.
            const PauliString &reduced = curr;
            assert(reduced.weight() == 1 && reduced.op(root) == PauliOp::Z);
            const double t_eff = terms[curr_idx].angle * reduced.sign();
            // e^{iZt} = Rz(-2t) with Rz(theta) = exp(-i theta Z / 2).
            out.gates.rz(root, -2.0 * t_eff);
            out.rotationTerms.push_back(curr_idx);

            out.vlist.push_back(std::move(vj));
        }
    }
}

} // namespace

CliffordExtractor::CliffordExtractor(ExtractionConfig config)
    : config_(std::move(config))
{
}

ExtractionResult
CliffordExtractor::run(const std::vector<PauliTerm> &terms) const
{
    const uint32_t n = numQubitsOf(terms);

    std::vector<std::vector<size_t>> blocks;
    if (config_.useCommutingBlocks) {
        blocks = commutingBlocks(terms);
    } else {
        blocks.reserve(terms.size());
        for (size_t i = 0; i < terms.size(); ++i)
            blocks.push_back({ i });
    }

    // Conjugation cache: each block's terms are conjugated through the
    // accumulated tableau ONCE at block entry (as one batch, so the
    // tableau transpose is amortized over the block), then kept exact
    // by replaying every committed gate onto the still-pending entries
    // (a homomorphism: acc' = g.acc implies acc'(P) = g(acc(P))). This
    // replaces the per-pick re-conjugation of every candidate in
    // find_next_pauli and the rotation-root recheck. Scoring and replay
    // act on the current support S only, so extractChain evaluates them
    // once per pattern on S and reads every other entry's result from a
    // table: a pick costs O(m . |S|) pattern reads plus at most
    // min(m, 4^|S|) direct evaluations.
    //
    // Parallelism is across chains only: the chains from
    // partitionChains() are compiled concurrently, each in its own
    // qubit frame, and stitched below. The output is bit-identical to
    // the sequential path, because the chains are independent by
    // construction.
    WorkerPool pool(config_.threads);

    const ChainPartition part = partitionChains(terms, blocks, n);
    std::vector<BlockOutput> outputs(part.subBlockCount);

    // Chain runners: blockParallelism = 0 means every chain in flight
    // at once (auto), 1 means strictly sequential, N caps the runners.
    // The runner count never changes any chain's input, so the knob —
    // like `threads` — only moves wall time.
    const size_t bp = config_.blockParallelism == 0
                          ? part.chains.size()
                          : static_cast<size_t>(config_.blockParallelism);
    const size_t runners =
        std::min({ std::max<size_t>(part.chains.size(), 1), bp,
                   static_cast<size_t>(pool.threadCount()) });

    // Runners claim chains off a shared counter so long chains do not
    // stall short ones behind a static partition. The owner thread is
    // runner zero; the others are submitted tasks drained below, so
    // with one runner every chain runs in order on the owner.
    std::atomic<size_t> next{ 0 };
    const auto runner = [&] {
        for (;;) {
            const size_t c = next.fetch_add(1, std::memory_order_relaxed);
            if (c >= part.chains.size())
                return;
            extractChain(terms, part.chains[c], config_, outputs);
        }
    };
    for (size_t r = 1; r < runners; ++r)
        pool.submit(runner);
    std::exception_ptr owner_error;
    try {
        runner();
    } catch (...) {
        owner_error = std::current_exception();
    }
    pool.drainTasks(); // rethrows the first worker error, if any
    if (owner_error)
        std::rethrow_exception(owner_error);

    // --- Stitch. Sub-block segments in the partition's emission order,
    // mapped back from their chain frames, rebuild U' and the rotation
    // schedule; the vlist in the same order rebuilds the tail and the
    // conjugator. The merge is the same code for every runner count,
    // so bit-identity across the knobs reduces to extractChain being
    // deterministic on its own inputs — which it is, being the
    // sequential block loop. Exactness: segments of distinct chains act
    // on disjoint qubits and rotations within a block commute, so any
    // fixed interleaving compiles the same unitary; this one is fixed
    // by the input alone. ---
    QuantumCircuit opt(n);
    std::vector<size_t> rotation_terms;
    // Each V with the frame it was emitted in.
    std::vector<std::pair<const QuantumCircuit *,
                          const std::vector<uint32_t> *>>
        vlist;
    for (size_t b = 0; b < blocks.size(); ++b) {
        for (const size_t slot : part.stitch[b]) {
            const BlockOutput &out = outputs[slot];
            for (const Gate &g : out.gates.gates())
                opt.append(fromFrame(g, *out.frame));
            rotation_terms.insert(rotation_terms.end(),
                                  out.rotationTerms.begin(),
                                  out.rotationTerms.end());
            for (const QuantumCircuit &v : out.vlist)
                vlist.emplace_back(&v, out.frame);
        }
    }

    // --- Assemble the Clifford tail: U_CL = V_1~ ... V_m~, i.e. the
    // inverses in reverse extraction order (time order: last V first),
    // and the conjugator E = V_m ... V_1 by appending each V in
    // extraction order. The tableau representation is canonical (rows
    // are the generator images with exact signs), so it does not
    // depend on how the chains' commuting V's interleave. ---
    QuantumCircuit tail(n);
    for (size_t j = vlist.size(); j-- > 0;) {
        const QuantumCircuit inverse = vlist[j].first->inverse();
        for (const Gate &g : inverse.gates())
            tail.append(fromFrame(g, *vlist[j].second));
    }
    CliffordTableau conjugator(n);
    for (const auto &[v, frame] : vlist)
        for (const Gate &g : v->gates())
            conjugator.appendGate(fromFrame(g, *frame));

    return ExtractionResult{ std::move(opt), std::move(tail),
                             std::move(conjugator),
                             std::move(rotation_terms) };
}

} // namespace quclear
