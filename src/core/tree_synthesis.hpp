/**
 * @file
 * Recursive CNOT-tree synthesis (Algorithm 1 of the paper).
 *
 * For the Pauli rotation currently being compiled, the qubits carrying
 * non-identity operators must be folded into a single parity root by a
 * CNOT tree. Any tree works for the *current* rotation; the choice only
 * matters for how the extracted Clifford transforms the *following*
 * rotations. The synthesizer groups qubits by the next Pauli's operator
 * (I/X/Y/Z subtrees), recursively orders each subtree by the Pauli after
 * that, and connects subtree roots preferring the reducing combinations
 * of Table I (XX, YX, ZY, ZZ).
 */
#ifndef QUCLEAR_CORE_TREE_SYNTHESIS_HPP
#define QUCLEAR_CORE_TREE_SYNTHESIS_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "pauli/pauli_string.hpp"
#include "tableau/clifford_tableau.hpp"

namespace quclear {

/**
 * Options controlling Algorithm 1 (exposed for the Fig. 10 ablation
 * and bench_ablation). Deterministic: tree choice is a pure function
 * of the (pre-conjugated) lookahead window, so equal configurations
 * always emit the same CNOT trees.
 */
struct TreeSynthesisConfig
{
    /**
     * Recursively order subtrees by deeper lookahead (Sec. V-B).
     * Default: true (Algorithm 1); false is the Fig. 7(b)
     * non-recursive grouping.
     */
    bool recursive = true;

    /**
     * Maximum lookahead depth: how many upcoming Pauli strings the
     * synthesizer may inspect when ordering subtrees. Bounds compile
     * time; 0 degenerates to a naive chain. Default: 8 — deeper
     * lookahead stopped paying for itself on the Table III workloads.
     */
    uint32_t maxLookahead = 8;

    /**
     * Supports up to this size are synthesized by exhaustive search over
     * every parity-tree schedule, scored lexicographically by the weights
     * of the first lookahead Paulis. This finds the cross-group
     * "conversion" trees of the paper's Fig. 2 walk-through that the
     * grouped greedy misses. 0 disables exhaustive search.
     */
    uint32_t exhaustiveThreshold = 4;

    /**
     * Beam width for supports above the exhaustive threshold: a beam
     * search over parity-tree schedules keeps this many best partial
     * trees per merge step, scored lexicographically over the first four
     * lookahead Paulis. 0 (default) uses the paper's grouped recursion
     * (Algorithm 1), which benefits from deeper lookahead and is ~10x
     * faster at equal quality on the Table III workloads; the beam is
     * kept as an ablation alternative (see bench_ablation).
     */
    uint32_t beamWidth = 0;
};

/**
 * Synthesizes the CNOT tree of one Pauli rotation block.
 *
 * Emitted CNOTs are appended both to a tree circuit (which the extractor
 * copies into the optimized circuit) and to the extraction tableau. The
 * lookahead Paulis arrive PRE-conjugated through the extraction tableau
 * (the extractor's conjugation cache provides them in O(1)) and are then
 * kept up to date incrementally: every emitted CNOT is applied to each
 * lookahead string in place, so a lookahead read is always equal to
 * conjugating the original term through every gate emitted so far —
 * prior blocks' Cliffords plus the current partial tree — without ever
 * re-running a full tableau conjugation. The synthesizer works on the
 * strings where the caller keeps them; only the beam search copies.
 */
class TreeSynthesizer
{
  public:
    /**
     * @param acc extraction tableau; must already include the current
     *        block's single-qubit basis layer. CNOTs are appended to it.
     * @param tree receives the emitted CNOT gates
     * @param lookahead upcoming Pauli strings in planned circuit order
     *        (lookahead[0] is the rotation immediately after the current
     *        one), already conjugated through @p acc; the caller keeps
     *        the storage, which must outlive the synthesizer, and the
     *        synthesizer applies every emitted CNOT to it in place
     * @param config algorithm options
     */
    TreeSynthesizer(CliffordTableau &acc, QuantumCircuit &tree,
                    std::span<PauliString> lookahead,
                    const TreeSynthesisConfig &config);

    /**
     * Build the tree over the given qubits (the current Pauli's support).
     * @return the root qubit, where the extractor places the Rz
     */
    uint32_t synthesize(const std::vector<uint32_t> &tree_idxs);

  private:
    uint32_t synth(const std::vector<uint32_t> &idxs, uint32_t depth);
    uint32_t exhaustive(const std::vector<uint32_t> &idxs);
    uint32_t beam(const std::vector<uint32_t> &idxs);
    uint32_t chain(const std::vector<uint32_t> &idxs);
    uint32_t connectRoots(const std::vector<uint32_t> &roots, uint32_t depth);
    void emitCx(uint32_t control, uint32_t target);

    /**
     * The conjugated lookahead Pauli at @p depth, or null past the
     * window. emitCx keeps it current, so it changes with every CNOT.
     */
    const PauliString *lookaheadAt(uint32_t depth) const;

    /** How many lookahead Paulis a schedule search scores. */
    size_t scoreDepth() const;

    CliffordTableau &acc_;
    QuantumCircuit &tree_;
    /** Pre-conjugated lookahead, updated in place on every emitCx. */
    std::span<PauliString> lookahead_;
    TreeSynthesisConfig config_;
};

/**
 * Weight-change delta on @p p from conjugating by CX(control, target),
 * per Table I: -1 for the reducing combinations, 0 for neutral ones,
 * +1 when a new non-identity operator appears.
 */
int cxWeightDelta(const PauliString &p, uint32_t control, uint32_t target);

/**
 * Cheap cost model for find_next_pauli (Sec. V-C): the weight of
 * @p candidate after extracting the current Pauli's Clifford, where the
 * tree is synthesized non-recursively for the candidate itself.
 * Allocation-free: supports are walked word-level (forEachSupport) and
 * chains are built with per-group running roots instead of group
 * vectors.
 *
 * @param current the current Pauli, already conjugated through the
 *        extraction tableau
 * @param candidate the candidate next Pauli, likewise already conjugated
 * @param scratch working copy buffer, overwritten with @p candidate;
 *        pass the same object across candidates to reuse its capacity
 * @return candidate weight after the hypothetical extraction
 */
uint32_t nonRecursiveExtractionCost(const PauliString &current,
                                    const PauliString &candidate,
                                    PauliString &scratch);

/**
 * Index-driven variant: @p current_idx must be the occupancy index of
 * @p current (PauliString::buildSupportIndex). The cost model walks
 * current's support twice, so a caller scoring MANY candidates against
 * one current builds the index once and both walks per candidate skip
 * straight to the occupied words.
 */
uint32_t nonRecursiveExtractionCost(const PauliString &current,
                                    const SupportIndex &current_idx,
                                    const PauliString &candidate,
                                    PauliString &scratch);

/** Convenience overload with an internal scratch buffer. */
uint32_t nonRecursiveExtractionCost(const PauliString &current,
                                    const PauliString &candidate);

} // namespace quclear

#endif // QUCLEAR_CORE_TREE_SYNTHESIS_HPP
