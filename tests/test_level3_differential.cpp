/**
 * @file
 * PhaseRotationFolding and CommutativeCancellation against the direct
 * forms in tests/reference_level3.hpp on seeded random circuits over
 * all 14 gate types: gate lists and return values, bit for bit, with
 * rotation merging on and off. The corpus covers widths and H counts
 * that spread the folding's symbol set over several 64-bit words, and
 * degenerate symbol hashes that force every parity key into shared
 * buckets, so each lookup has to fall back on the exact key check.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "circuit/quantum_circuit.hpp"
#include "reference_level3.hpp"
#include "transpile/commutative_cancellation.hpp"
#include "transpile/phase_rotation_folding.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

constexpr double kPi = 3.14159265358979323846;

/** Corpus shape: width, length and the share of H among 1q gates. */
struct CorpusShape
{
    uint32_t qubits;
    size_t gates;
    double hadamardShare;
};

/**
 * Angles that make merges land on every rewrite branch: exact
 * cancellations, Clifford multiples of pi/2, and generic values.
 */
double
randomAngle(Rng &rng)
{
    switch (rng.uniformInt(6)) {
      case 0: return 0.0;
      case 1: return kPi / 2;
      case 2: return -kPi / 2;
      case 3: return kPi;
      case 4: return 0.25 * static_cast<double>(rng.uniformInt(9)) - 1.0;
      default: return rng.uniformReal(-3, 3);
    }
}

/** Random circuit drawing uniformly over all 14 gate types. */
QuantumCircuit
randomCircuit(const CorpusShape &shape, Rng &rng)
{
    const uint32_t n = shape.qubits;
    // Few distinct wires per window so gates meet each other often.
    const uint32_t window = n < 4 ? n : 4;
    QuantumCircuit qc(n);
    while (qc.size() < shape.gates) {
        const uint32_t base =
            static_cast<uint32_t>(rng.uniformInt(n - window + 1));
        const uint32_t q =
            base + static_cast<uint32_t>(rng.uniformInt(window));
        const uint32_t r =
            base + static_cast<uint32_t>(rng.uniformInt(window));
        if (rng.bernoulli(shape.hadamardShare)) {
            qc.h(q);
            continue;
        }
        switch (rng.uniformInt(13)) {
          case 0: qc.s(q); break;
          case 1: qc.sdg(q); break;
          case 2: qc.x(q); break;
          case 3: qc.y(q); break;
          case 4: qc.z(q); break;
          case 5: qc.sx(q); break;
          case 6: qc.sxdg(q); break;
          case 7: qc.rz(q, randomAngle(rng)); break;
          case 8: qc.rx(q, randomAngle(rng)); break;
          case 9: qc.ry(q, randomAngle(rng)); break;
          case 10:
            if (r != q)
                qc.cx(q, r);
            break;
          case 11:
            if (r != q)
                qc.cz(q, r);
            break;
          default:
            if (r != q)
                qc.swap(q, r);
            break;
        }
    }
    return qc;
}

/** The corpus: small dense circuits, multi-word symbol sets, wide wires. */
std::vector<CorpusShape>
corpusShapes()
{
    return {
        { 1, 30, 0.05 },   { 2, 40, 0.05 },   { 3, 60, 0.1 },
        { 4, 80, 0.02 },   { 6, 120, 0.1 },   { 3, 400, 0.4 },
        { 5, 500, 0.3 },   { 70, 200, 0.05 }, { 130, 300, 0.1 },
    };
}

constexpr int kCircuitsPerShape = 400;

TEST(Level3DifferentialTest, PassesMatchReferenceOnRandomCircuits)
{
    for (const CorpusShape &shape : corpusShapes()) {
        Rng rng(1000 + shape.qubits * 7 + shape.gates);
        for (int trial = 0; trial < kCircuitsPerShape; ++trial) {
            SCOPED_TRACE("n=" + std::to_string(shape.qubits) +
                         " gates=" + std::to_string(shape.gates) +
                         " trial=" + std::to_string(trial));
            const QuantumCircuit qc = randomCircuit(shape, rng);
            for (bool merge : { true, false }) {
                QuantumCircuit work = qc;
                expectPassMatchesReference(
                    CommutativeCancellation(merge),
                    [merge](QuantumCircuit &c) {
                        return referenceCommutativeCancellation(c, merge);
                    },
                    work);
            }
            QuantumCircuit work = qc;
            expectPassMatchesReference(PhaseRotationFolding(),
                                       referencePhaseRotationFolding, work);
            if (HasFailure())
                return;
        }
    }
}

TEST(Level3DifferentialTest, PipelineMatchesReferenceOnRandomCircuits)
{
    // Later sweeps feed each pass the other passes' output.
    for (const CorpusShape &shape : corpusShapes()) {
        Rng rng(2000 + shape.qubits * 7 + shape.gates);
        for (int trial = 0; trial < kCircuitsPerShape / 4; ++trial) {
            SCOPED_TRACE("n=" + std::to_string(shape.qubits) +
                         " gates=" + std::to_string(shape.gates) +
                         " trial=" + std::to_string(trial));
            expectLevel3MatchesReference(randomCircuit(shape, rng));
            if (HasFailure())
                return;
        }
    }
}

/** Fold with @p hash in place of the pass's own symbol hash. */
class FoldWithHash : public Pass
{
  public:
    explicit FoldWithHash(detail::SymbolHash hash) : hash_(hash) {}
    std::string name() const override { return "fold-with-hash"; }
    bool run(QuantumCircuit &qc) const override
    {
        return detail::foldPhaseRotations(qc, hash_);
    }

  private:
    detail::SymbolHash hash_;
};

TEST(Level3DifferentialTest, FoldingExactUnderForcedHashCollisions)
{
    // Every key hashes to 0: one bucket, all lookups by exact check.
    // Two-bit hashes: many distinct keys share each hash value. High
    // bits only: distinct hashes, but every key lands in bucket 0.
    const detail::SymbolHash hashes[] = {
        [](uint64_t) { return uint64_t(0); },
        [](uint64_t s) { return s & 3; },
        [](uint64_t s) { return (s + 1) << 40; },
    };
    for (const detail::SymbolHash hash : hashes) {
        const FoldWithHash pass(hash);
        for (const CorpusShape &shape : corpusShapes()) {
            Rng rng(3000 + shape.qubits * 7 + shape.gates);
            for (int trial = 0; trial < kCircuitsPerShape / 4; ++trial) {
                QuantumCircuit work = randomCircuit(shape, rng);
                expectPassMatchesReference(
                    pass, referencePhaseRotationFolding, work);
                if (HasFailure())
                    return;
            }
        }
    }
}

TEST(Level3DifferentialTest, FoldingKeysSpanManyWords)
{
    // 50 H per wire leave the wires on symbols about 50 apart, so the
    // ladder's parity key spans four words. The X between repeats
    // flips the key's sign; all three rotations fold into the first.
    QuantumCircuit qc(4);
    for (uint32_t q = 0; q < 4; ++q)
        for (int k = 0; k < 50; ++k)
            qc.h(q);
    for (int rep = 0; rep < 3; ++rep) {
        for (uint32_t q = 0; q + 1 < 4; ++q)
            qc.cx(q, q + 1);
        qc.rz(3, 0.3);
        for (uint32_t q = 3; q-- > 0;)
            qc.cx(q, q + 1);
        qc.x(0);
    }
    QuantumCircuit work = qc;
    EXPECT_TRUE(expectPassMatchesReference(
        PhaseRotationFolding(), referencePhaseRotationFolding, work));
    EXPECT_EQ(work.size(), qc.size() - 2);
}

} // namespace
} // namespace quclear
