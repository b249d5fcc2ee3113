/**
 * @file
 * Tests for the batched conjugation kernel and the thread-parallel
 * compilation paths built on it.
 *
 * conjugateBatch transposes the bit-sliced tableau to a row-major
 * snapshot once and multiplies each term's selected rows out of it; it
 * must stay bit-identical — phases included — to both the scalar
 * conjugate() and the row-major ReferenceTableau at qubit counts
 * straddling the 64-bit word boundaries. On top of the kernel, the
 * threaded paths — the cross-block chain pipeline (each chain on its
 * own compact-frame tableau, stitched back) and absorption chunked over
 * observables — must produce output bit-identical to the sequential
 * threads = 1, blockParallelism = 1 path for every knob combination.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "benchgen/suite.hpp"
#include "core/absorption_pre.hpp"
#include "core/clifford_extractor.hpp"
#include "support/reference_tableau.hpp"
#include "tableau/clifford_tableau.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

namespace quclear {
namespace {

constexpr uint32_t kQubitCounts[] = { 1, 63, 64, 65, 128, 256 };

TEST(ConjugateBatchTest, MatchesScalarAndReferenceAcrossWordBoundaries)
{
    for (uint32_t n : kQubitCounts) {
        Rng rng(7000 + n);
        CliffordTableau packed(n);
        ReferenceTableau ref(n);
        for (size_t i = 0; i < 6 * n + 30; ++i) {
            const Gate g = randomCliffordGate(n, rng);
            packed.appendGate(g);
            ref.appendGate(g);
        }

        // Mixed batch: dense, sparse, identity, and phased inputs so
        // both the amortized transpose and the empty/low-weight row
        // walks are exercised.
        std::vector<PauliString> inputs;
        for (int trial = 0; trial < 33; ++trial) {
            const double bias = trial % 3 == 0 ? 0.9 : 0.2;
            inputs.push_back(randomPhasedPauli(n, rng, bias));
        }
        PauliString id(n);
        id.setPhase(3);
        inputs.push_back(id);

        std::vector<PauliString> batch = inputs;
        packed.conjugateBatch(batch);
        ASSERT_EQ(batch.size(), inputs.size());
        for (size_t i = 0; i < inputs.size(); ++i) {
            const PauliString want_ref = ref.conjugate(inputs[i]);
            const PauliString want_scalar = packed.conjugate(inputs[i]);
            ASSERT_EQ(batch[i], want_ref)
                << "n=" << n << " term " << i << " input "
                << inputs[i].toLabel();
            ASSERT_EQ(batch[i], want_scalar)
                << "n=" << n << " term " << i;
        }
    }
}

TEST(ConjugateBatchTest, BatchMatchesPerTermConjugate)
{
    for (uint32_t n : { 65u, 128u }) {
        Rng rng(8000 + n);
        CliffordTableau tab(n);
        for (size_t i = 0; i < 4 * n; ++i)
            tab.appendGate(randomCliffordGate(n, rng));

        std::vector<PauliString> inputs;
        for (int trial = 0; trial < 41; ++trial)
            inputs.push_back(randomPhasedPauli(n, rng, trial % 2 ? 0.8 : 0.3));

        std::vector<PauliString> batch = inputs;
        tab.conjugateBatch(batch);
        for (size_t i = 0; i < inputs.size(); ++i)
            ASSERT_EQ(batch[i], tab.conjugate(inputs[i]))
                << "n=" << n << " term " << i;
    }
}

TEST(ConjugateBatchTest, EmptyAndSingletonBatches)
{
    CliffordTableau tab(5);
    tab.appendH(0);
    tab.appendCX(0, 3);

    std::vector<PauliString> empty;
    tab.conjugateBatch(empty); // must not crash

    std::vector<PauliString> one{ PauliString::fromLabel("-XYZIX") };
    const PauliString want = tab.conjugate(one[0]);
    tab.conjugateBatch(one);
    EXPECT_EQ(one[0], want);
}

TEST(WorkerPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    for (uint32_t threads : { 1u, 2u, 5u }) {
        WorkerPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
        for (size_t count : { size_t{ 0 }, size_t{ 1 }, size_t{ 3 },
                              size_t{ 64 }, size_t{ 1000 } }) {
            std::vector<std::atomic<uint32_t>> hits(count);
            pool.parallelFor(count, [&](size_t begin, size_t end) {
                ASSERT_LE(begin, end);
                ASSERT_LE(end, count);
                for (size_t i = begin; i < end; ++i)
                    hits[i].fetch_add(1);
            });
            for (size_t i = 0; i < count; ++i)
                EXPECT_EQ(hits[i].load(), 1u)
                    << "threads=" << threads << " count=" << count
                    << " index " << i;
        }
        // The pool is reusable after a job completes.
        std::atomic<size_t> total{ 0 };
        pool.parallelFor(17, [&](size_t begin, size_t end) {
            total.fetch_add(end - begin);
        });
        EXPECT_EQ(total.load(), 17u);
    }
}

TEST(WorkerPoolTest, ResolveThreadCount)
{
    EXPECT_EQ(WorkerPool::resolveThreadCount(1), 1u);
    EXPECT_EQ(WorkerPool::resolveThreadCount(7), 7u);
    EXPECT_GE(WorkerPool::resolveThreadCount(0), 1u);
}

/**
 * The acceptance-criterion determinism check: the full extractor with
 * threads = N must emit the same optimized circuit, tail, conjugator,
 * and rotation order as the sequential threads = 1 path, bit for bit.
 * A widened lookahead window exercises the cross-block batch
 * conjugation path as well.
 */
TEST(ThreadedExtractionTest, OutputBitIdenticalToSequential)
{
    Rng rng(90125);
    const uint32_t n = 48;
    const auto terms = randomSupportTerms(n, 72, 0.75, rng);

    ExtractionConfig sequential_config;
    sequential_config.threads = 1;
    sequential_config.tree.maxLookahead = 48;
    const ExtractionResult sequential =
        CliffordExtractor(sequential_config).run(terms);

    for (uint32_t threads : { 2u, 4u }) {
        ExtractionConfig threaded_config = sequential_config;
        threaded_config.threads = threads;
        const ExtractionResult threaded =
            CliffordExtractor(threaded_config).run(terms);

        expectSameCircuit(threaded.optimized, sequential.optimized);
        expectSameCircuit(threaded.extractedClifford,
                          sequential.extractedClifford);
        EXPECT_EQ(threaded.conjugator, sequential.conjugator)
            << "threads=" << threads;
        EXPECT_EQ(threaded.rotationTerms, sequential.rotationTerms)
            << "threads=" << threads;
    }
}

/**
 * @p fragments disjoint registers of @p qubits_per qubits, each holding
 * an independent random support-term stream, interleaved round-robin.
 * The interleaving makes the greedy commuting blocks bridge fragments,
 * so the extractor must slice those blocks into per-chain sub-blocks —
 * the hardest path of the cross-block partitioner.
 */
std::vector<PauliTerm>
fragmentedTerms(uint32_t qubits_per, uint32_t fragments,
                size_t per_fragment, double identity_bias, Rng &rng)
{
    std::vector<std::vector<PauliTerm>> columns;
    for (uint32_t f = 0; f < fragments; ++f)
        columns.push_back(
            randomSupportTerms(qubits_per, per_fragment, identity_bias, rng));
    const uint32_t total = qubits_per * fragments;
    std::vector<PauliTerm> terms;
    for (size_t i = 0; i < per_fragment; ++i) {
        for (uint32_t f = 0; f < fragments; ++f) {
            PauliString wide(total);
            columns[f][i].pauli.forEachSupport(
                [&](uint32_t q, PauliOp op) {
                    wide.setOp(f * qubits_per + q, op);
                });
            terms.emplace_back(std::move(wide), columns[f][i].angle);
        }
    }
    return terms;
}

/** Full-result bit-equality between two extraction runs. */
void
expectSameExtraction(const ExtractionResult &got,
                     const ExtractionResult &want)
{
    expectSameCircuit(got.optimized, want.optimized);
    expectSameCircuit(got.extractedClifford, want.extractedClifford);
    EXPECT_EQ(got.conjugator, want.conjugator);
    EXPECT_EQ(got.rotationTerms, want.rotationTerms);
}

/**
 * The cross-block acceptance-criterion check: on a multi-chain
 * instance, every (blockParallelism, threads) combination must emit
 * output bit-identical to the sequential blockParallelism = 1,
 * threads = 1 baseline — same optimized circuit, tail, conjugator, and
 * rotation order. Run under TSan in CI, this also proves the per-chain
 * tableau pipeline is race-free.
 */
TEST(BlockParallelExtractionTest, BitIdenticalAcrossKnobGrid)
{
    Rng rng(60102);
    const auto terms = fragmentedTerms(8, 5, 24, 0.55, rng);

    ExtractionConfig baseline_config;
    baseline_config.threads = 1;
    baseline_config.blockParallelism = 1;
    baseline_config.tree.maxLookahead = 24;
    const ExtractionResult baseline =
        CliffordExtractor(baseline_config).run(terms);

    for (uint32_t bp : { 1u, 2u, 0u }) {
        for (uint32_t threads : { 1u, 4u }) {
            ExtractionConfig config = baseline_config;
            config.blockParallelism = bp;
            config.threads = threads;
            SCOPED_TRACE(::testing::Message()
                         << "blockParallelism=" << bp
                         << " threads=" << threads);
            expectSameExtraction(CliffordExtractor(config).run(terms),
                                 baseline);
        }
    }
}

/**
 * Same grid on the seeded fragmented-UCC ensemble the bench suite uses,
 * where fragments arrive fragment-major (chains visible up front)
 * rather than interleaved.
 */
TEST(BlockParallelExtractionTest, FragmentedUccEnsembleBitIdentical)
{
    const Benchmark b = makeBenchmark("UCC-(2,4)x4");

    ExtractionConfig baseline_config;
    baseline_config.threads = 1;
    baseline_config.blockParallelism = 1;
    const ExtractionResult baseline =
        CliffordExtractor(baseline_config).run(b.terms);

    for (uint32_t bp : { 2u, 0u }) {
        for (uint32_t threads : { 1u, 4u }) {
            ExtractionConfig config = baseline_config;
            config.blockParallelism = bp;
            config.threads = threads;
            SCOPED_TRACE(::testing::Message()
                         << "blockParallelism=" << bp
                         << " threads=" << threads);
            expectSameExtraction(CliffordExtractor(config).run(b.terms),
                                 baseline);
        }
    }
}

/**
 * On a fully connected instance there is exactly one chain, so every
 * blockParallelism value must collapse to the sequential path and
 * reproduce the pre-chain-partitioning output unchanged.
 */
TEST(BlockParallelExtractionTest, SingleChainUnaffectedByKnob)
{
    Rng rng(424901);
    const uint32_t n = 24;
    const auto terms = randomSupportTerms(n, 40, 0.3, rng);

    ExtractionConfig baseline_config;
    baseline_config.threads = 1;
    baseline_config.blockParallelism = 1;
    const ExtractionResult baseline =
        CliffordExtractor(baseline_config).run(terms);

    for (uint32_t bp : { 0u, 2u, 8u }) {
        ExtractionConfig config = baseline_config;
        config.blockParallelism = bp;
        config.threads = 4;
        SCOPED_TRACE(::testing::Message() << "blockParallelism=" << bp);
        expectSameExtraction(CliffordExtractor(config).run(terms),
                             baseline);
    }
}

/**
 * Absorption runs one batch conjugation per worker chunk. The small
 * observable counts leave some chunks below the batch kernel's
 * transpose threshold (3 terms), so they take the per-term path; every
 * split must still match the single-chunk threads = 1 result.
 */
TEST(ThreadedExtractionTest, AbsorptionThreadCountInvariant)
{
    Rng rng(271828);
    const uint32_t n = 40;
    const auto terms = randomSupportTerms(n, 48, 0.7, rng);
    const ExtractionResult ext = CliffordExtractor().run(terms);

    for (size_t count : { 1u, 2u, 5u, 7u, 37u }) {
        std::vector<PauliString> observables;
        for (size_t k = 0; k < count; ++k)
            observables.push_back(
                randomPhasedPauli(n, rng, k % 2 ? 0.6 : 0.2));
        for (PauliString &obs : observables)
            obs.setPhase(0); // observables are Hermitian with + sign

        const auto sequential = absorbObservables(ext, observables, 1);
        ASSERT_EQ(sequential.size(), count);
        for (size_t i = 0; i < count; ++i)
            EXPECT_EQ(sequential[i].transformed,
                      ext.conjugator.conjugate(observables[i]));
        for (uint32_t threads : { 2u, 3u, 4u }) {
            SCOPED_TRACE(::testing::Message() << "observables=" << count
                                              << " threads=" << threads);
            const auto threaded =
                absorbObservables(ext, observables, threads);
            ASSERT_EQ(threaded.size(), sequential.size());
            for (size_t i = 0; i < sequential.size(); ++i) {
                EXPECT_EQ(threaded[i].transformed,
                          sequential[i].transformed);
                EXPECT_EQ(threaded[i].sign, sequential[i].sign);
                EXPECT_EQ(threaded[i].measuredQubits,
                          sequential[i].measuredQubits);
                expectSameCircuit(threaded[i].basisChange,
                                  sequential[i].basisChange);
            }
        }
    }
}

} // namespace
} // namespace quclear
