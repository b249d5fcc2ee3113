/**
 * @file
 * google-benchmark microbenchmarks for the classical kernels whose
 * complexity the paper quotes: tableau gate appends (bit-sliced O(n/64)
 * vs the row-major reference's O(n)), Pauli conjugation through a
 * tableau (O(n^2) bound, Sec. V-D), CNOT-tree synthesis, full Clifford
 * Extraction throughput, CA-Post bitstring remapping (O(mk),
 * Sec. VI-B), depth scheduling of a compiled U', and the two costliest
 * level3 passes on an extracted U' and tail.
 *
 * The CliffordTableau/ReferenceTableau benchmark pairs measure the
 * bit-sliced engine against the preserved row-major seed implementation
 * on identical gate and Pauli streams; the ...Batch / ...Threaded variants record the
 * batched conjugation kernel and the worker-pool paths against their
 * scalar/sequential counterparts. CI records them as JSON via
 *   bench_micro \
 *     --benchmark_filter='Tableau|Extraction|ExtractorCommutingBlock|Absorb|'\
 *                        'DepthScheduling|Level3Pass' \
 *     --benchmark_out=BENCH_tableau.json --benchmark_out_format=json
 */
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "benchgen/suite.hpp"
#include "core/absorption_post.hpp"
#include "core/absorption_pre.hpp"
#include "core/clifford_extractor.hpp"
#include "core/quclear.hpp"
#include "core/diagonalization.hpp"
#include "core/tree_synthesis.hpp"
#include "mapping/devices.hpp"
#include "mapping/sabre_router.hpp"
#include "sim/statevector.hpp"
#include "pauli/pauli_term.hpp"
#include "support/reference_tableau.hpp"
#include "tableau/clifford_tableau.hpp"
#include "transpile/commutative_cancellation.hpp"
#include "transpile/depth_scheduling.hpp"
#include "transpile/phase_rotation_folding.hpp"
#include "util/rng.hpp"

namespace {

using namespace quclear;

PauliString
randomPauli(uint32_t n, Rng &rng)
{
    PauliString p(n);
    for (uint32_t q = 0; q < n; ++q)
        p.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
    return p;
}

std::vector<PauliTerm>
randomTerms(uint32_t n, size_t m, uint64_t seed)
{
    Rng rng(seed);
    std::vector<PauliTerm> terms;
    while (terms.size() < m) {
        PauliString p = randomPauli(n, rng);
        if (!p.isIdentity())
            terms.emplace_back(std::move(p), rng.uniformReal(-1, 1));
    }
    return terms;
}

/** Deterministic random gate stream shared by the paired benchmarks. */
std::vector<Gate>
randomGateStream(uint32_t n, size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Gate> gates;
    gates.reserve(count);
    while (gates.size() < count) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(4)) {
          case 0: gates.push_back({ GateType::H, q }); break;
          case 1: gates.push_back({ GateType::S, q }); break;
          default: {
            const uint32_t r = static_cast<uint32_t>(rng.uniformInt(n));
            if (r != q)
                gates.push_back({ GateType::CX, q, r });
            break;
          }
        }
    }
    return gates;
}

template <typename Tableau>
void
scrambleTableau(Tableau &t, uint32_t n, uint64_t seed)
{
    for (const Gate &g : randomGateStream(n, 4 * n, seed))
        t.appendGate(g);
}

template <typename Tableau>
void
tableauAppendCx(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Tableau t(n);
    Rng rng(1);
    for (auto _ : state) {
        const uint32_t a = static_cast<uint32_t>(rng.uniformInt(n));
        uint32_t b = static_cast<uint32_t>(rng.uniformInt(n));
        if (b == a)
            b = (a + 1) % n;
        t.appendCX(a, b);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_CliffordTableauAppendCx(benchmark::State &state)
{
    tableauAppendCx<CliffordTableau>(state);
}
BENCHMARK(BM_CliffordTableauAppendCx)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void
BM_ReferenceTableauAppendCx(benchmark::State &state)
{
    tableauAppendCx<ReferenceTableau>(state);
}
BENCHMARK(BM_ReferenceTableauAppendCx)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

template <typename Tableau>
void
tableauConjugate(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Rng rng(2);
    Tableau t(n);
    scrambleTableau(t, n, 2);
    const PauliString p = randomPauli(n, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(t.conjugate(p));
    state.SetItemsProcessed(state.iterations());
}

void
BM_CliffordTableauConjugate(benchmark::State &state)
{
    tableauConjugate<CliffordTableau>(state);
}
BENCHMARK(BM_CliffordTableauConjugate)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void
BM_ReferenceTableauConjugate(benchmark::State &state)
{
    tableauConjugate<ReferenceTableau>(state);
}
BENCHMARK(BM_ReferenceTableauConjugate)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

/**
 * The batched conjugation kernel: args are {qubits, batch size}. The
 * tableau transpose is paid once per call and amortized over the
 * batch, so per-item time should sit well below the scalar
 * BM_CliffordTableauConjugate at the same qubit count (the acceptance
 * bar is >= 2x at 128 qubits on >= 16-term batches). The work vector
 * is refreshed element-wise each iteration, which reuses each string's
 * capacity — the same in-place update pattern the extractor's
 * conjugation cache uses.
 */
void
BM_CliffordTableauConjugateBatch(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    const size_t batch = static_cast<size_t>(state.range(1));
    Rng rng(2);
    CliffordTableau t(n);
    scrambleTableau(t, n, 2);
    std::vector<PauliString> inputs;
    for (size_t i = 0; i < batch; ++i)
        inputs.push_back(randomPauli(n, rng));
    std::vector<PauliString> work = inputs;
    for (auto _ : state) {
        for (size_t i = 0; i < batch; ++i)
            work[i] = inputs[i];
        t.conjugateBatch(work);
        benchmark::DoNotOptimize(work.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(batch));
}
BENCHMARK(BM_CliffordTableauConjugateBatch)
    ->Args({ 128, 16 })
    ->Args({ 128, 64 })
    ->Args({ 128, 256 })
    ->Args({ 256, 64 });

/**
 * The extraction-shaped kernel behind the acceptance criterion: per
 * iteration, one rotation's worth of tableau work — a basis-layer +
 * CNOT-tree sized burst of gate appends followed by one term
 * conjugation — on identical streams for both layouts.
 */
template <typename Tableau>
void
tableauAppendConjugate(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Tableau t(n);
    const auto gates = randomGateStream(n, 4096, 3);
    Rng rng(4);
    const PauliString p = randomPauli(n, rng);
    size_t g = 0;
    for (auto _ : state) {
        for (int i = 0; i < 16; ++i) {
            t.appendGate(gates[g]);
            g = (g + 1) % gates.size();
        }
        benchmark::DoNotOptimize(t.conjugate(p));
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_CliffordTableauAppendConjugate(benchmark::State &state)
{
    tableauAppendConjugate<CliffordTableau>(state);
}
BENCHMARK(BM_CliffordTableauAppendConjugate)->Arg(64)->Arg(128)->Arg(256);

void
BM_ReferenceTableauAppendConjugate(benchmark::State &state)
{
    tableauAppendConjugate<ReferenceTableau>(state);
}
BENCHMARK(BM_ReferenceTableauAppendConjugate)->Arg(64)->Arg(128)->Arg(256);

void
BM_TreeSynthesis(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Rng rng(3);
    const PauliString current = [&] {
        PauliString p(n);
        for (uint32_t q = 0; q < n; ++q)
            p.setOp(q, PauliOp::Z);
        return p;
    }();
    const PauliString look = randomPauli(n, rng);
    for (auto _ : state) {
        CliffordTableau acc(n);
        QuantumCircuit tree(n);
        std::vector<PauliString> window{ look };
        TreeSynthesizer synth(acc, tree, window, {});
        benchmark::DoNotOptimize(synth.synthesize(current.support()));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeSynthesis)->Arg(8)->Arg(16)->Arg(32);

void
BM_CliffordExtraction(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    const size_t m = static_cast<size_t>(state.range(1));
    const auto terms = randomTerms(n, m, 4);
    ExtractionConfig config;
    config.threads = 1; // sequential baseline for the Threaded variant
    const CliffordExtractor extractor(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(extractor.run(terms));
    state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_CliffordExtraction)
    ->Args({ 8, 64 })
    ->Args({ 16, 256 })
    ->Args({ 20, 512 })
    ->Args({ 64, 256 })
    ->Args({ 128, 256 });

/**
 * Full extraction at threads = hardware concurrency. These connected
 * random programs form one chain, so the extraction runs on the owner
 * thread and the pool stays idle: this series checks that a thread
 * count alone costs nothing over BM_CliffordExtraction on the same
 * args. Output is bit-identical; only the wall clock may differ.
 */
void
BM_CliffordExtractionThreaded(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    const size_t m = static_cast<size_t>(state.range(1));
    const auto terms = randomTerms(n, m, 4);
    ExtractionConfig config;
    config.threads = 0; // hardware concurrency
    const CliffordExtractor extractor(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(extractor.run(terms));
    state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_CliffordExtractionThreaded)
    ->Args({ 64, 256 })
    ->Args({ 128, 256 });

/**
 * End-to-end extraction on the paper-scale fragmented ensemble
 * UCC-(6,12)x8 (96 qubits, 8 independent 12-qubit chains), sweeping
 * {threads, block_parallelism}. The /T/B suffixes are the two knobs:
 * /1/1 is the fully sequential baseline; /T/1 caps the chain runners at
 * one, so it runs the same sequential path beside an idle pool; /T/2
 * and /T/0 compile up to 2 or T chains at once. Output is bit-identical
 * across every arg pair; only wall time moves.
 */
void
BM_CrossBlockExtraction(benchmark::State &state)
{
    const auto threads = static_cast<uint32_t>(state.range(0));
    const auto block_parallelism = static_cast<uint32_t>(state.range(1));
    static const Benchmark &bench = *[] {
        static Benchmark b = makeBenchmark("UCC-(6,12)x8");
        return &b;
    }();
    ExtractionConfig config;
    config.threads = threads;
    config.blockParallelism = block_parallelism;
    const CliffordExtractor extractor(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(extractor.run(bench.terms));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(bench.terms.size()));
}
BENCHMARK(BM_CrossBlockExtraction)
    ->Args({ 1, 1 })
    ->Args({ 4, 1 })
    ->Args({ 4, 0 })
    ->Args({ 8, 1 })
    ->Args({ 8, 2 })
    ->Args({ 8, 0 })
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Depth scheduling of a compiled U' (QuClear::compile at one thread with
 * the scheduler off), built once per instance outside the timed loop.
 * Each iteration copies U' and runs the pass, as the compile does.
 */
void
BM_DepthScheduling(benchmark::State &state, const char *name)
{
    static std::map<std::string, QuantumCircuit> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        QuClearOptions options;
        options.extraction.threads = 1;
        options.optimizeDepth = false;
        const Benchmark bench = makeBenchmark(name);
        it = cache.emplace(name, QuClear(options).compile(bench.terms)
                                     .extraction.optimized)
                 .first;
    }
    const DepthScheduling pass;
    for (auto _ : state) {
        QuantumCircuit qc = it->second;
        benchmark::DoNotOptimize(pass.run(qc));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(it->second.size()));
}
BENCHMARK_CAPTURE(BM_DepthScheduling, ucc_6_12, "UCC-(6,12)")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DepthScheduling, naphthalene, "naphthalene")
    ->Unit(benchmark::kMillisecond);

/**
 * One level3 pass on the level3 input of UCC-(8,16): the extractor's U'
 * or its tail (CliffordExtractor::run at one thread), extracted once
 * outside the timed loop. Each iteration copies the input and runs the
 * pass once, as the first sweep of the compile does.
 */
void
BM_Level3Pass(benchmark::State &state, const Pass *pass, bool tail)
{
    static const ExtractionResult extraction = [] {
        ExtractionConfig config;
        config.threads = 1;
        return CliffordExtractor(config).run(
            makeBenchmark("UCC-(8,16)").terms);
    }();
    const QuantumCircuit &input =
        tail ? extraction.extractedClifford : extraction.optimized;
    for (auto _ : state) {
        QuantumCircuit qc = input;
        benchmark::DoNotOptimize(pass->run(qc));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(input.size()));
}
const PhaseRotationFolding kPhaseRotationFolding;
const CommutativeCancellation kCommutativeCancellation;
BENCHMARK_CAPTURE(BM_Level3Pass, phase_rotation_folding/ucc_8_16_u,
                  &kPhaseRotationFolding, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Level3Pass, phase_rotation_folding/ucc_8_16_tail,
                  &kPhaseRotationFolding, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Level3Pass, commutative_cancellation/ucc_8_16_u,
                  &kCommutativeCancellation, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Level3Pass, commutative_cancellation/ucc_8_16_tail,
                  &kCommutativeCancellation, true)
    ->Unit(benchmark::kMillisecond);

/** Sequential extraction of @p terms, once per iteration. */
void
runSequentialExtraction(benchmark::State &state,
                        const std::vector<PauliTerm> &terms)
{
    ExtractionConfig config;
    config.threads = 1; // the sequential block loop alone
    const CliffordExtractor extractor(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(extractor.run(terms));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(terms.size()));
}

/**
 * One commuting block at scale: the conjugation-cache + index-list
 * find_next_pauli path isolated from tree synthesis lookahead effects
 * (Z-only terms always commute, so the whole set is one block). The
 * random 16-qubit supports rarely repeat a pattern, so this mostly
 * takes the pattern memos' miss path.
 */
void
BM_ExtractorCommutingBlock(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    const size_t m = static_cast<size_t>(state.range(1));
    Rng rng(11);
    std::vector<PauliTerm> terms;
    while (terms.size() < m) {
        PauliString p(n);
        for (uint32_t q = 0; q < n; ++q)
            if (rng.bernoulli(0.25))
                p.setOp(q, PauliOp::Z);
        if (!p.isIdentity())
            terms.emplace_back(std::move(p), rng.uniformReal(-1, 1));
    }
    runSequentialExtraction(state, terms);
}
BENCHMARK(BM_ExtractorCommutingBlock)->Args({ 64, 128 })->Args({ 128, 128 });

/**
 * A registry row that is one commuting block: LABS-(n30) is a single
 * 2,135-term all-Z block whose 2-10 qubit supports keep meeting the
 * same patterns, so this is the pattern memos' hit path.
 */
void
BM_ExtractorCommutingBlock(benchmark::State &state, const char *row)
{
    runSequentialExtraction(state, makeBenchmark(row).terms);
}
BENCHMARK_CAPTURE(BM_ExtractorCommutingBlock, labs_n30, "LABS-(n30)")
    ->Unit(benchmark::kMillisecond);

void
BM_AbsorbObservables(benchmark::State &state)
{
    const uint32_t n = 20;
    const size_t k = static_cast<size_t>(state.range(0));
    const auto terms = randomTerms(n, 128, 5);
    const ExtractionResult ext = CliffordExtractor().run(terms);
    Rng rng(6);
    std::vector<PauliString> observables;
    for (size_t i = 0; i < k; ++i)
        observables.push_back(randomPauli(n, rng));
    for (auto _ : state)
        benchmark::DoNotOptimize(absorbObservables(ext, observables));
    state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_AbsorbObservables)->Arg(10)->Arg(100)->Arg(1000);

/** Multi-observable absorption over the worker pool. */
void
BM_AbsorbObservablesThreaded(benchmark::State &state)
{
    const uint32_t n = 20;
    const size_t k = static_cast<size_t>(state.range(0));
    const auto terms = randomTerms(n, 128, 5);
    const ExtractionResult ext = CliffordExtractor().run(terms);
    Rng rng(6);
    std::vector<PauliString> observables;
    for (size_t i = 0; i < k; ++i)
        observables.push_back(randomPauli(n, rng));
    for (auto _ : state)
        benchmark::DoNotOptimize(absorbObservables(ext, observables, 0));
    state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_AbsorbObservablesThreaded)->Arg(100)->Arg(1000);

void
BM_RemapBitstrings(benchmark::State &state)
{
    const uint32_t n = 20;
    Rng rng(7);
    ReducedClifford red;
    red.network = LinearFunction::identity(n);
    for (int i = 0; i < 64; ++i) {
        const uint32_t a = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t b = static_cast<uint32_t>(rng.uniformInt(n));
        if (a != b)
            red.network.appendCx(a, b);
    }
    std::map<uint64_t, uint64_t> counts;
    const size_t k = static_cast<size_t>(state.range(0));
    while (counts.size() < k)
        counts[rng.uniformInt(1ULL << n)] += 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(remapCounts(red, counts));
    state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_RemapBitstrings)->Arg(100)->Arg(1000)->Arg(5000);


void
BM_DiagonalizeCommutingSet(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Rng rng(8);
    // Commuting set by construction: random products of fixed
    // generators (Z-strings conjugated by one random Clifford).
    QuantumCircuit frame(n);
    for (uint32_t i = 0; i < 3 * n; ++i) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t r = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(3)) {
          case 0: frame.h(q); break;
          case 1: frame.s(q); break;
          default:
            if (q != r)
                frame.cx(q, r);
            break;
        }
    }
    std::vector<PauliString> set;
    for (uint32_t k = 0; k < n; ++k) {
        PauliString z(n);
        for (uint32_t q = 0; q < n; ++q)
            if (rng.bernoulli(0.4))
                z.setOp(q, PauliOp::Z);
        if (z.isIdentity())
            z.setOp(k, PauliOp::Z);
        frame.conjugatePauli(z);
        set.push_back(std::move(z));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(diagonalizeCommutingSet(set));
    state.SetItemsProcessed(state.iterations() * set.size());
}
BENCHMARK(BM_DiagonalizeCommutingSet)->Arg(8)->Arg(16)->Arg(32);

void
BM_SabreRouting(benchmark::State &state)
{
    const uint32_t n = 20;
    Rng rng(9);
    QuantumCircuit qc(n);
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
        const uint32_t a = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t b = static_cast<uint32_t>(rng.uniformInt(n));
        if (a != b)
            qc.cx(a, b);
    }
    const CouplingMap device = manhattanHeavyHex();
    for (auto _ : state)
        benchmark::DoNotOptimize(mapToDevice(qc, device));
    state.SetItemsProcessed(state.iterations() * qc.size());
}
BENCHMARK(BM_SabreRouting)->Arg(100)->Arg(400);

void
BM_StatevectorGate(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Statevector sv(n);
    Rng rng(10);
    for (auto _ : state) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        sv.applyGate({ GateType::H, q });
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatevectorGate)->Arg(10)->Arg(14);

} // namespace

BENCHMARK_MAIN();
