/**
 * @file
 * Tests of the benchmark itself: every oracle accepts a real output and
 * rejects a deliberately corrupted one, and the tail rule picks the
 * right sample at small counts. Exit status 0 iff all checks pass.
 *
 *   python3 perfbench/run.py --selftest
 */
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/suite.hpp"
#include "core/absorption_post.hpp"
#include "core/quclear.hpp"
#include "oracles.hpp"
#include "stats.hpp"

namespace {

using namespace quclear;
using namespace perfbench;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok)
        ++failures;
}

QuClearOptions
options()
{
    QuClearOptions o;
    o.extraction.threads = 1;
    return o;
}

void
testTailRule()
{
    expect(tailIndex(0) == 0 && tail({}).samples == 0, "tail of no samples");
    // Fewer than 11 samples: no percentile has ten beyond it, so the
    // maximum is reported with the shortfall visible.
    for (size_t n = 1; n <= 10; ++n)
        expect(tailIndex(n) == n - 1, "tail index at n=" + std::to_string(n));
    for (size_t n = 11; n <= 40; ++n)
        expect(tailIndex(n) == n - 11, "tail index at n=" + std::to_string(n));

    std::vector<double> v;
    for (int i = 12; i >= 1; --i)
        v.push_back(i);
    const Tail t = tail(v);
    expect(t.value == 2.0 && t.beyond == 10 && t.samples == 12,
           "tail of 1..12 is 2 with 10 beyond");
    expect(std::fabs(t.percentile - 100.0 * 2 / 12) < 1e-12,
           "tail percentile of 1..12");
    const Tail small = tail({ 3.0, 1.0, 2.0 });
    expect(small.value == 3.0 && small.beyond == 0, "tail of 3 samples is the max");
    expect(median({ 4.0, 1.0, 3.0, 2.0 }) == 2.5 && median({ 5.0, 1.0, 3.0 }) == 3.0,
           "median of even and odd counts");
}

void
testCompileOracle()
{
    const Benchmark b = makeBenchmark("UCC-(2,6)");
    const QuClear compiler(options());
    const CompiledProgram p = compiler.compile(b.terms);
    const std::string why = checkCompile(b.terms, p.extraction, 7);
    expect(why.empty(), "compile oracle accepts the real output " + why);

    ExtractionResult dropped = p.extraction;
    auto &gates = dropped.optimized.mutableGates();
    const auto cx = std::find_if(gates.begin(), gates.end(), [](const Gate &g) {
        return g.type == GateType::CX;
    });
    expect(cx != gates.end(), "U' holds a CX to drop");
    gates.erase(cx);
    expect(!checkCompile(b.terms, dropped, 7).empty(),
           "compile oracle rejects a dropped CX");

    ExtractionResult flipped = p.extraction;
    auto &tail = flipped.extractedClifford.mutableGates();
    const auto t = std::find_if(tail.begin(), tail.end(), [](const Gate &g) {
        return g.type == GateType::CX;
    });
    expect(t != tail.end(), "tail holds a CX to flip");
    std::swap(t->q0, t->q1);
    expect(!checkCompile(b.terms, flipped, 7).empty(),
           "compile oracle rejects a flipped tail gate");

    std::vector<PauliTerm> shifted = b.terms;
    shifted[0].angle += 1e-3;
    expect(!checkCompile(shifted, p.extraction, 7).empty(),
           "compile oracle rejects a changed rotation angle");

    ExtractionResult bad_conj = p.extraction;
    bad_conj.conjugator.appendH(0);
    expect(!checkCompile(b.terms, bad_conj, 7).empty(),
           "compile oracle rejects a conjugator that does not invert the tail");

    Rng rng(11);
    std::vector<PauliString> obs;
    for (int k = 0; k < 20; ++k)
        obs.push_back(randomPauli(b.numQubits, rng));
    auto absorbed = compiler.absorbObservables(p, obs);
    expect(checkObservables(p.extraction, obs, absorbed).empty(),
           "observable oracle accepts the real output");
    absorbed[3].sign = -absorbed[3].sign;
    expect(!checkObservables(p.extraction, obs, absorbed).empty(),
           "observable oracle rejects a flipped sign");
}

void
testProbabilityOracle()
{
    const Benchmark b = makeBenchmark("LABS-(n10)");
    const QuClear compiler(options());
    const CompiledProgram p = compiler.compile(b.terms);
    const ProbabilityAbsorption pa = compiler.absorbProbabilities(p);
    Counts counts;
    Rng rng(3);
    for (int k = 0; k < 500; ++k)
        ++counts[rng() & 0x3FF];
    const Counts remapped = remapCounts(pa.reduction, counts);
    expect(checkProbabilities(p.extraction, pa, counts, remapped).empty(),
           "probability oracle accepts the real output");

    ProbabilityAbsorption flipped = pa;
    flipped.reduction.xMask ^= 1;
    expect(!checkProbabilities(p.extraction, flipped, counts, remapped).empty(),
           "probability oracle rejects a flipped bit-flip correction");

    Counts moved = remapped;
    const auto first = moved.begin();
    moved[first->first ^ 1] += first->second;
    moved.erase(first);
    expect(!checkProbabilities(p.extraction, pa, counts, moved).empty(),
           "probability oracle rejects a corrupted remap");
}

void
testNoiseOracle()
{
    const Benchmark b = makeBenchmark("LiH");
    const CompiledProgram p = QuClear(options()).compile(b.terms);
    const QuantumCircuit &tail = p.extraction.extractedClifford;
    PauliString zs(tail.numQubits());
    zs.setOp(0, PauliOp::Z);
    zs.setOp(2, PauliOp::Z);
    const PauliString obs = conjugateThrough(tail, zs);
    NoiseModel model;
    model.twoQubitError = 0.02;
    NoiseModel::SamplerOptions sampler;
    sampler.seed = 5;
    constexpr size_t kShots = 4000;
    const auto r = model.noisyStabilizerExpectation(tail, obs, kShots, sampler);
    const ExactNoise exact = exactNoise(tail, obs, model, kShots);
    expect(exact.ideal == 1, "U_CL Z_S U_CL~ has ideal value +1");
    expect(exact.expectation < 1.0, "the exact noisy value is below 1");
    expect(checkNoise(r.expectation, exact).empty(),
           "noise oracle accepts the real estimate");
    expect(!checkNoise(r.expectation - 2 * kNoiseSigmas * exact.sigma, exact).empty(),
           "noise oracle rejects a shifted mean");
}

} // namespace

int
main()
{
    testTailRule();
    testCompileOracle();
    testProbabilityOracle();
    testNoiseOracle();
    std::cout << (failures ? "selftest FAILED\n" : "selftest passed\n");
    return failures ? 1 : 0;
}
