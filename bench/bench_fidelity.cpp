/**
 * @file
 * Estimated-fidelity comparison (extension): translates the Table III
 * gate-count reductions into end-to-end success probabilities under a
 * depolarizing noise model — the physical motivation the paper's
 * introduction gives for circuit optimization. Rates default to
 * 0.03% / 0.5% (1q / 2q), typical of current superconducting devices.
 *
 * Emits BENCH_fidelity.json: one row per benchmark with
 * results.<compiler> {success_probability, seconds}; the noise rates
 * and the term-count skip threshold are recorded in config. A second
 * stage Monte-Carlo-samples the extracted Clifford tail of the largest
 * selected instance with the batched fault sampler and records the
 * measured shot throughput (single-thread vs multi-thread) in
 * summary.mc_sampler.
 */
#include <cstdio>
#include <limits>
#include <string>

#include "baselines/naive_synthesis.hpp"
#include "baselines/paulihedral.hpp"
#include "baselines/rustiq_like.hpp"
#include "baselines/tket_like.hpp"
#include "bench_common.hpp"
#include "core/quclear.hpp"
#include "sim/noise_model.hpp"
#include "util/table_printer.hpp"
#include "util/timer.hpp"
#include "util/worker_pool.hpp"

namespace {

/**
 * Monte-Carlo shot-throughput stage: compile @p target, then sample
 * noisy expectations of an all-Z observable on its extracted Clifford
 * tail with the batched sampler, once single-threaded and once with
 * the environment's thread count. Records shots/sec for both plus the
 * sampler configuration, and checks the two runs agree bit-for-bit.
 */
void
runMcSamplerStage(quclear::bench::BenchReport &report,
                  const quclear::NoiseModel &noise,
                  const std::string &target, size_t shots)
{
    using namespace quclear;
    using namespace quclear::bench;

    const Benchmark b = makeBenchmark(target);
    const QuClear compiler(envCompilerOptions());
    const CompiledProgram program = compiler.compile(b.terms);
    const QuantumCircuit &tail = program.extraction.extractedClifford;

    PauliString observable(tail.numQubits());
    for (uint32_t q = 0; q < tail.numQubits(); ++q)
        observable.setOp(q, PauliOp::Z);

    NoiseModel::SamplerOptions options;
    options.seed = 2026;
    options.threads = 1;

    Timer scalar_timer;
    const auto scalar =
        noise.noisyStabilizerExpectation(tail, observable, shots, options);
    const double scalar_seconds = scalar_timer.seconds();

    options.threads = envThreads();
    const uint32_t resolved =
        WorkerPool::resolveThreadCount(options.threads);
    Timer batched_timer;
    const auto batched =
        noise.noisyStabilizerExpectation(tail, observable, shots, options);
    const double batched_seconds = batched_timer.seconds();

    const double scalar_rate =
        scalar_seconds > 0.0 ? static_cast<double>(shots) / scalar_seconds
                             : 0.0;
    const double batched_rate =
        batched_seconds > 0.0
            ? static_cast<double>(shots) / batched_seconds
            : 0.0;
    const bool identical = scalar.expectation == batched.expectation &&
                           scalar.errorEvents == batched.errorEvents;

    JsonValue &mc = report.summary()["mc_sampler"];
    mc["benchmark"] = target;
    mc["terms"] = b.terms.size();
    mc["tail_gates"] = tail.size();
    mc["qubits"] = tail.numQubits();
    mc["shots"] = shots;
    mc["shot_block"] = options.shotBlock;
    mc["threads"] = resolved;
    mc["expectation"] = batched.expectation;
    mc["error_events"] = batched.errorEvents;
    mc["shots_per_sec_1t"] = scalar_rate;
    mc["shots_per_sec_mt"] = batched_rate;
    mc["speedup"] =
        scalar_seconds > 0.0 && batched_seconds > 0.0
            ? scalar_seconds / batched_seconds
            : 0.0;
    mc["bit_identical"] = identical;

    std::printf("MC sampler on %s tail (%zu gates, %zu shots): "
                "%.0f shots/s @1t, %.0f shots/s @%ut (x%.2f, %s)\n",
                target.c_str(), tail.size(), shots, scalar_rate,
                batched_rate, resolved,
                scalar_seconds > 0.0 && batched_seconds > 0.0
                    ? scalar_seconds / batched_seconds
                    : 0.0,
                identical ? "bit-identical" : "MISMATCH");
}

} // namespace

int
main()
{
    using namespace quclear;
    using namespace quclear::bench;

    std::printf("=== Estimated success probability (depolarizing "
                "3e-4 / 5e-3) ===\n");
    const NoiseModel noise;
    // At smoke/fast scale, instances whose circuits are so large every
    // estimate underflows to ~0 are skipped (the comparison is
    // uninformative there and the baselines dominate the runtime). At
    // full/paper scale the cap is lifted so every row is measured.
    const size_t skip_above_terms =
        fullSuiteRequested() ? std::numeric_limits<size_t>::max() : 2000;
    TablePrinter table({ "Name", "QuCLEAR", "Qiskit", "Rustiq", "PH",
                         "tket" });
    BenchReport report("fidelity",
                       "Estimated end-to-end success probability under "
                       "depolarizing noise");
    report.config()["single_qubit_error"] = noise.singleQubitError;
    report.config()["two_qubit_error"] = noise.twoQubitError;
    // 0 means "no cap" (full/paper scale).
    report.config()["skip_above_terms"] =
        fullSuiteRequested() ? size_t{ 0 } : skip_above_terms;

    // Known sizes (Table II rows + the pinned paper-scale counts from
    // test_benchgen) let over-threshold instances be skipped without
    // generating them; the post-generation check below stays
    // authoritative if these drift.
    const auto known_terms = [](const std::string &n) -> size_t {
        if (const size_t paper = paperRow(n).paulis)
            return paper;
        if (n == "UCC-(12,24)")
            return 35136;
        if (n == "naphthalene")
            return 3066;
        if (n == "LABS-(n30)")
            return 2165;
        return 0;
    };

    for (const auto &name : selectedBenchmarks()) {
        if (known_terms(name) > skip_above_terms)
            continue;
        const Benchmark b = makeBenchmark(name);
        if (b.terms.size() > skip_above_terms)
            continue;

        Timer quclear_timer;
        const QuClear compiler(envCompilerOptions());
        auto program = compiler.compile(b.terms);
        const QuantumCircuit quclear_circuit =
            b.isQaoa() ? compiler.absorbProbabilities(program)
                             .deviceCircuit
                       : program.circuit();
        const double quclear_seconds = quclear_timer.seconds();

        JsonValue &row = report.addRow(name, &b);
        auto record = [&](const char *key, const QuantumCircuit &qc,
                          double seconds) {
            const double p = noise.estimatedSuccessProbability(qc);
            JsonValue &res = row["results"][key];
            res["success_probability"] = p;
            res["seconds"] = seconds;
            return TablePrinter::fmt(p, 4);
        };
        auto timed = [&](const char *key, auto &&compile) {
            Timer t;
            const QuantumCircuit qc = compile();
            const double seconds = t.seconds();
            return record(key, qc, seconds);
        };
        table.addRow({
            name,
            record("quclear", quclear_circuit, quclear_seconds),
            timed("qiskit", [&] { return qiskitBaseline(b.terms); }),
            timed("rustiq", [&] { return rustiqLikeCompile(b.terms); }),
            timed("paulihedral",
                  [&] { return paulihedralCompile(b.terms); }),
            timed("tket", [&] { return tketLikeCompile(b.terms); }),
        });
    }
    std::fputs(table.toString().c_str(), stdout);
    writeCsvIfRequested("fidelity", table);
    if (fullSuiteRequested())
        std::printf("(higher is better)\n");
    else
        std::printf("(higher is better; rows with >2000 terms are "
                    "skipped because every estimate underflows)\n");

    // Shot-throughput stage: the largest instance the scale admits —
    // at full/paper scale a >2000-term instance, exercising the
    // batched sampler at the size the skip threshold used to exclude.
    switch (selectedScale()) {
      case BenchScale::Smoke:
        runMcSamplerStage(report, noise, "LiH", 20000);
        break;
      case BenchScale::Fast:
        runMcSamplerStage(report, noise, "benzene", 100000);
        break;
      case BenchScale::Full:
      case BenchScale::Paper:
        runMcSamplerStage(report, noise, "UCC-(8,16)", 200000);
        break;
    }
    report.write();
    return 0;
}
