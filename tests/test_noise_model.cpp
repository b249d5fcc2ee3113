/**
 * @file
 * Tests for the depolarizing noise model: the channels must be valid
 * probability distributions, sampled fault rates and fault gaps must
 * follow their laws under a fixed seed, and Monte-Carlo noisy
 * expectations on Clifford circuits must match a per-shot replay
 * exactly and the exact noisy expectation within 5 sigma.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/suite.hpp"
#include "core/quclear.hpp"
#include "sim/noise_model.hpp"
#include "support/reference_stabilizer_simulator.hpp"
#include "support/reference_tableau.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

QuantumCircuit
ghzCircuit(uint32_t n)
{
    QuantumCircuit qc(n);
    qc.h(0);
    for (uint32_t q = 0; q + 1 < n; ++q)
        qc.cx(q, q + 1);
    return qc;
}

TEST(NoiseModelTest, ChannelsNormalizeAndArePositive)
{
    for (const double p1 : { 0.0, 3e-4, 0.02, 0.3 }) {
        for (const double p2 : { 0.0, 5e-3, 0.05, 0.4 }) {
            NoiseModel noise;
            noise.singleQubitError = p1;
            noise.twoQubitError = p2;

            const auto one_q = noise.singleQubitChannel();
            double sum = 0.0;
            for (const double prob : one_q) {
                EXPECT_GE(prob, 0.0);
                EXPECT_LE(prob, 1.0);
                sum += prob;
            }
            EXPECT_NEAR(sum, 1.0, 1e-12) << "p1=" << p1;
            EXPECT_DOUBLE_EQ(one_q[0], 1.0 - p1);
            EXPECT_DOUBLE_EQ(one_q[1], one_q[2]);
            EXPECT_DOUBLE_EQ(one_q[2], one_q[3]);

            const auto two_q = noise.twoQubitChannel();
            sum = 0.0;
            for (const double prob : two_q) {
                EXPECT_GE(prob, 0.0);
                EXPECT_LE(prob, 1.0);
                sum += prob;
            }
            EXPECT_NEAR(sum, 1.0, 1e-12) << "p2=" << p2;
            EXPECT_DOUBLE_EQ(two_q[0], 1.0 - p2);
            for (size_t k = 2; k < two_q.size(); ++k)
                EXPECT_DOUBLE_EQ(two_q[k], two_q[1]);
        }
    }
}

TEST(NoiseModelTest, SampledSingleQubitRatesConverge)
{
    NoiseModel noise;
    noise.singleQubitError = 0.06;
    Rng rng(1234);

    const size_t trials = 200000;
    std::array<size_t, 4> counts{};
    for (size_t t = 0; t < trials; ++t)
        ++counts[static_cast<size_t>(noise.sampleSingleQubitError(rng))];

    const auto channel = noise.singleQubitChannel();
    const size_t errors = trials - counts[static_cast<size_t>(PauliOp::I)];
    EXPECT_NEAR(static_cast<double>(errors) / trials,
                noise.singleQubitError, 0.004);
    for (const PauliOp op : { PauliOp::X, PauliOp::Y, PauliOp::Z }) {
        // Channel order is {I, X, Y, Z}; X/Y/Z all carry p/3.
        EXPECT_NEAR(static_cast<double>(
                        counts[static_cast<size_t>(op)]) /
                        trials,
                    channel[1], 0.003)
            << "op " << static_cast<int>(op);
    }
}

TEST(NoiseModelTest, SampledTwoQubitRatesConverge)
{
    NoiseModel noise;
    noise.twoQubitError = 0.12;
    Rng rng(4321);

    const size_t trials = 300000;
    size_t faults = 0;
    std::array<size_t, 16> pair_counts{};
    for (size_t t = 0; t < trials; ++t) {
        const auto [a, b] = noise.sampleTwoQubitError(rng);
        const bool is_fault = a != PauliOp::I || b != PauliOp::I;
        faults += is_fault;
        if (is_fault) {
            // Re-derive the {I, X, Y, Z} letter index of each leg.
            auto letter = [](PauliOp op) -> size_t {
                switch (op) {
                  case PauliOp::I: return 0;
                  case PauliOp::X: return 1;
                  case PauliOp::Y: return 2;
                  default: return 3;
                }
            };
            ++pair_counts[4 * letter(b) + letter(a)];
        }
    }
    EXPECT_NEAR(static_cast<double>(faults) / trials, noise.twoQubitError,
                0.004);
    EXPECT_EQ(pair_counts[0], 0u); // II never reported as a fault
    const double per_pair = noise.twoQubitError / 15.0;
    for (size_t k = 1; k < pair_counts.size(); ++k)
        EXPECT_NEAR(static_cast<double>(pair_counts[k]) / trials, per_pair,
                    0.002)
            << "pair index " << k;
}

TEST(NoiseModelTest, ZeroNoiseReproducesIdealExpectation)
{
    NoiseModel noiseless;
    noiseless.singleQubitError = 0.0;
    noiseless.twoQubitError = 0.0;

    const QuantumCircuit qc = ghzCircuit(5);
    ReferenceStabilizerSimulator ideal(5);
    ideal.applyCircuit(qc);
    const PauliString obs = PauliString::fromLabel("XXXXX");
    ASSERT_EQ(ideal.expectation(obs), 1);

    Rng rng(77);
    const auto result = noiseless.noisyStabilizerExpectation(qc, obs, 64, rng);
    EXPECT_DOUBLE_EQ(result.expectation, 1.0);
    EXPECT_EQ(result.errorEvents, 0u);
    EXPECT_EQ(result.faultSites, 64 * qc.size());
}

TEST(NoiseModelTest, NoisyExpectationWithinErrorBudget)
{
    NoiseModel noise;
    noise.singleQubitError = 2e-3;
    noise.twoQubitError = 8e-3;

    const uint32_t n = 6;
    const QuantumCircuit qc = ghzCircuit(n);
    const PauliString obs = PauliString::fromLabel("XXXXXX");
    ReferenceStabilizerSimulator ideal(n);
    ideal.applyCircuit(qc);
    const double ideal_exp = ideal.expectation(obs);
    ASSERT_EQ(ideal_exp, 1.0);

    Rng rng(2026);
    const size_t shots = 40000;
    const auto result =
        noise.noisyStabilizerExpectation(qc, obs, shots, rng);

    // Depolarizing faults can only shrink |<O>|; the shrinkage is at
    // most the probability that any fault fired (first-order budget
    // from the fidelity proxy) times 2, plus sampling noise.
    EXPECT_LE(result.expectation, 1.0);
    const double fault_probability =
        1.0 - noise.estimatedSuccessProbability(qc);
    EXPECT_GE(result.expectation,
              ideal_exp - 2.0 * fault_probability - 0.02);
    EXPECT_LT(result.expectation, ideal_exp); // some fault must land

    // Sampled per-site error rate converges to the configured rates.
    const double expected_events_per_shot =
        static_cast<double>(qc.singleQubitCount()) *
            noise.singleQubitError +
        static_cast<double>(qc.twoQubitCount()) * noise.twoQubitError;
    EXPECT_EQ(result.faultSites, shots * qc.size());
    EXPECT_NEAR(static_cast<double>(result.errorEvents) / shots,
                expected_events_per_shot,
                0.2 * expected_events_per_shot);
}

TEST(NoiseModelTest, NoisyVsIdealDeltaBoundedOnRandomCliffords)
{
    NoiseModel noise;
    noise.singleQubitError = 1e-3;
    noise.twoQubitError = 4e-3;

    Rng rng(555);
    for (int trial = 0; trial < 6; ++trial) {
        const uint32_t n = 4;
        const QuantumCircuit qc = randomCliffordCircuit(n, 24, rng);
        ReferenceStabilizerSimulator ideal(n);
        ideal.applyCircuit(qc);

        PauliString obs(n);
        for (uint32_t q = 0; q < n; ++q)
            obs.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        if (obs.isIdentity())
            obs.setOp(0, PauliOp::Z);

        Rng shot_rng(1000 + static_cast<uint64_t>(trial));
        const auto result =
            noise.noisyStabilizerExpectation(qc, obs, 8000, shot_rng);

        EXPECT_LE(std::abs(result.expectation), 1.0);
        const double budget = 1.0 - noise.estimatedSuccessProbability(qc);
        EXPECT_NEAR(result.expectation,
                    static_cast<double>(ideal.expectation(obs)),
                    2.0 * budget + 0.05)
            << "trial " << trial;
    }
}

TEST(NoiseModelTest, BatchedSamplerBitIdenticalAcrossThreadGrid)
{
    NoiseModel noise;
    noise.singleQubitError = 0.04;
    noise.twoQubitError = 0.09;

    Rng circuit_rng(909);
    const uint32_t n = 5;
    const QuantumCircuit qc = randomCliffordCircuit(n, 40, circuit_rng);
    const PauliString obs = PauliString::fromLabel("ZXIYZ");
    const size_t shots = 4096;

    NoiseModel::SamplerOptions baseline;
    baseline.seed = 0xC0FFEEULL;
    baseline.threads = 1;
    baseline.shotBlock = 1024;
    const auto expected =
        noise.noisyStabilizerExpectation(qc, obs, shots, baseline);
    EXPECT_EQ(expected.faultSites, shots * qc.size());
    EXPECT_GT(expected.errorEvents, 0u);

    // Every split of the same shot set must reproduce the scalar run
    // bit-for-bit: the combine is exact integer arithmetic in block
    // order, independent of which worker ran which block.
    for (const uint32_t threads : { 0u, 1u, 2u, 3u, 4u, 8u }) {
        for (const size_t shot_block : { size_t{1}, size_t{7},
                                         size_t{64}, size_t{1000},
                                         size_t{4096}, size_t{9999} }) {
            NoiseModel::SamplerOptions options;
            options.seed = baseline.seed;
            options.threads = threads;
            options.shotBlock = shot_block;
            const auto got =
                noise.noisyStabilizerExpectation(qc, obs, shots, options);
            EXPECT_EQ(got.expectation, expected.expectation)
                << "threads=" << threads << " block=" << shot_block;
            EXPECT_EQ(got.errorEvents, expected.errorEvents)
                << "threads=" << threads << " block=" << shot_block;
            EXPECT_EQ(got.faultSites, expected.faultSites);
        }
    }

    // A different master seed must actually change the sampled faults;
    // otherwise the grid above would pass vacuously.
    NoiseModel::SamplerOptions reseeded = baseline;
    reseeded.seed = baseline.seed + 1;
    const auto other =
        noise.noisyStabilizerExpectation(qc, obs, shots, reseeded);
    EXPECT_NE(other.errorEvents, expected.errorEvents);
}

TEST(NoiseModelTest, LegacyRngOverloadIsDeterministicAndDelegates)
{
    NoiseModel noise;
    noise.singleQubitError = 0.03;
    noise.twoQubitError = 0.07;

    Rng circuit_rng(4242);
    const QuantumCircuit qc = randomCliffordCircuit(4, 32, circuit_rng);
    const PauliString obs = PauliString::fromLabel("XZYI");
    const size_t shots = 2048;

    // Two identically-seeded generators must give identical results.
    Rng rng_a(31337);
    Rng rng_b(31337);
    const auto res_a = noise.noisyStabilizerExpectation(qc, obs, shots, rng_a);
    const auto res_b = noise.noisyStabilizerExpectation(qc, obs, shots, rng_b);
    EXPECT_EQ(res_a.expectation, res_b.expectation);
    EXPECT_EQ(res_a.errorEvents, res_b.errorEvents);
    EXPECT_EQ(res_a.faultSites, res_b.faultSites);

    // The overload consumes exactly one draw to derive the master seed
    // and hands off to the batched sampler; reproducing that by hand
    // must match bit-for-bit.
    Rng rng_c(31337);
    NoiseModel::SamplerOptions options;
    options.seed = rng_c();
    const auto res_c =
        noise.noisyStabilizerExpectation(qc, obs, shots, options);
    EXPECT_EQ(res_c.expectation, res_a.expectation);
    EXPECT_EQ(res_c.errorEvents, res_a.errorEvents);

    // Both callers left their generator at the same stream position.
    Rng rng_d(31337);
    (void)rng_d();
    EXPECT_EQ(rng_a(), rng_d());
}

GateType
pauliGateType(PauliOp op)
{
    switch (op) {
      case PauliOp::X: return GateType::X;
      case PauliOp::Y: return GateType::Y;
      default: return GateType::Z;
    }
}

/** Gate indices of the one-qubit and two-qubit rate classes. */
std::pair<std::vector<size_t>, std::vector<size_t>>
rateClasses(const QuantumCircuit &qc)
{
    std::pair<std::vector<size_t>, std::vector<size_t>> classes;
    for (size_t j = 0; j < qc.size(); ++j)
        (isTwoQubit(qc.gates()[j].type) ? classes.second : classes.first)
            .push_back(j);
    return classes;
}

/**
 * Draws one rate class's faults in the documented shot order: a gap,
 * then (if it lands inside the class) the fault letter, then the next
 * gap after the faulty site. Writes the letters at the faulty gates'
 * indices and returns the number of faults.
 */
size_t
drawClassFaults(Rng &rng, double p, const std::vector<size_t> &class_gates,
                bool two_qubit,
                std::vector<std::pair<PauliOp, PauliOp>> &faults)
{
    static constexpr PauliOp kLetter[4] = { PauliOp::I, PauliOp::X,
                                            PauliOp::Y, PauliOp::Z };
    size_t count = 0;
    size_t next = 0;
    while (next < class_gates.size()) {
        const size_t gap = NoiseModel::sampleFaultGap(rng, p);
        if (gap >= class_gates.size() - next)
            break;
        next += gap;
        if (two_qubit) {
            const uint64_t k = 1 + rng.uniformInt(15);
            faults[class_gates[next]] = { kLetter[k & 3], kLetter[k >> 2] };
        } else {
            faults[class_gates[next]] = { kLetter[1 + rng.uniformInt(3)],
                                          PauliOp::I };
        }
        ++count;
        ++next;
    }
    return count;
}

/**
 * Exact noisy expectation, independent of the sampler: independent
 * depolarizing faults give E = ideal * prod_j (1 - 2 q_j), where q_j is
 * the chance that site j's fault anticommutes with the observable
 * pulled back to it — (2/3) p1 on a non-identity 1q letter, (8/15) p2
 * on a non-identity 2q pair, 0 otherwise. The pull-back runs on a
 * ReferenceTableau and the ideal value on a ReferenceStabilizerSimulator.
 */
double
exactNoisyExpectation(const QuantumCircuit &qc, const PauliString &obs,
                      const NoiseModel &noise)
{
    ReferenceStabilizerSimulator sim(qc.numQubits());
    sim.applyCircuit(qc);
    const int ideal = sim.expectation(obs);
    if (ideal == 0)
        return 0.0;
    const double q1 = 2.0 / 3.0 * noise.singleQubitError;
    const double q2 = 8.0 / 15.0 * noise.twoQubitError;
    double product = 1.0;
    ReferenceTableau later_inverse(qc.numQubits()); // U_{>j}~
    for (size_t j = qc.size(); j-- > 0;) {
        const Gate &g = qc.gates()[j];
        const PauliString site = later_inverse.conjugate(obs);
        if (isTwoQubit(g.type)) {
            if (site.op(g.q0) != PauliOp::I || site.op(g.q1) != PauliOp::I)
                product *= 1.0 - 2.0 * q2;
        } else if (site.op(g.q0) != PauliOp::I) {
            product *= 1.0 - 2.0 * q1;
        }
        Gate inv = g;
        inv.type = inverseType(g.type);
        later_inverse.appendGate(inv);
    }
    return ideal * product;
}

/** Five binomial standard errors of a ±1 average with mean @p e. */
double
fiveSigma(double e, size_t shots)
{
    return 5.0 * std::sqrt(std::max(1.0 - e * e, 1e-12) /
                           static_cast<double>(shots));
}

/**
 * Checks one estimate against the exact expectation (5 sigma) and its
 * errorEvents against the fault-count law: per shot, a sum of
 * independent Bernoulli(p1) over the 1q gates and Bernoulli(p2) over
 * the 2q gates.
 */
void
expectMatchesExactLaw(const NoiseModel &noise, const QuantumCircuit &qc,
                      const PauliString &obs, size_t shots, uint64_t seed,
                      const std::string &label)
{
    NoiseModel::SamplerOptions options;
    options.seed = seed;
    const auto result = noise.noisyStabilizerExpectation(qc, obs, shots, options);
    const double exact = exactNoisyExpectation(qc, obs, noise);
    EXPECT_NEAR(result.expectation, exact, fiveSigma(exact, shots)) << label;
    EXPECT_EQ(result.faultSites, shots * qc.size()) << label;

    const double n1 = static_cast<double>(qc.singleQubitCount());
    const double n2 = static_cast<double>(qc.twoQubitCount());
    const double p1 = noise.singleQubitError;
    const double p2 = noise.twoQubitError;
    const double mean = n1 * p1 + n2 * p2;
    const double var = n1 * p1 * (1 - p1) + n2 * p2 * (1 - p2);
    EXPECT_NEAR(static_cast<double>(result.errorEvents) /
                    static_cast<double>(shots),
                mean, 5.0 * std::sqrt(var / static_cast<double>(shots)))
        << label;
}

/**
 * Differential replay oracle: re-run every shot the slow way. Draw the
 * shot's faults from its counter-based stream in the documented order
 * (one-qubit class, then two-qubit class, gap by gap), then walk the
 * gates forward through a reference stabilizer simulator and inject
 * each fault as explicit X/Y/Z gates after its gate. The per-shot
 * expectations must average to the batched sampler's Heisenberg
 * pull-back answer bit-for-bit.
 */
TEST(NoiseModelTest, BatchedSamplerMatchesPerShotReplayOracle)
{
    NoiseModel noise;
    noise.singleQubitError = 0.05;
    noise.twoQubitError = 0.11;

    Rng trial_rng(606060);
    for (int trial = 0; trial < 4; ++trial) {
        const uint32_t n = 4;
        const QuantumCircuit qc = randomCliffordCircuit(n, 28, trial_rng);
        PauliString obs(n);
        for (uint32_t q = 0; q < n; ++q)
            obs.setOp(q, static_cast<PauliOp>(trial_rng.uniformInt(4)));
        if (obs.isIdentity())
            obs.setOp(trial % n, PauliOp::Y);
        // A random Pauli mostly has ideal value 0, which hides the
        // signs; U Z_S U~ has ideal value +1, so every sign counts.
        PauliString forward(n);
        forward.setOp(static_cast<uint32_t>(trial) % n, PauliOp::Z);
        forward.setOp(static_cast<uint32_t>(trial + 1) % n, PauliOp::Z);
        qc.conjugatePauli(forward);

        const size_t shots = 600;
        const uint64_t master = 5150 + static_cast<uint64_t>(trial);
        const auto [one_q, two_q] = rateClasses(qc);
        for (const PauliString *observable : { &obs, &forward }) {
            SCOPED_TRACE(testing::Message()
                         << "trial " << trial << " observable "
                         << (observable == &obs ? "random" : "U Z_S U~"));
            NoiseModel::SamplerOptions options;
            options.seed = master;
            options.threads = 2;
            options.shotBlock = 64;
            const auto batched = noise.noisyStabilizerExpectation(
                qc, *observable, shots, options);

            int64_t replay_sum = 0;
            size_t replay_events = 0;
            for (size_t shot = 0; shot < shots; ++shot) {
                Rng shot_rng(NoiseModel::shotSeed(master, shot));
                std::vector<std::pair<PauliOp, PauliOp>> faults(
                    qc.size(), { PauliOp::I, PauliOp::I });
                replay_events += drawClassFaults(
                    shot_rng, noise.singleQubitError, one_q, false, faults);
                replay_events += drawClassFaults(
                    shot_rng, noise.twoQubitError, two_q, true, faults);

                ReferenceStabilizerSimulator sim(n);
                for (size_t j = 0; j < qc.size(); ++j) {
                    const Gate &g = qc.gates()[j];
                    sim.applyGate(g);
                    const auto [f0, f1] = faults[j];
                    if (f0 != PauliOp::I)
                        sim.applyGate(Gate{ pauliGateType(f0), g.q0 });
                    if (f1 != PauliOp::I)
                        sim.applyGate(Gate{ pauliGateType(f1), g.q1 });
                }
                replay_sum += sim.expectation(*observable);
            }

            EXPECT_GT(replay_events, 0u);
            EXPECT_EQ(replay_events, batched.errorEvents);
            const double replay_expectation =
                static_cast<double>(replay_sum) / static_cast<double>(shots);
            EXPECT_EQ(replay_expectation, batched.expectation);
            if (observable == &forward) {
                EXPECT_LT(batched.expectation, 1.0);
                EXPECT_GT(batched.expectation, 0.0);
            }
        }
    }
}

/**
 * Tier-1 exact-noise oracle on compiled registry tails: the default
 * rates, observables O = U_CL Z_S U_CL~ (ideal value +1) for seeded
 * non-empty S, fixed sampler seeds.
 */
TEST(NoiseModelTest, RegistryTailsMatchExactNoisyExpectation)
{
    const NoiseModel noise;
    QuClearOptions options;
    options.extraction.threads = 1;
    const QuClear compiler(options);
    Rng rng(1414);
    for (const char *name :
         { "LiH", "benzene", "LABS-(n10)", "MaxCut-(n15,r4)",
           "MaxCut-(n10,e12)" }) {
        const Benchmark b = makeBenchmark(name);
        const QuantumCircuit tail =
            compiler.compile(b.terms).extraction.extractedClifford;
        ASSERT_GT(tail.size(), 0u) << name;
        for (int k = 0; k < 3; ++k) {
            PauliString zs(tail.numQubits());
            while (zs.isIdentity())
                for (uint32_t q = 0; q < tail.numQubits(); ++q)
                    if (rng.uniformInt(2))
                        zs.setOp(q, PauliOp::Z);
            PauliString obs = zs;
            tail.conjugatePauli(obs);
            expectMatchesExactLaw(noise, tail, obs, 20000, rng(),
                                  std::string(name) + " obs " +
                                      std::to_string(k));
        }
    }
}

/** The same oracle on random 4–6 qubit Cliffords at high rates. */
TEST(NoiseModelTest, RandomCliffordsMatchExactNoisyExpectation)
{
    NoiseModel noise;
    noise.singleQubitError = 0.05;
    noise.twoQubitError = 0.11;
    Rng rng(2718);
    for (int trial = 0; trial < 6; ++trial) {
        const uint32_t n = 4 + static_cast<uint32_t>(trial % 3);
        const QuantumCircuit qc = randomCliffordCircuit(n, 30, rng);
        // A Z_S pulled forward has ideal value +1 (a non-trivial
        // product); a uniform random Pauli mostly has ideal value 0.
        PauliString zs(n);
        zs.setOp(static_cast<uint32_t>(rng.uniformInt(n)), PauliOp::Z);
        zs.setOp(static_cast<uint32_t>(rng.uniformInt(n)), PauliOp::Z);
        PauliString forward = zs;
        qc.conjugatePauli(forward);
        PauliString random(n);
        for (uint32_t q = 0; q < n; ++q)
            random.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        if (random.isIdentity())
            random.setOp(0, PauliOp::X);
        const std::string label = "trial " + std::to_string(trial);
        expectMatchesExactLaw(noise, qc, forward, 20000, rng(),
                              label + " U Z_S U~");
        expectMatchesExactLaw(noise, qc, random, 20000, rng(),
                              label + " random Pauli");
    }
}

/**
 * Chi-square goodness of fit of sampleFaultGap against the geometric
 * law P(gap = k) = (1 - p)^k p: one bin per k while the expected count
 * stays at least 20 (at most 60 bins), plus a tail bin. The bound is
 * the Wilson–Hilferty 5-sigma quantile of chi-square(df).
 */
TEST(NoiseModelTest, FaultGapFollowsGeometricLaw)
{
    for (const double p : { 0.005, 0.11, 0.5 }) {
        Rng rng(31 + static_cast<uint64_t>(p * 1000));
        const size_t draws = 200000;
        const double n = static_cast<double>(draws);
        size_t bins = 0;
        while (bins < 60 && n * std::pow(1 - p, bins) * p >= 20.0)
            ++bins;
        std::vector<size_t> counts(bins + 1, 0);
        for (size_t t = 0; t < draws; ++t)
            ++counts[std::min(NoiseModel::sampleFaultGap(rng, p), bins)];

        double chi2 = 0.0;
        for (size_t k = 0; k <= bins; ++k) {
            const double prob = k < bins ? std::pow(1 - p, k) * p
                                         : std::pow(1 - p, bins);
            const double expected = n * prob;
            const double d = static_cast<double>(counts[k]) - expected;
            chi2 += d * d / expected;
        }
        const double df = static_cast<double>(bins);
        const double h = 2.0 / (9.0 * df);
        const double bound = df * std::pow(1.0 - h + 5.0 * std::sqrt(h), 3);
        EXPECT_LT(chi2, bound) << "p=" << p << " bins=" << bins;
        EXPECT_GE(bins, 10u) << "p=" << p;
    }
}

TEST(NoiseModelTest, FaultGapEdgeRates)
{
    constexpr size_t kNever = std::numeric_limits<size_t>::max();
    Rng rng(99);
    Rng twin(99);

    // Certain outcomes consume no draw.
    for (const double p : { 0.0, -0.0, 1.0 }) {
        EXPECT_EQ(NoiseModel::sampleFaultGap(rng, p), p > 0.0 ? 0u : kNever)
            << "p=" << p;
        EXPECT_EQ(rng(), twin()) << "p=" << p;
    }

    // Tiny and subnormal rates: one draw each, a huge (1e-12) or
    // unreachable (subnormal) gap, never a NaN/inf cast.
    for (int t = 0; t < 1000; ++t) {
        const size_t gap = NoiseModel::sampleFaultGap(rng, 1e-12);
        EXPECT_GE(gap, size_t{ 1000000 });
        EXPECT_LT(gap, kNever);
        (void)twin.uniformReal();
    }
    for (const double p : { 5e-324, std::numeric_limits<double>::min() }) {
        for (int t = 0; t < 1000; ++t) {
            EXPECT_EQ(NoiseModel::sampleFaultGap(rng, p), kNever)
                << "p=" << p;
            (void)twin.uniformReal();
        }
    }
    EXPECT_EQ(rng(), twin());
}

TEST(NoiseModelTest, SamplerEdgeRates)
{
    Rng circuit_rng(8080);
    const uint32_t n = 5;
    const QuantumCircuit qc = randomCliffordCircuit(n, 60, circuit_rng);
    const size_t n1 = qc.singleQubitCount();
    const size_t n2 = qc.twoQubitCount();
    ASSERT_GT(n1, 0u);
    ASSERT_GT(n2, 0u);
    ASSERT_EQ(n1 + n2, qc.size());
    PauliString obs = PauliString::fromLabel("ZIZZI");
    qc.conjugatePauli(obs);
    const size_t shots = 3000;

    NoiseModel::SamplerOptions options;
    options.seed = 17;
    options.threads = 2;
    options.shotBlock = 100;

    struct Case
    {
        double p1, p2;
        size_t events;
    };
    // p = 1: every site of that class faults. p = 0, tiny and
    // subnormal rates: no event.
    for (const Case c : { Case{ 1.0, 0.0, shots * n1 },
                          Case{ 0.0, 1.0, shots * n2 },
                          Case{ 1.0, 1.0, shots * qc.size() },
                          Case{ 0.0, 0.0, 0 },
                          Case{ 1e-12, 1e-12, 0 },
                          Case{ 5e-324, 5e-324, 0 } }) {
        NoiseModel noise;
        noise.singleQubitError = c.p1;
        noise.twoQubitError = c.p2;
        const auto r = noise.noisyStabilizerExpectation(qc, obs, shots, options);
        SCOPED_TRACE(testing::Message() << "p1=" << c.p1 << " p2=" << c.p2);
        EXPECT_EQ(r.errorEvents, c.events);
        EXPECT_EQ(r.faultSites, shots * qc.size());
        ASSERT_TRUE(std::isfinite(r.expectation));
        const double exact = exactNoisyExpectation(qc, obs, noise);
        EXPECT_NEAR(r.expectation, exact, fiveSigma(exact, shots));
        if (c.events == 0) {
            EXPECT_EQ(r.expectation, 1.0);
        }
    }
}

TEST(NoiseModelTest, SamplerHandlesSingleClassAndEmptyCircuits)
{
    NoiseModel noise;
    noise.singleQubitError = 0.05;
    noise.twoQubitError = 0.11;
    Rng rng(123);
    const uint32_t n = 5;

    QuantumCircuit one_q_only(n);
    QuantumCircuit two_q_only(n);
    for (int k = 0; k < 40; ++k) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t r = (q + 1 + static_cast<uint32_t>(rng.uniformInt(n - 1))) % n;
        switch (rng.uniformInt(3)) {
          case 0: one_q_only.h(q); two_q_only.cx(q, r); break;
          case 1: one_q_only.s(q); two_q_only.cz(q, r); break;
          default: one_q_only.x(q); two_q_only.swap(q, r); break;
        }
    }
    ASSERT_EQ(one_q_only.twoQubitCount(), 0u);
    ASSERT_EQ(two_q_only.singleQubitCount(), 0u);
    for (const QuantumCircuit *qc : { &one_q_only, &two_q_only }) {
        PauliString obs = PauliString::fromLabel("ZZIIZ");
        qc->conjugatePauli(obs);
        expectMatchesExactLaw(noise, *qc, obs, 20000, rng(),
                              qc == &one_q_only ? "1q only" : "2q only");
    }

    const QuantumCircuit empty(3);
    NoiseModel::SamplerOptions options;
    options.seed = 3;
    const auto z = noise.noisyStabilizerExpectation(
        empty, PauliString::fromLabel("ZZI"), 500, options);
    EXPECT_EQ(z.expectation, 1.0);
    EXPECT_EQ(z.errorEvents, 0u);
    EXPECT_EQ(z.faultSites, 0u);
    const auto x = noise.noisyStabilizerExpectation(
        empty, PauliString::fromLabel("XII"), 500, options);
    EXPECT_EQ(x.expectation, 0.0);
    EXPECT_EQ(x.errorEvents, 0u);
}

} // namespace
} // namespace quclear
