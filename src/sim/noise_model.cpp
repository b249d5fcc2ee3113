#include "sim/noise_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "util/worker_pool.hpp"

namespace quclear {

namespace {

/** The observable's letters at a fault site, pulled back through every
 *  later gate (identity = 0 in the x | z<<1 code). */
struct SiteLetters
{
    uint8_t twoQubit;
    uint8_t l0;
    uint8_t l1;
};

/** Inverse of a Clifford gate (all are self-inverse except the
 *  quarter-turns, which inverseType transposes). */
Gate
inverseGate(const Gate &g)
{
    Gate inv = g;
    inv.type = inverseType(g.type);
    return inv;
}

/** 1 iff the fault letter flips the trajectory sign at this site:
 *  both letters non-identity and different anticommute. */
inline unsigned
flipsSign(PauliOp fault, uint8_t site_letter)
{
    const auto f = static_cast<uint8_t>(fault);
    return static_cast<unsigned>(f != 0 && site_letter != 0 &&
                                 f != site_letter);
}

/**
 * sampleFaultGap with its rate -ln1p(-p) passed in, so the shot loop
 * computes it once per class: inverse-CDF of the geometric law
 * P(gap = k) = (1 - p)^k p.
 */
inline size_t
faultGap(Rng &rng, double p, double rate)
{
    constexpr size_t kNever = std::numeric_limits<size_t>::max();
    if (!(p > 0.0))
        return kNever;
    if (p >= 1.0)
        return 0;
    // A rate that underflows to zero, or a quotient beyond size_t (a
    // tiny or subnormal p), means the next fault is out of reach; the
    // range checks keep that out of the division and the integer cast.
    if (!(rate > 0.0))
        return kNever;
    const double gap = std::floor(-std::log(1.0 - rng.uniformReal()) / rate);
    if (!(gap < static_cast<double>(kNever)))
        return kNever;
    return static_cast<size_t>(gap);
}

/** The 1q fault letter of a uniformInt(3) draw. */
inline PauliOp
singleQubitFault(uint64_t k)
{
    switch (k) {
      case 0: return PauliOp::X;
      case 1: return PauliOp::Y;
      default: return PauliOp::Z;
    }
}

/** The 2q fault pair of a uniformInt(15) draw: index 1 + k in the
 *  {I, X, Y, Z} letter order of twoQubitChannel(). */
inline std::pair<PauliOp, PauliOp>
twoQubitFault(uint64_t k)
{
    static constexpr PauliOp kLetter[4] = { PauliOp::I, PauliOp::X,
                                            PauliOp::Y, PauliOp::Z };
    ++k;
    return { kLetter[k & 3], kLetter[k >> 2] };
}

} // namespace

double
NoiseModel::estimatedSuccessProbability(const QuantumCircuit &qc) const
{
    return std::exp(-logInfidelity(qc));
}

double
NoiseModel::logInfidelity(const QuantumCircuit &qc) const
{
    const double one_q = -std::log1p(-singleQubitError);
    const double two_q = -std::log1p(-twoQubitError);
    return static_cast<double>(qc.singleQubitCount()) * one_q +
           static_cast<double>(qc.twoQubitCount(true)) * two_q;
}

std::array<double, 4>
NoiseModel::singleQubitChannel() const
{
    const double p = singleQubitError;
    return { 1.0 - p, p / 3.0, p / 3.0, p / 3.0 };
}

std::array<double, 16>
NoiseModel::twoQubitChannel() const
{
    const double p = twoQubitError;
    std::array<double, 16> channel;
    channel[0] = 1.0 - p;
    for (size_t k = 1; k < channel.size(); ++k)
        channel[k] = p / 15.0;
    return channel;
}

PauliOp
NoiseModel::sampleSingleQubitError(Rng &rng) const
{
    if (!rng.bernoulli(singleQubitError))
        return PauliOp::I;
    return singleQubitFault(rng.uniformInt(3));
}

std::pair<PauliOp, PauliOp>
NoiseModel::sampleTwoQubitError(Rng &rng) const
{
    if (!rng.bernoulli(twoQubitError))
        return { PauliOp::I, PauliOp::I };
    // Uniform over the 15 non-identity two-qubit Paulis.
    return twoQubitFault(rng.uniformInt(15));
}

size_t
NoiseModel::sampleFaultGap(Rng &rng, double p)
{
    return faultGap(rng, p, -std::log1p(-p));
}

uint64_t
NoiseModel::shotSeed(uint64_t seed, uint64_t shot)
{
    // SplitMix64 finalizer over a golden-ratio counter stride: the
    // same seeding recipe Rng's constructor expands states with, so
    // per-shot streams are decorrelated even for adjacent shots.
    uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (shot + 1);
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ULL;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return z;
}

NoiseModel::NoisySimResult
NoiseModel::noisyStabilizerExpectation(const QuantumCircuit &qc,
                                       const PauliString &observable,
                                       size_t shots, Rng &rng) const
{
    SamplerOptions options;
    options.seed = rng();
    return noisyStabilizerExpectation(qc, observable, shots, options);
}

NoiseModel::NoisySimResult
NoiseModel::noisyStabilizerExpectation(const QuantumCircuit &qc,
                                       const PauliString &observable,
                                       size_t shots,
                                       const SamplerOptions &options) const
{
    assert(qc.isClifford() &&
           "noisy stabilizer simulation needs a Clifford circuit");
    assert(observable.numQubits() == qc.numQubits());
    assert((observable.phase() & 1) == 0 &&
           "noisy expectation needs a Hermitian observable");
    NoisySimResult result;
    result.faultSites = shots * qc.gates().size();
    if (shots == 0)
        return result;

    // Heisenberg fault pull-back: conjugate the observable backwards
    // through the circuit once, recording its letters at every fault
    // site (= after every gate). A sampled fault F at site j commutes
    // or anticommutes with the pulled-back observable O_j, so the
    // trajectory's expectation is the ideal value times (-1)^k with k
    // the number of anticommuting faults — no per-shot simulation.
    const auto &gates = qc.gates();
    std::vector<SiteLetters> sites(gates.size());
    PauliString pulled = observable;
    for (size_t j = gates.size(); j-- > 0;) {
        const Gate &g = gates[j];
        SiteLetters &site = sites[j];
        site.twoQubit = isTwoQubit(g.type) ? 1 : 0;
        site.l0 = static_cast<uint8_t>(
            static_cast<uint8_t>(pulled.xBit(g.q0)) |
            (static_cast<uint8_t>(pulled.zBit(g.q0)) << 1));
        site.l1 = site.twoQubit
                      ? static_cast<uint8_t>(
                            static_cast<uint8_t>(pulled.xBit(g.q1)) |
                            (static_cast<uint8_t>(pulled.zBit(g.q1)) << 1))
                      : 0;
        applyGateToPauli(pulled, inverseGate(g));
    }

    // Ideal expectation = <0...0| U~ O U |0...0>: zero if the fully
    // pulled-back observable has any X/Y, else its (real) sign.
    int ideal = 0;
    uint64_t any_x = 0;
    for (const uint64_t w : pulled.xWords())
        any_x |= w;
    if (any_x == 0) {
        assert(pulled.phase() == 0 || pulled.phase() == 2);
        ideal = pulled.phase() == 0 ? 1 : -1;
    }

    // Split the sites into the two rate classes (gate order kept).
    // Within a class every site has the same rate, so a shot walks the
    // geometric gaps between its faulty sites instead of drawing once
    // per site: O(faults) per shot, not O(sites).
    std::vector<uint8_t> one_q;
    std::vector<SiteLetters> two_q;
    for (const SiteLetters &site : sites) {
        if (site.twoQubit)
            two_q.push_back(site);
        else
            one_q.push_back(site.l0);
    }
    const double p1 = singleQubitError;
    const double p2 = twoQubitError;
    const double rate1 = -std::log1p(-p1);
    const double rate2 = -std::log1p(-p2);

    const size_t block = options.shotBlock > 0 ? options.shotBlock : 1;
    const size_t num_blocks = (shots + block - 1) / block;
    std::vector<int64_t> block_sum(num_blocks, 0);
    std::vector<size_t> block_events(num_blocks, 0);

    const auto run_blocks = [&](size_t begin, size_t end) {
        for (size_t b = begin; b < end; ++b) {
            const size_t first = b * block;
            const size_t last = std::min(shots, first + block);
            int64_t sum = 0;
            size_t events = 0;
            for (size_t shot = first; shot < last; ++shot) {
                Rng rng(shotSeed(options.seed, shot));
                unsigned flips = 0;
                // RNG contract (see shotSeed): one-qubit class first.
                for (size_t i = 0; i < one_q.size(); ++i) {
                    const size_t gap = faultGap(rng, p1, rate1);
                    if (gap >= one_q.size() - i)
                        break;
                    i += gap;
                    ++events;
                    flips ^= flipsSign(singleQubitFault(rng.uniformInt(3)),
                                       one_q[i]);
                }
                for (size_t i = 0; i < two_q.size(); ++i) {
                    const size_t gap = faultGap(rng, p2, rate2);
                    if (gap >= two_q.size() - i)
                        break;
                    i += gap;
                    ++events;
                    const auto [f0, f1] = twoQubitFault(rng.uniformInt(15));
                    flips ^= flipsSign(f0, two_q[i].l0) ^
                             flipsSign(f1, two_q[i].l1);
                }
                sum += flips ? -1 : 1;
            }
            block_sum[b] = sum;
            block_events[b] = events;
        }
    };

    if (options.threads != 1) {
        WorkerPool pool(options.threads);
        pool.parallelFor(num_blocks, run_blocks);
    } else {
        run_blocks(0, num_blocks);
    }

    // Exact integer combine in block order: bit-identical for every
    // threads / shotBlock split of the same shot set.
    int64_t signed_total = 0;
    for (size_t b = 0; b < num_blocks; ++b) {
        signed_total += block_sum[b];
        result.errorEvents += block_events[b];
    }
    result.expectation =
        ideal == 0 ? 0.0
                   : static_cast<double>(ideal) *
                         (static_cast<double>(signed_total) /
                          static_cast<double>(shots));
    return result;
}

} // namespace quclear
