#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "core/circuit_to_paulis.hpp"
#include "tableau/clifford_tableau.hpp"

namespace perfbench {

using namespace quclear;

namespace {

Gate
inverseOf(Gate g)
{
    switch (g.type) {
      case GateType::S: g.type = GateType::Sdg; break;
      case GateType::Sdg: g.type = GateType::S; break;
      case GateType::SX: g.type = GateType::SXdg; break;
      case GateType::SXdg: g.type = GateType::SX; break;
      default: break;
    }
    return g;
}

PauliString
single(uint32_t n, uint32_t q, PauliOp op)
{
    PauliString p(n);
    p.setOp(q, op);
    return p;
}

std::string
at(const char *what, size_t i)
{
    return std::string(what) + " #" + std::to_string(i);
}

/** Sign-normalised rotation angles keyed by Pauli label, summed. */
using AngleMap = std::map<std::string, double>;

bool
addRotation(AngleMap &m, PauliString p, double angle)
{
    if (p.isIdentity())
        return true;
    if (p.phase() & 1)
        return false;
    if (p.phase() == 2)
        angle = -angle;
    p.setPhase(0);
    m[p.toLabel()] += angle;
    return true;
}

/** Distance of an angle from 0 mod 2 pi. */
double
angleOffset(double a)
{
    return std::fabs(std::remainder(a, 2.0 * std::numbers::pi));
}

uint64_t
mix(uint64_t h, const void *data, size_t len)
{
    const auto *b = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

template <class T>
uint64_t
mixValue(uint64_t h, T v)
{
    return mix(h, &v, sizeof v);
}

uint64_t
mixPauli(uint64_t h, const PauliString &p)
{
    h = mixValue(h, p.numQubits());
    h = mixValue(h, p.phase());
    for (const uint64_t w : p.xWords())
        h = mixValue(h, w);
    for (const uint64_t w : p.zWords())
        h = mixValue(h, w);
    return h;
}

uint64_t
mixCircuit(uint64_t h, const QuantumCircuit &c)
{
    h = mixValue(h, c.numQubits());
    h = mixValue(h, c.size());
    for (const Gate &g : c.gates()) {
        uint64_t angle_bits = 0;
        std::memcpy(&angle_bits, &g.angle, sizeof angle_bits);
        h = mixValue(h, static_cast<uint8_t>(g.type));
        h = mixValue(h, g.q0);
        h = mixValue(h, g.q1);
        h = mixValue(h, angle_bits);
    }
    return h;
}

/** True iff @p a is a multiple of pi/4 (a Clifford rotation angle). */
bool
isCliffordAngle(double a)
{
    constexpr double kTol = 1e-8;
    return std::fabs(std::remainder(a, std::numbers::pi / 4)) < kTol;
}

} // namespace

QuantumCircuit
splitFoldedPhases(const std::vector<PauliTerm> &input,
                  const QuantumCircuit &circuit, std::string &why)
{
    const uint32_t n = circuit.numQubits();
    // Input angles by sign-normalised Pauli, not yet matched.
    std::map<std::string, std::vector<double>> pending;
    for (const PauliTerm &t : input) {
        if (t.pauli.isIdentity() || t.pauli.numQubits() != n)
            continue;
        PauliString p = t.pauli;
        const double angle = p.phase() == 2 ? -t.angle : t.angle;
        p.setPhase(0);
        pending[p.toLabel()].push_back(angle);
    }

    // inv tracks C~ P C for the Clifford prefix C emitted so far, as in
    // circuitToPauliProgram.
    CliffordTableau inv(n);
    QuantumCircuit out(n);
    const auto clifford = [&](const Gate &g) {
        out.append(g);
        inv.prependGate(inverseOf(g));
    };
    for (const Gate &g : circuit.gates()) {
        if (isClifford(g.type)) {
            clifford(g);
            continue;
        }
        if (g.type != GateType::Rz) {
            out.append(g);
            continue;
        }
        // Rz(theta) is the rotation e^{i P t'} with P = C~ Z_q C and
        // t' = -theta/2 * sign(P). Match t' to an input angle t (or the
        // sum of all input angles on P, for merged rotations) up to a
        // multiple of pi/4, and emit Rz(theta_base) . S^m instead.
        PauliString p = inv.conjugate(single(n, g.q0, PauliOp::Z));
        const int sign = p.sign();
        p.setPhase(0);
        const std::string label = p.toLabel();
        const double t_out = -0.5 * g.angle * sign;
        auto &cands = pending[label];
        double t = 0.0;
        auto hit = std::find_if(cands.begin(), cands.end(), [&](double c) {
            return isCliffordAngle(t_out - c);
        });
        double sum = 0.0;
        for (const double c : cands)
            sum += c;
        if (hit != cands.end()) {
            t = *hit;
            cands.erase(hit);
        } else if (!cands.empty() && isCliffordAngle(t_out - sum)) {
            t = sum;
            cands.clear();
        } else {
            why = "a compiled rotation on " + label + " matches no input angle";
            return out;
        }
        const double base = -2.0 * sign * t;
        out.append(Gate(GateType::Rz, g.q0, base));
        const long m = std::lround((g.angle - base) / (std::numbers::pi / 2));
        static constexpr GateType kPhase[4] = { GateType::Z, GateType::S,
                                                GateType::Z, GateType::Sdg };
        if (m % 4 != 0)
            clifford(Gate(kPhase[((m % 4) + 4) % 4], g.q0));
    }
    return out;
}

void
conjugateByGate(PauliString &p, const Gate &g)
{
    switch (g.type) {
      case GateType::H: p.applyH(g.q0); break;
      case GateType::S: p.applyS(g.q0); break;
      case GateType::Sdg: p.applySdg(g.q0); break;
      case GateType::X: p.applyX(g.q0); break;
      case GateType::Y: p.applyY(g.q0); break;
      case GateType::Z: p.applyZ(g.q0); break;
      case GateType::SX: p.applySqrtX(g.q0); break;
      case GateType::SXdg: p.applySqrtXdg(g.q0); break;
      case GateType::CX: p.applyCX(g.q0, g.q1); break;
      case GateType::CZ: p.applyCZ(g.q0, g.q1); break;
      case GateType::Swap: p.applySwap(g.q0, g.q1); break;
      default:
        throw std::invalid_argument("non-Clifford gate in a Clifford walk");
    }
}

PauliString
conjugateThrough(const QuantumCircuit &c, PauliString p)
{
    for (const Gate &g : c.gates())
        conjugateByGate(p, g);
    return p;
}

PauliString
pullBackThrough(const QuantumCircuit &c, PauliString p)
{
    const auto &gates = c.gates();
    for (size_t j = gates.size(); j-- > 0;)
        conjugateByGate(p, inverseOf(gates[j]));
    return p;
}

PauliString
randomPauli(uint32_t n, Rng &rng)
{
    static constexpr PauliOp kOps[4] = { PauliOp::I, PauliOp::X, PauliOp::Y,
                                         PauliOp::Z };
    PauliString p(n);
    while (p.isIdentity())
        for (uint32_t q = 0; q < n; ++q)
            p.setOp(q, kOps[rng.uniformInt(4)]);
    return p;
}

std::string
checkCompile(const std::vector<PauliTerm> &input,
             const ExtractionResult &result, uint64_t probe_seed)
{
    const uint32_t n = result.optimized.numQubits();
    const QuantumCircuit &tail = result.extractedClifford;
    if (tail.numQubits() != n || result.conjugator.numQubits() != n)
        return "qubit counts of U', tail and conjugator differ";
    if (!tail.isClifford())
        return "tail is not Clifford";

    // U = U_CL . U' as a Pauli program: identity Clifford + the input's
    // rotations, once the Clifford phases that local optimization folded
    // into Rz angles are split back out.
    QuantumCircuit whole = result.optimized;
    whole.appendCircuit(tail);
    std::string why;
    const PauliProgram program =
        circuitToPauliProgram(splitFoldedPhases(input, whole, why));
    if (!why.empty())
        return why;
    for (uint32_t q = 0; q < n; ++q) {
        for (const PauliOp op : { PauliOp::X, PauliOp::Z }) {
            const PauliString gen = single(n, q, op);
            if (conjugateThrough(program.clifford, gen) != gen)
                return "U' . U_CL leaves a non-identity Clifford (qubit " +
                       std::to_string(q) + ")";
        }
    }
    AngleMap want;
    AngleMap got;
    for (size_t i = 0; i < input.size(); ++i)
        if (input[i].pauli.numQubits() != n ||
            !addRotation(want, input[i].pauli, input[i].angle))
            return at("input term is not a Hermitian Pauli on n qubits", i);
    for (size_t i = 0; i < program.terms.size(); ++i)
        if (!addRotation(got, program.terms[i].pauli, program.terms[i].angle))
            return at("compiled rotation is not Hermitian", i);
    constexpr double kTol = 1e-8;
    for (const auto &[label, angle] : want) {
        const auto it = got.find(label);
        const double other = it == got.end() ? 0.0 : it->second;
        if (angleOffset(angle - other) > kTol)
            return "rotation angle differs on " + label;
    }
    for (const auto &[label, angle] : got)
        if (!want.contains(label) && angleOffset(angle) > kTol)
            return "rotation not in the input: " + label;

    // The conjugator inverts the tail: E (U_CL P U_CL~) E~ = P.
    constexpr size_t kProbes = 16;
    Rng rng(probe_seed);
    for (size_t k = 0; k < kProbes; ++k) {
        PauliString p = randomPauli(n, rng);
        p.setPhase(static_cast<uint8_t>(2 * rng.uniformInt(2)));
        if (result.conjugator.conjugate(conjugateThrough(tail, p)) != p)
            return at("conjugator does not invert the tail on probe", k);
    }
    return {};
}

std::string
checkObservables(const ExtractionResult &result,
                 const std::vector<PauliString> &observables,
                 const std::vector<AbsorbedObservable> &absorbed)
{
    if (absorbed.size() != observables.size())
        return "absorbed observable count differs from the input";
    const uint32_t n = result.optimized.numQubits();
    for (size_t i = 0; i < absorbed.size(); ++i) {
        const AbsorbedObservable &a = absorbed[i];
        if (a.original != observables[i])
            return at("original observable altered", i);
        const PauliString want =
            pullBackThrough(result.extractedClifford, observables[i]);
        if (a.transformed != want)
            return at("O' is not the tail pull-back of O", i);
        if (a.sign != (want.phase() == 0 ? 1 : -1))
            return at("absorbed sign is wrong", i);
        PauliString bare = want;
        bare.setPhase(0);
        PauliString zs(n);
        std::vector<uint32_t> support;
        for (uint32_t q = 0; q < n; ++q) {
            if (bare.op(q) != PauliOp::I) {
                zs.setOp(q, PauliOp::Z);
                support.push_back(q);
            }
        }
        if (a.measuredQubits != support)
            return at("measured qubits are not the support of O'", i);
        if (conjugateThrough(a.basisChange, bare) != zs)
            return at("basis change does not map O' to +Z on its support", i);
    }
    return {};
}

std::string
checkProbabilities(const ExtractionResult &result,
                   const ProbabilityAbsorption &pa, const Counts &counts,
                   const Counts &remapped)
{
    const ReducedClifford &red = pa.reduction;
    const uint32_t n = result.optimized.numQubits();
    if (!red.valid)
        return "tail has no H + CNOT-network reduction";
    if (n > 64 || red.hLayer.size() != n)
        return "reduction has the wrong width";

    // C = (X corrections) . (network) . (H layer) must pull every Z_q
    // back to what the tail pulls it back to: the measured distribution
    // of U_CL U' equals that of C U'.
    QuantumCircuit c(n);
    for (uint32_t q = 0; q < n; ++q)
        if (red.hLayer[q])
            c.h(q);
    for (const Gate &g : red.networkCircuit.gates()) {
        if (g.type != GateType::CX)
            return "network circuit holds a non-CX gate";
        c.append(g);
    }
    for (uint32_t q = 0; q < n; ++q)
        if ((red.xMask >> q) & 1)
            c.x(q);
    for (uint32_t q = 0; q < n; ++q) {
        const PauliString z = single(n, q, PauliOp::Z);
        if (pullBackThrough(result.extractedClifford, z) !=
            pullBackThrough(c, z))
            return "H layer + network + corrections differ from the tail "
                   "on Z_" + std::to_string(q);
    }

    QuantumCircuit device = result.optimized;
    for (uint32_t q = 0; q < n; ++q)
        if (red.hLayer[q])
            device.h(q);
    if (pa.deviceCircuit.gates() != device.gates())
        return "device circuit is not U' plus the H layer";

    Counts want;
    for (const auto &[bits, count] : counts) {
        uint64_t b = bits;
        for (const Gate &g : red.networkCircuit.gates())
            b ^= ((b >> g.q0) & 1) << g.q1;
        want[b ^ red.xMask] += count;
    }
    if (want != remapped)
        return "remapped counts differ from a bit-level network replay";
    return {};
}

ExactNoise
exactNoise(const QuantumCircuit &circuit, const PauliString &observable,
           const NoiseModel &model, size_t shots)
{
    // A depolarizing fault flips the sign iff it anticommutes with the
    // pulled-back observable at its site: 2 of the 3 one-qubit faults
    // and 8 of the 15 two-qubit faults do, when the letters there are
    // not all identity.
    const double q1 = 2.0 / 3.0 * model.singleQubitError;
    const double q2 = 8.0 / 15.0 * model.twoQubitError;
    double product = 1.0;
    PauliString p = observable;
    const auto &gates = circuit.gates();
    for (size_t j = gates.size(); j-- > 0;) {
        const Gate &g = gates[j];
        if (isTwoQubit(g.type)) {
            if (p.op(g.q0) != PauliOp::I || p.op(g.q1) != PauliOp::I)
                product *= 1.0 - 2.0 * q2;
        } else if (p.op(g.q0) != PauliOp::I) {
            product *= 1.0 - 2.0 * q1;
        }
        conjugateByGate(p, inverseOf(g));
    }
    ExactNoise e;
    bool any_x = false;
    for (const uint64_t w : p.xWords())
        any_x = any_x || w != 0;
    if (!any_x)
        e.ideal = p.phase() == 0 ? 1 : -1;
    e.expectation = e.ideal * product;
    const double var = std::max(1.0 - e.expectation * e.expectation, 1e-12);
    e.sigma = std::sqrt(var / static_cast<double>(shots));
    return e;
}

std::string
checkNoise(double estimate, const ExactNoise &exact)
{
    if (!std::isfinite(estimate) ||
        std::fabs(estimate - exact.expectation) > kNoiseSigmas * exact.sigma)
        return "noise estimate " + std::to_string(estimate) +
               " is further than " + std::to_string(kNoiseSigmas) +
               " sigma from the exact " + std::to_string(exact.expectation);
    return {};
}

std::string
diffExtraction(const ExtractionResult &a, const ExtractionResult &b)
{
    if (a.optimized.numQubits() != b.optimized.numQubits() ||
        a.optimized.gates() != b.optimized.gates())
        return "U' gate lists differ";
    if (a.extractedClifford.numQubits() != b.extractedClifford.numQubits() ||
        a.extractedClifford.gates() != b.extractedClifford.gates())
        return "tails differ";
    if (a.conjugator != b.conjugator)
        return "conjugators differ";
    if (a.rotationTerms != b.rotationTerms)
        return "rotationTerms differ";
    return {};
}

uint64_t
hashExtraction(const ExtractionResult &r, uint64_t h)
{
    h = mixCircuit(h, r.optimized);
    h = mixCircuit(h, r.extractedClifford);
    const uint32_t n = r.conjugator.numQubits();
    for (uint32_t q = 0; q < n; ++q) {
        h = mixPauli(h, r.conjugator.imageX(q));
        h = mixPauli(h, r.conjugator.imageZ(q));
    }
    for (const size_t t : r.rotationTerms)
        h = mixValue(h, t);
    return h;
}

uint64_t
hashAbsorbed(const std::vector<AbsorbedObservable> &a, uint64_t h)
{
    for (const AbsorbedObservable &o : a) {
        h = mixPauli(h, o.original);
        h = mixPauli(h, o.transformed);
        h = mixValue(h, o.sign);
        h = mixCircuit(h, o.basisChange);
        for (const uint32_t q : o.measuredQubits)
            h = mixValue(h, q);
    }
    return h;
}

uint64_t
hashProbability(const ProbabilityAbsorption &pa, const Counts &remapped,
                uint64_t h)
{
    h = mixCircuit(h, pa.deviceCircuit);
    h = mixCircuit(h, pa.reduction.networkCircuit);
    h = mixValue(h, pa.reduction.valid);
    h = mixValue(h, pa.reduction.xMask);
    for (const bool b : pa.reduction.hLayer)
        h = mixValue(h, b);
    for (const auto &[bits, count] : remapped) {
        h = mixValue(h, bits);
        h = mixValue(h, count);
    }
    return h;
}

} // namespace perfbench
