#include "support/reference_stabilizer_simulator.hpp"

#include <cassert>
#include <cstdint>
#include <map>
#include <utility>

namespace quclear {

ReferenceStabilizerSimulator::ReferenceStabilizerSimulator(
    uint32_t num_qubits)
    : numQubits_(num_qubits)
{
    destab_.reserve(num_qubits);
    stab_.reserve(num_qubits);
    for (uint32_t q = 0; q < num_qubits; ++q) {
        PauliString x(num_qubits);
        x.setOp(q, PauliOp::X);
        destab_.push_back(std::move(x));
        PauliString z(num_qubits);
        z.setOp(q, PauliOp::Z);
        stab_.push_back(std::move(z));
    }
}

void
ReferenceStabilizerSimulator::applyGate(const Gate &g)
{
    assert(isClifford(g.type) &&
           "stabilizer simulator requires Clifford gates");
    for (uint32_t i = 0; i < numQubits_; ++i) {
        applyGateToPauli(destab_[i], g);
        applyGateToPauli(stab_[i], g);
    }
}

void
ReferenceStabilizerSimulator::applyCircuit(const QuantumCircuit &qc)
{
    assert(qc.numQubits() == numQubits_);
    for (const Gate &g : qc.gates())
        applyGate(g);
}

bool
ReferenceStabilizerSimulator::measure(uint32_t q, Rng &rng)
{
    // A stabilizer with an X or Y at q anticommutes with Z_q: the outcome
    // is random. Otherwise the outcome is determined by the stabilizers.
    uint32_t p = numQubits_;
    for (uint32_t i = 0; i < numQubits_; ++i) {
        if (stab_[i].xBit(q)) {
            p = i;
            break;
        }
    }

    if (p < numQubits_) {
        // Random outcome. All other rows anticommuting with Z_q get
        // multiplied by stab_[p] to restore commutation.
        for (uint32_t i = 0; i < numQubits_; ++i) {
            if (i != p && destab_[i].xBit(q))
                destab_[i].mulRight(stab_[p]);
            if (i != p && stab_[i].xBit(q))
                stab_[i].mulRight(stab_[p]);
        }
        destab_[p] = stab_[p];
        const bool outcome = rng() & 1;
        PauliString zq(numQubits_);
        zq.setOp(q, PauliOp::Z);
        zq.setPhase(outcome ? 2 : 0);
        stab_[p] = zq;
        return outcome;
    }

    // Deterministic outcome: Z_q is a product of stabilizers. Accumulate
    // the product of stab_[i] over the destabilizers that anticommute
    // with Z_q; its phase gives the outcome.
    PauliString acc(numQubits_);
    for (uint32_t i = 0; i < numQubits_; ++i) {
        if (destab_[i].xBit(q))
            acc.mulRight(stab_[i]);
    }
    assert(acc.phase() == 0 || acc.phase() == 2);
    return acc.phase() == 2;
}

uint64_t
ReferenceStabilizerSimulator::measureAll(Rng &rng)
{
    assert(numQubits_ <= 64);
    uint64_t bits = 0;
    for (uint32_t q = 0; q < numQubits_; ++q)
        if (measure(q, rng))
            bits |= 1ULL << q;
    return bits;
}

std::map<uint64_t, uint64_t>
ReferenceStabilizerSimulator::sample(const QuantumCircuit &qc, size_t shots,
                                     Rng &rng)
{
    std::map<uint64_t, uint64_t> counts;
    for (size_t s = 0; s < shots; ++s) {
        ReferenceStabilizerSimulator sim(qc.numQubits());
        sim.applyCircuit(qc);
        ++counts[sim.measureAll(rng)];
    }
    return counts;
}

bool
ReferenceStabilizerSimulator::measurePauli(const PauliString &observable,
                                           Rng &rng)
{
    assert(observable.phase() == 0 || observable.phase() == 2);
    // Random outcome iff some stabilizer anticommutes with the
    // observable; the update mirrors single-qubit measurement with Z_q
    // replaced by the observable.
    uint32_t p = numQubits_;
    for (uint32_t i = 0; i < numQubits_; ++i) {
        if (!stab_[i].commutesWith(observable)) {
            p = i;
            break;
        }
    }

    if (p < numQubits_) {
        for (uint32_t i = 0; i < numQubits_; ++i) {
            if (i != p && !destab_[i].commutesWith(observable))
                destab_[i].mulRight(stab_[p]);
            if (i != p && !stab_[i].commutesWith(observable))
                stab_[i].mulRight(stab_[p]);
        }
        destab_[p] = stab_[p];
        const bool outcome = rng() & 1;
        PauliString post = observable;
        if (outcome)
            post.setPhase(static_cast<uint8_t>((post.phase() + 2) & 3));
        stab_[p] = std::move(post);
        return outcome;
    }

    // Deterministic: the observable (up to sign) is in the stabilizer
    // group; its sign is read from the generating product.
    const int value = expectation(observable);
    assert(value != 0);
    return value < 0;
}

void
ReferenceStabilizerSimulator::reset(uint32_t q, Rng &rng)
{
    if (measure(q, rng)) {
        // Flip back to |0>.
        applyGate({ GateType::X, q });
    }
}

int
ReferenceStabilizerSimulator::expectation(
    const PauliString &observable) const
{
    // <P> is +-1 iff +-P is in the stabilizer group, else 0. P is in the
    // group iff it commutes with every stabilizer; its sign then follows
    // from expressing P as the product of stabilizers selected by the
    // destabilizers it anticommutes with.
    for (uint32_t i = 0; i < numQubits_; ++i)
        if (!observable.commutesWith(stab_[i]))
            return 0;

    PauliString acc(numQubits_);
    for (uint32_t i = 0; i < numQubits_; ++i) {
        if (!observable.commutesWith(destab_[i]))
            acc.mulRight(stab_[i]);
    }
    assert(acc.equalsUpToPhase(observable));
    const uint8_t diff =
        static_cast<uint8_t>((acc.phase() - observable.phase()) & 3);
    assert(diff == 0 || diff == 2);
    return diff == 0 ? 1 : -1;
}

} // namespace quclear
