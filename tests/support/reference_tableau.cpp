#include "support/reference_tableau.hpp"

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace quclear {

ReferenceTableau::ReferenceTableau(uint32_t num_qubits)
    : numQubits_(num_qubits)
{
    rowX_.reserve(num_qubits);
    rowZ_.reserve(num_qubits);
    for (uint32_t q = 0; q < num_qubits; ++q) {
        PauliString x(num_qubits);
        x.setOp(q, PauliOp::X);
        rowX_.push_back(std::move(x));
        PauliString z(num_qubits);
        z.setOp(q, PauliOp::Z);
        rowZ_.push_back(std::move(z));
    }
}

ReferenceTableau
ReferenceTableau::fromCircuit(const QuantumCircuit &qc)
{
    ReferenceTableau t(qc.numQubits());
    t.appendCircuit(qc);
    return t;
}

void
ReferenceTableau::appendH(uint32_t q)
{
    for (uint32_t i = 0; i < numQubits_; ++i) {
        rowX_[i].applyH(q);
        rowZ_[i].applyH(q);
    }
}

void
ReferenceTableau::appendS(uint32_t q)
{
    for (uint32_t i = 0; i < numQubits_; ++i) {
        rowX_[i].applyS(q);
        rowZ_[i].applyS(q);
    }
}

void
ReferenceTableau::appendSdg(uint32_t q)
{
    for (uint32_t i = 0; i < numQubits_; ++i) {
        rowX_[i].applySdg(q);
        rowZ_[i].applySdg(q);
    }
}

void
ReferenceTableau::appendX(uint32_t q)
{
    for (uint32_t i = 0; i < numQubits_; ++i) {
        rowX_[i].applyX(q);
        rowZ_[i].applyX(q);
    }
}

void
ReferenceTableau::appendY(uint32_t q)
{
    for (uint32_t i = 0; i < numQubits_; ++i) {
        rowX_[i].applyY(q);
        rowZ_[i].applyY(q);
    }
}

void
ReferenceTableau::appendZ(uint32_t q)
{
    for (uint32_t i = 0; i < numQubits_; ++i) {
        rowX_[i].applyZ(q);
        rowZ_[i].applyZ(q);
    }
}

void
ReferenceTableau::appendSqrtX(uint32_t q)
{
    for (uint32_t i = 0; i < numQubits_; ++i) {
        rowX_[i].applySqrtX(q);
        rowZ_[i].applySqrtX(q);
    }
}

void
ReferenceTableau::appendSqrtXdg(uint32_t q)
{
    for (uint32_t i = 0; i < numQubits_; ++i) {
        rowX_[i].applySqrtXdg(q);
        rowZ_[i].applySqrtXdg(q);
    }
}

void
ReferenceTableau::appendCX(uint32_t control, uint32_t target)
{
    for (uint32_t i = 0; i < numQubits_; ++i) {
        rowX_[i].applyCX(control, target);
        rowZ_[i].applyCX(control, target);
    }
}

void
ReferenceTableau::appendCZ(uint32_t a, uint32_t b)
{
    for (uint32_t i = 0; i < numQubits_; ++i) {
        rowX_[i].applyCZ(a, b);
        rowZ_[i].applyCZ(a, b);
    }
}

void
ReferenceTableau::appendSwap(uint32_t a, uint32_t b)
{
    for (uint32_t i = 0; i < numQubits_; ++i) {
        rowX_[i].applySwap(a, b);
        rowZ_[i].applySwap(a, b);
    }
}

void
ReferenceTableau::appendGate(const Gate &g)
{
    switch (g.type) {
      case GateType::H:    appendH(g.q0); break;
      case GateType::S:    appendS(g.q0); break;
      case GateType::Sdg:  appendSdg(g.q0); break;
      case GateType::X:    appendX(g.q0); break;
      case GateType::Y:    appendY(g.q0); break;
      case GateType::Z:    appendZ(g.q0); break;
      case GateType::SX:   appendSqrtX(g.q0); break;
      case GateType::SXdg: appendSqrtXdg(g.q0); break;
      case GateType::CX:   appendCX(g.q0, g.q1); break;
      case GateType::CZ:   appendCZ(g.q0, g.q1); break;
      case GateType::Swap: appendSwap(g.q0, g.q1); break;
      default:
        assert(false && "non-Clifford gate appended to tableau");
    }
}

void
ReferenceTableau::appendCircuit(const QuantumCircuit &qc)
{
    assert(qc.numQubits() == numQubits_);
    for (const Gate &g : qc.gates())
        appendGate(g);
}

void
ReferenceTableau::prependGate(const Gate &g)
{
    // T'(P) = T(g P g~): only generators touching g's qubits change.
    // Compute the small conjugated Pauli for each affected generator and
    // rebuild its image as a product of the *old* images.
    std::vector<uint32_t> qubits{ g.q0 };
    if (isTwoQubit(g.type))
        qubits.push_back(g.q1);

    std::vector<std::pair<uint32_t, bool>> affected; // (qubit, isZ)
    std::vector<PauliString> new_rows;
    for (uint32_t q : qubits) {
        for (bool is_z : { false, true }) {
            PauliString generator(numQubits_);
            generator.setOp(q, is_z ? PauliOp::Z : PauliOp::X);
            // g P g~ via the single-gate conjugation rules.
            QuantumCircuit one(numQubits_);
            one.append(g);
            one.conjugatePauli(generator);
            // Evaluate T on the conjugated generator using current rows.
            new_rows.push_back(conjugate(generator));
            affected.push_back({ q, is_z });
        }
    }
    for (size_t i = 0; i < affected.size(); ++i) {
        auto [q, is_z] = affected[i];
        (is_z ? rowZ_[q] : rowX_[q]) = std::move(new_rows[i]);
    }
}

PauliString
ReferenceTableau::conjugate(const PauliString &p) const
{
    assert(p.numQubits() == numQubits_);
    // Decompose P = i^k prod_q X_q^{x} Z_q^{z}, with Y_q = i X_q Z_q, and
    // substitute the images. Multiplication handles all cross phases.
    PauliString result(numQubits_);
    uint32_t phase_acc = p.phase();
    for (uint32_t q = 0; q < numQubits_; ++q) {
        const bool x = p.xBit(q);
        const bool z = p.zBit(q);
        if (x)
            result.mulRight(rowX_[q]);
        if (z)
            result.mulRight(rowZ_[q]);
        if (x && z)
            phase_acc += 1; // Y = i X Z: one extra factor of i per Y
    }
    result.setPhase(static_cast<uint8_t>((result.phase() + phase_acc) & 3));
    return result;
}

void
ReferenceTableau::composeWith(const ReferenceTableau &other)
{
    assert(other.numQubits_ == numQubits_);
    // (other . U) P (other . U)~ = other(U(P)): push every image row
    // through the other map.
    for (uint32_t q = 0; q < numQubits_; ++q) {
        rowX_[q] = other.conjugate(rowX_[q]);
        rowZ_[q] = other.conjugate(rowZ_[q]);
    }
}

ReferenceTableau
ReferenceTableau::inverse() const
{
    return fromCircuit(toCircuit().inverse());
}

bool
ReferenceTableau::isIdentity() const
{
    ReferenceTableau id(numQubits_);
    return *this == id;
}

bool
ReferenceTableau::operator==(const ReferenceTableau &other) const
{
    return numQubits_ == other.numQubits_ && rowX_ == other.rowX_ &&
           rowZ_ == other.rowZ_;
}

QuantumCircuit
ReferenceTableau::toCircuit() const
{
    // Reduce a working copy to the identity tableau while recording the
    // appended gates; the circuit is then the reversed, inverted record.
    ReferenceTableau work = *this;
    std::vector<Gate> record;

    auto emit = [&](const Gate &g) {
        work.appendGate(g);
        record.push_back(g);
    };

    const uint32_t n = numQubits_;
    for (uint32_t q = 0; q < n; ++q) {
        // --- Step A: reduce imageX(q) to +-X_q. ---
        {
            // Find a pivot with an x bit; fall back to a z bit + H.
            uint32_t pivot = n;
            for (uint32_t j = q; j < n; ++j) {
                if (work.rowX_[q].xBit(j)) {
                    pivot = j;
                    break;
                }
            }
            if (pivot == n) {
                for (uint32_t j = q; j < n; ++j) {
                    if (work.rowX_[q].zBit(j)) {
                        emit({ GateType::H, j });
                        pivot = j;
                        break;
                    }
                }
            }
            assert(pivot < n && "tableau is not invertible");
            if (pivot != q)
                emit({ GateType::Swap, q, pivot });
            if (work.rowX_[q].op(q) == PauliOp::Y)
                emit({ GateType::S, q });
            // Clear remaining support.
            for (uint32_t j = 0; j < n; ++j) {
                if (j == q)
                    continue;
                PauliOp op = work.rowX_[q].op(j);
                if (op == PauliOp::I)
                    continue;
                if (op == PauliOp::Z) {
                    emit({ GateType::H, j });
                } else if (op == PauliOp::Y) {
                    emit({ GateType::S, j });
                }
                emit({ GateType::CX, q, j });
            }
        }

        // --- Step B: reduce imageZ(q) to +-Z_q, preserving X_q. ---
        {
            // Position q anticommutes with X_q, so it is Z or Y there.
            if (work.rowZ_[q].op(q) == PauliOp::Y) {
                // sqrt(X) maps Y -> Z while fixing X.
                emit({ GateType::SX, q });
            }
            for (uint32_t j = 0; j < n; ++j) {
                if (j == q)
                    continue;
                PauliOp op = work.rowZ_[q].op(j);
                if (op == PauliOp::I)
                    continue;
                if (op == PauliOp::X) {
                    emit({ GateType::H, j });
                } else if (op == PauliOp::Y) {
                    emit({ GateType::S, j }); // Y -> -X
                    emit({ GateType::H, j }); // X -> Z
                }
                emit({ GateType::CX, j, q });
            }
        }

        assert(work.rowX_[q].equalsUpToPhase([&] {
            PauliString e(n);
            e.setOp(q, PauliOp::X);
            return e;
        }()));
    }

    // --- Fix signs with a final Pauli layer. ---
    for (uint32_t q = 0; q < n; ++q) {
        if (work.rowX_[q].sign() < 0)
            emit({ GateType::Z, q });
        if (work.rowZ_[q].sign() < 0)
            emit({ GateType::X, q });
    }
    assert(work.isIdentity());

    // work = g_k ... g_1 . U = I, so U = g_1~ ... g_k~; in circuit time
    // order that is g_k~ first.
    QuantumCircuit qc(n);
    for (size_t i = record.size(); i-- > 0;) {
        Gate g = record[i];
        g.type = inverseType(g.type);
        qc.append(g);
    }
    return qc;
}

} // namespace quclear
