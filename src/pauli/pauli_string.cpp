#include "pauli/pauli_string.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace quclear {

PauliString::PauliString(uint32_t num_qubits)
    : numQubits_(num_qubits), phase_(0),
      x_(wordsFor(num_qubits), 0), z_(wordsFor(num_qubits), 0)
{
}

PauliString
PauliString::fromLabel(const std::string &label)
{
    size_t start = 0;
    uint8_t phase = 0;
    if (start < label.size() && (label[start] == '+' || label[start] == '-')) {
        if (label[start] == '-')
            phase = 2;
        ++start;
    }
    const size_t n = label.size() - start;
    if (n == 0)
        throw std::invalid_argument("empty Pauli label");

    PauliString p(static_cast<uint32_t>(n));
    p.phase_ = phase;
    for (size_t i = start; i < label.size(); ++i) {
        char c = label[i];
        if (!isPauliChar(c))
            throw std::invalid_argument(
                std::string("invalid Pauli character '") + c + "'");
        // Leftmost character acts on the highest qubit index.
        uint32_t q = static_cast<uint32_t>(label.size() - 1 - i);
        p.setOp(q, pauliOpFromChar(c));
    }
    return p;
}

PauliOp
PauliString::op(uint32_t q) const
{
    assert(q < numQubits_);
    const uint32_t w = q >> 6;
    const uint64_t m = 1ULL << (q & 63);
    uint8_t code = static_cast<uint8_t>(((x_[w] & m) != 0) |
                                        (((z_[w] & m) != 0) << 1));
    return static_cast<PauliOp>(code);
}

void
PauliString::setOp(uint32_t q, PauliOp op)
{
    assert(q < numQubits_);
    const uint32_t w = q >> 6;
    const uint64_t m = 1ULL << (q & 63);
    const uint8_t code = static_cast<uint8_t>(op);
    if (code & 1)
        x_[w] |= m;
    else
        x_[w] &= ~m;
    if (code & 2)
        z_[w] |= m;
    else
        z_[w] &= ~m;
}

bool
PauliString::xBit(uint32_t q) const
{
    assert(q < numQubits_);
    return (x_[q >> 6] >> (q & 63)) & 1;
}

bool
PauliString::zBit(uint32_t q) const
{
    assert(q < numQubits_);
    return (z_[q >> 6] >> (q & 63)) & 1;
}

void
PauliString::assignWords(std::span<const uint64_t> x,
                         std::span<const uint64_t> z, uint8_t phase)
{
    assert(x.size() == x_.size() && z.size() == z_.size());
    std::copy(x.begin(), x.end(), x_.begin());
    std::copy(z.begin(), z.end(), z_.begin());
    phase_ = phase & 3;
}

int
PauliString::sign() const
{
    assert((phase_ & 1) == 0 && "phase must be real for sign()");
    return phase_ == 0 ? 1 : -1;
}

uint32_t
PauliString::weight() const
{
    uint32_t w = 0;
    for (size_t i = 0; i < x_.size(); ++i)
        w += static_cast<uint32_t>(std::popcount(x_[i] | z_[i]));
    return w;
}

std::vector<uint32_t>
PauliString::support() const
{
    std::vector<uint32_t> qs;
    for (uint32_t q = 0; q < numQubits_; ++q)
        if (op(q) != PauliOp::I)
            qs.push_back(q);
    return qs;
}

bool
PauliString::isIdentity() const
{
    for (size_t i = 0; i < x_.size(); ++i)
        if (x_[i] | z_[i])
            return false;
    return true;
}

bool
PauliString::commutesWith(const PauliString &other) const
{
    assert(numQubits_ == other.numQubits_);
    // Symplectic inner product: sum over qubits of x1.z2 + z1.x2 (mod 2).
    // Parities fold across words because popcount(a) + popcount(b) ==
    // popcount(a ^ b) (mod 2).
    uint64_t acc = 0;
    for (size_t w = 0; w < x_.size(); ++w)
        acc ^= static_cast<uint64_t>(std::popcount(x_[w] & other.z_[w])) ^
               static_cast<uint64_t>(std::popcount(z_[w] & other.x_[w]));
    return (acc & 1) == 0;
}

bool
PauliString::isZOnly() const
{
    for (uint64_t w : x_)
        if (w)
            return false;
    return true;
}

bool
PauliString::isXOnly() const
{
    for (uint64_t w : z_)
        if (w)
            return false;
    return true;
}

void
PauliString::mulRight(const PauliString &rhs)
{
    assert(numQubits_ == rhs.numQubits_);
    // Word-parallel phase accumulation. Per qubit, the i-exponent of
    // sigma(x1,z1).sigma(x2,z2) is +1 for (X,Y),(Y,Z),(Z,X) and -1 for
    // the reversed orders (0 otherwise). Encoding the +-1 tallies as two
    // popcounts keeps the loop branch-free across 64 qubits at a time.
    uint64_t plus = 0, minus = 0;
    for (size_t w = 0; w < x_.size(); ++w) {
        const uint64_t x1 = x_[w], z1 = z_[w];
        const uint64_t x2 = rhs.x_[w], z2 = rhs.z_[w];
        // +i cases: X.Y (x1&~z1 & x2&z2), Y.Z (x1&z1 & ~x2&z2),
        //           Z.X (~x1&z1 & x2&~z2).
        const uint64_t p = (x1 & ~z1 & x2 & z2) |
                           (x1 & z1 & ~x2 & z2) |
                           (~x1 & z1 & x2 & ~z2);
        // -i cases: Y.X, Z.Y, X.Z (the transposes).
        const uint64_t m = (x2 & ~z2 & x1 & z1) |
                           (x2 & z2 & ~x1 & z1) |
                           (~x2 & z2 & x1 & ~z1);
        plus += static_cast<uint64_t>(std::popcount(p));
        minus += static_cast<uint64_t>(std::popcount(m));
        x_[w] ^= x2;
        z_[w] ^= z2;
    }
    const uint64_t phase_acc = phase_ + rhs.phase_ + plus + 3 * (minus & 3);
    phase_ = static_cast<uint8_t>(phase_acc & 3);
}

void
PauliString::mulLeft(const PauliString &lhs)
{
    assert(numQubits_ == lhs.numQubits_);
    uint32_t phase_acc = phase_ + lhs.phase_;
    for (uint32_t q = 0; q < numQubits_; ++q) {
        phase_acc += pauliProductPhase(static_cast<uint8_t>(lhs.op(q)),
                                       static_cast<uint8_t>(op(q)));
    }
    for (size_t i = 0; i < x_.size(); ++i) {
        x_[i] ^= lhs.x_[i];
        z_[i] ^= lhs.z_[i];
    }
    phase_ = static_cast<uint8_t>(phase_acc & 3);
}

void
PauliString::applyH(uint32_t q)
{
    const uint32_t w = q >> 6;
    const uint64_t m = 1ULL << (q & 63);
    const bool x = x_[w] & m;
    const bool z = z_[w] & m;
    // H X H = Z, H Z H = X, H Y H = -Y.
    if (x && z)
        phase_ = static_cast<uint8_t>((phase_ + 2) & 3);
    if (x != z) {
        x_[w] ^= m;
        z_[w] ^= m;
    }
}

void
PauliString::applyS(uint32_t q)
{
    const uint32_t w = q >> 6;
    const uint64_t m = 1ULL << (q & 63);
    const bool x = x_[w] & m;
    const bool z = z_[w] & m;
    // S X S~ = Y, S Y S~ = -X, S Z S~ = Z.
    if (x && z)
        phase_ = static_cast<uint8_t>((phase_ + 2) & 3);
    if (x)
        z_[w] ^= m;
}

void
PauliString::applySdg(uint32_t q)
{
    const uint32_t w = q >> 6;
    const uint64_t m = 1ULL << (q & 63);
    const bool x = x_[w] & m;
    const bool z = z_[w] & m;
    // Sdg X S = -Y, Sdg Y S = X, Z fixed.
    if (x && !z)
        phase_ = static_cast<uint8_t>((phase_ + 2) & 3);
    if (x)
        z_[w] ^= m;
}

void
PauliString::applyX(uint32_t q)
{
    // X anticommutes with Z and Y.
    if (zBit(q))
        phase_ = static_cast<uint8_t>((phase_ + 2) & 3);
}

void
PauliString::applyY(uint32_t q)
{
    // Y anticommutes with X and Z.
    if (xBit(q) != zBit(q))
        phase_ = static_cast<uint8_t>((phase_ + 2) & 3);
}

void
PauliString::applyZ(uint32_t q)
{
    // Z anticommutes with X and Y.
    if (xBit(q))
        phase_ = static_cast<uint8_t>((phase_ + 2) & 3);
}

void
PauliString::applySqrtX(uint32_t q)
{
    const uint32_t w = q >> 6;
    const uint64_t m = 1ULL << (q & 63);
    const bool x = x_[w] & m;
    const bool z = z_[w] & m;
    // sqrt(X): X -> X, Z -> -Y, Y -> Z.
    if (!x && z)
        phase_ = static_cast<uint8_t>((phase_ + 2) & 3);
    if (z)
        x_[w] ^= m;
}

void
PauliString::applySqrtXdg(uint32_t q)
{
    const uint32_t w = q >> 6;
    const uint64_t m = 1ULL << (q & 63);
    const bool x = x_[w] & m;
    const bool z = z_[w] & m;
    // sqrt(X)~: X -> X, Z -> Y, Y -> -Z.
    if (x && z)
        phase_ = static_cast<uint8_t>((phase_ + 2) & 3);
    if (z)
        x_[w] ^= m;
}

void
PauliString::applyCX(uint32_t control, uint32_t target)
{
    assert(control != target);
    const bool xc = xBit(control);
    const bool zc = zBit(control);
    const bool xt = xBit(target);
    const bool zt = zBit(target);
    // Aaronson-Gottesman update: sign flips iff xc.zt.(xt ^ zc ^ 1).
    if (xc && zt && (xt == zc))
        phase_ = static_cast<uint8_t>((phase_ + 2) & 3);
    const uint32_t wt = target >> 6;
    const uint32_t wc = control >> 6;
    if (xc)
        x_[wt] ^= 1ULL << (target & 63);
    if (zt)
        z_[wc] ^= 1ULL << (control & 63);
}

void
PauliString::applyCZ(uint32_t a, uint32_t b)
{
    // CZ = (I (x) H) CX (I (x) H); decompose for correctness.
    applyH(b);
    applyCX(a, b);
    applyH(b);
}

void
PauliString::applySwap(uint32_t a, uint32_t b)
{
    PauliOp oa = op(a);
    PauliOp ob = op(b);
    setOp(a, ob);
    setOp(b, oa);
}

std::string
PauliString::toLabel() const
{
    std::string s;
    switch (phase_) {
      case 1: s = "i"; break;
      case 2: s = "-"; break;
      case 3: s = "-i"; break;
      default: break;
    }
    for (uint32_t q = numQubits_; q-- > 0;)
        s += pauliOpChar(op(q));
    return s;
}

bool
PauliString::operator==(const PauliString &other) const
{
    return numQubits_ == other.numQubits_ && phase_ == other.phase_ &&
           x_ == other.x_ && z_ == other.z_;
}

bool
PauliString::equalsUpToPhase(const PauliString &other) const
{
    return numQubits_ == other.numQubits_ && x_ == other.x_ &&
           z_ == other.z_;
}

size_t
PauliString::hash() const
{
    // FNV-1a over the packed words and phase.
    uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001B3ULL;
    };
    mix(numQubits_);
    mix(phase_);
    for (uint64_t w : x_)
        mix(w);
    for (uint64_t w : z_)
        mix(w);
    return static_cast<size_t>(h);
}

} // namespace quclear
