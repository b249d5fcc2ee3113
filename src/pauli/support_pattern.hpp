/**
 * @file
 * Keys for the operators a Pauli string carries on a fixed qubit set.
 *
 * Clifford extraction works on one qubit set S at a time (the support
 * of the rotation being compiled), and what it does to any other string
 * depends only on that string's operators on S. A SupportPattern maps
 * those operators to a 64-bit key, so the extractor can compute each
 * distinct pattern once and look the rest up.
 */
#ifndef QUCLEAR_PAULI_SUPPORT_PATTERN_HPP
#define QUCLEAR_PAULI_SUPPORT_PATTERN_HPP

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "pauli/pauli_string.hpp"

namespace quclear {

/**
 * An injective map from a string's operators on a qubit set S of at
 * most 32 qubits to 64-bit keys: the x bits on S fill the low half of
 * the layout, the z bits the half above. Equal keys mean equal
 * operators on S, and key 0 means the identity on S.
 *
 * When S fits a 32-bit window per packed word (always true on registers
 * of up to 32 qubits), a word's S bits move as one block; otherwise
 * each qubit is its own one-bit block. The layout is private; callers
 * only compare keys, XOR them and count their weight.
 */
class SupportPattern
{
  public:
    /** Most qubits a key can cover. */
    static constexpr size_t kMaxQubits = 32;

    /**
     * Key the operators on @p qubits (ascending, distinct). Returns
     * false, and keys nothing, above kMaxQubits qubits.
     */
    bool reset(std::span<const uint32_t> qubits)
    {
        blocks_.clear();
        bits_ = 0;
        if (qubits.size() > kMaxQubits)
            return false;
        // One block per packed word, spanning its lowest to highest S
        // bit, if the spans fit; else one block per qubit.
        uint32_t span = 0;
        for (size_t i = 0; i < qubits.size(); ++i) {
            const uint32_t q = qubits[i];
            if (blocks_.empty() || blocks_.back().word != q >> 6) {
                blocks_.push_back({ q >> 6, q & 63, 0, span });
            }
            Block &b = blocks_.back();
            b.mask |= uint64_t{ 1 } << (q & 63);
            span = b.offset + (q & 63) - b.shift + 1;
        }
        if (span > kMaxQubits) {
            blocks_.clear();
            for (size_t i = 0; i < qubits.size(); ++i)
                blocks_.push_back({ qubits[i] >> 6, qubits[i] & 63,
                                    uint64_t{ 1 } << (qubits[i] & 63),
                                    static_cast<uint32_t>(i) });
            span = static_cast<uint32_t>(qubits.size());
        }
        bits_ = span;
        return true;
    }

    /** The key of @p p's operators on the set. */
    uint64_t key(const PauliString &p) const
    {
        const std::span<const uint64_t> xs = p.xWords();
        const std::span<const uint64_t> zs = p.zWords();
        uint64_t x = 0, z = 0;
        for (const Block &b : blocks_) {
            x |= ((xs[b.word] & b.mask) >> b.shift) << b.offset;
            z |= ((zs[b.word] & b.mask) >> b.shift) << b.offset;
        }
        return x | (z << bits_);
    }

    /**
     * XOR a difference of two keys into @p p: afterwards key(p) is the
     * old key XOR @p diff, and p is unchanged off the set.
     */
    void flip(PauliString &p, uint64_t diff) const
    {
        for (const Block &b : blocks_)
            p.xorWords(b.word, ((diff >> b.offset) << b.shift) & b.mask,
                       ((diff >> (b.offset + bits_)) << b.shift) & b.mask);
    }

    /** Non-identity positions on the set of a string with key @p key. */
    uint32_t weight(uint64_t key) const
    {
        const uint64_t low = (uint64_t{ 1 } << bits_) - 1;
        return static_cast<uint32_t>(
            std::popcount((key | (key >> bits_)) & low));
    }

  private:
    /** The S bits of packed word `word` under `mask`, shifted down by
     *  `shift`, land at bit `offset` of each key half. */
    struct Block
    {
        uint32_t word;
        uint32_t shift;
        uint64_t mask;
        uint32_t offset;
    };

    std::vector<Block> blocks_;
    uint32_t bits_ = 0; // width of each key half
};

} // namespace quclear

#endif // QUCLEAR_PAULI_SUPPORT_PATTERN_HPP
