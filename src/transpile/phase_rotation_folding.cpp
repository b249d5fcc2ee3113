#include "transpile/phase_rotation_folding.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "transpile/gate_algebra.hpp"

namespace quclear {

namespace {

constexpr double kPi = 3.14159265358979323846;

/** Phase contribution of a diagonal 1q gate, in diag(1, e^{i phi}) form. */
bool
diagonalPhase(const Gate &g, double &phi)
{
    switch (g.type) {
      case GateType::Rz:  phi = g.angle; return true;
      case GateType::S:   phi = kPi / 2; return true;
      case GateType::Sdg: phi = -kPi / 2; return true;
      case GateType::Z:   phi = kPi; return true;
      default:            return false;
    }
}

/** SplitMix64 finalizer: the pass's fixed per-symbol Zobrist value. */
uint64_t
splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

} // namespace

bool
PhaseRotationFolding::run(QuantumCircuit &qc) const
{
    return detail::foldPhaseRotations(qc, splitmix64);
}

bool
detail::foldPhaseRotations(QuantumCircuit &qc, SymbolHash symbol_hash)
{
    const auto &gates = qc.gates();
    const size_t n_gates = gates.size();
    const uint32_t n = qc.numQubits();
    if (n == 0 || n_gates == 0)
        return false;

    // Symbol capacity: one initial symbol per wire plus one fresh symbol
    // per wire slot of every untrackable gate. Diagonal gates bound the
    // group count, which sizes the bucket table.
    size_t capacity = n;
    size_t n_diagonal = 0;
    for (const Gate &g : gates) {
        switch (g.type) {
          case GateType::Rz:
          case GateType::S:
          case GateType::Sdg:
          case GateType::Z:
            ++n_diagonal;
            break;
          case GateType::CX:
          case GateType::CZ:
          case GateType::Swap:
          case GateType::X:
            break;
          default:
            capacity += isTwoQubit(g.type) ? 2u : 1u;
        }
    }
    const size_t words = (capacity + 63) / 64;

    // Wire w's current value is the xor of the symbols in its parity
    // bitset (words [w*words, (w+1)*words)), negated when neg[w] (X
    // gates toggle it). hash[w] is the xor of those symbols' hashes.
    // All nonzero words of wire w lie in [lo[w], hi[w]): symbols are
    // allocated in order, so a wire's live range stays a few words
    // wide and CX, key checks and key storage touch only that range.
    std::vector<uint64_t> parity(size_t(n) * words, 0);
    std::vector<uint8_t> neg(n, 0);
    std::vector<uint64_t> hash(n);
    std::vector<size_t> lo(n);
    std::vector<size_t> hi(n);
    auto row = [&](uint32_t w) { return parity.data() + size_t(w) * words; };
    auto set_symbol = [&](uint32_t w, size_t symbol) {
        row(w)[symbol / 64] = uint64_t(1) << (symbol % 64);
        hash[w] = symbol_hash(symbol);
        lo[w] = symbol / 64;
        hi[w] = lo[w] + 1;
    };
    for (uint32_t q = 0; q < n; ++q)
        set_symbol(q, q);
    size_t next_symbol = n;

    auto invalidate = [&](uint32_t w) {
        std::fill(row(w) + lo[w], row(w) + hi[w], uint64_t(0));
        set_symbol(w, next_symbol++);
        neg[w] = 0;
    };

    struct Group
    {
        size_t first;     //!< gate index of the first member
        double phase;     //!< summed phase in un-negated key space
        uint32_t members; //!< number of folded rotations
        uint8_t firstNeg; //!< wire negation at the first member
        uint64_t hash;    //!< Zobrist hash of the key
        size_t keyBegin;  //!< first (index, word) pair in the key arena
        size_t keyEnd;    //!< one past the last pair
        size_t chain;     //!< next group in the same bucket
    };
    constexpr size_t kNone = ~size_t(0);
    std::vector<Group> groups;
    // Sparse key storage: the nonzero words of each group's parity key,
    // in increasing word order.
    std::vector<uint32_t> key_index;
    std::vector<uint64_t> key_word;
    const size_t n_buckets =
        std::bit_ceil(std::max<size_t>(2 * n_diagonal, 2));
    const uint64_t bucket_mask = n_buckets - 1;
    std::vector<size_t> bucket_head(n_buckets, kNone);
    // group_of[i] >= 0: gate i is a member of that rotation group.
    std::vector<std::ptrdiff_t> group_of(n_gates, -1);

    auto same_key = [&](const Group &grp, uint32_t wire) {
        const uint64_t *bits = row(wire);
        size_t k = grp.keyBegin;
        for (size_t w = lo[wire]; w < hi[wire]; ++w) {
            if (bits[w] == 0)
                continue;
            if (k == grp.keyEnd || key_index[k] != w ||
                key_word[k] != bits[w])
                return false;
            ++k;
        }
        return k == grp.keyEnd;
    };

    for (size_t i = 0; i < n_gates; ++i) {
        const Gate &g = gates[i];
        double phi = 0.0;
        if (diagonalPhase(g, phi)) {
            const double keyed = neg[g.q0] ? -phi : phi;
            const uint64_t h = hash[g.q0];
            size_t &head = bucket_head[h & bucket_mask];
            size_t gi = head;
            while (gi != kNone &&
                   (groups[gi].hash != h || !same_key(groups[gi], g.q0)))
                gi = groups[gi].chain;
            if (gi == kNone) {
                gi = groups.size();
                const size_t key_begin = key_index.size();
                const uint64_t *bits = row(g.q0);
                for (size_t w = lo[g.q0]; w < hi[g.q0]; ++w) {
                    if (bits[w] != 0) {
                        key_index.push_back(static_cast<uint32_t>(w));
                        key_word.push_back(bits[w]);
                    }
                }
                groups.push_back({ i, keyed, 1, neg[g.q0], h, key_begin,
                                   key_index.size(), head });
                head = gi;
            } else {
                groups[gi].phase += keyed;
                ++groups[gi].members;
            }
            group_of[i] = static_cast<std::ptrdiff_t>(gi);
            continue;
        }
        switch (g.type) {
          case GateType::CX: {
            const uint64_t *src = row(g.q0);
            uint64_t *dst = row(g.q1);
            for (size_t w = lo[g.q0]; w < hi[g.q0]; ++w)
                dst[w] ^= src[w];
            hash[g.q1] ^= hash[g.q0];
            lo[g.q1] = std::min(lo[g.q1], lo[g.q0]);
            hi[g.q1] = std::max(hi[g.q1], hi[g.q0]);
            neg[g.q1] = static_cast<uint8_t>(neg[g.q1] ^ neg[g.q0]);
            break;
          }
          case GateType::Swap: {
            const size_t begin = std::min(lo[g.q0], lo[g.q1]);
            const size_t end = std::max(hi[g.q0], hi[g.q1]);
            std::swap_ranges(row(g.q0) + begin, row(g.q0) + end,
                             row(g.q1) + begin);
            std::swap(hash[g.q0], hash[g.q1]);
            std::swap(lo[g.q0], lo[g.q1]);
            std::swap(hi[g.q0], hi[g.q1]);
            std::swap(neg[g.q0], neg[g.q1]);
            break;
          }
          case GateType::X:
            neg[g.q0] = static_cast<uint8_t>(neg[g.q0] ^ 1);
            break;
          case GateType::CZ:
            break; // diagonal: transparent to parity tracking
          default:
            invalidate(g.q0);
            if (isTwoQubit(g.type))
                invalidate(g.q1);
            break;
        }
    }

    // Rewrite: groups with several members fold into their first slot;
    // trivial sums (and trivial singletons, e.g. rz(q, 0)) vanish.
    bool changed = false;
    for (const Group &grp : groups) {
        if (grp.members > 1 || angleIsTrivial(grp.phase))
            changed = true;
    }
    if (!changed)
        return false;

    std::vector<Gate> kept;
    kept.reserve(n_gates);
    for (size_t i = 0; i < n_gates; ++i) {
        if (group_of[i] < 0) {
            kept.push_back(gates[i]);
            continue;
        }
        const Group &grp = groups[static_cast<size_t>(group_of[i])];
        if (i != grp.first)
            continue; // folded into the first member
        if (grp.members == 1 && !angleIsTrivial(grp.phase)) {
            kept.push_back(gates[i]); // untouched singleton
            continue;
        }
        if (angleIsTrivial(grp.phase))
            continue; // rotations cancelled outright
        const double theta = grp.firstNeg ? -grp.phase : grp.phase;
        kept.push_back(axisRotationGate(GateAxis::Z, gates[i].q0, theta));
    }
    qc.mutableGates() = std::move(kept);
    return true;
}

} // namespace quclear
