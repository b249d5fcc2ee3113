/**
 * @file
 * Bit-identicality cross-checks for the runtime-dispatched SIMD
 * backends (util/simd_dispatch.hpp).
 *
 * Every wide kernel table compiled in AND supported by the running CPU
 * is compared against the scalar reference per kernel, at word counts
 * straddling every vector-width boundary (1 word up to several full
 * vectors plus tails) and with empty / dense / single-set-word
 * operands. On top of the kernel-level checks, whole engine paths
 * (CliffordTableau conjugation, batch conjugation, end-to-end
 * extraction) are re-run under each forced dispatch level and must
 * produce identical outputs — phases, signs, and gate streams
 * included. On hosts without AVX the wide loops simply have nothing to
 * compare and the suite degenerates to the scalar self-checks.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/clifford_extractor.hpp"
#include "pauli/pauli_string.hpp"
#include "tableau/clifford_tableau.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/simd_dispatch.hpp"
#include "util/support_index.hpp"

namespace quclear {
namespace {

/** Word counts covering sub-vector, exact-vector, and tail shapes. */
constexpr uint32_t kWordCounts[] = { 1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 33 };

/** Qubit widths for the engine-level forced-dispatch checks. */
constexpr uint32_t kQubitCounts[] = { 1, 63, 64, 65, 127, 128, 129, 256 };

/** Every compiled-and-supported non-scalar kernel table. */
std::vector<const simd::Kernels *>
wideTables()
{
    std::vector<const simd::Kernels *> out;
    for (simd::Level lvl : { simd::Level::Avx2 }) {
        if (!simd::levelSupported(lvl))
            continue;
        EXPECT_TRUE(simd::forceLevel(lvl));
        EXPECT_EQ(simd::activeLevel(), lvl);
        out.push_back(&simd::active());
    }
    simd::resetLevel();
    return out;
}

/** Levels (scalar included) usable for whole-engine forced runs. */
std::vector<simd::Level>
supportedLevels()
{
    std::vector<simd::Level> out{ simd::Level::Scalar };
    for (simd::Level lvl : { simd::Level::Avx2 })
        if (simd::levelSupported(lvl))
            out.push_back(lvl);
    return out;
}

std::vector<uint64_t>
randomWords(uint32_t n, Rng &rng)
{
    std::vector<uint64_t> v(n);
    for (uint64_t &w : v)
        w = rng();
    return v;
}

/**
 * Operand patterns per word count: dense random, all-zero, and a
 * single set word at an awkward offset (hits the single-active-lane
 * corner of every fold).
 */
std::vector<std::vector<uint64_t>>
operandPatterns(uint32_t n, Rng &rng)
{
    std::vector<std::vector<uint64_t>> out;
    out.push_back(randomWords(n, rng));
    out.emplace_back(n, 0);
    std::vector<uint64_t> single(n, 0);
    single[n - 1] = rng() | 1;
    out.push_back(std::move(single));
    return out;
}

/** Restore auto dispatch even when a test body bails early. */
struct LevelGuard
{
    ~LevelGuard() { simd::resetLevel(); }
};

/** Name of the retired 512-bit level, as a stale setting spells it. */
const std::string kRetiredLevel = std::string("avx") + "512";

TEST(SimdDispatch, ParseLevelNamesAndCase)
{
    simd::Level lvl;
    EXPECT_TRUE(simd::parseLevel("scalar", lvl));
    EXPECT_EQ(lvl, simd::Level::Scalar);
    EXPECT_TRUE(simd::parseLevel("AVX2", lvl));
    EXPECT_EQ(lvl, simd::Level::Avx2);
    EXPECT_FALSE(simd::parseLevel(kRetiredLevel, lvl));
    EXPECT_TRUE(simd::parseLevel("auto", lvl));
    EXPECT_EQ(lvl, simd::bestSupportedLevel());
    EXPECT_FALSE(simd::parseLevel("sse9", lvl));
    EXPECT_FALSE(simd::parseLevel("", lvl));
}

TEST(SimdDispatch, UnknownEnvValueResolvesToAutoWithWarning)
{
    const char *prev = std::getenv("QUCLEAR_SIMD");
    const std::string saved = prev != nullptr ? prev : "";
    ASSERT_EQ(setenv("QUCLEAR_SIMD", kRetiredLevel.c_str(), 1), 0);
    testing::internal::CaptureStderr();
    simd::resetLevel();
    const std::string err = testing::internal::GetCapturedStderr();
    const simd::Level resolved = simd::activeLevel();
    const std::string overrideName = simd::configuredOverride();
    if (prev != nullptr)
        setenv("QUCLEAR_SIMD", saved.c_str(), 1);
    else
        unsetenv("QUCLEAR_SIMD");
    simd::resetLevel();

    EXPECT_NE(err.find("unknown QUCLEAR_SIMD value '" + kRetiredLevel +
                       "'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("using auto"), std::string::npos) << err;
    EXPECT_EQ(resolved, simd::bestSupportedLevel());
    EXPECT_EQ(overrideName, "auto");
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndForceRoundTrip)
{
    LevelGuard guard;
    EXPECT_TRUE(simd::levelCompiled(simd::Level::Scalar));
    EXPECT_TRUE(simd::levelSupported(simd::Level::Scalar));
    EXPECT_TRUE(simd::forceLevel(simd::Level::Scalar));
    EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
    EXPECT_STREQ(simd::active().name, "scalar");
    simd::resetLevel();
    // After reset the active level is whatever resolution picks; it
    // must at least be a supported one.
    EXPECT_TRUE(simd::levelSupported(simd::activeLevel()));
}

TEST(SimdDispatch, CpuFeatureStringNonEmpty)
{
    EXPECT_FALSE(simd::cpuFeatureString().empty());
}

TEST(SupportIndexTest, MarkQueryClearAndOrder)
{
    SupportIndex idx;
    EXPECT_TRUE(idx.empty());
    const uint32_t words[] = { 0, 1, 63, 64, 65, 700, 4095 };
    for (uint32_t w : words)
        idx.markWord(w);
    EXPECT_FALSE(idx.empty());
    EXPECT_EQ(idx.count(), 7u);
    for (uint32_t w : words)
        EXPECT_TRUE(idx.hasWord(w)) << w;
    EXPECT_FALSE(idx.hasWord(2));
    EXPECT_FALSE(idx.hasWord(66));

    // forEachWord must visit in strictly ascending order (the batch
    // row-product phase accumulation depends on it).
    std::vector<uint32_t> seen;
    idx.forEachWord([&](uint32_t w) { seen.push_back(w); });
    ASSERT_EQ(seen.size(), 7u);
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], words[i]);
    for (size_t i = 1; i < seen.size(); ++i)
        EXPECT_LT(seen[i - 1], seen[i]);

    idx.clear();
    EXPECT_TRUE(idx.empty());
    EXPECT_EQ(idx.count(), 0u);
    for (uint32_t w : words)
        EXPECT_FALSE(idx.hasWord(w));

    // Reuse after clear: only the new marks are visible.
    idx.markWord(5);
    EXPECT_TRUE(idx.hasWord(5));
    EXPECT_FALSE(idx.hasWord(0));
    EXPECT_EQ(idx.count(), 1u);
}

TEST(SimdKernels, AppendKernelsMatchScalar)
{
    const auto tables = wideTables();
    const simd::Kernels &sc = simd::scalarKernels();
    Rng rng(42);
    for (const simd::Kernels *wide : tables) {
        for (uint32_t n : kWordCounts) {
            for (auto &xpat : operandPatterns(n, rng)) {
                const auto z0 = randomWords(n, rng);
                const auto s0 = randomWords(n, rng);
                const auto x2 = randomWords(n, rng);
                const auto z2 = randomWords(n, rng);

                using Single = void (*)(uint64_t *, uint64_t *,
                                        uint64_t *, uint32_t);
                const std::pair<Single, Single> singles[] = {
                    { sc.appendH, wide->appendH },
                    { sc.appendS, wide->appendS },
                    { sc.appendSdg, wide->appendSdg },
                    { sc.appendSqrtX, wide->appendSqrtX },
                    { sc.appendSqrtXdg, wide->appendSqrtXdg },
                };
                for (auto [ref, vec] : singles) {
                    auto xa = xpat, za = z0, sa = s0;
                    auto xb = xpat, zb = z0, sb = s0;
                    ref(xa.data(), za.data(), sa.data(), n);
                    vec(xb.data(), zb.data(), sb.data(), n);
                    EXPECT_EQ(xa, xb) << wide->name << " n=" << n;
                    EXPECT_EQ(za, zb) << wide->name << " n=" << n;
                    EXPECT_EQ(sa, sb) << wide->name << " n=" << n;
                }

                using Two = void (*)(uint64_t *, uint64_t *, uint64_t *,
                                     uint64_t *, uint64_t *, uint32_t);
                const std::pair<Two, Two> twos[] = {
                    { sc.appendCX, wide->appendCX },
                    { sc.appendCZ, wide->appendCZ },
                };
                for (auto [ref, vec] : twos) {
                    auto xa = xpat, za = z0, x2a = x2, z2a = z2, sa = s0;
                    auto xb = xpat, zb = z0, x2b = x2, z2b = z2, sb = s0;
                    ref(xa.data(), za.data(), x2a.data(), z2a.data(),
                        sa.data(), n);
                    vec(xb.data(), zb.data(), x2b.data(), z2b.data(),
                        sb.data(), n);
                    EXPECT_EQ(xa, xb) << wide->name << " n=" << n;
                    EXPECT_EQ(za, zb) << wide->name << " n=" << n;
                    EXPECT_EQ(x2a, x2b) << wide->name << " n=" << n;
                    EXPECT_EQ(z2a, z2b) << wide->name << " n=" << n;
                    EXPECT_EQ(sa, sb) << wide->name << " n=" << n;
                }

                {
                    auto da = xpat, db = xpat;
                    sc.xorInto(da.data(), z0.data(), n);
                    wide->xorInto(db.data(), z0.data(), n);
                    EXPECT_EQ(da, db) << wide->name << " n=" << n;

                    auto ea = xpat, eb = xpat;
                    sc.xorInto2(ea.data(), z0.data(), x2.data(), n);
                    wide->xorInto2(eb.data(), z0.data(), x2.data(), n);
                    EXPECT_EQ(ea, eb) << wide->name << " n=" << n;

                    auto pa = xpat, qa = z0, pb = xpat, qb = z0;
                    sc.swapWords(pa.data(), qa.data(), n);
                    wide->swapWords(pb.data(), qb.data(), n);
                    EXPECT_EQ(pa, pb) << wide->name << " n=" << n;
                    EXPECT_EQ(qa, qb) << wide->name << " n=" << n;
                }
            }
        }
    }
}

TEST(SimdKernels, ReductionsMatchScalar)
{
    const auto tables = wideTables();
    const simd::Kernels &sc = simd::scalarKernels();
    Rng rng(43);
    for (const simd::Kernels *wide : tables) {
        for (uint32_t n : kWordCounts) {
            for (auto &a : operandPatterns(n, rng)) {
                const auto b = randomWords(n, rng);
                const auto c = randomWords(n, rng);
                const auto d = randomWords(n, rng);
                EXPECT_EQ(
                    sc.anticommuteParity(a.data(), b.data(), c.data(),
                                         d.data(), n),
                    wide->anticommuteParity(a.data(), b.data(), c.data(),
                                            d.data(), n))
                    << wide->name << " n=" << n;

                auto xa = a, za = b;
                auto xb = a, zb = b;
                const uint32_t pa =
                    sc.mulWords(xa.data(), za.data(), c.data(), d.data(),
                                n);
                const uint32_t pb = wide->mulWords(xb.data(), zb.data(),
                                                   c.data(), d.data(), n);
                EXPECT_EQ(pa, pb) << wide->name << " n=" << n;
                EXPECT_EQ(xa, xb) << wide->name << " n=" << n;
                EXPECT_EQ(za, zb) << wide->name << " n=" << n;
            }
        }
    }
}

TEST(SimdKernels, DenseColumnMatchesScalar)
{
    const auto tables = wideTables();
    const simd::Kernels &sc = simd::scalarKernels();
    Rng rng(44);
    for (const simd::Kernels *wide : tables) {
        for (uint32_t n : kWordCounts) {
            const auto xc = randomWords(n, rng);
            const auto zc = randomWords(n, rng);
            for (auto &mask : operandPatterns(n, rng)) {
                const simd::DenseColumnResult ra =
                    sc.denseColumn(xc.data(), zc.data(), mask.data(), n);
                const simd::DenseColumnResult rb =
                    wide->denseColumn(xc.data(), zc.data(), mask.data(),
                                      n);
                EXPECT_EQ(ra.xParity, rb.xParity)
                    << wide->name << " n=" << n;
                EXPECT_EQ(ra.zParity, rb.zParity)
                    << wide->name << " n=" << n;
                EXPECT_EQ(ra.yCount, rb.yCount)
                    << wide->name << " n=" << n;
                // pairFold is a fold word; only its popcount parity
                // enters the phase, but the scalar/wide folds use the
                // same per-word combination so the parity must agree.
                EXPECT_EQ(std::popcount(ra.pairFold) & 1,
                          std::popcount(rb.pairFold) & 1)
                    << wide->name << " n=" << n;
            }
        }
    }
}

TEST(SimdKernels, Transpose64x2MatchesScalar)
{
    const auto tables = wideTables();
    const simd::Kernels &sc = simd::scalarKernels();
    Rng rng(45);
    for (const simd::Kernels *wide : tables) {
        for (int trial = 0; trial < 8; ++trial) {
            uint64_t xa[64], za[64], xb[64], zb[64];
            for (int i = 0; i < 64; ++i) {
                xa[i] = xb[i] = rng();
                za[i] = zb[i] = rng();
            }
            sc.transpose64x2(xa, za);
            wide->transpose64x2(xb, zb);
            EXPECT_EQ(0, std::memcmp(xa, xb, sizeof xa))
                << wide->name << " trial " << trial;
            EXPECT_EQ(0, std::memcmp(za, zb, sizeof za))
                << wide->name << " trial " << trial;
        }
        // Transposing twice is the identity.
        uint64_t x[64], z[64], x0[64], z0[64];
        for (int i = 0; i < 64; ++i) {
            x[i] = x0[i] = rng();
            z[i] = z0[i] = rng();
        }
        wide->transpose64x2(x, z);
        wide->transpose64x2(x, z);
        EXPECT_EQ(0, std::memcmp(x, x0, sizeof x)) << wide->name;
        EXPECT_EQ(0, std::memcmp(z, z0, sizeof z)) << wide->name;
    }
}

TEST(SimdKernels, RowProductMatchesScalar)
{
    const auto tables = wideTables();
    const simd::Kernels &sc = simd::scalarKernels();
    Rng rng(46);
    // words = column words (rows / 64), rw = row-half words.
    const std::pair<uint32_t, uint32_t> shapes[] = {
        { 1, 1 }, { 2, 1 }, { 1, 2 }, { 3, 2 }, { 2, 3 },
        { 4, 4 }, { 3, 5 }, { 4, 8 }, { 2, 9 },
    };
    for (const simd::Kernels *wide : tables) {
        for (auto [words, rw] : shapes) {
            const uint32_t rows = 64 * words;
            // One logical snapshot, materialized per backend padding.
            std::vector<std::vector<uint64_t>> row_x(rows), row_z(rows);
            std::vector<uint8_t> y_count(rows);
            for (uint32_t r = 0; r < rows; ++r) {
                row_x[r] = randomWords(rw, rng);
                row_z[r] = randomWords(rw, rng);
                y_count[r] = static_cast<uint8_t>(rng.uniformInt(4));
            }
            const auto signs = randomWords(words, rng);

            const auto materialize = [&](const simd::Kernels &k) {
                const uint32_t pad = k.padRowWords(rw);
                std::vector<uint64_t> xz(
                    static_cast<size_t>(rows) * 2 * pad, 0);
                for (uint32_t r = 0; r < rows; ++r)
                    for (uint32_t u = 0; u < rw; ++u) {
                        xz[static_cast<size_t>(r) * 2 * pad + u] =
                            row_x[r][u];
                        xz[static_cast<size_t>(r) * 2 * pad + pad + u] =
                            row_z[r][u];
                    }
                return xz;
            };
            const auto run = [&](const simd::Kernels &k,
                                 const std::vector<uint64_t> &xz,
                                 const std::vector<uint64_t> &mask,
                                 const SupportIndex &idx,
                                 std::vector<uint64_t> &ox,
                                 std::vector<uint64_t> &oz) {
                const uint32_t pad = k.padRowWords(rw);
                std::vector<uint64_t> scratch(3 * static_cast<size_t>(pad),
                                              0xDEADBEEFCAFEF00DULL);
                simd::RowProductArgs a;
                a.rowsXZ = xz.data();
                a.stride = 2 * pad;
                a.rwPad = pad;
                a.rw = rw;
                a.yCount = y_count.data();
                a.signs = signs.data();
                a.mask = mask.data();
                a.maskIndex = &idx;
                a.scratch = scratch.data();
                a.outX = ox.data();
                a.outZ = oz.data();
                return k.rowProduct(a);
            };

            const auto xz_sc = materialize(sc);
            const auto xz_wide = materialize(*wide);
            for (auto &mask : operandPatterns(words, rng)) {
                SupportIndex idx;
                for (uint32_t w = 0; w < words; ++w)
                    if (mask[w] != 0)
                        idx.markWord(w);
                std::vector<uint64_t> oxa(rw), oza(rw), oxb(rw), ozb(rw);
                const simd::RowProductResult ra =
                    run(sc, xz_sc, mask, idx, oxa, oza);
                const simd::RowProductResult rb =
                    run(*wide, xz_wide, mask, idx, oxb, ozb);
                EXPECT_EQ(oxa, oxb) << wide->name << " words=" << words
                                    << " rw=" << rw;
                EXPECT_EQ(oza, ozb) << wide->name << " words=" << words
                                    << " rw=" << rw;
                EXPECT_EQ(ra.signRows, rb.signRows) << wide->name;
                EXPECT_EQ(ra.yRows & 3, rb.yRows & 3) << wide->name;
                EXPECT_EQ(ra.pairParity & 1, rb.pairParity & 1)
                    << wide->name;
                EXPECT_EQ(ra.yResult & 3, rb.yResult & 3) << wide->name;
            }
        }
    }
}

TEST(SimdKernels, PadRowWordsContract)
{
    EXPECT_EQ(simd::scalarKernels().padRowWords(1), 1u);
    EXPECT_EQ(simd::scalarKernels().padRowWords(7), 7u);
    for (const simd::Kernels *wide : wideTables())
        for (uint32_t rw = 1; rw <= 33; ++rw)
            EXPECT_GE(wide->padRowWords(rw), rw) << wide->name;
}

TEST(SimdEndToEnd, ConjugationIdenticalAcrossLevels)
{
    LevelGuard guard;
    const auto levels = supportedLevels();
    for (uint32_t n : kQubitCounts) {
        Rng gate_rng(5000 + n);
        const QuantumCircuit qc =
            randomCliffordCircuit(n, 4 * n + 40, gate_rng);

        std::vector<PauliString> terms;
        Rng term_rng(6000 + n);
        for (int i = 0; i < 24; ++i)
            terms.push_back(randomPhasedPauli(
                n, term_rng, i % 3 == 0 ? 0.95 : 0.3));
        // Empty term: phase must survive conjugation untouched.
        PauliString id(n);
        id.setPhase(3);
        terms.push_back(id);

        std::vector<std::vector<PauliString>> per_level;
        for (simd::Level lvl : levels) {
            ASSERT_TRUE(simd::forceLevel(lvl));
            const CliffordTableau t = CliffordTableau::fromCircuit(qc);
            std::vector<PauliString> lone;
            lone.reserve(terms.size());
            for (const PauliString &p : terms)
                lone.push_back(t.conjugate(p));
            std::vector<PauliString> batch(terms);
            t.conjugateBatch(batch);
            // Lone and batch paths agree within the level...
            for (size_t i = 0; i < terms.size(); ++i)
                ASSERT_EQ(lone[i], batch[i])
                    << simd::levelName(lvl) << " n=" << n << " term "
                    << i;
            per_level.push_back(std::move(batch));
        }
        // ...and across levels.
        for (size_t l = 1; l < per_level.size(); ++l)
            for (size_t i = 0; i < terms.size(); ++i)
                ASSERT_EQ(per_level[0][i], per_level[l][i])
                    << simd::levelName(levels[l]) << " vs scalar, n="
                    << n << " term " << i;
    }
}

TEST(SimdEndToEnd, PauliMulAndCommuteIdenticalAcrossLevels)
{
    LevelGuard guard;
    const auto levels = supportedLevels();
    for (uint32_t n : kQubitCounts) {
        Rng rng(7000 + n);
        const PauliString a = randomPhasedPauli(n, rng, 0.3);
        const PauliString b = randomPhasedPauli(n, rng, 0.3);
        PauliString want;
        bool want_commutes = false;
        for (size_t l = 0; l < levels.size(); ++l) {
            ASSERT_TRUE(simd::forceLevel(levels[l]));
            PauliString prod = a;
            prod.mulRight(b);
            const bool commutes = a.commutesWith(b);
            if (l == 0) {
                want = prod;
                want_commutes = commutes;
            } else {
                ASSERT_EQ(prod, want)
                    << simd::levelName(levels[l]) << " n=" << n;
                ASSERT_EQ(commutes, want_commutes)
                    << simd::levelName(levels[l]) << " n=" << n;
            }
        }
    }
}

TEST(SimdEndToEnd, ExtractionIdenticalAcrossLevels)
{
    LevelGuard guard;
    const auto levels = supportedLevels();
    const uint32_t n = 12;
    Rng rng(8000);
    const std::vector<PauliTerm> terms =
        randomSupportTerms(n, 40, 0.6, rng);

    std::vector<ExtractionResult> results;
    for (simd::Level lvl : levels) {
        ASSERT_TRUE(simd::forceLevel(lvl));
        const CliffordExtractor extractor;
        results.push_back(extractor.run(terms));
    }
    for (size_t l = 1; l < results.size(); ++l) {
        expectSameCircuit(results[0].optimized, results[l].optimized);
        expectSameCircuit(results[0].extractedClifford,
                          results[l].extractedClifford);
    }
}

} // namespace
} // namespace quclear
