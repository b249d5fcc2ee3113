/**
 * @file
 * Kernel-table resolution: CPUID probe + QUCLEAR_SIMD override.
 *
 * Resolution happens once, on the first active() call, and costs a
 * relaxed atomic load afterwards. forceLevel()/resetLevel() let tests
 * and per-level benchmarks repin the table at runtime; they are not
 * thread-safe against concurrent kernel use (pin before spawning
 * workers), which is fine for their test/bench role.
 */
#include "util/simd_dispatch.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/simd_kernels_internal.hpp"

namespace quclear::simd {

namespace {

std::atomic<const Kernels *> g_active{nullptr};

/** The override string resolution saw ("auto" when unset/invalid). */
std::string &
overrideString()
{
    static std::string s = "auto";
    return s;
}

bool
cpuSupports(Level level)
{
#if defined(__x86_64__) || defined(__i386__)
    switch (level) {
      case Level::Scalar:
        return true;
      case Level::Avx2:
        return __builtin_cpu_supports("avx2") != 0;
    }
    return false;
#else
    return level == Level::Scalar;
#endif
}

const Kernels *
compiledTable(Level level)
{
    switch (level) {
      case Level::Scalar:
        return &detail::scalarKernelsImpl();
      case Level::Avx2:
        return detail::avx2KernelsOrNull();
    }
    return nullptr;
}

const Kernels *
tableFor(Level level)
{
    const Kernels *t = compiledTable(level);
    return (t != nullptr && cpuSupports(level)) ? t : nullptr;
}

const Kernels *
bestTable()
{
    if (const Kernels *t = tableFor(Level::Avx2))
        return t;
    return &detail::scalarKernelsImpl();
}

/** Resolve from the environment; called once under the atomic race. */
const Kernels *
resolve()
{
    const char *env = std::getenv("QUCLEAR_SIMD");
    overrideString() = "auto";
    if (env == nullptr || *env == '\0')
        return bestTable();
    Level want;
    if (!parseLevel(env, want)) {
        std::fprintf(stderr,
                     "quclear: unknown QUCLEAR_SIMD value '%s' "
                     "(expected auto|avx2|scalar), using auto\n",
                     env);
        return bestTable();
    }
    overrideString() = env;
    for (char &c : overrideString())
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (const Kernels *t = tableFor(want))
        return t;
    // Only AVX2 can be missing (scalar and "auto" always resolve), and
    // an override never raises the level, so the one step down is
    // scalar.
    std::fprintf(stderr,
                 "quclear: QUCLEAR_SIMD=%s is not %s on this host, "
                 "falling back to scalar\n",
                 levelName(want),
                 compiledTable(want) == nullptr ? "compiled in"
                                                : "supported");
    return &detail::scalarKernelsImpl();
}

} // namespace

const Kernels &
scalarKernels()
{
    return detail::scalarKernelsImpl();
}

const Kernels &
active()
{
    const Kernels *t = g_active.load(std::memory_order_acquire);
    if (t == nullptr) {
        // Benign race: resolve() is deterministic, so concurrent first
        // callers all install the same pointer.
        t = resolve();
        g_active.store(t, std::memory_order_release);
    }
    return *t;
}

Level
activeLevel()
{
    return active().level;
}

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Avx2:   return "avx2";
      case Level::Scalar: break;
    }
    return "scalar";
}

bool
parseLevel(const std::string &name, Level &out)
{
    std::string s;
    s.reserve(name.size());
    for (char c : name)
        s += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (s == "auto") {
        out = bestTable()->level;
        return true;
    }
    if (s == "scalar") {
        out = Level::Scalar;
        return true;
    }
    if (s == "avx2") {
        out = Level::Avx2;
        return true;
    }
    return false;
}

bool
levelCompiled(Level level)
{
    return compiledTable(level) != nullptr;
}

bool
levelSupported(Level level)
{
    return tableFor(level) != nullptr;
}

Level
bestSupportedLevel()
{
    return bestTable()->level;
}

bool
forceLevel(Level level)
{
    const Kernels *t = tableFor(level);
    if (t == nullptr)
        return false;
    g_active.store(t, std::memory_order_release);
    return true;
}

void
resetLevel()
{
    g_active.store(resolve(), std::memory_order_release);
}

const char *
configuredOverride()
{
    active(); // ensure resolution has populated the override string
    return overrideString().c_str();
}

std::string
cpuFeatureString()
{
    std::string out;
#if defined(__x86_64__) || defined(__i386__)
    const auto add = [&out](bool present, const char *name) {
        if (!present)
            return;
        if (!out.empty())
            out += ' ';
        out += name;
    };
    // __builtin_cpu_supports requires literal arguments, hence the
    // unrolled probe list.
    add(__builtin_cpu_supports("sse2") != 0, "sse2");
    add(__builtin_cpu_supports("sse4.2") != 0, "sse4.2");
    add(__builtin_cpu_supports("popcnt") != 0, "popcnt");
    add(__builtin_cpu_supports("avx") != 0, "avx");
    add(__builtin_cpu_supports("avx2") != 0, "avx2");
    add(__builtin_cpu_supports("bmi2") != 0, "bmi2");
#endif
    if (out.empty())
        out = "none";
    return out;
}

} // namespace quclear::simd
