#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>


namespace quclear::bench {

namespace {

#ifndef QUCLEAR_GIT_SHA
#define QUCLEAR_GIT_SHA "unknown"
#endif

const char *
getEnv(const char *name)
{
    return std::getenv(name);
}

} // namespace

BenchScale
selectedScale()
{
    // Parsed once so the unknown-value warning prints once per run.
    static const BenchScale scale = [] {
        if (const char *env = getEnv("QUCLEAR_SCALE")) {
            const std::string value(env);
            if (value == "smoke")
                return BenchScale::Smoke;
            if (value == "fast")
                return BenchScale::Fast;
            if (value == "full")
                return BenchScale::Full;
            if (value == "paper")
                return BenchScale::Paper;
            std::fprintf(
                stderr,
                "warning: unknown QUCLEAR_SCALE '%s', using fast\n",
                value.c_str());
            return BenchScale::Fast;
        }
        if (const char *env = getEnv("QUCLEAR_FULL"))
            if (std::string(env) == "1")
                return BenchScale::Full;
        return BenchScale::Fast;
    }();
    return scale;
}

const char *
scaleName(BenchScale scale)
{
    switch (scale) {
      case BenchScale::Smoke: return "smoke";
      case BenchScale::Fast: return "fast";
      case BenchScale::Full: return "full";
      case BenchScale::Paper: return "paper";
    }
    return "fast";
}

bool
fullSuiteRequested()
{
    const BenchScale scale = selectedScale();
    return scale == BenchScale::Full || scale == BenchScale::Paper;
}

std::vector<std::string>
selectedBenchmarks()
{
    switch (selectedScale()) {
      case BenchScale::Smoke: return smokeBenchmarkNames();
      case BenchScale::Fast: return fastBenchmarkNames();
      case BenchScale::Full: return allBenchmarkNames();
      case BenchScale::Paper: {
        std::vector<std::string> names = allBenchmarkNames();
        const std::vector<std::string> extra = paperScaleBenchmarkNames();
        names.insert(names.end(), extra.begin(), extra.end());
        return names;
      }
    }
    return fastBenchmarkNames();
}

namespace {

/** Parse a non-negative integer env knob; @p fallback on any junk. */
uint32_t
envUint(const char *name, uint32_t fallback)
{
    const char *env = getEnv(name);
    if (!env || *env == '\0')
        return fallback;
    char *end = nullptr;
    const unsigned long value = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0' || value > 1024) {
        std::fprintf(stderr, "warning: ignoring %s='%s'\n", name, env);
        return fallback;
    }
    return static_cast<uint32_t>(value);
}

} // namespace

uint32_t
envThreads()
{
    return envUint("QUCLEAR_THREADS", 0);
}

uint32_t
envBlockParallelism()
{
    return envUint("QUCLEAR_BLOCK_PARALLELISM", 0);
}

QuClearOptions
envCompilerOptions()
{
    QuClearOptions options;
    options.extraction.threads = envThreads();
    options.extraction.blockParallelism = envBlockParallelism();
    return options;
}

void
writeCsvIfRequested(const std::string &name, const TablePrinter &table)
{
    const char *dir = getEnv("QUCLEAR_CSV_DIR");
    if (!dir)
        return;
    const std::string path = std::string(dir) + "/" + name + ".csv";
    std::ofstream out(path);
    if (out) {
        out << table.toCsv();
        std::printf("(csv written to %s)\n", path.c_str());
    }
}

PaperRow
paperRow(const std::string &name)
{
    if (name == "UCC-(2,4)")
        return { 24, 128, 264, 23, 17 };
    if (name == "UCC-(2,6)")
        return { 80, 544, 944, 106, 82 };
    if (name == "UCC-(4,8)")
        return { 320, 2624, 3968, 448, 335 };
    if (name == "UCC-(6,12)")
        return { 1656, 18048, 21096, 2580, 1832 };
    if (name == "UCC-(8,16)")
        return { 5376, 72960, 69120, 8820, 6153 };
    if (name == "UCC-(10,20)")
        return { 13400, 217600, 173000, 24302, 15979 };
    if (name == "LiH")
        return { 61, 254, 421, 74, 60 };
    if (name == "H2O")
        return { 184, 1088, 1624, 274, 189 };
    if (name == "benzene")
        return { 1254, 10060, 12390, 2470, 1481 };
    if (name == "LABS-(n10)")
        return { 80, 340, 100, 106, 76 };
    if (name == "LABS-(n15)")
        return { 267, 1316, 297, 385, 255 };
    if (name == "LABS-(n20)")
        return { 635, 3330, 675, 1052, 679 };
    if (name == "MaxCut-(n15,r4)")
        return { 45, 60, 75, 68, 32 };
    if (name == "MaxCut-(n20,r4)")
        return { 60, 80, 100, 88, 34 };
    if (name == "MaxCut-(n20,r8)")
        return { 100, 160, 140, 129, 59 };
    if (name == "MaxCut-(n20,r12)")
        return { 140, 240, 180, 172, 93 };
    if (name == "MaxCut-(n10,e12)")
        return { 22, 24, 42, 26, 21 };
    if (name == "MaxCut-(n15,e63)")
        return { 78, 126, 108, 93, 51 };
    if (name == "MaxCut-(n20,e117)")
        return { 137, 234, 177, 146, 65 };
    return { 0, 0, 0, 0, 0 };
}

BenchReport::BenchReport(const std::string &harness,
                         const std::string &title)
    : harness_(harness), doc_(JsonValue::object())
{
    doc_["schema"] = "quclear-bench-artifact/v1";
    doc_["harness"] = harness;
    doc_["title"] = title;
    doc_["git_sha"] = gitSha();
    doc_["scale"] = scaleName(selectedScale());
    doc_["config"] = JsonValue::object();
    // Effective threading knobs for this run (tools/reproduce
    // --threads): output-invariant, but they explain the `seconds`
    // columns when comparing artifacts across machines.
    doc_["config"]["threads"] = envThreads();
    doc_["config"]["block_parallelism"] = envBlockParallelism();
    doc_["rows"] = JsonValue::array();
    doc_["summary"] = JsonValue::object();
}

JsonValue &
BenchReport::config()
{
    return doc_["config"];
}

JsonValue &
BenchReport::summary()
{
    return doc_["summary"];
}

JsonValue &
BenchReport::addRow(const std::string &benchmark_name,
                    const Benchmark *instance)
{
    JsonValue &row = doc_["rows"].append(JsonValue::object());
    row["benchmark"] = benchmark_name;
    if (instance) {
        row["qubits"] = instance->numQubits;
        row["terms"] = instance->terms.size();
    }
    const PaperRow paper = paperRow(benchmark_name);
    if (paper.paulis != 0) {
        JsonValue &ref = row["paper"];
        ref["paulis"] = paper.paulis;
        ref["native_cnot"] = paper.nativeCnot;
        ref["native_1q"] = paper.native1q;
        ref["quclear_cnot"] = paper.quclearCnot;
        ref["quclear_depth"] = paper.quclearDepth;
    }
    row["results"] = JsonValue::object();
    return row;
}

std::string
BenchReport::write() const
{
    const std::string path =
        artifactDirectory() + "/BENCH_" + harness_ + ".json";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return "";
    }
    out << doc_.dump();
    std::printf("(json artifact written to %s)\n", path.c_str());
    return path;
}

std::string
artifactDirectory()
{
    const char *dir = getEnv("QUCLEAR_ARTIFACT_DIR");
    return dir ? std::string(dir) : std::string(".");
}

std::string
gitSha()
{
    if (const char *env = getEnv("QUCLEAR_GIT_SHA"))
        return env;
    return QUCLEAR_GIT_SHA;
}

} // namespace quclear::bench
