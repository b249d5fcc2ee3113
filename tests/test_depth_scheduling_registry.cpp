/**
 * @file
 * DepthScheduling on compiled registry instances: the scheduled order
 * of each U' must be bit-identical to the all-pairs reference, and the
 * two rows too large for the reference must still schedule without
 * raising entangling depth.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "benchgen/suite.hpp"
#include "circuit/circuit_stats.hpp"
#include "core/quclear.hpp"
#include "reference_depth_scheduling.hpp"
#include "transpile/depth_scheduling.hpp"

namespace quclear {
namespace {

/** U' of a registry row as QuClear::compile leaves it before scheduling. */
QuantumCircuit
unscheduledOptimized(const std::string &name)
{
    QuClearOptions options;
    options.extraction.threads = 1;
    options.optimizeDepth = false;
    const Benchmark bench = makeBenchmark(name);
    return QuClear(options).compile(bench.terms).extraction.optimized;
}

class RegistryDepthScheduling : public ::testing::TestWithParam<std::string>
{};

TEST_P(RegistryDepthScheduling, BitIdenticalToAllPairsReference)
{
    const QuantumCircuit u = unscheduledOptimized(GetParam());
    ASSERT_LE(u.size(), 20000u);
    const QuantumCircuit fast = DepthScheduling::schedule(u);
    EXPECT_EQ(fast.gates(), referenceDepthSchedule(u).gates());
    EXPECT_EQ(fast.size(), u.size());
}

INSTANTIATE_TEST_SUITE_P(
    Rows, RegistryDepthScheduling,
    ::testing::Values("UCC-(6,12)", "benzene", "LABS-(n30)", "LABS-(n25)",
                      "MaxCut-(n15,r4)", "MaxCut-(n20,r4)", "MaxCut-(n20,r8)",
                      "MaxCut-(n20,r12)", "MaxCut-(n30,r4)",
                      "MaxCut-(n10,e12)", "MaxCut-(n15,e63)",
                      "MaxCut-(n20,e117)"),
    [](const ::testing::TestParamInfo<std::string> &param) {
        std::string id;
        for (char c : param.param)
            if (std::isalnum(static_cast<unsigned char>(c)))
                id += c;
        return id;
    });

TEST(RegistryDepthSchedulingLarge, ScheduledAboveTheOldCutoff)
{
    // Both rows exceed the 20000-gate cutoff the scheduler used to need.
    for (const char *name : { "UCC-(8,16)", "naphthalene" }) {
        const QuantumCircuit u = unscheduledOptimized(name);
        EXPECT_GT(u.size(), 20000u) << name;
        QuantumCircuit scheduled = u;
        EXPECT_TRUE(DepthScheduling().run(scheduled)) << name;
        EXPECT_LT(entanglingDepth(scheduled), entanglingDepth(u)) << name;
        EXPECT_EQ(scheduled.size(), u.size()) << name;
    }
}

} // namespace
} // namespace quclear
