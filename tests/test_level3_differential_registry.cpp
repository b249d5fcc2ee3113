/**
 * @file
 * PhaseRotationFolding and CommutativeCancellation against the direct
 * forms of tests/reference_level3.hpp on the benchmark registry: the
 * U' and the extracted tail of every Table II and paper-scale row go
 * through the level3 pipeline, and both passes are checked bit for bit
 * on every input they meet there. U' also goes through the
 * rotation-preserving CommutativeCancellation(false) of
 * ParameterizedProgram.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "core/clifford_extractor.hpp"
#include "reference_level3.hpp"

namespace quclear {
namespace {

std::vector<std::string>
registryRows()
{
    std::vector<std::string> rows = allBenchmarkNames();
    for (const std::string &name : paperScaleBenchmarkNames())
        rows.push_back(name);
    return rows;
}

class RegistryLevel3 : public ::testing::TestWithParam<std::string>
{};

TEST_P(RegistryLevel3, BitIdenticalToDirectReference)
{
    const Benchmark bench = makeBenchmark(GetParam());
    ExtractionConfig config;
    config.threads = 1;
    const ExtractionResult result = CliffordExtractor(config).run(bench.terms);
    {
        SCOPED_TRACE("U'");
        expectLevel3MatchesReference(result.optimized);
    }
    {
        SCOPED_TRACE("U' without rotation merging");
        QuantumCircuit work = result.optimized;
        expectPassMatchesReference(
            CommutativeCancellation(false),
            [](QuantumCircuit &c) {
                return referenceCommutativeCancellation(c, false);
            },
            work);
    }
    {
        SCOPED_TRACE("tail");
        expectLevel3MatchesReference(result.extractedClifford);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, RegistryLevel3, ::testing::ValuesIn(registryRows()),
    [](const ::testing::TestParamInfo<std::string> &param) {
        std::string id;
        for (char c : param.param)
            if (std::isalnum(static_cast<unsigned char>(c)))
                id += c;
        return id;
    });

} // namespace
} // namespace quclear
