/**
 * @file
 * The extractor's pattern-table block loop against the direct block
 * loop of tests/reference_extraction.hpp on the benchmark registry:
 * every Table II row and every paper-scale row except UCC-(12,24)
 * (35,136 terms, too slow for the quadratic reference), at the default
 * configuration and with plain Algorithm 1 trees, bit for bit.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "core/clifford_extractor.hpp"
#include "reference_extraction.hpp"

namespace quclear {
namespace {

std::vector<std::string>
registryRows()
{
    std::vector<std::string> rows = allBenchmarkNames();
    for (const std::string &name : paperScaleBenchmarkNames())
        if (name != "UCC-(12,24)")
            rows.push_back(name);
    return rows;
}

class RegistryExtraction : public ::testing::TestWithParam<std::string>
{};

TEST_P(RegistryExtraction, BitIdenticalToDirectReference)
{
    const Benchmark bench = makeBenchmark(GetParam());
    // The default, and plain Algorithm 1 (no exhaustive search).
    for (uint32_t exhaustive : { 4u, 0u }) {
        ExtractionConfig config;
        config.threads = 1;
        config.tree.exhaustiveThreshold = exhaustive;
        SCOPED_TRACE("exhaustiveThreshold=" + std::to_string(exhaustive));
        expectSameExtraction(CliffordExtractor(config).run(bench.terms),
                             referenceExtract(bench.terms, config));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, RegistryExtraction, ::testing::ValuesIn(registryRows()),
    [](const ::testing::TestParamInfo<std::string> &param) {
        std::string id;
        for (char c : param.param)
            if (std::isalnum(static_cast<unsigned char>(c)))
                id += c;
        return id;
    });

} // namespace
} // namespace quclear
