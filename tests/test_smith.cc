/**
 * @file
 * Tests of the scalehls-smith generator and differential oracle: the
 * generator is a pure function of (config, seed) and covers the
 * buffer-ownership classes, the production evaluator agrees with the
 * uncached reference on healthy samples and reaches every decision
 * class, an intentionally corrupted PLAN entry is caught, and
 * reproducer records replay exactly.
 */

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "smith/generator.h"
#include "smith/oracle.h"

namespace scalehls {
namespace {

SmithOracleConfig
quickOracle()
{
    SmithOracleConfig config;
    config.pointsPerSample = 4;
    config.threads = 2;
    return config;
}

TEST(SmithGenerator, DeterministicPerSeed)
{
    SmithGenConfig config;
    for (uint64_t seed : {1ull, 17ull, 123456789ull}) {
        SmithSample a = generateSmithSample(config, seed);
        SmithSample b = generateSmithSample(config, seed);
        EXPECT_EQ(a.source, b.source) << "seed " << seed;
        EXPECT_EQ(a.printed, b.printed) << "seed " << seed;
        EXPECT_EQ(a.shape, b.shape) << "seed " << seed;
    }
}

TEST(SmithGenerator, CoversTheOwnershipClasses)
{
    // Every sample verifies at birth (generateSmithSample throws on a
    // verifier finding), and a modest seed range exercises several
    // distinct ownership scenarios plus decorated variants.
    SmithGenConfig config;
    std::set<std::string> scenarios;
    bool saw_decoration = false;
    for (uint64_t seed = 0; seed < 40; ++seed) {
        SmithSample sample = generateSmithSample(config, seed);
        EXPECT_NE(sample.module, nullptr);
        EXPECT_FALSE(sample.printed.empty());
        scenarios.insert(sample.shape.substr(0, sample.shape.find('+')));
        saw_decoration |= sample.shape.find('+') != std::string::npos;
    }
    EXPECT_GE(scenarios.size(), 4u) << "too few ownership scenarios";
    EXPECT_TRUE(saw_decoration) << "no directive-bearing variants";
}

TEST(SmithGenerator, ConfigGatesTheRiskyShapes)
{
    SmithGenConfig config;
    config.allowCalls = false;
    config.allowDataflowTop = false;
    config.allowDirectives = false;
    config.allowDeadAllocs = false;
    for (uint64_t seed = 0; seed < 30; ++seed) {
        SmithSample sample = generateSmithSample(config, seed);
        EXPECT_EQ(sample.shape.find("Escaping"), std::string::npos);
        EXPECT_EQ(sample.shape.find('+'), std::string::npos)
            << sample.shape;
        EXPECT_EQ(sample.source.find("smith_sink"), std::string::npos);
    }
}

TEST(SmithOracle, ProductionMatchesReferenceOnHealthySamples)
{
    SmithGenConfig gen;
    SmithOracleConfig oracle = quickOracle();
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        SmithSample sample = generateSmithSample(gen, seed);
        SmithOracleResult result = runSmithOracle(sample, oracle);
        EXPECT_GT(result.points, 0u) << "seed " << seed;
        EXPECT_GT(result.evaluations, result.points) << "seed " << seed;
        for (const auto &d : result.divergences)
            ADD_FAILURE() << "seed " << seed << " [" << d.path << "] "
                          << d.detail;
    }
}

TEST(SmithOracle, EveryDecisionClassIsExercised)
{
    // Over a fixed slice of the CI corpus (scalehls-smith --corpus 100
    // --seed 1 draws seeds 1000003 + i), the production evaluator must
    // decide misses through every class at least once, so a change
    // cannot silently route the fuzzer around a path.
    SmithGenConfig gen;
    SmithOracleConfig oracle;
    oracle.threads = 2;
    DSEStats total;
    for (uint64_t i = 50; i < 60; ++i) {
        SmithSample sample = generateSmithSample(gen, 1000003ull + i);
        SmithOracleResult result = runSmithOracle(sample, oracle);
        for (const auto &d : result.divergences)
            ADD_FAILURE() << "sample " << i << " [" << d.path << "] "
                          << d.detail;
        total += result.decisions;
    }
    EXPECT_GT(total.fullMaterializations, 0u);
    EXPECT_GT(total.fastPathHits - total.planComposed, 0u); // Schedule.
    EXPECT_GT(total.planComposed, 0u);
    EXPECT_GT(total.overlayMaterializations, 0u);
    EXPECT_GT(total.planInfeasible, 0u);
}

TEST(SmithOracle, CorruptedPlanEntryIsCaught)
{
    // The harness self-test invariant: poison one PLAN-tier entry and
    // the system must detect it (digest-mismatch fallback or audit
    // finding) while still answering with the reference QoR. Not every
    // sample is plan-eligible, so scan for an applicable one.
    SmithGenConfig gen;
    SmithOracleConfig oracle = quickOracle();
    oracle.corruptPlan = true;
    bool found = false;
    for (uint64_t seed = 1; seed <= 60 && !found; ++seed) {
        SmithSample sample = generateSmithSample(gen, seed);
        SmithOracleResult result = runSmithOracle(sample, oracle);
        if (!result.corruptionApplicable)
            continue;
        found = true;
        EXPECT_TRUE(result.corruptionCaught) << "seed " << seed;
        for (const auto &d : result.divergences)
            ADD_FAILURE() << "corruption leaked a wrong answer: ["
                          << d.path << "] " << d.detail;
    }
    EXPECT_TRUE(found) << "no plan-eligible sample in 60 seeds";
}

TEST(SmithOracle, ReproducerReplaysExactly)
{
    SmithGenConfig gen;
    SmithOracleConfig oracle = quickOracle();
    SmithSample sample = generateSmithSample(gen, 5);
    SmithDivergence divergence{"test@1t", "synthetic record", {0, 1}};
    std::string json = reproducerJson(sample, oracle, divergence);

    std::string report;
    SmithOracleResult result;
    ASSERT_TRUE(replayReproducer(json, &report, &result)) << report;
    EXPECT_NE(report.find("matches the recorded print"),
              std::string::npos)
        << report;
    EXPECT_GT(result.points, 0u);
    EXPECT_TRUE(result.divergences.empty()) << report;
}

TEST(SmithOracle, ReplayRejectsGeneratorDrift)
{
    // A reproducer whose recorded module no longer matches what its
    // (config, seed) regenerates must be refused, not silently re-run
    // against different IR. Simulate drift by rewriting the seed while
    // keeping the recorded print.
    SmithGenConfig gen;
    SmithOracleConfig oracle = quickOracle();
    SmithSample sample = generateSmithSample(gen, 5);
    SmithDivergence divergence{"test@1t", "synthetic record", {}};
    std::string json = reproducerJson(sample, oracle, divergence);

    std::string needle = "\"seed\":5";
    auto pos = json.find(needle);
    ASSERT_NE(pos, std::string::npos);
    std::string tampered =
        json.substr(0, pos) + "\"seed\":6" +
        json.substr(pos + needle.size());

    std::string report;
    EXPECT_FALSE(replayReproducer(tampered, &report, nullptr));
    EXPECT_NE(report.find("generator drift"), std::string::npos)
        << report;
}

TEST(SmithOracle, MalformedReproducerIsRefused)
{
    std::string report;
    EXPECT_FALSE(replayReproducer("not json", &report, nullptr));
    EXPECT_FALSE(replayReproducer("{\"version\":2}", &report, nullptr));
    EXPECT_FALSE(replayReproducer("{\"version\":1}", &report, nullptr));
}

} // namespace
} // namespace scalehls
