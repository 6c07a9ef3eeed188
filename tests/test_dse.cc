/** @file Tests for the DSE engine: Pareto utilities, design space
 * construction, PCA and the 5-step search. */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "api/scalehls.h"
#include "ir/builder.h"
#include "dse/dse_engine.h"
#include "dse/pca.h"
#include "frontend/irgen.h"
#include "model/dnn_dse.h"
#include "model/polybench.h"

namespace scalehls {
namespace {

TEST(Pareto, Dominance)
{
    QoRPoint a{10, 5};
    QoRPoint b{20, 5};
    QoRPoint c{10, 5};
    QoRPoint d{5, 10};
    EXPECT_TRUE(dominates(a, b));
    EXPECT_FALSE(dominates(b, a));
    EXPECT_FALSE(dominates(a, c)); // Equal points do not dominate.
    EXPECT_FALSE(dominates(a, d)); // Incomparable.
    EXPECT_FALSE(dominates(d, a));
}

TEST(Pareto, FrontierExtraction)
{
    std::vector<QoRPoint> points = {
        {100, 1}, {50, 2}, {50, 3}, {10, 10}, {10, 12}, {5, 100}, {200, 1},
    };
    auto frontier = paretoIndices(points);
    // Expected frontier: (5,100), (10,10), (50,2), (100,1).
    ASSERT_EQ(frontier.size(), 4u);
    EXPECT_EQ(points[frontier[0]].latency, 5);
    EXPECT_EQ(points[frontier[1]].latency, 10);
    EXPECT_EQ(points[frontier[1]].area, 10);
    EXPECT_EQ(points[frontier[2]].latency, 50);
    EXPECT_EQ(points[frontier[2]].area, 2);
    EXPECT_EQ(points[frontier[3]].latency, 100);
}

TEST(Pareto, FrontierIsMutuallyNonDominated)
{
    std::vector<QoRPoint> points;
    std::mt19937 rng(7);
    for (int i = 0; i < 200; ++i)
        points.push_back({static_cast<int64_t>(rng() % 1000 + 1),
                          static_cast<int64_t>(rng() % 1000 + 1)});
    auto frontier = paretoIndices(points);
    for (size_t a : frontier)
        for (size_t b : frontier)
            if (a != b)
                EXPECT_FALSE(dominates(points[a], points[b]));
    // Every non-frontier point is dominated by some frontier point.
    for (size_t i = 0; i < points.size(); ++i) {
        bool on_frontier = std::find(frontier.begin(), frontier.end(),
                                     i) != frontier.end();
        if (on_frontier)
            continue;
        bool dominated_or_tied = false;
        for (size_t f : frontier)
            dominated_or_tied |= dominates(points[f], points[i]) ||
                                 (points[f].latency == points[i].latency &&
                                  points[f].area <= points[i].area);
        EXPECT_TRUE(dominated_or_tied) << "point " << i;
    }
}

TEST(Pareto, IdenticalPointsAllOnFrontier)
{
    // Equal points do not dominate() each other, so every member of an
    // identical-QoR tie group belongs to the frontier — dominates() and
    // paretoIndices() must agree on that.
    std::vector<QoRPoint> points = {
        {5, 5}, {5, 5}, {10, 1}, {5, 5}, {10, 1}, {20, 20}, {10, 3},
    };
    auto frontier = paretoIndices(points);
    std::set<size_t> selected(frontier.begin(), frontier.end());
    EXPECT_EQ(selected, (std::set<size_t>{0, 1, 2, 3, 4}));
    // Ascending (latency, area); ties in index order.
    ASSERT_EQ(frontier.size(), 5u);
    EXPECT_EQ(frontier[0], 0u);
    EXPECT_EQ(frontier[1], 1u);
    EXPECT_EQ(frontier[2], 3u);
    EXPECT_EQ(frontier[3], 2u);
    EXPECT_EQ(frontier[4], 4u);
}

TEST(Pareto, FrontierPropertyAndPermutationInvariance)
{
    // Property test over a tie-heavy random cloud: (a) no frontier point
    // is dominated by ANY input point, (b) every non-frontier point is
    // dominated by some frontier point, (c) the selected set of points
    // is invariant under permutation of the input.
    std::mt19937 rng(13);
    std::vector<QoRPoint> points;
    for (int i = 0; i < 150; ++i)
        points.push_back({static_cast<int64_t>(rng() % 20 + 1),
                          static_cast<int64_t>(rng() % 20 + 1)});

    auto frontier = paretoIndices(points);
    ASSERT_FALSE(frontier.empty());
    std::set<size_t> on_frontier(frontier.begin(), frontier.end());
    for (size_t f : frontier)
        for (size_t i = 0; i < points.size(); ++i)
            EXPECT_FALSE(dominates(points[i], points[f]))
                << i << " dominates frontier member " << f;
    for (size_t i = 0; i < points.size(); ++i) {
        if (on_frontier.count(i))
            continue;
        bool dominated = false;
        for (size_t f : frontier)
            dominated |= dominates(points[f], points[i]);
        EXPECT_TRUE(dominated) << "non-frontier point " << i;
    }

    for (unsigned trial = 0; trial < 4; ++trial) {
        std::vector<size_t> perm(points.size());
        std::iota(perm.begin(), perm.end(), size_t{0});
        std::shuffle(perm.begin(), perm.end(), rng);
        std::vector<QoRPoint> shuffled(points.size());
        for (size_t k = 0; k < perm.size(); ++k)
            shuffled[k] = points[perm[k]];
        auto frontier2 = paretoIndices(shuffled);
        std::set<size_t> mapped_back;
        for (size_t idx : frontier2)
            mapped_back.insert(perm[idx]);
        EXPECT_EQ(on_frontier, mapped_back) << "trial " << trial;
    }
}

TEST(DesignSpace, DimensionsFromKernel)
{
    auto module = parseCToModule(polybenchSource("gemm", 16));
    raiseScfToAffine(module.get());
    DesignSpaceOptions options;
    options.maxTileSize = 8;
    DesignSpace space(module.get(), options);
    // LP + RVB + perm + 3 tile dims + II.
    EXPECT_EQ(space.numDims(), 7u);
    EXPECT_EQ(space.bandDepth(), 3u);
    EXPECT_EQ(space.dimSizes()[2], 6); // 3! permutations.
    EXPECT_GT(space.spaceSize(), 1000.0);
}

TEST(DesignSpace, DecodeRoundTrip)
{
    auto module = parseCToModule(polybenchSource("gemm", 16));
    raiseScfToAffine(module.get());
    DesignSpace space(module.get());
    std::mt19937 rng(3);
    for (int i = 0; i < 20; ++i) {
        auto point = space.randomPoint(rng);
        auto decoded = space.decode(point);
        EXPECT_EQ(decoded.tileSizes.size(), 3u);
        EXPECT_GE(decoded.targetII, 1);
        for (int64_t t : decoded.tileSizes) {
            EXPECT_GE(t, 1);
            EXPECT_LE(t, 16);
            EXPECT_EQ(16 % t, 0); // Tile candidates divide the trip.
        }
    }
}

TEST(DesignSpace, NeighborsDifferByOne)
{
    auto module = parseCToModule(polybenchSource("syrk", 16));
    raiseScfToAffine(module.get());
    DesignSpace space(module.get());
    std::mt19937 rng(5);
    auto point = space.randomPoint(rng);
    for (const auto &neighbor : space.neighbors(point)) {
        int distance = 0;
        for (size_t i = 0; i < point.size(); ++i)
            distance += std::abs(neighbor[i] - point[i]);
        EXPECT_EQ(distance, 1);
    }
}

TEST(DesignSpace, MaterializeAndEvaluate)
{
    auto module = parseCToModule(polybenchSource("gemm", 16));
    raiseScfToAffine(module.get());
    DesignSpace space(module.get());
    // The all-zero point: no LP/RVB, identity perm, tiles 1, II 1.
    DesignSpace::Point zero(space.numDims(), 0);
    auto materialized = space.materialize(zero);
    ASSERT_NE(materialized, nullptr);
    CachingEvaluator evaluator(space);
    QoRResult qor = evaluator.evaluate(zero);
    EXPECT_TRUE(qor.feasible);
    EXPECT_GT(qor.latency, 0);
    // Evaluation is memoized: the second call is a cache hit, not a
    // re-materialization, and returns the identical result.
    QoRResult again = evaluator.evaluate(zero);
    EXPECT_EQ(evaluator.stats().materializations, 1u);
    EXPECT_EQ(evaluator.stats().memoHits, 1u);
    EXPECT_EQ(again.latency, qor.latency);
}

TEST(DesignSpace, MultiBandDimensions)
{
    auto module = parseCToModule(polybenchSource("2mm", 16));
    raiseScfToAffine(module.get());
    DesignSpace space(module.get());
    ASSERT_EQ(space.numBands(), 2u);
    // 2 switches + per band (1 permutation + 3 tile dims + 1 II).
    EXPECT_EQ(space.numDims(), 12u);
    EXPECT_EQ(space.bandDepth(0), 3u);
    EXPECT_EQ(space.bandDepth(1), 3u);
    EXPECT_EQ(space.dimSizes()[space.dimPermutation(0)], 6);
    EXPECT_EQ(space.dimSizes()[space.dimPermutation(1)], 6);
    EXPECT_LT(space.dimTargetII(0), space.dimPermutation(1));

    auto decoded = space.decode(DesignSpace::Point(space.numDims(), 0));
    ASSERT_EQ(decoded.bands.size(), 2u);
    for (const auto &choice : decoded.bands) {
        EXPECT_EQ(choice.permMap.size(), 3u);
        EXPECT_EQ(choice.tileSizes.size(), 3u);
        EXPECT_EQ(choice.targetII, 1);
    }
    // The primary-band mirror reports one of the (equal-depth) bands.
    EXPECT_EQ(decoded.tileSizes.size(), 3u);

    // The zero point materializes with BOTH bands pipelined.
    auto materialized =
        space.materialize(DesignSpace::Point(space.numDims(), 0));
    ASSERT_NE(materialized, nullptr);
    size_t pipelined = 0;
    materialized->walk([&](Operation *op) {
        pipelined += getLoopDirective(op).pipeline ? 1 : 0;
    });
    EXPECT_EQ(pipelined, 2u);

    // Tuning one band's tile dimension leaves the other band's subtree
    // untouched (the property the band-level estimate cache exploits).
    // Tiling needs a perfect nest, so both points turn perfectization on.
    DesignSpace::Point base(space.numDims(), 0);
    base[space.dimLoopPerfectization()] = 1;
    DesignSpace::Point tiled = base;
    tiled[space.dimFirstTile(1)] =
        space.dimSizes()[space.dimFirstTile(1)] - 1;
    materialized = space.materialize(base);
    ASSERT_NE(materialized, nullptr);
    auto variant = space.materialize(tiled);
    ASSERT_NE(variant, nullptr);
    auto count_unrolled = [](Operation *module) {
        std::vector<size_t> stores_per_band;
        Operation *func = getTopFunc(module);
        for (auto &band : getLoopBands(func)) {
            size_t stores = 0;
            band[0]->walk([&](Operation *op) {
                stores += op->is(ops::AffineStore) ? 1 : 0;
            });
            stores_per_band.push_back(stores);
        }
        return stores_per_band;
    };
    auto base_stores = count_unrolled(materialized.get());
    auto variant_stores = count_unrolled(variant.get());
    ASSERT_EQ(base_stores.size(), 2u);
    ASSERT_EQ(variant_stores.size(), 2u);
    EXPECT_EQ(base_stores[0], variant_stores[0]);
    EXPECT_GT(variant_stores[1], base_stores[1]);
}

TEST(DSEEngine, MultiBandCachedDseMatchesUncachedReference)
{
    // 2mm DSE through the production evaluator (every cache tier) vs
    // the uncached reference: bit-identical trajectories and frontiers
    // (every tier is content-keyed). The cached run consults the band
    // tier and answers some misses without a full materialization; the
    // reference has no cache traffic and materializes every miss.
    auto module = parseCToModule(polybenchSource("2mm", 8));
    raiseScfToAffine(module.get());
    DesignSpaceOptions space_options;
    space_options.maxTileSize = 4;
    space_options.maxTotalUnroll = 16;

    auto run = [&](bool cached) {
        DesignSpace space(module.get(), space_options);
        DSEOptions options;
        options.numInitialSamples = 15;
        options.maxIterations = 30;
        options.numThreads = 2;
        options.crossPointCache = cached;
        EstimateCache cache;
        if (cached)
            options.sharedEstimates = &cache;
        DSEEngine engine(space, options);
        auto frontier = engine.explore();
        const DSEStats &stats = engine.stats();
        if (cached) {
            EXPECT_GT(cache.bandStats().lookups(), 0u);
            EXPECT_LT(stats.fullMaterializations, stats.materializations);
        } else {
            EXPECT_EQ(stats.fullMaterializations, stats.materializations);
            EXPECT_EQ(stats.planComposed, 0u);
            EXPECT_EQ(stats.fastPathHits, 0u);
            EXPECT_EQ(stats.overlayMaterializations, 0u);
        }
        return std::make_pair(frontier, engine.evaluated());
    };

    auto [frontier_on, evaluated_on] = run(true);
    auto [frontier_off, evaluated_off] = run(false);

    ASSERT_EQ(frontier_on.size(), frontier_off.size());
    for (size_t i = 0; i < frontier_on.size(); ++i) {
        EXPECT_EQ(frontier_on[i].point, frontier_off[i].point);
        EXPECT_EQ(frontier_on[i].qor.latency,
                  frontier_off[i].qor.latency);
        EXPECT_EQ(frontier_on[i].qor.interval,
                  frontier_off[i].qor.interval);
        EXPECT_EQ(frontier_on[i].qor.resources.dsp,
                  frontier_off[i].qor.resources.dsp);
        EXPECT_EQ(frontier_on[i].qor.resources.lut,
                  frontier_off[i].qor.resources.lut);
    }
    ASSERT_EQ(evaluated_on.size(), evaluated_off.size());
    for (size_t i = 0; i < evaluated_on.size(); ++i) {
        EXPECT_EQ(evaluated_on[i].point, evaluated_off[i].point);
        EXPECT_EQ(evaluated_on[i].qor.latency,
                  evaluated_off[i].qor.latency);
    }
}

TEST(DSEEngine, StatsAccountForEveryMissAndMatchRunDSE)
{
    // The one counter list on a cached 2mm DSE: every memo miss is
    // decided by exactly one path, and runDSE reports the engine's
    // stats() snapshot field by field. Which path decides a miss can
    // depend on worker interleaving (a sibling may publish a schedule
    // entry first), so at 2 threads only the trajectory counters are
    // compared across the two runs.
    auto module = parseCToModule(polybenchSource("2mm", 8));
    raiseScfToAffine(module.get());
    DesignSpaceOptions space_options;
    space_options.maxTileSize = 4;
    space_options.maxTotalUnroll = 16;
    const std::set<std::string> trajectory = {
        "evaluations", "memo_hits", "materializations", "batch_dedups"};

    for (unsigned threads : {1u, 2u}) {
        DSEOptions options;
        options.numInitialSamples = 15;
        options.maxIterations = 30;
        options.numThreads = threads;
        DesignSpace space(module.get(), space_options);
        DSEEngine engine(space, options);
        engine.explore();
        const DSEStats &stats = engine.stats();
        EXPECT_GT(stats.evaluations, 0u);
        EXPECT_EQ(stats.materializations,
                  stats.fullMaterializations + stats.planComposed +
                      stats.overlayMaterializations + stats.planInfeasible)
            << threads << " threads";
        EXPECT_EQ(stats.fastPathHits, stats.planComposed)
            << threads << " threads";

        auto result =
            runDSE(module.get(), xc7z020(), space_options, options);
        ASSERT_TRUE(result);
        DSEStats::forEachField(
            [&](const char *name, size_t expected, size_t actual) {
                if (threads == 1 || trajectory.count(name)) {
                    EXPECT_EQ(actual, expected)
                        << name << " at " << threads << " threads";
                }
            },
            stats, *result);
    }
}

TEST(DSEEngine, FindsBetterThanBaseline)
{
    auto module = parseCToModule(polybenchSource("gemm", 32));
    raiseScfToAffine(module.get());

    QoREstimator base_estimator(module.get());
    int64_t baseline = base_estimator.estimateModule().latency;

    DesignSpaceOptions space_options;
    space_options.maxTileSize = 8;
    space_options.maxTotalUnroll = 64;
    DesignSpace space(module.get(), space_options);
    DSEOptions options;
    options.numInitialSamples = 30;
    options.maxIterations = 60;
    DSEEngine engine(space, options);
    auto frontier = engine.explore();
    ASSERT_FALSE(frontier.empty());

    // Frontier sorted by latency and mutually non-dominated.
    for (size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_LE(frontier[i - 1].qor.latency, frontier[i].qor.latency);
        EXPECT_GE(areaOf(frontier[i - 1].qor.resources),
                  areaOf(frontier[i].qor.resources));
    }

    auto best = DSEEngine::finalize(frontier, xc7z020());
    ASSERT_TRUE(best);
    EXPECT_LT(best->qor.latency, baseline / 4);
    EXPECT_TRUE(best->qor.fits(xc7z020()));
}

TEST(DSEEngine, RunDSEProducesModule)
{
    auto module = parseCToModule(polybenchSource("syrk", 16));
    raiseScfToAffine(module.get());
    DesignSpaceOptions space_options;
    space_options.maxTileSize = 4;
    space_options.maxTotalUnroll = 16;
    DSEOptions options;
    options.numInitialSamples = 20;
    options.maxIterations = 30;
    auto result = runDSE(module.get(), xc7z020(), space_options, options);
    ASSERT_TRUE(result);
    ASSERT_NE(result->module, nullptr);
    EXPECT_GT(result->evaluations, 20u);
    // The materialized design carries a pipelined loop.
    bool has_pipeline = false;
    result->module->walk([&](Operation *op) {
        has_pipeline |= getLoopDirective(op).pipeline;
    });
    EXPECT_TRUE(has_pipeline);
}

TEST(DSEEngine, ZeroTripTrmmDesignIsVerified)
{
    // trmm at n=1 once lost its alpha store to a perfectization into the
    // zero-trip k loop: the re-materialized winner then disagreed with
    // the explored QoR.
    auto module = parseCToModule(polybenchSource("trmm", 1));
    raiseScfToAffine(module.get());
    DSEOptions options;
    options.numInitialSamples = 4;
    options.maxIterations = 4;
    auto result = runDSE(module.get(), xc7z020(), {}, options);
    ASSERT_TRUE(result);
    EXPECT_TRUE(result->qorVerified);
    EXPECT_TRUE(result->qor.feasible);
    EXPECT_LT(result->qor.latency, kInfeasibleQoR);
}

TEST(DSEEngine, DeterministicAcrossThreadCounts)
{
    // The Pareto frontier (and the full evaluated trajectory) of a
    // 4-thread run must be bit-identical to the 1-thread run at the same
    // seed: batches are proposed single-threaded and merged in proposal
    // order, so the thread count only changes wall-clock.
    auto module = parseCToModule(polybenchSource("gemm", 16));
    raiseScfToAffine(module.get());
    DesignSpaceOptions space_options;
    space_options.maxTileSize = 8;
    space_options.maxTotalUnroll = 64;

    auto run = [&](unsigned threads) {
        DesignSpace space(module.get(), space_options);
        DSEOptions options;
        options.numInitialSamples = 25;
        options.maxIterations = 50;
        options.numThreads = threads;
        DSEEngine engine(space, options);
        auto frontier = engine.explore();
        return std::make_pair(frontier, engine.evaluated());
    };

    auto [frontier1, evaluated1] = run(1);
    auto [frontier4, evaluated4] = run(4);

    ASSERT_EQ(frontier1.size(), frontier4.size());
    for (size_t i = 0; i < frontier1.size(); ++i) {
        EXPECT_EQ(frontier1[i].point, frontier4[i].point);
        EXPECT_EQ(frontier1[i].qor.latency, frontier4[i].qor.latency);
        EXPECT_EQ(frontier1[i].qor.interval, frontier4[i].qor.interval);
        EXPECT_EQ(frontier1[i].qor.resources.dsp,
                  frontier4[i].qor.resources.dsp);
        EXPECT_EQ(frontier1[i].qor.resources.lut,
                  frontier4[i].qor.resources.lut);
    }
    ASSERT_EQ(evaluated1.size(), evaluated4.size());
    for (size_t i = 0; i < evaluated1.size(); ++i) {
        EXPECT_EQ(evaluated1[i].point, evaluated4[i].point);
        EXPECT_EQ(evaluated1[i].qor.latency, evaluated4[i].qor.latency);
    }
}

TEST(Evaluator, BatchCacheHitsAreNotRematerialized)
{
    auto module = parseCToModule(polybenchSource("syrk", 16));
    raiseScfToAffine(module.get());
    DesignSpace space(module.get());
    ThreadPool pool(2);
    CachingEvaluator evaluator(space, &pool);

    std::mt19937 rng(9);
    std::vector<DesignSpace::Point> batch;
    for (int i = 0; i < 6; ++i)
        batch.push_back(space.randomPoint(rng));

    auto first = evaluator.evaluateBatch(batch);
    size_t materialized = evaluator.stats().materializations;
    EXPECT_LE(materialized, batch.size());
    EXPECT_GE(materialized, 1u);

    // Re-evaluating the same batch must be pure cache traffic...
    auto second = evaluator.evaluateBatch(batch);
    EXPECT_EQ(evaluator.stats().materializations, materialized);
    EXPECT_GE(evaluator.stats().memoHits, batch.size());
    // ...and return identical results in input order.
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].latency, second[i].latency);
        EXPECT_EQ(first[i].feasible, second[i].feasible);
    }
}

TEST(Evaluator, InfeasibleEstimateCarriesSentinel)
{
    // A materializable point whose ESTIMATE is infeasible (here: the top
    // function reaches a recursive call cycle) must come back with the
    // kInfeasibleQoR sentinel, not with the estimator's internal
    // latency-1 placeholder — otherwise it would rank as the best design
    // in every latency comparison.
    auto module = parseCToModule(polybenchSource("gemm", 8));
    raiseScfToAffine(module.get());
    Operation *top = getTopFunc(module.get());

    Operation *spin_a = createFunc(module.get(), "spin_a", {});
    Operation *spin_b = createFunc(module.get(), "spin_b", {});
    auto append_call = [](Operation *func, const std::string &callee) {
        Block *body = funcBody(func);
        OpBuilder builder(body, body->back());
        builder.create(std::string(ops::Call), {}, {},
                       {{kCallee, Attribute(callee)}});
    };
    append_call(spin_a, "spin_b");
    append_call(spin_b, "spin_a");
    append_call(top, "spin_a");

    DesignSpace space(module.get());
    DesignSpace::Point zero(space.numDims(), 0);
    ASSERT_NE(space.materialize(zero), nullptr);

    CachingEvaluator evaluator(space);
    QoRResult qor = evaluator.evaluate(zero);
    EXPECT_FALSE(qor.feasible);
    EXPECT_EQ(qor.latency, kInfeasibleQoR);
    EXPECT_EQ(qor.interval, kInfeasibleQoR);
}

TEST(DSEEngine, EstimateCacheDoesNotChangeResults)
{
    // The cross-point estimate cache is content-keyed: running the same
    // exploration with and without it must give bit-identical frontiers
    // and trajectories.
    auto module = parseCToModule(polybenchSource("gemm", 16));
    raiseScfToAffine(module.get());
    DesignSpaceOptions space_options;
    space_options.maxTileSize = 8;
    space_options.maxTotalUnroll = 64;

    auto run = [&](bool cache) {
        DesignSpace space(module.get(), space_options);
        DSEOptions options;
        options.numInitialSamples = 25;
        options.maxIterations = 50;
        options.numThreads = 2;
        options.crossPointCache = cache;
        EstimateCache estimates;
        if (cache)
            options.sharedEstimates = &estimates;
        DSEEngine engine(space, options);
        auto frontier = engine.explore();
        const DSEStats &stats = engine.stats();
        if (cache) {
            EXPECT_GT(estimates.funcStats().lookups(), 0u);
        } else {
            EXPECT_EQ(stats.fullMaterializations, stats.materializations);
            EXPECT_EQ(stats.planComposed, 0u);
            EXPECT_EQ(stats.fastPathHits, 0u);
            EXPECT_EQ(stats.overlayMaterializations, 0u);
        }
        return std::make_pair(frontier, engine.evaluated());
    };

    auto [frontier_on, evaluated_on] = run(true);
    auto [frontier_off, evaluated_off] = run(false);

    ASSERT_EQ(frontier_on.size(), frontier_off.size());
    for (size_t i = 0; i < frontier_on.size(); ++i) {
        EXPECT_EQ(frontier_on[i].point, frontier_off[i].point);
        EXPECT_EQ(frontier_on[i].qor.latency,
                  frontier_off[i].qor.latency);
        EXPECT_EQ(frontier_on[i].qor.resources.lut,
                  frontier_off[i].qor.resources.lut);
    }
    ASSERT_EQ(evaluated_on.size(), evaluated_off.size());
    for (size_t i = 0; i < evaluated_on.size(); ++i) {
        EXPECT_EQ(evaluated_on[i].point, evaluated_off[i].point);
        EXPECT_EQ(evaluated_on[i].qor.latency,
                  evaluated_off[i].qor.latency);
    }
}

TEST(MultiKernelDSE, ConcurrentPerFunctionFlow)
{
    // Two independent kernels in one module: the per-function flow must
    // explore both concurrently and splice an optimized (pipelined)
    // version of each back into the module.
    std::string source = polybenchSource("gemm", 16);
    std::string second = polybenchSource("syrk", 16);
    Compiler compiler = Compiler::fromC(source + "\n" + second);

    int64_t baseline = compiler.estimate().latency;

    DSEOptions options;
    options.numInitialSamples = 20;
    options.maxIterations = 30;
    options.numThreads = 4;
    DesignSpaceOptions space_options;
    space_options.maxTileSize = 4;
    space_options.maxTotalUnroll = 16;
    ExploreRequest request;
    request.space = space_options;
    request.dse = options;
    ASSERT_FALSE(request.validate());
    auto results = compiler.optimizeFunctions(request);

    ASSERT_EQ(results.size(), 2u);
    std::set<std::string> names;
    for (const auto &r : results) {
        names.insert(r.func);
        EXPECT_TRUE(r.qor.feasible) << r.func;
        EXPECT_GT(r.evaluations, 20u);
        EXPECT_GT(r.qor.latency, 0);
    }
    EXPECT_EQ(names.size(), 2u);

    // Both kernels in the updated module carry a pipeline directive.
    size_t pipelined_funcs = 0;
    for (auto &op : compiler.module()->region(0).front().ops()) {
        if (!op->is(ops::Func))
            continue;
        bool has_pipeline = false;
        op->walk([&](Operation *inner) {
            has_pipeline |= getLoopDirective(inner).pipeline;
        });
        pipelined_funcs += has_pipeline;
    }
    EXPECT_EQ(pipelined_funcs, 2u);

    // The top function's QoR improved over the unoptimized baseline.
    EXPECT_LT(compiler.estimate().latency, baseline);
}

TEST(PCA, SeparatesClusters)
{
    // Two well-separated clusters in 4-D must stay separated in 2-D.
    std::vector<std::vector<double>> samples;
    std::mt19937 rng(11);
    std::normal_distribution<double> noise(0.0, 0.1);
    for (int i = 0; i < 50; ++i)
        samples.push_back({noise(rng), noise(rng) + 1, noise(rng),
                           noise(rng)});
    for (int i = 0; i < 50; ++i)
        samples.push_back({noise(rng) + 5, noise(rng) - 3,
                           noise(rng) + 2, noise(rng)});
    auto projected = pcaProject2D(samples);
    ASSERT_EQ(projected.size(), 100u);
    double mean0 = 0;
    double mean1 = 0;
    for (int i = 0; i < 50; ++i)
        mean0 += projected[i].first;
    for (int i = 50; i < 100; ++i)
        mean1 += projected[i].first;
    mean0 /= 50;
    mean1 /= 50;
    EXPECT_GT(std::abs(mean0 - mean1), 1.0);
}

TEST(PCA, HandlesDegenerateInput)
{
    std::vector<std::vector<double>> samples(10, {1.0, 1.0, 1.0});
    auto projected = pcaProject2D(samples);
    ASSERT_EQ(projected.size(), 10u);
    for (auto [x, y] : projected) {
        EXPECT_NEAR(x, 0.0, 1e-9);
        EXPECT_NEAR(y, 0.0, 1e-9);
    }
}

TEST(Evaluator, IncrementalFastPathMatchesSlowPath)
{
    // Cross product of the first two bands' II dials on the multi-band
    // generators: the border points introduce each band variant (full
    // materializations that seed the schedule tier); interior points
    // assemble COMBINATIONS never materialized before entirely from
    // cached per-band entries — and must come back bit-identical to the
    // full cleanup+partition+estimate pipeline.
    for (const char *kernel : {"2mm", "3mm"}) {
        auto module = parseCToModule(polybenchSource(kernel, 8));
        raiseScfToAffine(module.get());
        DesignSpace space(module.get());
        ASSERT_GE(space.numBands(), 2u);

        std::vector<DesignSpace::Point> points;
        DesignSpace::Point zero(space.numDims(), 0);
        for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b) {
                DesignSpace::Point p = zero;
                p[space.dimTargetII(0)] = a;
                p[space.dimTargetII(1)] = b;
                points.push_back(std::move(p));
            }

        CachingEvaluator reference(space); // No cache: always full path.
        EstimateCache cache;
        CachingEvaluator incremental(space, nullptr, &cache);
        for (const auto &p : points) {
            QoRResult ref = reference.evaluate(p);
            QoRResult fast = incremental.evaluate(p);
            EXPECT_EQ(ref.latency, fast.latency) << kernel;
            EXPECT_EQ(ref.interval, fast.interval) << kernel;
            EXPECT_EQ(ref.feasible, fast.feasible) << kernel;
            EXPECT_EQ(ref.resources.dsp, fast.resources.dsp) << kernel;
            EXPECT_EQ(ref.resources.lut, fast.resources.lut) << kernel;
            EXPECT_EQ(ref.resources.bram18k, fast.resources.bram18k)
                << kernel;
            EXPECT_EQ(ref.resources.memoryBits,
                      fast.resources.memoryBits)
                << kernel;
        }
        // Interior points skipped phase 2 entirely: strictly fewer full
        // materializations than evaluated points. Every uncached point
        // is served by exactly one of: the full pipeline, the planner's
        // zero-IR composition, an overlay materialization, or a zero-IR
        // infeasibility verdict.
        DSEStats stats = incremental.stats();
        EXPECT_GT(stats.fastPathHits, 0u) << kernel;
        EXPECT_EQ(stats.fastPathHits, stats.planComposed) << kernel;
        EXPECT_LT(stats.fullMaterializations, points.size()) << kernel;
        EXPECT_EQ(stats.fullMaterializations + stats.planComposed +
                      stats.overlayMaterializations + stats.planInfeasible,
                  points.size())
            << kernel;
        EXPECT_EQ(stats.planMismatches, 0u) << kernel;
        EXPECT_EQ(reference.stats().fullMaterializations, points.size())
            << kernel;
    }
}

TEST(Evaluator, PlannerCoversEveryZooAndPolybenchKernel)
{
    // Every kernel the benchmarks explore is plannable, so the planner
    // or the full pipeline decides each of its cache misses: the eight
    // PolyBench kernels, and every extracted DNN kernel of the model zoo
    // at every graph level (234 kernels).
    EstimateCache cache;
    std::vector<std::string> names = polybenchKernelNames();
    names.push_back("2mm");
    names.push_back("3mm");
    for (const std::string &name : names) {
        auto module = parseCToModule(polybenchSource(name, 16));
        raiseScfToAffine(module.get());
        DesignSpace space(module.get());
        EXPECT_TRUE(BandPlanner(space, &cache).enabled()) << name;
    }
    size_t dnn_kernels = 0;
    for (const char *model : {"resnet18", "mobilenet", "vgg16"})
        for (int level = 1; level <= 7; ++level)
            for (const DNNKernel &kernel :
                 buildDNNKernelModules(model, level)) {
                DesignSpace space(kernel.module.get());
                EXPECT_TRUE(BandPlanner(space, &cache).enabled())
                    << model << " level " << level << " " << kernel.name;
                ++dnn_kernels;
            }
    EXPECT_EQ(dnn_kernels, 234u);
}

TEST(Evaluator, BatchDedupMaterializesDuplicatesOnce)
{
    auto module = parseCToModule(polybenchSource("gemm", 16));
    raiseScfToAffine(module.get());
    DesignSpace space(module.get());
    CachingEvaluator evaluator(space);

    DesignSpace::Point zero(space.numDims(), 0);
    DesignSpace::Point other = zero;
    other[space.dimTargetII(0)] = 1;
    std::vector<DesignSpace::Point> batch = {zero, zero, other, zero,
                                             other};
    auto results = evaluator.evaluateBatch(batch);

    // Two unique points -> two materializations; the three duplicate
    // slots are served from their sibling's result.
    EXPECT_EQ(evaluator.stats().materializations, 2u);
    EXPECT_EQ(evaluator.stats().batchDedups, 3u);
    ASSERT_EQ(results.size(), batch.size());
    EXPECT_EQ(results[0].latency, results[1].latency);
    EXPECT_EQ(results[0].latency, results[3].latency);
    EXPECT_EQ(results[2].latency, results[4].latency);
}

/** Field-by-field QoR equality (shared by the fast-path tests below). */
void
expectIdenticalQoR(const QoRResult &a, const QoRResult &b,
                   const char *label)
{
    EXPECT_EQ(a.latency, b.latency) << label;
    EXPECT_EQ(a.interval, b.interval) << label;
    EXPECT_EQ(a.feasible, b.feasible) << label;
    EXPECT_EQ(a.resources.dsp, b.resources.dsp) << label;
    EXPECT_EQ(a.resources.lut, b.resources.lut) << label;
    EXPECT_EQ(a.resources.bram18k, b.resources.bram18k) << label;
    EXPECT_EQ(a.resources.memoryBits, b.resources.memoryBits) << label;
}

/** The II cross-product of a space's first two bands, border points
 * (first appearance of each band variant) before interior points. */
std::vector<DesignSpace::Point>
iiCrossProduct(const DesignSpace &space, int dials)
{
    std::vector<DesignSpace::Point> border;
    std::vector<DesignSpace::Point> interior;
    DesignSpace::Point zero(space.numDims(), 0);
    for (int a = 0; a < dials; ++a)
        for (int b = 0; b < dials; ++b) {
            DesignSpace::Point p = zero;
            p[space.dimTargetII(0)] = a;
            p[space.dimTargetII(1)] = b;
            (a == 0 || b == 0 ? border : interior)
                .push_back(std::move(p));
        }
    border.insert(border.end(), interior.begin(), interior.end());
    return border;
}

TEST(Evaluator, DataflowFastPathMatchesSlowPath)
{
    // A two-stage dataflow kernel whose channel buffer is a LOCAL alloc
    // crossing exactly one producer->consumer edge: the fast path must
    // replay the stage-overlap composition (interval = slowest stage)
    // and the double-buffered channel memory bit-identically.
    const char *source = "void pipe(float A[16][16], float B[16][16]) {\n"
                         "  float tmp[16][16];\n"
                         "  for (int i = 0; i < 16; i++)\n"
                         "    for (int j = 0; j < 16; j++)\n"
                         "      tmp[i][j] = A[i][j] * 2.0;\n"
                         "  for (int i = 0; i < 16; i++)\n"
                         "    for (int j = 0; j < 16; j++)\n"
                         "      B[i][j] = tmp[i][j] + 1.0;\n"
                         "}\n";
    auto module = parseCToModule(source);
    raiseScfToAffine(module.get());
    Operation *func = getTopFunc(module.get());
    FuncDirective fd = getFuncDirective(func);
    fd.dataflow = true;
    setFuncDirective(func, fd);

    DesignSpace space(module.get());
    ASSERT_EQ(space.numBands(), 2u);
    auto points = iiCrossProduct(space, 3);

    CachingEvaluator reference(space); // No cache: always full path.
    EstimateCache cache;
    CachingEvaluator incremental(space, nullptr, &cache);
    for (const auto &p : points) {
        QoRResult ref = reference.evaluate(p);
        QoRResult fast = incremental.evaluate(p);
        // Dataflow semantics reached the estimate: the interval is the
        // slowest stage, strictly below the sequential latency.
        EXPECT_LT(ref.interval, ref.latency);
        expectIdenticalQoR(ref, fast, "dataflow");
    }
    EXPECT_GT(incremental.stats().fastPathHits, 0u);
    EXPECT_LT(incremental.stats().fullMaterializations, points.size());
}

TEST(Evaluator, MultiConsumerDataflowFastPathMatchesSlowPath)
{
    // A broadcast channel under a dataflow top: one producer stage
    // writes tmp, TWO reader stages consume it. The ownership analysis
    // admits the MultiConsumer channel, so the fast path (and the
    // plan-first planner) must engage and still match the slow path
    // bit-for-bit, including the stage-overlap interval and the
    // double-buffered channel memory.
    const char *source =
        "void fanout(float A[16][16], float B[16][16],\n"
        "            float C[16][16]) {\n"
        "  float tmp[16][16];\n"
        "  for (int i = 0; i < 16; i++)\n"
        "    for (int j = 0; j < 16; j++)\n"
        "      tmp[i][j] = A[i][j] * 2.0;\n"
        "  for (int i = 0; i < 16; i++)\n"
        "    for (int j = 0; j < 16; j++)\n"
        "      B[i][j] = tmp[i][j] + 1.0;\n"
        "  for (int i = 0; i < 16; i++)\n"
        "    for (int j = 0; j < 16; j++)\n"
        "      C[i][j] = tmp[i][j] * 3.0;\n"
        "}\n";
    auto module = parseCToModule(source);
    raiseScfToAffine(module.get());
    Operation *func = getTopFunc(module.get());
    FuncDirective fd = getFuncDirective(func);
    fd.dataflow = true;
    setFuncDirective(func, fd);

    DesignSpace space(module.get());
    ASSERT_EQ(space.numBands(), 3u);
    auto points = iiCrossProduct(space, 3);

    CachingEvaluator reference(space); // No cache: always full path.
    EstimateCache cache;
    CachingEvaluator incremental(space, nullptr, &cache);
    for (const auto &p : points) {
        QoRResult ref = reference.evaluate(p);
        QoRResult fast = incremental.evaluate(p);
        EXPECT_LT(ref.interval, ref.latency);
        expectIdenticalQoR(ref, fast, "multi-consumer");
    }
    EXPECT_GT(incremental.stats().fastPathHits, 0u);
    EXPECT_LT(incremental.stats().fullMaterializations, points.size());
    EXPECT_EQ(incremental.stats().planMismatches, 0u);
}

TEST(Evaluator, PlanFirstComposesWarmPointsWithZeroIR)
{
    // Warm the PLAN and SCHEDULE tiers with one evaluator, then replay
    // the sweep through a FRESH evaluator (empty memo cache) sharing the
    // estimate cache: every point's QoR comes out of the plan tier
    // bit-identically without creating a single Operation — the
    // materializations-per-point floor of plan-first evaluation.
    auto module = parseCToModule(polybenchSource("2mm", 8));
    raiseScfToAffine(module.get());
    DesignSpace space(module.get());
    auto points = iiCrossProduct(space, 3);

    EstimateCache cache;
    CachingEvaluator warmup(space, nullptr, &cache);
    std::vector<QoRResult> expected;
    for (const auto &p : points)
        expected.push_back(warmup.evaluate(p));

    CachingEvaluator fresh(space, nullptr, &cache);
    size_t created_before = Operation::createdCount();
    for (size_t i = 0; i < points.size(); ++i)
        expectIdenticalQoR(expected[i], fresh.evaluate(points[i]),
                           "plan-replay");
    EXPECT_EQ(Operation::createdCount(), created_before);
    DSEStats stats = fresh.stats();
    EXPECT_EQ(stats.fullMaterializations, 0u);
    EXPECT_EQ(stats.overlayMaterializations, 0u);
    EXPECT_EQ(stats.planComposed + stats.planInfeasible, points.size());
    EXPECT_EQ(stats.planMismatches, 0u);
}

TEST(Evaluator, CanonicalDigestSharesEntriesAcrossSymmetricBands)
{
    // 3mm's first two stages are structurally identical gemms over
    // different arrays: the canonicalizing digest keys them to the SAME
    // schedule-tier entries, so one band's variants hit entries another
    // band recorded (crossBandHits) instead of materializing their own.
    auto module = parseCToModule(polybenchSource("3mm", 8));
    raiseScfToAffine(module.get());
    DesignSpace space(module.get());
    auto points = iiCrossProduct(space, 3);

    EstimateCache cache;
    CachingEvaluator reference(space); // No cache: always full path.
    CachingEvaluator incremental(space, nullptr, &cache);
    for (const auto &p : points)
        expectIdenticalQoR(reference.evaluate(p),
                           incremental.evaluate(p), "3mm-cross-band");
    EXPECT_GT(cache.crossBandHits(), 0u);
    EXPECT_EQ(incremental.stats().planMismatches, 0u);
}

TEST(Evaluator, AllocCarryingChainFastPathMatchesSlowPath)
{
    // A sequential function with the lowered-DNN chain pattern: a local
    // accumulator buffer written by an init band, updated by a compute
    // band and consumed by an output band. The ownership analysis
    // classifies it SharedChain; the fast path must still compose
    // bit-identically, including the kept-buffer memory account under
    // the re-derived partition plans.
    const char *source = "void stage(float A[16][16], float B[16][16]) {\n"
                         "  float acc[16][16];\n"
                         "  for (int i = 0; i < 16; i++)\n"
                         "    for (int j = 0; j < 16; j++)\n"
                         "      acc[i][j] = 0.0;\n"
                         "  for (int i = 0; i < 16; i++)\n"
                         "    for (int j = 0; j < 16; j++)\n"
                         "      for (int k = 0; k < 16; k++)\n"
                         "        acc[i][j] = acc[i][j] + A[i][k];\n"
                         "  for (int i = 0; i < 16; i++)\n"
                         "    for (int j = 0; j < 16; j++)\n"
                         "      B[i][j] = acc[i][j];\n"
                         "}\n";
    auto module = parseCToModule(source);
    raiseScfToAffine(module.get());
    DesignSpace space(module.get());
    ASSERT_EQ(space.numBands(), 3u);
    auto points = iiCrossProduct(space, 3);

    CachingEvaluator reference(space);
    EstimateCache cache;
    CachingEvaluator incremental(space, nullptr, &cache);
    for (const auto &p : points)
        expectIdenticalQoR(reference.evaluate(p),
                           incremental.evaluate(p), "alloc-chain");
    EXPECT_GT(incremental.stats().fastPathHits, 0u);
    EXPECT_LT(incremental.stats().fullMaterializations, points.size());
    // The local buffer's memory reached the composed account.
    QoRResult zero = incremental.evaluate(
        DesignSpace::Point(space.numDims(), 0));
    EXPECT_GT(zero.resources.memoryBits, 0);
}

TEST(Evaluator, MixedFunctionStillPopulatesScheduleTier)
{
    // One band carries a call (undigestable, masked out); the other is
    // clean. The whole-point fast path must never engage, but the clean
    // band must still publish schedule entries — the per-band
    // eligibility mask at work.
    std::string source = polybenchSource("2mm", 8) + "\n" +
                         polybenchSource("gemm", 8);
    auto module = parseCToModule(source, "k2mm");
    raiseScfToAffine(module.get());
    Operation *func = lookupFunc(module.get(), "k2mm");
    ASSERT_NE(func, nullptr);
    auto bands = getLoopBands(func);
    ASSERT_EQ(bands.size(), 2u);
    Block *leaf = AffineForOp(getLoopNest(bands[1][0]).back()).body();
    OpBuilder builder(leaf, leaf->front());
    builder.create(std::string(ops::Call), {}, {},
                   {{kCallee, Attribute(std::string("gemm"))}});

    DesignSpace space(module.get());
    EstimateCache cache;
    CachingEvaluator evaluator(space, nullptr, &cache);
    auto points = iiCrossProduct(space, 2);
    CachingEvaluator reference(space);
    for (const auto &p : points)
        expectIdenticalQoR(reference.evaluate(p), evaluator.evaluate(p),
                           "mixed");
    EXPECT_EQ(evaluator.stats().fastPathHits, 0u);
    EXPECT_GT(cache.scheduleStats().entries, 0u);
}

TEST(Evaluator, DNNKernelFastPathMatchesSlowPath)
{
    // The acceptance scenario in miniature: a resnet18 graph-level-4
    // dataflow stage (intermediate feature maps as local allocs) swept
    // over an II cross-product must engage the fast path and stay
    // bit-identical to the slow path.
    auto kernels = buildDNNKernelModules("resnet18", 4, 1);
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_GT(kernels[0].numAllocs, 0u);
    DesignSpace space(kernels[0].module.get());
    ASSERT_GE(space.numBands(), 2u);
    auto points = iiCrossProduct(space, 2);

    CachingEvaluator reference(space);
    EstimateCache cache;
    CachingEvaluator incremental(space, nullptr, &cache);
    for (const auto &p : points)
        expectIdenticalQoR(reference.evaluate(p),
                           incremental.evaluate(p), "dnn-kernel");
    EXPECT_GT(incremental.stats().fastPathHits, 0u);
    EXPECT_LT(incremental.stats().fullMaterializations, points.size());
}

TEST(DSEEngine, FinalizedModuleIsVerifiedAgainstCachedQoR)
{
    auto module = parseCToModule(polybenchSource("gemm", 16));
    raiseScfToAffine(module.get());
    DesignSpaceOptions space_options;
    space_options.maxTileSize = 8;
    space_options.maxTotalUnroll = 64;
    DSEOptions options;
    options.numInitialSamples = 20;
    options.maxIterations = 30;
    options.numThreads = 2;

    auto result = runDSE(module.get(), xc7z020(), space_options, options);
    ASSERT_TRUE(result.has_value());
    ASSERT_NE(result->module, nullptr);
    // The finalized module's re-estimated QoR matched the frontier's
    // cached result (materializeEvaluated asserts this too; the flag
    // makes the check visible in release builds).
    EXPECT_TRUE(result->qorVerified);
    EXPECT_TRUE(result->qor.feasible);
}

TEST(Pareto, SaturatingAddPoisonsSentinels)
{
    // One sentinel poisons the sum; TWO sentinel summands must yield the
    // sentinel exactly, never a silent overflow into a "valid" number.
    EXPECT_EQ(addQoRSaturating(kInfeasibleQoR, kInfeasibleQoR),
              kInfeasibleQoR);
    EXPECT_EQ(addQoRSaturating(kInfeasibleQoR, 0), kInfeasibleQoR);
    EXPECT_EQ(addQoRSaturating(7, kInfeasibleQoR), kInfeasibleQoR);
    // Feasible sums saturate at the sentinel instead of crossing it.
    EXPECT_EQ(addQoRSaturating(kInfeasibleQoR - 1, 1), kInfeasibleQoR);
    EXPECT_EQ(addQoRSaturating(kInfeasibleQoR - 1, kInfeasibleQoR - 1),
              kInfeasibleQoR);
    // Ordinary additions are exact.
    EXPECT_EQ(addQoRSaturating(0, 0), 0);
    EXPECT_EQ(addQoRSaturating(100, 23), 123);
    EXPECT_EQ(addQoRSaturating(kInfeasibleQoR - 2, 1),
              kInfeasibleQoR - 1);
}

namespace {

StageCandidate
makeCandidate(int64_t latency, int64_t dsp, int64_t lut = 0,
              int64_t memory_bits = 0)
{
    StageCandidate c;
    c.feasible = true;
    c.latency = latency;
    c.resources.dsp = dsp;
    c.resources.lut = lut;
    c.resources.memoryBits = memory_bits;
    return c;
}

ResourceBudget
makeBudget(int64_t dsp, int64_t lut = 1000000,
           int64_t memory_bits = int64_t(1) << 40)
{
    ResourceBudget budget;
    budget.name = "synthetic";
    budget.dsp = dsp;
    budget.lut = lut;
    budget.memoryBits = memory_bits;
    return budget;
}

} // namespace

TEST(GlobalAlloc, InfeasibleStagePoisonsComposition)
{
    // Stage 0 has designs; stage 1's frontier holds only sentinel
    // points. The allocation must be infeasible and the composed QoR —
    // which would add TWO sentinels through stage latencies if both were
    // chosen — must stay pinned at the sentinel.
    std::vector<StageFrontier> stages(2);
    stages[0].name = "ok";
    stages[0].candidates = {makeCandidate(10, 4)};
    stages[1].name = "poisoned";
    StageCandidate bad;
    bad.feasible = false;
    bad.latency = kInfeasibleQoR;
    stages[1].candidates = {bad, bad};

    GlobalAllocation allocation =
        allocateGlobalBudget(stages, makeBudget(1000));
    EXPECT_FALSE(allocation.feasible);
    EXPECT_EQ(allocation.bottleneck, kInfeasibleQoR);
    EXPECT_FALSE(allocateUniformSplit(stages, makeBudget(1000)).feasible);

    // Compose with both stages forced onto infeasible candidates: two
    // sentinel summands plus glue must not overflow past the sentinel.
    std::vector<StageFrontier> poisoned(2);
    poisoned[0].candidates = {bad};
    poisoned[1].candidates = {bad};
    QoRResult composed = composeDataflowQoR(poisoned, {0, 0}, 2);
    EXPECT_FALSE(composed.feasible);
    EXPECT_EQ(composed.latency, kInfeasibleQoR);
    EXPECT_EQ(composed.interval, kInfeasibleQoR);
}

TEST(GlobalAlloc, ExchangeRefinementBeatsUniformSplit)
{
    // An unbalanced model: the heavy stage needs most of the device to
    // get fast, the light stages are cheap at every speed. A uniform
    // split strands budget on the light stages (each shops in 1/3 of the
    // device), while the balancing allocator routes the slack to the
    // bottleneck.
    std::vector<StageFrontier> stages(3);
    stages[0].name = "heavy";
    stages[0].candidates = {makeCandidate(100, 90), makeCandidate(200, 45),
                            makeCandidate(400, 20)};
    stages[1].name = "light_a";
    stages[1].candidates = {makeCandidate(80, 12), makeCandidate(150, 6)};
    stages[2].name = "light_b";
    stages[2].candidates = {makeCandidate(90, 12), makeCandidate(160, 6)};

    ResourceBudget budget = makeBudget(120);
    GlobalAllocation refined = allocateGlobalBudget(stages, budget);
    GlobalAllocation uniform = allocateUniformSplit(stages, budget);
    ASSERT_TRUE(refined.feasible);
    ASSERT_TRUE(uniform.feasible);
    // Uniform: heavy's share (40 DSP) only affords the 400-cycle point.
    EXPECT_EQ(uniform.bottleneck, 400);
    // Balanced: heavy at 100 cycles (90 DSP) + lights at ~12 DSP each.
    EXPECT_EQ(refined.bottleneck, 100);
    EXPECT_LT(refined.bottleneck, uniform.bottleneck);
    EXPECT_GT(refined.refinementSteps, 0u);
    EXPECT_TRUE(budget.fits(refined.resources));
}

TEST(GlobalAlloc, StopsWhenNoBudgetFeasibleSwapImproves)
{
    // The bottleneck stage's only faster candidate overruns the budget
    // and no demotion elsewhere can free enough: the allocator must keep
    // the feasible selection it has instead of looping or overspending.
    std::vector<StageFrontier> stages(2);
    stages[0].candidates = {makeCandidate(50, 100), makeCandidate(200, 10)};
    stages[1].candidates = {makeCandidate(60, 100), makeCandidate(180, 10)};

    ResourceBudget budget = makeBudget(50);
    GlobalAllocation allocation = allocateGlobalBudget(stages, budget);
    ASSERT_TRUE(allocation.feasible);
    EXPECT_EQ(allocation.bottleneck, 200);
    EXPECT_EQ(allocation.refinementSteps, 0u);
    EXPECT_TRUE(budget.fits(allocation.resources));

    // Even the cheapest selection can overrun: then nothing is feasible.
    EXPECT_FALSE(allocateGlobalBudget(stages, makeBudget(15)).feasible);
}

TEST(GlobalAlloc, BudgetExcludingMinLatencyPointFiltersFrontier)
{
    // The min-latency frontier point costs more than the device has: the
    // allocator (like DSEEngine::finalize) must skip past it to the
    // fastest point that actually fits.
    std::vector<StageFrontier> stages(1);
    stages[0].candidates = {makeCandidate(10, 500), makeCandidate(20, 80),
                            makeCandidate(40, 30)};
    ResourceBudget budget = makeBudget(100);
    GlobalAllocation allocation = allocateGlobalBudget(stages, budget);
    ASSERT_TRUE(allocation.feasible);
    EXPECT_EQ(allocation.choice[0], 1u);
    EXPECT_EQ(allocation.bottleneck, 20);

    // finalize() applies the same filter to a raw frontier.
    std::vector<EvaluatedPoint> frontier(3);
    for (size_t i = 0; i < 3; ++i) {
        frontier[i].qor.latency = stages[0].candidates[i].latency;
        frontier[i].qor.resources = stages[0].candidates[i].resources;
    }
    auto chosen = DSEEngine::finalize(frontier, budget);
    ASSERT_TRUE(chosen.has_value());
    EXPECT_EQ(chosen->qor.latency, 20);
    EXPECT_EQ(chosen->qor.resources.dsp, 80);
}

TEST(DSEEngine, RunDSERetainsDecodedFrontier)
{
    auto module = parseCToModule(polybenchSource("gemm", 16));
    raiseScfToAffine(module.get());
    DesignSpaceOptions space_options;
    space_options.maxTileSize = 4;
    space_options.maxTotalUnroll = 16;
    DSEOptions options;
    options.numInitialSamples = 20;
    options.maxIterations = 30;
    auto result = runDSE(module.get(), xc7z020(), space_options, options);
    ASSERT_TRUE(result.has_value());

    // The full frontier comes back, ascending latency, each point with
    // its decoded per-band schedule and decomposed resources.
    ASSERT_FALSE(result->frontier.empty());
    DesignSpace space(module.get(), space_options);
    for (size_t i = 0; i < result->frontier.size(); ++i) {
        const FrontierPoint &fp = result->frontier[i];
        ASSERT_EQ(fp.bands.size(), space.numBands());
        EXPECT_EQ(fp.point.size(), space.numDims());
        for (const auto &band : fp.bands)
            EXPECT_FALSE(band.tileSizes.empty());
        if (i > 0)
            EXPECT_LE(result->frontier[i - 1].qor.latency,
                      fp.qor.latency);
        // The decoded schedule matches a fresh decode of the point.
        DesignSpace::Decoded decoded = space.decode(fp.point);
        for (size_t b = 0; b < fp.bands.size(); ++b) {
            EXPECT_EQ(fp.bands[b].tileSizes,
                      decoded.bands[b].tileSizes);
            EXPECT_EQ(fp.bands[b].permMap, decoded.bands[b].permMap);
            EXPECT_EQ(fp.bands[b].targetII,
                      decoded.bands[b].targetII);
        }
    }
    // The winner is the frontier's fastest budget-feasible point.
    bool winner_on_frontier = false;
    for (const FrontierPoint &fp : result->frontier)
        winner_on_frontier |= fp.point == result->point;
    EXPECT_TRUE(winner_on_frontier);
}

TEST(MultiKernelDSE, PerFunctionFrontiersRetained)
{
    Compiler compiler = Compiler::fromC(polybenchSource("gemm", 16));
    DSEOptions options;
    options.numInitialSamples = 15;
    options.maxIterations = 20;
    DesignSpaceOptions space_options;
    space_options.maxTileSize = 4;
    space_options.maxTotalUnroll = 16;
    ExploreRequest request;
    request.space = space_options;
    request.dse = options;
    ASSERT_FALSE(request.validate());
    auto results = compiler.optimizeFunctions(request);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_FALSE(results[0].frontier.empty());
    // The chosen QoR appears on the retained frontier.
    bool found = false;
    for (const FrontierPoint &fp : results[0].frontier)
        found |= fp.qor.latency == results[0].qor.latency &&
                 fp.qor.resources.dsp == results[0].qor.resources.dsp;
    EXPECT_TRUE(found);
}

TEST(ModelDSE, OptimizeModelComposesUnderBudget)
{
    // Whole-model DSE on a small zoo lowering: explore every stage,
    // allocate the global budget, stitch, and re-verify. Graph level 2
    // keeps the stage count (and test time) small.
    DSEOptions options;
    options.numInitialSamples = 8;
    options.maxIterations = 10;
    DesignSpaceOptions space_options;
    space_options.maxTileSize = 4;
    space_options.maxTotalUnroll = 16;

    auto run = [&](unsigned threads, bool audit = false) {
        Compiler compiler(buildLoweredDNN("mobilenet", 2));
        ExploreRequest request;
        request.budgetSpec = "vu9p-slr";
        request.space = space_options;
        request.dse = options;
        request.dse.numThreads = threads;
        if (audit)
            request.dse.auditMode = true;
        EXPECT_FALSE(request.validate());
        auto result = compiler.optimizeModel(request);
        // The composed module must re-verify after stitching.
        auto errors = verifyErrors(compiler.module());
        EXPECT_TRUE(errors.empty());
        return result;
    };

    auto result = run(2);
    ASSERT_TRUE(result.has_value());
    ASSERT_FALSE(result->stages.empty());
    ASSERT_TRUE(result->allocation.feasible);
    EXPECT_TRUE(vu9pSlr().fits(result->allocation.resources));
    EXPECT_TRUE(result->measured.feasible);
    // Measured (authoritative) equals the frontier-composed prediction
    // bit-identically, and the stitched module passed the verifier.
    EXPECT_TRUE(result->composedVerified)
        << "composed latency=" << result->composed.latency
        << " measured latency=" << result->measured.latency
        << " composed interval=" << result->composed.interval
        << " measured interval=" << result->measured.interval;
    EXPECT_TRUE(result->verified);
    // The dataflow interval is the bottleneck stage latency.
    EXPECT_EQ(result->measured.interval, result->allocation.bottleneck);
    // The refined allocation is never worse than the uniform split.
    if (result->uniform.feasible)
        EXPECT_LE(result->allocation.bottleneck,
                  result->uniform.bottleneck);
    // Kernel stages carry their frontiers; every counter of the model
    // is the sum over its kernel stages (fixed stages carry zeros).
    DSEStats sum;
    for (const auto &stage : result->stages) {
        if (stage.kernel) {
            EXPECT_FALSE(stage.frontier.empty());
            EXPECT_LT(stage.chosen, stage.frontier.size());
        } else {
            EXPECT_EQ(stage.evaluations, 0u);
        }
        sum += stage;
    }
    DSEStats::forEachField(
        [](const char *name, size_t total, size_t model) {
            EXPECT_EQ(model, total) << name;
        },
        sum, *result);
    EXPECT_GT(result->evaluations, 0u);

    // Audit mode reaches the whole-model path: the stages' auditor
    // invocations add up in the model result, with no findings.
    auto audited = run(2, true);
    ASSERT_TRUE(audited.has_value());
    EXPECT_GT(audited->auditChecks, 0u);
    EXPECT_EQ(audited->auditViolations, 0u);
    EXPECT_EQ(audited->measured.latency, result->measured.latency);

    // Bit-identical at any thread count.
    auto single = run(1);
    ASSERT_TRUE(single.has_value());
    EXPECT_EQ(single->measured.latency, result->measured.latency);
    EXPECT_EQ(single->measured.interval, result->measured.interval);
    EXPECT_EQ(single->measured.resources.dsp,
              result->measured.resources.dsp);
    EXPECT_EQ(single->allocation.choice, result->allocation.choice);
    EXPECT_EQ(single->uniform.bottleneck, result->uniform.bottleneck);
}

} // namespace
} // namespace scalehls
