/** @file Tests for copy-on-write overlay clones (ir/overlay.h) and the
 * plan-first prediction-validation fallback built on them. */

#include <gtest/gtest.h>

#include <thread>

#include "analysis/loop_analysis.h"
#include "dialect/ops.h"
#include "dse/band_plan.h"
#include "dse/evaluator.h"
#include "frontend/irgen.h"
#include "ir/overlay.h"
#include "ir/printer.h"
#include "transform/pass.h"

namespace scalehls {
namespace {

std::unique_ptr<Operation>
affineModule(const std::string &source)
{
    auto module = parseCToModule(source);
    raiseScfToAffine(module.get());
    return module;
}

/** A three-band sequential kernel: scale, add, scale again. */
const char *kThreeBand = "void k(float A[16][16], float B[16][16],\n"
                         "       float C[16][16]) {\n"
                         "  for (int i = 0; i < 16; i++)\n"
                         "    for (int j = 0; j < 16; j++)\n"
                         "      B[i][j] = A[i][j] * 2.0;\n"
                         "  for (int i = 0; i < 16; i++)\n"
                         "    for (int j = 0; j < 16; j++)\n"
                         "      B[i][j] = B[i][j] + 1.0;\n"
                         "  for (int i = 0; i < 16; i++)\n"
                         "    for (int j = 0; j < 16; j++)\n"
                         "      C[i][j] = B[i][j] * 3.0;\n"
                         "}\n";

TEST(Overlay, SkippedBandsAreAbsentAndBaseIsUntouched)
{
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    ASSERT_EQ(bands.size(), 3u);
    std::string base_before = printOp(func);

    // Skip the middle band: the overlay holds bands 0 and 2 only.
    OverlayClone ov = overlayClone(func, {bands[1].front()});
    ASSERT_TRUE(ov.op);
    EXPECT_TRUE(ov.complete);
    EXPECT_EQ(getLoopBands(ov.op.get()).size(), 2u);

    // Kept children are mapped base->overlay; the skipped one is not.
    EXPECT_EQ(ov.children.count(bands[0].front()), 1u);
    EXPECT_EQ(ov.children.count(bands[1].front()), 0u);
    EXPECT_EQ(ov.children.count(bands[2].front()), 1u);
    // The clone is a distinct subtree, not an alias of the base band.
    EXPECT_NE(ov.children[bands[0].front()], bands[0].front());

    // Block arguments translate through the value map.
    Block *body = funcBody(func);
    Block *ov_body = funcBody(ov.op.get());
    for (unsigned i = 0; i < 3; ++i) {
        auto it = ov.map.find(body->argument(i));
        ASSERT_NE(it, ov.map.end());
        EXPECT_EQ(it->second, ov_body->argument(i));
    }

    // Building the overlay never wrote the base.
    EXPECT_EQ(printOp(func), base_before);
}

TEST(Overlay, MutatingTheOverlayLeavesTheBaseIntact)
{
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    std::string base_before = printOp(func);

    OverlayClone ov = overlayClone(func, {bands[2].front()});
    ASSERT_TRUE(ov.complete);

    // Transform the overlay's copy of band 0: tile it and pipeline the
    // innermost loop — heavyweight structural surgery.
    auto ov_band = getLoopNest(ov.children[bands[0].front()]);
    auto tiled = applyLoopTiling(ov_band, {4, 4});
    ASSERT_FALSE(tiled.empty());
    EXPECT_TRUE(applyLoopPipelining(tiled.back(), 1));
    applyCanonicalize(ov.op.get());

    // The base never changes, structurally or textually.
    EXPECT_EQ(printOp(func), base_before);
    EXPECT_EQ(getLoopBands(func)[0].size(), 2u);
}

TEST(Overlay, SkippingAProducerMarksTheCloneIncomplete)
{
    // Hand-add a flat alloc referenced inside band 0. Skipping the
    // ALLOC leaves the band's user referencing a value the overlay never
    // defines: cloneStrict substitutes null and the overlay reports
    // incomplete (it must be discarded, never estimated).
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    Block *body = funcBody(func);
    OpBuilder builder(body, body->front());
    Operation *alloc =
        createAlloc(builder, Type::memref({16, 16}, Type::f32()));
    Block *leaf =
        AffineForOp(getLoopNest(bands[0].front()).back()).body();
    OpBuilder in_band(leaf, leaf->front());
    in_band.create(std::string(ops::Call), {}, {alloc->result(0)},
                   {{kCallee, Attribute(std::string("sink"))}});

    OverlayClone ov = overlayClone(func, {alloc});
    ASSERT_TRUE(ov.op);
    EXPECT_FALSE(ov.complete);
}

TEST(Overlay, ConcurrentOverlaysOverOneSharedBase)
{
    // The raison d'être of cloneStrict: many workers overlay-clone and
    // transform against ONE pristine base concurrently. Run under TSan
    // in CI; any use-list write against the base would be a race.
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    std::string base_before = printOp(func);

    std::vector<std::thread> workers;
    for (int t = 0; t < 8; ++t)
        workers.emplace_back([&, t]() {
            for (int round = 0; round < 4; ++round) {
                size_t keep = (t + round) % bands.size();
                std::set<const Operation *> skip;
                for (size_t b = 0; b < bands.size(); ++b)
                    if (b != keep)
                        skip.insert(bands[b].front());
                OverlayClone ov = overlayClone(func, skip);
                ASSERT_TRUE(ov.complete);
                auto nest =
                    getLoopNest(ov.children[bands[keep].front()]);
                applyLoopPipelining(nest.back(), 1 + (t % 3));
                applyCanonicalize(ov.op.get());
            }
        });
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(printOp(func), base_before);
}

TEST(Overlay, DigestPredictionMismatchFallsBackToTheFullPipeline)
{
    // Corrupt the PLAN tier with a bogus digest for exactly the key the
    // planner will consult. The overlay materialization then contradicts
    // the prediction: the point must fall back to the validated legacy
    // pipeline (identical result) and count ONE mismatch — the planner
    // can be wrong about wall-clock, never about answers.
    auto module = affineModule(kThreeBand);
    DesignSpace space(module.get());
    ASSERT_EQ(space.numBands(), 3u);
    DesignSpace::Point point(space.numDims(), 0);
    point[space.dimTargetII(0)] = 1;

    CachingEvaluator reference(space); // No cache: always full path.
    QoRResult ref = reference.evaluate(point);

    EstimateCache cache;
    BandPlanner planner(space, &cache);
    ASSERT_TRUE(planner.enabled());
    std::string key = planner.debugPlanKey(point, 0);
    ASSERT_FALSE(key.empty());
    BandPlanOutcome bogus;
    bogus.materializable = true;
    bogus.composable = true;
    bogus.digest = "bogus-digest-that-no-band-ever-hashes-to";
    cache.insertPlan(key, bogus); // First writer wins: plant it early.

    CachingEvaluator incremental(space, nullptr, &cache);
    QoRResult fast = incremental.evaluate(point);
    EXPECT_EQ(fast.latency, ref.latency);
    EXPECT_EQ(fast.interval, ref.interval);
    EXPECT_EQ(fast.feasible, ref.feasible);
    EXPECT_EQ(fast.resources.dsp, ref.resources.dsp);
    EXPECT_EQ(fast.resources.memoryBits, ref.resources.memoryBits);
    EXPECT_EQ(incremental.stats().planMismatches, 1u);
    EXPECT_EQ(incremental.stats().fullMaterializations, 1u);

    // Audited, the planner names the contradiction: exactly one
    // StaleScheduleEntry finding, at the corrupted band.
    BandPlanner audited(space, &cache, /*audit=*/true);
    BandPlanner::Outcome outcome = audited.evaluate(point);
    EXPECT_EQ(outcome.kind, BandPlanner::Outcome::Kind::Fallback);
    EXPECT_TRUE(outcome.mismatched);
    ASSERT_EQ(outcome.auditFindings.size(), 1u);
    EXPECT_EQ(outcome.auditFindings[0].kind,
              VerifyKind::StaleScheduleEntry);
    EXPECT_EQ(outcome.auditFindings[0].path, "func@0/band@0");

    // An uncorrupted cache evaluates the same point mismatch-free.
    EstimateCache clean;
    CachingEvaluator healthy(space, nullptr, &clean);
    QoRResult again = healthy.evaluate(point);
    EXPECT_EQ(again.latency, ref.latency);
    EXPECT_EQ(healthy.stats().planMismatches, 0u);
}

TEST(Overlay, PlanKeysAreStablePerPointAndDistinctAcrossPoints)
{
    auto module = affineModule(kThreeBand);
    DesignSpace space(module.get());
    EstimateCache cache;
    BandPlanner planner(space, &cache);
    ASSERT_TRUE(planner.enabled());

    DesignSpace::Point a(space.numDims(), 0);
    DesignSpace::Point b = a;
    b[space.dimTargetII(0)] = 1;
    EXPECT_EQ(planner.debugPlanKey(a, 0), planner.debugPlanKey(a, 0));
    EXPECT_NE(planner.debugPlanKey(a, 0), planner.debugPlanKey(b, 0));
    // Band 1's choice is untouched between the two points: its key — and
    // therefore its cached plan — is shared across them.
    EXPECT_EQ(planner.debugPlanKey(a, 1), planner.debugPlanKey(b, 1));
}

} // namespace
} // namespace scalehls
