/** @file Tests for the layered verifier (ir/verifier.h): L1/L2 negative
 * cases rejected with the expected machine-readable kind at a stable op
 * path, the L3 overlay-aliasing audit, the L4 cache-coherence audit
 * (estimate/coherence_audit.h), and the evaluator's audit mode end to
 * end — a seeded corrupted-PLAN run must fire the auditors without ever
 * changing the answer. */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/loop_analysis.h"
#include "dialect/ops.h"
#include "dse/band_plan.h"
#include "dse/evaluator.h"
#include "estimate/coherence_audit.h"
#include "frontend/irgen.h"
#include "ir/overlay.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/utils.h"
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

bool
hasKind(const std::vector<VerifyError> &errors, VerifyKind kind)
{
    return std::any_of(errors.begin(), errors.end(),
                       [&](const VerifyError &e) { return e.kind == kind; });
}

Operation *
firstLoad(Operation *root)
{
    Operation *load = nullptr;
    root->walk([&](Operation *op) {
        if (!load && op->is(ops::AffineLoad))
            load = op;
    });
    return load;
}

TEST(Verifier, CleanModulePassesBothLevels)
{
    auto module = affineModule(kThreeBand);
    EXPECT_TRUE(
        verifyErrors(module.get(), VerifyLevel::Structural).empty());
    EXPECT_TRUE(verifyErrors(module.get()).empty());
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(Verifier, OpPathsAreStableAndHumanReadable)
{
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    ASSERT_EQ(bands.size(), 3u);

    EXPECT_EQ(opPath(module.get()), "module");
    EXPECT_EQ(opPath(func), "module/func@0");
    // Top-level loops under a func are BANDS, indexed among loops only.
    EXPECT_EQ(opPath(bands[1].front()), "module/func@0/band@1");
    EXPECT_EQ(opPath(bands[2].front()), "module/func@0/band@2");
    // Nested loops use the plain short-name counter.
    Operation *inner = getLoopNest(bands[0].front()).back();
    EXPECT_EQ(opPath(inner), "module/func@0/band@0/for@0");
    EXPECT_EQ(opPath(nullptr), "<null>");
}

TEST(Verifier, ErrorsRenderKindPathAndMessage)
{
    VerifyError e{VerifyKind::DominanceViolation, "module/func@0",
                  "'x': detail"};
    EXPECT_EQ(e.str(), "[DominanceViolation] module/func@0: 'x': detail");
    EXPECT_STREQ(verifyKindName(VerifyKind::StaleScheduleEntry),
                 "StaleScheduleEntry");
}

TEST(Verifier, DominanceBreakIsRejected)
{
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    Block *body = funcBody(func);

    // Define a buffer at the END of the body (before the return) and use
    // it at the FRONT: the use no longer dominates.
    OpBuilder at_end(body, body->back());
    Operation *alloc =
        createAlloc(at_end, Type::memref({4}, Type::f32()));
    OpBuilder at_front(body, body->front());
    at_front.create("test.use", {}, {alloc->result(0)});

    auto errors = verifyErrors(module.get(), VerifyLevel::Structural);
    ASSERT_TRUE(hasKind(errors, VerifyKind::DominanceViolation));
    for (const VerifyError &e : errors)
        EXPECT_EQ(e.path.rfind("module/func@0", 0), 0u) << e.str();
}

TEST(Verifier, NullOperandIsRejected)
{
    auto module = affineModule(kThreeBand);
    Operation *load = firstLoad(module.get());
    ASSERT_TRUE(load);
    load->setOperand(0, nullptr);
    EXPECT_TRUE(hasKind(verifyErrors(module.get()),
                        VerifyKind::NullOperand));
}

TEST(Verifier, AccessMapArityMismatchIsRejected)
{
    auto module = affineModule(kThreeBand);
    Operation *load = firstLoad(module.get());
    ASSERT_TRUE(load);
    // A 2-d load must carry a 2-result map; force a 1-result identity.
    load->setAttr(kMap, Attribute(AffineMap::identity(1)));
    auto errors = verifyErrors(module.get());
    ASSERT_TRUE(hasKind(errors, VerifyKind::InvalidAccessMap));
}

TEST(Verifier, MissingReturnIsRejected)
{
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    Block *body = funcBody(func);
    ASSERT_TRUE(body->back()->is(ops::Return));
    body->back()->erase();
    EXPECT_TRUE(hasKind(verifyErrors(module.get()),
                        VerifyKind::BadTerminator));
}

TEST(Verifier, MisplacedReturnIsRejected)
{
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    // A return inside a loop body: control would leave the band early.
    Block *leaf = AffineForOp(getLoopNest(bands[0].front()).back()).body();
    OpBuilder builder(leaf, leaf->front());
    builder.create(std::string(ops::Return), {}, {});
    auto errors = verifyErrors(module.get());
    EXPECT_TRUE(hasKind(errors, VerifyKind::BadTerminator));
    // The misplacement is an L2 judgement; L1 stays quiet.
    EXPECT_FALSE(hasKind(verifyErrors(module.get(),
                                      VerifyLevel::Structural),
                         VerifyKind::BadTerminator));
}

TEST(Verifier, DirectiveOnWrongOpClassIsRejected)
{
    auto module = affineModule(kThreeBand);
    Operation *load = firstLoad(module.get());
    ASSERT_TRUE(load);
    LoopDirective d;
    d.pipeline = true;
    load->setAttr(kLoopDirective, Attribute(d));
    auto errors = verifyErrors(module.get());
    ASSERT_TRUE(hasKind(errors, VerifyKind::InvalidDirective));
}

TEST(Verifier, BadTargetIIIsRejected)
{
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    LoopDirective d;
    d.pipeline = true;
    d.targetII = 0; // IIs count cycles; 0 is meaningless.
    bands[0].front()->setAttr(kLoopDirective, Attribute(d));
    EXPECT_TRUE(hasKind(verifyErrors(module.get()),
                        VerifyKind::InvalidDirective));
}

TEST(Verifier, StagelessOpUnderDataflowTopIsRejected)
{
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    FuncDirective d;
    d.dataflow = true;
    setFuncDirective(func, d);
    // Loops, allocs, constants and the return are legitimate dataflow-top
    // residents; the pristine kernel must stay clean...
    EXPECT_TRUE(verifyOk(module.get()));
    // ...but a bare compute op with no stage has nothing to overlap with.
    Block *body = funcBody(func);
    OpBuilder builder(body, body->front());
    Operation *cst = builder.create(
        std::string(ops::Constant), {Type::f32()}, {},
        {{kValue, Attribute(1.0)}});
    builder.create("arith.negf", {Type::f32()}, {cst->result(0)});
    EXPECT_TRUE(hasKind(verifyErrors(module.get()),
                        VerifyKind::InvalidDataflow));
}

TEST(Verifier, UnknownCalleeIsRejected)
{
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    Block *body = funcBody(func);
    OpBuilder builder(body, body->front());
    builder.create(std::string(ops::Call), {}, {},
                   {{kCallee, Attribute(std::string("missing"))}});
    EXPECT_TRUE(hasKind(verifyErrors(module.get()),
                        VerifyKind::UnknownCallee));
}

//
// L3 — overlay-aliasing audit.
//

TEST(Verifier, CleanOverlayPassesTheAliasAudit)
{
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    OverlayClone ov = overlayClone(func, {bands[1].front()});
    ASSERT_TRUE(ov.complete);
    EXPECT_TRUE(auditOverlayAliasing(ov, func).empty());
}

TEST(Verifier, SmuggledBaseReferenceIsCaught)
{
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    OverlayClone ov = overlayClone(func, {bands[1].front()});
    ASSERT_TRUE(ov.complete);

    // Rewire an overlay load to read the BASE function's memref argument
    // — exactly the mutable-path bug cloneStrict exists to prevent: the
    // overlay op lands on the base value's use list, so a concurrent
    // overlay over the same base would race on it.
    Operation *load = firstLoad(ov.op.get());
    ASSERT_TRUE(load);
    load->setOperand(0, funcBody(func)->argument(0));

    auto findings = auditOverlayAliasing(ov, func);
    EXPECT_TRUE(hasKind(findings, VerifyKind::OverlayBaseAlias));
    EXPECT_TRUE(hasKind(findings, VerifyKind::OverlayUseLeak));
}

TEST(Verifier, IncompleteOverlayIsCaught)
{
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

    // Skipping the producing alloc leaves a null-substituted consumer:
    // the clone reports incomplete and the audit must agree.
    OverlayClone ov = overlayClone(func, {alloc});
    ASSERT_TRUE(ov.op);
    ASSERT_FALSE(ov.complete);
    EXPECT_TRUE(hasKind(auditOverlayAliasing(ov, func),
                        VerifyKind::OverlayIncomplete));
}

//
// L4 — cache-coherence audit.
//

TEST(Verifier, MalformedScheduleEntryIsCaught)
{
    auto module = affineModule(kThreeBand);
    Operation *func = getTopFunc(module.get());
    Block *body = funcBody(func);

    BandScheduleEntry entry;
    entry.origin = "k#0";
    BandScheduleEntry::MemrefInfo memref;
    memref.extId = 99; // No external table has 100 entries here.
    memref.read = true;
    entry.memrefs.push_back(memref);

    std::vector<Value *> externals = {body->argument(0)};
    auto findings = auditScheduleEntry(entry, externals);
    ASSERT_FALSE(findings.empty());
    EXPECT_EQ(findings[0].kind, VerifyKind::MalformedScheduleEntry);
    EXPECT_EQ(findings[0].path, "k#0");

    // A consistent record audits clean: correct id, per-dim vector of
    // the memref's rank, a declared access direction.
    entry.memrefs[0].extId = 0;
    entry.memrefs[0].relevant.assign(
        body->argument(0)->type().rank(), true);
    EXPECT_TRUE(auditScheduleEntry(entry, externals).empty());
}

TEST(Verifier, DigestCoverageRegistryIsClosed)
{
    // The production registry must be gap-free: every estimate-relevant
    // attribute reaches the digest.
    EXPECT_TRUE(auditDigestCoverage().empty());
    // And the audit itself must fire on a seeded gap.
    auto findings = auditDigestCoverage({kLoopDirective},
                                        estimateRelevantAttrs());
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].kind, VerifyKind::DigestCoverageGap);
}

//
// Audit mode end to end: the corrupted-PLAN scenario must fire the
// auditors, fall back to the validated pipeline, and never change the
// answer; a clean run must audit violation-free.
//

TEST(Verifier, AuditModeFlagsACorruptedPlanEntry)
{
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
    cache.insertPlan(key, bogus);

    CachingEvaluator audited(space, nullptr, &cache, /*audit=*/true);
    QoRResult fast = audited.evaluate(point);
    EXPECT_EQ(fast.latency, ref.latency);
    EXPECT_EQ(fast.interval, ref.interval);
    EXPECT_GT(audited.stats().auditChecks, 0u);
    EXPECT_GE(audited.stats().auditViolations, 1u);
    EXPECT_EQ(audited.stats().fullMaterializations, 1u);
}

TEST(Verifier, AuditModeIsViolationFreeOnAHealthyRun)
{
    auto module = affineModule(kThreeBand);
    DesignSpace space(module.get());
    EstimateCache cache;
    CachingEvaluator audited(space, nullptr, &cache, /*audit=*/true);

    CachingEvaluator reference(space);

    // First pass populates the tiers; the second replays through the
    // audited planner (plan compose / overlay).
    std::vector<DesignSpace::Point> points;
    DesignSpace::Point base(space.numDims(), 0);
    points.push_back(base);
    for (size_t b = 0; b < space.numBands(); ++b) {
        DesignSpace::Point p = base;
        p[space.dimTargetII(b)] = 1;
        points.push_back(p);
    }
    for (int round = 0; round < 2; ++round)
        for (const auto &p : points) {
            QoRResult got = audited.evaluate(p);
            QoRResult want = reference.evaluate(p);
            EXPECT_EQ(got.latency, want.latency);
            EXPECT_EQ(got.interval, want.interval);
        }

    EXPECT_GT(audited.stats().auditChecks, 0u);
    EXPECT_EQ(audited.stats().auditViolations, 0u);
}

TEST(Verifier, PassManagerVerifyEachRejectsACorruptingPass)
{
    auto module = affineModule(kThreeBand);
    PassManager pm;
    pm.setVerifyEach(true);
    pm.addPass(makePass("-corrupt", [](Operation *op) {
        Operation *load = firstLoad(op);
        ASSERT_TRUE(load);
        load->setOperand(0, nullptr);
    }));
    EXPECT_THROW(pm.run(module.get()), FatalError);
}

TEST(Verifier, PassManagerVerifyEachAcceptsTheFullPipeline)
{
    auto module = affineModule(kThreeBand);
    PassManager pm;
    pm.setVerifyEach(true);
    pm.addPass(createLoopPerfectizationPass());
    pm.addPass(createLoopTilePass({4, 4}));
    pm.addPass(createLoopPipeliningPass(1));
    pm.addPass(createCanonicalizePass());
    pm.addPass(createSimplifyAffineIfPass());
    pm.addPass(createAffineStoreForwardPass());
    pm.addPass(createSimplifyMemrefAccessPass());
    pm.addPass(createArrayPartitionPass());
    pm.addPass(createCSEPass());
    pm.run(module.get());
    EXPECT_TRUE(verifyOk(module.get()));
}

} // namespace
} // namespace scalehls
