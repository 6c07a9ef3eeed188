/** @file Tests for the analytical QoR estimator: latency composition,
 * recurrence-limited II, port-limited II, resource sharing, dataflow
 * interval edge cases, call-cycle handling, and the parallel/cached
 * estimation paths (which must be bit-identical to sequential). */

#include <gtest/gtest.h>

#include "frontend/irgen.h"
#include "estimate/cache_io.h"
#include "estimate/estimate_cache.h"
#include "estimate/qor_estimator.h"
#include "ir/builder.h"
#include "model/polybench.h"
#include "support/thread_pool.h"
#include "transform/pass.h"

namespace scalehls {
namespace {

/** Append a zero-operand func.call to @p callee_name before @p func's
 * terminator (the estimator resolves calls by name only). */
void
appendCall(Operation *func, const std::string &callee_name)
{
    Block *body = funcBody(func);
    OpBuilder builder(body, body->back());
    builder.create(std::string(ops::Call), {}, {},
                   {{kCallee, Attribute(callee_name)}});
}

std::unique_ptr<Operation>
affineModule(const std::string &source)
{
    auto module = parseCToModule(source);
    raiseScfToAffine(module.get());
    return module;
}

QoRResult
estimateOf(Operation *module)
{
    QoREstimator estimator(module);
    return estimator.estimateModule();
}

TEST(Estimator, BaselineGemmUsesFiveDSPs)
{
    // The unoptimized GEMM binds one fmul (3 DSP) + one fadd (2 DSP):
    // exactly the 5 DSPs of paper Table IV's unoptimized row.
    auto module = affineModule(polybenchSource("gemm", 32));
    QoRResult qor = estimateOf(module.get());
    ASSERT_TRUE(qor.feasible);
    EXPECT_EQ(qor.resources.dsp, 5);
}

TEST(Estimator, SequentialLatencyScalesWithTripCount)
{
    auto m16 = affineModule(polybenchSource("gemm", 16));
    auto m32 = affineModule(polybenchSource("gemm", 32));
    QoRResult q16 = estimateOf(m16.get());
    QoRResult q32 = estimateOf(m32.get());
    ASSERT_TRUE(q16.feasible);
    ASSERT_TRUE(q32.feasible);
    // 8x the iterations: latency within [6x, 10x].
    EXPECT_GT(q32.latency, 6 * q16.latency);
    EXPECT_LT(q32.latency, 10 * q16.latency);
}

TEST(Estimator, PipeliningReducesLatency)
{
    auto module = affineModule(polybenchSource("gemm", 16));
    QoRResult before = estimateOf(module.get());

    Operation *func = getTopFunc(module.get());
    applyLoopPerfectization(getLoopBands(func)[0][0]);
    auto band = getLoopNest(getLoopBands(func)[0][0]);
    applyLoopOrderOpt(band);
    band = getLoopNest(band[0]);
    ASSERT_TRUE(applyLoopPipelining(band.back(), 1));
    QoRResult after = estimateOf(module.get());

    ASSERT_TRUE(after.feasible);
    EXPECT_LT(after.latency, before.latency / 2);
}

TEST(Estimator, RecurrenceBoundsII)
{
    // Innermost reduction: II limited by the fadd latency through C[i][j].
    auto module = affineModule(polybenchSource("gemm", 16));
    Operation *func = getTopFunc(module.get());
    applyLoopPerfectization(getLoopBands(func)[0][0]);
    auto band = getLoopNest(getLoopBands(func)[0][0]);
    ASSERT_TRUE(applyLoopPipelining(band.back(), 1));
    QoRResult reduction = estimateOf(module.get());

    // Same kernel with the reduction loop moved outermost: II back to ~1.
    auto module2 = affineModule(polybenchSource("gemm", 16));
    Operation *func2 = getTopFunc(module2.get());
    applyLoopPerfectization(getLoopBands(func2)[0][0]);
    auto band2 = getLoopNest(getLoopBands(func2)[0][0]);
    ASSERT_TRUE(applyLoopOrderOpt(band2));
    band2 = getLoopNest(band2[0]);
    ASSERT_TRUE(applyLoopPipelining(band2.back(), 1));
    QoRResult reordered = estimateOf(module2.get());

    EXPECT_LT(reordered.latency, reduction.latency);
}

TEST(Estimator, PortConflictsRaiseII)
{
    // Four parallel reads of one un-partitioned array: port-limited II.
    auto module = affineModule("void k(float A[16], float B[16]) {\n"
                               "  for (int i = 0; i < 4; i++) {\n"
                               "    B[4 * i] = A[4 * i] + A[4 * i + 1]"
                               " + A[4 * i + 2] + A[4 * i + 3];\n"
                               "  }\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    AccessTable accesses;
    int64_t ii_unpartitioned =
        memoryPortII(band[0], bandIVs(band), accesses);
    EXPECT_GE(ii_unpartitioned, 4);

    // Cyclic partition by 4 removes the conflicts. Partitioning only
    // re-types the memref, so the access table stays valid.
    Value *a_arg = funcBody(func)->argument(0);
    PartitionPlan plan;
    plan.kinds = {PartitionKind::Cyclic};
    plan.factors = {4};
    applyPartitionPlan(a_arg, plan);
    int64_t ii_partitioned = memoryPortII(band[0], bandIVs(band), accesses);
    EXPECT_EQ(ii_partitioned, 1);
}

TEST(Estimator, ArrayPartitionImprovesPipeline)
{
    auto run = [](bool partition) {
        auto module = parseCToModule(polybenchSource("gemm", 16));
        raiseScfToAffine(module.get());
        Operation *func = getTopFunc(module.get());
        applyLoopPerfectization(getLoopBands(func)[0][0]);
        auto band = getLoopNest(getLoopBands(func)[0][0]);
        applyLoopOrderOpt(band);
        band = getLoopNest(band[0]);
        band = applyLoopTiling(band, {1, 1, 4});
        applyLoopPipelining(band.back(), 1);
        applyCanonicalize(func);
        if (partition)
            applyArrayPartition(func);
        QoREstimator estimator(module.get());
        return estimator.estimateModule();
    };
    QoRResult no_part = run(false);
    QoRResult with_part = run(true);
    EXPECT_LT(with_part.latency, no_part.latency);
}

TEST(Estimator, ResourceSharingUnderII)
{
    // II=4 shares operators 4-ways compared to II=1.
    auto run = [](int64_t ii) {
        auto module = parseCToModule(polybenchSource("gemm", 16));
        raiseScfToAffine(module.get());
        Operation *func = getTopFunc(module.get());
        applyLoopPerfectization(getLoopBands(func)[0][0]);
        auto band = getLoopNest(getLoopBands(func)[0][0]);
        applyLoopOrderOpt(band);
        band = getLoopNest(band[0]);
        band = applyLoopTiling(band, {1, 1, 8});
        applyLoopPipelining(band.back(), ii);
        applyCanonicalize(func);
        applyArrayPartition(func);
        QoREstimator estimator(module.get());
        return estimator.estimateModule();
    };
    QoRResult fast = run(1);
    QoRResult shared = run(8);
    EXPECT_GT(fast.resources.dsp, shared.resources.dsp);
    EXPECT_LT(fast.latency, shared.latency);
}

TEST(Estimator, MemoryCountsLocalBuffersOnly)
{
    auto module = affineModule(
        "void k(float A[64]) {\n"
        "  float buf[64];\n"
        "  for (int i = 0; i < 64; i++) buf[i] = A[i];\n"
        "  for (int i = 0; i < 64; i++) A[i] = buf[i] * 2.0;\n"
        "}");
    QoRResult qor = estimateOf(module.get());
    // Only buf (64 x 32b) counts; the interface array A is external.
    EXPECT_EQ(qor.resources.memoryBits, 64 * 32);
}

TEST(Estimator, DynamicOpCount)
{
    auto module = affineModule(polybenchSource("gemm", 16));
    Operation *func = getTopFunc(module.get());
    int64_t count = dynamicOpCount(func, module.get());
    // Per (i,j): 1 mul (beta); per (i,j,k): 2 mul + 1 add.
    EXPECT_EQ(count, 16 * 16 * 1 + 16 * 16 * 16 * 3);
}

TEST(Estimator, InfeasibleOnScfLoops)
{
    auto module = parseCToModule(polybenchSource("gemm", 8));
    // No raising: scf loops have unknown static structure.
    QoRResult qor = estimateOf(module.get());
    EXPECT_FALSE(qor.feasible);
}

/** Property: increasing unroll never increases estimated latency. */
class UnrollMonotonic : public ::testing::TestWithParam<int64_t>
{};

TEST_P(UnrollMonotonic, LatencyNonIncreasing)
{
    int64_t tile = GetParam();
    auto run = [&](int64_t t) {
        auto module = parseCToModule(polybenchSource("gemm", 16));
        raiseScfToAffine(module.get());
        Operation *func = getTopFunc(module.get());
        applyLoopPerfectization(getLoopBands(func)[0][0]);
        auto band = getLoopNest(getLoopBands(func)[0][0]);
        applyLoopOrderOpt(band);
        band = getLoopNest(band[0]);
        band = applyLoopTiling(band, {1, 1, t});
        applyLoopPipelining(band.back(), 1);
        applyCanonicalize(func);
        applyArrayPartition(func);
        QoREstimator estimator(module.get());
        return estimator.estimateModule().latency;
    };
    EXPECT_LE(run(tile), run(1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnrollMonotonic,
                         ::testing::Values(2, 4, 8, 16));

TEST(Estimator, DataflowDoublesStorageNotLut)
{
    // Ping-pong (double) buffering of dataflow channels duplicates the
    // storage — BRAM banks and memory bits — but not LUT fabric.
    auto source = "void k(float A[64]) {\n"
                  "  float buf[64];\n"  // 2048 bits/bank -> BRAM.
                  "  float small[8];\n" // 256 bits/bank -> LUTRAM.
                  "  for (int i = 0; i < 8; i++) small[i] = A[i];\n"
                  "  for (int i = 0; i < 64; i++) buf[i] = A[i] * 2.0;\n"
                  "  for (int i = 0; i < 64; i++) A[i] = buf[i];\n"
                  "  for (int i = 0; i < 8; i++) A[i] = A[i] + small[i];\n"
                  "}";
    auto plain_module = affineModule(source);
    QoRResult plain = estimateOf(plain_module.get());
    ASSERT_GT(plain.resources.bram18k, 0);
    ASSERT_GT(plain.resources.lut, 0);

    auto df_module = affineModule(source);
    Operation *top = getTopFunc(df_module.get());
    FuncDirective fd = getFuncDirective(top);
    fd.dataflow = true;
    setFuncDirective(top, fd);
    QoRResult df = estimateOf(df_module.get());

    EXPECT_EQ(df.resources.bram18k, 2 * plain.resources.bram18k);
    EXPECT_EQ(df.resources.memoryBits, 2 * plain.resources.memoryBits);
    EXPECT_EQ(df.resources.lut, plain.resources.lut);
    EXPECT_EQ(df.resources.dsp, plain.resources.dsp);
}

TEST(Estimator, CallCycleIsInfeasible)
{
    // a -> b -> a: the recursion guard must surface as an infeasible
    // result for every function on the cycle and for any caller.
    auto module = createModule();
    Operation *a = createFunc(module.get(), "a", {});
    Operation *b = createFunc(module.get(), "b", {});
    Operation *caller = createFunc(module.get(), "caller", {});
    appendCall(a, "b");
    appendCall(b, "a");
    appendCall(caller, "a");

    QoREstimator estimator(module.get());
    EXPECT_FALSE(estimator.estimateFunc(a).feasible);
    EXPECT_FALSE(estimator.estimateFunc(b).feasible);
    EXPECT_FALSE(estimator.estimateFunc(caller).feasible);
}

TEST(Estimator, SelfRecursionIsInfeasible)
{
    auto module = createModule();
    Operation *f = createFunc(module.get(), "f", {});
    appendCall(f, "f");
    QoREstimator estimator(module.get());
    EXPECT_FALSE(estimator.estimateFunc(f).feasible);
}

TEST(Estimator, DataflowEmptyBody)
{
    // A dataflow function with no stages: one-cycle interval, control
    // overhead only — and, crucially, no crash or zero interval.
    auto module = createModule();
    Operation *f = createFunc(module.get(), "empty", {});
    setFuncDirective(f, FuncDirective{true, false, 1});
    QoRResult qor = QoREstimator(module.get()).estimateFunc(f);
    EXPECT_TRUE(qor.feasible);
    EXPECT_EQ(qor.interval, 1);
    EXPECT_GE(qor.latency, 1);
    EXPECT_LE(qor.latency, 4);
}

TEST(Estimator, DataflowSingleStage)
{
    // One loop stage: the interval is the stage itself, strictly below
    // the total latency (which adds the dataflow entry/exit overhead);
    // without the directive, interval == latency.
    auto plain_module = affineModule(polybenchSource("gemm", 16));
    QoRResult plain = estimateOf(plain_module.get());
    ASSERT_TRUE(plain.feasible);
    EXPECT_EQ(plain.interval, plain.latency);

    auto df_module = affineModule(polybenchSource("gemm", 16));
    Operation *top = getTopFunc(df_module.get());
    FuncDirective fd = getFuncDirective(top);
    fd.dataflow = true;
    setFuncDirective(top, fd);
    QoRResult df = estimateOf(df_module.get());
    ASSERT_TRUE(df.feasible);
    EXPECT_GT(df.interval, 1);
    EXPECT_LT(df.interval, df.latency);
    EXPECT_LE(df.interval, plain.latency);
}

TEST(Estimator, DataflowInfeasibleStage)
{
    // An unraised (scf) stage has unknown trips: the stage - and the
    // whole dataflow function - must come back infeasible, not with a
    // placeholder interval that looks excellent.
    auto module = parseCToModule(polybenchSource("gemm", 8));
    Operation *top = getTopFunc(module.get());
    FuncDirective fd = getFuncDirective(top);
    fd.dataflow = true;
    setFuncDirective(top, fd);
    QoRResult qor = estimateOf(module.get());
    EXPECT_FALSE(qor.feasible);
}

TEST(Estimator, DataflowInsidePipeline)
{
    // A dataflow sub-function called from a pipelined loop body: the
    // callee's latency must compose into the caller's critical path.
    auto module = affineModule(polybenchSource("gemm", 16) + "\n" +
                               polybenchSource("syrk", 16));
    Operation *gemm = lookupFunc(module.get(), "gemm");
    Operation *syrk = lookupFunc(module.get(), "syrk");
    ASSERT_NE(gemm, nullptr);
    ASSERT_NE(syrk, nullptr);

    FuncDirective fd = getFuncDirective(syrk);
    fd.dataflow = true;
    setFuncDirective(syrk, fd);
    int64_t syrk_latency =
        QoREstimator(module.get()).estimateFunc(syrk).latency;

    auto band = getLoopNest(getLoopBands(gemm)[0][0]);
    ASSERT_TRUE(applyLoopPipelining(band.back(), 1));
    Block *leaf_body = AffineForOp(band.back()).body();
    OpBuilder builder(leaf_body, leaf_body->front());
    builder.create(std::string(ops::Call), {}, {},
                   {{kCallee, Attribute(std::string("syrk"))}});

    QoRResult qor = QoREstimator(module.get()).estimateFunc(gemm);
    ASSERT_TRUE(qor.feasible);
    EXPECT_GT(qor.latency, syrk_latency);
}

TEST(Estimator, ParallelAndCachedEstimationBitIdentical)
{
    // A multi-function dataflow design estimated sequentially, in
    // parallel, and through a warm cross-point cache must produce the
    // same QoR bit for bit.
    auto module = affineModule(polybenchSource("gemm", 16) + "\n" +
                               polybenchSource("syrk", 16) + "\n" +
                               polybenchSource("bicg", 16));
    Operation *top = createFunc(module.get(), "top_df", {});
    setFuncDirective(top, FuncDirective{true, false, 1});
    appendCall(top, "gemm");
    appendCall(top, "syrk");
    appendCall(top, "bicg");

    QoRResult sequential = QoREstimator(module.get()).estimateFunc(top);
    ASSERT_TRUE(sequential.feasible);

    ThreadPool pool(4);
    EstimateCache cache;
    QoRResult parallel =
        QoREstimator(module.get(), &pool, &cache).estimateFunc(top);
    EXPECT_GT(cache.funcStats().lookups(), 0u);

    // A second estimator instance over the warm cache: served from it.
    QoRResult cached =
        QoREstimator(module.get(), &pool, &cache).estimateFunc(top);
    EXPECT_GT(cache.funcStats().hits, 0u);

    for (const QoRResult *other : {&parallel, &cached}) {
        EXPECT_EQ(other->latency, sequential.latency);
        EXPECT_EQ(other->interval, sequential.interval);
        EXPECT_EQ(other->feasible, sequential.feasible);
        EXPECT_EQ(other->resources.dsp, sequential.resources.dsp);
        EXPECT_EQ(other->resources.lut, sequential.resources.lut);
        EXPECT_EQ(other->resources.bram18k,
                  sequential.resources.bram18k);
        EXPECT_EQ(other->resources.memoryBits,
                  sequential.resources.memoryBits);
    }
}

TEST(ResourceModel, MixedPrecisionUsesWidestWidth)
{
    // opProfile must profile at the widest float lane among operands AND
    // results — reading only operand(0) mis-costs mixed-precision ops.
    auto module = createModule();
    Operation *f = createFunc(module.get(), "f", {});
    Block *body = funcBody(f);
    OpBuilder b(body, body->back());
    Operation *c32 = createConstantFloat(b, 1.0, Type::f32());
    Operation *c64 = createConstantFloat(b, 2.0, Type::f64());

    // Pure single precision: the f32 core (3 DSP fmul, 2 DSP fadd).
    Operation *mul32 = b.create(std::string(ops::MulF), {Type::f32()},
                                {c32->result(0), c32->result(0)});
    EXPECT_EQ(opProfile(mul32).dsp, 3);
    EXPECT_EQ(opProfile(mul32).latency, 3);

    // Narrow FIRST operand feeding a double datapath: the wide second
    // operand must win (operand(0) alone would pick the f32 core).
    Operation *mul_mixed = b.create(std::string(ops::MulF), {Type::f64()},
                                    {c32->result(0), c64->result(0)});
    EXPECT_EQ(opProfile(mul_mixed).dsp, 11);
    EXPECT_EQ(opProfile(mul_mixed).latency, 6);

    // Widening op: narrow operands, wide RESULT — the result votes too.
    Operation *add_widening =
        b.create(std::string(ops::AddF), {Type::f64()},
                 {c32->result(0), c32->result(0)});
    EXPECT_EQ(opProfile(add_widening).dsp, 3);
    EXPECT_EQ(opProfile(add_widening).latency, 7);

    // A float compare's i1 result must not shrink the vote: cmpf on
    // doubles keeps its (width-independent) comparator profile, and the
    // wide operands do not crash the result-type scan.
    Operation *cmp = createCmpF(b, CmpPredicate::LT, c64->result(0),
                                c64->result(0));
    EXPECT_EQ(opProfile(cmp).latency, 1);
    EXPECT_EQ(opProfile(cmp).dsp, 0);
}

TEST(Estimator, EstimateCacheKeyInjective)
{
    // keyFor must be an injective encoding of the (name, digest) pair: a
    // '#' inside a function name used to alias another pair's key.
    EXPECT_NE(EstimateCache::keyFor("a#b", "c"),
              EstimateCache::keyFor("a", "b#c"));
    EXPECT_NE(EstimateCache::keyFor("f#1", "d"),
              EstimateCache::keyFor("f", "1#d"));
    EXPECT_EQ(EstimateCache::keyFor("kernel", "abc"),
              EstimateCache::keyFor("kernel", "abc"));
    EXPECT_NE(EstimateCache::keyFor("kernel", "abc"),
              EstimateCache::keyFor("kernel", "abd"));
}

TEST(Estimator, BandDigestSharingAndSensitivity)
{
    // 3mm: three structurally identical matmul stages over equal-typed
    // interface arrays — digest-equal, so one schedule entry can serve
    // all three. Directives and partition layouts inside/around one band
    // must perturb only that band's digest.
    auto module = affineModule(polybenchSource("3mm", 8));
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    ASSERT_EQ(bands.size(), 3u);
    auto d0 = bandEstimateDigest(bands[0][0]);
    auto d1 = bandEstimateDigest(bands[1][0]);
    auto d2 = bandEstimateDigest(bands[2][0]);
    ASSERT_TRUE(d0 && d1 && d2);
    EXPECT_EQ(*d0, *d1);
    EXPECT_EQ(*d0, *d2);

    // A pipeline directive inside band 1: only band 1's digest moves.
    ASSERT_TRUE(applyLoopPipelining(getLoopNest(bands[1][0]).back(), 2));
    auto d1_pipelined = bandEstimateDigest(bands[1][0]);
    ASSERT_TRUE(d1_pipelined);
    EXPECT_NE(*d1_pipelined, *d1);
    EXPECT_EQ(*bandEstimateDigest(bands[0][0]), *d0);
    EXPECT_EQ(*bandEstimateDigest(bands[2][0]), *d2);

    // Partitioning an interface array referenced by bands 0 and 2 (E is
    // written by stage 0 and read by stage 2): the layout is part of
    // the external's type, so exactly those two digests move.
    Value *e_arg = funcBody(func)->argument(0);
    PartitionPlan plan;
    plan.kinds = {PartitionKind::Cyclic, PartitionKind::None};
    plan.factors = {2, 1};
    applyPartitionPlan(e_arg, plan);
    EXPECT_NE(*bandEstimateDigest(bands[0][0]), *d0);
    EXPECT_NE(*bandEstimateDigest(bands[2][0]), *d2);
    EXPECT_EQ(*bandEstimateDigest(bands[1][0]), *d1_pipelined);
}

TEST(Estimator, PartitionRelevantDimsAndLayoutKeying)
{
    // A band loading A[i] and A[i+1] CAN separate banks along A's only
    // dim (known nonzero subscript distance), so that dim is relevant. B
    // is stored through a single subscript — irrelevant. The band digest
    // keys every external layout regardless: repartitioning either
    // array changes it.
    auto module = createModule();
    Type memref = Type::memref({16}, Type::f32());
    Operation *func =
        createFunc(module.get(), "shift", {memref, memref});
    Block *body = funcBody(func);
    Value *a = body->argument(0);
    Value *b_arg = body->argument(1);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 15);
    OpBuilder inner(loop.body());
    Operation *x = createAffineLoad(inner, a, AffineMap::identity(1),
                                    {loop.inductionVar()});
    Operation *y = createAffineLoad(
        inner, a, AffineMap::get(1, getAffineDimExpr(0) + 1),
        {loop.inductionVar()});
    Operation *sum = inner.create(std::string(ops::AddF), {Type::f32()},
                                  {x->result(0), y->result(0)});
    createAffineStore(inner, sum->result(0), b_arg,
                      AffineMap::identity(1), {loop.inductionVar()});

    Operation *band = getLoopBands(func)[0][0];
    AccessTable accesses;
    auto masks = partitionRelevantDims(band, accesses);
    ASSERT_TRUE(masks.count(a));
    ASSERT_TRUE(masks.count(b_arg));
    EXPECT_TRUE(masks.at(a)[0]);
    EXPECT_FALSE(masks.at(b_arg)[0]);

    auto base = bandEstimateDigest(band);
    ASSERT_TRUE(base);
    PartitionPlan plan;
    plan.kinds = {PartitionKind::Cyclic};
    plan.factors = {2};
    applyPartitionPlan(a, plan);
    auto a_partitioned = bandEstimateDigest(band);
    ASSERT_TRUE(a_partitioned);
    EXPECT_NE(*a_partitioned, *base);

    applyPartitionPlan(b_arg, plan);
    EXPECT_NE(*bandEstimateDigest(band), *a_partitioned);
}

TEST(Estimator, BandWithCallNotContentDetermined)
{
    // A band containing a func.call depends on the callee's body, which
    // the band digest does not cover: it must refuse to produce one.
    auto module = affineModule(polybenchSource("gemm", 8) + "\n" +
                               polybenchSource("syrk", 8));
    Operation *gemm = lookupFunc(module.get(), "gemm");
    auto band = getLoopNest(getLoopBands(gemm)[0][0]);
    Block *leaf_body = AffineForOp(band.back()).body();
    OpBuilder builder(leaf_body, leaf_body->front());
    builder.create(std::string(ops::Call), {}, {},
                   {{kCallee, Attribute(std::string("syrk"))}});
    EXPECT_FALSE(bandEstimateDigest(band.front()).has_value());
}

TEST(Estimator, MultiBandVariantsMatchUncached)
{
    // Two 2mm variants that differ only in the SECOND band's pipeline
    // II: the whole-function digests differ (the function tier cannot
    // help), so both walk their bands — and every configuration stays
    // bit-identical to the sequential uncached path.
    auto make = [](int64_t ii) {
        auto module = affineModule(polybenchSource("2mm", 8));
        Operation *func = getTopFunc(module.get());
        auto bands = getLoopBands(func);
        EXPECT_TRUE(
            applyLoopPipelining(getLoopNest(bands[1][0]).back(), ii));
        return module;
    };
    // IIs on either side of the band's recurrence-limited minimum, so
    // the two variants genuinely estimate differently.
    auto m1 = make(1);
    auto m2 = make(16);
    QoRResult ref1 = QoREstimator(m1.get()).estimateModule();
    QoRResult ref2 = QoREstimator(m2.get()).estimateModule();
    ASSERT_TRUE(ref1.feasible);
    ASSERT_TRUE(ref2.feasible);
    EXPECT_NE(ref1.latency, ref2.latency);

    EstimateCache cache;
    QoRResult q1 =
        QoREstimator(m1.get(), nullptr, &cache).estimateModule();
    QoRResult q2 =
        QoREstimator(m2.get(), nullptr, &cache).estimateModule();
    EXPECT_EQ(cache.funcStats().hits, 0u); // Function tier: all misses.

    for (const auto &[cached, reference] :
         {std::make_pair(q1, ref1), std::make_pair(q2, ref2)}) {
        EXPECT_EQ(cached.latency, reference.latency);
        EXPECT_EQ(cached.interval, reference.interval);
        EXPECT_EQ(cached.feasible, reference.feasible);
        EXPECT_EQ(cached.resources.dsp, reference.resources.dsp);
        EXPECT_EQ(cached.resources.lut, reference.resources.lut);
        EXPECT_EQ(cached.resources.bram18k, reference.resources.bram18k);
        EXPECT_EQ(cached.resources.memoryBits,
                  reference.resources.memoryBits);
    }
}

TEST(Estimator, DigestDistinguishesDirectives)
{
    // Same structure, different pipeline II: different digests. Same
    // content in a cloned module: same digest (that equality is what
    // makes cross-point sharing sound).
    auto module = affineModule(polybenchSource("gemm", 16));
    auto clone = module->clone();
    auto digests = moduleEstimateDigests(module.get());
    auto clone_digests = moduleEstimateDigests(clone.get());
    Operation *top = getTopFunc(module.get());
    Operation *clone_top = getTopFunc(clone.get());
    EXPECT_EQ(digests.digest.at(top), clone_digests.digest.at(clone_top));
    EXPECT_TRUE(digests.cyclic.empty());

    auto band = getLoopNest(getLoopBands(clone_top)[0][0]);
    ASSERT_TRUE(applyLoopPipelining(band.back(), 2));
    auto directed = moduleEstimateDigests(clone.get());
    EXPECT_NE(digests.digest.at(top), directed.digest.at(clone_top));
}

TEST(EstimateCache, DigestsArePinned)
{
    // Golden digests. Snapshots persist entries under these keys, so the
    // bytes TreeSerializer feeds must not drift unless the digest schema
    // salt moves with them. Each kernel's first band carries a pipeline
    // directive and a partitioned interface array, so directive
    // attributes and partitioned memref types reach the digest.
    struct Golden
    {
        const char *kernel;
        const char *func;
        const char *bandUnmasked;
        uint64_t planLaneA;
        uint64_t planLaneB;
    };
    const Golden goldens[] = {
        {"gemm", "186f85f391764d6399454337d2e3c1b3",
         "ed761843f5f9e7d8a35bff3891592601", 10463891827713073804ull,
         8102971602766481241ull},
        {"syrk", "3272ace93f0f001e21e4b36e893333cb",
         "1809052171cedc3ebaf3713482d1fdb2", 4481647071178216858ull,
         3074090621876861898ull},
        {"trmm", "fddfd869e6edf5ed01ca96b387356c6b",
         "178b47e7c87b4ce59763cb72617ea065", 7796910974244363409ull,
         4008882785549826621ull},
    };
    for (const Golden &golden : goldens) {
        SCOPED_TRACE(golden.kernel);
        auto module = affineModule(polybenchSource(golden.kernel, 16));
        Operation *func = getTopFunc(module.get());
        Operation *band = getLoopBands(func)[0][0];
        ASSERT_TRUE(applyLoopPipelining(getLoopNest(band).back(), 1));
        for (Value *arg : funcBody(func)->arguments()) {
            if (!arg->type().isMemRef())
                continue;
            PartitionPlan plan;
            plan.kinds = {PartitionKind::Block, PartitionKind::Cyclic};
            plan.factors = {2, 4};
            applyPartitionPlan(arg, plan);
            break;
        }

        EstimateDigests digests;
        addFuncEstimateDigests(func, module.get(), digests);
        EXPECT_EQ(digests.digest.at(func), golden.func);
        auto unmasked = bandEstimateDigestInfo(band);
        ASSERT_TRUE(unmasked);
        EXPECT_EQ(unmasked->digest, golden.bandUnmasked);
        auto seed = bandPlanSeed(band, nullptr);
        ASSERT_TRUE(seed);
        EXPECT_EQ(seed->laneA, golden.planLaneA);
        EXPECT_EQ(seed->laneB, golden.planLaneB);
    }
    EXPECT_EQ(cacheSnapshotSalt(),
              "digest-schema-1|excluded:hlscpp.top_func,|relevant:"
              "hlscpp.loop_directive,hlscpp.func_directive,"
              "hlscpp.dataflow_stage,hlscpp.point_loop,lower_map,"
              "upper_map,lb_count,step,map,condition,value,callee,|hash:"
              "5a06ac7ba41b6225a33ccc4fe20ae499");
}

TEST(Estimator, CyclicFunctionsExcludedFromDigestSharing)
{
    // Functions on (or reaching) a call cycle have entry-point-dependent
    // digests; they must be flagged so the shared cache skips them.
    auto module = createModule();
    Operation *a = createFunc(module.get(), "a", {});
    Operation *b = createFunc(module.get(), "b", {});
    Operation *caller = createFunc(module.get(), "caller", {});
    Operation *clean = createFunc(module.get(), "clean", {});
    appendCall(a, "b");
    appendCall(b, "a");
    appendCall(caller, "a");
    auto digests = moduleEstimateDigests(module.get());
    EXPECT_TRUE(digests.cyclic.count(a));
    EXPECT_TRUE(digests.cyclic.count(b));
    EXPECT_TRUE(digests.cyclic.count(caller));
    EXPECT_FALSE(digests.cyclic.count(clean));
}

TEST(ResourceModel, BudgetFitsBoundarySemantics)
{
    ResourceBudget budget;
    budget.dsp = 100;
    budget.lut = 2000;
    budget.memoryBits = 4096;

    // Exact fit on every resource is accepted (<=, not <).
    ResourceUsage exact;
    exact.dsp = 100;
    exact.lut = 2000;
    exact.memoryBits = 4096;
    EXPECT_TRUE(budget.fits(exact));

    // One unit over on ANY single resource rejects, independently of
    // the others sitting well under budget.
    ResourceUsage over_dsp = exact;
    over_dsp.dsp = 101;
    over_dsp.lut = 0;
    over_dsp.memoryBits = 0;
    EXPECT_FALSE(budget.fits(over_dsp));
    ResourceUsage over_lut;
    over_lut.lut = 2001;
    EXPECT_FALSE(budget.fits(over_lut));
    ResourceUsage over_mem;
    over_mem.memoryBits = 4097;
    EXPECT_FALSE(budget.fits(over_mem));

    // Zero usage always fits; bram18k is capacity-modeled through
    // memoryBits and does not gate on its own.
    EXPECT_TRUE(budget.fits(ResourceUsage{}));
    ResourceUsage bram_only;
    bram_only.bram18k = 1000000;
    EXPECT_TRUE(budget.fits(bram_only));
}

TEST(ResourceModel, ParseResourceBudgetSpecs)
{
    auto edge = parseResourceBudget("xc7z020");
    ASSERT_TRUE(edge.has_value());
    EXPECT_EQ(edge->name, "xc7z020");
    EXPECT_EQ(edge->dsp, xc7z020().dsp);
    EXPECT_EQ(edge->memoryBits, xc7z020().memoryBits);

    auto slr = parseResourceBudget("vu9p-slr");
    ASSERT_TRUE(slr.has_value());
    EXPECT_EQ(slr->dsp, vu9pSlr().dsp);

    // Custom triple: dsp:lut:bram18k, BRAM at 18 Kb per block.
    auto custom = parseResourceBudget("220:53200:280");
    ASSERT_TRUE(custom.has_value());
    EXPECT_EQ(custom->dsp, 220);
    EXPECT_EQ(custom->lut, 53200);
    EXPECT_EQ(custom->memoryBits, int64_t(280) * 18 * 1024);

    EXPECT_FALSE(parseResourceBudget("").has_value());
    EXPECT_FALSE(parseResourceBudget("vu9p").has_value());
    EXPECT_FALSE(parseResourceBudget("1:2").has_value());
    EXPECT_FALSE(parseResourceBudget("1:2:3:4").has_value());
    EXPECT_FALSE(parseResourceBudget("1:-2:3").has_value());
    EXPECT_FALSE(parseResourceBudget("a:b:c").has_value());
}

} // namespace
} // namespace scalehls
