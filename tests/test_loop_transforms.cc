/** @file Tests for loop-level transforms: perfectization, RVB,
 * permutation/order-opt, tiling, unrolling. */

#include <limits>

#include <gtest/gtest.h>

#include "frontend/irgen.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "model/polybench.h"
#include "transform/pass.h"
#include "transform/utils.h"

namespace scalehls {
namespace {

std::unique_ptr<Operation>
affineModule(const std::string &source)
{
    auto module = parseCToModule(source);
    raiseScfToAffine(module.get());
    return module;
}

TEST(Perfectization, GemmBecomesPerfect)
{
    auto module = affineModule(polybenchSource("gemm", 16));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    ASSERT_FALSE(isPerfectNest(band));
    EXPECT_TRUE(applyLoopPerfectization(band[0]));
    band = getLoopNest(band[0]);
    EXPECT_TRUE(isPerfectNest(band));
    EXPECT_TRUE(verifyOk(module.get()));
    // The hoisted beta-store is now guarded by a first-iteration if.
    EXPECT_FALSE(func->collect(ops::AffineIf).empty());
}

TEST(Perfectization, GesummvPreAndPostOps)
{
    auto module = affineModule(polybenchSource("gesummv", 16));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    EXPECT_TRUE(applyLoopPerfectization(band[0]));
    band = getLoopNest(band[0]);
    EXPECT_TRUE(isPerfectNest(band));
    EXPECT_TRUE(verifyOk(module.get()));
    // Both first-iteration (init) and last-iteration (final scale) guards.
    EXPECT_GE(func->collect(ops::AffineIf).size(), 2u);
}

TEST(Perfectization, RefusesToSinkIntoAZeroTripLoop)
{
    // trmm at n=1: after remove-variable-bound the k loop runs from 1 to
    // 1. Sinking `B[i][j] *= alpha` into it (under a guard) would drop
    // the store, so the pass must leave the nest as it is.
    auto module = affineModule(polybenchSource("trmm", 1));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    ASSERT_TRUE(applyRemoveVariableBound(band[0]));
    band = getLoopNest(band[0]);
    ASSERT_EQ(band.size(), 3u);
    AffineForOp k_loop(band[2]);
    ASSERT_EQ(k_loop.constantLowerBound(), 1);
    ASSERT_EQ(k_loop.constantUpperBound(), 1);
    EXPECT_FALSE(applyLoopPerfectization(band[0]));
    // The alpha store still sits in the j loop's body, outside k.
    int stores_in_j = 0;
    for (auto &op : AffineForOp(band[1]).body()->ops())
        stores_in_j += op->is(ops::AffineStore) ? 1 : 0;
    EXPECT_EQ(stores_in_j, 1);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(RemoveVariableBound, SyrkTriangular)
{
    auto module = affineModule(polybenchSource("syrk", 16));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    EXPECT_TRUE(applyRemoveVariableBound(band[0]));
    for (Operation *loop : getLoopNest(band[0]))
        EXPECT_TRUE(AffineForOp(loop).hasConstantBounds());
    EXPECT_TRUE(verifyOk(module.get()));
    // Guard `i - j >= 0` materialized.
    EXPECT_FALSE(func->collect(ops::AffineIf).empty());
}

TEST(RemoveVariableBound, TrmmVariableLowerBound)
{
    auto module = affineModule(polybenchSource("trmm", 8));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    EXPECT_TRUE(applyRemoveVariableBound(band[0]));
    AffineForOp k_loop(getLoopNest(band[0])[2]);
    EXPECT_EQ(k_loop.constantLowerBound(), 1); // min over i of i+1.
    EXPECT_EQ(k_loop.constantUpperBound(), 8);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(RemoveVariableBound, NoopOnRectangular)
{
    auto module = affineModule(polybenchSource("gemm", 16));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    EXPECT_FALSE(applyRemoveVariableBound(band[0]));
}

TEST(Permutation, SwapsBoundsAndUses)
{
    auto module = affineModule("void k(float A[4][8]) {\n"
                               "  for (int i = 0; i < 4; i++)\n"
                               "    for (int j = 0; j < 8; j++)\n"
                               "      A[i][j] = 0.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    ASSERT_TRUE(applyLoopPermutation(band, {1, 0}));
    EXPECT_TRUE(verifyOk(module.get()));
    band = getLoopBands(func)[0];
    // Outer loop now iterates 8 times (the old j).
    EXPECT_EQ(getTripCount(AffineForOp(band[0])), 8);
    EXPECT_EQ(getTripCount(AffineForOp(band[1])), 4);
    // The store still hits A[i][j] with i the 4-trip IV.
    auto stores = func->collect(ops::AffineStore);
    ASSERT_EQ(stores.size(), 1u);
    AffineStoreOp store(stores[0]);
    auto operands = store.mapOperands();
    // dim0 operand must be the inner loop's IV now.
    Value *inner_iv = AffineForOp(band[1]).inductionVar();
    AffineMap map = store.map();
    // Evaluate the map at (inner=3, outer=5) after locating positions.
    std::vector<int64_t> dims(operands.size());
    for (unsigned i = 0; i < operands.size(); ++i)
        dims[i] = (operands[i] == inner_iv) ? 3 : 5;
    EXPECT_EQ(map.evaluate(dims), (std::vector<int64_t>{3, 5}));
}

TEST(Permutation, RejectsIllegal)
{
    // j's bound depends on i; moving i inside j is illegal.
    auto module = affineModule(polybenchSource("syrk", 16));
    Operation *func = getTopFunc(module.get());
    applyLoopPerfectization(getLoopBands(func)[0][0]);
    auto band = getLoopNest(getLoopBands(func)[0][0]);
    ASSERT_EQ(band.size(), 3u);
    EXPECT_FALSE(applyLoopPermutation(band, {1, 0, 2}));
}

TEST(Permutation, RejectsNonPermutation)
{
    auto module = affineModule(polybenchSource("gemm", 8));
    Operation *func = getTopFunc(module.get());
    applyLoopPerfectization(getLoopBands(func)[0][0]);
    auto band = getLoopNest(getLoopBands(func)[0][0]);
    EXPECT_FALSE(applyLoopPermutation(band, {0, 0, 1}));
}

TEST(OrderOpt, GemmPushesReductionOutward)
{
    auto module = affineModule(polybenchSource("gemm", 16));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    applyLoopPerfectization(band[0]);
    band = getLoopNest(band[0]);
    ASSERT_TRUE(applyLoopOrderOpt(band));
    EXPECT_TRUE(verifyOk(module.get()));
    // After reordering, the innermost loop must not carry the C[i][j]
    // recurrence: its IV appears in the C subscripts.
    band = getLoopNest(band[0]);
    AccessTable accesses;
    auto recurrences = findRecurrences(band, accesses);
    for (const Recurrence &rec : recurrences)
        EXPECT_GT(rec.flatDistance, 1) << "recurrence still innermost";
}

TEST(OrderOpt, NoChangeWithoutRecurrence)
{
    auto module = affineModule("void k(float A[8][8]) {\n"
                               "  for (int i = 0; i < 8; i++)\n"
                               "    for (int j = 0; j < 8; j++)\n"
                               "      A[i][j] = A[i][j] + 1.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    EXPECT_FALSE(applyLoopOrderOpt(band));
}

TEST(Tiling, CreatesPointLoopsInnermost)
{
    auto module = affineModule(polybenchSource("gemm", 16));
    Operation *func = getTopFunc(module.get());
    applyLoopPerfectization(getLoopBands(func)[0][0]);
    auto band = getLoopNest(getLoopBands(func)[0][0]);
    auto tile_band = applyLoopTiling(band, {4, 1, 2});
    ASSERT_EQ(tile_band.size(), 3u);
    EXPECT_TRUE(verifyOk(module.get()));

    // Tile loops keep bounds but scale steps.
    EXPECT_EQ(AffineForOp(tile_band[0]).step(), 4);
    EXPECT_EQ(AffineForOp(tile_band[1]).step(), 1);
    EXPECT_EQ(AffineForOp(tile_band[2]).step(), 2);

    // Point loops live inside the innermost tile loop: total loops 3 + 2.
    EXPECT_EQ(func->collect(ops::AffineFor).size(), 5u);

    // Point loop trip counts equal the tile sizes.
    auto inner_band = getLoopNest(tile_band[2]);
    ASSERT_EQ(inner_band.size(), 3u); // innermost tile + 2 point loops.
    EXPECT_EQ(getTripCount(AffineForOp(inner_band[1])), 4);
    EXPECT_EQ(getTripCount(AffineForOp(inner_band[2])), 2);
}

TEST(Tiling, ClampsToDivisors)
{
    auto module = affineModule("void k(float A[12]) {\n"
                               "  for (int i = 0; i < 12; i++)\n"
                               "    A[i] = 0.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    auto tiled = applyLoopTiling(band, {5}); // 5 -> divisor 4.
    ASSERT_EQ(tiled.size(), 1u);
    EXPECT_EQ(AffineForOp(tiled[0]).step(), 4);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(Tiling, RequiresPerfectNest)
{
    auto module = affineModule(polybenchSource("gemm", 16));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0]; // Imperfect (beta store).
    EXPECT_TRUE(applyLoopTiling(band, {2, 2, 2}).empty());
}

TEST(Unroll, FullUnrollRemovesLoop)
{
    auto module = affineModule("void k(float A[4]) {\n"
                               "  for (int i = 0; i < 4; i++)\n"
                               "    A[i] = A[i] + 1.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    ASSERT_TRUE(applyLoopUnroll(band[0], 100));
    EXPECT_TRUE(func->collect(ops::AffineFor).empty());
    EXPECT_EQ(func->collect(ops::AffineLoad).size(), 4u);
    EXPECT_EQ(func->collect(ops::AffineStore).size(), 4u);
    EXPECT_TRUE(verifyOk(module.get()));

    // Unrolled accesses hit constant, distinct addresses.
    std::set<int64_t> addresses;
    for (Operation *store : func->collect(ops::AffineStore)) {
        AffineStoreOp s(store);
        auto operands = s.mapOperands();
        std::vector<int64_t> dims;
        for (Value *operand : operands) {
            auto c = getConstantIntValue(operand);
            ASSERT_TRUE(c);
            dims.push_back(*c);
        }
        addresses.insert(s.map().evaluate(dims)[0]);
    }
    EXPECT_EQ(addresses.size(), 4u);
}

TEST(Unroll, PartialKeepsAffineMaps)
{
    auto module = affineModule("void k(float A[16]) {\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    A[i] = 0.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    ASSERT_TRUE(applyLoopUnroll(band[0], 4));
    EXPECT_TRUE(verifyOk(module.get()));
    AffineForOp loop(getLoopBands(func)[0][0]);
    EXPECT_EQ(loop.step(), 4);
    auto stores = func->collect(ops::AffineStore);
    ASSERT_EQ(stores.size(), 4u);
    // Offsets 0..3 relative to the IV.
    std::set<int64_t> offsets;
    for (Operation *store : stores)
        offsets.insert(AffineStoreOp(store).map().result(0).evaluate({0}));
    EXPECT_EQ(offsets, (std::set<int64_t>{0, 1, 2, 3}));
}

TEST(Unroll, PointLoopWithVariableBounds)
{
    // Tiling then unrolling the point loop exercises the
    // difference-based trip count.
    auto module = affineModule("void k(float A[16]) {\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    A[i] = 0.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    auto tiled = applyLoopTiling(band, {4});
    auto nest = getLoopNest(tiled[0]);
    ASSERT_EQ(nest.size(), 2u);
    ASSERT_TRUE(applyLoopUnroll(nest[1], 100)); // Full unroll point loop.
    EXPECT_TRUE(verifyOk(module.get()));
    EXPECT_EQ(func->collect(ops::AffineFor).size(), 1u);
    EXPECT_EQ(func->collect(ops::AffineStore).size(), 4u);
}

TEST(Unroll, ClampsToDivisor)
{
    auto module = affineModule("void k(float A[12]) {\n"
                               "  for (int i = 0; i < 12; i++)\n"
                               "    A[i] = 0.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    ASSERT_TRUE(applyLoopUnroll(band[0], 5)); // -> factor 4.
    EXPECT_EQ(func->collect(ops::AffineStore).size(), 4u);
}

TEST(Unroll, SizeGuardDoesNotOverflow)
{
    // trip * ops overflows int64_t for a 2^62-trip loop; the guard must
    // still refuse instead of unrolling forever.
    auto module = affineModule(
        "void k(float A[1]) {\n"
        "  for (int j = 0; j < 4611686018427387904; j++) A[0] = 1.0f;\n"
        "}");
    Operation *func = getTopFunc(module.get());
    std::string before = printOp(module.get());
    Operation *loop = getLoopBands(func)[0][0];
    EXPECT_FALSE(applyLoopUnroll(loop, std::numeric_limits<int64_t>::max()));
    EXPECT_EQ(printOp(module.get()), before);
}

/** The reference unroll iteration: every body op is cloned by its own
 * clone(mapping) call and inserted before @p anchor, then its IV uses
 * are substituted. */
void
perOpUnrollIteration(AffineForOp loop, const std::vector<Operation *> &body,
                     Block *dest, Operation *anchor, const AffineExpr &repl,
                     const std::vector<Value *> &repl_operands)
{
    std::unordered_map<Value *, Value *> mapping;
    for (Operation *body_op : body) {
        Operation *cloned =
            dest->insertBefore(anchor, body_op->clone(mapping));
        OpBuilder materialize(dest, cloned);
        substituteIV(cloned, loop.inductionVar(), repl, repl_operands,
                     materialize);
    }
}

TEST(Unroll, RangeCloneMatchesPerOpCloning)
{
    // Intra-body def-use chains (load -> add -> mul -> store, a scalar
    // buffer round trip) and a nested loop that reads the chain.
    const std::string source =
        "void k(float A[8], float B[8], float C[8][3]) {\n"
        "  for (int i = 0; i < 8; i++) {\n"
        "    float t = (A[i] + B[i]) * A[i];\n"
        "    B[i] = t + t;\n"
        "    for (int j = 0; j < 3; j++)\n"
        "      C[i][j] = C[i][j] * t + A[i];\n"
        "  }\n"
        "}";
    for (int64_t factor : {8, 4}) {
        SCOPED_TRACE(factor);
        auto unrolled = affineModule(source);
        Operation *loop_op = getLoopBands(getTopFunc(unrolled.get()))[0][0];
        ASSERT_TRUE(applyLoopUnroll(loop_op, factor));
        EXPECT_TRUE(verifyOk(unrolled.get()));

        auto reference = affineModule(source);
        AffineForOp loop(getLoopBands(getTopFunc(reference.get()))[0][0]);
        auto body = loop.body()->opsVector();
        if (factor == 8) {
            Block *parent = loop.op()->parentBlock();
            for (int64_t k = 0; k < 8; ++k)
                perOpUnrollIteration(loop, body, parent, loop.op(),
                                     loop.lowerBoundMap().result(0) + k,
                                     loop.lowerBoundOperands());
            loop.op()->erase();
        } else {
            loop.setStep(factor);
            for (int64_t k = 1; k < factor; ++k)
                perOpUnrollIteration(loop, body, loop.body(), nullptr,
                                     getAffineDimExpr(0) + k,
                                     {loop.inductionVar()});
        }
        EXPECT_EQ(printOp(unrolled.get()), printOp(reference.get()));
    }
}

} // namespace
} // namespace scalehls
