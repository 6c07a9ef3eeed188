/** @file Tests for the redundancy-elimination passes: canonicalize, CSE,
 * simplify-affine-if, affine-store-forward, simplify-memref-access. */

#include <gtest/gtest.h>

#include "frontend/irgen.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "model/polybench.h"
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

TEST(Canonicalize, ConstantFolding)
{
    auto module = createModule();
    Operation *func = createFunc(module.get(), "f",
                                 {Type::memref({4}, Type::f32())});
    Block *body = funcBody(func);
    OpBuilder b(body, body->back());
    Operation *c2 = createConstantIndex(b, 2);
    Operation *c3 = createConstantIndex(b, 3);
    Operation *sum =
        createBinary(b, ops::AddI, c2->result(0), c3->result(0));
    Operation *store = createMemStore(
        b, createConstantFloat(b, 1.0, Type::f32())->result(0),
        body->argument(0), {sum->result(0)});

    applyCanonicalize(func);
    // The add folded into a constant 5 feeding the store.
    auto c = getConstantIntValue(store->operand(2));
    ASSERT_TRUE(c);
    EXPECT_EQ(*c, 5);
    EXPECT_TRUE(func->collect(ops::AddI).empty());
}

TEST(Canonicalize, DeadCodeElimination)
{
    auto module = affineModule(
        "void k(float A[4]) { float unused = A[0] * 2.0; A[1] = 1.0; }");
    Operation *func = getTopFunc(module.get());
    applyAffineStoreForward(func); // Removes the dead scalar buffer.
    applyCanonicalize(func);
    // The unused load+mul chain is gone.
    EXPECT_TRUE(func->collect(ops::MulF).empty());
    EXPECT_EQ(func->collect(ops::Alloc).size(), 0u);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(Canonicalize, EmptyLoopErased)
{
    auto module = affineModule(
        "void k(float A[4]) { for (int i = 0; i < 4; i++) { float t = "
        "A[i]; } }");
    Operation *func = getTopFunc(module.get());
    applyAffineStoreForward(func);
    applyCanonicalize(func);
    EXPECT_TRUE(func->collect(ops::AffineFor).empty());
}

TEST(CSE, DeduplicatesPureOps)
{
    auto module = createModule();
    Operation *func = createFunc(module.get(), "f", {Type::f32()});
    Block *body = funcBody(func);
    OpBuilder b(body, body->back());
    Value *arg = body->argument(0);
    Operation *m1 = createBinary(b, ops::MulF, arg, arg);
    Operation *m2 = createBinary(b, ops::MulF, arg, arg);
    Operation *sum =
        createBinary(b, ops::AddF, m1->result(0), m2->result(0));

    EXPECT_TRUE(applyCSE(func));
    EXPECT_EQ(sum->operand(0), sum->operand(1));
    EXPECT_EQ(func->collect(ops::MulF).size(), 1u);
}

TEST(CSE, KeepsDifferentBlocksApart)
{
    auto module = affineModule("void k(float A[4], float B[4]) {\n"
                               "  for (int i = 0; i < 4; i++)\n"
                               "    A[i] = 2.0 * 3.0;\n"
                               "  for (int i = 0; i < 4; i++)\n"
                               "    B[i] = 2.0 * 3.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    applyCanonicalize(func);
    applyCSE(func);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(SimplifyAffineIf, AlwaysTrueInlined)
{
    auto module = affineModule("void k(float A[8]) {\n"
                               "  for (int i = 0; i < 8; i++)\n"
                               "    if (i >= 0) A[i] = 1.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_TRUE(applySimplifyAffineIf(func));
    EXPECT_TRUE(func->collect(ops::AffineIf).empty());
    EXPECT_EQ(func->collect(ops::AffineStore).size(), 1u);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(SimplifyAffineIf, AlwaysFalseRemoved)
{
    auto module = affineModule("void k(float A[8]) {\n"
                               "  for (int i = 0; i < 8; i++)\n"
                               "    if (i >= 8) A[i] = 1.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_TRUE(applySimplifyAffineIf(func));
    applyCanonicalize(func);
    EXPECT_TRUE(func->collect(ops::AffineStore).empty());
}

TEST(SimplifyAffineIf, ElseBranchPromoted)
{
    auto module = affineModule("void k(float A[8]) {\n"
                               "  for (int i = 0; i < 8; i++) {\n"
                               "    if (i < 0) { A[i] = 1.0; }\n"
                               "    else { A[i] = 2.0; }\n"
                               "  }\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_TRUE(applySimplifyAffineIf(func));
    EXPECT_TRUE(func->collect(ops::AffineIf).empty());
    ASSERT_EQ(func->collect(ops::AffineStore).size(), 1u);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(SimplifyAffineIf, KeepsUnknown)
{
    auto module = affineModule("void k(float A[8]) {\n"
                               "  for (int i = 0; i < 8; i++)\n"
                               "    if (i >= 4) A[i] = 1.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_FALSE(applySimplifyAffineIf(func));
    EXPECT_EQ(func->collect(ops::AffineIf).size(), 1u);
}

TEST(SimplifyAffineIf, AlwaysFalseOuterDropsInnerIfs)
{
    auto module = affineModule("void k(float A[8]) {\n"
                               "  for (int i = 0; i < 8; i++)\n"
                               "    if (i >= 8) {\n"
                               "      if (i >= 4) A[i] = 1.0;\n"
                               "      if (i >= 0) A[i] = 2.0;\n"
                               "    }\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    ASSERT_EQ(func->collect(ops::AffineIf).size(), 3u);
    EXPECT_TRUE(applySimplifyAffineIf(func));
    EXPECT_TRUE(func->collect(ops::AffineIf).empty());
    EXPECT_TRUE(func->collect(ops::AffineStore).empty());
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(SimplifyAffineIf, AlwaysTrueOuterPrunesPartlyRedundantInner)
{
    // for i in [0, 8): if (i >= 0) { if (i >= 0 && i - 4 >= 0) A[i] = 1 }
    auto module = createModule();
    Type memref = Type::memref({8}, Type::f32());
    Operation *func = createFunc(module.get(), "f", {memref});
    Block *body = funcBody(func);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 8);
    Value *iv = loop.inductionVar();
    AffineExpr d0 = getAffineDimExpr(0);
    OpBuilder in(loop.body());
    IntegerSet always = IntegerSet::get(1, d0, false);
    AffineIfOp outer = createAffineIf(in, always, {iv});
    OpBuilder then(outer.thenBlock());
    IntegerSet partly(1, {d0, d0 - 4}, {false, false});
    AffineIfOp inner = createAffineIf(then, partly, {iv});
    OpBuilder store_at(inner.thenBlock());
    Operation *one = createConstantFloat(store_at, 1.0, Type::f32());
    AffineMap id = AffineMap::identity(1);
    createAffineStore(store_at, one->result(0), body->argument(0), id, {iv});

    EXPECT_TRUE(applySimplifyAffineIf(func));
    auto ifs = func->collect(ops::AffineIf);
    ASSERT_EQ(ifs.size(), 1u);
    EXPECT_EQ(ifs[0], inner.op());
    EXPECT_EQ(ifs[0]->parentBlock(), loop.body());
    IntegerSet kept = AffineIfOp(ifs[0]).condition();
    ASSERT_EQ(kept.numConstraints(), 1u);
    EXPECT_EQ(kept.constraint(0).evaluate({4}), 0);
    EXPECT_EQ(func->collect(ops::AffineStore).size(), 1u);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(SimplifyAffineIf, NestedInElseBranch)
{
    auto module = affineModule("void k(float A[8]) {\n"
                               "  for (int i = 0; i < 8; i++) {\n"
                               "    if (i < 0) { A[i] = 1.0; }\n"
                               "    else {\n"
                               "      if (i >= 8) { A[i] = 2.0; }\n"
                               "      else { if (i >= 4) A[i] = 3.0; }\n"
                               "    }\n"
                               "  }\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    ASSERT_EQ(func->collect(ops::AffineIf).size(), 3u);
    EXPECT_TRUE(applySimplifyAffineIf(func));
    auto ifs = func->collect(ops::AffineIf);
    ASSERT_EQ(ifs.size(), 1u);
    EXPECT_FALSE(AffineIfOp(ifs[0]).hasElse());
    EXPECT_TRUE(isa(ifs[0]->parentOp(), ops::AffineFor));
    EXPECT_EQ(func->collect(ops::AffineStore).size(), 1u);
    EXPECT_TRUE(verifyOk(module.get()));
}

/** The reference fixed point: after each single change, re-collect
 * every if and judge them all again from the start, until none
 * changes. */
bool
restartLoopSimplifyAffineIf(Operation *scope)
{
    bool changed = false;
    bool progress = true;
    while (progress) {
        progress = false;
        for (Operation *op : scope->collect(ops::AffineIf)) {
            if (simplifyAffineIfOp(op)) {
                progress = true;
                break;
            }
        }
        changed |= progress;
    }
    return changed;
}

/** A PolyBench kernel after the DSE's loop and directive steps:
 * perfectize, remove variable bounds, tile, pipeline the innermost tile
 * loop (fully unrolling the point loops under it), canonicalize. */
std::unique_ptr<Operation>
tiledAndPipelined(const std::string &kernel, int64_t tile)
{
    auto module = affineModule(polybenchSource(kernel, 16));
    Operation *func = getTopFunc(module.get());
    for (const auto &band : getLoopBands(func)) {
        applyLoopPerfectization(band[0]);
        applyRemoveVariableBound(band[0]);
        auto nest = getLoopNest(band[0]);
        std::vector<int64_t> sizes(nest.size(), tile);
        auto tiles = applyLoopTiling(nest, sizes);
        if (!tiles.empty())
            applyLoopPipelining(tiles.back(), 1);
    }
    applyCanonicalize(func);
    return module;
}

TEST(SimplifyAffineIf, SweepMatchesRestartLoopOnPolyBench)
{
    size_t ifs_seen = 0;
    size_t ifs_removed = 0;
    for (const std::string &kernel : polybenchKernelNames()) {
        for (int64_t tile : {2, 4}) {
            SCOPED_TRACE(kernel + " tile " + std::to_string(tile));
            auto swept = tiledAndPipelined(kernel, tile);
            auto restarted = tiledAndPipelined(kernel, tile);
            ASSERT_EQ(printOp(swept.get()), printOp(restarted.get()));
            size_t before = swept->collect(ops::AffineIf).size();

            bool sweep_changed = applySimplifyAffineIf(swept.get());
            bool restart_changed =
                restartLoopSimplifyAffineIf(restarted.get());
            EXPECT_EQ(sweep_changed, restart_changed);
            EXPECT_EQ(printOp(swept.get()), printOp(restarted.get()));
            EXPECT_TRUE(verifyOk(swept.get()));
            ifs_seen += before;
            ifs_removed += before - swept->collect(ops::AffineIf).size();
        }
    }
    // The corpus exercises the pass: it has ifs, and removes many.
    EXPECT_GT(ifs_seen, 100u);
    EXPECT_GT(ifs_removed, 50u);
}

TEST(StoreForward, ForwardsStoredValue)
{
    auto module = affineModule(
        "void k(float A[4], float B[4]) {\n"
        "  float t = 0.0;\n"
        "  t = A[0];\n"
        "  B[0] = t;\n"
        "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_TRUE(applyAffineStoreForward(func));
    applyCanonicalize(func);
    // The scalar buffer round trip is gone: B[0] = A[0] directly.
    EXPECT_EQ(func->collect(ops::Alloc).size(), 0u);
    EXPECT_EQ(func->collect(ops::AffineLoad).size(), 1u);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(StoreForward, DeadStoreEliminated)
{
    auto module = affineModule("void k(float A[4]) {\n"
                               "  A[0] = 1.0;\n"
                               "  A[0] = 2.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_TRUE(applyAffineStoreForward(func));
    EXPECT_EQ(func->collect(ops::AffineStore).size(), 1u);
}

TEST(StoreForward, InterveningLoadBlocksDSE)
{
    auto module = affineModule("void k(float A[4], float B[4]) {\n"
                               "  A[0] = 1.0;\n"
                               "  B[0] = A[0];\n"
                               "  A[0] = 2.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    applyAffineStoreForward(func);
    // The load is forwarded (B[0] receives the constant), after which the
    // first store to A is dead and only the final stores remain.
    EXPECT_EQ(func->collect(ops::AffineStore).size(), 2u);
    EXPECT_TRUE(func->collect(ops::AffineLoad).empty());
}

TEST(SimplifyMemrefAccess, FoldsDuplicateLoads)
{
    auto module = affineModule("void k(float A[4], float B[4]) {\n"
                               "  B[0] = A[1] + A[1];\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    ASSERT_EQ(func->collect(ops::AffineLoad).size(), 2u);
    EXPECT_TRUE(applySimplifyMemrefAccess(func));
    EXPECT_EQ(func->collect(ops::AffineLoad).size(), 1u);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(SimplifyMemrefAccess, StoreInvalidates)
{
    auto module = affineModule("void k(float A[4], float B[4]) {\n"
                               "  B[0] = A[1];\n"
                               "  A[1] = 5.0;\n"
                               "  B[1] = A[1];\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_FALSE(applySimplifyMemrefAccess(func));
    EXPECT_EQ(func->collect(ops::AffineLoad).size(), 2u);
}

} // namespace
} // namespace scalehls
