/** @file Unit and property tests for affine expressions, maps and sets. */

#include <gtest/gtest.h>

#include <thread>

#include "ir/affine_map.h"
#include "ir/integer_set.h"

namespace scalehls {
namespace {

// Defined first so that, in file order, it makes the process's first
// factory calls: the immortal leaf table is built on first use, and
// this is the race the TSan job checks.
TEST(AffineExpr, ImmortalLeafTableFirstUseFromManyThreads)
{
    constexpr int kThreads = 4;
    constexpr size_t kLeaves =
        kImmortalDimExprs + (kImmortalConstMax - kImmortalConstMin + 1);
    std::vector<std::vector<const AffineExprNode *>> seen(kThreads);
    std::vector<AffineExpr> built(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            auto &out = seen[t];
            for (unsigned d = 0; d < kImmortalDimExprs; ++d)
                out.push_back(&getAffineDimExpr(d).node());
            for (int64_t c = kImmortalConstMin; c <= kImmortalConstMax; ++c)
                out.push_back(&getAffineConstantExpr(c).node());
            // A tree over table leaves, handed back to the main thread.
            built[t] = getAffineDimExpr(5) * 4 + 3;
        });
    }
    for (auto &w : workers)
        w.join();
    ASSERT_EQ(seen[0].size(), kLeaves);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    AffineExpr expected = getAffineDimExpr(5) * 4 + 3;
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_TRUE(built[t].equals(expected)) << "thread " << t;
        EXPECT_EQ(&built[t].lhs().lhs().node(), &expected.lhs().lhs().node());
    }
}

/** @p leaf agrees with @p fresh (a newly allocated node of the same
 * leaf) on everything the analyses and digests read. */
void
expectSameLeaf(const AffineExpr &leaf, const AffineExpr &fresh)
{
    std::string label = fresh.toString();
    EXPECT_TRUE(leaf.equals(fresh)) << label;
    EXPECT_TRUE(fresh.equals(leaf)) << label;
    EXPECT_EQ(leaf.hash(), fresh.hash()) << label;
    EXPECT_EQ(leaf->linValid, fresh->linValid) << label;
    EXPECT_EQ(leaf->linHash, fresh->linHash) << label;
    EXPECT_EQ(leaf->linCoeffs, fresh->linCoeffs) << label;
    EXPECT_EQ(leaf->linConst, fresh->linConst) << label;
    EXPECT_EQ(leaf.toString(), label);
}

TEST(AffineExpr, ImmortalLeavesMatchFreshNodes)
{
    // Inside the table, both ends, and just outside it.
    for (unsigned d : {0u, 1u, kImmortalDimExprs - 1, kImmortalDimExprs,
                       kImmortalDimExprs + 1})
        expectSameLeaf(getAffineDimExpr(d),
                       makeFreshAffineLeaf(AffineExprKind::DimId, d));
    for (int64_t c : {kImmortalConstMin - 1, kImmortalConstMin,
                      int64_t(-1), int64_t(0), int64_t(1),
                      kImmortalConstMax, kImmortalConstMax + 1})
        expectSameLeaf(getAffineConstantExpr(c),
                       makeFreshAffineLeaf(AffineExprKind::Constant, c));

    // Table leaves are shared nodes; leaves outside it are not.
    EXPECT_EQ(&getAffineDimExpr(3).node(), &getAffineDimExpr(3).node());
    EXPECT_EQ(&getAffineConstantExpr(7).node(),
              &getAffineConstantExpr(7).node());
    EXPECT_NE(&getAffineDimExpr(kImmortalDimExprs).node(),
              &getAffineDimExpr(kImmortalDimExprs).node());
    EXPECT_NE(&getAffineConstantExpr(kImmortalConstMax + 1).node(),
              &getAffineConstantExpr(kImmortalConstMax + 1).node());

    // Trees over table leaves equal trees over fresh ones.
    AffineExpr shared = getAffineDimExpr(2) * 3 + 5;
    AffineExpr fresh = getAffineBinaryExpr(
        AffineExprKind::Add,
        getAffineBinaryExpr(AffineExprKind::Mul,
                            makeFreshAffineLeaf(AffineExprKind::DimId, 2),
                            makeFreshAffineLeaf(AffineExprKind::Constant, 3)),
        makeFreshAffineLeaf(AffineExprKind::Constant, 5));
    EXPECT_TRUE(shared.equals(fresh));
    EXPECT_EQ(shared.hash(), fresh.hash());
    EXPECT_EQ(shared->linHash, fresh->linHash);
    EXPECT_EQ(shared.toString(), fresh.toString());
}

TEST(AffineExpr, ConstantFolding)
{
    AffineExpr e = getAffineConstantExpr(3) + getAffineConstantExpr(4);
    ASSERT_TRUE(e.isConstant());
    EXPECT_EQ(e.constantValue(), 7);

    e = getAffineConstantExpr(3) * getAffineConstantExpr(-4);
    EXPECT_EQ(e.constantValue(), -12);

    e = affineMod(getAffineConstantExpr(-7), 3);
    EXPECT_EQ(e.constantValue(), 2);

    e = affineFloorDiv(getAffineConstantExpr(-7), 2);
    EXPECT_EQ(e.constantValue(), -4);

    e = affineCeilDiv(getAffineConstantExpr(7), 2);
    EXPECT_EQ(e.constantValue(), 4);
}

TEST(AffineExpr, Identities)
{
    AffineExpr d0 = getAffineDimExpr(0);
    EXPECT_TRUE((d0 + 0).equals(d0));
    EXPECT_TRUE((d0 * 1).equals(d0));
    EXPECT_TRUE((d0 * 0).isConstantEqual(0));
    EXPECT_TRUE(affineFloorDiv(d0, 1).equals(d0));
    EXPECT_TRUE(affineMod(d0, 1).isConstantEqual(0));
}

TEST(AffineExpr, ConstantsCollect)
{
    // (d0 + 2) + 3 -> d0 + 5.
    AffineExpr e = (getAffineDimExpr(0) + 2) + 3;
    EXPECT_EQ(e.kind(), AffineExprKind::Add);
    EXPECT_TRUE(e.rhs().isConstantEqual(5));
}

TEST(AffineExpr, Evaluate)
{
    // d0 * 2 + d1 mod 3
    AffineExpr e =
        getAffineDimExpr(0) * 2 + affineMod(getAffineDimExpr(1), 3);
    EXPECT_EQ(e.evaluate({5, 7}), 11);
    EXPECT_EQ(e.evaluate({0, 2}), 2);
}

TEST(AffineExpr, ReplaceDims)
{
    // d0 + d1 with d0 -> d2 * 4: composition works.
    AffineExpr e = getAffineDimExpr(0) + getAffineDimExpr(1);
    AffineExpr replaced = e.replaceDimsAndSymbols(
        {getAffineDimExpr(2) * 4, getAffineDimExpr(1)});
    EXPECT_EQ(replaced.evaluate({0, 5, 3}), 17);
}

TEST(AffineExpr, InvolvesDim)
{
    AffineExpr e = getAffineDimExpr(0) + getAffineDimExpr(2) * 3;
    EXPECT_TRUE(e.involvesDim(0));
    EXPECT_FALSE(e.involvesDim(1));
    EXPECT_TRUE(e.involvesDim(2));
    EXPECT_EQ(e.maxDimPosition(), 2);
}

TEST(AffineExpr, LinearCoefficients)
{
    AffineExpr e = getAffineDimExpr(0) * 3 + getAffineDimExpr(1) + 7;
    auto coeffs = e.linearCoefficients(2);
    ASSERT_TRUE(coeffs);
    EXPECT_EQ(*coeffs, (std::vector<int64_t>{3, 1, 7}));

    // Mod is not linear.
    EXPECT_FALSE(affineMod(getAffineDimExpr(0), 2).linearCoefficients(1));
}

TEST(AffineExpr, EqualityStructural)
{
    AffineExpr a = getAffineDimExpr(0) + 1;
    AffineExpr b = getAffineDimExpr(0) + 1;
    EXPECT_TRUE(a.equals(b));
    EXPECT_FALSE(a.equals(getAffineDimExpr(0) + 2));
    // Subtraction constructs x + (-1)*y; equal expressions still match.
    AffineExpr d = getAffineDimExpr(1) - getAffineDimExpr(0);
    EXPECT_TRUE(d.equals(getAffineDimExpr(1) - getAffineDimExpr(0)));
}

TEST(AffineExpr, StructuralHashAndInPlaceLinearForm)
{
    AffineExpr d0 = getAffineDimExpr(0);
    AffineExpr d1 = getAffineDimExpr(1);
    AffineExpr a = d0 * 4 + d1 + 3;
    AffineExpr b = d0 * 4 + d1 + 3; // Separate nodes, same structure.
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_TRUE(a.equals(b));
    EXPECT_NE((d0 + 1).hash(), (d0 + 2).hash());
    EXPECT_NE(affineMod(d0, 4).hash(), affineFloorDiv(d0, 4).hash());

    // d0 + d1 and d1 + d0 are different trees with one linear part.
    AffineExpr swapped = getAffineBinaryExpr(AffineExprKind::Add, d1, d0);
    EXPECT_FALSE((d0 + d1).equals(swapped));
    EXPECT_EQ(constantDiff(d0 + d1 + 5, swapped), 5);
    EXPECT_FALSE(constantDiff(d0 * 2, d0));
    EXPECT_EQ(constantDiff(affineMod(d0, 2), affineMod(d0, 2)), 0);
    EXPECT_FALSE(constantDiff(affineMod(d0, 2), affineMod(d0, 3)));

    // The view reads the node's own coefficients.
    LinearFormView form = a.linearForm();
    ASSERT_TRUE(form);
    EXPECT_EQ(form.coeffs, &a->linCoeffs);
    EXPECT_EQ(*form.coeffs,
              (std::vector<std::pair<unsigned, int64_t>>{{0, 4}, {1, 1}}));
    EXPECT_EQ(form.constant, 3);
    EXPECT_FALSE(affineMod(d0, 2).linearForm());
    EXPECT_FALSE((d0 + getAffineSymbolExpr(0)).linearForm());
}

TEST(AffineExpr, PrintAppendsTheRendering)
{
    AffineExpr d0 = getAffineDimExpr(0);
    AffineExpr d1 = getAffineDimExpr(1);
    AffineExpr s0 = getAffineSymbolExpr(0);
    const std::pair<AffineExpr, const char *> cases[] = {
        {d0 * 4 + d1 - 3, "(d0) * (4) + d1 + -3"},
        {affineMod(d0 + s0, 8), "(d0 + s0) mod 8"},
        {affineFloorDiv(d1, 2), "(d1) floordiv 2"},
        {affineCeilDiv(d0 * d1, 3), "((d0) * (d1)) ceildiv 3"},
        {getAffineConstantExpr(-9223372036854775807 - 1),
         "-9223372036854775808"},
    };
    for (const auto &[expr, text] : cases) {
        std::string out = "prefix|";
        expr.print(out);
        EXPECT_EQ(out, std::string("prefix|") + text);
        EXPECT_EQ(expr.toString(), text);
    }
    AffineMap map(2, 1, {d0 + s0, affineMod(d1, 4)});
    EXPECT_EQ(map.toString(), "(d0, d1)[s0] -> (d0 + s0, (d1) mod 4)");
    IntegerSet set(2, {d0 - d1, d1 - 1}, {false, true});
    EXPECT_EQ(set.toString(),
              "(d0, d1) : (d0 + (d1) * (-1) >= 0, d1 + -1 == 0)");
}

TEST(AffineMap, IdentityAndConstant)
{
    AffineMap id = AffineMap::identity(3);
    EXPECT_TRUE(id.isIdentity());
    EXPECT_EQ(id.evaluate({4, 5, 6}), (std::vector<int64_t>{4, 5, 6}));

    AffineMap c = AffineMap::constant({0, 16});
    EXPECT_TRUE(c.isConstant());
    EXPECT_EQ(c.evaluate({}), (std::vector<int64_t>{0, 16}));
}

TEST(AffineMap, PartitionStyleMap)
{
    // Paper Fig. 3(b): (d0, d1) -> (d0 mod 2, 0, d0 floordiv 2, d1).
    AffineExpr d0 = getAffineDimExpr(0);
    AffineExpr d1 = getAffineDimExpr(1);
    AffineMap map(2, 0,
                  {affineMod(d0, 2), getAffineConstantExpr(0),
                   affineFloorDiv(d0, 2), d1});
    EXPECT_EQ(map.evaluate({5, 3}), (std::vector<int64_t>{1, 0, 2, 3}));
    EXPECT_EQ(map.evaluate({4, 7}), (std::vector<int64_t>{0, 0, 2, 7}));
}

TEST(AffineMap, ReplaceDims)
{
    AffineMap map = AffineMap::get(1, getAffineDimExpr(0) + 1);
    AffineMap shifted = map.replaceDims({getAffineDimExpr(0) * 2}, 1);
    EXPECT_EQ(shifted.evaluate({3}), (std::vector<int64_t>{7}));
}

TEST(IntegerSet, Evaluate)
{
    // d0 - d1 >= 0 && d0 == 3.
    IntegerSet set(2,
                   {getAffineDimExpr(0) - getAffineDimExpr(1),
                    getAffineDimExpr(0) - 3},
                   {false, true});
    EXPECT_TRUE(set.evaluate({3, 2}));
    EXPECT_TRUE(set.evaluate({3, 3}));
    EXPECT_FALSE(set.evaluate({3, 4}));
    EXPECT_FALSE(set.evaluate({4, 2}));
}

TEST(IntegerSet, Equality)
{
    IntegerSet a = IntegerSet::get(1, getAffineDimExpr(0), false);
    IntegerSet b = IntegerSet::get(1, getAffineDimExpr(0), false);
    IntegerSet c = IntegerSet::get(1, getAffineDimExpr(0), true);
    EXPECT_TRUE(a.equals(b));
    EXPECT_FALSE(a.equals(c));
}

/** Property: evaluation commutes with dim replacement. */
class AffineComposeProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>>
{};

TEST_P(AffineComposeProperty, SubstituteThenEvaluate)
{
    auto [x, y] = GetParam();
    // e = 3*d0 + d1 mod 4; substitute d0 -> d0 + 2.
    AffineExpr e =
        getAffineDimExpr(0) * 3 + affineMod(getAffineDimExpr(1), 4);
    AffineExpr sub = e.replaceDimsAndSymbols(
        {getAffineDimExpr(0) + 2, getAffineDimExpr(1)});
    EXPECT_EQ(sub.evaluate({x, y}), e.evaluate({x + 2, y}));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AffineComposeProperty,
    ::testing::Combine(::testing::Values(0, 1, 5, 13, 100),
                       ::testing::Values(0, 3, 4, 9)));

} // namespace
} // namespace scalehls
