/** @file Unit tests for the IR core: ops, use lists, cloning, verifier. */

#include <gtest/gtest.h>

#include "dialect/ops.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace scalehls {
namespace {

/** Build func @f(memref<8xf32>) { %c = const 0; %v = load %arg[%c];
 * %s = addf %v, %v; store %s, %arg[%c]; return }. */
struct SimpleFunc
{
    std::unique_ptr<Operation> module = createModule();
    Operation *func = nullptr;
    Value *arg = nullptr;

    SimpleFunc()
    {
        func = createFunc(module.get(), "f",
                          {Type::memref({8}, Type::f32())});
        arg = funcBody(func)->argument(0);
    }
};

TEST(IR, CreateAndUseList)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *c0 = createConstantIndex(b, 0);
    Operation *load = createMemLoad(b, f.arg, {c0->result(0)});
    Operation *add =
        createBinary(b, ops::AddF, load->result(0), load->result(0));

    EXPECT_EQ(load->result(0)->numUses(), 2u);
    EXPECT_EQ(c0->result(0)->numUses(), 1u);
    EXPECT_EQ(add->operand(0), load->result(0));
    EXPECT_EQ(load->parentBlock(), body);
    EXPECT_EQ(load->parentOp(), f.func);
    EXPECT_EQ(f.func->parentOp(), f.module.get());
}

TEST(IR, ReplaceAllUsesWith)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *c0 = createConstantIndex(b, 0);
    Operation *c1 = createConstantIndex(b, 1);
    Operation *load = createMemLoad(b, f.arg, {c0->result(0)});
    c0->result(0)->replaceAllUsesWith(c1->result(0));
    EXPECT_EQ(load->operand(1), c1->result(0));
    EXPECT_TRUE(c0->result(0)->useEmpty());
    EXPECT_EQ(c1->result(0)->numUses(), 1u);
}

TEST(IR, EraseRequiresNoUses)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *c0 = createConstantIndex(b, 0);
    Operation *load = createMemLoad(b, f.arg, {c0->result(0)});
    // Erase the load first, then the constant.
    load->erase();
    EXPECT_TRUE(c0->result(0)->useEmpty());
    c0->erase();
    EXPECT_EQ(body->size(), 1u); // Only func.return remains.
}

TEST(IR, MoveBeforeAfter)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *c0 = createConstantIndex(b, 0);
    Operation *c1 = createConstantIndex(b, 1);
    EXPECT_TRUE(c0->isBeforeInBlock(c1));
    c0->moveAfter(c1);
    EXPECT_TRUE(c1->isBeforeInBlock(c0));
    c0->moveBefore(c1);
    EXPECT_TRUE(c0->isBeforeInBlock(c1));
    EXPECT_EQ(c0->nextOp(), c1);
    EXPECT_EQ(c1->prevOp(), c0);
}

/** The names of @p block's ops, space-separated, read forwards through
 * nextOp() and checked against the list order, the recorded positions
 * and prevOp() on the way. */
std::string
linkedNames(Block *block)
{
    std::string names;
    Operation *prev = nullptr;
    auto it = block->ops().begin();
    Operation *op = block->empty() ? nullptr : block->front();
    for (; op; op = op->nextOp(), ++it) {
        EXPECT_EQ(op, it->get());
        EXPECT_EQ(op->parentBlock(), block);
        EXPECT_TRUE(op->position() == it);
        EXPECT_EQ(op->prevOp(), prev);
        names += (names.empty() ? "" : " ") + op->name();
        prev = op;
    }
    EXPECT_TRUE(it == block->ops().end());
    return names;
}

std::unique_ptr<Operation>
namedOp(const std::string &name)
{
    return Operation::create(name, {}, {});
}

bool
hasBrokenLinks(Operation *root)
{
    auto errors = verifyErrors(root, VerifyLevel::Structural);
    for (const VerifyError &e : errors)
        if (e.kind == VerifyKind::BrokenOpLink)
            return true;
    return false;
}

TEST(IR, InsertAtFrontBackAndMiddle)
{
    SimpleFunc f;
    Block *body = funcBody(f.func); // holds func.return
    Operation *ret = body->back();
    Operation *b = body->insertBefore(ret, namedOp("t.b"));
    body->pushFront(namedOp("t.a"));
    body->pushBack(namedOp("t.e"));
    body->insertAfter(b, namedOp("t.c"));
    body->insertBefore(nullptr, namedOp("t.f")); // appends
    body->insertBefore(ret, namedOp("t.d"));
    // The verifier first: a wrong position would make the walk below
    // dereference a foreign list node.
    ASSERT_FALSE(hasBrokenLinks(f.module.get()));
    EXPECT_EQ(linkedNames(body), "t.a t.b t.c t.d func.return t.e t.f");
    EXPECT_EQ(body->front()->prevOp(), nullptr);
    EXPECT_EQ(body->back()->nextOp(), nullptr);

    // Erasing at the front, the back and in the middle relinks the
    // neighbours.
    body->front()->erase();
    body->back()->erase();
    b->nextOp()->erase();
    ASSERT_FALSE(hasBrokenLinks(f.module.get()));
    EXPECT_EQ(linkedNames(body), "t.b t.d func.return t.e");
}

TEST(IR, NextPrevAtBothEnds)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    Operation *ret = body->front();
    EXPECT_EQ(ret->prevOp(), nullptr); // sole op: both ends at once
    EXPECT_EQ(ret->nextOp(), nullptr);
    Operation *first = body->pushFront(namedOp("t.first"));
    EXPECT_EQ(first->prevOp(), nullptr);
    EXPECT_EQ(first->nextOp(), ret);
    EXPECT_EQ(ret->prevOp(), first);
    EXPECT_EQ(ret->nextOp(), nullptr);
}

TEST(IR, TakeThenReinsertIntoAnotherBlock)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Block *src = createAffineFor(b, 0, 4).body();
    Block *dst = createAffineFor(b, 0, 4).body();
    Operation *x = src->pushBack(namedOp("t.x"));
    src->pushBack(namedOp("t.y"));
    dst->pushBack(namedOp("t.z"));

    std::unique_ptr<Operation> owned = src->take(x);
    EXPECT_EQ(owned->parentBlock(), nullptr);
    EXPECT_EQ(linkedNames(src), "t.y");
    EXPECT_EQ(dst->insertBefore(dst->front(), std::move(owned)), x);
    EXPECT_EQ(linkedNames(dst), "t.x t.z");
    EXPECT_FALSE(hasBrokenLinks(f.module.get()));

    // A taken op can go back where it came from, at either end.
    src->pushBack(dst->take(x));
    EXPECT_EQ(linkedNames(src), "t.y t.x");
    EXPECT_EQ(linkedNames(dst), "t.z");
    src->pushFront(src->take(x));
    EXPECT_EQ(linkedNames(src), "t.x t.y");
    EXPECT_FALSE(hasBrokenLinks(f.module.get()));
}

TEST(IR, MoveBeforeAfterAcrossBlocks)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    AffineForOp first = createAffineFor(b, 0, 4);
    AffineForOp second = createAffineFor(b, 0, 4);
    Operation *p = first.body()->pushBack(namedOp("t.p"));
    Operation *q = first.body()->pushBack(namedOp("t.q"));
    Operation *r = second.body()->pushBack(namedOp("t.r"));

    q->moveBefore(r);
    EXPECT_EQ(linkedNames(first.body()), "t.p");
    EXPECT_EQ(linkedNames(second.body()), "t.q t.r");
    p->moveAfter(r);
    EXPECT_TRUE(first.body()->empty());
    EXPECT_EQ(linkedNames(second.body()), "t.q t.r t.p");
    // Out of the loop, to the front of the function body.
    r->moveBefore(body->front());
    EXPECT_EQ(body->front(), r);
    EXPECT_EQ(r->nextOp(), first.op());
    EXPECT_EQ(linkedNames(second.body()), "t.q t.p");
    EXPECT_FALSE(hasBrokenLinks(f.module.get()));
}

TEST(IR, WalkOrders)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 4);
    OpBuilder inner(loop.body());
    createConstantIndex(inner, 7);

    std::vector<std::string> pre;
    f.module->walk([&](Operation *op) { pre.push_back(op->name()); });
    ASSERT_EQ(pre.size(), 5u);
    EXPECT_EQ(pre[0], "builtin.module");
    EXPECT_EQ(pre[1], "func.func");
    EXPECT_EQ(pre[2], "affine.for");
    EXPECT_EQ(pre[3], "arith.constant");

    std::vector<std::string> post;
    f.module->walkPostOrder(
        [&](Operation *op) { post.push_back(op->name()); });
    EXPECT_EQ(post.back(), "builtin.module");
    EXPECT_EQ(post.front(), "arith.constant");
}

TEST(IR, CloneDeep)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 8, 2);
    OpBuilder inner(loop.body());
    Operation *load = createAffineLoad(
        inner, f.arg, AffineMap::identity(1), {loop.inductionVar()});
    createAffineStore(inner, load->result(0), f.arg,
                      AffineMap::identity(1), {loop.inductionVar()});

    auto cloned_module = f.module->clone();
    EXPECT_TRUE(verifyOk(cloned_module.get()));

    // The clone has its own values: mutating the original types must not
    // leak into the clone.
    Operation *orig_func = getTopFunc(f.module.get());
    Operation *new_func = getTopFunc(cloned_module.get());
    EXPECT_NE(orig_func, new_func);
    EXPECT_EQ(printOp(orig_func), printOp(new_func));
    funcBody(orig_func)->argument(0)->setType(
        Type::memref({8}, Type::f64()));
    EXPECT_EQ(funcBody(new_func)->argument(0)->type(),
              Type::memref({8}, Type::f32()));
}

TEST(IR, CloneRemapNestedRegionsAndMultiResult)
{
    // The fast clone path (pre-sized open-addressed remap table) must
    // remap operands across nested regions and through multi-result ops
    // exactly like the old per-node-map clone did.
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *multi =
        b.create("test.multi", {Type::f32(), Type::index()}, {});
    AffineForOp outer = createAffineFor(b, 0, 4);
    OpBuilder mid(outer.body());
    AffineForOp inner_loop = createAffineFor(mid, 0, 2);
    OpBuilder inner(inner_loop.body());
    // Operands reach across two region levels and pick specific results.
    Operation *load = createAffineLoad(
        inner, f.arg, AffineMap::identity(1), {multi->result(1)});
    Operation *add =
        createBinary(inner, ops::AddF, load->result(0),
                     multi->result(0));
    createAffineStore(inner, add->result(0), f.arg,
                      AffineMap::identity(1),
                      {inner_loop.inductionVar()});

    std::unordered_map<Value *, Value *> mapping;
    auto cloned = f.func->clone(mapping);

    // Every value of the tree is recorded, results and block args alike.
    EXPECT_EQ(mapping.size(), f.func->countValues());
    for (const auto &[from, to] : mapping) {
        EXPECT_NE(from, to);
        EXPECT_EQ(from->type(), to->type());
        EXPECT_EQ(from->index(), to->index());
    }

    // The cloned load/add reference the CLONED multi-result op, slot by
    // slot, and the cloned store uses the cloned inner loop's IV.
    Operation *cloned_multi = cloned->collect("test.multi").front();
    Operation *cloned_load =
        cloned->collect(ops::AffineLoad).front();
    Operation *cloned_add = cloned->collect(ops::AddF).front();
    Operation *cloned_store =
        cloned->collect(ops::AffineStore).front();
    EXPECT_EQ(cloned_load->operand(1), cloned_multi->result(1));
    EXPECT_EQ(cloned_add->operand(1), cloned_multi->result(0));
    Operation *cloned_inner = cloned->collect(ops::AffineFor)[1];
    EXPECT_EQ(cloned_store->operand(2),
              cloned_inner->region(0).front().argument(0));
    // Values defined OUTSIDE the cloned tree keep their original
    // identity (the function argument is inside here, but the module's
    // print must match either way).
    EXPECT_EQ(printOp(f.func), printOp(cloned.get()));
}

TEST(IR, ClonePrepopulatedMappingRedirectsExternals)
{
    // clone(mapping) with pre-seeded entries must redirect references to
    // values defined outside the cloned subtree — the loop-tiling /
    // perfectization transforms rely on this.
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *c0 = createConstantIndex(b, 0);
    Operation *c1 = createConstantIndex(b, 1);
    AffineForOp loop = createAffineFor(b, 0, 4);
    OpBuilder inner(loop.body());
    createMemLoad(inner, f.arg, {c0->result(0)});

    std::unordered_map<Value *, Value *> mapping;
    mapping[c0->result(0)] = c1->result(0);
    auto cloned_loop = loop.op()->clone(mapping);
    Operation *cloned_load =
        cloned_loop->collect(ops::MemLoad).front();
    EXPECT_EQ(cloned_load->operand(1), c1->result(0));
    // Pre-seeded entries survive alongside the new ones.
    EXPECT_EQ(mapping.at(c0->result(0)), c1->result(0));
    EXPECT_EQ(mapping.size(), 1 + cloned_loop->countValues());
}

TEST(IR, CloneRangeKeepsOrderAndRemapsChains)
{
    // A def-use chain load -> add -> mul and a nested loop storing the
    // chain's end: the range clone must keep the order and redirect
    // every later op to the earlier clones, exactly like per-op
    // clone(mapping) calls sharing one map.
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 8);
    OpBuilder in(loop.body());
    Value *iv = loop.inductionVar();
    AffineMap id = AffineMap::identity(1);
    Operation *load = createAffineLoad(in, f.arg, id, {iv});
    Value *loaded = load->result(0);
    Operation *add = createBinary(in, ops::AddF, loaded, loaded);
    Operation *mul = createBinary(in, ops::MulF, add->result(0), loaded);
    AffineForOp nested = createAffineFor(in, 0, 2);
    OpBuilder nin(nested.body());
    Value *jv = nested.inductionVar();
    createAffineStore(nin, mul->result(0), f.arg, id, {jv});
    std::vector<Operation *> range = loop.body()->opsVector();

    std::unordered_map<Value *, Value *> range_map;
    auto ranged = Operation::cloneRange(range, range_map);
    std::unordered_map<Value *, Value *> per_op_map;
    std::vector<std::unique_ptr<Operation>> per_op;
    for (Operation *op : range)
        per_op.push_back(op->clone(per_op_map));

    ASSERT_EQ(ranged.size(), range.size());
    for (size_t i = 0; i < range.size(); ++i) {
        EXPECT_EQ(ranged[i]->name(), range[i]->name());
        EXPECT_EQ(printOp(ranged[i].get()), printOp(per_op[i].get()));
    }
    EXPECT_EQ(ranged[1]->operand(0), ranged[0]->result(0));
    EXPECT_EQ(ranged[2]->operand(0), ranged[1]->result(0));
    EXPECT_EQ(ranged[2]->operand(1), ranged[0]->result(0));
    Operation *store = ranged[3]->collect(ops::AffineStore).front();
    EXPECT_EQ(store->operand(0), ranged[2]->result(0));
    // The IV is defined outside the range: it keeps its identity.
    EXPECT_EQ(ranged[0]->operand(1), iv);
    EXPECT_EQ(range_map.size(), per_op_map.size());
    for (const auto &[from, to] : range_map)
        EXPECT_EQ(to->type(), per_op_map.at(from)->type());

    // Seeded entries are honoured and kept, as with clone(mapping).
    std::unordered_map<Value *, Value *> seeded{{iv, f.arg}};
    auto reseeded = Operation::cloneRange(range, seeded);
    EXPECT_EQ(reseeded[0]->operand(1), f.arg);
    EXPECT_EQ(seeded.at(iv), f.arg);
    EXPECT_EQ(seeded.size(), 1 + range_map.size());
    EXPECT_TRUE(Operation::cloneRange({}, seeded).empty());
    // The detached clones use each other's results; drop those uses so
    // the vectors may destroy them in any order.
    for (auto *clones : {&ranged, &per_op, &reseeded})
        for (auto &op : *clones)
            op->dropAllReferences();
}

TEST(IR, IsAncestorOf)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 4);
    OpBuilder inner(loop.body());
    Operation *c = createConstantIndex(inner, 0);
    EXPECT_TRUE(loop.op()->isAncestorOf(c));
    EXPECT_TRUE(f.func->isAncestorOf(c));
    EXPECT_FALSE(c->isAncestorOf(loop.op()));
}

TEST(Verifier, CatchesDominanceViolation)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *c0 = createConstantIndex(b, 0);
    Operation *load = createMemLoad(b, f.arg, {c0->result(0)});
    (void)load;
    // Move the constant after its use.
    c0->moveAfter(load);
    auto errors = verify(f.module.get());
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors[0].find("dominate"), std::string::npos);
}

TEST(Verifier, CatchesBadCall)
{
    auto module = createModule();
    Operation *func = createFunc(module.get(), "main", {});
    Block *body = funcBody(func);
    OpBuilder b(body, body->back());
    b.create(std::string(ops::Call), {}, {},
             {{kCallee, Attribute("missing")}});
    auto errors = verify(module.get());
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors[0].find("unknown callee"), std::string::npos);
}

TEST(Verifier, CatchesDuplicateFuncNames)
{
    auto module = createModule();
    createFunc(module.get(), "f", {});
    createFunc(module.get(), "f", {});
    auto errors = verify(module.get());
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors[0].find("duplicate"), std::string::npos);
}

TEST(Verifier, AcceptsWellFormedAffine)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 8);
    OpBuilder inner(loop.body());
    Operation *load = createAffineLoad(
        inner, f.arg, AffineMap::identity(1), {loop.inductionVar()});
    createAffineStore(inner, load->result(0), f.arg,
                      AffineMap::identity(1), {loop.inductionVar()});
    EXPECT_TRUE(verifyOk(f.module.get()));
}

TEST(Verifier, CatchesAccessArityMismatch)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    // Map has 2 results but the memref is rank 1: bypass the helper
    // assert by building the op manually.
    Operation *c0 = createConstantIndex(b, 0);
    AffineMap bad(1, 0, {getAffineDimExpr(0), getAffineDimExpr(0)});
    b.create(std::string(ops::AffineLoad), {Type::f32()},
             {f.arg, c0->result(0)}, {{kMap, Attribute(bad)}});
    auto errors = verify(f.module.get());
    ASSERT_FALSE(errors.empty());
}

TEST(Printer, RendersStructuredOps)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 16, 2);
    LoopDirective d;
    d.pipeline = true;
    d.targetII = 2;
    loop.setDirective(d);
    OpBuilder inner(loop.body());
    Operation *load = createAffineLoad(
        inner, f.arg, AffineMap::get(1, getAffineDimExpr(0) + 1),
        {loop.inductionVar()});
    (void)load;

    std::string ir = printOp(f.module.get());
    EXPECT_NE(ir.find("affine.for"), std::string::npos);
    EXPECT_NE(ir.find("step 2"), std::string::npos);
    EXPECT_NE(ir.find("affine.load"), std::string::npos);
    EXPECT_NE(ir.find("+ 1"), std::string::npos);
    EXPECT_NE(ir.find("loop_directive"), std::string::npos);
}

} // namespace
} // namespace scalehls
