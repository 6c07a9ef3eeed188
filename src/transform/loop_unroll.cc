/**
 * @file
 * -affine-loop-unroll: partial and full loop unrolling. Affine subscripts
 * and conditions are recomposed symbolically (the IR stays affine), and
 * only non-affine SSA uses of the induction variable materialize arith ops.
 */

#include "analysis/loop_analysis.h"
#include "support/utils.h"
#include "transform/pass.h"
#include "transform/utils.h"

namespace scalehls {

namespace {

/** Trip count that is static even for variable bounds of the form
 * lb = f(ivs), ub = f(ivs) + c over identical operands (tiling's point
 * loops). */
std::optional<int64_t>
getStaticTripCount(AffineForOp loop)
{
    if (auto trip = loop.constantTripCount())
        return trip;
    AffineMap lb = loop.lowerBoundMap();
    AffineMap ub = loop.upperBoundMap();
    if (lb.numResults() != 1 || ub.numResults() != 1)
        return std::nullopt;
    if (loop.lowerBoundOperands() != loop.upperBoundOperands())
        return std::nullopt;
    auto extent = constantDiff(ub.result(0), lb.result(0));
    if (!extent)
        return std::nullopt;
    if (*extent <= 0)
        return 0;
    return ceilDiv(*extent, loop.step());
}

/** Conservative op-count guard against pathological unroll requests. */
constexpr int64_t kMaxUnrolledOps = 1 << 13;

int64_t
countNestedOps(Operation *op)
{
    int64_t count = 0;
    op->walk([&](Operation *) { ++count; });
    return count;
}

bool
fullyUnroll(AffineForOp loop, int64_t trip)
{
    Operation *loop_op = loop.op();
    // Divide rather than multiply: trip may be near INT64_MAX.
    if (countNestedOps(loop_op) > kMaxUnrolledOps / trip)
        return false;

    AffineMap lb_map = loop.lowerBoundMap();
    if (lb_map.numResults() != 1)
        return false;
    auto lb_operands = loop.lowerBoundOperands();
    int64_t step = loop.step();
    Value *iv = loop.inductionVar();

    Block *parent = loop_op->parentBlock();
    auto body_ops = loop.body()->opsVector();
    for (int64_t k = 0; k < trip; ++k) {
        AffineExpr repl = lb_map.result(0) + k * step;
        // One mapping per iteration so intra-body def-use chains remap to
        // the freshly cloned defs.
        std::unordered_map<Value *, Value *> mapping;
        for (auto &clone : Operation::cloneRange(body_ops, mapping)) {
            Operation *cloned =
                parent->insertBefore(loop_op, std::move(clone));
            OpBuilder materialize(parent, cloned);
            substituteIV(cloned, iv, repl, lb_operands, materialize);
        }
    }
    // The original body ops die with the loop (the block destructor drops
    // all references first, so destruction order is safe).
    loop_op->erase();
    return true;
}

} // namespace

bool
applyLoopUnroll(Operation *loop_op, int64_t factor)
{
    assert(isa(loop_op, ops::AffineFor));
    AffineForOp loop(loop_op);
    if (factor <= 1)
        return factor == 1;
    auto trip_opt = getStaticTripCount(loop);
    if (!trip_opt)
        return false;
    int64_t trip = *trip_opt;
    if (trip == 0)
        return false;

    if (factor >= trip)
        return fullyUnroll(loop, trip);

    // Clamp to the largest divisor of the trip count not exceeding factor,
    // so the unrolled loop needs no epilogue.
    int64_t divisor = 1;
    for (int64_t d : divisorsOf(trip))
        if (d <= factor)
            divisor = d;
    factor = divisor;
    if (factor <= 1)
        return false;
    if (countNestedOps(loop_op) > kMaxUnrolledOps / factor)
        return false;

    int64_t step = loop.step();
    Value *iv = loop.inductionVar();
    Block *body = loop.body();
    auto body_ops = body->opsVector();
    loop.setStep(step * factor);

    for (int64_t k = 1; k < factor; ++k) {
        AffineExpr repl = getAffineDimExpr(0) + k * step;
        std::unordered_map<Value *, Value *> mapping;
        for (auto &clone : Operation::cloneRange(body_ops, mapping)) {
            Operation *cloned = body->pushBack(std::move(clone));
            OpBuilder materialize(body, cloned);
            substituteIV(cloned, iv, repl, {iv}, materialize);
        }
    }
    return true;
}

} // namespace scalehls
