/**
 * @file
 * -affine-loop-perfectization (paper Section V-B1): relocates operations
 * sitting between loop statements into the innermost loop. Pure operations
 * are re-executed unguarded (safe and often folded later); state-modifying
 * operations (stores) are guarded by first-iteration / last-iteration
 * affine.if conditions, exactly as in the SYRK example of Fig. 5.
 */

#include <set>

#include "analysis/loop_analysis.h"
#include "transform/pass.h"

namespace scalehls {

namespace {

/** Build the guard set `iv == bound` for a child loop with constant
 * bounds: first iteration (d0 - lb == 0) or last (d0 - last == 0). */
IntegerSet
iterationGuard(AffineForOp child, bool first)
{
    int64_t lb = *child.constantLowerBound();
    int64_t ub = *child.constantUpperBound();
    int64_t step = child.step();
    int64_t target = first ? lb : lb + ((ub - 1 - lb) / step) * step;
    AffineExpr expr = getAffineDimExpr(0) - target;
    return IntegerSet::get(1, expr, /*is_eq=*/true);
}

bool
needsGuard(Operation *op)
{
    bool has_write = false;
    op->walk([&](Operation *nested) {
        has_write |= isMemoryWrite(nested) || nested->is(ops::Call);
    });
    return has_write;
}

/** Sink the non-loop ops of @p parent's body into @p child's body.
 * @p before selects ops before (true) or after (false) the child loop. */
bool
sinkOps(AffineForOp parent, AffineForOp child, bool before)
{
    Block *parent_body = parent.body();
    Block *child_body = child.body();
    std::vector<Operation *> to_move;
    bool seen_child = false;
    for (Operation *op : parent_body->opsVector()) {
        if (op == child.op()) {
            seen_child = true;
            continue;
        }
        if (before != !seen_child)
            continue;
        to_move.push_back(op);
    }
    if (to_move.empty())
        return false;

    // Legality: a pure op re-executed every child iteration must not read
    // a memref written by an earlier guarded (once-only) op of this group.
    std::set<Value *> guarded_writes;
    bool any_guarded = false;
    for (Operation *op : to_move) {
        if (needsGuard(op)) {
            any_guarded = true;
            op->walk([&](Operation *nested) {
                if (isMemoryWrite(nested))
                    guarded_writes.insert(accessedMemRef(nested));
            });
        } else {
            bool stale = false;
            op->walk([&](Operation *nested) {
                if (isMemoryAccess(nested) && !isMemoryWrite(nested) &&
                    guarded_writes.count(accessedMemRef(nested)))
                    stale = true;
            });
            if (stale)
                return false;
        }
    }

    if (before) {
        Operation *guard = nullptr;
        if (any_guarded) {
            OpBuilder b;
            b.setInsertionPointToStart(child_body);
            guard = createAffineIf(b, iterationGuard(child, true),
                                   {child.inductionVar()})
                        .op();
        }
        Operation *pre_anchor = guard;
        if (!pre_anchor && !child_body->empty())
            pre_anchor = child_body->front();
        for (Operation *op : to_move) {
            auto owned = parent_body->take(op);
            if (guard && needsGuard(owned.get()))
                AffineIfOp(guard).thenBlock()->pushBack(std::move(owned));
            else
                child_body->insertBefore(pre_anchor, std::move(owned));
        }
    } else {
        // Pure post-ops go to the end of the body, then the last-iteration
        // guard, then the guarded ops inside it — preserving def-before-use.
        std::vector<Operation *> pure_ops;
        std::vector<Operation *> guarded_ops;
        for (Operation *op : to_move)
            (needsGuard(op) ? guarded_ops : pure_ops).push_back(op);
        for (Operation *op : pure_ops)
            child_body->pushBack(parent_body->take(op));
        if (!guarded_ops.empty()) {
            OpBuilder b;
            b.setInsertionPointToEnd(child_body);
            AffineIfOp guard = createAffineIf(
                b, iterationGuard(child, false), {child.inductionVar()});
            for (Operation *op : guarded_ops)
                guard.thenBlock()->pushBack(parent_body->take(op));
        }
    }
    return true;
}

} // namespace

bool
applyLoopPerfectization(Operation *outermost)
{
    assert(isa(outermost, ops::AffineFor));
    bool changed = false;
    bool progress = true;
    while (progress) {
        progress = false;
        auto band = getLoopNest(outermost);
        for (unsigned i = 0; i + 1 < band.size(); ++i) {
            AffineForOp parent(band[i]);
            AffineForOp child(band[i + 1]);
            // Guards require constant child bounds, and ops sunk into a
            // zero-trip child would never run.
            if (!child.hasConstantBounds() ||
                *child.constantUpperBound() <= *child.constantLowerBound())
                continue;
            if (sinkOps(parent, child, /*before=*/true))
                progress = true;
            if (sinkOps(parent, child, /*before=*/false))
                progress = true;
        }
        changed |= progress;
    }
    return changed;
}

} // namespace scalehls
