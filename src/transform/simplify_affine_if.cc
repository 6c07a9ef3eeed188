/**
 * @file
 * -simplify-affine-if (paper Section V-D): uses affine analysis over the
 * ranges of the condition operands to prove constraints always/never hold,
 * eliminating dead branches or pruning redundant constraints.
 */

#include "analysis/loop_analysis.h"
#include "transform/pass.h"

namespace scalehls {

namespace {

enum class ConstraintVerdict { AlwaysTrue, AlwaysFalse, Unknown };

/** Evaluate the min/max of @p expr over the (rectangular) ranges of the
 * condition operands, using corner enumeration (valid for linear
 * expressions, the common case after our simplifications). */
std::optional<std::pair<int64_t, int64_t>>
exprRange(const AffineExpr &expr, const std::vector<Value *> &operands)
{
    // Non-linear expressions (mod/div) are not corner-exact; skip them.
    auto coeffs = expr.linearCoefficients(operands.size());
    if (!coeffs)
        return std::nullopt;
    std::vector<std::pair<int64_t, int64_t>> ranges;
    for (Value *v : operands) {
        if (auto c = getConstantIntValue(v)) {
            ranges.push_back({*c, *c});
            continue;
        }
        auto r = getIVRange(v);
        if (!r)
            return std::nullopt;
        ranges.push_back(*r);
    }
    int64_t min = coeffs->back();
    int64_t max = coeffs->back();
    for (unsigned i = 0; i < operands.size(); ++i) {
        int64_t c = (*coeffs)[i];
        if (c >= 0) {
            min += c * ranges[i].first;
            max += c * ranges[i].second;
        } else {
            min += c * ranges[i].second;
            max += c * ranges[i].first;
        }
    }
    return std::make_pair(min, max);
}

ConstraintVerdict
judgeConstraint(const AffineExpr &expr, bool is_eq,
                const std::vector<Value *> &operands)
{
    auto range = exprRange(expr, operands);
    if (!range)
        return ConstraintVerdict::Unknown;
    auto [min, max] = *range;
    if (is_eq) {
        if (min == 0 && max == 0)
            return ConstraintVerdict::AlwaysTrue;
        if (min > 0 || max < 0)
            return ConstraintVerdict::AlwaysFalse;
        return ConstraintVerdict::Unknown;
    }
    if (min >= 0)
        return ConstraintVerdict::AlwaysTrue;
    if (max < 0)
        return ConstraintVerdict::AlwaysFalse;
    return ConstraintVerdict::Unknown;
}

/** Move all ops of @p from before @p anchor in anchor's block. */
void
inlineBlockBefore(Block *from, Operation *anchor)
{
    Block *dest = anchor->parentBlock();
    for (Operation *op : from->opsVector())
        dest->insertBefore(anchor, from->take(op));
}

} // namespace

bool
simplifyAffineIfOp(Operation *op)
{
    AffineIfOp if_op(op);
    IntegerSet set = if_op.condition();
    auto operands = op->operands();

    std::vector<AffineExpr> kept;
    std::vector<bool> kept_eq;
    bool always_false = false;
    for (unsigned i = 0; i < set.numConstraints(); ++i) {
        switch (judgeConstraint(set.constraint(i), set.isEq(i), operands)) {
          case ConstraintVerdict::AlwaysTrue:
            break; // Redundant; drop it.
          case ConstraintVerdict::AlwaysFalse:
            always_false = true;
            break;
          case ConstraintVerdict::Unknown:
            kept.push_back(set.constraint(i));
            kept_eq.push_back(set.isEq(i));
            break;
        }
        if (always_false)
            break;
    }

    if (always_false) {
        if (if_op.hasElse())
            inlineBlockBefore(if_op.elseBlock(), op);
        op->erase();
        return true;
    }
    if (kept.empty()) {
        inlineBlockBefore(if_op.thenBlock(), op);
        op->erase();
        return true;
    }
    if (kept.size() != set.numConstraints()) {
        if_op.setCondition(
            IntegerSet(set.numDims(), std::move(kept), std::move(kept_eq)));
        return true;
    }
    return false;
}

bool
applySimplifyAffineIf(Operation *scope)
{
    // A verdict reads only loop bounds and constants, and simplifying an
    // if changes neither, so each if is judged once, on a list collected
    // once. Innermost first: erasing or inlining an if only ever erases or
    // moves ifs the sweep has already visited.
    std::vector<Operation *> ifs;
    scope->walkPostOrder([&](Operation *op) {
        if (op->is(ops::AffineIf))
            ifs.push_back(op);
    });
    bool changed = false;
    for (Operation *op : ifs)
        changed |= simplifyAffineIfOp(op);
    return changed;
}

} // namespace scalehls
