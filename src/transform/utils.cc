#include "transform/utils.h"

#include <algorithm>

#include "support/utils.h"

namespace scalehls {

Value *
materializeExpr(OpBuilder &b, const AffineExpr &expr,
                const std::vector<Value *> &operands)
{
    switch (expr.kind()) {
      case AffineExprKind::Constant:
        return createConstantIndex(b, expr.constantValue())->result(0);
      case AffineExprKind::DimId:
        assert(expr.position() < operands.size());
        return operands[expr.position()];
      case AffineExprKind::SymbolId:
        fatal("cannot materialize symbolic affine expression");
      default: {
        Value *lhs = materializeExpr(b, expr.lhs(), operands);
        Value *rhs = materializeExpr(b, expr.rhs(), operands);
        std::string_view name;
        switch (expr.kind()) {
          case AffineExprKind::Add:
            name = ops::AddI;
            break;
          case AffineExprKind::Mul:
            name = ops::MulI;
            break;
          case AffineExprKind::Mod:
            name = ops::RemSI;
            break;
          case AffineExprKind::FloorDiv:
          case AffineExprKind::CeilDiv:
            name = ops::DivSI;
            break;
          default:
            fatal("unexpected affine expression kind");
        }
        return createBinary(b, name, lhs, rhs)->result(0);
      }
    }
}

AffineMap
rebuildMapWithoutIV(const AffineMap &map, std::vector<Value *> &operands,
                    size_t first, size_t last, Value *iv,
                    const AffineExpr &repl,
                    const std::vector<Value *> &repl_operands)
{
    // The new map operands (old ones minus iv, plus repl_operands,
    // deduped) are appended behind the whole list, then rotated into
    // [first, last) in place of the old ones.
    size_t end = operands.size();
    auto operandDim = [&](Value *v) -> unsigned {
        auto fresh = operands.begin() + end;
        auto it = std::find(fresh, operands.end(), v);
        if (it == operands.end()) {
            operands.push_back(v);
            return operands.size() - 1 - end;
        }
        return it - fresh;
    };

    std::vector<AffineExpr> dim_repls(last - first);
    for (size_t p = first; p < last; ++p) {
        if (operands[p] == iv) {
            // Compose repl with its operands mapped into new positions.
            std::vector<AffineExpr> inner(repl_operands.size());
            for (unsigned i = 0; i < repl_operands.size(); ++i)
                inner[i] = getAffineDimExpr(operandDim(repl_operands[i]));
            dim_repls[p - first] = repl.replaceDimsAndSymbols(inner);
        } else {
            dim_repls[p - first] = getAffineDimExpr(operandDim(operands[p]));
        }
    }

    AffineMap new_map = map.replaceDims(dim_repls, operands.size() - end);
    operands.erase(operands.begin() + first, operands.begin() + last);
    std::rotate(operands.begin() + first,
                operands.begin() + first + (end - last), operands.end());
    return new_map;
}

namespace {

/** Rewrite an IntegerSet the same way rebuildMapWithoutIV rewrites a map,
 * over the whole operand list. */
IntegerSet
rebuildSetWithoutIV(const IntegerSet &set, std::vector<Value *> &operands,
                    Value *iv, const AffineExpr &repl,
                    const std::vector<Value *> &repl_operands)
{
    AffineMap map(set.numDims(), 0, set.constraints());
    AffineMap new_map = rebuildMapWithoutIV(map, operands, 0, operands.size(),
                                            iv, repl, repl_operands);
    return IntegerSet(new_map.numDims(), new_map.results(), set.eqFlags());
}

} // namespace

void
substituteIV(Operation *root, Value *iv, const AffineExpr &repl,
             const std::vector<Value *> &repl_operands,
             OpBuilder &materialize_builder)
{
    Value *materialized = nullptr;
    auto getMaterialized = [&]() {
        if (!materialized)
            materialized =
                materializeExpr(materialize_builder, repl, repl_operands);
        return materialized;
    };

    // One working copy of an op's operand list, reused across the walk;
    // each rewrite edits its map's range of it in place.
    std::vector<Value *> operands;
    auto uses = [&](size_t first, size_t last) {
        return std::find(operands.begin() + first, operands.begin() + last,
                         iv) != operands.begin() + last;
    };
    root->walk([&](Operation *op) {
        const std::vector<Value *> &current = op->operands();
        if (std::find(current.begin(), current.end(), iv) == current.end())
            return;
        operands.assign(current.begin(), current.end());

        if (op->is(ops::AffineLoad) || op->is(ops::AffineStore)) {
            size_t first = op->is(ops::AffineLoad) ? 1 : 2;
            AffineMap new_map = rebuildMapWithoutIV(
                op->attr(kMap).getAffineMap(), operands, first,
                operands.size(), iv, repl, repl_operands);
            op->setOperands(operands);
            op->setAttr(kMap, std::move(new_map));
            return;
        }
        if (op->is(ops::AffineIf)) {
            IntegerSet new_set = rebuildSetWithoutIV(
                AffineIfOp(op).condition(), operands, iv, repl,
                repl_operands);
            op->setOperands(operands);
            op->setAttr(kCondition, std::move(new_set));
            return;
        }
        if (op->is(ops::AffineFor)) {
            // Upper-bound operands trail the lower-bound ones: rewrite
            // them first so the lower range's position stays put.
            AffineForOp for_op(op);
            size_t num_lb = for_op.numLbOperands();
            if (uses(num_lb, operands.size()))
                op->setAttr(kUpperMap,
                            rebuildMapWithoutIV(
                                for_op.upperBoundMap(), operands, num_lb,
                                operands.size(), iv, repl, repl_operands));
            if (uses(0, num_lb)) {
                size_t before = operands.size();
                op->setAttr(kLowerMap,
                            rebuildMapWithoutIV(for_op.lowerBoundMap(),
                                                operands, 0, num_lb, iv,
                                                repl, repl_operands));
                num_lb += operands.size() - before;
                op->setAttr(kLbCount, static_cast<int64_t>(num_lb));
            }
            op->setOperands(operands);
            return;
        }
        // Plain SSA use: materialize the expression once.
        for (unsigned i = 0; i < op->numOperands(); ++i)
            if (op->operand(i) == iv)
                op->setOperand(i, getMaterialized());
    });
}

} // namespace scalehls
