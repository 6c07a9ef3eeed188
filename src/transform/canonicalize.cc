/**
 * @file
 * -canonicalize (constant folding, algebraic identities, dead code
 * elimination) and -cse (common subexpression elimination over pure ops),
 * following the methodology of classic compiler redundancy elimination
 * (paper Section V-D), plus the cleanup pipeline built from them.
 */

#include <sstream>
#include <unordered_map>

#include "dialect/graph_ops.h"
#include "support/utils.h"
#include "transform/pass.h"

namespace scalehls {

namespace {

/** Ops without observable side effects (safe to erase when unused and to
 * deduplicate when matching). Loads are pure for DCE (erasable when unused)
 * but not CSE-safe across stores; -simplify-memref-access handles them. */
bool
isPureScalarOp(const Operation *op)
{
    return (op->dialect() == "arith" || op->dialect() == "math") &&
           op->numRegions() == 0;
}

bool
isDCEErasable(const Operation *op)
{
    if (isPureScalarOp(op))
        return true;
    if (op->is(ops::AffineLoad) || op->is(ops::MemLoad))
        return true;
    if (op->is(ops::Alloc))
        return true;
    if (op->is(ops::GraphWeight))
        return true;
    return false;
}

/** Fold an arith op with constant operands; returns the folded attribute
 * (null if not foldable). */
Attribute
foldConstants(Operation *op)
{
    if (op->numOperands() != 2)
        return Attribute();
    auto lhs = getConstantIntValue(op->operand(0));
    auto rhs = getConstantIntValue(op->operand(1));
    if (lhs && rhs) {
        if (op->is(ops::AddI))
            return Attribute(*lhs + *rhs);
        if (op->is(ops::SubI))
            return Attribute(*lhs - *rhs);
        if (op->is(ops::MulI))
            return Attribute(*lhs * *rhs);
        if (op->is(ops::DivSI) && *rhs != 0)
            return Attribute(*lhs / *rhs);
        if (op->is(ops::RemSI) && *rhs != 0)
            return Attribute(*lhs % *rhs);
        if (op->is(ops::CmpI)) {
            auto pred = cmpPredicateFromName(
                op->attr(kPredicate).getString());
            bool result = false;
            switch (pred) {
              case CmpPredicate::EQ:
                result = *lhs == *rhs;
                break;
              case CmpPredicate::NE:
                result = *lhs != *rhs;
                break;
              case CmpPredicate::LT:
                result = *lhs < *rhs;
                break;
              case CmpPredicate::LE:
                result = *lhs <= *rhs;
                break;
              case CmpPredicate::GT:
                result = *lhs > *rhs;
                break;
              case CmpPredicate::GE:
                result = *lhs >= *rhs;
                break;
            }
            return Attribute(static_cast<int64_t>(result));
        }
    }

    auto constFloat = [&](unsigned i) -> std::optional<double> {
        Operation *def = op->operand(i)->definingOp();
        if (!isa(def, ops::Constant) || !def->attr(kValue).is<double>())
            return std::nullopt;
        return def->attr(kValue).getFloat();
    };
    auto flhs = constFloat(0);
    auto frhs = constFloat(1);
    if (flhs && frhs) {
        if (op->is(ops::AddF))
            return Attribute(*flhs + *frhs);
        if (op->is(ops::SubF))
            return Attribute(*flhs - *frhs);
        if (op->is(ops::MulF))
            return Attribute(*flhs * *frhs);
        if (op->is(ops::DivF) && *frhs != 0.0)
            return Attribute(*flhs / *frhs);
    }
    return Attribute();
}

/** Apply x+0, x*1, x*0, x-0, x/1 style identities; returns the replacement
 * value or nullptr. */
Value *
foldIdentity(Operation *op)
{
    if (op->numOperands() != 2)
        return nullptr;
    auto lhs = getConstantIntValue(op->operand(0));
    auto rhs = getConstantIntValue(op->operand(1));
    if (op->is(ops::AddI)) {
        if (rhs && *rhs == 0)
            return op->operand(0);
        if (lhs && *lhs == 0)
            return op->operand(1);
    }
    if (op->is(ops::SubI) && rhs && *rhs == 0)
        return op->operand(0);
    if (op->is(ops::MulI)) {
        if (rhs && *rhs == 1)
            return op->operand(0);
        if (lhs && *lhs == 1)
            return op->operand(1);
    }
    if (op->is(ops::DivSI) && rhs && *rhs == 1)
        return op->operand(0);
    // select %true/%false, a, b
    if (op->is(ops::Select))
        return nullptr;
    return nullptr;
}

/** Erase loops and ifs whose bodies became empty. */
bool
eraseEmptyRegions(Operation *scope)
{
    bool changed = false;
    std::vector<Operation *> victims;
    scope->walkPostOrder([&](Operation *op) {
        if (op == scope || !op->parentBlock())
            return;
        if (op->is(ops::AffineFor) || op->is(ops::ScfFor)) {
            if (op->region(0).front().empty())
                victims.push_back(op);
        } else if (op->is(ops::AffineIf) || op->is(ops::ScfIf)) {
            bool then_empty = op->region(0).empty() ||
                              op->region(0).front().empty();
            bool else_empty = op->region(1).empty() ||
                              op->region(1).front().empty();
            if (then_empty && else_empty)
                victims.push_back(op);
        }
    });
    for (Operation *op : victims) {
        op->erase();
        changed = true;
    }
    return changed;
}

} // namespace

bool
applyCanonicalize(Operation *scope)
{
    bool any_change = false;
    bool changed = true;
    // Iterate to a fixed point; each round folds, simplifies and DCEs.
    while (changed) {
        changed = false;

        // Constant folding and identities (post-order so operands fold
        // first).
        std::vector<Operation *> worklist;
        scope->walkPostOrder([&](Operation *op) {
            if (isPureScalarOp(op))
                worklist.push_back(op);
        });
        for (Operation *op : worklist) {
            if (Attribute folded = foldConstants(op)) {
                OpBuilder b;
                b.setInsertionPoint(op);
                Type t = op->result(0)->type();
                Operation *cst;
                if (folded.is<double>()) {
                    cst = createConstantFloat(b, folded.getFloat(), t);
                } else {
                    cst = createConstantInt(b, folded.getInt(), t);
                }
                op->replaceAllUsesWith(cst);
                op->erase();
                changed = true;
                continue;
            }
            if (Value *repl = foldIdentity(op)) {
                op->result(0)->replaceAllUsesWith(repl);
                op->erase();
                changed = true;
                continue;
            }
            // select with constant condition.
            if (op->is(ops::Select)) {
                if (auto c = getConstantIntValue(op->operand(0))) {
                    op->result(0)->replaceAllUsesWith(
                        op->operand(*c ? 1 : 2));
                    op->erase();
                    changed = true;
                }
            }
        }

        // DCE, innermost-first.
        std::vector<Operation *> dce;
        scope->walkPostOrder([&](Operation *op) {
            if (op != scope && op->parentBlock() && isDCEErasable(op) &&
                op->useEmpty())
                dce.push_back(op);
        });
        // Reverse order erases uses before their defs.
        for (auto it = dce.rbegin(); it != dce.rend(); ++it) {
            if ((*it)->useEmpty()) {
                (*it)->erase();
                changed = true;
            }
        }

        changed |= eraseEmptyRegions(scope);
        any_change |= changed;
    }
    return any_change;
}

bool
applyCSE(Operation *scope)
{
    bool changed = false;
    // Per-block value numbering over pure scalar ops. Keys include the
    // block so values from different blocks never merge (keeps dominance
    // trivially correct).
    std::unordered_map<std::string, Operation *> table;
    std::vector<Operation *> to_erase;

    scope->walk([&](Operation *op) {
        if (!isPureScalarOp(op) || op->numResults() != 1)
            return;
        std::ostringstream key;
        key << op->parentBlock() << "|" << op->name();
        if (isCommutativeOp(op) && op->operand(1) < op->operand(0)) {
            // Commutative ops key operands in a canonical order so
            // swapped-operand duplicates merge — the canonicalizing band
            // digest treats them as equal, and digest-equal bands must
            // clean up identically (see isCommutativeOp).
            key << "|" << op->operand(1) << "|" << op->operand(0);
        } else {
            for (Value *operand : op->operands())
                key << "|" << operand;
        }
        for (const auto &[name, attr] : op->attrs())
            key << "|" << name << "=" << attr.toString();
        auto [it, inserted] = table.emplace(key.str(), op);
        if (!inserted) {
            op->replaceAllUsesWith(it->second);
            to_erase.push_back(op);
            changed = true;
        }
    });
    for (Operation *op : to_erase)
        op->erase();
    return changed;
}

void
applyCleanupPipeline(Operation *scope)
{
    applyCanonicalize(scope);
    applySimplifyAffineIf(scope);
    applyAffineStoreForward(scope);
    applySimplifyMemrefAccess(scope);
    applyCSE(scope);
    applyCanonicalize(scope);
}

} // namespace scalehls
