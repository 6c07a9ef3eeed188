/**
 * @file
 * Function inlining (the `inline` directive of paper Table I): ScaleHLS
 * does not represent the directive as an attribute but directly inlines
 * the target function in the IR to ease transformation and analysis
 * (paper Section IV-C1).
 */

#include "transform/pass.h"

namespace scalehls {

bool
applyFuncInline(Operation *module, Operation *call)
{
    assert(isa(module, ops::Module) && isa(call, ops::Call));
    Operation *callee = lookupFunc(module, call->attr(kCallee).getString());
    if (!callee)
        return false;
    Block *callee_body = funcBody(callee);
    if (callee_body->numArguments() != call->numOperands())
        return false;

    // Clone the callee body at the call site, mapping arguments to the
    // call operands; the trailing func.return supplies result values.
    std::unordered_map<Value *, Value *> mapping;
    for (unsigned i = 0; i < call->numOperands(); ++i)
        mapping[callee_body->argument(i)] = call->operand(i);

    std::vector<Operation *> body_ops;
    Operation *ret = nullptr;
    for (auto &op : callee_body->ops()) {
        if (op->is(ops::Return)) {
            ret = op.get();
            break; // The return is the terminator.
        }
        body_ops.push_back(op.get());
    }
    Block *dest = call->parentBlock();
    for (auto &cloned : Operation::cloneRange(body_ops, mapping))
        dest->insertBefore(call, std::move(cloned));

    std::vector<Value *> results;
    if (ret) {
        for (Value *operand : ret->operands()) {
            auto it = mapping.find(operand);
            results.push_back(it == mapping.end() ? operand : it->second);
        }
    }

    for (unsigned i = 0; i < call->numResults() && i < results.size(); ++i)
        call->result(i)->replaceAllUsesWith(results[i]);
    call->erase();
    return true;
}

bool
applyFuncInlineAll(Operation *module, const std::string &callee_name)
{
    bool changed = false;
    bool progress = true;
    while (progress) {
        progress = false;
        std::vector<Operation *> calls;
        module->walk([&](Operation *op) {
            if (op->is(ops::Call) &&
                (callee_name.empty() ||
                 op->attr(kCallee).getString() == callee_name))
                calls.push_back(op);
        });
        for (Operation *call : calls) {
            if (applyFuncInline(module, call)) {
                progress = true;
                break; // IR changed; re-collect.
            }
        }
        changed |= progress;
    }
    // Remove functions that became unreachable (never the top function).
    std::vector<Operation *> dead;
    for (auto &op : module->region(0).front().ops()) {
        if (!op->is(ops::Func) || isTopFunc(op.get()))
            continue;
        bool used = false;
        module->walk([&](Operation *user) {
            if (user->is(ops::Call) &&
                user->attr(kCallee).getString() == funcName(op.get()))
                used = true;
        });
        if (!used)
            dead.push_back(op.get());
    }
    for (Operation *func : dead)
        func->erase();
    changed |= !dead.empty();
    return changed;
}

std::unique_ptr<Pass>
createFuncInlinePass()
{
    return makePass("-func-inline", [](Operation *op) {
        assert(op->is(ops::Module));
        applyFuncInlineAll(op, "");
    });
}

} // namespace scalehls
