/**
 * @file
 * -array-partition (paper Section V-C2): detects the memory access pattern
 * of each array (metric of Eq. 1), selects a cyclic/block partition per
 * dimension and encodes it into the memref's affine layout map. An
 * inter-procedural pass: arrays passed into sub-functions are resolved to
 * their roots so one globally optimal plan is chosen per array.
 */

#include <map>
#include <set>

#include "analysis/memory_analysis.h"
#include "transform/pass.h"

namespace scalehls {

void
applyPartitionPlan(Value *memref, const PartitionPlan &plan)
{
    Type t = memref->type();
    assert(t.isMemRef());
    AffineMap layout = buildPartitionMap(plan, t.shape());
    memref->setType(t.withLayout(layout));
}

namespace {

/** Accumulates alias sets and per-scope access groups for root memrefs. */
class PartitionAnalysis
{
  public:
    explicit PartitionAnalysis(Operation *module) : module_(module) {}

    void
    analyzeFunc(Operation *func,
                const std::map<Value *, Value *> &arg_to_root)
    {
        // Record aliases so layouts can be propagated to callee args.
        for (const auto &[alias, root] : arg_to_root)
            aliases_[root].push_back(alias);

        auto resolveRoot = [&](Value *memref) {
            auto it = arg_to_root.find(memref);
            return it == arg_to_root.end() ? memref : it->second;
        };

        // Accesses inside each top-level band, normalized over band IVs.
        std::vector<Operation *> band_roots;
        for (auto &band : getLoopBands(func)) {
            band_roots.push_back(band.front());
            auto accesses = collectAccesses(band.front(), bandIVs(band));
            for (MemAccess &access : accesses)
                access.memref = resolveRoot(access.memref);
            addScope(accesses);
        }

        // Straight-line accesses (outside every band) form one more scope.
        std::vector<MemAccess> flat;
        func->walk([&](Operation *op) {
            if (!isMemoryAccess(op))
                return;
            for (Operation *root : band_roots)
                if (root == op || root->isAncestorOf(op))
                    return;
            auto accesses = collectAccesses(op, {});
            for (MemAccess &access : accesses) {
                access.memref = resolveRoot(access.memref);
                flat.push_back(std::move(access));
            }
        });
        addScope(flat);

        // Recurse into callees with argument mapping. on_path_ guards
        // against call cycles (recursive designs would otherwise recurse
        // until stack overflow; the estimator rejects them as infeasible,
        // but the partition analysis must survive walking them).
        on_path_.insert(func);
        func->walk([&](Operation *op) {
            if (!op->is(ops::Call))
                return;
            Operation *callee =
                lookupFunc(module_, op->attr(kCallee).getString());
            if (!callee || on_path_.count(callee))
                return;
            std::map<Value *, Value *> callee_map;
            Block *callee_body = funcBody(callee);
            for (unsigned i = 0; i < op->numOperands(); ++i) {
                if (i < callee_body->numArguments() &&
                    op->operand(i)->type().isMemRef())
                    callee_map[callee_body->argument(i)] =
                        resolveRoot(op->operand(i));
            }
            analyzeFunc(callee, callee_map);
        });
        on_path_.erase(func);
    }

    /** Merge the per-scope plans (max factor wins per dim). */
    std::map<Value *, PartitionPlan>
    mergedPlans() const
    {
        std::map<Value *, PartitionPlan> plans;
        for (const auto &[memref, scope_plans] : scopePlans_) {
            unsigned rank = memref->type().rank();
            PartitionPlan merged;
            merged.kinds.assign(rank, PartitionKind::None);
            merged.factors.assign(rank, 1);
            for (const PartitionPlan &plan : scope_plans) {
                for (unsigned d = 0; d < rank; ++d) {
                    if (plan.factors[d] > merged.factors[d]) {
                        merged.factors[d] = plan.factors[d];
                        merged.kinds[d] = plan.kinds[d];
                    }
                }
            }
            plans[memref] = std::move(merged);
        }
        return plans;
    }

    const std::vector<Value *> &
    aliasesOf(Value *root) const
    {
        static const std::vector<Value *> empty;
        auto it = aliases_.find(root);
        return it == aliases_.end() ? empty : it->second;
    }

  private:
    /** Record one scope's plan per (root) memref it accesses. */
    void
    addScope(const std::vector<MemAccess> &accesses)
    {
        for (auto &[memref, group] : groupByMemRef(accesses))
            if (memref->type().isMemRef())
                scopePlans_[memref].push_back(
                    computePartitionPlan(memref, group));
    }

    Operation *module_;
    std::map<Value *, std::vector<PartitionPlan>> scopePlans_;
    std::map<Value *, std::vector<Value *>> aliases_;
    std::set<Operation *> on_path_;
};

} // namespace

bool
applyArrayPartition(Operation *func)
{
    assert(isa(func, ops::Func));
    Operation *module = func->parentOfName(ops::Module);
    PartitionAnalysis analysis(module);
    analysis.analyzeFunc(func, {});

    bool changed = false;
    for (const auto &[memref, plan] : analysis.mergedPlans()) {
        if (plan.isTrivial())
            continue;
        applyPartitionPlan(memref, plan);
        // Keep callee argument types consistent with the root layout.
        for (Value *alias : analysis.aliasesOf(memref))
            alias->setType(memref->type());
        changed = true;
    }
    return changed;
}

} // namespace scalehls
