#include "vhls/synthesizer.h"

#include <algorithm>
#include <set>

#include "analysis/loop_analysis.h"
#include "support/utils.h"

namespace scalehls {

namespace {

/** Bank key of an access when statically known: the constant results of
 * the partition index expressions, or nullopt for dynamic banks. */
std::optional<std::string>
staticBank(const MemAccess &access, const AffineMap &layout)
{
    if (!access.normalized)
        return std::nullopt;
    if (layout.empty())
        return std::string("0");
    auto banks = bankIndexExprs(layout, access.indices);
    std::string key;
    for (const auto &expr : banks) {
        if (!expr.isConstant())
            return std::nullopt;
        key += std::to_string(expr.constantValue()) + ",";
    }
    return key;
}

} // namespace

VirtualSynthesizer::RegionResult
VirtualSynthesizer::scheduleBlock(Block *block, bool share_units)
{
    RegionResult result;
    // Unit state: next free cycle per op kind (single shared instance in
    // sequential regions — Vivado's default allocation policy binds one
    // core per operation kind unless unrolled pipelines demand more).
    std::map<std::string, int64_t> unit_free;
    // Memory port occupancy: (memref, bank-or-"dyn", cycle) -> used ports.
    std::map<std::tuple<Value *, std::string, int64_t>, int> port_used;
    std::map<Operation *, int64_t> finish;

    // Accesses normalized over the IVs of every enclosing loop are not
    // needed here: within one block, subscripts are compared through their
    // map operands directly.
    for (auto &op_ptr : block->ops()) {
        Operation *op = op_ptr.get();
        int64_t earliest = 0;
        op->walk([&](Operation *nested) {
            for (Value *operand : nested->operands()) {
                Operation *def = operand ? operand->definingOp() : nullptr;
                if (def && finish.count(def))
                    earliest = std::max(earliest, finish[def]);
            }
        });

        bool feasible_op = true;
        int64_t latency = opLatency(op, feasible_op);
        result.feasible &= feasible_op;

        int64_t start = earliest;
        if (isMemoryAccess(op)) {
            Value *memref = accessedMemRef(op);
            MemKind kind = memref->type().isMemRef()
                               ? memref->type().memorySpace()
                               : MemKind::BRAM_S2P;
            int ports = isMemoryWrite(op) ? memWritePorts(kind)
                                          : memReadPorts(kind);
            auto accesses = collectAccesses(op, {});
            std::optional<std::string> bank;
            if (!accesses.empty() && memref->type().isMemRef())
                bank = staticBank(accesses.front(),
                                  memref->type().layout());
            std::string bank_key = bank.value_or("dyn");
            while (true) {
                auto key = std::make_tuple(memref, bank_key, start);
                if (port_used[key] < ports) {
                    ++port_used[key];
                    break;
                }
                ++start;
            }
        } else if (share_units && isComputeOp(op)) {
            OpProfile profile = opProfile(op);
            int64_t &free_at = unit_free[op->name()];
            start = std::max(start, free_at);
            free_at = start + profile.ii;
        }

        finish[op] = start + latency;
        result.latency = std::max(result.latency, finish[op]);
    }
    return result;
}

int64_t
VirtualSynthesizer::opLatency(Operation *op, bool &feasible)
{
    if (op->is(ops::AffineFor)) {
        RegionResult r = scheduleLoop(op);
        feasible &= r.feasible;
        return r.latency;
    }
    if (op->is(ops::ScfFor)) {
        feasible = false;
        return 1;
    }
    if (op->is(ops::AffineIf) || op->is(ops::ScfIf)) {
        int64_t latency = 0;
        for (unsigned i = 0; i < op->numRegions(); ++i) {
            if (op->region(i).empty())
                continue;
            RegionResult r =
                scheduleBlock(&op->region(i).front(), true);
            feasible &= r.feasible;
            latency = std::max(latency, r.latency);
        }
        return latency + 1;
    }
    if (op->is(ops::Call)) {
        Operation *callee =
            lookupFunc(module_, op->attr(kCallee).getString());
        if (!callee)
            return 1;
        SynthesisReport report = synthesizeFunc(callee);
        feasible &= report.feasible;
        return report.latency + 2; // Call handshake.
    }
    if (op->is(ops::MemCopy)) {
        Value *src = op->operand(0);
        return src->type().isMemRef() ? src->type().numElements() + 2 : 1;
    }
    return opProfile(op).latency;
}

VirtualSynthesizer::RegionResult
VirtualSynthesizer::scheduleLoop(Operation *loop)
{
    RegionResult result;

    // Flattened chain to the pipelined leaf.
    std::vector<Operation *> chain = {loop};
    Operation *cur = loop;
    while (getLoopDirective(cur).flatten) {
        Block *body = AffineForOp(cur).body();
        if (body->size() != 1 || !body->front()->is(ops::AffineFor))
            break;
        cur = body->front();
        chain.push_back(cur);
    }
    Operation *leaf = chain.back();
    LoopDirective d = getLoopDirective(leaf);

    if (d.pipeline) {
        int64_t flat_trip = 1;
        for (Operation *member : chain) {
            auto trip = getTripCount(AffineForOp(member));
            if (!trip) {
                result.feasible = false;
                trip = 1;
            }
            flat_trip *= *trip;
        }
        // Pipelines replicate units as needed; only ports bound the depth.
        RegionResult body =
            scheduleBlock(AffineForOp(leaf).body(), /*share_units=*/false);
        result.feasible &= body.feasible;

        int64_t ii = std::max<int64_t>(1, d.targetII);
        AccessTable accesses;
        for (const Recurrence &rec : findRecurrences(chain, accesses)) {
            int64_t path = recurrencePathLatency(rec.read, rec.store);
            if (path == 0)
                path = opProfile(rec.store).latency + 1;
            ii = std::max(ii,
                          ceilDiv(path, std::max<int64_t>(
                                            1, rec.flatDistance)));
        }
        ii = std::max(ii, memoryPortII(leaf, bandIVs(chain), accesses));

        // Vivado adds pipeline prologue/epilogue control states.
        result.latency = body.latency + ii * (flat_trip - 1) + 4;
        return result;
    }

    AffineForOp for_op(loop);
    auto trip = getTripCount(for_op);
    if (!trip) {
        result.feasible = false;
        trip = 1;
    }
    RegionResult body = scheduleBlock(for_op.body(), /*share_units=*/true);
    result.feasible &= body.feasible;
    // Body + 1 exit state per iteration, + 2 entry/exit states.
    result.latency = *trip * (body.latency + 1) + 3;
    return result;
}

SynthesisReport
VirtualSynthesizer::synthesizeFunc(Operation *func)
{
    auto it = cache_.find(func);
    if (it != cache_.end())
        return it->second;
    cache_[func] = SynthesisReport{1, 1, {}, budget_, false};

    assert(isa(func, ops::Func));
    Block *body = funcBody(func);
    FuncDirective fd = getFuncDirective(func);
    SynthesisReport report;
    report.budget = budget_;

    if (fd.dataflow) {
        int64_t total = 0;
        int64_t max_stage = 1;
        for (auto &op : body->ops()) {
            bool feasible_op = true;
            int64_t latency = opLatency(op.get(), feasible_op);
            report.feasible &= feasible_op;
            if (op->is(ops::Call) || isLoop(op.get()))
                max_stage = std::max(max_stage, latency);
            total += latency;
        }
        report.latency = total + 4;
        report.interval = max_stage;
    } else if (fd.pipeline) {
        RegionResult r = scheduleBlock(body, /*share_units=*/false);
        report.feasible &= r.feasible;
        report.latency = r.latency + 3;
        AccessTable accesses;
        report.interval =
            std::max<int64_t>(std::max<int64_t>(1, fd.targetII),
                              memoryPortII(func, {}, accesses));
    } else {
        RegionResult r = scheduleBlock(body, /*share_units=*/true);
        report.feasible &= r.feasible;
        report.latency = r.latency + 3;
        report.interval = report.latency;
    }

    // Resource accounting shares the estimator's model (the paper's
    // estimator was validated against Vivado on exactly these fields),
    // with a register/FSM overhead the analytical model omits.
    QoREstimator estimator(module_);
    report.usage = estimator.estimateFunc(func).resources;
    int64_t states = 0;
    func->walk([&](Operation *op) {
        states += isLoop(op) || op->is(ops::Call) ? 2 : 0;
    });
    report.usage.lut += 100 + 10 * states;

    cache_[func] = report;
    return report;
}

SynthesisReport
VirtualSynthesizer::synthesize()
{
    Operation *top = getTopFunc(module_);
    assert(top && "module has no functions");
    return synthesizeFunc(top);
}

} // namespace scalehls
