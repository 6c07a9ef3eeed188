#include "estimate/qor_estimator.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <unordered_set>

#include "analysis/loop_analysis.h"
#include "estimate/estimate_cache.h"
#include "support/thread_pool.h"
#include "support/utils.h"

namespace scalehls {

namespace {

/** Union-find over access indices for bank-conflict grouping. */
class UnionFind
{
  public:
    explicit UnionFind(size_t n) : parent_(n)
    {
        std::iota(parent_.begin(), parent_.end(), 0);
    }
    size_t
    find(size_t x)
    {
        while (parent_[x] != x)
            x = parent_[x] = parent_[parent_[x]];
        return x;
    }
    void
    merge(size_t a, size_t b)
    {
        parent_[find(a)] = find(b);
    }

  private:
    std::vector<size_t> parent_;
};

/** Deduplicate reads with identical subscripts (they may share a port,
 * paper Section V-E1). All-linear subscripts compare on their
 * (class, constant) keys, the rest on their canonical string. */
std::vector<const MemAccess *>
dedupeReads(const std::vector<const MemAccess *> &group)
{
    std::vector<const MemAccess *> out;
    std::unordered_set<LinearSubscriptKey, LinearSubscriptKeyHash> linear;
    std::set<std::string> other;
    for (const MemAccess *access : group) {
        if (!access->normalized) {
            out.push_back(access);
            continue;
        }
        bool fresh = false;
        if (auto key = linearSubscriptKey(*access))
            fresh = linear.insert(std::move(*key)).second;
        else
            fresh = other.insert(subscriptKey(*access)).second;
        if (fresh)
            out.push_back(access);
    }
    return out;
}

/** The port pressure of one access group: accesses that could hit the
 * same physical bank are joined (union-find), and the largest component
 * needs ceil(size / ports) cycles. Two accesses provably hit different
 * banks when along some dim their subscripts share a linear class and
 * the constant offset c separates banks under the plan: cyclic when
 * c mod factor != 0, block when |c| >= the block size. Any unknown
 * relation is a potential conflict. */
int64_t
groupPressure(const std::vector<const MemAccess *> &accesses,
              const PartitionPlan &plan,
              const std::vector<int64_t> &shape, int ports)
{
    if (accesses.empty() || ports <= 0)
        return 0;
    size_t n = accesses.size();
    unsigned rank = shape.size();

    // A non-normalized or rank-mismatched access may share a bank with
    // every access, and a plan with no partitioned dim separates nothing:
    // either way all accesses form one component.
    bool one_component = true;
    for (PartitionKind kind : plan.kinds)
        one_component = one_component && kind == PartitionKind::None;
    for (const MemAccess *access : accesses)
        if (!access->normalized || access->indices.size() != rank)
            one_component = true;
    if (one_component)
        return ceilDiv(static_cast<int64_t>(n), ports);

    std::vector<int64_t> block(rank, 0);
    for (unsigned d = 0; d < rank; ++d)
        if (plan.kinds[d] == PartitionKind::Block)
            block[d] = ceilDiv(shape[d], plan.factors[d]);
    auto separated = [&](const MemAccess &a, const MemAccess &b) {
        for (unsigned d = 0; d < rank; ++d) {
            int32_t cls = a.linearClass[d];
            if (cls == kNonLinearSubscript || cls != b.linearClass[d])
                continue; // Unknown relation along this dim.
            int64_t c = a.constant(d) - b.constant(d);
            switch (plan.kinds[d]) {
              case PartitionKind::None:
                break; // One bank along this dim; can't separate.
              case PartitionKind::Cyclic:
                if (euclidMod(c, plan.factors[d]) != 0)
                    return true;
                break;
              case PartitionKind::Block:
                if (c != 0 && std::abs(c) >= block[d])
                    return true;
                break;
            }
        }
        return false;
    };

    // Pairs already joined need no test: skipping them leaves the
    // components (and so the pressure) exactly as the full pair scan.
    UnionFind uf(n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = i + 1; j < n; ++j)
            if (uf.find(i) != uf.find(j) &&
                !separated(*accesses[i], *accesses[j]))
                uf.merge(i, j);
    std::vector<int64_t> sizes(n, 0);
    int64_t largest = 0;
    for (size_t i = 0; i < n; ++i)
        largest = std::max(largest, ++sizes[uf.find(i)]);
    return ceilDiv(largest, ports);
}

} // namespace

int64_t
memoryPortII(Operation *scope, const std::vector<Value *> &band_ivs)
{
    int64_t ii = 1;
    auto accesses = collectAccesses(scope, band_ivs);
    for (auto &[memref, group] : groupByMemRef(accesses)) {
        Type t = memref->type();
        if (!t.isMemRef())
            continue;
        PartitionPlan plan = decodePartitionMap(t.layout(), t.shape());
        MemKind kind = t.memorySpace();

        std::vector<const MemAccess *> reads;
        std::vector<const MemAccess *> writes;
        for (const MemAccess &access : group)
            (access.isWrite ? writes : reads).push_back(&access);
        reads = dedupeReads(reads);

        if (kind == MemKind::BRAM_S2P || kind == MemKind::DRAM) {
            // Independent read and write ports.
            ii = std::max(ii, groupPressure(reads, plan, t.shape(),
                                            memReadPorts(kind)));
            ii = std::max(ii, groupPressure(writes, plan, t.shape(),
                                            memWritePorts(kind)));
        } else {
            // Shared ports (1P: one, T2P: two).
            std::vector<const MemAccess *> all = reads;
            all.insert(all.end(), writes.begin(), writes.end());
            int ports = kind == MemKind::BRAM_T2P ? 2 : 1;
            ii = std::max(ii, groupPressure(all, plan, t.shape(), ports));
        }
    }
    return ii;
}

int64_t
recurrencePathLatency(Operation *read, Operation *store)
{
    // Longest def-use path (in cycles) from the read to the store.
    std::map<Operation *, int64_t> memo;
    std::function<int64_t(Operation *)> longest =
        [&](Operation *op) -> int64_t {
        if (op == store)
            return opProfile(op).latency;
        auto it = memo.find(op);
        if (it != memo.end())
            return it->second;
        memo[op] = 0; // Cycle guard.
        int64_t best = 0;
        for (Value *result : op->results()) {
            for (Operation *user : result->users()) {
                int64_t path = longest(user);
                if (path > 0)
                    best = std::max(best, path);
            }
        }
        int64_t total = best > 0 ? best + opProfile(op).latency : 0;
        memo[op] = total;
        return total;
    };
    if (read == store)
        return opProfile(store).latency + 1;
    return longest(read);
}

QoREstimator::BlockEstimate
QoREstimator::estimateBlock(Block *block, EstimateContext &ctx)
{
    BlockEstimate result;
    std::map<Operation *, int64_t> finish;
    // Conservative memory ordering state.
    std::map<Value *, std::vector<Operation *>> last_accesses;
    std::map<Value *, Operation *> last_write;

    for (auto &op_ptr : block->ops()) {
        Operation *op = op_ptr.get();
        int64_t start = 0;
        // Define-use dependencies within the block (values defined in
        // enclosing blocks are ready at cycle 0).
        std::function<void(Operation *)> scanOperands =
            [&](Operation *nested) {
                for (Value *operand : nested->operands()) {
                    Operation *def =
                        operand ? operand->definingOp() : nullptr;
                    if (def && finish.count(def))
                        start = std::max(start, finish[def]);
                }
            };
        op->walk(scanOperands);

        // Memory dependencies: a write waits for all prior accesses of the
        // memref; any access waits for the last prior write.
        std::vector<std::pair<Value *, bool>> touched;
        op->walk([&](Operation *nested) {
            if (isMemoryAccess(nested))
                touched.push_back(
                    {accessedMemRef(nested), isMemoryWrite(nested)});
        });
        for (auto [memref, is_write] : touched) {
            if (auto it = last_write.find(memref); it != last_write.end())
                start = std::max(start, finish[it->second]);
            if (is_write)
                for (Operation *prior : last_accesses[memref])
                    start = std::max(start, finish[prior]);
        }

        int64_t latency = opLatency(op, ctx);
        if (latency < 0) {
            result.feasible = false;
            latency = 1;
        }
        finish[op] = start + latency;
        result.latency = std::max(result.latency, finish[op]);

        for (auto [memref, is_write] : touched) {
            last_accesses[memref].push_back(op);
            if (is_write)
                last_write[memref] = op;
        }
    }
    return result;
}

int64_t
QoREstimator::opLatency(Operation *op, EstimateContext &ctx)
{
    if (op->is(ops::AffineFor) && op->parentOp() &&
        op->parentOp()->is(ops::Func)) {
        // Top-level band: route through the per-band core so the latency
        // walk and the resource walk share one (possibly cached) band
        // computation.
        const BandEstimate &band = estimateBand(op, ctx);
        return band.feasible ? band.latency : -1;
    }
    if (op->is(ops::AffineFor) || op->is(ops::ScfFor)) {
        LoopEstimate est = estimateLoop(op, ctx);
        return est.feasible ? est.latency : -1;
    }
    if (op->is(ops::AffineIf) || op->is(ops::ScfIf)) {
        int64_t latency = 0;
        bool feasible = true;
        for (unsigned i = 0; i < op->numRegions(); ++i) {
            if (op->region(i).empty())
                continue;
            BlockEstimate est = estimateBlock(&op->region(i).front(), ctx);
            latency = std::max(latency, est.latency);
            feasible &= est.feasible;
        }
        return feasible ? latency + 1 : -1;
    }
    if (op->is(ops::Call)) {
        Operation *callee = lookupFunc(module_, op->attr(kCallee)
                                                    .getString());
        if (!callee)
            return 1;
        QoRResult est = calleeEstimate(callee, ctx);
        return est.feasible ? est.latency + 1 : -1;
    }
    if (op->is(ops::MemCopy)) {
        Value *src = op->operand(0);
        return src->type().isMemRef() ? src->type().numElements() : 1;
    }
    return opProfile(op).latency;
}

int64_t
QoREstimator::minLoopII(const std::vector<Operation *> &band,
                        Operation *pipelined)
{
    int64_t ii = 1;
    for (const Recurrence &rec : findRecurrences(band)) {
        int64_t path = recurrencePathLatency(rec.read, rec.store);
        if (path == 0)
            path = opProfile(rec.store).latency + 1;
        ii = std::max(ii, ceilDiv(path, std::max<int64_t>(
                                            1, rec.flatDistance)));
    }
    ii = std::max(ii, memoryPortII(pipelined, bandIVs(band)));
    return ii;
}

QoREstimator::LoopEstimate
QoREstimator::estimateLoop(Operation *loop, EstimateContext &ctx)
{
    LoopEstimate result;
    if (loop->is(ops::ScfFor)) {
        // Unraised loop: unknown trip count.
        result.feasible = false;
        result.latency = 1;
        result.interval = 1;
        return result;
    }

    // Descend through a flattened perfect chain to the pipelined leaf.
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
    LoopDirective leaf_directive = getLoopDirective(leaf);

    if (leaf_directive.pipeline) {
        int64_t flat_trip = 1;
        for (Operation *member : chain) {
            auto trip = getTripCount(AffineForOp(member));
            if (!trip) {
                result.feasible = false;
                trip = 1;
            }
            flat_trip *= *trip;
        }
        BlockEstimate body = estimateBlock(AffineForOp(leaf).body(), ctx);
        result.feasible &= body.feasible;
        int64_t ii =
            std::max(leaf_directive.targetII, minLoopII(chain, leaf));
        // depth + II * (trip - 1), plus small pipeline control overhead.
        result.latency = body.latency + ii * (flat_trip - 1) + 2;
        result.interval = ii * flat_trip;
        return result;
    }

    // Sequential loop: nested structure handled by block recursion.
    AffineForOp for_op(loop);
    auto trip = getTripCount(for_op);
    if (!trip) {
        result.feasible = false;
        trip = 1;
    }
    BlockEstimate body = estimateBlock(for_op.body(), ctx);
    result.feasible &= body.feasible;
    result.latency = *trip * (body.latency + 1) + 2;
    result.interval = result.latency;
    return result;
}

void
QoREstimator::accountCompute(Operation *scope, BandEstimate &out)
{
    // Pipelined leaf loops inside scope share operators across II
    // cycles: instances = ceil(count / II).
    auto countsIn = [&](Operation *leaf) {
        std::map<std::string, int64_t> counts;
        leaf->walk([&](Operation *op) {
            if (op != leaf && isComputeOp(op)) {
                ++counts[op->name()];
                out.profiles.emplace(op->name(), opProfile(op));
            }
        });
        return counts;
    };

    std::vector<Operation *> pipelined;
    scope->walk([&](Operation *op) {
        if (op->is(ops::AffineFor) && getLoopDirective(op).pipeline)
            pipelined.push_back(op);
    });
    for (Operation *leaf : pipelined) {
        // Rebuild the flattened chain for the II.
        std::vector<Operation *> chain = {leaf};
        for (Operation *parent = leaf->parentOp();
             isa(parent, ops::AffineFor) &&
             getLoopDirective(parent).flatten;
             parent = parent->parentOp())
            chain.insert(chain.begin(), parent);
        int64_t ii = std::max(getLoopDirective(leaf).targetII,
                              minLoopII(chain, leaf));
        for (const auto &[kind, count] : countsIn(leaf)) {
            const OpProfile &profile = out.profiles[kind];
            int64_t instances = ceilDiv(count, ii);
            out.pipelinedCompute.dsp += instances * profile.dsp;
            out.pipelinedCompute.lut += instances * profile.lut;
        }
    }

    // Remaining sequential compute ops: counts only — instance sharing
    // for these spans all bands and happens in funcResources.
    scope->walk([&](Operation *op) {
        if (!isComputeOp(op))
            return;
        for (Operation *p = op->parentOp(); p; p = p->parentOp())
            if (p->is(ops::AffineFor) && getLoopDirective(p).pipeline)
                return; // Counted above.
        ++out.sequentialOps[op->name()];
        out.profiles.emplace(op->name(), opProfile(op));
    });

    // Control logic counts.
    scope->walk([&](Operation *op) {
        out.loops += isLoop(op) ? 1 : 0;
        out.calls += op->is(ops::Call) ? 1 : 0;
    });
}

const BandEstimate &
QoREstimator::estimateBand(Operation *band_root, EstimateContext &ctx)
{
    auto it = ctx.bands.find(band_root);
    if (it != ctx.bands.end())
        return it->second;

    BandEstimate band;
    LoopEstimate loop = estimateLoop(band_root, ctx);
    band.latency = loop.latency;
    band.interval = loop.interval;
    band.feasible = loop.feasible;
    std::vector<Operation *> nest = getLoopNest(band_root);
    band.memPortII = memoryPortII(band_root, bandIVs(nest));
    accountCompute(band_root, band);
    return ctx.bands.emplace(band_root, std::move(band)).first->second;
}

void
BandResourceMerge::add(const BandEstimate &band)
{
    usage_ += band.pipelinedCompute;
    for (const auto &[kind, count] : band.sequentialOps)
        rest_[kind] += count;
    for (const auto &[kind, profile] : band.profiles)
        profiles_.emplace(kind, profile);
    loops_ += band.loops;
    calls_ += band.calls;
}

ResourceUsage
BandResourceMerge::finish(bool func_pipelined, int64_t target_ii) const
{
    ResourceUsage usage = usage_;
    // Sequential ops share one instance per kind ACROSS bands (or
    // ceil(count / targetII) instances under function pipelining).
    for (const auto &[kind, count] : rest_) {
        auto it = profiles_.find(kind);
        const OpProfile profile =
            it != profiles_.end() ? it->second : OpProfile{};
        int64_t instances =
            func_pipelined ? ceilDiv(count, target_ii) : 1;
        usage.dsp += instances * profile.dsp;
        usage.lut += instances * profile.lut;
    }
    // Control logic overheads.
    usage.lut += 200 + 50 * loops_ + 100 * calls_;
    return usage;
}

ResourceUsage
QoREstimator::funcResources(Operation *func, EstimateContext &ctx)
{
    ResourceUsage usage;
    FuncDirective fd = getFuncDirective(func);

    // Memories: local allocations only. Interface arrays of the top
    // function are external ports in Vivado HLS (the testbench owns the
    // storage), so they do not consume on-chip memory.
    std::vector<Type> memory_types;
    func->walk([&](Operation *op) {
        if (op->is(ops::Alloc))
            memory_types.push_back(op->result(0)->type());
    });
    for (const Type &t : memory_types) {
        ResourceUsage mem = memrefResource(t);
        if (fd.dataflow) {
            // Dataflow channels are double buffered (paper Fig. 4):
            // ping-pong buffering duplicates the storage (BRAM banks,
            // memory bits), not the LUT fabric around it.
            mem.bram18k *= 2;
            mem.memoryBits *= 2;
        }
        usage += mem;
    }

    // Compute resources, composed from per-band accounts (served from
    // the band cache when warm) plus a direct account of the non-band
    // glue ops, merged in body order so per-kind profile selection is
    // deterministic. The merge itself (pipelined contributions final per
    // band, sequential ops shared across bands, control-logic overhead)
    // lives in BandResourceMerge so the incremental fast path composes
    // with the identical arithmetic.
    BandResourceMerge merge;
    for (auto &op : funcBody(func)->ops()) {
        if (op->is(ops::AffineFor)) {
            merge.add(estimateBand(op.get(), ctx));
        } else {
            BandEstimate glue;
            accountCompute(op.get(), glue);
            merge.add(glue);
        }
    }
    usage += merge.finish(fd.pipeline, fd.targetII);

    // Sub-function instances (one hardware module per call site).
    func->walk([&](Operation *op) {
        if (!op->is(ops::Call))
            return;
        Operation *callee =
            lookupFunc(module_, op->attr(kCallee).getString());
        if (callee)
            usage += calleeEstimate(callee, ctx).resources;
    });
    return usage;
}

std::vector<Operation *>
collectDistinctCallees(Operation *func, Operation *module)
{
    std::vector<Operation *> callees;
    std::set<Operation *> seen;
    func->walk([&](Operation *op) {
        if (!op->is(ops::Call))
            return;
        Operation *callee =
            lookupFunc(module, op->attr(kCallee).getString());
        if (callee && seen.insert(callee).second)
            callees.push_back(callee);
    });
    return callees;
}

void
QoREstimator::ensureDigests(Operation *func)
{
    if (!shared_ || digests_.digest.count(func))
        return;
    // Digest only func's reachable set: a multi-kernel module clone
    // should not pay for serializing unrelated kernels on every
    // evaluated point.
    addFuncEstimateDigests(func, module_, digests_);
}

std::string
QoREstimator::sharedKeyOf(Operation *func) const
{
    if (!shared_ || digests_.cyclic.count(func))
        return {};
    auto it = digests_.digest.find(func);
    if (it == digests_.digest.end())
        return {}; // Function added after digesting: skip the cache.
    return EstimateCache::keyFor(funcName(func), it->second);
}

QoRResult
QoREstimator::calleeEstimate(Operation *callee, EstimateContext &ctx)
{
    auto it = ctx.memo.find(callee);
    if (it != ctx.memo.end())
        return it->second;
    if (ctx.active.count(callee)) {
        // Call cycle: not analyzable. The placeholder's latency is a
        // dummy — callers key off feasible=false and must propagate
        // infeasibility (the evaluator maps it to kInfeasibleQoR), never
        // trust the placeholder numbers.
        return QoRResult{1, 1, {}, false};
    }
    ctx.active.insert(callee);
    QoRResult result = estimateFuncImpl(callee, ctx);
    ctx.active.erase(callee);
    ctx.memo.emplace(callee, result);
    return result;
}

void
QoREstimator::prefetchCallees(Operation *func, EstimateContext &ctx)
{
    if (!pool_ || pool_->size() <= 1)
        return;
    std::vector<Operation *> callees;
    for (Operation *callee : collectDistinctCallees(func, module_))
        if (!ctx.memo.count(callee) && !ctx.active.count(callee))
            callees.push_back(callee);
    if (callees.size() < 2)
        return; // Nothing to overlap.

    // Estimate the callees concurrently, each on its own context seeded
    // with the parent call path (so a cycle through the parent is still
    // caught) and the parent's completed results (so shared transitive
    // sub-callees are not re-walked per sibling). The IR is read-only
    // during estimation and the shared cache is thread-safe;
    // per-function estimation is pure, so the joined results — merged in
    // callee order, first writer wins — are bit-identical to the
    // sequential path.
    std::vector<EstimateContext> children(callees.size());
    std::vector<QoRResult> results(callees.size());
    for (size_t i = 0; i < callees.size(); ++i) {
        children[i].active = ctx.active;
        children[i].active.insert(callees[i]);
        children[i].memo = ctx.memo;
    }
    pool_->parallelFor(callees.size(), [&](size_t i) {
        results[i] = estimateFuncImpl(callees[i], children[i]);
    });
    for (size_t i = 0; i < callees.size(); ++i) {
        ctx.memo.emplace(callees[i], results[i]);
        for (const auto &[func_done, result_done] : children[i].memo)
            ctx.memo.emplace(func_done, result_done);
    }
}

QoRResult
QoREstimator::estimateFuncImpl(Operation *func, EstimateContext &ctx)
{
    assert(isa(func, ops::Func));

    std::string key = sharedKeyOf(func);
    if (!key.empty()) {
        if (auto cached = shared_->lookup(key))
            return *cached;
    }

    // Fan the not-yet-known callees out before the sequential
    // latency/interval composition walks the body (the walk then joins
    // on memoized results).
    prefetchCallees(func, ctx);

    Block *body = funcBody(func);
    FuncDirective fd = getFuncDirective(func);
    QoRResult result;

    if (fd.dataflow) {
        // Stages execute overlapped across frames: the interval is the
        // slowest stage; a single frame still pays the summed latency.
        int64_t total = 0;
        int64_t max_stage = 1;
        bool feasible = true;
        for (auto &op : body->ops()) {
            int64_t latency = opLatency(op.get(), ctx);
            if (latency < 0) {
                feasible = false;
                latency = 1;
            }
            if (op->is(ops::Call) || isLoop(op.get()))
                max_stage = std::max(max_stage, latency);
            total += latency;
        }
        result.latency = total + 2;
        result.interval = max_stage;
        result.feasible = feasible;
    } else if (fd.pipeline) {
        BlockEstimate est = estimateBlock(body, ctx);
        result.latency = est.latency + 2;
        result.interval =
            std::max(fd.targetII, memoryPortII(func, {}));
        result.feasible = est.feasible;
    } else {
        BlockEstimate est = estimateBlock(body, ctx);
        result.latency = est.latency + 2;
        result.interval = result.latency;
        result.feasible = est.feasible;
    }

    result.resources = funcResources(func, ctx);
    if (!key.empty())
        shared_->insert(key, result);
    return result;
}

QoRResult
QoREstimator::estimateFunc(Operation *func)
{
    auto it = cache_.find(func);
    if (it != cache_.end())
        return it->second;

    ensureDigests(func);
    EstimateContext ctx;
    ctx.active.insert(func);
    QoRResult result = estimateFuncImpl(func, ctx);

    // Expose this run's band estimates (empty when the function tier hit
    // — the walk that fills them was skipped entirely).
    last_bands_ = std::move(ctx.bands);

    cache_.emplace(func, result);
    // Adopt the callee results completed along the way.
    for (const auto &[callee, callee_result] : ctx.memo)
        cache_.emplace(callee, callee_result);
    return result;
}

QoRResult
QoREstimator::estimateModule()
{
    Operation *top = getTopFunc(module_);
    assert(top && "module has no functions");
    return estimateFunc(top);
}

namespace {

PartitionPlan
trivialPlan(unsigned rank)
{
    PartitionPlan plan;
    plan.kinds.assign(rank, PartitionKind::None);
    plan.factors.assign(rank, 1);
    return plan;
}

/** What the slow path's applied-then-decoded plan looks like: trivial
 * merges are never applied (the pristine layout — empty on fast-path
 * workloads — decodes trivial), non-trivial ones round-trip through the
 * layout-map codec, which e.g. renormalizes block factors. */
PartitionPlan
canonicalPlan(const PartitionPlan &plan, const std::vector<int64_t> &shape)
{
    return decodePartitionMap(buildPartitionMap(plan, shape), shape);
}

} // namespace

std::optional<QoRResult>
composeScheduledQoR(const ScheduledFunction &function)
{
    const std::vector<ScheduledBand> &bands = function.bands;

    // The function's owned local buffers and their phase-1 kept/dead
    // verdicts. Entries carry the FINAL access pattern of digest-equal
    // bands, so any disagreement with the prediction (an entry touching
    // a buffer cleanup should have erased, or no entry reading a buffer
    // predicted kept — the creating points' cleanup behaved differently)
    // means the composition cannot be trusted: fall back.
    std::map<Value *, bool> owned_kept;
    for (const ScheduledFunction::OwnedAlloc &alloc : function.allocs)
        owned_kept.emplace(alloc.memref, alloc.kept);
    std::set<Value *> read_buffers;

    // Re-derive the function-wide partition plans from the entries'
    // per-band contributions — the exact analyzeFunc/mergedPlans rule:
    // bands in body order, strictly-greater factor wins a dim, the first
    // writer keeps the kind on ties. The flat scope contributes nothing
    // on fast-path-eligible functions (no accesses outside bands).
    std::map<Value *, PartitionPlan> merged;
    for (const ScheduledBand &band : bands) {
        if (!band.entry || !band.externals)
            return std::nullopt;
        for (const auto &m : band.entry->memrefs) {
            if (m.extId >= band.externals->size())
                return std::nullopt;
            Value *v = (*band.externals)[m.extId];
            if (!v || !v->type().isMemRef())
                return std::nullopt;
            if (auto it = owned_kept.find(v); it != owned_kept.end()) {
                if (!it->second)
                    return std::nullopt; // Entry touches an erased buffer.
                if (m.read)
                    read_buffers.insert(v);
            }
            unsigned rank = v->type().rank();
            if (m.relevant.size() != rank ||
                m.contribution.factors.size() != rank ||
                m.assumed.factors.size() != rank)
                return std::nullopt;
            auto [it, inserted] = merged.try_emplace(v, PartitionPlan());
            PartitionPlan &plan = it->second;
            if (inserted)
                plan = trivialPlan(rank);
            for (unsigned d = 0; d < rank; ++d) {
                if (m.contribution.factors[d] > plan.factors[d]) {
                    plan.factors[d] = m.contribution.factors[d];
                    plan.kinds[d] = m.contribution.kinds[d];
                }
            }
        }
    }
    for (const auto &[buffer, kept] : owned_kept)
        if (kept && !read_buffers.count(buffer))
            return std::nullopt; // No entry reads a kept buffer.

    // Validate: an entry's estimate transfers only if the layout it was
    // computed under agrees with the would-be merged layout on every dim
    // whose partitioning the band's estimate actually reads.
    for (const ScheduledBand &band : bands) {
        for (const auto &m : band.entry->memrefs) {
            Value *v = (*band.externals)[m.extId];
            PartitionPlan final_plan =
                canonicalPlan(merged.at(v), v->type().shape());
            for (unsigned d = 0; d < m.relevant.size(); ++d) {
                if (!m.relevant[d])
                    continue;
                if (final_plan.kinds[d] != m.assumed.kinds[d] ||
                    final_plan.factors[d] != m.assumed.factors[d])
                    return std::nullopt;
            }
        }
    }

    QoRResult result;
    bool feasible = true;
    if (function.dataflow) {
        // Replay estimateFuncImpl's dataflow composition: stages execute
        // overlapped across frames — the interval is the slowest stage,
        // a single frame pays the summed latency. Allocs and constants
        // in the body are latency-free, so only the bands contribute.
        int64_t total = 0;
        int64_t max_stage = 1;
        for (const ScheduledBand &band : bands) {
            int64_t latency = band.entry->estimate.latency;
            if (!band.entry->estimate.feasible) {
                feasible = false;
                latency = 1;
            }
            total += latency;
            max_stage = std::max(max_stage, latency);
        }
        result.latency = total + 2;
        result.interval = max_stage;
        result.feasible = feasible;
    } else {
        // Replay estimateBlock over the function body: constants and
        // allocs finish at cycle 0, so only the memory-dependence chain
        // between bands (a write waits for all prior accesses of the
        // memref; any access waits for the last prior write) schedules
        // them.
        int64_t max_finish = 0;
        std::map<Value *, int64_t> last_write;
        std::map<Value *, std::vector<int64_t>> accesses;
        for (const ScheduledBand &band : bands) {
            int64_t start = 0;
            for (const auto &m : band.entry->memrefs) {
                if (!m.read && !m.write)
                    continue;
                Value *v = (*band.externals)[m.extId];
                if (auto it = last_write.find(v); it != last_write.end())
                    start = std::max(start, it->second);
                if (m.write)
                    for (int64_t finish : accesses[v])
                        start = std::max(start, finish);
            }
            int64_t latency = band.entry->estimate.latency;
            if (!band.entry->estimate.feasible) {
                // opLatency's infeasible marker: latency 1 in the
                // schedule, feasibility propagated.
                feasible = false;
                latency = 1;
            }
            int64_t finish = start + latency;
            max_finish = std::max(max_finish, finish);
            for (const auto &m : band.entry->memrefs) {
                if (!m.read && !m.write)
                    continue;
                Value *v = (*band.externals)[m.extId];
                accesses[v].push_back(finish);
                if (m.write)
                    last_write[v] = finish;
            }
        }
        result.latency = max_finish + 2;
        result.interval = result.latency;
        result.feasible = feasible;
    }

    // The operator-sharing merge — the identical arithmetic
    // funcResources runs, minus the callee terms an eligible function
    // cannot have.
    BandResourceMerge resources;
    for (const ScheduledBand &band : bands)
        resources.add(band.entry->estimate);
    result.resources = resources.finish(false, 1);

    // The kept-buffer memory account funcResources reads off the final
    // allocs: each surviving buffer under the re-derived merged plan
    // (the exact type applyArrayPartition would leave — non-trivial
    // plans round-trip through the layout codec, trivial ones leave the
    // phase-1 type untouched), double buffered under a dataflow top
    // (ping-pong channels duplicate storage, not LUT fabric).
    for (const ScheduledFunction::OwnedAlloc &alloc : function.allocs) {
        if (!alloc.kept)
            continue;
        Type type = alloc.memref->type();
        if (auto it = merged.find(alloc.memref);
            it != merged.end() && !it->second.isTrivial())
            type = type.withLayout(
                buildPartitionMap(it->second, type.shape()));
        ResourceUsage mem = memrefResource(type);
        if (function.dataflow) {
            mem.bram18k *= 2;
            mem.memoryBits *= 2;
        }
        result.resources += mem;
    }
    return result;
}

std::optional<BandScheduleEntry>
buildBandScheduleEntry(Operation *band_root, const BandEstimate &estimate,
                       const std::vector<Value *> &externals)
{
    BandScheduleEntry entry;
    entry.estimate = estimate;

    // Touched memrefs exactly as estimateBlock's function-body walk sees
    // them (read/write presence drives the dependence replay).
    std::map<Value *, std::pair<bool, bool>> touched;
    band_root->walk([&](Operation *op) {
        if (!isMemoryAccess(op))
            return;
        auto &flags = touched[accessedMemRef(op)];
        (isMemoryWrite(op) ? flags.second : flags.first) = true;
    });

    // This band's partition contribution, exactly as analyzeFunc
    // computes it (computePartitionPlan reads subscripts and shape only,
    // so running it post-partition reproduces the pre-partition plan).
    auto nest = getLoopNest(band_root);
    auto band_accesses = collectAccesses(band_root, bandIVs(nest));
    std::map<Value *, PartitionPlan> contribution;
    for (auto &[memref, group] : groupByMemRef(band_accesses))
        contribution[memref] = computePartitionPlan(memref, group);

    PartitionRelevance relevance = partitionRelevantDims(band_root);

    std::set<Value *> memrefs;
    for (const auto &[memref, flags] : touched)
        memrefs.insert(memref);
    for (const auto &[memref, plan] : contribution)
        memrefs.insert(memref);

    for (Value *memref : memrefs) {
        if (!memref->type().isMemRef())
            return std::nullopt;
        auto position = std::find(externals.begin(), externals.end(),
                                  memref);
        if (position == externals.end())
            return std::nullopt; // Not replayable from the phase-1 key.
        unsigned rank = memref->type().rank();

        BandScheduleEntry::MemrefInfo info;
        info.extId =
            static_cast<unsigned>(position - externals.begin());
        if (auto it = touched.find(memref); it != touched.end()) {
            info.read = it->second.first;
            info.write = it->second.second;
        }
        if (auto it = relevance.find(memref);
            it != relevance.end() && it->second.size() == rank)
            info.relevant = it->second;
        else
            info.relevant.assign(rank, false);
        if (auto it = contribution.find(memref);
            it != contribution.end() &&
            it->second.factors.size() == rank)
            info.contribution = it->second;
        else
            info.contribution = trivialPlan(rank);
        info.assumed = decodePartitionMap(memref->type().layout(),
                                          memref->type().shape());
        entry.memrefs.push_back(std::move(info));
    }
    return entry;
}

int64_t
dynamicOpCount(Operation *func, Operation *module)
{
    std::function<int64_t(Block *)> countBlock = [&](Block *block) {
        int64_t total = 0;
        for (auto &op : block->ops()) {
            if (isComputeOp(op.get())) {
                ++total;
            } else if (op->is(ops::AffineFor)) {
                AffineForOp for_op(op.get());
                int64_t trip = getTripCount(for_op).value_or(1);
                total += trip * countBlock(for_op.body());
            } else if (op->is(ops::AffineIf) || op->is(ops::ScfIf)) {
                int64_t branch = 0;
                for (unsigned i = 0; i < op->numRegions(); ++i)
                    if (!op->region(i).empty())
                        branch = std::max(
                            branch, countBlock(&op->region(i).front()));
                total += branch;
            } else if (op->is(ops::Call) && module) {
                Operation *callee =
                    lookupFunc(module, op->attr(kCallee).getString());
                if (callee)
                    total += dynamicOpCount(callee, module);
            }
        }
        return total;
    };
    return countBlock(funcBody(func));
}

} // namespace scalehls
