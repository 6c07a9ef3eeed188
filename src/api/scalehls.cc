#include "api/scalehls.h"

#include <limits>
#include <set>

#include "analysis/loop_analysis.h"
#include "model/dnn_dse.h"
#include "support/thread_pool.h"
#include "support/utils.h"

namespace scalehls {

namespace {

constexpr size_t kNoIndex = static_cast<size_t>(-1);

/** The kernel plus its transitive callee closure, cloned into a
 * standalone module with the kernel marked top: func.call callees stay
 * resolvable and the estimator scores them, but sibling kernels (and
 * their subtrees) are never copied. DesignSpace clones the sub-module
 * once more per materialized point, so shrinking it here shrinks every
 * per-point clone of the exploration. @p module is never mutated. */
std::unique_ptr<Operation>
buildReducedClone(Operation *module, Operation *kernel)
{
    std::set<Operation *> needed;
    std::vector<Operation *> worklist = {kernel};
    while (!worklist.empty()) {
        Operation *func = worklist.back();
        worklist.pop_back();
        if (!needed.insert(func).second)
            continue;
        for (Operation *callee : collectDistinctCallees(func, module))
            worklist.push_back(callee);
    }
    auto sub = createModule();
    Block &sub_body = sub->region(0).front();
    for (auto &op : module->region(0).front().ops()) {
        if (!op->is(ops::Func) || !needed.count(op.get()))
            continue;
        Operation *copy = sub_body.pushBack(op->clone());
        setTopFunc(copy, op.get() == kernel);
    }
    return sub;
}

/** Split the worker budget between function-level concurrency (outer)
 * and point-level concurrency within each exploration: rewrites
 * @p options.numThreads to the inner share and returns the outer pool
 * size. */
unsigned
splitThreads(DSEOptions &options, size_t num_kernels)
{
    unsigned total = options.numThreads == 0 ? defaultThreadCount()
                                             : options.numThreads;
    total = std::max(1u, total);
    unsigned outer = static_cast<unsigned>(
        std::min<size_t>(total, std::max<size_t>(1, num_kernels)));
    options.numThreads = std::max(1u, total / outer);
    return outer;
}

/** One kernel's live exploration: the reduced clone, the design space
 * and engine built on it — kept alive so ANY frontier point can later be
 * re-materialized cheaply through the still-warm plan/schedule caches
 * (DSEEngine::materializeEvaluated) — plus the frontier itself, raw and
 * retained. This is the shared per-kernel stage of optimizeFunctions and
 * optimizeModel. */
struct KernelExploration
{
    std::unique_ptr<Operation> sub;
    std::unique_ptr<DesignSpace> space;
    std::unique_ptr<DSEEngine> engine;
    /** explore() result, ascending latency. */
    std::vector<EvaluatedPoint> frontier;
    /** The same frontier with decoded schedules and full QoR. */
    std::vector<FrontierPoint> retained;
};

KernelExploration
exploreKernel(Operation *module, Operation *kernel,
              const ResourceBudget &retain_budget,
              const DesignSpaceOptions &space_options,
              const DSEOptions &options)
{
    KernelExploration exploration;
    exploration.sub = buildReducedClone(module, kernel);
    exploration.space = std::make_unique<DesignSpace>(
        exploration.sub.get(), space_options);
    exploration.engine =
        std::make_unique<DSEEngine>(*exploration.space, options);
    exploration.engine->setFinalizeBudget(retain_budget);
    exploration.frontier = exploration.engine->explore();
    exploration.retained =
        retainFrontier(*exploration.space, exploration.frontier);
    return exploration;
}

} // namespace

Compiler::Compiler(std::unique_ptr<Operation> module)
    : module_(std::move(module))
{}

Compiler
Compiler::fromC(const std::string &source, const std::string &top_func)
{
    Compiler compiler(parseCToModule(source, top_func));
    compiler.timed([&] { raiseScfToAffine(compiler.module()); });
    return compiler;
}

Compiler &
Compiler::applyGraphOpt(int level)
{
    level = std::clamp(level, 1, 7);
    timed([&] {
        bool insert_copy = level >= 4;
        std::vector<Operation *> funcs;
        for (auto &op : module_->region(0).front().ops())
            if (op->is(ops::Func))
                funcs.push_back(op.get());
        for (Operation *func : funcs) {
            if (!applyLegalizeDataflow(func, insert_copy))
                continue;
            // Count stages, then choose the granularity: level n targets
            // min(stages, 2^(n-1)) dataflow stages.
            int64_t num_stages = 0;
            for (auto &op : funcBody(func)->ops()) {
                Attribute stage = op->attr(kDataflowStage);
                if (stage.is<int64_t>())
                    num_stages =
                        std::max(num_stages, stage.getInt() + 1);
            }
            int64_t target =
                std::min<int64_t>(num_stages, int64_t(1) << (level - 1));
            int64_t min_gran = ceilDiv(num_stages, std::max<int64_t>(
                                                       1, target));
            if (!applySplitFunction(module_.get(), func, min_gran)) {
                // A single stage has no inter-stage overlap: drop the
                // dataflow directive so the QoR reflects reality.
                FuncDirective fd = getFuncDirective(func);
                fd.dataflow = false;
                setFuncDirective(func, fd);
            }
        }
    });
    return *this;
}

Compiler &
Compiler::lowerToLoops()
{
    timed([&] { lowerGraphToAffine(module_.get()); });
    return *this;
}

Compiler &
Compiler::applyLoopOpt(int level)
{
    level = std::clamp(level, 1, 7);
    int64_t factor = int64_t(1) << (level - 1);
    timed([&] {
        module_->walk([&](Operation *op) {
            if (!op->is(ops::Func))
                return;
            for (auto &band_loops : getLoopBands(op)) {
                std::vector<Operation *> band = band_loops;
                // Push recurrence-carrying (reduction) loops outward so
                // the pipelined II is not bound by the accumulator.
                applyLoopOrderOpt(band);
                band = getLoopNest(band.front());
                // Distribute the unroll factor as tile sizes, preferring
                // dims that appear in store subscripts (output-parallel
                // dims): unrolling reduction dims only serializes on the
                // accumulator's write port. Pipelining (the D step) fully
                // unrolls the generated point loops.
                std::vector<bool> parallel(band.size(), false);
                for (const MemAccess &access :
                     collectAccesses(band.front(), bandIVs(band))) {
                    if (!access.isWrite || !access.normalized)
                        continue;
                    for (unsigned level = 0; level < band.size(); ++level)
                        for (const auto &expr : access.indices)
                            if (expr.involvesDim(level))
                                parallel[level] = true;
                }
                std::vector<int64_t> sizes(band.size(), 1);
                int64_t remaining = factor;
                for (int pass = 0; pass < 2 && remaining > 1; ++pass) {
                    bool want_parallel = (pass == 0);
                    for (int i = static_cast<int>(band.size()) - 1;
                         i >= 0 && remaining > 1; --i) {
                        if (parallel[i] != want_parallel || sizes[i] > 1)
                            continue;
                        int64_t trip =
                            getTripCount(AffineForOp(band[i]))
                                .value_or(1);
                        sizes[i] = std::min(remaining, trip);
                        remaining = std::max<int64_t>(
                            1,
                            remaining / std::max<int64_t>(1, sizes[i]));
                    }
                }
                applyLoopTiling(band, sizes);
            }
        });
    });
    return *this;
}

Compiler &
Compiler::applyDirectiveOpt(int64_t target_ii)
{
    timed([&] {
        std::vector<Operation *> funcs;
        for (auto &op : module_->region(0).front().ops())
            if (op->is(ops::Func))
                funcs.push_back(op.get());
        for (Operation *func : funcs) {
            for (auto &band : getLoopBands(func)) {
                // Pipeline the innermost tile loop; intra-tile (point)
                // loops below it get fully unrolled by the legalization.
                Operation *target = band.back();
                for (auto it = band.rbegin(); it != band.rend(); ++it) {
                    if (!(*it)->attr(kPointLoop).is<bool>()) {
                        target = *it;
                        break;
                    }
                }
                applyLoopPipelining(target, target_ii);
            }
        }
    });
    applySimplifications();
    timed([&] {
        Operation *top = getTopFunc(module_.get());
        if (top)
            applyArrayPartition(top);
    });
    return *this;
}

Compiler &
Compiler::applySimplifications()
{
    timed([&] { applyCleanupPipeline(module_.get()); });
    return *this;
}

std::optional<DSEResult>
Compiler::optimize(const ExploreRequest &request)
{
    auto result =
        runDSE(module_.get(), request.budget, request.space, request.dse);
    if (result) {
        module_ = result->module->clone();
        opt_seconds_ += result->seconds;
    }
    return result;
}

std::vector<Compiler::FuncDSEResult>
Compiler::optimizeFunctions(const ExploreRequest &request)
{
    const ResourceBudget &budget = request.budget;
    const DesignSpaceOptions &space_options = request.space;
    const DSEOptions &options = request.dse;
    // The kernels: every function with at least one loop band.
    std::vector<Operation *> kernels;
    for (auto &op : module_->region(0).front().ops())
        if (op->is(ops::Func) && !getLoopBands(op.get()).empty())
            kernels.push_back(op.get());
    if (kernels.empty())
        return {};

    // Split the device budget evenly across kernels; each kernel's DSE
    // finalizes against its share.
    ResourceBudget share = budget;
    auto n = static_cast<int64_t>(kernels.size());
    share.dsp /= n;
    share.lut /= n;
    share.memoryBits /= n;

    // Function-level concurrency on top, point-level concurrency within
    // each exploration: split the worker budget between the two levels.
    DSEOptions inner_options = options;
    unsigned outer = splitThreads(inner_options, kernels.size());

    // One estimate cache spans every kernel's exploration: the per-point
    // module clones share all non-target functions verbatim (and often
    // the callee subtrees of the targets), so their content-keyed
    // estimates transfer across kernels and workers alike.
    EstimateCache shared_estimates;
    shared_estimates.setTierMaxEntries(inner_options.estimateCacheTierCaps);
    // Snapshot persistence follows cache ownership: when this call
    // creates the shared cache it loads/saves the snapshot ONCE here
    // (the per-kernel engines see sharedEstimates set and skip); when
    // the caller injected a cache, the caller persists it.
    bool owns_cache =
        !inner_options.sharedEstimates && inner_options.crossPointCache;
    if (!inner_options.sharedEstimates && inner_options.crossPointCache)
        inner_options.sharedEstimates = &shared_estimates;
    if (owns_cache && !inner_options.cacheLoadPath.empty())
        loadEstimateCacheLogged(shared_estimates,
                                inner_options.cacheLoadPath);

    std::vector<FuncDSEResult> results(kernels.size());
    std::vector<std::unique_ptr<Operation>> optimized(kernels.size());
    auto start = std::chrono::steady_clock::now();

    ThreadPool pool(outer);
    pool.parallelFor(kernels.size(), [&](size_t i) {
        // Each task explores a private reduced clone (the shared module_
        // is never touched), retains the frontier, then finalizes
        // against this kernel's even share of the budget.
        KernelExploration exploration = exploreKernel(
            module_.get(), kernels[i], share, space_options,
            inner_options);
        FuncDSEResult &out = results[i];
        out.func = funcName(kernels[i]);
        // A default QoRResult claims feasibility; failed kernels must
        // carry the infeasible sentinel instead.
        out.qor.feasible = false;
        out.qor.latency = kInfeasibleQoR;
        out.qor.interval = kInfeasibleQoR;
        out.frontier = exploration.retained;
        static_cast<DSEStats &>(out) = exploration.engine->stats();
        auto chosen = DSEEngine::finalize(exploration.frontier, share);
        if (!chosen)
            return;
        auto module = exploration.engine->materializeEvaluated(*chosen);
        if (!module)
            return;
        out.point = chosen->point;
        // On (release-build) re-estimation divergence, keep the QoR
        // consistent with the module actually spliced in.
        out.qor = exploration.engine->qorVerified()
                      ? chosen->qor
                      : exploration.engine->verifiedQoR();
        optimized[i] = std::move(module);
    });

    // Splice the winners back sequentially, in module function order, so
    // the resulting module is deterministic.
    Block &body = module_->region(0).front();
    for (size_t i = 0; i < kernels.size(); ++i) {
        if (!optimized[i])
            continue;
        Operation *new_func = getTopFunc(optimized[i].get());
        if (!new_func)
            continue;
        auto taken = optimized[i]->region(0).front().take(new_func);
        setTopFunc(taken.get(), isTopFunc(kernels[i]));
        body.insertBefore(kernels[i], std::move(taken));
        body.erase(kernels[i]);
    }
    opt_seconds_ += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    if (owns_cache && !inner_options.cacheSavePath.empty())
        saveEstimateCacheLogged(shared_estimates,
                                inner_options.cacheSavePath);
    return results;
}

std::optional<Compiler::ModelDSEResult>
Compiler::optimizeModel(const ExploreRequest &request)
{
    const ResourceBudget &budget = request.budget;
    const DesignSpaceOptions &space_options = request.space;
    const DSEOptions &options = request.dse;
    auto start = std::chrono::steady_clock::now();
    Operation *top = getTopFunc(module_.get());
    if (!top || !getFuncDirective(top).dataflow)
        return std::nullopt;
    std::vector<DNNStage> stages = collectDNNStages(module_.get());
    if (stages.empty())
        return std::nullopt;
    size_t n = stages.size();

    ModelDSEResult out;

    // One estimate cache spans the baseline estimation, every kernel
    // exploration and the final re-measurement, so the closing
    // estimateModule resolves mostly from content-keyed entries the
    // exploration already paid for.
    EstimateCache shared_estimates;
    shared_estimates.setTierMaxEntries(options.estimateCacheTierCaps);
    DSEOptions inner = options;
    // Same ownership rule as optimizeFunctions: load/save the snapshot
    // only for the cache this call created.
    bool owns_cache = !inner.sharedEstimates && inner.crossPointCache;
    if (!inner.sharedEstimates && inner.crossPointCache)
        inner.sharedEstimates = &shared_estimates;
    if (owns_cache && !inner.cacheLoadPath.empty())
        loadEstimateCacheLogged(shared_estimates, inner.cacheLoadPath);
    EstimateCache *shared = inner.sharedEstimates;

    unsigned total_threads = options.numThreads == 0
                                 ? defaultThreadCount()
                                 : options.numThreads;
    ThreadPool est_pool(std::max(1u, total_threads));

    // Baseline estimates of the whole module and of each stage callee.
    // The top's glue latency (the +2 epilogue plus any non-call body
    // ops) and its fixed resources (double-buffered channel buffers,
    // control logic) are derived by SUBTRACTION, so the composed
    // prediction mirrors the estimator's dataflow composition exactly
    // rather than approximating it.
    QoREstimator baseline(module_.get(), &est_pool, shared);
    QoRResult m0 = baseline.estimateModule();
    std::vector<QoRResult> base(n);
    int64_t glue = m0.latency;
    ResourceUsage fixed = m0.resources;
    for (size_t i = 0; i < n; ++i) {
        if (stages[i].callee)
            base[i] = baseline.estimateFunc(stages[i].callee);
        else
            base[i].feasible = false;
        if (!base[i].feasible) {
            base[i].latency = kInfeasibleQoR;
            base[i].interval = kInfeasibleQoR;
            continue; // Poisons the allocation below; glue is moot.
        }
        glue -= base[i].latency + 1; // The call-site overhead cycle.
        fixed.dsp -= base[i].resources.dsp;
        fixed.lut -= base[i].resources.lut;
        fixed.bram18k -= base[i].resources.bram18k;
        fixed.memoryBits -= base[i].resources.memoryBits;
    }
    glue = std::max<int64_t>(0, glue);

    // The per-kernel stage (shared with optimizeFunctions): explore
    // every kernel stage concurrently, retaining full frontiers. Module
    // retention is scoped to the WHOLE device budget — under global
    // allocation any design fitting the device could be chosen.
    std::vector<size_t> kernel_of_stage(n, kNoIndex);
    std::vector<Operation *> kernel_funcs;
    std::vector<size_t> stage_of_kernel;
    for (size_t i = 0; i < n; ++i) {
        if (!stages[i].kernel)
            continue;
        kernel_of_stage[i] = kernel_funcs.size();
        kernel_funcs.push_back(stages[i].callee);
        stage_of_kernel.push_back(i);
    }
    std::vector<KernelExploration> explorations(kernel_funcs.size());
    if (!kernel_funcs.empty()) {
        DSEOptions per_kernel = inner;
        unsigned outer = splitThreads(per_kernel, kernel_funcs.size());
        ThreadPool pool(outer);
        pool.parallelFor(kernel_funcs.size(), [&](size_t k) {
            explorations[k] = exploreKernel(module_.get(),
                                            kernel_funcs[k], budget,
                                            space_options, per_kernel);
        });
    }

    // Stage frontiers as seen from the top: candidate latencies carry
    // the +1 call overhead; fixed (non-kernel) stages get exactly their
    // baseline design.
    std::vector<StageFrontier> frontiers(n);
    for (size_t i = 0; i < n; ++i) {
        StageFrontier &frontier = frontiers[i];
        frontier.name =
            stages[i].callee ? funcName(stages[i].callee) : std::string();
        auto push = [&](const QoRResult &qor) {
            StageCandidate c;
            c.feasible = qor.feasible;
            c.latency = qor.feasible ? addQoRSaturating(qor.latency, 1)
                                     : kInfeasibleQoR;
            c.resources = qor.resources;
            frontier.candidates.push_back(c);
        };
        size_t k = kernel_of_stage[i];
        if (k != kNoIndex && !explorations[k].retained.empty()) {
            for (const FrontierPoint &fp : explorations[k].retained)
                push(fp.qor);
        } else {
            kernel_of_stage[i] = kNoIndex; // Keep the baseline design.
            push(base[i]);
        }
    }

    out.allocation = allocateGlobalBudget(frontiers, budget, fixed);
    out.uniform = allocateUniformSplit(frontiers, budget, fixed);

    out.stages.resize(n);
    for (size_t i = 0; i < n; ++i) {
        ModelStageResult &stage = out.stages[i];
        stage.func = frontiers[i].name;
        stage.kernel = kernel_of_stage[i] != kNoIndex;
        stage.qor = base[i];
        if (stage.kernel) {
            const KernelExploration &e =
                explorations[kernel_of_stage[i]];
            stage.frontier = e.retained;
            static_cast<DSEStats &>(stage) = e.engine->stats();
            out += stage;
        }
        if (out.allocation.feasible) {
            stage.chosen = out.allocation.choice[i];
            if (stage.kernel && stage.chosen < stage.frontier.size())
                stage.qor = stage.frontier[stage.chosen].qor;
        }
    }

    if (!out.allocation.feasible) {
        // No budget-feasible composition: poison the prediction and
        // leave the module untouched.
        out.composed.feasible = false;
        out.composed.latency = kInfeasibleQoR;
        out.composed.interval = kInfeasibleQoR;
        out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        opt_seconds_ += out.seconds;
        // Even an infeasible composition explored the kernels; the warm
        // entries are worth persisting for the next attempt.
        if (owns_cache && !inner.cacheSavePath.empty())
            saveEstimateCacheLogged(shared_estimates,
                                    inner.cacheSavePath);
        return out;
    }

    out.composed =
        composeDataflowQoR(frontiers, out.allocation.choice, glue, fixed);

    // Stitch the chosen frontier designs back into the model, replacing
    // each kernel stage function in place (deterministic module order:
    // stage_of_kernel is ascending).
    bool stage_qor_ok = true;
    Block &body = module_->region(0).front();
    for (size_t k = 0; k < kernel_funcs.size(); ++k) {
        size_t i = stage_of_kernel[k];
        if (kernel_of_stage[i] == kNoIndex)
            continue; // Demoted to its baseline design above.
        KernelExploration &e = explorations[k];
        size_t chosen = out.allocation.choice[i];
        auto optimized = e.engine->materializeEvaluated(
            e.frontier[chosen]);
        stage_qor_ok &= e.engine->qorVerified();
        if (!optimized) {
            stage_qor_ok = false;
            continue;
        }
        Operation *new_func = getTopFunc(optimized.get());
        if (!new_func) {
            stage_qor_ok = false;
            continue;
        }
        auto taken = optimized->region(0).front().take(new_func);
        // Stage functions are never the module top (the dataflow top
        // is); clear the sub-module's top marker before splicing.
        setTopFunc(taken.get(), false);
        body.insertBefore(stages[i].callee, std::move(taken));
        body.erase(stages[i].callee);
    }

    // Re-verify the composed module: the IR verifier at the -verify-each
    // level (L1 structural + L2 dialect), then the real estimator. The
    // measured QoR is authoritative — the composed prediction is only
    // trusted when it matches bit-identically.
    auto errors = verifyErrors(module_.get());
    QoREstimator measure(module_.get(), &est_pool, shared);
    out.measured = measure.estimateModule();
    out.composedVerified =
        out.measured.latency == out.composed.latency &&
        out.measured.interval == out.composed.interval &&
        out.measured.feasible == out.composed.feasible &&
        out.measured.resources.dsp == out.composed.resources.dsp &&
        out.measured.resources.lut == out.composed.resources.lut &&
        out.measured.resources.bram18k ==
            out.composed.resources.bram18k &&
        out.measured.resources.memoryBits ==
            out.composed.resources.memoryBits;
    out.verified = errors.empty() && stage_qor_ok;
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    opt_seconds_ += out.seconds;
    if (owns_cache && !inner.cacheSavePath.empty())
        saveEstimateCacheLogged(shared_estimates, inner.cacheSavePath);
    return out;
}

QoRResult
Compiler::estimate()
{
    QoREstimator estimator(module_.get());
    return estimator.estimateModule();
}

SynthesisReport
Compiler::synthesize(const ResourceBudget &budget)
{
    VirtualSynthesizer synthesizer(module_.get(), budget);
    return synthesizer.synthesize();
}

} // namespace scalehls
