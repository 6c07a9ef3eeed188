#include "dse/dse_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>

#include "dse/pareto.h"

namespace scalehls {

std::vector<EvaluatedPoint>
DSEEngine::explore()
{
    evaluated_.clear();
    std::mt19937 rng(options_.seed);

    pool_ = std::make_unique<ThreadPool>(options_.numThreads);
    // Cross-point estimate cache: external if supplied, per-exploration
    // otherwise (unless disabled). Content-keyed, so it never changes
    // results — only how often the estimator re-walks identical IR.
    local_estimates_ = std::make_unique<EstimateCache>();
    local_estimates_->setTierMaxEntries(options_.estimateCacheTierCaps);
    EstimateCache *estimates = options_.sharedEstimates;
    if (!estimates && options_.crossPointCache)
        estimates = local_estimates_.get();
    // Cross-process warm start: the owner of the cache loads/saves the
    // snapshot. The engine owns only its per-exploration cache; an
    // injected sharedEstimates cache is persisted by whoever created it
    // (Compiler / tools), never here — loading it once per engine would
    // double-count and saving it concurrently would race.
    if (estimates == local_estimates_.get() &&
        !options_.cacheLoadPath.empty())
        loadEstimateCacheLogged(*estimates, options_.cacheLoadPath);
    estimates_in_use_ = estimates;

    evaluator_ = std::make_unique<CachingEvaluator>(
        space_, pool_.get(), estimates, options_.auditMode);
    // Keep the winning module so finalization does not re-materialize
    // the point it just evaluated.
    evaluator_->retainBestModule(finalize_budget_);
    CachingEvaluator &evaluator = *evaluator_;
    SearchContext ctx(space_, evaluator, evaluated_, options_.batchSize);

    // Step 1: initial sampling, evaluated as one parallel batch. The
    // canonical seeds (the baseline schedule under each legalization
    // switch) guarantee a feasible frontier for the neighbor traversal
    // even when random tiles are mostly illegal.
    for (const DesignSpace::Point &seed : space_.canonicalSeedPoints())
        ctx.propose(seed);
    for (unsigned i = 0; i < options_.numInitialSamples; ++i)
        ctx.propose(space_.randomPoint(rng));
    ctx.flush();

    SearchStrategy::create(options_.strategy)
        ->run(ctx, rng, options_.maxIterations);

    stats_ = evaluator.stats();
    stats_.evaluations = evaluated_.size();

    // Return the frontier sorted by latency. frontierIndices is already
    // ascending (latency, area, index); stable_sort keeps tie groups in
    // that deterministic order on every stdlib (an unstable sort could
    // scramble equal-latency members and change which one finalize()
    // picks first).
    std::vector<EvaluatedPoint> result;
    for (size_t idx : ctx.frontierIndices())
        result.push_back(evaluated_[idx]);
    std::stable_sort(result.begin(), result.end(),
                     [](const EvaluatedPoint &a, const EvaluatedPoint &b) {
                         return a.qor.latency < b.qor.latency;
                     });

    // Save-on-exit for the engine-owned cache (the exploration is where
    // the entries are born; materializeEvaluated afterwards adds little
    // and the snapshot stays valid either way — entries only accrete).
    if (estimates == local_estimates_.get() &&
        !options_.cacheSavePath.empty())
        saveEstimateCacheLogged(*estimates, options_.cacheSavePath);
    return result;
}

std::vector<FrontierPoint>
retainFrontier(const DesignSpace &space,
               const std::vector<EvaluatedPoint> &frontier)
{
    std::vector<FrontierPoint> retained;
    retained.reserve(frontier.size());
    for (const EvaluatedPoint &e : frontier) {
        FrontierPoint fp;
        fp.point = e.point;
        fp.bands = space.decode(e.point).bands;
        fp.qor = e.qor;
        retained.push_back(std::move(fp));
    }
    return retained;
}

std::optional<EvaluatedPoint>
DSEEngine::finalize(const std::vector<EvaluatedPoint> &frontier,
                    const ResourceBudget &budget)
{
    // Step 5: ascending latency, first point meeting the constraints.
    for (const EvaluatedPoint &e : frontier)
        if (e.qor.feasible && e.qor.fits(budget))
            return e;
    return std::nullopt;
}

std::unique_ptr<Operation>
DSEEngine::materializeEvaluated(const EvaluatedPoint &chosen)
{
    module_reused_ = false;
    qor_verified_ = false;
    std::unique_ptr<Operation> module;
    if (evaluator_)
        module = evaluator_->takeRetainedModule(chosen.point);
    if (module)
        module_reused_ = true;
    else
        module = space_.materialize(chosen.point);
    if (!module)
        return nullptr;

    // Re-estimate against the still-warm content-keyed caches (a
    // function-tier hit makes this a digest + lookup, not a walk) and
    // check the module really carries the QoR the frontier promised —
    // this also end-to-end-verifies any fast-path composition that fed
    // the chosen point's cached result.
    QoREstimator estimator(module.get(), pool_.get(), estimates_in_use_);
    QoRResult check = estimator.estimateModule();
    if (!check.feasible) {
        check.latency = kInfeasibleQoR;
        check.interval = kInfeasibleQoR;
    }
    qor_verified_ = check.latency == chosen.qor.latency &&
                    check.interval == chosen.qor.interval &&
                    check.feasible == chosen.qor.feasible &&
                    check.resources.dsp == chosen.qor.resources.dsp &&
                    check.resources.lut == chosen.qor.resources.lut &&
                    check.resources.bram18k ==
                        chosen.qor.resources.bram18k &&
                    check.resources.memoryBits ==
                        chosen.qor.resources.memoryBits;
    // On divergence the re-estimated QoR is the one consistent with the
    // module being returned; callers (runDSE) adopt it over the cached
    // value so result.module and result.qor can never disagree.
    verified_qor_ = check;
    assert(qor_verified_ &&
           "materialized module diverged from the cached QoR");
    return module;
}

std::optional<DSEResult>
runDSE(Operation *module, const ResourceBudget &budget,
       DesignSpaceOptions space_options, DSEOptions options)
{
    auto start = std::chrono::steady_clock::now();
    DesignSpace space(module, space_options);
    DSEEngine engine(space, options);
    engine.setFinalizeBudget(budget);
    auto frontier = engine.explore();
    auto chosen = DSEEngine::finalize(frontier, budget);
    if (!chosen)
        return std::nullopt;

    DSEResult result;
    result.point = chosen->point;
    result.qor = chosen->qor;
    result.frontier = retainFrontier(space, frontier);
    result.module = engine.materializeEvaluated(*chosen);
    if (result.module && !engine.qorVerified()) {
        // Should not happen (asserted in debug builds); in release,
        // keep the QoR consistent with the module we actually return.
        result.qor = engine.verifiedQoR();
    }
    static_cast<DSEStats &>(result) = engine.stats();
    result.moduleReused = engine.moduleReused();
    result.qorVerified = engine.qorVerified();
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
}

} // namespace scalehls
