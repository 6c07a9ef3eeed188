/**
 * @file
 * The automated DSE engine (paper Section V-E2): a 5-step
 * neighbor-traversing search for the Pareto frontier of the latency-area
 * space, exploiting the observation that Pareto points cluster in the
 * design-parameter space (paper Fig. 6).
 *
 * Exploration proposes batches of unevaluated points per round and
 * evaluates each batch in parallel over a thread pool (the QoR of
 * distinct points is independent — materialization clones the module per
 * point). The search trajectory is a function of the seed and the batch
 * size only, so for a fixed seed the resulting frontier is bit-identical
 * at any thread count.
 */

#ifndef SCALEHLS_DSE_DSE_ENGINE_H
#define SCALEHLS_DSE_DSE_ENGINE_H

#include <optional>

#include "dse/search_strategy.h"
#include "estimate/cache_io.h"

namespace scalehls {

/** Engine tuning knobs. */
struct DSEOptions
{
    unsigned numInitialSamples = 120; ///< Step 1 random samples.
    unsigned maxIterations = 400;     ///< Step 4 proposal budget.
    unsigned seed = 20220402;         ///< RNG seed (deterministic runs).
    DSEStrategy strategy = DSEStrategy::NeighborTraversal;
    /** QoR evaluation worker threads; 0 = hardware_concurrency. Does NOT
     * affect results, only wall-clock. */
    unsigned numThreads = 0;
    /** Points proposed per exploration round. Part of the deterministic
     * trajectory — keep it fixed when comparing runs (it intentionally
     * does not default to numThreads). */
    unsigned batchSize = 8;
    /** Cross-point estimate cache: reuse per-function estimates between
     * design points whose function content is identical (keyed by
     * function name + directive/structure digest). Purely a wall-clock
     * optimization — keys are content-derived, so hits return exactly
     * what recomputation would. Every tier (function, band, schedule,
     * plan) and every fast path rides on this cache; off selects the
     * uncached reference path (full materialization of every point). */
    bool crossPointCache = true;
    /** Audit mode (`-dse-audit` / SCALEHLS_DSE_AUDIT): run the L3/L4
     * auditors — overlay aliasing, overlay IR verification, plan digest
     * mismatches, schedule-entry shape — at every planner decision of
     * the evaluator. A finding is counted, reported on stderr, and
     * forces the affected point onto the validated slow path, so an
     * audited run can be slower but never wrong. */
    bool auditMode = dseAuditEnvDefault();
    /** Max entries per tier (func/band/schedule/plan) of the estimate
     * cache the exploration creates (coarse LRU eviction; 0 = that tier
     * unbounded). Bounds memory on week-long sweeps without changing
     * results; external sharedEstimates caches are the caller's to
     * bound. Schedule/plan entries are far heavier than function QoRs,
     * so persistent deployments size the tiers separately
     * (`-dse-cache-cap=f:b:s:p`; one count caps every tier). */
    EstimateCacheTierCaps estimateCacheTierCaps;
    /** Snapshot persistence (estimate/cache_io): load the estimate cache
     * from cacheLoadPath before exploring and save it to cacheSavePath
     * afterwards — cross-process warm starts. Performed by whoever OWNS
     * the cache the exploration uses: the engine for its per-exploration
     * cache, Compiler::optimizeFunctions/optimizeModel for their shared
     * per-call cache, and the tools for caches they inject via
     * sharedEstimates (external caches are never loaded/saved here).
     * Both default to $SCALEHLS_CACHE_DIR/estimate_cache.shlsnap when
     * that variable is set ("" otherwise = no persistence). Rejected or
     * corrupt snapshots degrade to a cold start with a warning. */
    std::string cacheLoadPath = defaultCacheSnapshotPath();
    std::string cacheSavePath = defaultCacheSnapshotPath();
    /** External estimate cache spanning multiple explorations (e.g. all
     * kernels of optimizeFunctions), NOT owned; nullptr = the engine
     * creates a per-exploration cache when crossPointCache is set. */
    EstimateCache *sharedEstimates = nullptr;
};

/** The 5-step DSE algorithm over one kernel's design space. */
class DSEEngine
{
  public:
    DSEEngine(DesignSpace &space, DSEOptions options = {})
        : space_(space), options_(options)
    {}

    /** Steps 1-4: sample, then evolve the frontier by proposing batches
     * of nearest unevaluated neighbors of random Pareto points. Returns
     * the frontier in ascending latency order. */
    std::vector<EvaluatedPoint> explore();

    /** Step 5 (design finalization): the fastest Pareto point that meets
     * the resource constraints. */
    static std::optional<EvaluatedPoint> finalize(
        const std::vector<EvaluatedPoint> &frontier,
        const ResourceBudget &budget);

    /** Scope module retention during explore() to designs fitting
     * @p budget (the finalize criterion); call before explore(). Without
     * it the evaluator retains the best feasible module regardless of
     * budget. */
    void setFinalizeBudget(const ResourceBudget &budget)
    {
        finalize_budget_ = budget;
    }

    /** The materialized module of an explore()-evaluated point: reuses
     * the module retained during exploration when it is exactly this
     * point (no re-materialization), re-materializing otherwise (fast
     * path composition never builds modules; retention keeps one). The
     * module is then re-estimated against the warm estimate cache and
     * its QoR asserted equal to the cached result — qorVerified()
     * reports the outcome. */
    std::unique_ptr<Operation> materializeEvaluated(
        const EvaluatedPoint &chosen);
    /** True when materializeEvaluated reused the retained module. */
    bool moduleReused() const { return module_reused_; }
    /** True when the re-estimated module matched the cached QoR. */
    bool qorVerified() const { return qor_verified_; }
    /** The re-estimated QoR of the last materializeEvaluated module —
     * equal to the cached result when qorVerified(); on divergence it
     * is the value consistent with the returned module. */
    const QoRResult &verifiedQoR() const { return verified_qor_; }

    /** All points evaluated during explore() (for Fig. 6 profiling). */
    const std::vector<EvaluatedPoint> &evaluated() const
    {
        return evaluated_;
    }
    /** The counters of the last explore(), snapshotted at its end. */
    const DSEStats &stats() const { return stats_; }
    /** @name Ledger accessors
     * One-line reads of stats(), kept because the frozen bench_ledger
     * driver (bench/ledger/) calls them by name. New code reads
     * stats(). */
    ///@{
    size_t numEvaluations() const { return stats_.evaluations; }
    size_t numCacheHits() const { return stats_.memoHits; }
    size_t numMaterializations() const { return stats_.materializations; }
    size_t numFullMaterializations() const
    {
        return stats_.fullMaterializations;
    }
    size_t numOverlayMaterializations() const
    {
        return stats_.overlayMaterializations;
    }
    size_t numPlanComposed() const { return stats_.planComposed; }
    size_t numPlanInfeasible() const { return stats_.planInfeasible; }
    size_t numPlanMismatches() const { return stats_.planMismatches; }
    ///@}

  private:
    DesignSpace &space_;
    DSEOptions options_;
    std::vector<EvaluatedPoint> evaluated_;
    DSEStats stats_;
    std::optional<ResourceBudget> finalize_budget_;
    bool module_reused_ = false;
    bool qor_verified_ = false;
    QoRResult verified_qor_;
    /** Exploration state kept alive across explore() so
     * materializeEvaluated can reuse the retained module and the warm
     * caches. */
    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<EstimateCache> local_estimates_;
    EstimateCache *estimates_in_use_ = nullptr;
    std::unique_ptr<CachingEvaluator> evaluator_;
};

/** One retained Pareto-frontier design: the encoded point, its decoded
 * per-band schedule, and the FULL QoR — decomposed ResourceUsage, not
 * just the scalar area — so a global allocator can trade stages against
 * each other per resource. Re-materializing a frontier point is cheap
 * through DSEEngine::materializeEvaluated while the engine (and its warm
 * plan/schedule caches) is alive. */
struct FrontierPoint
{
    DesignSpace::Point point;
    /** Decoded per-band schedule (function body order). */
    std::vector<DesignSpace::BandChoice> bands;
    QoRResult qor;
};

/** Decode and retain @p frontier (an explore() result, ascending
 * latency) as self-contained FrontierPoints. */
std::vector<FrontierPoint> retainFrontier(
    const DesignSpace &space, const std::vector<EvaluatedPoint> &frontier);

/** Convenience: run the full flow on a C-level module — returns the
 * finalized optimized module plus its QoR and the exploration's
 * counters, or nullopt if no feasible design exists. */
struct DSEResult : DSEStats
{
    DesignSpace::Point point;
    QoRResult qor;
    std::unique_ptr<Operation> module;
    /** The full evaluated Pareto frontier (ascending latency), retained
     * beyond the winner so callers can re-finalize under a different
     * budget or compose whole-model designs. */
    std::vector<FrontierPoint> frontier;
    /** True when the finalized module was the one retained during
     * exploration (no re-materialization). */
    bool moduleReused = false;
    /** True when the finalized module re-estimated to the cached QoR. */
    bool qorVerified = false;
    double seconds = 0;
};
std::optional<DSEResult> runDSE(Operation *module,
                                const ResourceBudget &budget,
                                DesignSpaceOptions space_options = {},
                                DSEOptions options = {});

} // namespace scalehls

#endif // SCALEHLS_DSE_DSE_ENGINE_H
