/**
 * @file
 * The QoR evaluation layer of the DSE stack: an Evaluator interface with
 * single-point and batched entry points, plus the default caching
 * implementation that materializes each point on its own clone of the
 * pristine module (so evaluations of distinct points are independent) and
 * fans a batch out over a ThreadPool.
 *
 * There is one evaluation path per cache state. WITHOUT an estimate
 * cache every memo miss runs the full materialize-and-estimate pipeline:
 * the uncached reference that tests and the smith oracle compare
 * against. WITH a cache a miss is decided by the first of these that
 * applies: the planner's zero-IR composition or infeasibility proof
 * (PLAN + SCHEDULE tiers), a copy-on-write overlay that rebuilds only
 * the missed bands, the schedule-composed fast path (phase-1 transforms
 * + the SCHEDULE tier, taken when the planner falls back), and finally
 * the full pipeline. Every cached answer is bit-identical to the
 * reference.
 *
 * Results are returned BY VALUE: the memo cache is sharded and grows
 * concurrently, so a `const QoRResult&` into it could not survive a
 * neighboring insert. Batch results come back in input order regardless
 * of completion order, which is what keeps N-thread runs bit-identical
 * to 1-thread runs.
 */

#ifndef SCALEHLS_DSE_EVALUATOR_H
#define SCALEHLS_DSE_EVALUATOR_H

#include <atomic>
#include <memory>

#include "dse/band_plan.h"
#include "dse/design_space.h"
#include "estimate/estimate_cache.h"
#include "support/concurrent_cache.h"
#include "support/thread_pool.h"

namespace scalehls {

/** An evaluated design point. */
struct EvaluatedPoint
{
    DesignSpace::Point point;
    QoRResult qor;
};

/** QoR evaluation of design points. Implementations must be safe to call
 * from one thread while evaluateBatch internally uses many. */
class Evaluator
{
  public:
    virtual ~Evaluator() = default;

    /** Evaluate one point. */
    virtual QoRResult evaluate(const DesignSpace::Point &point) = 0;

    /** Evaluate a batch; result[i] corresponds to points[i]. */
    virtual std::vector<QoRResult>
    evaluateBatch(const std::vector<DesignSpace::Point> &points) = 0;
};

/** The env default of audit mode: set SCALEHLS_DSE_AUDIT (any value
 * but "0") to audit every evaluator in the process — how the sanitizer
 * CI legs switch whole test suites into audit mode. */
bool dseAuditEnvDefault();

/** The default evaluator: materialize + estimate behind a sharded memo
 * cache, batches spread over @p pool (nullptr or a 1-wide pool runs
 * inline). The cache is keyed on the full point vector, so re-probing an
 * already-evaluated point is a lookup, not a re-materialization; a miss
 * takes the cheapest applicable path listed in the file comment.
 *
 * An infeasible estimate (unknown trips, call cycles, failed analysis)
 * is returned carrying the kInfeasibleQoR latency/interval sentinel —
 * the estimator's internal placeholder numbers never escape here, so
 * every consumer (Pareto ranking, annealing cost, reporting) sees an
 * infeasible point as maximally bad instead of accidentally optimal.
 *
 * @p estimates (optional, not owned) is the cross-point estimate cache:
 * per-function results keyed by content digest, shared across every
 * worker (and potentially across evaluators). The pool is also handed to
 * each QoREstimator so multi-function points estimate their callees
 * concurrently (intra-point parallelism). @p audit (`-dse-audit` /
 * SCALEHLS_DSE_AUDIT) runs the L3/L4 auditors — overlay aliasing, cache
 * coherence, schedule-entry shape, overlay IR verification — at every
 * fast-path decision; a finding is counted, reported, and forces the
 * slow path, so audited runs trade time for proof, never correctness. */
class CachingEvaluator : public Evaluator
{
  public:
    explicit CachingEvaluator(const DesignSpace &space,
                              ThreadPool *pool = nullptr,
                              EstimateCache *estimates = nullptr,
                              bool audit = dseAuditEnvDefault())
        : space_(space), pool_(pool), estimates_(estimates), audit_(audit)
    {
        if (estimates_) {
            planner_ = std::make_unique<BandPlanner>(space_, estimates_,
                                                     audit_);
            if (!planner_->enabled())
                planner_.reset();
        }
    }

    QoRResult evaluate(const DesignSpace::Point &point) override;
    std::vector<QoRResult>
    evaluateBatch(const std::vector<DesignSpace::Point> &points) override;

    /** Keep the module of the best slow-path evaluation seen so far
     * (lowest-latency feasible point, optionally restricted to designs
     * fitting @p budget — the finalize criterion), so the engine can
     * hand the winning module back without re-materializing it.
     * Retention decisions happen on the sequential result-merge path in
     * batch input order, so the retained point is identical at any
     * thread count. */
    void
    retainBestModule(std::optional<ResourceBudget> budget)
    {
        retention_enabled_ = true;
        retention_budget_ = std::move(budget);
    }
    /** The retained module if it belongs to exactly @p point (ownership
     * transfers); nullptr otherwise. */
    std::unique_ptr<Operation> takeRetainedModule(
        const DesignSpace::Point &point);

    /** Number of uncached (memo-miss) evaluations. */
    size_t numMaterializations() const { return materializations_.load(); }
    /** Uncached evaluations that ran the FULL pipeline (phase-2 cleanup
     * + partition + estimator walk). */
    size_t numFullMaterializations() const
    {
        return full_materializations_.load();
    }
    /** Uncached evaluations served by the band-incremental fast path
     * (every band hit the schedule tier and validated) — including the
     * plan-composed ones, which additionally built zero IR. */
    size_t numFastPathHits() const { return fast_path_hits_.load(); }
    /** Fast-path hits decided entirely from the PLAN + SCHEDULE tiers:
     * no clone, no transform, no IR of any kind. */
    size_t numPlanComposed() const { return plan_composed_.load(); }
    /** Uncached evaluations that materialized through a copy-on-write
     * overlay (only the schedule-tier misses among the point's bands
     * were built; the rest composed from cache). */
    size_t numOverlayMaterializations() const
    {
        return overlay_materializations_.load();
    }
    /** Points the planner proved infeasible with zero IR (unroll cap, or
     * a cached per-band transform failure). */
    size_t numPlanInfeasible() const { return plan_infeasible_.load(); }
    /** Overlay materializations whose actual phase-1 digest contradicted
     * the PLAN tier's prediction; such points fell back to the full
     * pipeline, so a nonzero count costs time, never correctness. */
    size_t numPlanMismatches() const { return plan_mismatches_.load(); }
    /** Number of evaluations served from the cache. */
    size_t numCacheHits() const { return cache_hits_.load(); }
    /** Duplicate in-batch slots served from their sibling's result. */
    size_t numBatchDedups() const { return batch_dedups_.load(); }
    /** Audit-mode auditor invocations (0 when auditing is off). */
    size_t numAuditChecks() const { return audit_checks_.load(); }
    /** Audit findings. Every finding also forced the affected point onto
     * the validated slow path, so a nonzero count flags a broken
     * invariant without ever having produced a wrong QoR. */
    size_t numAuditViolations() const { return audit_violations_.load(); }

  private:
    /** Uncached materialize + estimate of one point. @p module_out
     * (optional) receives the materialized module when the full pipeline
     * ran (the fast path composes the QoR without one). */
    QoRResult evaluateFresh(const DesignSpace::Point &point,
                            std::unique_ptr<Operation> *module_out =
                                nullptr);
    /** The band-incremental fast path; nullopt -> run the full
     * pipeline. */
    std::optional<QoRResult> evaluateScheduled(
        const DesignSpace::Partial &partial);
    /** Publish the schedule-tier entries of a fully materialized,
     * eligible point. */
    void insertScheduleEntries(const DesignSpace::Partial &partial,
                               const QoREstimator &estimator);
    /** Count + report audit findings (audit mode only). Returns true
     * when there was at least one finding. */
    bool recordAuditFindings(const std::vector<VerifyError> &findings);
    /** Retention hook; called only from sequential merge paths. */
    void maybeRetain(const DesignSpace::Point &point,
                     const QoRResult &qor,
                     std::unique_ptr<Operation> module);

    const DesignSpace &space_;
    ThreadPool *pool_;
    EstimateCache *estimates_ = nullptr;
    bool audit_ = false;
    /** Plan-first evaluation over the PLAN cache tier (null without an
     * estimate cache or when the kernel's shape is not plannable). */
    std::unique_ptr<BandPlanner> planner_;
    ConcurrentCache<DesignSpace::Point, QoRResult, OrdinalVectorHash>
        cache_;
    std::atomic<size_t> materializations_{0};
    std::atomic<size_t> full_materializations_{0};
    std::atomic<size_t> fast_path_hits_{0};
    std::atomic<size_t> plan_composed_{0};
    std::atomic<size_t> overlay_materializations_{0};
    std::atomic<size_t> plan_infeasible_{0};
    std::atomic<size_t> plan_mismatches_{0};
    std::atomic<size_t> cache_hits_{0};
    std::atomic<size_t> batch_dedups_{0};
    std::atomic<size_t> audit_checks_{0};
    std::atomic<size_t> audit_violations_{0};

    bool retention_enabled_ = false;
    std::optional<ResourceBudget> retention_budget_;
    std::unique_ptr<Operation> retained_module_;
    DesignSpace::Point retained_point_;
    QoRResult retained_qor_;
};

} // namespace scalehls

#endif // SCALEHLS_DSE_EVALUATOR_H
