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
 * against. WITH a cache a miss is decided by the planner (dse/band_plan.h)
 * — a zero-IR composition or infeasibility proof from the PLAN +
 * SCHEDULE tiers, or a copy-on-write overlay that rebuilds only the
 * missed bands — and, when the planner falls back or the kernel is not
 * plannable, by the full pipeline, which publishes the SCHEDULE-tier
 * entries the planner composes from. Every cached answer is
 * bit-identical to the reference.
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

/** The evaluation counters of a DSE, declared once. forEachField is the
 * one list of them: every reporter (serve replies, the scalehls-opt
 * summary, the smith oracle) walks it instead of naming fields. @p T is
 * size_t for snapshots (DSEStats) and std::atomic<size_t> inside the
 * evaluator, which increments them from its workers. */
template <class T>
struct BasicDSEStats
{
    /** Points the search evaluated (DSEEngine fills it). */
    T evaluations{};
    /** Evaluations served from the evaluator's memo cache. */
    T memoHits{};
    /** Memo misses: points actually decided by an evaluation path. */
    T materializations{};
    /** Duplicate in-batch slots served from their sibling's result. */
    T batchDedups{};
    /** Misses that ran the FULL pipeline (phase-2 cleanup + partition +
     * estimator walk). */
    T fullMaterializations{};
    /** Misses composed with zero IR; always equal to planComposed
     * (kept until the benchmark stops reading it from serve replies). */
    T fastPathHits{};
    /** Misses decided entirely from the PLAN + SCHEDULE tiers: no
     * clone, no transform, no IR of any kind. */
    T planComposed{};
    /** Misses built through a copy-on-write overlay (only the
     * schedule-missing bands were built). */
    T overlayMaterializations{};
    /** Points the planner proved infeasible with zero IR (unroll cap,
     * or a cached per-band transform failure). */
    T planInfeasible{};
    /** Overlay builds whose phase-1 digest contradicted the PLAN tier's
     * prediction; they fell back to the full pipeline, so a nonzero
     * count costs time, never correctness. */
    T planMismatches{};
    /** Audit-mode auditor invocations (0 unless auditing). */
    T auditChecks{};
    /** Audit findings. Each also forced its point onto the validated
     * slow path, so a nonzero count flags a broken invariant without a
     * wrong QoR having escaped. */
    T auditViolations{};

    /** Call fn(snake_name, s.field...) for every counter in declaration
     * order, zipped across @p stats (any mix of BasicDSEStats types). */
    template <class Fn, class... Stats>
    static void
    forEachField(Fn &&fn, Stats &&...stats)
    {
        fn("evaluations", stats.evaluations...);
        fn("memo_hits", stats.memoHits...);
        fn("materializations", stats.materializations...);
        fn("batch_dedups", stats.batchDedups...);
        fn("full_materializations", stats.fullMaterializations...);
        fn("fast_path_hits", stats.fastPathHits...);
        fn("plan_composed", stats.planComposed...);
        fn("overlay_materializations", stats.overlayMaterializations...);
        fn("plan_infeasible", stats.planInfeasible...);
        fn("plan_mismatches", stats.planMismatches...);
        fn("audit_checks", stats.auditChecks...);
        fn("audit_violations", stats.auditViolations...);
    }

    BasicDSEStats &
    operator+=(const BasicDSEStats &other)
    {
        forEachField([](const char *, T &sum, T add) { sum += add; },
                     *this, other);
        return *this;
    }
};

using DSEStats = BasicDSEStats<size_t>;

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
 * SCALEHLS_DSE_AUDIT) runs the L3/L4 auditors — overlay aliasing, plan
 * digest mismatches, schedule-entry shape, overlay IR verification — at
 * every planner decision; a finding is counted, reported, and forces the
 * full pipeline, so audited runs trade time for proof, never
 * correctness. */
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

    /** A snapshot of the counters (`evaluations` stays 0: it counts
     * the points a search evaluated, which the engine owns). */
    DSEStats stats() const;

  private:
    /** Decide one memo miss: the planner, else the full pipeline.
     * @p module_out (optional) receives the materialized module when the
     * full pipeline ran (the planner answers without one). */
    QoRResult evaluateFresh(const DesignSpace::Point &point,
                            std::unique_ptr<Operation> *module_out =
                                nullptr);
    /** Publish the schedule-tier entries of a fully materialized,
     * eligible point, reading band accesses from the evaluation's
     * table. */
    void insertScheduleEntries(const DesignSpace::Partial &partial,
                               const QoREstimator &estimator,
                               AccessTable &accesses);
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
    BasicDSEStats<std::atomic<size_t>> counters_;

    bool retention_enabled_ = false;
    std::optional<ResourceBudget> retention_budget_;
    std::unique_ptr<Operation> retained_module_;
    DesignSpace::Point retained_point_;
    QoRResult retained_qor_;
};

} // namespace scalehls

#endif // SCALEHLS_DSE_EVALUATOR_H
