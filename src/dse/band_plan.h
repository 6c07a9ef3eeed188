/**
 * @file
 * Plan-first point evaluation: predict each band's phase-1 digest from
 * the PRISTINE kernel plus the decoded BandChoice — no clone, no
 * transform — so a point whose bands all hit the PLAN and SCHEDULE cache
 * tiers composes its QoR having built zero IR. Points with a partial
 * miss materialize only the missed bands, through a copy-on-write
 * overlay (ir/overlay.h) that shares every hit band with the pristine
 * base. Predictions are validated whenever an overlay materializes a
 * band (predicted digest != actual digest falls the point back to the
 * full pipeline and bumps a stat counter), so the planner can
 * change wall-clock but never results.
 */

#ifndef SCALEHLS_DSE_BAND_PLAN_H
#define SCALEHLS_DSE_BAND_PLAN_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dse/design_space.h"
#include "estimate/estimate_cache.h"
#include "ir/verifier.h"

namespace scalehls {

/** Plan-first evaluation of design points against a shared
 * EstimateCache. One planner serves every worker of a DSE run: it holds
 * only immutable per-band snapshots of the pristine kernel (plan-key
 * seeds, the external-value tables, the alloc-ownership analysis), so
 * evaluate() is const and re-entrant — all cross-point state lives in
 * the cache's PLAN and SCHEDULE tiers.
 *
 * Eligibility is decided once, at construction, on the PRISTINE
 * function: DesignSpace::bandLocalOwnership (no pipelined top, flat body
 * of bands + constants + allocs + return, every alloc owned), plus two
 * conditions of its own: every alloc lives at flat scope — pipelining's
 * full unroll would duplicate in-band allocs and diverge the ownership
 * list the plan keys bake in — and every band is plan-seedable. An
 * ineligible kernel simply disables the planner; its misses run the
 * full pipeline. The planner takes the unroll cap and the per-band
 * phase-1 transforms from DesignSpace too, so it decides every point
 * exactly as a materialization would. */
class BandPlanner
{
  public:
    /** The planner's verdict on one point. */
    struct Outcome
    {
        enum class Kind
        {
            /** qor is the composed result, bit-identical to the full
             * pipeline's. */
            Composed,
            /** The point is not materializable (unroll cap, pipelining
             * failure) — return the infeasible sentinel. */
            Infeasible,
            /** The planner cannot decide this point; run the full
             * pipeline. */
            Fallback,
        };
        Kind kind = Kind::Fallback;
        QoRResult qor;
        /** The decision built a copy-on-write overlay (vs zero IR). */
        bool usedOverlay = false;
        /** A cached plan's predicted digest contradicted the overlay
         * materialization (always Fallback; the caller counts these). */
        bool mismatched = false;
        /** Audit-mode bookkeeping (zero / empty when auditing is off):
         * how many auditor invocations this evaluation ran, and every
         * finding they produced. Any finding forces Fallback — audited
         * evaluations never answer from state an auditor rejected. */
        size_t auditChecks = 0;
        std::vector<VerifyError> auditFindings;
        /** The overlay's access table once every consumer has read it
         * (zero without an overlay): collectAccesses runs and distinct
         * (scope, IV list) pairs. Equal when no pair was analyzed
         * twice. */
        size_t accessBuilds = 0;
        size_t accessScopes = 0;
    };

    /** @p estimates (required, not owned) must outlive the planner.
     * @p audit enables the L3/L4 auditors (overlay aliasing,
     * schedule-entry shape, overlay IR verification) on every decision
     * this planner takes. */
    BandPlanner(const DesignSpace &space, EstimateCache *estimates,
                bool audit = false);

    /** False when the pristine kernel is not plan-eligible; evaluate()
     * then always falls back. */
    bool enabled() const { return enabled_; }

    Outcome evaluate(const DesignSpace::Point &point) const;

    /** The PLAN-tier key of @p band under @p point ("" when disabled).
     * Test hook: lets a test pre-seed or corrupt the plan tier for
     * exactly the key evaluate() will consult. */
    std::string debugPlanKey(const DesignSpace::Point &point,
                             size_t band) const;

  private:
    struct OverlayInputs;
    Outcome overlayEvaluate(const DesignSpace::Decoded &decoded,
                            OverlayInputs &inputs) const;
    /** @p audit_out (optional) collects schedule-entry shape audits when
     * auditing is on; any finding fails the composition. */
    std::optional<QoRResult> composeAll(
        const std::vector<BandScheduleEntry> &entries,
        const std::vector<const std::vector<unsigned> *> &ext_maps,
        Outcome *audit_out = nullptr) const;
    std::string originOf(size_t band) const;
    /** Index of @p base in band @p b's pristine external table; false
     * when absent. */
    bool seedIndexOf(size_t b, Value *base, unsigned &index) const;

    const DesignSpace &space_;
    EstimateCache *estimates_ = nullptr;
    bool audit_ = false;
    bool enabled_ = false;

    Operation *func_ = nullptr; ///< Pristine top function (read-only).
    std::string func_name_;
    bool dataflow_top_ = false;
    /** Pristine top-level band roots, body order. */
    std::vector<Operation *> roots_;
    /** Pristine alloc ownership (phase-1 verdicts are identical: the
     * structural transforms preserve band membership and load/store
     * kinds of every flat-buffer access). */
    AllocOwnershipInfo ownership_;
    std::vector<BandPlanSeed> seeds_;
    /** Per band: pristine external value -> its seed-table index. */
    std::vector<std::map<Value *, unsigned>> seed_index_;
};

} // namespace scalehls

#endif // SCALEHLS_DSE_BAND_PLAN_H
