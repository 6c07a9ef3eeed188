/**
 * @file
 * The cross-point estimate cache: per-function QoR results keyed by
 * (function name, canonical directive/structure digest). Design points
 * that differ only in OTHER functions' directives leave a function's
 * content — and therefore its digest — unchanged, so its estimate is
 * reused instead of re-walking the IR. The key is content-derived, which
 * makes cache hits value-identical to recomputation: sharing one cache
 * across every DSE worker (and across the per-kernel explorations of
 * optimizeFunctions) changes wall-clock only, never results.
 */

#ifndef SCALEHLS_ESTIMATE_ESTIMATE_CACHE_H
#define SCALEHLS_ESTIMATE_ESTIMATE_CACHE_H

#include <atomic>
#include <map>
#include <set>
#include <string>

#include "estimate/qor_estimator.h"
#include "support/concurrent_cache.h"

namespace scalehls {

/** The cached outcome of planning one (pristine band, BandChoice) pair —
 * the PLAN tier's value type. A plan outcome predicts, without building
 * any IR, what the per-band structural transforms of beginMaterialize
 * would produce for this band:
 *
 *  - `materializable` false: the transforms fail (e.g. pipelining cannot
 *    legalize the band) — any point selecting this choice is infeasible,
 *    decided with zero IR.
 *  - `digest`: the band's phase-1 (schedule-tier) digest.
 *  - `extMap`: phase-1 external id -> BandPlanSeed external index. The
 *    transforms permute the first-reference order of external values, so
 *    a schedule entry's ids must be translated onto the pristine table
 *    before composing.
 *  - `composable` false: the digest or extMap could not be established
 *    (an external of the transformed band has no pristine counterpart);
 *    the band must be materialized on every evaluation.
 *
 * Outcomes are recorded from an actual overlay materialization of the
 * band (never predicted blind), so a cached outcome is exact; the
 * digest-mismatch fallback in the planner double-checks this invariant
 * whenever an outcome and a materialization meet. */
struct BandPlanOutcome
{
    bool materializable = false;
    bool composable = false;
    std::string digest;
    std::vector<unsigned> extMap;
};

/** Per-tier max-entry bounds for the three EstimateCache tiers (coarse
 * LRU eviction; 0 = that tier unbounded). Lets operators size the
 * tiers independently — schedule/plan entries are an order of magnitude
 * larger than function QoRs, so one uniform cap either wastes memory or
 * starves the cheap tiers. */
struct EstimateCacheTierCaps
{
    size_t func = 0;
    size_t schedule = 0;
    size_t plan = 0;
};

/** Parse a cache-cap spec: either one count applied to every tier
 * ("4096") or three colon-separated per-tier counts in func:sched:plan
 * order ("1024:2048:8192", 0 = unbounded). nullopt on malformed input,
 * including any other field count and a count that does not fit in
 * size_t. */
std::optional<EstimateCacheTierCaps>
parseEstimateCacheCaps(const std::string &spec);

/** A fixed probe digest of the digest pipeline itself: feeds canonical
 * inputs through the same 128-bit hash the band/function digests use.
 * Any change to the hash constants or mixing shows up here, which folds
 * into the snapshot digest-schema salt (cache_io) so persisted caches
 * keyed under the old scheme are rejected wholesale instead of silently
 * missing (or worse, aliasing). */
std::string digestHashFingerprint();

/** Thread-safe three-tier estimate cache shared across concurrently
 * evaluating design points:
 *
 *  - the FUNCTION tier maps (function name, digest) keys to whole-
 *    function QoR estimates;
 *  - the SCHEDULE tier maps PHASE-1 band digests (the content right
 *    after the per-band structural transforms, before cleanup and array
 *    partition) to BandScheduleEntry values — the band-incremental
 *    materialization fast path: a point whose bands all hit this tier
 *    skips the function-wide cleanup, array partition AND the estimator
 *    walk entirely (composeScheduledQoR re-validates the cross-band
 *    partition coupling before trusting an entry);
 *  - the PLAN tier maps (pristine band, BandChoice) keys — bandPlanKey,
 *    no IR built — to BandPlanOutcome values, which predict the phase-1
 *    digest analytically: a point whose bands all hit PLAN and (through
 *    the predicted digests) SCHEDULE composes its QoR with zero IR.
 *
 * All tiers are content-keyed (the schedule tier additionally validated
 * at use): hits are value-identical to recomputation at any thread
 * count. */
class EstimateCache
{
  public:
    /** The function-tier cache key of @p func given its precomputed
     * @p digest. The name is length-prefixed so the key is an injective
     * encoding of the (name, digest) pair — a '#' inside a function
     * name cannot alias another pair's key. */
    static std::string
    keyFor(const std::string &func_name, const std::string &digest)
    {
        return std::to_string(func_name.size()) + ':' + func_name + '#' +
               digest;
    }

    std::optional<QoRResult>
    lookup(const std::string &key) const
    {
        return cache_.lookup(key);
    }

    void
    insert(const std::string &key, const QoRResult &result)
    {
        cache_.insert(key, result);
    }

    /** @name Schedule tier (incremental materialization)
     * @p origin (optional, "func#bandIndex") identifies the consumer: a
     * hit on an entry recorded under a DIFFERENT origin is counted in
     * crossBandHits() — a symmetric band reusing a sibling's (or another
     * function's) entry. Purely statistical. */
    ///@{
    std::optional<BandScheduleEntry>
    lookupSchedule(const std::string &phase1_digest,
                   const std::string &origin = std::string()) const
    {
        auto result = schedules_.lookup(phase1_digest);
        if (result && !origin.empty() && !result->origin.empty() &&
            result->origin != origin)
            cross_band_hits_.fetch_add(1, std::memory_order_relaxed);
        return result;
    }

    void
    insertSchedule(const std::string &phase1_digest,
                   const BandScheduleEntry &entry)
    {
        schedules_.insert(phase1_digest, entry);
    }
    ///@}

    /** @name Plan tier (plan-first evaluation) */
    ///@{
    std::optional<BandPlanOutcome>
    lookupPlan(const std::string &plan_key) const
    {
        return plans_.lookup(plan_key);
    }

    void
    insertPlan(const std::string &plan_key, const BandPlanOutcome &outcome)
    {
        plans_.insert(plan_key, outcome);
    }
    ///@}

    /** Bound each tier independently (coarse hit-count-informed LRU
     * eviction; see ConcurrentCache::setMaxEntries). 0 = that tier
     * unbounded (the default). Content-keyed tiers just recompute
     * evicted values, so bounding changes memory, never results. Set
     * before populating. */
    void
    setTierMaxEntries(const EstimateCacheTierCaps &caps)
    {
        cache_.setMaxEntries(caps.func);
        schedules_.setMaxEntries(caps.schedule);
        plans_.setMaxEntries(caps.plan);
    }

    /** @name Bulk export (snapshot persistence)
     * Visit every entry of one tier; the callback runs under the owning
     * shard's lock (see ConcurrentCache::forEach) and must not call back
     * into the cache. Iteration does NOT touch the hit/miss counters —
     * serialization is not a lookup. */
    ///@{
    template <typename Fn>
    void
    forEachFunc(Fn &&fn) const
    {
        cache_.forEach(std::forward<Fn>(fn));
    }
    template <typename Fn>
    void
    forEachSchedule(Fn &&fn) const
    {
        schedules_.forEach(std::forward<Fn>(fn));
    }
    template <typename Fn>
    void
    forEachPlan(Fn &&fn) const
    {
        plans_.forEach(std::forward<Fn>(fn));
    }
    ///@}

    /** @name Statistics (delegated to the sharded tiers).
     * One snapshot per tier. */
    ///@{
    /** Function-tier entries. */
    size_t size() const { return cache_.size(); }
    CacheStats funcStats() const { return cache_.stats(); }
    /** Always empty (there is no band tier). The performance ledger
     * (bench/ledger/bench_ledger.cc) still reports it, so its
     * estimate.band_* counters read 0. */
    CacheStats bandStats() const { return CacheStats{}; }
    CacheStats scheduleStats() const { return schedules_.stats(); }
    /** Schedule-tier hits whose entry was recorded under a different
     * origin than the consumer's — entry sharing across symmetric bands
     * or functions, enabled by the canonicalizing digest. */
    size_t crossBandHits() const
    {
        return cross_band_hits_.load(std::memory_order_relaxed);
    }
    CacheStats planStats() const { return plans_.stats(); }
    ///@}

    void
    clear()
    {
        cache_.clear();
        schedules_.clear();
        plans_.clear();
        cross_band_hits_.store(0, std::memory_order_relaxed);
    }

  private:
    ConcurrentCache<std::string, QoRResult> cache_;
    ConcurrentCache<std::string, BandScheduleEntry> schedules_;
    ConcurrentCache<std::string, BandPlanOutcome> plans_;
    mutable std::atomic<size_t> cross_band_hits_{0};
};

} // namespace scalehls

#endif // SCALEHLS_ESTIMATE_ESTIMATE_CACHE_H
