/**
 * @file
 * The analytical QoR estimator (paper Section V-E1): ALAP-style critical
 * path scheduling of each block, memory ports as non-shareable resources
 * (identical-address reads excepted), define-use plus memory dependence
 * edges, pipelined/flattened loop latency composition, dataflow interval
 * computation, and resource accounting with II-driven operator sharing.
 */

#ifndef SCALEHLS_ESTIMATE_QOR_ESTIMATOR_H
#define SCALEHLS_ESTIMATE_QOR_ESTIMATOR_H

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/buffer_analysis.h"
#include "analysis/memory_analysis.h"
#include "estimate/resource_model.h"

namespace scalehls {

class EstimateCache;
class ThreadPool;

/** Canonical estimate digests of a set of functions (implemented in
 * estimate_cache.cc; EstimateCache itself lives in estimate_cache.h).
 *
 * A function's digest covers exactly what the QoR estimator reads: the
 * op tree (names, attributes including the hlscpp directives, operand
 * wiring, result/argument types with partition layouts) plus the digests
 * of its transitive callees. The hlscpp.top_func marker is excluded — it
 * selects which function a module-level estimate starts from but does
 * not change any function's own estimate, and the per-kernel DSE flow
 * marks different functions top in otherwise identical clones.
 *
 * Call cycles are folded into a fixed marker, which makes the digests of
 * the functions involved depend on the traversal entry point rather than
 * on content alone; such functions land in `cyclic` and must not be
 * shared through the cache (they are infeasible to estimate anyway). */
struct EstimateDigests
{
    std::map<Operation *, std::string> digest;
    /** Functions whose digest folded a cycle marker (directly or through
     * a callee): content does not fully determine their digest. */
    std::set<Operation *> cyclic;
};

/** Digest @p func and its transitive callees into @p out (functions
 * already present are kept). Digesting only the reachable set keeps the
 * DSE hot path from serializing unrelated functions of a multi-kernel
 * module on every evaluated point. */
void addFuncEstimateDigests(Operation *func, Operation *module,
                            EstimateDigests &out);

/** Digests of every function in @p module. */
EstimateDigests moduleEstimateDigests(Operation *module);

/** The distinct functions called (directly, at any nesting depth) from
 * @p func, in call-site appearance order. Shared by digesting, callee
 * prefetching, and any other pass that must see the same callee set —
 * keep call resolution in one place so they cannot diverge. */
std::vector<Operation *> collectDistinctCallees(Operation *func,
                                                Operation *module);

/** A band digest plus the context the incremental-materialization fast
 * path needs to interpret cache entries keyed by it. */
struct BandDigestInfo
{
    std::string digest;
    /** Every value defined outside the band, in serializer-id order:
     * digest-equal bands assign identical ids, so an id recorded against
     * one band instance resolves to the corresponding value of any
     * other. */
    std::vector<Value *> externals;
};

/** Canonical estimate digest of one top-level loop band: the band's op
 * tree (structure, directives, operand wiring, types) plus, for every
 * value defined OUTSIDE the band, its type and enough of its definition
 * (constant value / alloc / argument) to make the digest
 * content-determined. Two bands with equal digests are guaranteed to
 * estimate identically, even across different functions. External
 * memrefs are digested by their full type, partition layout included.
 *
 * Returns nullopt when the band is not content-determined from the
 * serializer's point of view — it contains a func.call (the estimate
 * would depend on callee bodies) or references an external value with an
 * unrecognized defining op — in which case the band must not be shared
 * through the cache.
 *
 * @p ownership (optional) folds each external local buffer's ownership
 * note (kept/dead, see AllocOwnershipInfo::digestNote) into the digest.
 * Phase-1 (schedule-tier) digests of alloc-carrying functions need this:
 * whether the write-only-buffer cleanup erases a buffer — and with it
 * the band's stores — depends on the buffer's users in OTHER bands,
 * which the band's own subtree cannot see. */
std::optional<BandDigestInfo> bandEstimateDigestInfo(
    Operation *band_root, const AllocOwnershipInfo *ownership = nullptr);

/** Digest-only convenience wrapper over bandEstimateDigestInfo. */
std::optional<std::string> bandEstimateDigest(Operation *band_root);

/** The reusable half of a band's PLAN key (plan-first evaluation): the
 * digest state of the PRISTINE band's serialization — including
 * ownership notes, which the zero-IR consumer cannot re-validate — plus
 * the pristine external-value table. Computed once per band at planner
 * construction; bandPlanKey() then extends the snapshot with a concrete
 * BandChoice in O(choice) per evaluated point, no IR walk. */
struct BandPlanSeed
{
    uint64_t laneA = 0;
    uint64_t laneB = 0;
    /** The pristine band's externals in first-reference order. Phase-1
     * external ids are translated onto this table through
     * BandPlanOutcome::extMap. */
    std::vector<Value *> externals;
};

/** Seed the plan key of @p band_root (a PRISTINE top-level band).
 * Returns nullopt when the band is not content-determined (same rule as
 * bandEstimateDigestInfo) — such bands cannot be planned. */
std::optional<BandPlanSeed> bandPlanSeed(
    Operation *band_root, const AllocOwnershipInfo *ownership);

/** The full plan key of one (pristine band, BandChoice) pair: the seed
 * extended with the per-band structural-transform parameters. Two equal
 * keys denote band variants whose phase-1 content is provably identical
 * — the transforms are deterministic functions of (pristine subtree,
 * choice). */
std::string bandPlanKey(const BandPlanSeed &seed,
                        bool loop_perfectization,
                        bool remove_variable_bound,
                        const std::vector<unsigned> &perm,
                        const std::vector<int64_t> &tiles,
                        int64_t target_ii);

/** Self-contained estimate of one top-level loop band (embedded in the
 * schedule tier's entries). Latency/interval/feasibility come from the
 * band's loop composition; the resource side is kept DECOMPOSED — the
 * pipelined-leaf contributions are final, but sequential op counts and
 * per-kind profiles are merged at function level, because sequential
 * operator sharing (one instance per kind) spans all bands of a
 * function and is not a per-band quantity. */
struct BandEstimate
{
    int64_t latency = 0;
    int64_t interval = 0;
    bool feasible = true;
    /** Min II the band's memory accesses impose (port pressure over the
     * band's induction variables). Today's sequential/dataflow
     * composition reads only latency + the resource account, but cache
     * entries deliberately stay self-contained — interval and port
     * demand are what any future band-overlapping composition needs,
     * and recomputing them later would require the IR the cache exists
     * to avoid re-walking. */
    int64_t memPortII = 1;
    /** DSP/LUT of pipelined leaves inside the band (shared under each
     * leaf's achieved II; final, summable across bands). */
    ResourceUsage pipelinedCompute;
    /** Per-kind counts of compute ops outside pipelined leaves; the
     * function composition applies instance sharing across bands. */
    std::map<std::string, int64_t> sequentialOps;
    /** First-seen profile per op kind inside the band (pre-order). */
    std::map<std::string, OpProfile> profiles;
    /** Loop / call counts feeding the control-logic LUT overhead. */
    int64_t loops = 0;
    int64_t calls = 0;
};

/** One band's cached phase-2 outcome for the band-incremental
 * materialization fast path, keyed by the band's PHASE-1 digest (the
 * content right after the per-band structural transforms, BEFORE the
 * function-wide cleanup pipeline and array partition ran). The cleanup
 * passes are band-local on fast-path-eligible functions, so the final
 * (post-cleanup) band content — and with it this entry's estimate and
 * partition contribution — is a pure function of the phase-1 digest. The
 * one cross-band coupling, the globally merged array-partition plan, is
 * captured by `assumed` and re-validated against the would-be merged
 * plan at every use, so a replayed QoR is bit-identical to what the
 * skipped slow path would have produced. */
struct BandScheduleEntry
{
    /** The band's final estimate (as computed on the fully materialized
     * module of the point that created this entry). */
    BandEstimate estimate;

    /** One record per memref the band's FINAL content accesses. */
    struct MemrefInfo
    {
        /** The memref's id in the phase-1 digest's external-value
         * numbering (resolved per point via BandDigestInfo::externals). */
        unsigned extId = 0;
        /** Whether the band reads / writes the memref — replays the
         * function-level memory-dependence scheduling across bands. */
        bool read = false;
        bool write = false;
        /** Per-dim partition relevance of the band's final content. */
        std::vector<bool> relevant;
        /** The band's own per-scope partition plan (its contribution to
         * the function-wide max-factor merge). */
        PartitionPlan contribution;
        /** The final merged plan the estimate was computed under —
         * compared on relevant dims only at replay time. */
        PartitionPlan assumed;
    };
    std::vector<MemrefInfo> memrefs;

    /** Provenance label ("func#bandIndex") of the materialization that
     * built the entry. Purely statistical: a consumer passing its own
     * origin to EstimateCache::lookupSchedule counts hits against
     * entries born elsewhere (the crossBandHits stat — e.g. 3mm's
     * symmetric stages sharing one entry). Never part of the key and
     * never affects the replayed QoR. */
    std::string origin;
};

/** A band of the point under evaluation, resolved against its cached
 * schedule entry: `externals` is the CURRENT materialization's id-to-
 * value table (BandDigestInfo::externals of the phase-1 digest). */
struct ScheduledBand
{
    const BandScheduleEntry *entry = nullptr;
    const std::vector<Value *> *externals = nullptr;
};

/** A whole fast-path point resolved against its cached schedule entries:
 * the bands in function body order, the function-level composition mode
 * (sequential dependence scheduling vs dataflow stage overlap), and the
 * function's owned local buffers (phase-1 ownership), whose kept
 * survivors the composed resource account must charge for — with
 * ping-pong double buffering under a dataflow top. */
struct ScheduledFunction
{
    std::vector<ScheduledBand> bands;
    /** The function carries the dataflow directive: interval = slowest
     * stage, latency = summed stages, double-buffered channel memory. */
    bool dataflow = false;

    /** One owned local buffer of the function under evaluation. */
    struct OwnedAlloc
    {
        Value *memref = nullptr;
        /** Phase-1 prediction: cleanup keeps the buffer (some user
         * reads it) — kept buffers are charged to the memory account
         * under the re-derived merged partition plan. */
        bool kept = false;
    };
    std::vector<OwnedAlloc> allocs;
};

/** Latency / throughput / resource estimate of a design. */
struct QoRResult
{
    int64_t latency = 0;  ///< Cycles to process one invocation / frame.
    int64_t interval = 0; ///< Cycles between successive frames.
    ResourceUsage resources;
    bool feasible = true; ///< False when analysis failed (unknown trips).

    /** True when the design fits the budget. */
    bool
    fits(const ResourceBudget &budget) const
    {
        return budget.fits(resources);
    }
};

/** Analytical QoR estimator over the directive-level IR.
 *
 * Thread-safety: estimation only READS the IR — it never writes
 * attributes or touches global state. The per-function core
 * (estimateFuncImpl) is pure and re-entrant: every piece of mutable
 * recursion state (call-path guard, completed callee results) lives in
 * an explicit EstimateContext, never in the instance. That purity is
 * what enables the two levels of sharing:
 *
 *  - Intra-point parallelism: pass a ThreadPool and the distinct callees
 *    of a multi-function (e.g. dataflow) design estimate concurrently,
 *    each on its own context; the sequential latency/interval
 *    composition joins them. Results are bit-identical at any thread
 *    count because per-function estimation is a pure function of the IR.
 *  - Cross-point reuse: pass a shared EstimateCache and per-function
 *    results are published under content-derived (name, digest) keys, so
 *    other DSE workers evaluating points with identical function content
 *    reuse them instead of re-walking the IR. A function-tier miss
 *    walks every band of the function.
 *
 * The instance-level memo (estimateFunc results across public calls) is
 * still unsynchronized: share the EstimateCache across threads, not one
 * QOREstimator instance. */
class QoREstimator
{
  public:
    /** @p pool (optional, not owned) fans callee estimation out;
     * @p shared (optional, not owned) is the cross-point cache, used at
     * its function tier. */
    explicit QoREstimator(Operation *module, ThreadPool *pool = nullptr,
                          EstimateCache *shared = nullptr)
        : module_(module), pool_(pool), shared_(shared)
    {}

    QoREstimator(const QoREstimator &) = delete;
    QoREstimator &operator=(const QoREstimator &) = delete;

    /** Estimate a function (memoized; call invalidate() after rewrites). */
    QoRResult estimateFunc(Operation *func);

    /** Estimate the module's top function. */
    QoRResult estimateModule();

    /** The per-band estimates of the most recent estimateFunc run, keyed
     * by band root. The evaluator reads these to build schedule-tier
     * entries without re-walking the IR or round-tripping the cache. */
    const std::map<Operation *, BandEstimate> &lastBandEstimates() const
    {
        return last_bands_;
    }

    /** Drop memoized function estimates and digests (the shared
     * EstimateCache itself is content-keyed and never needs
     * invalidation, but digests must be recomputed so rewritten
     * functions are keyed by their new content). */
    void
    invalidate()
    {
        cache_.clear();
        digests_.digest.clear();
        digests_.cyclic.clear();
    }

  private:
    /** Explicit recursion state of one estimation run. Each concurrent
     * callee estimation gets its own context (seeded with the parent call
     * path), so the core never races on hidden members. */
    struct EstimateContext
    {
        /** Functions on the current call path (recursion guard). */
        std::set<const Operation *> active;
        /** Completed per-function results of this run. */
        std::map<Operation *, QoRResult> memo;
        /** Completed band estimates of this run, so the latency walk and
         * the resource walk of one function share a single band
         * computation. */
        std::map<Operation *, BandEstimate> bands;
    };

    struct LoopEstimate
    {
        int64_t latency = 0;
        int64_t interval = 0;
        bool feasible = true;
    };
    struct BlockEstimate
    {
        int64_t latency = 0;
        bool feasible = true;
    };

    /** The pure per-function core. Assumes @p func is already marked
     * active in @p ctx; callees go through calleeEstimate(). */
    QoRResult estimateFuncImpl(Operation *func, EstimateContext &ctx);

    /** Estimate a callee: context memo, then shared cache, then a fresh
     * estimateFuncImpl run. A call cycle yields the infeasible
     * placeholder (latency 1, feasible=false); callers must propagate
     * infeasibility, not the placeholder latency. */
    QoRResult calleeEstimate(Operation *callee, EstimateContext &ctx);

    /** Estimate the not-yet-memoized distinct callees of @p func
     * concurrently over pool_ (no-op without a multi-thread pool). */
    void prefetchCallees(Operation *func, EstimateContext &ctx);

    BlockEstimate estimateBlock(Block *block, EstimateContext &ctx);
    LoopEstimate estimateLoop(Operation *loop, EstimateContext &ctx);
    int64_t opLatency(Operation *op, EstimateContext &ctx);

    /** The per-band core: latency/II of @p band_root plus the band's
     * decomposed resource account, memoized in @p ctx. */
    const BandEstimate &estimateBand(Operation *band_root,
                                     EstimateContext &ctx);

    /** Fold the compute-resource account of @p scope (pipelined-leaf
     * sharing, sequential op counts, loop/call counts) into @p out.
     * Scope is a top-level band root or any other func-body op. */
    void accountCompute(Operation *scope, BandEstimate &out);

    /** Minimum legal II of a pipelined loop body given recurrences and
     * memory port pressure (paper's achievable-II analysis). */
    int64_t minLoopII(const std::vector<Operation *> &band,
                      Operation *pipelined);

    /** Resource usage of a function (compute sharing under II, memories,
     * sub-function instances). */
    ResourceUsage funcResources(Operation *func, EstimateContext &ctx);

    /** Digest @p func's reachable set if not yet digested. Called only
     * from the single-threaded public entry, BEFORE any fan-out; workers
     * then read digests_ concurrently but never write it. Only needed
     * with a shared cache. */
    void ensureDigests(Operation *func);
    /** The shared-cache key of @p func ("" when caching is off, the
     * function was not digested, or its digest folded a call cycle and
     * is therefore not content-determined). */
    std::string sharedKeyOf(Operation *func) const;

    Operation *module_;
    ThreadPool *pool_ = nullptr;
    EstimateCache *shared_ = nullptr;
    EstimateDigests digests_;
    std::map<Operation *, QoRResult> cache_;
    std::map<Operation *, BandEstimate> last_bands_;
};

/** The function-level half of the resource model, shared between
 * funcResources (slow path) and composeScheduledQoR (fast path) so the
 * cross-band operator-sharing merge cannot drift between them: pipelined
 * contributions sum directly, sequential op counts merge per kind (with
 * the first-seen profile, in band order) before instance sharing, and
 * loop/call counts feed the control-logic LUT overhead. */
class BandResourceMerge
{
  public:
    /** Fold one band's (or glue scope's) account in; call in function
     * body order so per-kind profile selection stays deterministic. */
    void add(const BandEstimate &band);
    /** The merged compute usage: shared sequential instances (one per
     * kind, or ceil(count / target_ii) under function pipelining) plus
     * the control-logic overhead. */
    ResourceUsage finish(bool func_pipelined, int64_t target_ii) const;

  private:
    ResourceUsage usage_;
    std::map<std::string, int64_t> rest_;
    std::map<std::string, OpProfile> profiles_;
    int64_t loops_ = 0;
    int64_t calls_ = 0;
};

/** Compose the whole-function QoR of a fast-path point from its bands'
 * cached schedule entries, replaying exactly what estimateFuncImpl does
 * on a fast-path-eligible function (no callees, no flat-scope accesses,
 * every local buffer owned): the function-body composition over band
 * latencies — sequential dependence scheduling, or the dataflow stage
 * overlap (interval = max over stages) under a dataflow top — plus the
 * operator-sharing resource merge and the kept-buffer memory account
 * (double buffered under dataflow). First re-derives the function-wide
 * partition plans from the entries' contributions (the same max-factor
 * merge applyArrayPartition would run) and validates every entry's
 * `assumed` plan against them on partition-relevant dims, and the
 * entries' buffer accesses against the phase-1 ownership prediction;
 * returns nullopt — caller falls back to the full slow path — when any
 * validation fails or an entry cannot be resolved. A returned QoR is
 * bit-identical to the slow path's. */
std::optional<QoRResult> composeScheduledQoR(
    const ScheduledFunction &function);

/** Build the schedule entry of @p band_root (a top-level band of a fully
 * materialized, fast-path-eligible function) from its final estimate and
 * the phase-1 external-value table @p externals. Returns nullopt when
 * the band's accesses cannot be mapped back onto the phase-1 externals
 * (the entry would not be replayable). */
std::optional<BandScheduleEntry> buildBandScheduleEntry(
    Operation *band_root, const BandEstimate &estimate,
    const std::vector<Value *> &externals);

/** Memory port pressure (min II imposed by bank conflicts) of the accesses
 * inside @p scope, normalized over @p band_ivs. Shared helper for the
 * estimator and the virtual HLS synthesizer. */
int64_t memoryPortII(Operation *scope, const std::vector<Value *> &band_ivs);

/** Longest def-use path latency (cycles) from @p read's result to
 * @p store's stored value, both inclusive; 0 when no path exists. */
int64_t recurrencePathLatency(Operation *read, Operation *store);

/** Total dynamically executed arithmetic operation count of a function
 * (compute ops weighted by enclosing trip counts), for OP/cycle metrics. */
int64_t dynamicOpCount(Operation *func, Operation *module);

} // namespace scalehls

#endif // SCALEHLS_ESTIMATE_QOR_ESTIMATOR_H
