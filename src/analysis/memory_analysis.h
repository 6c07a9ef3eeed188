/**
 * @file
 * Memory analyses: access collection and normalization against a loop band,
 * the array-partition metric of paper Eq. (1), partition layout-map
 * encoding/decoding, and loop-carried recurrence detection used to bound
 * the achievable pipeline II.
 */

#ifndef SCALEHLS_ANALYSIS_MEMORY_ANALYSIS_H
#define SCALEHLS_ANALYSIS_MEMORY_ANALYSIS_H

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/loop_analysis.h"

namespace scalehls {

/** linearClass of a subscript that is not linear (mod/div/symbols). */
inline constexpr int32_t kNonLinearSubscript = -1;

/** A memory access with its subscripts expressed over band IVs
 * (d0 = outermost band loop). `normalized` is false when some subscript
 * refers to a value outside the band (the access is then treated
 * conservatively).
 *
 * `linearClass[d]` numbers the linear part (the dim-coefficient vector)
 * of subscript d among all subscripts of one collectAccesses result, or
 * is kNonLinearSubscript. Two subscripts of one result with equal
 * classes differ by a known constant — the difference of their
 * linear-form constants — and subscripts of different classes never
 * do, so the analyses bucket by class instead of comparing pairs. */
struct MemAccess
{
    Operation *op = nullptr;
    Value *memref = nullptr;
    bool isWrite = false;
    bool normalized = false;
    std::vector<AffineExpr> indices;
    std::vector<int32_t> linearClass;

    /** The linear-form constant of subscript @p d (meaningful when
     * linearClass[d] is a class). */
    int64_t constant(unsigned d) const { return indices[d]->linConst; }
};

/** Collect all affine/memref accesses nested in @p scope and express their
 * subscripts over @p band_ivs, with subscript classes assigned. */
std::vector<MemAccess> collectAccesses(Operation *scope,
                                       const std::vector<Value *> &band_ivs);

/** The access analysis of one evaluation: collectAccesses of each
 * (scope op, IV list) pair, built on first request and then shared by
 * every consumer — the planner's partition merge, the band estimate,
 * each pipelined leaf's II (port pressure and recurrences) and the
 * schedule entry's partition relevance.
 *
 * The owner builds the table after the evaluation's last IR mutation
 * and drops it when the evaluation ends: an entry goes stale when an op
 * under its scope is erased or rewritten. Memref types may still change
 * in between (array partition re-types values), because MemAccess never
 * reads them. Thread-safe: the estimator's concurrent callee estimation
 * shares one table; entries are built outside the lock. */
class AccessTable
{
  public:
    /** collectAccesses(@p scope, @p ivs), built once. The reference
     * lives as long as the table. */
    const std::vector<MemAccess> &get(Operation *scope,
                                      const std::vector<Value *> &ivs);

    /** collectAccesses calls so far: equal to size() unless two
     * threads raced to build one entry. */
    size_t builds() const;
    /** Distinct (scope, IV list) pairs held. */
    size_t size() const;

  private:
    struct Entry
    {
        std::vector<Value *> ivs;
        std::vector<MemAccess> accesses;
    };
    /** The built entry of (@p scope, @p ivs), or null; mutex_ held. */
    const Entry *find(Operation *scope,
                      const std::vector<Value *> &ivs) const;

    mutable std::mutex mutex_;
    /** Per scope op, one entry per distinct IV list (rarely more than
     * two: the band's nest IVs and a pipelined chain's). */
    std::unordered_map<Operation *, std::vector<std::unique_ptr<Entry>>>
        entries_;
    size_t builds_ = 0;
};

/** The address key of a normalized access whose subscripts are all
 * linear: (class, constant) per dim. Equal keys of one collectAccesses
 * result mean identical addresses every iteration. */
using LinearSubscriptKey = std::vector<std::pair<int32_t, int64_t>>;

/** @p access's LinearSubscriptKey, or nullopt when it is not normalized
 * or some subscript is not linear. */
std::optional<LinearSubscriptKey> linearSubscriptKey(const MemAccess &access);

/** Hash of a LinearSubscriptKey, for unordered containers. */
struct LinearSubscriptKeyHash
{
    size_t operator()(const LinearSubscriptKey &key) const;
};

/** True when both subscript vectors are structurally equal. */
bool sameSubscripts(const MemAccess &a, const MemAccess &b);

/** Structural hash of @p access's subscript vector: accesses with
 * sameSubscripts hash equally. */
uint64_t subscriptsHash(const MemAccess &access);

/** Accesses of one memref, pointing into a collectAccesses result. */
using AccessGroup = std::vector<const MemAccess *>;

/** Group accesses by accessed memref (deterministic order of first use).
 * The groups point into @p accesses. */
std::vector<std::pair<Value *, AccessGroup>>
groupByMemRef(const std::vector<MemAccess> &accesses);

/** Array partition fashions supported by downstream HLS tools. */
enum class PartitionKind { None, Cyclic, Block };

/** A per-dimension partition plan for one array. */
struct PartitionPlan
{
    std::vector<PartitionKind> kinds;
    std::vector<int64_t> factors;

    /** Total number of physical banks. */
    int64_t totalBanks() const;
    bool isTrivial() const;
};

/** Compute the partition plan for a memref from its accesses using the
 * enhanced metric of paper Eq. (1): for dimension d,
 * P = Accesses / (max pairwise index distance + 1); cyclic when P >= 1,
 * block otherwise, with the factor set to the unique-access count
 * (clamped to the dimension size). */
PartitionPlan computePartitionPlan(Value *memref,
                                   const AccessGroup &accesses);

/** Encode a plan as the 2N-result affine layout map of paper Fig. 3:
 * results 0..N-1 are partition (bank) indices, results N..2N-1 physical
 * indices. */
AffineMap buildPartitionMap(const PartitionPlan &plan,
                            const std::vector<int64_t> &shape);

/** Decode a 2N-result layout map back into a plan (identity/empty maps
 * decode to the trivial plan). */
PartitionPlan decodePartitionMap(const AffineMap &map,
                                 const std::vector<int64_t> &shape);

/** Bank index expressions of an access under a partition layout: composes
 * the first N layout results with the access subscripts. */
std::vector<AffineExpr> bankIndexExprs(const AffineMap &layout,
                                       const std::vector<AffineExpr>
                                           &indices);

/** A loop-carried memory recurrence between a store and a read of the same
 * address. `carriedLevel` is the band position (0 = outermost) of the
 * innermost loop absent from the shared subscripts; `flatDistance` is the
 * recurrence distance in the fully flattened iteration space (the product
 * of trip counts of loops inner to the carried level). */
struct Recurrence
{
    Operation *store = nullptr;
    Operation *read = nullptr;
    unsigned carriedLevel = 0;
    int64_t flatDistance = 1;
};

/** Canonical string key of an access's subscript vector (linear-form
 * based): equal keys imply identical addresses every iteration. Unlike
 * LinearSubscriptKey it compares across collectAccesses results and
 * covers non-linear subscripts (by their rendering). */
std::string subscriptKey(const MemAccess &access);

/** Per-dimension partition RELEVANCE of every memref accessed inside the
 * band rooted at @p band_root: dimension d of memref M is relevant iff
 * the band-level QoR estimate can read M's partition plan along d. The
 * estimator consults a plan only through bank-conflict grouping
 * (possiblySameBank), which along dimension d compares pairs of
 * normalized, rank-matching accesses whose subscript difference is a
 * known constant — and every partition kind/factor yields the same
 * verdict when that constant is zero. So d is relevant only when some
 * pair, in some scope the estimator queries (the whole band normalized
 * over the nest IVs, plus each pipelined leaf normalized over its
 * flattened chain), has a known NONZERO difference — i.e. some linear
 * subscript class along d holds two different constants. Repartitioning
 * an irrelevant dim provably cannot change the band's estimate, which is
 * what lets a schedule entry's assumed plan be re-validated on relevant
 * dims only (BandScheduleEntry::MemrefInfo::relevant). The analysis
 * reads subscripts only — never layouts. One pass over each scope's
 * accesses. */
using PartitionRelevance = std::map<Value *, std::vector<bool>>;
PartitionRelevance partitionRelevantDims(Operation *band_root,
                                         AccessTable &accesses);

/** Find memory recurrences within @p band (its accesses over the band
 * IVs, read from @p accesses). Only equal-subscript pairs are detected
 * (the dominant recurrence pattern of reduction kernels);
 * non-normalizable accesses conservatively produce a distance-1
 * recurrence. */
std::vector<Recurrence> findRecurrences(const std::vector<Operation *> &band,
                                        AccessTable &accesses);

} // namespace scalehls

#endif // SCALEHLS_ANALYSIS_MEMORY_ANALYSIS_H
