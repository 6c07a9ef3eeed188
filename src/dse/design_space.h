/**
 * @file
 * The multi-dimensional design space of one HLS kernel (paper Section V-E):
 * each dimension is the on/off switch or tunable parameter of a transform
 * pass — loop perfectization, variable-bound removal, and, PER top-level
 * loop band, the loop order, tile size per loop, and pipeline II. Array
 * partitioning is derived automatically from the access pattern of each
 * materialized point.
 */

#ifndef SCALEHLS_DSE_DESIGN_SPACE_H
#define SCALEHLS_DSE_DESIGN_SPACE_H

#include <memory>
#include <random>

#include "estimate/qor_estimator.h"
#include "transform/pass.h"

namespace scalehls {

/** Options bounding the constructed space. */
struct DesignSpaceOptions
{
    int64_t maxTileSize = 64;      ///< Per-loop tile (unroll) cap.
    int64_t maxTotalUnroll = 512;  ///< Cap on the tile-size product PER BAND.
    int64_t maxII = 64;            ///< Largest candidate target II.
};

/** The tunable design space of a kernel function with one or more
 * top-level loop bands (multi-stage kernels like 2mm/3mm get per-band
 * order/tile/II dimensions; the historical single-band layout is the
 * one-band special case).
 *
 * Thread-safety: every const method (decode, materialize, neighbors,
 * randomPoint, canonicalSeedPoints, ...) is re-entrant — materialization
 * clones the pristine module per call and mutates only the clone — so
 * concurrent evaluation of distinct points through a shared DesignSpace
 * is safe. QoR evaluation/memoization lives in dse/evaluator.h. */
class DesignSpace
{
  public:
    /** A point: one ordinal per dimension. */
    using Point = std::vector<int>;

    /** @name Dimension layout
     * The first dimensions are the two legalization switches; then, for
     * each top-level band in function body order: the loop-order
     * permutation, one tile dimension per loop, and the pipeline II.
     * Use these accessors instead of magic indices. */
    ///@{
    size_t dimLoopPerfectization() const { return 0; }
    size_t dimRemoveVariableBound() const { return 1; }
    size_t dimPermutation(size_t band) const
    {
        return bands_[band].firstDim;
    }
    size_t dimFirstTile(size_t band) const
    {
        return bands_[band].firstDim + 1;
    }
    size_t dimTargetII(size_t band) const
    {
        return bands_[band].firstDim + 1 + bands_[band].tripCounts.size();
    }
    ///@}

    /** @p module is the unoptimized affine-level module; its top function
     * must contain at least one top-level loop band. */
    DesignSpace(Operation *module, DesignSpaceOptions options = {});

    /** Number of dimensions: 2 (LP, RVB) + per band (1 permutation +
     * #loops tile sizes + 1 II). */
    size_t numDims() const { return dim_sizes_.size(); }
    const std::vector<int> &dimSizes() const { return dim_sizes_; }
    /** Total number of design points. */
    double spaceSize() const;
    /** Number of tunable top-level bands. */
    size_t numBands() const { return bands_.size(); }
    /** Number of loops in band @p band. */
    size_t bandDepth(size_t band) const
    {
        return bands_[band].tripCounts.size();
    }
    /** Number of loops in the deepest (primary) band. */
    size_t bandDepth() const
    {
        return bands_[primaryBandIndex()].tripCounts.size();
    }

    Point randomPoint(std::mt19937 &rng) const;
    /** All ±1 single-dimension neighbors of @p point. */
    std::vector<Point> neighbors(const Point &point) const;

    /** The canonical seed points: the baseline schedule under each
     * combination of the legalization switches. These guarantee the
     * neighbor traversal a feasible frontier even when random tiles are
     * mostly illegal. */
    std::vector<Point> canonicalSeedPoints() const;

    /** The decoded schedule of one band. */
    struct BandChoice
    {
        std::vector<unsigned> permMap;
        std::vector<int64_t> tileSizes;
        int64_t targetII;
    };

    /** The decoded parameters of a point (for reporting, Table III). */
    struct Decoded
    {
        bool loopPerfectization;
        bool removeVariableBound;
        /** Per-band schedules, in function body order. */
        std::vector<BandChoice> bands;
        /** @name Primary-band view
         * The deepest band's schedule, mirrored for single-band
         * reporting (Table III kernels have exactly one band). */
        ///@{
        std::vector<unsigned> permMap;
        std::vector<int64_t> tileSizes;
        int64_t targetII;
        ///@}
    };
    Decoded decode(const Point &point) const;

    /** Clone the pristine module and apply the point's schedule: LP, RVB,
     * then per band permutation, tiling, pipelining, followed by
     * simplification and array partition. Returns nullptr when the point
     * is not materializable (e.g. unroll product too large, pipelining
     * fails). Equivalent to finishMaterialize(beginMaterialize(point)). */
    std::unique_ptr<Operation> materialize(const Point &point) const;

    /** Phase 1 of a materialization: the per-band structural transforms
     * (LP/RVB, permutation, tiling, pipelining) plus the bookkeeping the
     * schedule cache tier needs — each band's phase-1 digest. Phase 2
     * (finishMaterialize) runs the function-wide cleanup pipeline and
     * array partition; after it, the evaluator publishes one schedule
     * entry per digested band for the planner to compose from. */
    struct Partial
    {
        /** Phase-1 module; nullptr when the point is not
         * materializable. */
        std::unique_ptr<Operation> module;
        Operation *func = nullptr;
        /** The function passes the band-locality rule (see
         * bandLocalOwnership), so per-band schedule entries keyed by
         * phase-1 digests are publishable. */
        bool funcEligible = false;
        /** Per-band phase-1 digests of func's top-level bands, in body
         * order (filled when funcEligible): the per-band eligibility
         * mask — a nullopt band (e.g. one containing a call) neither
         * populates nor consumes the schedule tier, but its digestable
         * siblings still do. */
        std::vector<std::optional<BandDigestInfo>> bandDigests;
        /** Ownership of the function's local buffers (valid when
         * funcEligible). */
        AllocOwnershipInfo ownership;
    };
    Partial beginMaterialize(const Point &point) const;
    /** Phase 2: function-wide cleanup + array partition, in place;
     * returns the finished module (nullptr when phase 1 failed). */
    std::unique_ptr<Operation> finishMaterialize(Partial &partial) const;

    /** True when phase 2 preserved the phase-1 ownership prediction: the
     * surviving allocs of the (finished) function are exactly the
     * buffers the analysis predicted kept. Publishing schedule entries
     * from a point whose cleanup diverged from the prediction would key
     * band content the phase-1 digest does not determine; callers must
     * check this before insertSchedule. */
    static bool finalOwnershipMatches(const Partial &partial);

    /** Per-memref partition factors of a materialized design, formatted
     * like Table III ("A:[8, 16]"). */
    static std::string partitionSummary(Operation *module);

    /** The pristine (untransformed) module every materialization clones.
     * Callers must treat it as immutable — the plan-first evaluator
     * reads it concurrently from every DSE worker. */
    Operation *pristineModule() const { return pristine_.get(); }

    /** @name Materialization rules
     * The rules phase 1 applies, shared with the planner
     * (dse/band_plan.h), which must decide exactly what a
     * materialization would. */
    ///@{
    /** True when some band's tile-size product exceeds maxTotalUnroll:
     * the point is rejected before any IR is built. */
    bool exceedsUnrollCap(const Decoded &decoded) const;
    /** The per-band phase-1 transforms of @p decoded's band @p band on
     * the band rooted at @p root: LP, RVB (LP again once both made the
     * bounds constant), then the band's permutation, tiling and
     * pipelining. Returns the transformed band's root, or nullptr when a
     * transform fails (the point is not materializable). */
    static Operation *scheduleBand(Operation *root, const Decoded &decoded,
                                   size_t band);
    /** The function-level band-locality rule: @p func (with top-level
     * band roots @p band_roots) carries no pipeline directive, its body
     * is bands, constants, allocs and the return only, and every local
     * buffer is owned (bandLocalAllocs). Exactly then the cleanup
     * pipeline is band-local, so per-band schedule entries compose to
     * the full pipeline's QoR. Returns the ownership of func's local
     * buffers when the rule holds, nullopt otherwise. */
    static std::optional<AllocOwnershipInfo> bandLocalOwnership(
        Operation *func, const std::vector<Operation *> &band_roots);
    ///@}

  private:
    /** The tunable sub-space of one top-level band. */
    struct BandSpace
    {
        size_t firstDim; ///< Index of this band's permutation dimension.
        std::vector<std::vector<unsigned>> permutations;
        std::vector<std::vector<int64_t>> tileCandidates;
        std::vector<int64_t> tripCounts;
    };

    /** The deepest band (ties resolved to the first). */
    size_t primaryBandIndex() const;

    std::unique_ptr<Operation> pristine_;
    DesignSpaceOptions options_;
    std::vector<int> dim_sizes_;
    std::vector<BandSpace> bands_;
    std::vector<int64_t> ii_candidates_;
};

} // namespace scalehls

#endif // SCALEHLS_DSE_DESIGN_SPACE_H
