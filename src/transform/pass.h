/**
 * @file
 * The pass framework and the HLS transform-and-analysis library interface.
 *
 * Every optimization exists in two forms (paper Section V):
 *  - a callable, parameterized function (`applyXxx`) operating on a precise
 *    target (a loop band, a function, an array), which the DSE engine tunes;
 *  - a Pass wrapper that traverses the whole IR and applies the transform to
 *    every suitable target (the command-line style interface of Table II).
 */

#ifndef SCALEHLS_TRANSFORM_PASS_H
#define SCALEHLS_TRANSFORM_PASS_H

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/memory_analysis.h"
#include "dialect/ops.h"

namespace scalehls {

/** A module-level transformation pass. */
class Pass
{
  public:
    virtual ~Pass() = default;
    /** The command-line style pass name, e.g. "-affine-loop-tile". */
    virtual std::string name() const = 0;
    /** Run on a module (or any enclosing op). */
    virtual void runOnOperation(Operation *op) = 0;
};

/** Runs a pipeline of passes and records per-pass wall-clock timing
 * (mirrors MLIR's -pass-timing used for the paper's runtime column).
 *
 * With verify-each enabled — the default in Debug builds, forced on/off
 * by setVerifyEach() or the SCALEHLS_VERIFY_EACH env var ("0" disables,
 * anything else enables) — the layered verifier (ir/verifier.h, level
 * Semantic) runs after every pass and a violation aborts with the pass
 * name and the first diagnostics, so the transform that broke an
 * invariant is named instead of a downstream consumer crashing on it. */
class PassManager
{
  public:
    void addPass(std::unique_ptr<Pass> pass)
    {
        passes_.push_back(std::move(pass));
    }

    /** Run all passes in order on @p op. */
    void run(Operation *op);

    /** Override the verify-each default for this manager. */
    void setVerifyEach(bool enable) { verify_each_ = enable; }
    bool verifyEach() const { return verify_each_; }

    /** The build/env default: on in Debug (!NDEBUG) builds, overridable
     * either way via SCALEHLS_VERIFY_EACH. */
    static bool verifyEachDefault();

    /** Per-pass timing in seconds, in execution order. */
    const std::vector<std::pair<std::string, double>> &timings() const
    {
        return timings_;
    }
    /** Total time of the last run() in seconds. */
    double totalSeconds() const;
    /** Formatted timing report. */
    std::string timingReport() const;

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
    std::vector<std::pair<std::string, double>> timings_;
    bool verify_each_ = verifyEachDefault();
};

/** Wrap a callable into a Pass. */
std::unique_ptr<Pass> makePass(std::string name,
                               std::function<void(Operation *)> fn);

//
// Callable transform library (the tunable interfaces of Table II).
//

/** @name Conversion */
///@{
/** Raise scf.for / scf.if / memref accesses with affine-analyzable
 * operands into the affine dialect. Returns true if anything changed. */
bool raiseScfToAffine(Operation *scope);
///@}

/** @name Loop transforms */
///@{
/** -affine-loop-perfectization: sink in-between ops of an imperfect band
 * into the innermost loop, guarding state-modifying ops with first/last
 * iteration affine.if conditions. */
bool applyLoopPerfectization(Operation *outermost);

/** -remove-variable-bound: replace variable (outer-IV dependent) bounds by
 * their constant extremes and guard the body with the original constraint. */
bool applyRemoveVariableBound(Operation *outermost);

/** Permute a perfect band: perm_map[i] is the new position (0 = outermost)
 * of the i-th loop. Fails (returns false) on illegal permutations. */
bool applyLoopPermutation(const std::vector<Operation *> &band,
                          const std::vector<unsigned> &perm_map);

/** -affine-loop-order-opt: pick the legal permutation that maximizes the
 * flattened recurrence distance (pushes dependence-carrying loops outward).
 */
bool applyLoopOrderOpt(const std::vector<Operation *> &band);

/** -affine-loop-tile: tile a perfect band; intra-tile (point) loops are all
 * placed innermost (ready for full unrolling by pipelining). Tile sizes
 * must divide trip counts. Returns the band of tile loops (empty on
 * failure). */
std::vector<Operation *> applyLoopTiling(
    const std::vector<Operation *> &band,
    const std::vector<int64_t> &tile_sizes);

/** -affine-loop-unroll: unroll by @p factor (>= trip count means full
 * unroll and loop removal). The factor must divide the trip count. */
bool applyLoopUnroll(Operation *loop, int64_t factor);
///@}

/** @name Directive transforms */
///@{
/** -loop-pipelining: legalize (fully unroll contained loops), set the
 * pipeline directive with @p target_ii, and mark perfectly wrapping outer
 * loops as flattened. */
bool applyLoopPipelining(Operation *loop, int64_t target_ii);

/** -func-pipelining: fully unroll all loops and pipeline the function. */
bool applyFuncPipelining(Operation *func, int64_t target_ii);

/** -array-partition: detect access patterns (paper Eq. 1) and encode
 * cyclic/block partitions into memref layout maps, inter-procedurally. */
bool applyArrayPartition(Operation *func);

/** Guided variant: force an explicit plan onto one memref. */
void applyPartitionPlan(Value *memref, const PartitionPlan &plan);
///@}

/** @name Redundancy elimination */
///@{
/** -simplify-affine-if over every affine.if in @p scope: one
 * innermost-first sweep (see simplifyAffineIfOp). */
bool applySimplifyAffineIf(Operation *scope);
/** Simplify one affine.if: drop constraints proven always true, inline
 * the then (else) block when the condition always holds (never holds)
 * and erase the if. Returns true if the IR changed; @p op may then be
 * gone. */
bool simplifyAffineIfOp(Operation *op);
bool applyAffineStoreForward(Operation *scope);
bool applySimplifyMemrefAccess(Operation *scope);
/** -canonicalize: constant folding, algebraic identities, DCE. */
bool applyCanonicalize(Operation *scope);
/** -cse: common subexpression elimination on pure ops. */
bool applyCSE(Operation *scope);
/** The cleanup pipeline that follows the loop transforms: canonicalize,
 * simplify-affine-if, store-forward, simplify-memref-access, CSE,
 * canonicalize. */
void applyCleanupPipeline(Operation *scope);
///@}

/** Fuse two adjacent affine loops with identical domains (the `merge`
 * directive of Table I). Returns false when illegal. */
bool applyLoopMerge(Operation *first, Operation *second);
/** Fuse all legal adjacent pairs under @p scope. */
bool applyLoopMergeAll(Operation *scope);

/** Inline one call site (the `inline` directive of Table I). */
bool applyFuncInline(Operation *module, Operation *call);
/** Inline every call of @p callee_name (empty = all), then remove
 * unreachable non-top functions. */
bool applyFuncInlineAll(Operation *module,
                        const std::string &callee_name = "");

/** @name Graph transforms */
///@{
/** -legalize-dataflow: stage-number graph ops so that every edge spans
 * exactly one stage (paper Fig. 4). With @p insert_copy, copy nodes break
 * bypass paths (aggressive); otherwise stages are merged (conservative).
 * Returns false with no changes if the function has no graph ops. */
bool applyLegalizeDataflow(Operation *func, bool insert_copy);

/** -split-function: outline each group of @p min_gran adjacent dataflow
 * stages into a sub-function, replacing them with calls. */
bool applySplitFunction(Operation *module, Operation *func,
                        int64_t min_gran);
///@}

/** @name Pass factories (Table II names) */
///@{
std::unique_ptr<Pass> createRaiseScfToAffinePass();
std::unique_ptr<Pass> createLoopPerfectizationPass();
std::unique_ptr<Pass> createRemoveVariableBoundPass();
std::unique_ptr<Pass> createLoopOrderOptPass();
std::unique_ptr<Pass> createLoopTilePass(std::vector<int64_t> tile_sizes);
std::unique_ptr<Pass> createLoopUnrollPass(int64_t factor);
std::unique_ptr<Pass> createLoopPipeliningPass(int64_t target_ii = 1);
std::unique_ptr<Pass> createFuncPipeliningPass(int64_t target_ii = 1);
std::unique_ptr<Pass> createArrayPartitionPass();
std::unique_ptr<Pass> createSimplifyAffineIfPass();
std::unique_ptr<Pass> createAffineStoreForwardPass();
std::unique_ptr<Pass> createSimplifyMemrefAccessPass();
std::unique_ptr<Pass> createCanonicalizePass();
std::unique_ptr<Pass> createCSEPass();
std::unique_ptr<Pass> createLoopMergePass();
std::unique_ptr<Pass> createFuncInlinePass();
std::unique_ptr<Pass> createLegalizeDataflowPass(bool insert_copy);
std::unique_ptr<Pass> createSplitFunctionPass(int64_t min_gran);
///@}

} // namespace scalehls

#endif // SCALEHLS_TRANSFORM_PASS_H
