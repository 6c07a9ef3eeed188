/**
 * @file
 * The top-level ScaleHLS compiler driver: end-to-end flows from HLS C or
 * graph-level models to optimized, synthesizable HLS C++, mirroring the
 * scalehls-clang / scalehls-opt / scalehls-translate tool trio of the
 * paper behind one programmatic API.
 */

#ifndef SCALEHLS_API_SCALEHLS_H
#define SCALEHLS_API_SCALEHLS_H

#include <memory>
#include <optional>
#include <string>

#include "api/explore_request.h"
#include "dse/dse_engine.h"
#include "dse/global_alloc.h"
#include "emit/hlscpp_emitter.h"
#include "estimate/qor_estimator.h"
#include "frontend/irgen.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "model/graph_builder.h"
#include "model/lower_graph.h"
#include "transform/pass.h"
#include "vhls/synthesizer.h"

namespace scalehls {

/** End-to-end compiler over one module. */
class Compiler
{
  public:
    /** Parse HLS C (the scalehls-clang path) and raise to affine. */
    static Compiler fromC(const std::string &source,
                          const std::string &top_func = "");
    /** Adopt an existing module (e.g. a graph-level model). */
    explicit Compiler(std::unique_ptr<Operation> module);

    Operation *module() { return module_.get(); }
    /** Release ownership of the module. */
    std::unique_ptr<Operation> takeModule() { return std::move(module_); }

    /** @name DNN multi-level flow (paper Section VII-B) */
    ///@{
    /** Graph optimization at level 1..7: dataflow legalization followed by
     * function splitting; larger levels give finer dataflow granularity
     * (G7 = one stage per layer). Levels >= 4 insert copy nodes
     * (aggressive legalization). */
    Compiler &applyGraphOpt(int level);
    /** Bufferize graph ops into affine loop nests. */
    Compiler &lowerToLoops();
    /** Loop optimization at level 1..7: unroll the innermost loops of
     * every band by a total factor of 2^(level-1) (via tiling, paper-style:
     * intra-tile loops absorbed innermost). */
    Compiler &applyLoopOpt(int level);
    /** Directive optimization: pipeline the innermost loop of every band
     * with @p target_ii, partition arrays, and clean up the IR. */
    Compiler &applyDirectiveOpt(int64_t target_ii = 1);
    ///@}

    /** Redundancy-elimination pipeline (paper Section V-D). */
    Compiler &applySimplifications();

    /** Automated DSE under a resource budget (paper Section V-E). On
     * success the module is replaced by the optimized design.
     * `request.dse.numThreads` workers evaluate design points in
     * parallel; results are deterministic for a fixed `request.dse.seed`
     * regardless of the thread count. The request should have passed
     * validate() (the Compiler uses the resolved `request.budget`). */
    std::optional<DSEResult> optimize(const ExploreRequest &request);

    /** Per-function outcome of optimizeFunctions. `qor.feasible` tells
     * whether a design fitting the kernel's budget share was found (an
     * infeasible result carries the kInfeasibleQoR sentinel). The
     * DSEStats base holds the kernel exploration's counters. */
    struct FuncDSEResult : DSEStats
    {
        std::string func;          ///< Function symbol name.
        DesignSpace::Point point;  ///< Chosen design point.
        QoRResult qor;
        /** The kernel's full evaluated Pareto frontier (ascending
         * latency), retained with decoded schedules and decomposed
         * resources so whole-model composition can re-finalize under a
         * different budget than the per-kernel share. */
        std::vector<FrontierPoint> frontier;
    };

    /** Multi-kernel DSE: run an independent design-space exploration for
     * EVERY function carrying a loop band, concurrently (each kernel's
     * exploration is its own sequential trajectory; the module budget is
     * split evenly across kernels). Functions with a feasible design are
     * replaced in place by their optimized form; the rest are left
     * untouched. Results come back in module function order and are
     * deterministic for a fixed seed at any thread count. */
    std::vector<FuncDSEResult> optimizeFunctions(
        const ExploreRequest &request);

    /** Per-stage outcome of optimizeModel: one entry per call in the
     * dataflow top's body, in body order. The DSEStats base holds the
     * stage exploration's counters (zero for fixed stages). */
    struct ModelStageResult : DSEStats
    {
        std::string func; ///< Stage function symbol name.
        /** True when the stage was explored (banded, uniquely called);
         * false stages keep their baseline design. */
        bool kernel = false;
        /** Chosen frontier index (kernel stages; npos otherwise). */
        size_t chosen = static_cast<size_t>(-1);
        /** The chosen stage design's QoR (callee-level — the call-site
         * +1 overhead is NOT included here). */
        QoRResult qor;
        /** Kernel stages: the retained frontier the allocator chose
         * from. Empty for fixed stages. */
        std::vector<FrontierPoint> frontier;
    };

    /** Whole-model outcome of optimizeModel. The DSEStats base is the
     * sum of the kernel stages' counters. */
    struct ModelDSEResult : DSEStats
    {
        std::vector<ModelStageResult> stages;
        /** The exchange-refined latency-balancing allocation. */
        GlobalAllocation allocation;
        /** The naive uniform-budget-split baseline (for comparison; the
         * module is stitched from `allocation`, never from this). */
        GlobalAllocation uniform;
        /** Composed QoR predicted from the retained frontiers (glue and
         * fixed shares derived from the baseline estimate). */
        QoRResult composed;
        /** QoR measured by re-estimating the stitched module with the
         * real estimator — the authoritative number. */
        QoRResult measured;
        /** True when composed == measured bit-identically (latency,
         * interval, feasibility and all four resource fields). */
        bool composedVerified = false;
        /** True when the stitched module passed the IR verifier and
         * every materialized stage re-estimated to its frontier QoR. */
        bool verified = false;
        double seconds = 0;
    };

    /** Whole-model graph-level DSE (paper Section VII-B): explore every
     * kernel stage of the module's dataflow top concurrently (the
     * optimizeFunctions per-kernel stage, but retaining full frontiers
     * instead of finalizing against an even split), then allocate the
     * GLOBAL device budget across stages with the latency-balancing
     * knapsack (dse/global_alloc.h), stitch the chosen designs back and
     * re-verify: the composed module runs through the IR verifier and
     * the real QoREstimator, so the reported QoR is measured, never
     * merely summed. The module must carry a dataflow top function with
     * at least one call. Returns nullopt on structural failure; an
     * in-budget-infeasible model comes back with
     * `allocation.feasible == false` and the module untouched.
     * Deterministic for a fixed seed at any thread count. */
    std::optional<ModelDSEResult> optimizeModel(const ExploreRequest &request);

    /** Fast analytical QoR estimate of the current module. */
    QoRResult estimate();
    /** Virtual downstream synthesis (the Vivado HLS substitute). */
    SynthesisReport synthesize(const ResourceBudget &budget);
    /** Emit synthesizable HLS C++. */
    std::string emitCpp() { return emitHlsCpp(module_.get()); }
    /** Textual IR (debugging / examples). */
    std::string printIR() { return printOp(module_.get()); }

    /** Seconds spent in transform passes so far (paper's runtime column,
     * collected like -pass-timing). */
    double optSeconds() const { return opt_seconds_; }

  private:
    /** Time a transform and accumulate into opt_seconds_. */
    template <typename Fn>
    void
    timed(Fn &&fn)
    {
        auto start = std::chrono::steady_clock::now();
        fn();
        opt_seconds_ += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    }

    std::unique_ptr<Operation> module_;
    double opt_seconds_ = 0;
};

} // namespace scalehls

#endif // SCALEHLS_API_SCALEHLS_H
