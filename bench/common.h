/**
 * @file
 * Shared helpers for the experiment harnesses: table formatting and the
 * standard DSE invocation used across Table III / IV and Fig. 6 / 7.
 */

#ifndef SCALEHLS_BENCH_COMMON_H
#define SCALEHLS_BENCH_COMMON_H

#include <cstdio>
#include <string>

#include "api/scalehls.h"
#include "support/utils.h"
#include "model/polybench.h"

namespace scalehls {
namespace bench {

/** Format a permutation / tile-size list like the paper: "[1, 2, 0]". */
inline std::string
listString(const std::vector<unsigned> &values)
{
    return "[" + join(values, ", ") + "]";
}
inline std::string
listString(const std::vector<int64_t> &values)
{
    return "[" + join(values, ", ") + "]";
}

/** The outcome of one kernel DSE run. */
struct KernelResult
{
    std::string kernel;
    int64_t problemSize = 0;
    double speedup = 0;
    int64_t baselineLatency = 0;
    int64_t optimizedLatency = 0;
    DesignSpace::Decoded params;
    std::string partition;
    QoRResult qor;
    size_t evaluations = 0;
    double seconds = 0;
    std::unique_ptr<Operation> module;
};

/** Run the automated DSE on one PolyBench kernel (paper Section VII-A). */
inline KernelResult
runKernelDSE(const std::string &kernel, int64_t n,
             const ResourceBudget &budget, unsigned samples = 80,
             unsigned iterations = 240, int64_t max_unroll = 256)
{
    KernelResult result;
    result.kernel = kernel;
    result.problemSize = n;

    auto module = parseCToModule(polybenchSource(kernel, n));
    raiseScfToAffine(module.get());
    QoREstimator baseline(module.get());
    result.baselineLatency = baseline.estimateModule().latency;

    DesignSpaceOptions space_options;
    space_options.maxTileSize = 64;
    space_options.maxTotalUnroll = max_unroll;
    DSEOptions options;
    options.numInitialSamples = samples;
    options.maxIterations = iterations;

    DesignSpace space(module.get(), space_options);
    DSEEngine engine(space, options);
    auto frontier = engine.explore();
    auto chosen = DSEEngine::finalize(frontier, budget);
    if (!chosen)
        return result;

    result.params = space.decode(chosen->point);
    result.qor = chosen->qor;
    result.optimizedLatency = chosen->qor.latency;
    result.speedup = static_cast<double>(result.baselineLatency) /
                     static_cast<double>(result.optimizedLatency);
    result.evaluations = engine.stats().evaluations;
    result.module = space.materialize(chosen->point);
    if (result.module)
        result.partition = DesignSpace::partitionSummary(
            result.module.get());
    return result;
}

} // namespace bench
} // namespace scalehls

#endif // SCALEHLS_BENCH_COMMON_H
