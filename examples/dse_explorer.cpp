/**
 * @file
 * Design-space exploration walkthrough: expose the tunable dimensions of
 * a kernel's design space, run the 5-step neighbor-traversing DSE and
 * print the whole Pareto frontier (latency-area tradeoff), then finalize
 * under the device constraint — the machinery behind paper Fig. 6 and
 * Table III.
 */

#include <cstdio>

#include "api/scalehls.h"
#include "support/utils.h"
#include "model/polybench.h"

using namespace scalehls;

int
main()
{
    auto module = parseCToModule(polybenchSource("syr2k", 256));
    raiseScfToAffine(module.get());

    DesignSpaceOptions space_options;
    space_options.maxTileSize = 16;
    space_options.maxTotalUnroll = 128;
    DesignSpace space(module.get(), space_options);

    std::printf("design space of syr2k-256: %zu dimensions, %.2e "
                "points\n",
                space.numDims(), space.spaceSize());
    std::printf("dimensions: LP on/off, RVB on/off, %d permutations, "
                "%zu tile dims, pipeline II\n\n",
                space.dimSizes()[2], space.bandDepth());

    DSEOptions options;
    options.numInitialSamples = 60;
    options.maxIterations = 150;
    DSEEngine engine(space, options);
    auto frontier = engine.explore();

    std::printf("explored %zu points; Pareto frontier (%zu points):\n",
                engine.stats().evaluations, frontier.size());
    std::printf("%-14s %-8s %-4s %-4s %-12s %-15s %s\n", "Latency", "DSP",
                "LP", "RVB", "PermMap", "Tiles", "II");
    for (const EvaluatedPoint &point : frontier) {
        auto d = space.decode(point.point);
        std::printf("%-14lld %-8lld %-4d %-4d %-12s %-15s %lld\n",
                    static_cast<long long>(point.qor.latency),
                    static_cast<long long>(point.qor.resources.dsp),
                    d.loopPerfectization, d.removeVariableBound,
                    ("[" + join(d.permMap, ",") + "]").c_str(),
                    ("[" + join(d.tileSizes, ",") + "]").c_str(),
                    static_cast<long long>(d.targetII));
    }

    auto best = DSEEngine::finalize(frontier, xc7z020());
    if (!best) {
        std::printf("\nno design fits the xc7z020 budget\n");
        return 1;
    }
    std::printf("\nfinalized design (first Pareto point fitting "
                "xc7z020): latency %lld, DSP %lld\n",
                static_cast<long long>(best->qor.latency),
                static_cast<long long>(best->qor.resources.dsp));

    auto optimized = space.materialize(best->point);
    std::printf("\npartition plan: %s\n",
                DesignSpace::partitionSummary(optimized.get()).c_str());
    return 0;
}
