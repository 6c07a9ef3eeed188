/**
 * @file
 * Quickstart: the shortest possible ScaleHLS session. Parse an HLS C
 * kernel, run the automated DSE under a device budget, and emit the
 * optimized, synthesizable HLS C++ with directives inserted.
 */

#include <cstdio>

#include "api/scalehls.h"
#include "model/polybench.h"

using namespace scalehls;

int
main()
{
    // A plain, undirected GEMM kernel (what a software engineer writes).
    std::string source = polybenchSource("gemm", 256);
    std::printf("--- input HLS C ---\n%s\n", source.c_str());

    // Parse + raise to the affine IR.
    Compiler compiler = Compiler::fromC(source);

    QoRResult baseline = compiler.estimate();
    std::printf("baseline: %lld cycles, %lld DSPs\n\n",
                static_cast<long long>(baseline.latency),
                static_cast<long long>(baseline.resources.dsp));

    // Automated DSE under the edge-device budget (paper Section V-E).
    ExploreRequest request;
    request.budgetSpec = "xc7z020";
    request.space.maxTileSize = 16;
    request.space.maxTotalUnroll = 128;
    request.dse.numInitialSamples = 60;
    request.dse.maxIterations = 120;
    if (auto invalid = request.validate()) {
        std::printf("bad request: %s\n", invalid->c_str());
        return 1;
    }
    auto result = compiler.optimize(request);
    if (!result) {
        std::printf("DSE found no feasible design\n");
        return 1;
    }

    QoRResult optimized = compiler.estimate();
    std::printf("optimized: %lld cycles (%.1fx speedup), %lld DSPs, "
                "%zu points evaluated in %.2fs\n\n",
                static_cast<long long>(optimized.latency),
                static_cast<double>(baseline.latency) /
                    static_cast<double>(optimized.latency),
                static_cast<long long>(optimized.resources.dsp),
                result->evaluations, result->seconds);

    // Check against the downstream (virtual) HLS tool and emit C++.
    SynthesisReport report = compiler.synthesize(xc7z020());
    std::printf("virtual synthesis: %lld cycles, DSP %.1f%%, LUT %.1f%%, "
                "fits=%s\n\n",
                static_cast<long long>(report.latency), report.dspUtil(),
                report.lutUtil(), report.fits() ? "yes" : "no");

    std::printf("--- optimized HLS C++ (excerpt) ---\n");
    std::string cpp = compiler.emitCpp();
    std::printf("%.2000s%s\n", cpp.c_str(),
                cpp.size() > 2000 ? "\n... (truncated)" : "");
    return 0;
}
