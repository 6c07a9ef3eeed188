/**
 * @file
 * Estimator scaling and cache benchmarks: QoR estimations per second at
 * 1, 2, 4 and hardware_concurrency estimation threads over flat and
 * multi-function dataflow designs (cross-point FUNCTION-tier cache), plus
 * a DSE-like sweep over a multi-band kernel (2mm) exercising the
 * band-level cache tier (band hits pinned above zero), a
 * band-incremental materialization section (fast-path composition,
 * materializations per evaluated point pinned strictly below 1.0), a
 * partition-aware band-key section (a tile-retuning sweep, masked hits
 * pinned above zero), and a
 * plan-first probe section (full materializations per point pinned at
 * <= 0.25 with zero-IR composition of warm points; `--probe` runs it
 * alone), and a snapshot-persistence section (`--persist` runs it
 * alone): a cold DNN kernel sweep saves its estimate cache to disk, a
 * FRESH sweep (new modules, spaces, evaluators and cache — a new
 * process in all but the pid) loads it back and must replay with zero
 * full materializations, at >= 2x the cold throughput, bit-identically.
 * Self-check (the repo's determinism guarantee extended to the
 * estimator): parallel and cached estimation — any tier, either
 * materialization path — must produce bit-identical QoR to the
 * sequential, uncached path for every bench design at every thread
 * count. Emits a human-readable table and one JSON line per
 * configuration for tools/run_benches.sh. `--smoke` runs a reduced
 * matrix for the sanitizer CI jobs.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "api/scalehls.h"
#include "common.h"
#include "dse/design_space.h"
#include "dse/evaluator.h"
#include "estimate/cache_io.h"
#include "estimate/estimate_cache.h"
#include "model/dnn_dse.h"
#include "model/graph_builder.h"
#include "model/lower_graph.h"

using namespace scalehls;

namespace {

struct BenchDesign
{
    std::string name;
    std::unique_ptr<Operation> module;
};

std::vector<BenchDesign>
buildDesigns(bool smoke)
{
    std::vector<BenchDesign> designs;

    // Flat single-kernel design: no callees, so it pins the sequential
    // path and the cache behavior without intra-point parallelism.
    {
        auto module = parseCToModule(polybenchSource("gemm", 32));
        raiseScfToAffine(module.get());
        designs.push_back({"gemm-32", std::move(module)});
    }
    if (smoke)
        return designs;

    // Multi-function dataflow designs (paper Section VII-B flow): the
    // top function calls one sub-function per dataflow stage, which is
    // exactly where per-callee estimation fans out.
    auto dnn = [](Operation *(*build)(Operation *), int graph_level) {
        auto module = createModule();
        build(module.get());
        Compiler compiler(std::move(module));
        compiler.applyGraphOpt(graph_level)
            .lowerToLoops()
            .applyLoopOpt(2)
            .applyDirectiveOpt(1);
        return compiler.takeModule();
    };
    designs.push_back({"resnet18-g4", dnn(buildResNet18, 4)});
    designs.push_back({"vgg16-g7", dnn(buildVGG16, 7)});
    return designs;
}

bool
identical(const QoRResult &a, const QoRResult &b)
{
    return a.latency == b.latency && a.interval == b.interval &&
           a.feasible == b.feasible &&
           a.resources.dsp == b.resources.dsp &&
           a.resources.lut == b.resources.lut &&
           a.resources.bram18k == b.resources.bram18k &&
           a.resources.memoryBits == b.resources.memoryBits;
}

/** Per-design scaling + function-tier cache benchmark (PR 2 behavior). */
bool
runScalingSection(const std::vector<unsigned> &configs, bool smoke)
{
    auto designs = buildDesigns(smoke);
    const int reps = smoke ? 3 : 12;
    bool all_identical = true;

    for (const BenchDesign &design : designs) {
        // Sequential, uncached reference.
        QoRResult reference =
            QoREstimator(design.module.get()).estimateModule();
        std::printf("--- %s (reference: latency=%lld interval=%lld "
                    "DSP=%lld) ---\n",
                    design.name.c_str(),
                    static_cast<long long>(reference.latency),
                    static_cast<long long>(reference.interval),
                    static_cast<long long>(reference.resources.dsp));
        std::printf("%-10s %-12s %-12s %-12s %s\n", "Threads",
                    "Seconds", "Points/s", "CacheHit%", "Identical");

        double base_rate = 0;
        for (unsigned threads : configs) {
            ThreadPool pool(threads);
            EstimateCache cache;
            bool matches = true;
            auto start = std::chrono::steady_clock::now();
            // Each rep is one design-point estimation: a fresh estimator
            // instance (per-point memos do not carry over) over the
            // shared cross-point cache, exactly like the DSE evaluator.
            for (int rep = 0; rep < reps; ++rep) {
                QoREstimator estimator(design.module.get(), &pool,
                                       &cache);
                QoRResult qor = estimator.estimateModule();
                matches &= identical(qor, reference);
            }
            double seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            double rate = reps / seconds;
            if (threads == 1)
                base_rate = rate;
            all_identical &= matches;
            double hit_rate = cache.funcStats().hitRate();
            std::printf("%-10u %-12.4f %-12.1f %-12.1f %s\n", threads,
                        seconds, rate, hit_rate * 100,
                        matches ? "yes" : "NO (BUG)");
            std::printf(
                "JSON {\"bench\":\"estimator\",\"design\":\"%s\","
                "\"threads\":%u,\"reps\":%d,\"seconds\":%.4f,"
                "\"points_per_second\":%.1f,\"speedup\":%.2f,"
                "\"cache_hit_rate\":%.3f,\"identical\":%s}\n",
                design.name.c_str(), threads, reps, seconds, rate,
                base_rate > 0 ? rate / base_rate : 1.0, hit_rate,
                matches ? "true" : "false");
        }
        std::printf("\n");
    }
    return all_identical;
}

/** Band-level cache on a multi-band workload: a DSE-like sweep over 2mm
 * design points that differ only in ONE band's pipeline II. The function
 * digest changes on every point (so the function tier misses), but the
 * untouched band's digest is stable — the band tier turns those into
 * hits. Self-checks bit-identity against the sequential uncached
 * reference, and that the band tier scores at least one hit. */
bool
runBandCacheSection(const std::vector<unsigned> &configs)
{
    std::printf("=== Band-level estimate cache (multi-band 2mm sweep) "
                "===\n\n");

    auto module = parseCToModule(polybenchSource("2mm", 16));
    raiseScfToAffine(module.get());
    DesignSpace space(module.get());

    // The sweep: per band, the canonical seed with that band's II dial
    // turned through its first few candidates. Every point differs from
    // the seed in exactly one band.
    std::vector<DesignSpace::Point> points;
    DesignSpace::Point zero(space.numDims(), 0);
    points.push_back(zero);
    for (size_t b = 0; b < space.numBands(); ++b) {
        for (int v = 1; v <= 3; ++v) {
            DesignSpace::Point p = zero;
            p[space.dimTargetII(b)] = v;
            points.push_back(std::move(p));
        }
    }

    std::vector<std::unique_ptr<Operation>> modules;
    std::vector<QoRResult> reference;
    for (const auto &p : points) {
        auto m = space.materialize(p);
        if (!m) {
            std::printf("UNEXPECTED: sweep point not materializable\n");
            return false;
        }
        reference.push_back(QoREstimator(m.get()).estimateModule());
        modules.push_back(std::move(m));
    }
    std::printf("sweep: %zu points over %zu bands\n\n", points.size(),
                space.numBands());
    std::printf("%-10s %-14s %-14s %-14s %s\n", "Threads", "FuncHit%",
                "BandHit%", "BandHits", "Identical");

    bool ok = true;
    for (unsigned threads : configs) {
        ThreadPool pool(threads);
        EstimateCache cache;
        bool matches = true;
        for (size_t i = 0; i < modules.size(); ++i) {
            QoREstimator estimator(modules[i].get(), &pool, &cache);
            matches &= identical(estimator.estimateModule(), reference[i]);
        }
        ok &= matches;
        CacheStats func = cache.funcStats();
        CacheStats band = cache.bandStats();
        std::printf("%-10u %-14.1f %-14.1f %-14zu %s\n", threads,
                    func.hitRate() * 100, band.hitRate() * 100, band.hits,
                    matches ? "yes" : "NO (BUG)");
        std::printf("JSON {\"bench\":\"estimator_band_cache\","
                    "\"design\":\"2mm-16\",\"threads\":%u,"
                    "\"func_hit_rate\":%.3f,\"band_hit_rate\":%.3f,"
                    "\"band_hits\":%zu,\"identical\":%s}\n",
                    threads, func.hitRate(), band.hitRate(), band.hits,
                    matches ? "true" : "false");
        if (band.hits == 0) {
            std::printf("BAND CACHE CHECK FAILED: no band-tier hits\n");
            ok = false;
        }
    }
    std::printf("\n");
    return ok;
}

/** Band-incremental materialization throughput: an II cross-product
 * sweep over 2mm's two bands, evaluated border points first (each band
 * variant materializes fully once, seeding the schedule tier) and
 * interior points second (every band hits, so cleanup + partition + the
 * estimator walk are skipped and the QoR is composed from cached
 * entries). Hard checks: interior points all take the fast path (full
 * materializations per evaluated point strictly below 1.0) and every
 * result stays bit-identical to the sequential uncached reference at
 * every thread count. */
bool
runMaterializationSection(const std::vector<unsigned> &configs,
                          bool smoke)
{
    std::printf("=== Band-incremental materialization (2mm II "
                "cross-product) ===\n\n");

    const int size = smoke ? 8 : 16;
    const int dials = smoke ? 3 : 4;
    auto module = parseCToModule(polybenchSource("2mm", size));
    raiseScfToAffine(module.get());
    DesignSpace space(module.get());

    // Border points (a band variant appears for the first time) and
    // interior points (both variants already seen).
    std::vector<DesignSpace::Point> border;
    std::vector<DesignSpace::Point> interior;
    DesignSpace::Point zero(space.numDims(), 0);
    for (int a = 0; a < dials; ++a)
        for (int b = 0; b < dials; ++b) {
            DesignSpace::Point p = zero;
            p[space.dimTargetII(0)] = a;
            p[space.dimTargetII(1)] = b;
            (a == 0 || b == 0 ? border : interior)
                .push_back(std::move(p));
        }
    std::vector<DesignSpace::Point> all = border;
    all.insert(all.end(), interior.begin(), interior.end());

    // Sequential uncached reference.
    std::vector<QoRResult> reference;
    {
        CachingEvaluator evaluator(space);
        reference = evaluator.evaluateBatch(all);
    }
    std::printf("sweep: %zu points (%zu border + %zu interior)\n\n",
                all.size(), border.size(), interior.size());
    std::printf("%-10s %-14s %-14s %-12s %-14s %s\n", "Threads",
                "FullMat", "FastPath", "Mat/Point", "Pts/s", "Identical");

    bool ok = true;
    for (unsigned threads : configs) {
        ThreadPool pool(threads);
        EstimateCache cache;
        CachingEvaluator evaluator(space, &pool, &cache);
        auto start = std::chrono::steady_clock::now();
        auto results = evaluator.evaluateBatch(border);
        auto second = evaluator.evaluateBatch(interior);
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        results.insert(results.end(), second.begin(), second.end());
        bool matches = results.size() == reference.size();
        for (size_t i = 0; matches && i < results.size(); ++i)
            matches = identical(results[i], reference[i]);

        size_t full = evaluator.stats().fullMaterializations;
        size_t fast = evaluator.stats().fastPathHits;
        double per_point =
            static_cast<double>(full) / static_cast<double>(all.size());
        double rate = all.size() / seconds;
        bool structural = matches && fast == interior.size() &&
                          full < all.size() && per_point < 1.0;
        ok &= structural;
        std::printf("%-10u %-14zu %-14zu %-12.3f %-14.1f %s\n", threads,
                    full, fast, per_point, rate,
                    structural ? "yes" : "NO (BUG)");
        std::printf(
            "JSON {\"bench\":\"estimator_materialize\","
            "\"design\":\"2mm-%d\",\"threads\":%u,\"points\":%zu,"
            "\"full_materializations\":%zu,\"fast_path_hits\":%zu,"
            "\"materializations_per_point\":%.3f,"
            "\"points_per_second\":%.1f,\"identical\":%s}\n",
            size, threads, all.size(), full, fast, per_point, rate,
            structural ? "true" : "false");
    }
    std::printf("\n");
    return ok;
}

/** Partition-aware band keys on a tile-retuning sweep: retuning the
 * SECOND band's outer tile repartitions tmp along a dim the FIRST band
 * never separates banks on, so the masked keys keep serving band 1's
 * cached estimate where layout-sensitive keys would miss. Hard checks:
 * at least one band-tier hit is partition-masked, and every result
 * stays bit-identical to the sequential uncached reference. */
bool
runPartitionKeySection(const std::vector<unsigned> &configs, bool smoke)
{
    std::printf("=== Partition-aware band keys (2mm tile-retune sweep) "
                "===\n\n");

    const int size = smoke ? 8 : 16;
    auto module = parseCToModule(polybenchSource("2mm", size));
    raiseScfToAffine(module.get());
    DesignSpace space(module.get());

    // The base schedule (loop perfectization on — tiling needs perfect
    // nests) plus points retuning only band 1's outermost tile (which
    // repartitions tmp's first dim, a dim band 0 never separates banks
    // on) and band 1's pipeline II.
    std::vector<DesignSpace::Point> points;
    DesignSpace::Point base(space.numDims(), 0);
    base[space.dimLoopPerfectization()] = 1;
    points.push_back(base);
    for (int v = 1; v <= 2; ++v) {
        DesignSpace::Point p = base;
        p[space.dimFirstTile(1)] = v;
        points.push_back(std::move(p));
    }
    for (int v = 1; v <= 2; ++v) {
        DesignSpace::Point p = base;
        p[space.dimTargetII(1)] = v;
        points.push_back(std::move(p));
    }

    std::vector<std::unique_ptr<Operation>> modules;
    std::vector<QoRResult> reference;
    for (const auto &p : points) {
        auto m = space.materialize(p);
        if (!m) {
            std::printf("UNEXPECTED: sweep point not materializable\n");
            return false;
        }
        reference.push_back(QoREstimator(m.get()).estimateModule());
        modules.push_back(std::move(m));
    }
    std::printf("sweep: %zu points\n\n", points.size());
    std::printf("%-10s %-14s %-14s %-14s %s\n", "Threads", "BandHit%",
                "BandHits", "MaskedHits", "Identical");

    bool ok = true;
    for (unsigned threads : configs) {
        ThreadPool pool(threads);
        EstimateCache cache;
        bool matches = true;
        for (size_t i = 0; i < modules.size(); ++i) {
            QoREstimator estimator(modules[i].get(), &pool, &cache);
            matches &= identical(estimator.estimateModule(), reference[i]);
        }
        ok &= matches;
        CacheStats band = cache.bandStats();
        std::printf("%-10u %-14.1f %-14zu %-14zu %s\n", threads,
                    band.hitRate() * 100, band.hits, band.maskedHits,
                    matches ? "yes" : "NO (BUG)");
        std::printf("JSON {\"bench\":\"estimator_band_keys\","
                    "\"design\":\"2mm-%d\",\"threads\":%u,"
                    "\"band_hits\":%zu,\"band_hit_rate\":%.3f,"
                    "\"masked_hits\":%zu,\"identical\":%s}\n",
                    size, threads, band.hits, band.hitRate(),
                    band.maskedHits, matches ? "true" : "false");
        if (band.maskedHits == 0) {
            std::printf("PARTITION KEY CHECK FAILED: no partition-masked "
                        "band-tier hits\n");
            ok = false;
        }
    }
    std::printf("\n");
    return ok;
}

/** Plan-first point evaluation: the same border-first II cross-product
 * as the materialization section, but measuring the plan -> probe ->
 * overlay-materialize -> publish pipeline. Border points materialize
 * only their schedule-missing bands through copy-on-write overlays
 * (never the full pipeline), interior points compose from the PLAN tier
 * with zero IR built, and a warm-cache replay through a FRESH evaluator
 * must not create a single Operation (checked via the global creation
 * counter). Hard checks per kernel and thread count: zero full
 * materializations (mat/point <= 0.25, vs ~0.44 for the PR 5 fast
 * path whose border points ran the full pipeline), zero prediction
 * mismatches, the zero-clone replay, the counter partition
 * full + overlay + composed + infeasible == points, bit-identity with
 * the sequential uncached reference, and — on 3mm, whose first two
 * stages are symmetric gemms — schedule entries shared ACROSS bands by
 * the canonicalizing digest (crossBandHits > 0). */
bool
runProbeSection(const std::vector<unsigned> &configs, bool smoke)
{
    std::printf("=== Plan-first evaluation (plan -> probe -> overlay -> "
                "publish) ===\n\n");

    struct ProbeSpec
    {
        const char *kernel;
        bool expectCrossBand;
    };
    std::vector<ProbeSpec> specs = {{"2mm", false}};
    if (!smoke)
        specs.push_back({"3mm", true});
    const int size = smoke ? 8 : 16;
    const int dials = smoke ? 3 : 4;

    bool ok = true;
    for (const ProbeSpec &spec : specs) {
        auto module = parseCToModule(polybenchSource(spec.kernel, size));
        raiseScfToAffine(module.get());
        DesignSpace space(module.get());

        std::vector<DesignSpace::Point> border;
        std::vector<DesignSpace::Point> interior;
        DesignSpace::Point zero(space.numDims(), 0);
        for (int a = 0; a < dials; ++a)
            for (int b = 0; b < dials; ++b) {
                DesignSpace::Point p = zero;
                p[space.dimTargetII(0)] = a;
                p[space.dimTargetII(1)] = b;
                (a == 0 || b == 0 ? border : interior)
                    .push_back(std::move(p));
            }
        std::vector<DesignSpace::Point> all = border;
        all.insert(all.end(), interior.begin(), interior.end());

        // Sequential uncached reference.
        std::vector<QoRResult> reference;
        {
            CachingEvaluator evaluator(space);
            reference = evaluator.evaluateBatch(all);
        }
        std::printf("--- %s-%d: %zu points (%zu border + %zu interior) "
                    "---\n",
                    spec.kernel, size, all.size(), border.size(),
                    interior.size());
        std::printf("%-10s %-9s %-9s %-10s %-11s %-11s %-11s %s\n",
                    "Threads", "FullMat", "Overlay", "Composed",
                    "Mat/Point", "XBandHits", "ZeroClone", "Identical");

        for (unsigned threads : configs) {
            ThreadPool pool(threads);
            EstimateCache cache;
            CachingEvaluator evaluator(space, &pool, &cache);
            auto first = evaluator.evaluateBatch(border);
            auto second = evaluator.evaluateBatch(interior);
            first.insert(first.end(), second.begin(), second.end());
            bool matches = first.size() == reference.size();
            for (size_t i = 0; matches && i < first.size(); ++i)
                matches = identical(first[i], reference[i]);

            DSEStats stats = evaluator.stats();
            size_t full = stats.fullMaterializations;
            size_t overlay = stats.overlayMaterializations;
            size_t composed = stats.planComposed;
            size_t infeasible = stats.planInfeasible;
            size_t mismatches = stats.planMismatches;
            double per_point = static_cast<double>(full) /
                               static_cast<double>(all.size());

            // Warm-cache replay through a FRESH evaluator (empty memo):
            // every point must come out of the plan tier, creating ZERO
            // Operations.
            CachingEvaluator replay(space, &pool, &cache);
            size_t created_before = Operation::createdCount();
            auto replayed = replay.evaluateBatch(all);
            bool zero_clone =
                Operation::createdCount() == created_before;
            for (size_t i = 0; matches && i < replayed.size(); ++i)
                matches = identical(replayed[i], reference[i]);

            bool structural =
                matches && mismatches == 0 && full == 0 &&
                per_point <= 0.25 && zero_clone && composed > 0 &&
                full + overlay + composed + infeasible == all.size();
            if (spec.expectCrossBand)
                structural &= cache.crossBandHits() > 0;
            ok &= structural;
            std::printf(
                "%-10u %-9zu %-9zu %-10zu %-11.3f %-11zu %-11s %s\n",
                threads, full, overlay, composed, per_point,
                cache.crossBandHits(), zero_clone ? "yes" : "NO",
                structural ? "yes" : "NO (BUG)");
            std::printf(
                "JSON {\"bench\":\"estimator_probe\","
                "\"design\":\"%s-%d\",\"threads\":%u,\"points\":%zu,"
                "\"full_materializations\":%zu,"
                "\"overlay_materializations\":%zu,"
                "\"plan_composed\":%zu,\"plan_infeasible\":%zu,"
                "\"plan_mismatches\":%zu,\"cross_band_hits\":%zu,"
                "\"materializations_per_point\":%.3f,"
                "\"zero_clone_compose\":%s,\"identical\":%s}\n",
                spec.kernel, size, threads, all.size(), full, overlay,
                composed, infeasible, mismatches, cache.crossBandHits(),
                per_point, zero_clone ? "true" : "false",
                matches ? "true" : "false");
        }
        std::printf("\n");
    }
    return ok;
}

/** Audit-mode overhead and coverage: the probe sweep (2mm) and a DNN
 * kernel sweep run twice on fresh caches — auditing off, then on — and
 * a warm replay through a fresh evaluator drives the audited fast paths
 * (plan compose / overlay). Hard checks per design and thread count:
 * the auditors actually engage (checks > 0), they find
 * NOTHING on a healthy run (violations == 0), both configurations stay
 * bit-identical to the sequential uncached reference, and audited
 * throughput keeps at least half the unaudited rate (the documented
 * audit-mode overhead budget; generous slack because the timed runs are
 * short and CI runners are noisy). */
bool
runAuditedSweep(const char *design, DesignSpace &space,
                const std::vector<DesignSpace::Point> &border,
                const std::vector<DesignSpace::Point> &interior,
                const std::vector<QoRResult> &reference,
                const std::vector<unsigned> &configs)
{
    std::vector<DesignSpace::Point> all = border;
    all.insert(all.end(), interior.begin(), interior.end());
    std::printf("--- %s: %zu points (%zu border + %zu interior) ---\n",
                design, all.size(), border.size(), interior.size());
    std::printf("%-10s %-10s %-12s %-12s %-12s %-10s %s\n", "Threads",
                "Checks", "Violations", "PlainPts/s", "AuditPts/s",
                "Relative", "Identical");

    bool ok = true;
    for (unsigned threads : configs) {
        ThreadPool pool(threads);

        auto timed_run = [&](bool audit, size_t *checks,
                             size_t *violations, bool *out_identical) {
            EstimateCache cache;
            CachingEvaluator evaluator(space, &pool, &cache, audit);
            auto start = std::chrono::steady_clock::now();
            auto first = evaluator.evaluateBatch(border);
            auto second = evaluator.evaluateBatch(interior);
            // Warm replay through a FRESH evaluator (empty memo): every
            // point re-decides through the fast paths, which is where
            // the L3/L4 auditors live.
            CachingEvaluator replay(space, &pool, &cache, audit);
            auto replayed = replay.evaluateBatch(all);
            double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 start)
                                 .count();
            first.insert(first.end(), second.begin(), second.end());
            bool matches = first.size() == reference.size();
            for (size_t i = 0; matches && i < first.size(); ++i)
                matches = identical(first[i], reference[i]);
            for (size_t i = 0; matches && i < replayed.size(); ++i)
                matches = identical(replayed[i], reference[i]);
            *out_identical = matches;
            DSEStats stats = evaluator.stats();
            stats += replay.stats();
            *checks = stats.auditChecks;
            *violations = stats.auditViolations;
            return seconds;
        };

        size_t plain_checks = 0, plain_violations = 0;
        bool plain_identical = false;
        double plain_seconds = timed_run(false, &plain_checks,
                                         &plain_violations,
                                         &plain_identical);
        size_t checks = 0, violations = 0;
        bool audit_identical = false;
        double audit_seconds =
            timed_run(true, &checks, &violations, &audit_identical);

        double plain_rate = 2 * all.size() / plain_seconds;
        double audit_rate = 2 * all.size() / audit_seconds;
        double relative = plain_rate > 0 ? audit_rate / plain_rate : 0;
        bool structural = plain_identical && audit_identical &&
                          plain_checks == 0 && checks > 0 &&
                          violations == 0 && relative >= 0.5;
        ok &= structural;
        std::printf("%-10u %-10zu %-12zu %-12.1f %-12.1f %-10.2f %s\n",
                    threads, checks, violations, plain_rate, audit_rate,
                    relative, structural ? "yes" : "NO (BUG)");
        std::printf(
            "JSON {\"bench\":\"estimator_audit\",\"design\":\"%s\","
            "\"threads\":%u,\"points\":%zu,\"audit_checks\":%zu,"
            "\"audit_violations\":%zu,\"plain_points_per_second\":%.1f,"
            "\"audit_points_per_second\":%.1f,"
            "\"audit_relative_throughput\":%.3f,\"identical\":%s}\n",
            design, threads, all.size(), checks, violations, plain_rate,
            audit_rate, relative,
            plain_identical && audit_identical ? "true" : "false");
    }
    std::printf("\n");
    return ok;
}

/** The `--audit` section driver: audited probe sweep (2mm) plus an
 * audited DNN kernel sweep (resnet18 at graph level 4). */
bool
runAuditSection(const std::vector<unsigned> &configs, bool smoke)
{
    std::printf("=== Audit mode (L3 overlay aliasing + L4 cache "
                "coherence at every fast-path decision) ===\n\n");

    bool ok = true;
    {
        const int size = smoke ? 8 : 16;
        const int dials = smoke ? 3 : 4;
        auto module = parseCToModule(polybenchSource("2mm", size));
        raiseScfToAffine(module.get());
        DesignSpace space(module.get());
        std::vector<DesignSpace::Point> border;
        std::vector<DesignSpace::Point> interior;
        DesignSpace::Point zero(space.numDims(), 0);
        for (int a = 0; a < dials; ++a)
            for (int b = 0; b < dials; ++b) {
                DesignSpace::Point p = zero;
                p[space.dimTargetII(0)] = a;
                p[space.dimTargetII(1)] = b;
                (a == 0 || b == 0 ? border : interior)
                    .push_back(std::move(p));
            }
        std::vector<DesignSpace::Point> all = border;
        all.insert(all.end(), interior.begin(), interior.end());
        std::vector<QoRResult> reference;
        {
            CachingEvaluator evaluator(space);
            reference = evaluator.evaluateBatch(all);
        }
        char design[32];
        std::snprintf(design, sizeof(design), "2mm-%d", size);
        ok &= runAuditedSweep(design, space, border, interior, reference,
                              configs);
    }

    // One DNN kernel: the alloc-carrying dataflow-stage workload, whose
    // misses the planner decides like the 2mm probe's (overlay, plan
    // mismatch and entry-shape audits) over local buffers.
    {
        auto kernels = buildDNNKernelModules("resnet18", 4, 1);
        if (kernels.empty()) {
            std::printf("UNEXPECTED: no DSE kernels extracted from "
                        "resnet18\n");
            return false;
        }
        DesignSpace space(kernels[0].module.get());
        const int dials = smoke ? 2 : 3;
        std::vector<DesignSpace::Point> border;
        std::vector<DesignSpace::Point> interior;
        DesignSpace::Point zero(space.numDims(), 0);
        for (int a = 0; a < dials; ++a)
            for (int b = 0; b < dials; ++b) {
                DesignSpace::Point p = zero;
                p[space.dimTargetII(0)] = a;
                if (space.numBands() > 1)
                    p[space.dimTargetII(1)] = b;
                else if (b > 0)
                    continue;
                (a == 0 || b == 0 ? border : interior)
                    .push_back(std::move(p));
            }
        std::vector<DesignSpace::Point> all = border;
        all.insert(all.end(), interior.begin(), interior.end());
        std::vector<QoRResult> reference;
        {
            CachingEvaluator evaluator(space);
            reference = evaluator.evaluateBatch(all);
        }
        std::string design = kernels[0].name + "-g4";
        ok &= runAuditedSweep(design.c_str(), space, border, interior,
                              reference, configs);
    }
    return ok;
}

/** DNN per-kernel fast-path sweep: the flagship workload class. Each
 * model is lowered at graph level 4 (multi-layer dataflow stages whose
 * intermediate feature maps are LOCAL allocs in the init / accumulate /
 * consume chain pattern) and its first kernels swept over an II
 * cross-product of their first two bands, border points first. Hard
 * checks per model and thread count: the fast path engages
 * (fastPathHits > 0), full materializations per evaluated point stay
 * strictly below 1.0, and every configuration is bit-identical to the
 * sequential uncached reference — the acceptance pin CI's dnn-bench job
 * enforces. */
bool
runDNNSection(const std::vector<unsigned> &configs, bool smoke)
{
    std::printf("=== DNN per-kernel fast path (alloc-carrying dataflow "
                "stages, graph level 4) ===\n\n");

    struct ModelSpec
    {
        const char *model;
        size_t kernels;
    };
    std::vector<ModelSpec> specs;
    if (smoke)
        specs = {{"resnet18", 1}};
    else
        specs = {{"resnet18", 4}, {"mobilenet", 4}};

    bool ok = true;
    for (const ModelSpec &spec : specs) {
        auto kernels = buildDNNKernelModules(spec.model, 4, spec.kernels);
        if (kernels.empty()) {
            std::printf("UNEXPECTED: no DSE kernels extracted from %s\n",
                        spec.model);
            return false;
        }

        // Per-kernel sweeps: the II cross-product of the first two
        // bands, border points (first appearance of each band variant)
        // before interior points (combinations composed entirely from
        // cached entries).
        const int dials = smoke ? 2 : 3;
        std::vector<std::unique_ptr<DesignSpace>> spaces;
        std::vector<std::vector<DesignSpace::Point>> borders;
        std::vector<std::vector<DesignSpace::Point>> interiors;
        std::vector<std::vector<QoRResult>> references;
        size_t total_points = 0;
        for (DNNKernel &kernel : kernels) {
            spaces.push_back(
                std::make_unique<DesignSpace>(kernel.module.get()));
            DesignSpace &space = *spaces.back();
            std::vector<DesignSpace::Point> border;
            std::vector<DesignSpace::Point> interior;
            DesignSpace::Point zero(space.numDims(), 0);
            for (int a = 0; a < dials; ++a) {
                for (int b = 0; b < dials; ++b) {
                    DesignSpace::Point p = zero;
                    p[space.dimTargetII(0)] = a;
                    if (space.numBands() > 1)
                        p[space.dimTargetII(1)] = b;
                    else if (b > 0)
                        continue;
                    (a == 0 || b == 0 ? border : interior)
                        .push_back(std::move(p));
                }
            }
            std::vector<DesignSpace::Point> all = border;
            all.insert(all.end(), interior.begin(), interior.end());
            total_points += all.size();
            CachingEvaluator reference(space);
            references.push_back(reference.evaluateBatch(all));
            borders.push_back(std::move(border));
            interiors.push_back(std::move(interior));
            std::printf("%-24s bands=%zu local-allocs=%zu points=%zu\n",
                        kernel.name.c_str(), kernel.numBands,
                        kernel.numAllocs, all.size());
        }
        std::printf("\n%-10s %-14s %-14s %-12s %-12s %s\n", "Threads",
                    "FullMat", "FastPath", "Mat/Point", "Pts/s",
                    "Identical");

        for (unsigned threads : configs) {
            ThreadPool pool(threads);
            // One estimate cache spans the model's kernels: repeated
            // stages (mobilenet's identical separable units) share
            // schedule entries ACROSS kernels, exactly like
            // optimizeFunctions' shared cache.
            EstimateCache cache;
            bool matches = true;
            size_t full = 0;
            size_t fast = 0;
            auto start = std::chrono::steady_clock::now();
            for (size_t k = 0; k < spaces.size(); ++k) {
                CachingEvaluator evaluator(*spaces[k], &pool, &cache);
                auto results = evaluator.evaluateBatch(borders[k]);
                auto rest = evaluator.evaluateBatch(interiors[k]);
                results.insert(results.end(), rest.begin(), rest.end());
                for (size_t i = 0; i < results.size(); ++i)
                    matches &= identical(results[i], references[k][i]);
                full += evaluator.stats().fullMaterializations;
                fast += evaluator.stats().fastPathHits;
            }
            double seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            double per_point = static_cast<double>(full) /
                               static_cast<double>(total_points);
            double rate = total_points / seconds;
            bool structural =
                matches && fast > 0 && per_point < 1.0;
            ok &= structural;
            std::printf("%-10u %-14zu %-14zu %-12.3f %-12.1f %s\n",
                        threads, full, fast, per_point, rate,
                        structural ? "yes" : "NO (BUG)");
            std::printf(
                "JSON {\"bench\":\"estimator_dnn\",\"design\":\"%s-g4\","
                "\"threads\":%u,\"kernels\":%zu,\"points\":%zu,"
                "\"full_materializations\":%zu,\"fast_path_hits\":%zu,"
                "\"fast_path_hit_rate\":%.3f,"
                "\"materializations_per_point\":%.3f,"
                "\"points_per_second\":%.1f,\"identical\":%s}\n",
                spec.model, threads, spaces.size(), total_points, full,
                fast,
                static_cast<double>(fast) /
                    static_cast<double>(total_points),
                per_point, rate, matches ? "true" : "false");
        }
        std::printf("\n");
    }
    return ok;
}

/** Snapshot persistence (cross-process warm start): the DNN kernel
 * sweep run cold on a fresh estimate cache, the cache serialized to a
 * snapshot file, then the ENTIRE workload state rebuilt from scratch —
 * new kernel modules, new design spaces, new evaluators, a new cache —
 * and the snapshot loaded back, exactly what a fresh scalehls-opt or
 * scalehls-serve process sees. Hard checks per thread count: the load
 * succeeds with entries and ZERO recorded lookups (hit-rate baselines
 * measure this run, not history), the warm sweep performs zero full
 * materializations (every point composes from persisted schedule/plan
 * entries), warm throughput is at least 2x cold (the snapshot pays for
 * itself; the real margin is far larger), and warm QoR is bit-identical
 * to cold. */
bool
runPersistSection(bool smoke)
{
    std::printf("=== Snapshot persistence (cold sweep -> save -> fresh "
                "load -> warm sweep) ===\n\n");

    const char *model = "resnet18";
    const size_t num_kernels = smoke ? 1 : 4;
    const int dials = smoke ? 2 : 3;
    const char *tmp = std::getenv("TMPDIR");
    std::string snapshot = std::string(tmp && *tmp ? tmp : "/tmp") +
                           "/scalehls_bench_persist.shlsnap";

    // One sweep instance: everything a process holds in memory. Built
    // twice so the warm run shares NOTHING with the cold run but the
    // snapshot file.
    struct Sweep
    {
        std::vector<DNNKernel> kernels;
        std::vector<std::unique_ptr<DesignSpace>> spaces;
        std::vector<std::vector<DesignSpace::Point>> borders;
        std::vector<std::vector<DesignSpace::Point>> interiors;
        size_t totalPoints = 0;
    };
    auto build_sweep = [&]() {
        Sweep sweep;
        sweep.kernels = buildDNNKernelModules(model, 4, num_kernels);
        for (DNNKernel &kernel : sweep.kernels) {
            sweep.spaces.push_back(
                std::make_unique<DesignSpace>(kernel.module.get()));
            DesignSpace &space = *sweep.spaces.back();
            std::vector<DesignSpace::Point> border;
            std::vector<DesignSpace::Point> interior;
            DesignSpace::Point zero(space.numDims(), 0);
            for (int a = 0; a < dials; ++a) {
                for (int b = 0; b < dials; ++b) {
                    DesignSpace::Point p = zero;
                    p[space.dimTargetII(0)] = a;
                    if (space.numBands() > 1)
                        p[space.dimTargetII(1)] = b;
                    else if (b > 0)
                        continue;
                    (a == 0 || b == 0 ? border : interior)
                        .push_back(std::move(p));
                }
            }
            sweep.totalPoints += border.size() + interior.size();
            sweep.borders.push_back(std::move(border));
            sweep.interiors.push_back(std::move(interior));
        }
        return sweep;
    };
    auto run_sweep = [](Sweep &sweep, ThreadPool &pool,
                        EstimateCache &cache,
                        std::vector<QoRResult> &qors, size_t &full) {
        qors.clear();
        full = 0;
        auto start = std::chrono::steady_clock::now();
        for (size_t k = 0; k < sweep.spaces.size(); ++k) {
            CachingEvaluator evaluator(*sweep.spaces[k], &pool, &cache);
            auto results = evaluator.evaluateBatch(sweep.borders[k]);
            auto rest = evaluator.evaluateBatch(sweep.interiors[k]);
            qors.insert(qors.end(), results.begin(), results.end());
            qors.insert(qors.end(), rest.begin(), rest.end());
            full += evaluator.stats().fullMaterializations;
        }
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    std::vector<unsigned> configs = smoke ? std::vector<unsigned>{1, 2}
                                          : std::vector<unsigned>{1, 4};
    std::printf("%-10s %-12s %-12s %-10s %-10s %-10s %s\n", "Threads",
                "ColdPts/s", "WarmPts/s", "Speedup", "ColdFull",
                "WarmFull", "Identical");

    bool ok = true;
    for (unsigned threads : configs) {
        ThreadPool pool(threads);

        Sweep cold_sweep = build_sweep();
        EstimateCache cold_cache;
        std::vector<QoRResult> cold_qors;
        size_t cold_full = 0;
        double cold_seconds =
            run_sweep(cold_sweep, pool, cold_cache, cold_qors, cold_full);

        std::string error;
        if (!saveEstimateCache(cold_cache, snapshot, &error)) {
            std::printf("UNEXPECTED: snapshot save failed: %s\n",
                        error.c_str());
            return false;
        }

        // The warm process: fresh everything, then load the snapshot.
        Sweep warm_sweep = build_sweep();
        EstimateCache warm_cache;
        CacheLoadResult load = loadEstimateCache(warm_cache, snapshot);
        bool load_ok = load.status == CacheLoadStatus::Loaded &&
                       load.totalEntries() > 0 &&
                       warm_cache.funcStats().lookups() == 0 &&
                       warm_cache.bandStats().lookups() == 0;
        std::vector<QoRResult> warm_qors;
        size_t warm_full = 0;
        double warm_seconds =
            run_sweep(warm_sweep, pool, warm_cache, warm_qors, warm_full);

        bool matches = warm_qors.size() == cold_qors.size();
        for (size_t i = 0; matches && i < warm_qors.size(); ++i)
            matches = identical(warm_qors[i], cold_qors[i]);

        double cold_rate = cold_sweep.totalPoints / cold_seconds;
        double warm_rate = warm_sweep.totalPoints / warm_seconds;
        double speedup = cold_rate > 0 ? warm_rate / cold_rate : 0;
        double warm_per_point =
            static_cast<double>(warm_full) /
            static_cast<double>(warm_sweep.totalPoints);
        bool structural = load_ok && matches && warm_full == 0 &&
                          speedup >= 2.0;
        ok &= structural;
        std::printf("%-10u %-12.1f %-12.1f %-10.2f %-10zu %-10zu %s\n",
                    threads, cold_rate, warm_rate, speedup, cold_full,
                    warm_full, structural ? "yes" : "NO (BUG)");
        std::printf(
            "JSON {\"bench\":\"estimator_persist\","
            "\"design\":\"%s-g4\",\"threads\":%u,\"kernels\":%zu,"
            "\"points\":%zu,\"loaded_entries\":%zu,"
            "\"cold_points_per_second\":%.1f,"
            "\"warm_points_per_second\":%.1f,\"warm_speedup\":%.2f,"
            "\"cold_full_materializations\":%zu,"
            "\"warm_full_materializations\":%zu,"
            "\"warm_materializations_per_point\":%.3f,"
            "\"identical\":%s}\n",
            model, threads, cold_sweep.spaces.size(),
            cold_sweep.totalPoints, load.totalEntries(), cold_rate,
            warm_rate, speedup, cold_full, warm_full, warm_per_point,
            matches && load_ok ? "true" : "false");
    }
    std::remove(snapshot.c_str());
    std::printf("\n");
    return ok;
}

/** Whole-model DSE end-to-end: resnet18 at graph level 4 through
 * Compiler::optimizeModel on both device classes. Hard checks per
 * device: the composed design fits the budget, the frontier-composed
 * QoR prediction matches the re-estimated module bit-identically, the
 * stitched module re-verifies, the exchange-refined allocation strictly
 * beats the naive uniform budget split (lower bottleneck latency, or
 * the same bottleneck at strictly fewer DSPs), and every thread count
 * produces the identical design.
 *
 * The edge run uses xc7z020's compute budget (220 DSP / 53,200 LUT)
 * with the on-chip memory gate relaxed to the model's working set:
 * resnet18's feature maps (~43 Mb at graph level 4) exceed ANY design
 * point's 4.9 Mb on-chip capacity, so an edge deployment streams them
 * from DRAM and the budget that actually constrains the allocator is
 * compute. The vu9p-slr run keeps the full device gate (the paper's
 * DNN platform). */
bool
runDNNFullSection(const std::vector<unsigned> &configs, bool smoke)
{
    std::printf("=== Whole-model DSE (resnet18 end-to-end, global "
                "budget allocation) ===\n\n");

    const char *model = "resnet18";
    const int graph_level = 4;
    DSEOptions options;
    options.numInitialSamples = smoke ? 60 : 400;
    options.maxIterations = smoke ? 30 : 300;
    DesignSpaceOptions space_options;
    space_options.maxTileSize = 16;
    space_options.maxTotalUnroll = 256;

    ResourceBudget edge = xc7z020();
    edge.name = "xc7z020-dram";
    edge.memoryBits = 2500 * 18 * 1024;
    std::vector<ResourceBudget> devices = {edge, vu9pSlr()};
    bool ok = true;
    for (const ResourceBudget &budget : devices) {
        std::printf("%-10s %-8s %-14s %-14s %-14s %-8s %s\n", "Device",
                    "Threads", "E2eLatency", "Bottleneck", "Uniform",
                    "DSP%", "Checks");
        std::optional<Compiler::ModelDSEResult> reference;
        for (unsigned threads : configs) {
            Compiler compiler(buildLoweredDNN(model, graph_level));
            ExploreRequest request;
            request.budgetSpec = budget.name;
            request.budget = budget;
            request.space = space_options;
            request.dse = options;
            request.dse.numThreads = threads;
            auto start = std::chrono::steady_clock::now();
            auto result = compiler.optimizeModel(request);
            double seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (!result) {
                std::printf("UNEXPECTED: optimizeModel(%s) failed "
                            "structurally\n",
                            budget.name.c_str());
                return false;
            }

            bool fits = result->allocation.feasible &&
                        budget.fits(result->allocation.resources);
            // Strictly better than the uniform split: a lower
            // bottleneck (an infeasible uniform split carries the
            // sentinel), or the same bottleneck at strictly fewer
            // DSPs. Smoke mode only insists on never-worse.
            bool beats_uniform =
                result->allocation.bottleneck <
                    result->uniform.bottleneck ||
                (result->allocation.bottleneck ==
                     result->uniform.bottleneck &&
                 (smoke ? result->allocation.resources.dsp <=
                              result->uniform.resources.dsp
                        : result->allocation.resources.dsp <
                              result->uniform.resources.dsp));
            bool deterministic = true;
            if (!reference)
                reference = *result;
            else
                deterministic =
                    identical(result->measured, reference->measured) &&
                    result->allocation.choice ==
                        reference->allocation.choice &&
                    result->uniform.bottleneck ==
                        reference->uniform.bottleneck;
            bool structural = fits && result->measured.feasible &&
                              result->composedVerified &&
                              result->verified && beats_uniform &&
                              deterministic;
            ok &= structural;

            double dsp_utilization =
                static_cast<double>(result->allocation.resources.dsp) /
                static_cast<double>(budget.dsp);
            size_t kernels = 0;
            for (const auto &stage : result->stages)
                kernels += stage.kernel;
            std::printf("%-10s %-8u %-14lld %-14lld %-14lld %-8.3f %s\n",
                        budget.name.c_str(), threads,
                        static_cast<long long>(result->measured.latency),
                        static_cast<long long>(
                            result->allocation.bottleneck),
                        static_cast<long long>(
                            result->uniform.bottleneck),
                        dsp_utilization,
                        structural ? "ok" : "FAILED");
            std::printf(
                "JSON {\"bench\":\"estimator_dnn_full\","
                "\"design\":\"%s-g%d\",\"device\":\"%s\","
                "\"threads\":%u,\"stages\":%zu,\"kernels\":%zu,"
                "\"evaluations\":%zu,\"end_to_end_latency\":%lld,"
                "\"bottleneck_latency\":%lld,"
                "\"uniform_bottleneck\":%lld,\"dsp\":%lld,"
                "\"uniform_dsp\":%lld,"
                "\"dsp_utilization\":%.4f,\"refinement_steps\":%zu,"
                "\"composed_verified\":%s,\"beats_uniform\":%s,"
                "\"seconds\":%.2f}\n",
                model, graph_level, budget.name.c_str(), threads,
                result->stages.size(), kernels, result->evaluations,
                static_cast<long long>(result->measured.latency),
                static_cast<long long>(result->allocation.bottleneck),
                static_cast<long long>(result->uniform.bottleneck),
                static_cast<long long>(result->allocation.resources.dsp),
                static_cast<long long>(result->uniform.resources.dsp),
                dsp_utilization, result->allocation.refinementSteps,
                result->composedVerified ? "true" : "false",
                beats_uniform ? "true" : "false", seconds);
        }
        std::printf("\n");
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool dnn_only = false;
    bool dnn_full = false;
    bool probe_only = false;
    bool audit_only = false;
    bool persist_only = false;
    for (int i = 1; i < argc; ++i) {
        smoke |= std::strcmp(argv[i], "--smoke") == 0;
        dnn_only |= std::strcmp(argv[i], "--dnn") == 0;
        dnn_full |= std::strcmp(argv[i], "--dnn-full") == 0;
        probe_only |= std::strcmp(argv[i], "--probe") == 0;
        audit_only |= std::strcmp(argv[i], "--audit") == 0;
        persist_only |= std::strcmp(argv[i], "--persist") == 0;
    }

    unsigned hw = defaultThreadCount();
    std::printf("=== Estimator scaling (intra-point parallel estimation "
                "+ cross-point cache, %u hardware threads%s) ===\n\n",
                hw, smoke ? ", smoke" : "");

    std::vector<unsigned> configs = {1, 2, 4};
    if (hw > 4 && !smoke)
        configs.push_back(hw);

    bool ok = true;
    if (dnn_full) {
        ok &= runDNNFullSection(configs, smoke);
        if (!dnn_only && !probe_only && !audit_only) {
            if (!ok) {
                std::printf(
                    "SELF-CHECK FAILED: the whole-model DSE composed "
                    "design missed its budget, prediction, "
                    "verification, uniform-split, or determinism "
                    "check\n");
                return 1;
            }
            return 0;
        }
    }
    if (audit_only) {
        ok &= runAuditSection(configs, smoke);
    } else if (persist_only) {
        ok &= runPersistSection(smoke);
    } else {
        if (!dnn_only && !probe_only) {
            ok &= runScalingSection(configs, smoke);
            ok &= runBandCacheSection(configs);
            ok &= runMaterializationSection(configs, smoke);
            ok &= runPartitionKeySection(configs, smoke);
        }
        if (!dnn_only)
            ok &= runProbeSection(configs, smoke);
        if (!probe_only)
            ok &= runDNNSection(configs, smoke);
        if (!dnn_only && !probe_only) {
            ok &= runAuditSection(configs, smoke);
            ok &= runPersistSection(smoke);
        }
    }

    if (!ok) {
        std::printf("SELF-CHECK FAILED: parallel/cached estimation "
                    "diverged from the sequential path, a cache tier "
                    "underperformed its baseline, the DNN fast path "
                    "failed to engage, or the audit sweep found a "
                    "violation / exceeded its overhead budget\n");
        return 1;
    }
    return 0;
}
