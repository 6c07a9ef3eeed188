#include "dse/evaluator.h"

#include <cstdlib>
#include <iostream>
#include <unordered_map>

#include "dse/pareto.h"

namespace scalehls {

namespace {

/** Counters are statistics: relaxed increments are enough. */
void
bump(std::atomic<size_t> &counter, size_t by = 1)
{
    counter.fetch_add(by, std::memory_order_relaxed);
}

} // namespace

bool
dseAuditEnvDefault()
{
    if (const char *env = std::getenv("SCALEHLS_DSE_AUDIT"))
        return std::string_view(env) != "0";
    return false;
}

DSEStats
CachingEvaluator::stats() const
{
    DSEStats out;
    DSEStats::forEachField(
        [](const char *, size_t &value, const std::atomic<size_t> &counter) {
            value = counter.load(std::memory_order_relaxed);
        },
        out, counters_);
    return out;
}

bool
CachingEvaluator::recordAuditFindings(
    const std::vector<VerifyError> &findings)
{
    if (findings.empty())
        return false;
    bump(counters_.auditViolations, findings.size());
    for (const VerifyError &e : findings)
        std::cerr << "dse-audit: " << e.str() << "\n";
    return true;
}

void
CachingEvaluator::insertScheduleEntries(
    const DesignSpace::Partial &partial, const QoREstimator &estimator)
{
    // The cleanup pipeline may have erased bands (e.g. emptied bodies);
    // entries are only replayable when the phase-1 bands map 1:1 onto
    // the final ones (cleanup never reorders or splits top-level loops).
    // Likewise, a cleanup outcome that falsified the phase-1 ownership
    // prediction (a kept buffer dissolved, a dead one survived) would
    // publish band content the phase-1 digests do not determine.
    auto final_bands = getLoopBands(partial.func);
    if (final_bands.size() != partial.bandDigests.size())
        return;
    if (!DesignSpace::finalOwnershipMatches(partial))
        return;
    const auto &band_estimates = estimator.lastBandEstimates();
    for (size_t i = 0; i < final_bands.size(); ++i) {
        if (!partial.bandDigests[i])
            continue; // Masked band (e.g. contains a call).
        auto it = band_estimates.find(final_bands[i].front());
        if (it == band_estimates.end())
            continue; // Function-tier hit skipped the band walk.
        auto entry = buildBandScheduleEntry(
            final_bands[i].front(), it->second,
            partial.bandDigests[i]->externals);
        if (entry) {
            entry->origin =
                funcName(partial.func) + "#" + std::to_string(i);
            estimates_->insertSchedule(partial.bandDigests[i]->digest,
                                       *entry);
        }
    }
}

QoRResult
CachingEvaluator::evaluateFresh(const DesignSpace::Point &point,
                                std::unique_ptr<Operation> *module_out)
{
    bump(counters_.materializations);

    QoRResult result;
    auto finalize = [&](QoRResult qor) {
        if (!qor.feasible) {
            // An infeasible estimate (unknown trip counts, recursive
            // call cycles) carries internal placeholder latencies — e.g.
            // the recursion guard's latency-1 stub — that must not leak
            // into frontier ranking or annealing costs as if they were
            // excellent designs. Force the sentinel.
            qor.latency = kInfeasibleQoR;
            qor.interval = kInfeasibleQoR;
        }
        return qor;
    };

    if (planner_) {
        BandPlanner::Outcome planned = planner_->evaluate(point);
        if (planned.auditChecks)
            bump(counters_.auditChecks, planned.auditChecks);
        recordAuditFindings(planned.auditFindings);
        switch (planned.kind) {
          case BandPlanner::Outcome::Kind::Composed:
            if (planned.usedOverlay) {
                bump(counters_.overlayMaterializations);
            } else {
                // Zero IR built (fastPathHits mirrors planComposed).
                bump(counters_.fastPathHits);
                bump(counters_.planComposed);
            }
            return finalize(planned.qor);
          case BandPlanner::Outcome::Kind::Infeasible:
            // Exactly what the full pipeline returns for a point whose
            // materialization fails — minus the clone and transforms.
            bump(counters_.planInfeasible);
            result.latency = kInfeasibleQoR;
            result.interval = kInfeasibleQoR;
            result.feasible = false;
            return result;
          case BandPlanner::Outcome::Kind::Fallback:
            if (planned.mismatched)
                bump(counters_.planMismatches);
            break; // Run the full pipeline below.
        }
    }

    bump(counters_.fullMaterializations);
    DesignSpace::Partial partial = space_.beginMaterialize(point);
    auto module = space_.finishMaterialize(partial);
    if (!module) {
        result.latency = kInfeasibleQoR;
        result.interval = kInfeasibleQoR;
        result.feasible = false;
        return result;
    }

    QoREstimator estimator(module.get(), pool_, estimates_);
    result = finalize(estimator.estimateModule());
    // A mixed function whose call-carrying bands are masked out still
    // publishes entries for its digestable bands.
    if (estimates_ && partial.funcEligible)
        insertScheduleEntries(partial, estimator);
    if (module_out)
        *module_out = std::move(module);
    return result;
}

void
CachingEvaluator::maybeRetain(const DesignSpace::Point &point,
                              const QoRResult &qor,
                              std::unique_ptr<Operation> module)
{
    if (!retention_enabled_ || !module || !qor.feasible)
        return;
    if (retention_budget_ && !qor.fits(*retention_budget_))
        return;
    // Strictly-better latency wins; ties keep the earlier (batch input
    // order) point, so the retained point is thread-count independent.
    if (retained_module_ && retained_qor_.latency <= qor.latency)
        return;
    retained_module_ = std::move(module);
    retained_point_ = point;
    retained_qor_ = qor;
}

std::unique_ptr<Operation>
CachingEvaluator::takeRetainedModule(const DesignSpace::Point &point)
{
    if (!retained_module_ || retained_point_ != point)
        return nullptr;
    return std::move(retained_module_);
}

QoRResult
CachingEvaluator::evaluate(const DesignSpace::Point &point)
{
    if (auto cached = cache_.lookup(point)) {
        bump(counters_.memoHits);
        return *cached;
    }
    std::unique_ptr<Operation> module;
    QoRResult result =
        evaluateFresh(point, retention_enabled_ ? &module : nullptr);
    maybeRetain(point, result, std::move(module));
    cache_.insert(point, result);
    return result;
}

std::vector<QoRResult>
CachingEvaluator::evaluateBatch(const std::vector<DesignSpace::Point> &points)
{
    std::vector<QoRResult> results(points.size());

    // Resolve cache hits up front and dedup duplicate misses: identical
    // points in one batch materialize ONCE (the first slot computes,
    // later slots copy its result), so callers that cannot pre-dedup —
    // e.g. annealing chains re-proposing a neighbor — do not pay a
    // redundant materialization per duplicate slot.
    std::vector<size_t> misses;
    std::unordered_map<DesignSpace::Point, size_t, OrdinalVectorHash>
        first_miss;
    std::vector<std::pair<size_t, size_t>> duplicates; // (slot, miss idx)
    for (size_t i = 0; i < points.size(); ++i) {
        if (auto cached = cache_.lookup(points[i])) {
            bump(counters_.memoHits);
            results[i] = *cached;
            continue;
        }
        auto [it, inserted] =
            first_miss.try_emplace(points[i], misses.size());
        if (inserted) {
            misses.push_back(i);
        } else {
            duplicates.push_back({i, it->second});
            bump(counters_.batchDedups);
        }
    }

    std::vector<std::unique_ptr<Operation>> modules(misses.size());
    auto evaluate_miss = [&](size_t mi) {
        size_t i = misses[mi];
        results[i] = evaluateFresh(
            points[i], retention_enabled_ ? &modules[mi] : nullptr);
    };
    if (pool_ && pool_->size() > 1 && misses.size() > 1)
        pool_->parallelFor(misses.size(), evaluate_miss);
    else
        for (size_t mi = 0; mi < misses.size(); ++mi)
            evaluate_miss(mi);

    // Sequential merge in input order: retention decisions and cache
    // publication stay deterministic at any thread count.
    for (size_t mi = 0; mi < misses.size(); ++mi) {
        size_t i = misses[mi];
        maybeRetain(points[i], results[i], std::move(modules[mi]));
        cache_.insert(points[i], results[i]);
    }
    for (auto [slot, mi] : duplicates)
        results[slot] = results[misses[mi]];
    return results;
}

} // namespace scalehls
