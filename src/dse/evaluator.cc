#include "dse/evaluator.h"

#include <cstdlib>
#include <iostream>
#include <unordered_map>

#include "dse/pareto.h"
#include "estimate/coherence_audit.h"

namespace scalehls {

bool
dseAuditEnvDefault()
{
    if (const char *env = std::getenv("SCALEHLS_DSE_AUDIT"))
        return std::string_view(env) != "0";
    return false;
}

bool
CachingEvaluator::recordAuditFindings(
    const std::vector<VerifyError> &findings)
{
    if (findings.empty())
        return false;
    audit_violations_.fetch_add(findings.size(),
                                std::memory_order_relaxed);
    for (const VerifyError &e : findings)
        std::cerr << "dse-audit: " << e.str() << "\n";
    return true;
}

std::optional<QoRResult>
CachingEvaluator::evaluateScheduled(const DesignSpace::Partial &partial)
{
    if (!partial.eligible ||
        partial.bandDigests.size() != partial.bandRoots.size())
        return std::nullopt;

    // Hold the looked-up entries by value (the sharded cache returns
    // copies) and compose only when EVERY band hit.
    std::string func_name = funcName(partial.func);
    std::vector<BandScheduleEntry> entries;
    entries.reserve(partial.bandDigests.size());
    for (size_t i = 0; i < partial.bandDigests.size(); ++i) {
        auto entry = estimates_->lookupSchedule(
            partial.bandDigests[i]->digest,
            func_name + "#" + std::to_string(i));
        if (!entry)
            return std::nullopt;
        entries.push_back(std::move(*entry));
    }

    if (audit_) {
        // L4: re-derive each band's digest from the phase-1 IR and
        // shape-check each entry against the external table that will
        // resolve it. Any finding drops the point to the full pipeline.
        std::vector<VerifyError> findings;
        for (size_t i = 0; i < entries.size(); ++i) {
            audit_checks_.fetch_add(1, std::memory_order_relaxed);
            auto coherent = auditBandCoherence(
                partial.bandRoots[i], partial.bandDigests[i]->digest,
                &partial.ownership);
            findings.insert(findings.end(), coherent.begin(),
                            coherent.end());
            auto shaped = auditScheduleEntry(
                entries[i], partial.bandDigests[i]->externals,
                func_name + "#" + std::to_string(i));
            findings.insert(findings.end(), shaped.begin(),
                            shaped.end());
        }
        if (recordAuditFindings(findings))
            return std::nullopt;
    }

    ScheduledFunction function;
    function.dataflow = partial.dataflowTop;
    function.bands.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i)
        function.bands.push_back(
            {&entries[i], &partial.bandDigests[i]->externals});
    for (const OwnedBuffer &buffer : partial.ownership.buffers)
        function.allocs.push_back({buffer.memref, buffer.kept});
    return composeScheduledQoR(function);
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
    materializations_.fetch_add(1, std::memory_order_relaxed);

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
            audit_checks_.fetch_add(planned.auditChecks,
                                    std::memory_order_relaxed);
        recordAuditFindings(planned.auditFindings);
        switch (planned.kind) {
          case BandPlanner::Outcome::Kind::Composed:
            if (planned.usedOverlay) {
                overlay_materializations_.fetch_add(
                    1, std::memory_order_relaxed);
            } else {
                // Zero IR built: count it as a fast-path hit too — it is
                // the same validated band-incremental composition, minus
                // even the phase-1 transforms.
                fast_path_hits_.fetch_add(1, std::memory_order_relaxed);
                plan_composed_.fetch_add(1, std::memory_order_relaxed);
            }
            return finalize(planned.qor);
          case BandPlanner::Outcome::Kind::Infeasible:
            // Exactly what the legacy path returns for a point whose
            // materialization fails — minus the clone and transforms.
            plan_infeasible_.fetch_add(1, std::memory_order_relaxed);
            result.latency = kInfeasibleQoR;
            result.interval = kInfeasibleQoR;
            result.feasible = false;
            return result;
          case BandPlanner::Outcome::Kind::Fallback:
            if (planned.mismatched)
                plan_mismatches_.fetch_add(1,
                                           std::memory_order_relaxed);
            break; // Run the validated legacy pipeline below.
        }
    }

    DesignSpace::Partial partial;
    if (estimates_) {
        partial = space_.beginMaterialize(point);
        if (partial.module) {
            if (auto composed = evaluateScheduled(partial)) {
                // Every band hit the schedule tier and validated: the
                // composed QoR is bit-identical to what the skipped
                // cleanup + partition + estimator walk would produce.
                fast_path_hits_.fetch_add(1, std::memory_order_relaxed);
                return finalize(*composed);
            }
        }
    }

    full_materializations_.fetch_add(1, std::memory_order_relaxed);
    auto module = estimates_ ? space_.finishMaterialize(partial)
                             : space_.materialize(point);
    if (!module) {
        result.latency = kInfeasibleQoR;
        result.interval = kInfeasibleQoR;
        result.feasible = false;
        return result;
    }

    QoREstimator estimator(module.get(), pool_, estimates_);
    result = finalize(estimator.estimateModule());
    // funcEligible (not the all-band `eligible`): a mixed function whose
    // call-carrying bands are masked out still publishes entries for its
    // digestable bands.
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
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
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
            cache_hits_.fetch_add(1, std::memory_order_relaxed);
            results[i] = *cached;
            continue;
        }
        auto [it, inserted] =
            first_miss.try_emplace(points[i], misses.size());
        if (inserted) {
            misses.push_back(i);
        } else {
            duplicates.push_back({i, it->second});
            batch_dedups_.fetch_add(1, std::memory_order_relaxed);
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
