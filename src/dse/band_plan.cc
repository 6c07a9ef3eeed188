#include "dse/band_plan.h"

#include <unordered_map>

#include "analysis/loop_analysis.h"
#include "analysis/memory_analysis.h"
#include "estimate/coherence_audit.h"
#include "ir/overlay.h"
#include "ir/printer.h"
#include "transform/pass.h"

namespace scalehls {

BandPlanner::BandPlanner(const DesignSpace &space,
                         EstimateCache *estimates, bool audit)
    : space_(space), estimates_(estimates), audit_(audit)
{
    if (!estimates_)
        return;
    Operation *module = space_.pristineModule();
    func_ = getTopFunc(module);
    if (!func_)
        return;
    func_name_ = funcName(func_);

    auto bands = getLoopBands(func_);
    if (bands.empty() || bands.size() != space_.numBands())
        return;
    for (const auto &band : bands)
        roots_.push_back(band.front());

    // The materializer's band-locality rule on the PRISTINE function:
    // the structural transforms never add calls, flat-scope accesses or
    // directives, so pristine eligibility implies phase-1 eligibility
    // for every materializable point.
    auto ownership = DesignSpace::bandLocalOwnership(func_, roots_);
    if (!ownership)
        return;
    ownership_ = std::move(*ownership);
    dataflow_top_ = getFuncDirective(func_).dataflow;
    // In-band allocs are duplicated by pipelining's full unroll, which
    // would grow the transformed ownership list past the pristine one
    // the plan keys bake in. Flat-scope allocs are never duplicated.
    for (const OwnedBuffer &buffer : ownership_.buffers)
        if (buffer.alloc->parentBlock() != funcBody(func_))
            return;

    for (size_t b = 0; b < roots_.size(); ++b) {
        auto seed = bandPlanSeed(roots_[b], &ownership_);
        if (!seed)
            return; // Unplannable band (call, unrecognized external).
        seed_index_.emplace_back();
        for (unsigned i = 0; i < seed->externals.size(); ++i)
            seed_index_.back().emplace(seed->externals[i], i);
        seeds_.push_back(std::move(*seed));
    }
    enabled_ = true;
}

std::string
BandPlanner::originOf(size_t band) const
{
    return func_name_ + "#" + std::to_string(band);
}

bool
BandPlanner::seedIndexOf(size_t b, Value *base, unsigned &index) const
{
    auto it = seed_index_[b].find(base);
    if (it == seed_index_[b].end())
        return false;
    index = it->second;
    return true;
}

std::string
BandPlanner::debugPlanKey(const DesignSpace::Point &point,
                          size_t band) const
{
    if (!enabled_ || band >= seeds_.size())
        return {};
    DesignSpace::Decoded d = space_.decode(point);
    const DesignSpace::BandChoice &choice = d.bands[band];
    return bandPlanKey(seeds_[band], d.loopPerfectization,
                       d.removeVariableBound, choice.permMap,
                       choice.tileSizes, choice.targetII);
}

std::optional<QoRResult>
BandPlanner::composeAll(
    const std::vector<BandScheduleEntry> &entries,
    const std::vector<const std::vector<unsigned> *> &ext_maps,
    Outcome *audit_out) const
{
    // Resolve every entry's externals onto the PRISTINE value table:
    // phase-1 external i of band b is pristine external extMap[i]. The
    // composition (memory-dependence scheduling, kept-buffer account)
    // only compares these values by identity, so any consistent universe
    // works — pristine is the one the planner owns.
    std::vector<std::vector<Value *>> resolved(entries.size());
    for (size_t b = 0; b < entries.size(); ++b) {
        resolved[b].reserve(ext_maps[b]->size());
        for (unsigned index : *ext_maps[b]) {
            if (index >= seeds_[b].externals.size())
                return std::nullopt;
            resolved[b].push_back(seeds_[b].externals[index]);
        }
    }
    if (audit_ && audit_out) {
        // L4 shape audit of every consumed entry against the resolved
        // value table — covers the zero-IR path, where no other code
        // would ever look at the entries' internals before trusting them.
        bool bad = false;
        for (size_t b = 0; b < entries.size(); ++b) {
            ++audit_out->auditChecks;
            auto findings =
                auditScheduleEntry(entries[b], resolved[b], originOf(b));
            bad |= !findings.empty();
            for (auto &f : findings)
                audit_out->auditFindings.push_back(std::move(f));
        }
        if (bad)
            return std::nullopt;
    }
    ScheduledFunction function;
    function.dataflow = dataflow_top_;
    function.bands.reserve(entries.size());
    for (size_t b = 0; b < entries.size(); ++b)
        function.bands.push_back({&entries[b], &resolved[b]});
    for (const OwnedBuffer &buffer : ownership_.buffers)
        function.allocs.push_back({buffer.memref, buffer.kept});
    return composeScheduledQoR(function);
}

/** The per-point planning state handed from evaluate() to the overlay
 * path: plan keys, cached plan outcomes and schedule-tier hits, all
 * aligned with the band index. */
struct BandPlanner::OverlayInputs
{
    std::vector<std::string> keys;
    std::vector<std::optional<BandPlanOutcome>> plans;
    std::vector<std::optional<BandScheduleEntry>> entries;
};

BandPlanner::Outcome
BandPlanner::evaluate(const DesignSpace::Point &point) const
{
    Outcome out;
    if (!enabled_)
        return out;
    DesignSpace::Decoded d = space_.decode(point);
    if (d.bands.size() != seeds_.size())
        return out;
    if (space_.exceedsUnrollCap(d)) {
        // Infeasible before any IR exists, as in beginMaterialize.
        out.kind = Outcome::Kind::Infeasible;
        return out;
    }

    size_t n = seeds_.size();
    OverlayInputs inputs;
    inputs.keys.resize(n);
    inputs.plans.resize(n);
    inputs.entries.resize(n);
    for (size_t b = 0; b < n; ++b) {
        const DesignSpace::BandChoice &choice = d.bands[b];
        inputs.keys[b] = bandPlanKey(seeds_[b], d.loopPerfectization,
                                     d.removeVariableBound, choice.permMap,
                                     choice.tileSizes, choice.targetII);
        inputs.plans[b] = estimates_->lookupPlan(inputs.keys[b]);
        if (!inputs.plans[b])
            continue;
        if (!inputs.plans[b]->materializable) {
            // A recorded transform failure: the whole point is
            // infeasible, decided with zero IR.
            out.kind = Outcome::Kind::Infeasible;
            return out;
        }
        if (!inputs.plans[b]->composable)
            return out; // This band can never compose: full pipeline.
    }

    bool all_hit = true;
    for (size_t b = 0; b < n; ++b) {
        if (inputs.plans[b])
            inputs.entries[b] = estimates_->lookupSchedule(
                inputs.plans[b]->digest, originOf(b));
        all_hit &= inputs.entries[b].has_value();
    }

    if (all_hit) {
        // Zero-IR composition: every band's phase-1 digest was predicted
        // by the PLAN tier and resolved in the SCHEDULE tier.
        std::vector<BandScheduleEntry> entries;
        std::vector<const std::vector<unsigned> *> ext_maps;
        entries.reserve(n);
        ext_maps.reserve(n);
        for (size_t b = 0; b < n; ++b) {
            entries.push_back(std::move(*inputs.entries[b]));
            ext_maps.push_back(&inputs.plans[b]->extMap);
        }
        if (auto composed = composeAll(entries, ext_maps, &out)) {
            out.kind = Outcome::Kind::Composed;
            out.qor = *composed;
            return out;
        }
        return out;
    }
    return overlayEvaluate(d, inputs);
}

BandPlanner::Outcome
BandPlanner::overlayEvaluate(const DesignSpace::Decoded &d,
                             OverlayInputs &inputs) const
{
    Outcome out;
    size_t n = seeds_.size();

    // Copy-on-write clone of the pristine function: hit bands are
    // omitted (their estimates come from the schedule tier), everything
    // else — flat constants, allocs, the return, missed bands — is
    // cloned. The base is only read, so concurrent workers may overlay
    // the same pristine module.
    std::set<const Operation *> skip;
    for (size_t b = 0; b < n; ++b)
        if (inputs.entries[b])
            skip.insert(roots_[b]);
    OverlayClone ov = overlayClone(func_, skip);
    if (!ov.op || !ov.complete)
        return out; // Benign: the band shapes defeated the overlay.
    if (audit_) {
        // L3: prove the overlay shares nothing mutable with the pristine
        // base before any transform runs on it. A finding here means a
        // transform COULD have scribbled on IR other workers are reading.
        ++out.auditChecks;
        auto findings = auditOverlayAliasing(ov, func_);
        if (!findings.empty()) {
            out.auditFindings = std::move(findings);
            return out;
        }
    }

    // The pristine ownership verdicts, translated onto overlay values
    // (transforms preserve them; see the class comment).
    AllocOwnershipInfo overlay_own = ownership_;
    for (OwnedBuffer &buffer : overlay_own.buffers) {
        auto vi = ov.map.find(buffer.memref);
        auto oi = ov.children.find(buffer.alloc);
        if (vi == ov.map.end() || oi == ov.children.end())
            return out;
        buffer.memref = vi->second;
        buffer.alloc = oi->second;
    }
    std::unordered_map<Value *, Value *> reverse;
    reverse.reserve(ov.map.size());
    for (const auto &[base, overlay] : ov.map)
        reverse[overlay] = base;

    // Phase 1 on each missed band: beginMaterialize's per-band
    // transforms, then verify (or record) the plan.
    std::vector<Operation *> current(n, nullptr);
    std::vector<std::optional<BandDigestInfo>> infos(n);
    std::vector<BandPlanOutcome> outcomes(n);
    for (size_t b = 0; b < n; ++b) {
        if (inputs.entries[b]) {
            outcomes[b] = *inputs.plans[b];
            continue;
        }
        auto ci = ov.children.find(roots_[b]);
        if (ci == ov.children.end())
            return out;
        current[b] = DesignSpace::scheduleBand(ci->second, d, b);
        if (!current[b]) {
            // The transforms fail for every point selecting this choice;
            // record that so future points skip the overlay entirely.
            estimates_->insertPlan(inputs.keys[b], BandPlanOutcome{});
            out.kind = Outcome::Kind::Infeasible;
            out.usedOverlay = true;
            return out;
        }

        infos[b] = bandEstimateDigestInfo(current[b], &overlay_own);
        BandPlanOutcome outcome;
        outcome.materializable = true;
        if (infos[b]) {
            outcome.digest = infos[b]->digest;
            outcome.composable = true;
            outcome.extMap.reserve(infos[b]->externals.size());
            for (Value *ext : infos[b]->externals) {
                auto ri = reverse.find(ext);
                unsigned index = 0;
                if (ri == reverse.end() ||
                    !seedIndexOf(b, ri->second, index)) {
                    // A transform-created (or otherwise unmapped) flat
                    // external: the entry could never be resolved onto
                    // the pristine table.
                    outcome.composable = false;
                    outcome.extMap.clear();
                    break;
                }
                outcome.extMap.push_back(index);
            }
        }
        if (inputs.plans[b]) {
            // The PLAN tier predicted this band's digest; the overlay
            // materialization is ground truth. A contradiction means the
            // plan-key reasoning is wrong somewhere — never answer from
            // it, fall back to the validated full pipeline.
            if (!outcome.composable ||
                inputs.plans[b]->digest != outcome.digest) {
                if (audit_) {
                    // L4: the cache's claimed digest does not match the
                    // materialized band — the same divergence the
                    // seeded-corruption tests plant deliberately.
                    ++out.auditChecks;
                    out.auditFindings.push_back(
                        {VerifyKind::StaleScheduleEntry,
                         opPath(current[b]),
                         "PLAN tier predicted phase-1 digest '" +
                             inputs.plans[b]->digest +
                             "' but the overlay materialization "
                             "produced '" + outcome.digest + "'"});
                }
                out.mismatched = true;
                return out;
            }
            outcomes[b] = *inputs.plans[b];
        } else {
            // First materialization of this (band, choice): the outcome
            // is exact by construction, publish it immediately
            // (first-writer-wins keeps concurrent recorders benign).
            estimates_->insertPlan(inputs.keys[b], outcome);
            if (!outcome.composable)
                return out;
            outcomes[b] = std::move(outcome);
        }
        // Late schedule probe: the digest is only now known for plan
        // misses, and a sibling band or worker may have published the
        // entry since the early probe. A hit drops the band from the
        // overlay — its estimate replays from the entry.
        auto late = estimates_->lookupSchedule(outcomes[b].digest,
                                               originOf(b));
        if (late) {
            inputs.entries[b] = std::move(late);
            current[b]->erase();
            current[b] = nullptr;
            infos[b].reset();
        }
    }

    // Phase 2, band-locally: the function-wide cleanup pipeline is
    // provably band-local on eligible functions (that is the fast path's
    // core invariant), so replaying it per missed band — with the one
    // cross-band pass, removeWriteOnlyBuffers, reduced to erasing the
    // predicted-dead buffers' stores — produces the bands the full
    // pipeline would. It is spelled out rather than calling
    // applyCleanupPipeline because that erasure must run between
    // store-forwarding and memref simplification.
    for (size_t b = 0; b < n; ++b) {
        if (!current[b])
            continue;
        Operation *root = current[b];
        applyCanonicalize(root);
        applySimplifyAffineIf(root);
        applyAffineStoreForward(root);
        for (const OwnedBuffer &buffer : overlay_own.buffers) {
            if (buffer.kept)
                continue;
            std::vector<Operation *> victims;
            for (Operation *user : buffer.memref->users())
                if (root->isAncestorOf(user))
                    victims.push_back(user);
            for (Operation *victim : victims)
                victim->erase();
        }
        applySimplifyMemrefAccess(root);
        applyCSE(root);
        applyCanonicalize(root);
        if (!root->parentBlock() || root->region(0).front().empty())
            return out; // Cleanup dissolved the band: not replayable.
    }

    // The overlay's IR is final from here on (array partition only
    // re-types memrefs), so one access table serves the partition merge,
    // the estimator and the schedule entries, and dies with this
    // evaluation.
    AccessTable accesses;

    // Array partition: merge every band's contribution — cached entries
    // for hit bands, freshly computed plans for overlay bands — with
    // applyArrayPartition's strictly-greater-factor-wins rule, keyed on
    // pristine values, then apply the merged plans to the overlay.
    std::map<Value *, PartitionPlan> merged;
    auto merge_plan = [&](Value *pristine, const PartitionPlan &plan) {
        auto [it, inserted] = merged.try_emplace(pristine);
        PartitionPlan &m = it->second;
        if (inserted) {
            m.kinds.assign(plan.kinds.size(), PartitionKind::None);
            m.factors.assign(plan.factors.size(), 1);
        }
        if (m.factors.size() != plan.factors.size())
            return false;
        for (size_t dim = 0; dim < m.factors.size(); ++dim) {
            if (plan.factors[dim] > m.factors[dim]) {
                m.factors[dim] = plan.factors[dim];
                m.kinds[dim] = plan.kinds[dim];
            }
        }
        return true;
    };
    for (size_t b = 0; b < n; ++b) {
        if (inputs.entries[b]) {
            for (const auto &info : inputs.entries[b]->memrefs) {
                if (info.extId >= outcomes[b].extMap.size())
                    return out;
                unsigned index = outcomes[b].extMap[info.extId];
                if (index >= seeds_[b].externals.size())
                    return out;
                if (!merge_plan(seeds_[b].externals[index],
                                info.contribution))
                    return out;
            }
        } else {
            auto nest = getLoopNest(current[b]);
            for (auto &[memref, group] :
                 groupByMemRef(accesses.get(current[b], bandIVs(nest)))) {
                auto ri = reverse.find(memref);
                if (ri == reverse.end())
                    return out;
                if (!merge_plan(ri->second,
                                computePartitionPlan(memref, group)))
                    return out;
            }
        }
    }
    for (const auto &[pristine, plan] : merged) {
        if (plan.isTrivial())
            continue;
        auto vi = ov.map.find(pristine);
        if (vi == ov.map.end())
            return out;
        applyPartitionPlan(vi->second, plan);
    }

    // Estimate the overlay. The function is renamed so the estimator's
    // function tier never keys this partial body under the kernel's
    // name.
    Operation *overlay_func = ov.op.get();
    overlay_func->setAttr(kSymName,
                          Attribute(func_name_ + "!overlay"));
    auto overlay_module = createModule();
    overlay_module->region(0).front().pushBack(std::move(ov.op));
    if (audit_) {
        // L1+L2 over the transformed overlay: the phase-2 replay and the
        // partition application must leave valid IR behind — entries
        // built from invalid IR must never reach the cache.
        ++out.auditChecks;
        for (VerifyError &e : verifyErrors(overlay_module.get()))
            out.auditFindings.push_back(std::move(e));
        if (!out.auditFindings.empty())
            return out;
    }
    QoREstimator estimator(overlay_module.get(), nullptr, estimates_,
                           &accesses);
    estimator.estimateFunc(overlay_func);
    const auto &band_estimates = estimator.lastBandEstimates();

    std::vector<BandScheduleEntry> entries(n);
    std::vector<const std::vector<unsigned> *> ext_maps(n);
    std::vector<bool> fresh(n, false);
    for (size_t b = 0; b < n; ++b) {
        ext_maps[b] = &outcomes[b].extMap;
        if (inputs.entries[b]) {
            entries[b] = std::move(*inputs.entries[b]);
            continue;
        }
        auto it = band_estimates.find(current[b]);
        if (it == band_estimates.end())
            return out; // Function-tier hit skipped the band walk.
        auto entry = buildBandScheduleEntry(current[b], it->second,
                                            infos[b]->externals, accesses);
        if (!entry)
            return out;
        entry->origin = originOf(b);
        entries[b] = std::move(*entry);
        fresh[b] = true;
    }
    out.accessBuilds = accesses.builds();
    out.accessScopes = accesses.size();

    auto composed = composeAll(entries, ext_maps, &out);
    if (!composed)
        return out;
    // Publication is gated on composition success: the compose-time
    // validations (kept buffer with no reader, assumed-vs-merged
    // partition plans) are exactly the checks that catch a cleanup
    // outcome diverging from the phase-1 ownership prediction, standing
    // in for the full path's finalOwnershipMatches.
    for (size_t b = 0; b < n; ++b)
        if (fresh[b])
            estimates_->insertSchedule(outcomes[b].digest, entries[b]);
    out.kind = Outcome::Kind::Composed;
    out.qor = *composed;
    out.usedOverlay = true;
    return out;
}

} // namespace scalehls
