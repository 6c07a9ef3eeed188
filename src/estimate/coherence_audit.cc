#include "estimate/coherence_audit.h"

#include "dialect/ops.h"

namespace scalehls {

const std::vector<std::string> &
estimateRelevantAttrs()
{
    // Keys the estimator (or the analyses it composes: directives, loop
    // bounds, access maps, constants, call targets) reads. kTopFunc and
    // kSymName are deliberately absent: they select WHICH function an
    // estimate starts from, never what a function's own estimate is.
    static const std::vector<std::string> keys = {
        kLoopDirective, kFuncDirective, kDataflowStage, kPointLoop,
        kLowerMap,      kUpperMap,      kLbCount,       kStep,
        kMap,           kCondition,     kValue,         kCallee,
    };
    return keys;
}

std::vector<VerifyError>
auditDigestCoverage(const std::set<std::string> &excluded,
                    const std::vector<std::string> &relevant)
{
    std::vector<VerifyError> errors;
    for (const std::string &key : relevant)
        if (excluded.count(key))
            errors.push_back(
                {VerifyKind::DigestCoverageGap, "digest-registry",
                 "estimate-relevant attribute '" + key +
                     "' is excluded from the band serializer — "
                     "digest-equal bands could estimate differently"});
    return errors;
}

std::vector<VerifyError>
auditDigestCoverage()
{
    return auditDigestCoverage(digestExcludedAttrs(),
                               estimateRelevantAttrs());
}

std::vector<VerifyError>
auditScheduleEntry(const BandScheduleEntry &entry,
                   const std::vector<Value *> &externals,
                   const std::string &path)
{
    std::vector<VerifyError> errors;
    std::string where = !path.empty()           ? path
                        : !entry.origin.empty() ? entry.origin
                                                : std::string("<entry>");
    auto bad = [&](const std::string &msg) {
        errors.push_back({VerifyKind::MalformedScheduleEntry, where, msg});
    };
    for (size_t m = 0; m < entry.memrefs.size(); ++m) {
        const auto &info = entry.memrefs[m];
        std::string label = "memref record #" + std::to_string(m);
        if (info.extId >= externals.size()) {
            bad(label + ": external id " + std::to_string(info.extId) +
                " out of range (" + std::to_string(externals.size()) +
                " externals)");
            continue;
        }
        Value *memref = externals[info.extId];
        if (!memref || !memref->type().isMemRef()) {
            bad(label + ": external id " + std::to_string(info.extId) +
                " does not resolve to a memref value");
            continue;
        }
        if (!info.read && !info.write)
            bad(label + ": entry lists a memref the band neither reads "
                        "nor writes");
        size_t rank = memref->type().rank();
        if (info.relevant.size() != rank)
            bad(label + ": relevance mask covers " +
                std::to_string(info.relevant.size()) + " dims of a rank-" +
                std::to_string(rank) + " memref");
        auto checkPlan = [&](const PartitionPlan &plan,
                             const char *name) {
            if (plan.kinds.size() != plan.factors.size())
                bad(label + ": " + name +
                    " plan kind/factor arity mismatch");
            else if (!plan.factors.empty() && plan.factors.size() != rank)
                bad(label + ": " + name + " plan covers " +
                    std::to_string(plan.factors.size()) +
                    " dims of a rank-" + std::to_string(rank) + " memref");
        };
        checkPlan(info.contribution, "contribution");
        checkPlan(info.assumed, "assumed");
    }
    return errors;
}

} // namespace scalehls
