/**
 * @file
 * L4 cache-coherence auditing (see ir/verifier.h for the layer map).
 *
 * The planner (dse/band_plan.h) replaces IR work with cached claims: a
 * band's phase-1 digest names a schedule entry, the entry's external ids
 * index a value table, and the digest itself promises to cover every IR
 * fact the estimate reads. The auditors here check an entry's shape
 * against the table that resolves it and close the digest-coverage
 * registry; the planner itself reports a PLAN-tier digest that its
 * overlay materialization contradicts (StaleScheduleEntry). Every
 * finding is a VerifyError instead of a silently wrong QoR. They run
 * under DSEOptions::auditMode / `-dse-audit`; a clean production run
 * pays none of this.
 */

#ifndef SCALEHLS_ESTIMATE_COHERENCE_AUDIT_H
#define SCALEHLS_ESTIMATE_COHERENCE_AUDIT_H

#include <set>
#include <string>
#include <vector>

#include "estimate/qor_estimator.h"
#include "ir/verifier.h"

namespace scalehls {

/** Attribute keys the band/function serializer deliberately leaves out
 * of estimate digests. The serializer consults this set (single source
 * of truth), so the coverage audit and the digests cannot drift. */
const std::set<std::string> &digestExcludedAttrs();

/** Attribute keys the QoR estimator reads — the registry the coverage
 * audit checks against the serializer's exclusion set. Every key listed
 * here must reach the digest, or two IRs that estimate differently could
 * share a cache entry. */
const std::vector<std::string> &estimateRelevantAttrs();

/** Digest-coverage registry audit: every estimate-relevant attribute
 * must be visited by the serializer (i.e. not excluded). The two-set
 * overload exists so tests can prove the audit fires on a seeded gap. */
std::vector<VerifyError> auditDigestCoverage(
    const std::set<std::string> &excluded,
    const std::vector<std::string> &relevant);
std::vector<VerifyError> auditDigestCoverage();

/** Shape-audit one schedule entry against the external-value table it
 * will be resolved with: every memref record must index the table, land
 * on a memref-typed value, and carry per-dim vectors of the memref's
 * rank. @p path labels the diagnostics (defaults to the entry origin). */
std::vector<VerifyError> auditScheduleEntry(
    const BandScheduleEntry &entry, const std::vector<Value *> &externals,
    const std::string &path = std::string());

} // namespace scalehls

#endif // SCALEHLS_ESTIMATE_COHERENCE_AUDIT_H
