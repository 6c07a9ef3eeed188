/**
 * @file
 * scalehls-smith's differential oracle: every generated sample's design
 * points are evaluated by the uncached reference (no estimate cache, so
 * every point runs the full pipeline) and by the production
 * CachingEvaluator at one and N threads, in two cache states:
 *
 *  - cold then warm: a fresh estimate cache, then a fresh evaluator
 *    replaying on the warm cache — covers the full, overlay,
 *    plan-composed and plan-infeasible decisions;
 *  - plan-blocked: every consulted PLAN key is pre-seeded as
 *    non-composable before the same cold pass and warm replay — forces
 *    the plan-fallback -> schedule-composed decision.
 *
 * The oracle fails on ANY divergence: a QoR that differs from the
 * reference in any field, an evaluator counter combination that breaks
 * the decision accounting invariants, or an L3/L4 audit finding. A
 * failing sample is dumped as a JSON reproducer that
 * `scalehls-smith --replay <file>` re-executes exactly (generation is a
 * pure function of config + seed).
 */

#ifndef SCALEHLS_SMITH_ORACLE_H
#define SCALEHLS_SMITH_ORACLE_H

#include <string>
#include <vector>

#include "dse/evaluator.h"
#include "smith/generator.h"

namespace scalehls {

/** Oracle knobs. Serialized into reproducer files alongside the
 * generator config. */
struct SmithOracleConfig
{
    /** Design points probed per sample (canonical seeds first, then an
     * II-dial variant, then seeded random points). */
    int pointsPerSample = 6;
    /** The N of the N-thread runs (1 skips them). */
    unsigned threads = 4;
    /** Run the L3/L4 auditors inside every cached evaluation. */
    bool audit = true;
    /** Self-test hook: poison one PLAN-tier entry before the 1-thread
     * cold pass and demand the corruption is CAUGHT (mismatch counter or
     * audit finding) while the QoR still matches the reference. */
    bool corruptPlan = false;
    /** The design-space bounds every run shares. */
    DesignSpaceOptions space;
};

/** One oracle failure: which evaluation path diverged, on what. */
struct SmithDivergence
{
    std::string path;   ///< e.g. "warm@4t" or "counters@blocked-cold@1t".
    std::string detail; ///< Human-readable what-differed.
    DesignSpace::Point point; ///< Offending point (empty for counters).
};

/** The oracle's verdict on one sample. */
struct SmithOracleResult
{
    size_t points = 0;        ///< Points probed.
    size_t evaluations = 0;   ///< Point evaluations across all runs.
    /** Evaluator counters summed over every production pass: how the
     * memo misses were decided (full, schedule-composed =
     * fastPathHits - planComposed, plan-composed, overlay,
     * plan-infeasible). */
    DSEStats decisions;
    std::vector<SmithDivergence> divergences;
    /** corruptPlan only: the poisoned entry was applicable (the sample
     * is plan-eligible) — self-tests must retry other seeds when
     * false. */
    bool corruptionApplicable = false;
    /** corruptPlan only: the poisoned entry was detected (plan-mismatch
     * fallback or audit finding). An applicable-but-uncaught corruption
     * is also recorded as a divergence. */
    bool corruptionCaught = false;
};

/** Run the reference-vs-production differential oracle over
 * @p sample. */
SmithOracleResult runSmithOracle(const SmithSample &sample,
                                 const SmithOracleConfig &config);

/** Serialize a failing sample + its first divergence as a one-line JSON
 * reproducer record. */
std::string reproducerJson(const SmithSample &sample,
                           const SmithOracleConfig &config,
                           const SmithDivergence &divergence);

/** Re-execute a reproducer record exactly: regenerate the sample from
 * the recorded (config, seed), check the regenerated module prints
 * bit-identically to the recorded one (generator drift is itself a
 * failure), and re-run the oracle. @p report receives a human-readable
 * transcript. Returns true when the replay ran faithfully (module
 * matched and the oracle executed) — the caller inspects @p result for
 * whether the divergence reproduced. */
bool replayReproducer(const std::string &json_text, std::string *report,
                      SmithOracleResult *result);

} // namespace scalehls

#endif // SCALEHLS_SMITH_ORACLE_H
