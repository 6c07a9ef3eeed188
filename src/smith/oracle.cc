#include "smith/oracle.h"

#include <memory>
#include <random>
#include <set>
#include <sstream>

#include "dse/band_plan.h"
#include "dse/evaluator.h"
#include "support/json.h"
#include "support/thread_pool.h"

namespace scalehls {

namespace {

bool
qorEqual(const QoRResult &a, const QoRResult &b)
{
    return a.latency == b.latency && a.interval == b.interval &&
           a.feasible == b.feasible && a.resources.dsp == b.resources.dsp &&
           a.resources.lut == b.resources.lut &&
           a.resources.bram18k == b.resources.bram18k &&
           a.resources.memoryBits == b.resources.memoryBits;
}

std::string
qorStr(const QoRResult &q)
{
    std::ostringstream os;
    os << "{lat=" << q.latency << " ii=" << q.interval
       << " dsp=" << q.resources.dsp << " lut=" << q.resources.lut
       << " bram=" << q.resources.bram18k
       << " bits=" << q.resources.memoryBits
       << " feasible=" << (q.feasible ? 1 : 0) << "}";
    return os.str();
}

std::string
pointStr(const DesignSpace::Point &point)
{
    std::string out = "[";
    for (size_t i = 0; i < point.size(); ++i)
        out += (i ? "," : "") + std::to_string(point[i]);
    return out + "]";
}

/** The probed point set: canonical seeds, an II-dial variant of the
 * first seed, then seeded random points — deduplicated, order kept. */
std::vector<DesignSpace::Point>
buildPoints(const DesignSpace &space, uint64_t seed, int target)
{
    std::vector<DesignSpace::Point> points = space.canonicalSeedPoints();
    if (!points.empty() && space.numBands() > 0) {
        DesignSpace::Point dial = points.front();
        size_t ii_dim = space.dimTargetII(0);
        dial[ii_dim] = space.dimSizes()[ii_dim] - 1;
        points.push_back(dial);
    }
    std::mt19937 rng(static_cast<uint32_t>(seed ^ (seed >> 32) ^
                                           0x5eedu));
    for (int draws = 0;
         static_cast<int>(points.size()) < target && draws < 8 * target;
         ++draws)
        points.push_back(space.randomPoint(rng));

    std::vector<DesignSpace::Point> unique;
    std::set<DesignSpace::Point> seen;
    for (auto &p : points)
        if (seen.insert(p).second)
            unique.push_back(std::move(p));
    return unique;
}

/** Pre-seed every PLAN key @p points consult with a materializable but
 * never-composable outcome. The planner then falls back on every
 * point, so misses run the full pipeline over a warm estimate cache —
 * the production route of kernels whose plans cannot compose. */
void
blockPlans(const DesignSpace &space, EstimateCache &cache,
           const std::vector<DesignSpace::Point> &points)
{
    BandPlanner planner(space, &cache);
    BandPlanOutcome blocked;
    blocked.materializable = true;
    for (const auto &point : points)
        for (size_t b = 0; b < space.numBands(); ++b) {
            std::string key = planner.debugPlanKey(point, b);
            if (!key.empty())
                cache.insertPlan(key, blocked);
        }
}

/** Poison the PLAN tier for exactly the key the planner will consult on
 * @p point: a confidently-composable outcome whose digest matches no
 * real band content. Returns false when the sample is not
 * plan-eligible. */
bool
corruptPlan(const DesignSpace &space, EstimateCache &cache,
            const DesignSpace::Point &point)
{
    BandPlanner planner(space, &cache);
    std::string key = planner.debugPlanKey(point, 0);
    if (key.empty())
        return false;
    BandPlanOutcome bogus;
    bogus.materializable = true;
    bogus.composable = true;
    bogus.digest = "smith-corrupted-digest";
    cache.insertPlan(key, bogus);
    return true;
}

} // namespace

SmithOracleResult
runSmithOracle(const SmithSample &sample, const SmithOracleConfig &config)
{
    SmithOracleResult result;
    DesignSpace space(sample.module.get(), config.space);
    std::vector<DesignSpace::Point> points =
        buildPoints(space, sample.seed, config.pointsPerSample);
    result.points = points.size();
    if (points.empty())
        return result;

    auto diverge = [&](const std::string &path, const std::string &detail,
                       DesignSpace::Point point = {}) {
        result.divergences.push_back({path, detail, std::move(point)});
    };

    // The reference: no pool, no estimate cache, so every point runs the
    // full materialize-and-estimate pipeline. This is the ground truth
    // the production evaluator must reproduce bit-for-bit.
    std::vector<QoRResult> baseline;
    {
        CachingEvaluator reference(space);
        baseline.reserve(points.size());
        for (const auto &point : points)
            baseline.push_back(reference.evaluate(point));
        result.evaluations += points.size();
    }

    // One production pass: a fresh evaluator (empty memo) over @p cache.
    // @p corrupted marks a cache holding the self-test's poisoned entry,
    // where audit findings are the expected catch, not a divergence.
    auto runPass = [&](const std::string &label, EstimateCache &cache,
                       ThreadPool *pool, bool corrupted, bool blocked) {
        CachingEvaluator evaluator(space, pool, &cache, config.audit);
        std::vector<QoRResult> qors = evaluator.evaluateBatch(points);
        result.evaluations += points.size();
        for (size_t i = 0; i < points.size(); ++i)
            if (!qorEqual(qors[i], baseline[i]))
                diverge(label,
                        "QoR mismatch at point " + pointStr(points[i]) +
                            ": got " + qorStr(qors[i]) + ", reference " +
                            qorStr(baseline[i]),
                        points[i]);

        DSEStats pass = evaluator.stats();
        result.decisions += pass;

        // Counter invariants (exact, derived from the evaluator's memo
        // accounting): every memo miss is decided by exactly one
        // decision class, the only zero-IR composition is the
        // planner's, and every batch slot is a miss, a memo hit, or an
        // in-batch dedup.
        size_t classes = pass.fullMaterializations + pass.planComposed +
                         pass.overlayMaterializations + pass.planInfeasible;
        if (pass.materializations != classes)
            diverge("counters@" + label,
                    "materializations (" +
                        std::to_string(pass.materializations) +
                        ") != full+planComposed+overlay+planInfeasible (" +
                        std::to_string(classes) + ")");
        if (pass.fastPathHits != pass.planComposed)
            diverge("counters@" + label,
                    "fastPathHits (" + std::to_string(pass.fastPathHits) +
                        ") != planComposed (" +
                        std::to_string(pass.planComposed) + ")");
        size_t accounted =
            pass.materializations + pass.memoHits + pass.batchDedups;
        if (accounted != points.size())
            diverge("counters@" + label,
                    "batch of " + std::to_string(points.size()) +
                        " accounted as " + std::to_string(accounted) +
                        " (mat+hits+dedups)");
        if (blocked && (pass.planComposed != 0 ||
                        pass.overlayMaterializations != 0))
            diverge("counters@" + label,
                    "planner answered through a blocked plan (" +
                        std::to_string(pass.planComposed) + " composed, " +
                        std::to_string(pass.overlayMaterializations) +
                        " overlay)");

        if (corrupted) {
            result.corruptionCaught |=
                pass.planMismatches >= 1 || pass.auditViolations >= 1;
        } else if (pass.auditViolations != 0) {
            diverge("audit@" + label,
                    std::to_string(pass.auditViolations) +
                        " audit finding(s) in " +
                        std::to_string(pass.auditChecks) + " checks");
        }

        // Memo coherence: re-probing an already-evaluated point must be
        // a cache hit and must return the identical QoR.
        QoRResult again = evaluator.evaluate(points[0]);
        result.evaluations += 1;
        if (evaluator.stats().memoHits <= pass.memoHits)
            diverge(label, "re-evaluation missed the memo cache",
                    points[0]);
        if (!qorEqual(again, baseline[0]))
            diverge(label,
                    "memo re-probe returned " + qorStr(again) +
                        ", reference " + qorStr(baseline[0]),
                    points[0]);
    };

    // The production evaluator at 1 and N threads, in two cache states,
    // each from a FRESH estimate cache (cross-state reuse would mask a
    // path behind warm tiers): a cold pass, then a warm replay by a new
    // evaluator on the same cache.
    //  - plain: the cold pass builds overlays and proves unroll-cap
    //    infeasibility; the warm replay composes from the PLAN and
    //    SCHEDULE tiers with zero IR.
    //  - blocked: every consulted plan is pre-seeded as non-composable,
    //    so both passes run full materializations, the warm replay over
    //    the function tier the cold pass filled.
    std::vector<unsigned> thread_counts = {1};
    if (config.threads > 1)
        thread_counts.push_back(config.threads);
    for (unsigned threads : thread_counts) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 1)
            pool = std::make_unique<ThreadPool>(threads);
        std::string at = "@" + std::to_string(threads) + "t";
        for (bool blocked : {false, true}) {
            EstimateCache cache;
            bool corrupted = false;
            if (blocked) {
                blockPlans(space, cache, points);
            } else if (config.corruptPlan && threads == 1) {
                // The system must CATCH the poisoned entry (digest-
                // mismatch fallback or audit finding) and still answer
                // with the reference QoR.
                corrupted = corruptPlan(space, cache, points[0]);
                result.corruptionApplicable |= corrupted;
            }
            std::string state = blocked ? "blocked-" : "";
            runPass(state + "cold" + at, cache, pool.get(), corrupted,
                    blocked);
            if (corrupted && !result.corruptionCaught)
                diverge("cold" + at,
                        "corrupted PLAN entry went undetected "
                        "(no mismatch fallback, no audit finding)",
                        points[0]);
            runPass(state + "warm" + at, cache, pool.get(), corrupted,
                    blocked);
        }
    }
    return result;
}

namespace {

std::string
jsonBool(bool value)
{
    return value ? "true" : "false";
}

bool
boolField(const JsonValue &obj, const char *key, bool fallback)
{
    const JsonValue *value = obj.get(key);
    if (!value)
        return fallback;
    if (value->kind == JsonValue::Kind::Bool)
        return value->boolean;
    return value->isNumber() ? value->asInt() != 0 : fallback;
}

int64_t
intField(const JsonValue &obj, const char *key, int64_t fallback)
{
    const JsonValue *value = obj.get(key);
    return value && value->isNumber() ? value->asInt() : fallback;
}

} // namespace

std::string
reproducerJson(const SmithSample &sample, const SmithOracleConfig &config,
               const SmithDivergence &divergence)
{
    std::ostringstream os;
    os << "{\"version\":1,\"seed\":" << sample.seed;
    os << ",\"gen\":{\"max_bands\":" << sample.config.maxBands
       << ",\"max_depth\":" << sample.config.maxDepth
       << ",\"directives\":" << jsonBool(sample.config.allowDirectives)
       << ",\"dataflow_top\":" << jsonBool(sample.config.allowDataflowTop)
       << ",\"calls\":" << jsonBool(sample.config.allowCalls)
       << ",\"dead_allocs\":" << jsonBool(sample.config.allowDeadAllocs)
       << "}";
    os << ",\"oracle\":{\"points\":" << config.pointsPerSample
       << ",\"threads\":" << config.threads
       << ",\"audit\":" << jsonBool(config.audit)
       << ",\"corrupt_plan\":" << jsonBool(config.corruptPlan)
       << ",\"space\":{\"max_tile_size\":" << config.space.maxTileSize
       << ",\"max_total_unroll\":" << config.space.maxTotalUnroll
       << ",\"max_ii\":" << config.space.maxII << "}}";
    os << ",\"shape\":\"" << jsonEscape(sample.shape) << "\"";
    os << ",\"path\":\"" << jsonEscape(divergence.path) << "\"";
    os << ",\"detail\":\"" << jsonEscape(divergence.detail) << "\"";
    os << ",\"point\":[";
    for (size_t i = 0; i < divergence.point.size(); ++i)
        os << (i ? "," : "") << divergence.point[i];
    os << "]";
    os << ",\"source\":\"" << jsonEscape(sample.source) << "\"";
    os << ",\"printed\":\"" << jsonEscape(sample.printed) << "\"";
    os << "}";
    return os.str();
}

bool
replayReproducer(const std::string &json_text, std::string *report,
                 SmithOracleResult *result)
{
    std::ostringstream log;
    auto fail = [&](const std::string &why) {
        log << "replay error: " << why << "\n";
        if (report)
            *report = log.str();
        return false;
    };

    auto parsed = parseJson(json_text);
    if (!parsed || parsed->kind != JsonValue::Kind::Object)
        return fail("reproducer is not a JSON object");
    const JsonValue &root = *parsed;
    if (intField(root, "version", 0) != 1)
        return fail("unsupported reproducer version");
    const JsonValue *seed_value = root.get("seed");
    if (!seed_value || !seed_value->isNumber())
        return fail("missing seed");
    uint64_t seed = static_cast<uint64_t>(seed_value->asInt());

    SmithGenConfig gen;
    if (const JsonValue *g = root.get("gen")) {
        gen.maxBands = static_cast<int>(
            intField(*g, "max_bands", gen.maxBands));
        gen.maxDepth = static_cast<int>(
            intField(*g, "max_depth", gen.maxDepth));
        gen.allowDirectives =
            boolField(*g, "directives", gen.allowDirectives);
        gen.allowDataflowTop =
            boolField(*g, "dataflow_top", gen.allowDataflowTop);
        gen.allowCalls = boolField(*g, "calls", gen.allowCalls);
        gen.allowDeadAllocs =
            boolField(*g, "dead_allocs", gen.allowDeadAllocs);
    }
    SmithOracleConfig oracle;
    if (const JsonValue *o = root.get("oracle")) {
        oracle.pointsPerSample = static_cast<int>(
            intField(*o, "points", oracle.pointsPerSample));
        oracle.threads = static_cast<unsigned>(
            intField(*o, "threads", oracle.threads));
        oracle.audit = boolField(*o, "audit", oracle.audit);
        oracle.corruptPlan =
            boolField(*o, "corrupt_plan", oracle.corruptPlan);
        if (const JsonValue *s = o->get("space")) {
            oracle.space.maxTileSize =
                intField(*s, "max_tile_size", oracle.space.maxTileSize);
            oracle.space.maxTotalUnroll = intField(
                *s, "max_total_unroll", oracle.space.maxTotalUnroll);
            oracle.space.maxII = intField(*s, "max_ii", oracle.space.maxII);
        }
    }

    SmithSample sample = generateSmithSample(gen, seed);
    log << "replaying seed " << seed << " shape " << sample.shape << "\n";

    // Exactness gate: the regenerated module must print bit-identically
    // to the recorded one — otherwise the generator drifted and this
    // record no longer reproduces the original sample.
    if (const JsonValue *printed = root.get("printed")) {
        if (printed->isString() && printed->string != sample.printed)
            return fail("regenerated module differs from the recorded "
                        "one (generator drift; reproducer is stale)");
        log << "regenerated module matches the recorded print\n";
    }

    SmithOracleResult run = runSmithOracle(sample, oracle);
    log << run.points << " points, " << run.evaluations
        << " evaluations, " << run.divergences.size()
        << " divergence(s)\n";
    for (const auto &d : run.divergences)
        log << "  [" << d.path << "] " << d.detail << "\n";
    if (oracle.corruptPlan)
        log << "corruption applicable="
            << (run.corruptionApplicable ? "yes" : "no") << " caught="
            << (run.corruptionCaught ? "yes" : "no") << "\n";
    if (result)
        *result = std::move(run);
    if (report)
        *report = log.str();
    return true;
}

} // namespace scalehls
