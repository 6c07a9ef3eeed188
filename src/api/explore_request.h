/**
 * @file
 * The unified DSE request: ONE struct bundling everything an
 * exploration needs — the device budget, the design-space bounds, the
 * engine options and the graph-level/model selection — decoded and
 * validated identically by every front end. scalehls-opt flag parsing,
 * scalehls-serve JSON decoding and scalehls-smith all build an
 * ExploreRequest through the helpers here instead of hand-assembling
 * {ResourceBudget, DesignSpaceOptions, DSEOptions} triples, so a
 * malformed request is rejected with the SAME diagnostic no matter
 * which door it came in through, and canonical defaults live in exactly
 * one place.
 */

#ifndef SCALEHLS_API_EXPLORE_REQUEST_H
#define SCALEHLS_API_EXPLORE_REQUEST_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "dse/dse_engine.h"

namespace scalehls {

struct JsonValue;

/** One self-contained exploration request.
 *
 * Specs that need decoding (the budget and the cache-cap) are stored as
 * their surface strings and resolved by validate(), so a bad value is
 * diagnosed identically whether it arrived as a CLI flag, a JSON field
 * or a directly-assigned member. Call validate() before handing the
 * request to the Compiler — the resolved `budget` is only meaningful
 * after a successful validation. */
struct ExploreRequest
{
    /** Device budget spec: "xc7z020", "vu9p-slr", a named-profile
     * variant (see parseResourceBudget) or a custom "dsp:lut:bram18k"
     * triple. Resolved into `budget` by validate(). */
    std::string budgetSpec = "xc7z020";
    /** The resolved device budget (valid after validate()). */
    ResourceBudget budget = xc7z020();

    /** Zoo model for whole-model / per-kernel modes ("" = the caller
     * provides the module, e.g. parsed HLS C). */
    std::string model;
    /** Graph granularity for model modes (1..7). */
    int graphLevel = 4;

    /** Per-tier estimate-cache cap spec ("" = unbounded; "<n>" or
     * "func:sched:plan"). Resolved into dse.estimateCacheTierCaps
     * by validate(). */
    std::string cacheCapSpec;

    DesignSpaceOptions space;
    DSEOptions dse;

    /** Re-apply the process-environment defaults: the snapshot paths
     * from $SCALEHLS_CACHE_DIR (only onto fields still holding the
     * construction-time default) and audit mode from
     * $SCALEHLS_DSE_AUDIT. One call replaces the historical scatter of
     * applyCacheEnvDefaults / dseAuditEnvDefault call sites. Returns
     * *this for chaining. */
    ExploreRequest &applyEnvDefaults();

    /** Check the request and resolve the spec fields (budget, cache
     * caps). Returns nullopt when the request is well-formed; otherwise
     * the diagnostic every front end reports verbatim. */
    std::optional<std::string> validate();
};

/** @name Front-end decoding
 * All three front ends funnel through these, so field names, value
 * parsing and diagnostics cannot drift apart. Range/spec errors are
 * deferred to validate() — the decoders only reject values that cannot
 * be represented in the struct at all (e.g. a non-numeric count). */
///@{

/** Consume one "-name=value" CLI argument into @p request. Returns
 * false when the flag is not an explore flag (the caller handles it);
 * true when consumed. A malformed value fills @p error with the shared
 * diagnostic and still returns true (the flag WAS an explore flag).
 *
 * Flags: -dse-budget, -dse-model, -dse-graph-level, -dse-threads,
 * -dse-batch, -dse-seed, -dse-samples, -dse-iterations, -dse-cache,
 * -dse-cache-cap, -cache-load, -cache-save, -dse-audit. */
bool parseExploreFlag(ExploreRequest &request, const std::string &arg,
                      std::string *error);

/** Decode the explore fields of a JSON request object (the
 * scalehls-serve protocol: "budget", "model", "graph_level", "threads",
 * "seed", "samples", "iterations", "batch", "cache", "cache_cap",
 * "audit"). Unknown members are ignored (they belong to the enclosing
 * protocol). Returns "" on success, else the shared diagnostic. */
std::string exploreRequestFromJson(ExploreRequest &request,
                                   const JsonValue &object);

/** The one checked integral decode of a JSON member: member @p key of
 * @p object must be a number whose literal the CLI would accept as
 * "-flag=<literal>" (digits only, fits in `unsigned`), so 2.9, -1,
 * 1e300 and 4294967300 are rejected, never truncated or wrapped.
 * Leaves @p field untouched when the member is absent. Returns "" on
 * success, else the shared "<key> expects an unsigned integer"
 * diagnostic. */
std::string decodeJsonUnsigned(const JsonValue &object, const char *key,
                               unsigned &field);

/** The checked decode of an integral tool option
 * ("-affine-loop-unroll=<f>", "--threads N", ...): digits only, no
 * larger than @p max, so "abc", "-1" and "99999999999999999999" are
 * rejected, never thrown or wrapped. Returns "" on success, else the
 * shared "<name> expects an unsigned integer, got '<value>'" diagnostic
 * (leaving @p field untouched). */
std::string decodeFlagInt(const std::string &name, const std::string &value,
                          int64_t &field,
                          int64_t max = std::numeric_limits<int64_t>::max());

/** The checked decode of a cache-cap spec (-dse-cache-cap,
 * scalehls-serve --cache-cap, the "cache_cap" request field): "" on
 * success, else the shared "cache cap must be <n> or func:sched:plan"
 * diagnostic (leaving @p caps untouched). */
std::string decodeCacheCaps(const std::string &spec,
                            EstimateCacheTierCaps &caps);

/** decodeFlagInt over a comma-separated list
 * ("-affine-loop-tile=<t0,t1,...>"; "" is the empty list). The
 * diagnostic quotes the first malformed element. */
std::string decodeFlagIntList(const std::string &name,
                              const std::string &value,
                              std::vector<int64_t> &fields);

/** The usage text of the shared explore flags (kept next to the parser
 * so tools cannot document flags the parser does not accept). */
const char *exploreFlagUsage();

///@}

/** Engine-level entry point: run one exploration described by
 * @p request over @p module (see dse/dse_engine.h). Uses the resolved
 * `request.budget`, so validate() the request first. */
std::optional<DSEResult> runDSE(Operation *module,
                                const ExploreRequest &request);

} // namespace scalehls

#endif // SCALEHLS_API_EXPLORE_REQUEST_H
