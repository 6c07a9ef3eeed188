#include "api/explore_request.h"

#include <limits>

#include "dse/evaluator.h"
#include "estimate/cache_io.h"
#include "support/json.h"

namespace scalehls {

namespace {

/** The zoo models every model-selecting front end accepts. */
bool
isZooModel(const std::string &model)
{
    return model == "resnet18" || model == "vgg16" ||
           model == "mobilenet";
}

/** Shared "-name=<n>" / "key": <n> decoding of a non-negative integer
 * no larger than @p max. The diagnostic is the one every front end
 * prints, so it names the surface field. */
std::optional<unsigned long long>
decodeDigits(const std::string &value, unsigned long long max)
{
    // std::stoull alone would wrap "-1" to ULLONG_MAX; require digits.
    bool all_digits = !value.empty();
    for (char c : value)
        all_digits &= c >= '0' && c <= '9';
    if (!all_digits)
        return std::nullopt;
    try {
        unsigned long long parsed = std::stoull(value);
        if (parsed <= max)
            return parsed;
    } catch (const std::exception &) {
    }
    return std::nullopt;
}

std::optional<unsigned>
decodeUnsigned(const std::string &value)
{
    auto parsed = decodeDigits(value, std::numeric_limits<unsigned>::max());
    if (!parsed)
        return std::nullopt;
    return static_cast<unsigned>(*parsed);
}

std::string
unsignedDiagnostic(const std::string &name, const std::string &value)
{
    return name + " expects an unsigned integer, got '" + value + "'";
}

} // namespace

std::string
decodeFlagInt(const std::string &name, const std::string &value,
              int64_t &field)
{
    auto parsed = decodeDigits(value, std::numeric_limits<int64_t>::max());
    if (!parsed)
        return unsignedDiagnostic(name, value);
    field = static_cast<int64_t>(*parsed);
    return "";
}

std::string
decodeFlagIntList(const std::string &name, const std::string &value,
                  std::vector<int64_t> &fields)
{
    std::vector<int64_t> decoded;
    for (size_t begin = 0; !value.empty();) {
        size_t end = value.find(',', begin);
        int64_t element = 0;
        std::string error =
            decodeFlagInt(name, value.substr(begin, end - begin), element);
        if (!error.empty())
            return error;
        decoded.push_back(element);
        if (end == std::string::npos)
            break;
        begin = end + 1;
    }
    fields = std::move(decoded);
    return "";
}

std::string
decodeJsonUnsigned(const JsonValue &object, const char *key,
                   unsigned &field)
{
    const JsonValue *value = object.get(key);
    if (!value)
        return "";
    // A number's literal text goes through the CLI decoder verbatim, so
    // 2.9, -1, 1e300 and 4294967300 are rejected exactly as the
    // matching flag values are.
    std::optional<unsigned> parsed;
    if (value->isNumber())
        parsed = decodeUnsigned(value->string);
    if (!parsed)
        return unsignedDiagnostic(key, value->string);
    field = *parsed;
    return "";
}

ExploreRequest &
ExploreRequest::applyEnvDefaults()
{
    // $SCALEHLS_CACHE_DIR -> snapshot persistence ("" when unset), the
    // hook DSEOptions historically applied via applyCacheEnvDefaults.
    // Call this BEFORE applying explicit overrides (flags, JSON): it
    // rewrites the defaults, not user choices made afterwards.
    dse.cacheLoadPath = defaultCacheSnapshotPath();
    dse.cacheSavePath = defaultCacheSnapshotPath();
    // $SCALEHLS_DSE_AUDIT -> L3/L4 auditors on every fast-path decision.
    dse.auditMode = dseAuditEnvDefault();
    return *this;
}

std::optional<std::string>
ExploreRequest::validate()
{
    auto parsed_budget = parseResourceBudget(budgetSpec);
    if (!parsed_budget)
        return "budget must be xc7z020, vu9p-slr or dsp:lut:bram18k, "
               "got '" +
               budgetSpec + "'";
    budget = *parsed_budget;

    if (!model.empty() && !isZooModel(model))
        return "model must be resnet18, vgg16 or mobilenet, got '" +
               model + "'";

    if (graphLevel < 1 || graphLevel > 7)
        return "graph level must be in 1..7, got " +
               std::to_string(graphLevel);

    if (!cacheCapSpec.empty()) {
        auto caps = parseEstimateCacheCaps(cacheCapSpec);
        if (!caps)
            return "cache cap must be <n> or func:band:sched:plan, "
                   "got '" +
                   cacheCapSpec + "'";
        dse.estimateCacheTierCaps = *caps;
    }

    if (dse.batchSize == 0)
        return "batch size must be positive";
    if (dse.numInitialSamples == 0)
        return "initial samples must be positive";
    if (space.maxTileSize <= 0)
        return "max tile size must be positive";
    if (space.maxII <= 0)
        return "max II must be positive";
    return std::nullopt;
}

bool
parseExploreFlag(ExploreRequest &request, const std::string &arg,
                 std::string *error)
{
    auto pos = arg.find('=');
    std::string name = arg.substr(0, pos);
    std::string value =
        pos == std::string::npos ? std::string() : arg.substr(pos + 1);

    auto set_unsigned = [&](unsigned &field) {
        auto parsed = decodeUnsigned(value);
        if (!parsed) {
            if (error)
                *error = unsignedDiagnostic(name, value);
            return;
        }
        field = *parsed;
    };
    auto set_bool = [&](bool &field) {
        auto parsed = decodeUnsigned(value);
        if (!parsed) {
            if (error)
                *error = unsignedDiagnostic(name, value);
            return;
        }
        field = *parsed != 0;
    };

    if (name == "-dse-budget") {
        request.budgetSpec = value;
    } else if (name == "-dse-model") {
        request.model = value;
    } else if (name == "-dse-graph-level") {
        unsigned level = static_cast<unsigned>(request.graphLevel);
        set_unsigned(level);
        request.graphLevel = static_cast<int>(level);
    } else if (name == "-dse-threads") {
        set_unsigned(request.dse.numThreads);
    } else if (name == "-dse-batch") {
        set_unsigned(request.dse.batchSize);
    } else if (name == "-dse-seed") {
        set_unsigned(request.dse.seed);
    } else if (name == "-dse-samples") {
        set_unsigned(request.dse.numInitialSamples);
    } else if (name == "-dse-iterations") {
        set_unsigned(request.dse.maxIterations);
    } else if (name == "-dse-cache") {
        set_bool(request.dse.crossPointCache);
    } else if (name == "-dse-cache-cap") {
        request.cacheCapSpec = value;
    } else if (name == "-cache-load" || name == "--cache-load") {
        request.dse.cacheLoadPath = value;
    } else if (name == "-cache-save" || name == "--cache-save") {
        request.dse.cacheSavePath = value;
    } else if (name == "-dse-audit") {
        // Bare "-dse-audit" arms the auditors; "=<0|1>" sets explicitly.
        if (value.empty())
            request.dse.auditMode = true;
        else
            set_bool(request.dse.auditMode);
    } else {
        return false;
    }
    return true;
}

std::string
exploreRequestFromJson(ExploreRequest &request, const JsonValue &object)
{
    std::string error;
    auto str = [&](const char *key, std::string &field) {
        const JsonValue *value = object.get(key);
        if (!value)
            return;
        if (!value->isString()) {
            if (error.empty())
                error = std::string(key) + " must be a string";
            return;
        }
        field = value->string;
    };
    auto count = [&](const char *key, unsigned &field) {
        std::string diagnostic = decodeJsonUnsigned(object, key, field);
        if (error.empty())
            error = std::move(diagnostic);
    };
    auto flag = [&](const char *key, bool &field) {
        const JsonValue *value = object.get(key);
        if (value && value->kind == JsonValue::Kind::Bool) {
            field = value->boolean;
            return;
        }
        unsigned parsed = field;
        count(key, parsed);
        field = parsed != 0;
    };

    str("budget", request.budgetSpec);
    str("model", request.model);
    unsigned graph_level = static_cast<unsigned>(request.graphLevel);
    count("graph_level", graph_level);
    request.graphLevel = static_cast<int>(graph_level);
    count("threads", request.dse.numThreads);
    count("seed", request.dse.seed);
    count("samples", request.dse.numInitialSamples);
    count("iterations", request.dse.maxIterations);
    count("batch", request.dse.batchSize);
    flag("cache", request.dse.crossPointCache);
    flag("audit", request.dse.auditMode);
    str("cache_cap", request.cacheCapSpec);
    return error;
}

std::optional<DSEResult>
runDSE(Operation *module, const ExploreRequest &request)
{
    return runDSE(module, request.budget, request.space, request.dse);
}

const char *
exploreFlagUsage()
{
    return "  -dse-budget=<xc7z020|vu9p-slr|dsp:lut:bram18k>\n"
           "                 device budget for every DSE mode (default\n"
           "                 xc7z020; custom triple in BRAM18K blocks)\n"
           "  -dse-model=<resnet18|vgg16|mobilenet>  zoo model for\n"
           "                 whole-model DSE\n"
           "  -dse-graph-level=<1..7>  graph granularity for -dse-model\n"
           "                 (default 4)\n"
           "  -dse-threads=<n>  QoR evaluation workers (default: all\n"
           "                    cores; results independent of <n>)\n"
           "  -dse-batch=<n>    points proposed per DSE round (part of\n"
           "                    the deterministic trajectory; default 8)\n"
           "  -dse-seed=<n>     DSE random seed\n"
           "  -dse-samples=<n>  step-1 random samples (default 120)\n"
           "  -dse-iterations=<n>  step-4 proposal budget (default 400)\n"
           "  -dse-cache=<0|1>  cross-point estimate cache (default 1;\n"
           "                    content-keyed, never changes results)\n"
           "  -dse-cache-cap=<n|f:b:s:p>  max entries per estimate-\n"
           "                    cache tier (LRU eviction; default 0 =\n"
           "                    unbounded)\n"
           "  -cache-load=<path>  estimate-cache snapshot loaded before\n"
           "                    DSE (corrupt files = cold start)\n"
           "  -cache-save=<path>  snapshot saved after DSE; both paths\n"
           "                    default to $SCALEHLS_CACHE_DIR/\n"
           "                    estimate_cache.shlsnap when set\n"
           "  -dse-audit[=<0|1>]  audit every DSE fast-path decision\n"
           "                    (L3/L4); findings exit nonzero.\n"
           "                    SCALEHLS_DSE_AUDIT sets the default\n";
}

} // namespace scalehls
