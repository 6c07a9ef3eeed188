#include "api/serve.h"

#include <exception>
#include <stdexcept>
#include <utility>
#include <vector>

#include "api/explore_request.h"
#include "model/dnn_dse.h"
#include "model/polybench.h"
#include "support/json.h"
#include "transform/pass.h"

namespace scalehls {

namespace {

/** Thrown by request handlers on malformed input; caught in handleLine
 * and turned into an error response — a bad request must never take the
 * session (or the process) down. */
struct RequestError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** An unsigned protocol field, decoded exactly as the explore fields
 * are (so -1 or 2.9 are rejected, never wrapped or truncated). */
unsigned
unsignedField(const JsonValue &req, const char *key, unsigned fallback)
{
    std::string error = decodeJsonUnsigned(req, key, fallback);
    if (!error.empty())
        throw RequestError(error);
    return fallback;
}

std::string
strField(const JsonValue &req, const char *key,
         const std::string &fallback)
{
    const JsonValue *value = req.get(key);
    if (!value)
        return fallback;
    if (!value->isString())
        throw RequestError(std::string(key) + " must be a string");
    return value->string;
}

std::string
num(int64_t value)
{
    return std::to_string(value);
}

std::string
tierJson(const CacheStats &stats)
{
    return "{\"hits\":" + num(static_cast<int64_t>(stats.hits)) +
           ",\"misses\":" + num(static_cast<int64_t>(stats.misses)) +
           ",\"entries\":" + num(static_cast<int64_t>(stats.entries)) +
           ",\"evictions\":" +
           num(static_cast<int64_t>(stats.evictions)) + "}";
}

std::string
cacheJson(const EstimateCache &cache)
{
    return "{\"func\":" + tierJson(cache.funcStats()) +
           ",\"schedule\":" + tierJson(cache.scheduleStats()) +
           ",\"plan\":" + tierJson(cache.planStats()) + "}";
}

std::string
qorJson(const QoRResult &qor)
{
    return "{\"latency\":" + num(qor.latency) +
           ",\"interval\":" + num(qor.interval) +
           ",\"dsp\":" + num(qor.resources.dsp) +
           ",\"lut\":" + num(qor.resources.lut) +
           ",\"bram18k\":" + num(qor.resources.bram18k) + "}";
}

std::string
frontierJson(const std::vector<FrontierPoint> &frontier)
{
    std::string out =
        "{\"size\":" + num(static_cast<int64_t>(frontier.size()));
    if (!frontier.empty()) {
        // Retained frontiers are in ascending latency order.
        out += ",\"min_latency\":" + num(frontier.front().qor.latency);
        out += ",\"max_latency\":" + num(frontier.back().qor.latency);
    }
    return out + "}";
}

/** Every DSEStats counter as `"snake_name":value` members. */
std::string
dseStatsJson(const DSEStats &stats)
{
    std::string out;
    DSEStats::forEachField(
        [&](const char *name, size_t value) {
            out += (out.empty() ? "\"" : ",\"") + std::string(name) +
                   "\":" + num(static_cast<int64_t>(value));
        },
        stats);
    return out;
}

/** The reply fields of one kernel's DSE: "feasible" is the answered
 * QoR's own flag (a winner can still carry the infeasible sentinel). */
std::string
dseResultJson(const std::optional<DSEResult> &result)
{
    if (!result)
        return ",\"feasible\":false";
    return std::string(",\"feasible\":") +
           (result->qor.feasible ? "true" : "false") +
           ",\"qor\":" + qorJson(result->qor) +
           ",\"frontier\":" + frontierJson(result->frontier) + "," +
           dseStatsJson(*result);
}

/** Per-request exploration setup over the shared decode/validate path
 * (api/explore_request.h). The session cache is injected as
 * sharedEstimates, so no engine ever touches snapshot persistence (the
 * session owns it) and every request — at any front-end concurrency —
 * feeds the same content-keyed tiers. @p default_model is "" for
 * requests that do not select a zoo model (polybench). */
ExploreRequest
exploreRequestFrom(const JsonValue &req, EstimateCache *cache,
                   unsigned default_threads, const char *default_model)
{
    ExploreRequest request;
    request.budgetSpec = "vu9p-slr"; // The serve default device.
    request.model = default_model;
    request.dse.cacheLoadPath.clear();
    request.dse.cacheSavePath.clear();
    request.dse.sharedEstimates = cache;
    request.dse.numThreads = default_threads;
    std::string error = exploreRequestFromJson(request, req);
    if (!error.empty())
        throw RequestError(error);
    // A session cannot inherit "all cores" per request — one request
    // must not starve the front-end concurrency the session was
    // provisioned for.
    if (request.dse.numThreads == 0)
        request.dse.numThreads = 1;
    if (auto invalid = request.validate())
        throw RequestError(*invalid);
    return request;
}

} // namespace

ServeSession::ServeSession(const ServeOptions &options)
    : options_(options)
{
    cache_.setTierMaxEntries(options_.tierCaps);
    if (!options_.cacheLoadPath.empty())
        load_result_ =
            loadEstimateCacheLogged(cache_, options_.cacheLoadPath);
}

ServeSession::~ServeSession()
{
    if (!options_.cacheSavePath.empty())
        saveSnapshot();
}

bool
ServeSession::saveSnapshot(const std::string &path, std::string *error)
{
    std::string target = path.empty() ? options_.cacheSavePath : path;
    if (target.empty()) {
        if (error)
            *error = "no snapshot path: the request names none and the "
                     "session has no save path";
        return false;
    }
    std::lock_guard<std::mutex> lock(save_mutex_);
    if (error)
        return saveEstimateCache(cache_, target, error);
    return saveEstimateCacheLogged(cache_, target);
}

std::string
ServeSession::handleLine(const std::string &line)
{
    std::string id = "null";
    auto respondError = [&](const std::string &message) {
        return "{\"id\":" + id + ",\"ok\":false,\"error\":\"" +
               jsonEscape(message) + "\"}";
    };

    auto parsed = parseJson(line);
    if (!parsed || parsed->kind != JsonValue::Kind::Object)
        return respondError("request is not a JSON object");
    const JsonValue &req = *parsed;
    if (const JsonValue *req_id = req.get("id")) {
        if (req_id->isNumber())
            id = num(req_id->asInt());
        else if (req_id->isString())
            id = "\"" + jsonEscape(req_id->string) + "\"";
    }

    std::string response;
    try {
        std::string kind = strField(req, "kind", "");
        if (kind == "kernel") {
            response = handleKernelRequest(req, id);
        } else if (kind == "model") {
            response = handleModelRequest(req, id);
        } else if (kind == "polybench") {
            response = handlePolybenchRequest(req, id);
        } else if (kind == "stats") {
            response =
                "{\"id\":" + id + ",\"ok\":true,\"kind\":\"stats\"" +
                ",\"completed\":" +
                num(static_cast<int64_t>(completedRequests())) +
                ",\"loaded_entries\":" +
                num(static_cast<int64_t>(load_result_.totalEntries())) +
                ",\"cache\":" + cacheJson(cache_) + "}";
        } else if (kind == "save") {
            std::string error;
            bool saved = saveSnapshot(strField(req, "path", ""), &error);
            response = "{\"id\":" + id + ",\"ok\":" +
                       (saved ? "true" : "false") + ",\"kind\":\"save\"" +
                       (saved ? "" : ",\"error\":\"" + jsonEscape(error) +
                                         "\"") +
                       "}";
        } else if (kind == "quit") {
            quit_.store(true, std::memory_order_release);
            response =
                "{\"id\":" + id + ",\"ok\":true,\"kind\":\"quit\"}";
        } else if (kind.empty()) {
            return respondError("missing \"kind\"");
        } else {
            return respondError("unknown kind \"" + kind + "\"");
        }
    } catch (const std::exception &error) {
        return respondError(error.what());
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (options_.snapshotEvery != 0 &&
        completedRequests() % options_.snapshotEvery == 0 &&
        !options_.cacheSavePath.empty())
        saveSnapshot();
    return response;
}

std::string
ServeSession::handleKernelRequest(const JsonValue &req,
                                  const std::string &id)
{
    ExploreRequest request = exploreRequestFrom(
        req, &cache_, options_.defaultThreads, "resnet18");

    // The kernel: by index (builds only the needed prefix) or by name.
    std::vector<DNNKernel> kernels;
    size_t index = 0;
    const JsonValue *which = req.get("kernel");
    if (which && which->isString()) {
        kernels = buildDNNKernelModules(request.model, request.graphLevel);
        index = kernels.size();
        for (size_t i = 0; i < kernels.size(); ++i)
            if (kernels[i].name == which->string)
                index = i;
        if (index == kernels.size())
            throw RequestError("no kernel named \"" + which->string +
                               "\" in " + request.model);
    } else {
        index = unsignedField(req, "kernel", 0);
        kernels = buildDNNKernelModules(request.model, request.graphLevel,
                                        index + 1);
        if (index >= kernels.size())
            throw RequestError("kernel index " + num(index) +
                               " out of range (model has " +
                               num(static_cast<int64_t>(kernels.size())) +
                               " at this prefix)");
    }
    DNNKernel &kernel = kernels[index];

    auto result = runDSE(kernel.module.get(), request);
    std::string out = "{\"id\":" + id +
                      ",\"ok\":true,\"kind\":\"kernel\",\"design\":\"" +
                      jsonEscape(request.model + "/" + kernel.name) +
                      "\"";
    out += dseResultJson(result);
    out += ",\"cache\":" + cacheJson(cache_) + "}";
    return out;
}

std::string
ServeSession::handleModelRequest(const JsonValue &req,
                                 const std::string &id)
{
    ExploreRequest request = exploreRequestFrom(
        req, &cache_, options_.defaultThreads, "resnet18");

    Compiler compiler(buildLoweredDNN(request.model, request.graphLevel));
    auto result = compiler.optimizeModel(request);
    std::string out = "{\"id\":" + id +
                      ",\"ok\":true,\"kind\":\"model\",\"design\":\"" +
                      jsonEscape(request.model) + "\"";
    if (!result) {
        out += ",\"feasible\":false";
    } else {
        out += ",\"feasible\":";
        out += result->allocation.feasible ? "true" : "false";
        out += ",\"composed\":" + qorJson(result->composed) +
               ",\"measured\":" + qorJson(result->measured) +
               ",\"composed_verified\":";
        out += result->composedVerified ? "true" : "false";
        out += ",\"verified\":";
        out += result->verified ? "true" : "false";
        out += "," + dseStatsJson(*result) + ",\"stages\":" +
               num(static_cast<int64_t>(result->stages.size()));
    }
    out += ",\"cache\":" + cacheJson(cache_) + "}";
    return out;
}

std::string
ServeSession::handlePolybenchRequest(const JsonValue &req,
                                     const std::string &id)
{
    std::string kernel = strField(req, "kernel", "gemm");
    unsigned size = unsignedField(req, "size", 16);
    if (size == 0)
        throw RequestError("size must be positive");
    ExploreRequest request = exploreRequestFrom(
        req, &cache_, options_.defaultThreads, "");

    auto module = parseCToModule(polybenchSource(kernel, size));
    raiseScfToAffine(module.get());
    auto result = runDSE(module.get(), request);
    std::string out =
        "{\"id\":" + id +
        ",\"ok\":true,\"kind\":\"polybench\",\"design\":\"" +
        jsonEscape(kernel + "-" + num(size)) + "\"";
    out += dseResultJson(result);
    out += ",\"cache\":" + cacheJson(cache_) + "}";
    return out;
}

} // namespace scalehls
