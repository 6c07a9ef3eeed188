/** @file Tests for the DSE-as-a-service session layer (api/serve) and
 * its JSON plumbing (support/json): request parsing and error replies
 * (a malformed request answers, never throws or kills the session),
 * stats/save/quit control requests, per-request QoR determinism,
 * bit-identical responses under concurrent dispatch against the shared
 * cache, and cross-session warm starts through the snapshot file. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "api/explore_request.h"
#include "api/serve.h"
#include "dse/pareto.h"
#include "model/dnn_dse.h"
#include "support/json.h"
#include "support/thread_pool.h"

namespace scalehls {
namespace {

/** Session options isolated from any ambient $SCALEHLS_CACHE_DIR. */
ServeOptions
isolatedOptions()
{
    ServeOptions options;
    options.cacheLoadPath.clear();
    options.cacheSavePath.clear();
    return options;
}

/** A small, fully pinned polybench request: every DSE knob explicit so
 * the trajectory is a pure function of the request body. */
std::string
gemmRequest(int id, unsigned seed)
{
    return "{\"id\":" + std::to_string(id) +
           ",\"kind\":\"polybench\",\"kernel\":\"gemm\",\"size\":8,"
           "\"samples\":6,\"iterations\":4,\"batch\":2,\"seed\":" +
           std::to_string(seed) + "}";
}

JsonValue
parsed(const std::string &response)
{
    auto value = parseJson(response);
    EXPECT_TRUE(value.has_value()) << response;
    EXPECT_EQ(value->kind, JsonValue::Kind::Object) << response;
    return *value;
}

int64_t
intAt(const JsonValue &object, const char *key)
{
    const JsonValue *value = object.get(key);
    EXPECT_NE(value, nullptr) << "missing field " << key;
    EXPECT_TRUE(value && value->isNumber()) << key;
    return value ? value->asInt() : -1;
}

bool
boolAt(const JsonValue &object, const char *key)
{
    const JsonValue *value = object.get(key);
    EXPECT_NE(value, nullptr) << "missing field " << key;
    EXPECT_TRUE(value && value->kind == JsonValue::Kind::Bool) << key;
    return value && value->boolean;
}

/** The determinism-relevant slice of a DSE response: QoR + frontier
 * summary (cache stats legitimately vary with dispatch interleaving). */
std::string
qorSlice(const JsonValue &response)
{
    const JsonValue *qor = response.get("qor");
    const JsonValue *frontier = response.get("frontier");
    if (!qor || !frontier)
        return "<no qor>";
    return std::to_string(intAt(*qor, "latency")) + "/" +
           std::to_string(intAt(*qor, "interval")) + "/" +
           std::to_string(intAt(*qor, "dsp")) + "/" +
           std::to_string(intAt(*qor, "lut")) + "/" +
           std::to_string(intAt(*qor, "bram18k")) + "|" +
           std::to_string(intAt(*frontier, "size"));
}

TEST(JsonTest, ParsesScalarsObjectsAndArrays)
{
    auto value = parseJson(
        " {\"a\": 1, \"b\": [true, false, null, -2.5], "
        "\"c\": {\"nested\": \"x\\n\\\"y\\\"\"}} ");
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(value->kind, JsonValue::Kind::Object);
    EXPECT_EQ(intAt(*value, "a"), 1);
    const JsonValue *array = value->get("b");
    ASSERT_NE(array, nullptr);
    ASSERT_EQ(array->array.size(), 4u);
    EXPECT_EQ(array->array[0].kind, JsonValue::Kind::Bool);
    EXPECT_TRUE(array->array[0].boolean);
    EXPECT_EQ(array->array[2].kind, JsonValue::Kind::Null);
    EXPECT_DOUBLE_EQ(array->array[3].number, -2.5);
    const JsonValue *nested = value->get("c");
    ASSERT_NE(nested, nullptr);
    ASSERT_NE(nested->get("nested"), nullptr);
    EXPECT_EQ(nested->get("nested")->string, "x\n\"y\"");
}

TEST(JsonTest, RejectsMalformedInput)
{
    EXPECT_FALSE(parseJson(""));
    EXPECT_FALSE(parseJson("{"));
    EXPECT_FALSE(parseJson("{\"a\":}"));
    EXPECT_FALSE(parseJson("{\"a\":1} trailing"));
    EXPECT_FALSE(parseJson("{'a':1}"));
    EXPECT_FALSE(parseJson("{\"a\":01x}"));
}

TEST(JsonTest, EscapeRoundTripsThroughParse)
{
    std::string nasty = "quote\" backslash\\ newline\n tab\t";
    auto value =
        parseJson("{\"k\":\"" + jsonEscape(nasty) + "\"}");
    ASSERT_TRUE(value.has_value());
    ASSERT_NE(value->get("k"), nullptr);
    EXPECT_EQ(value->get("k")->string, nasty);
}

TEST(ServeTest, MalformedRequestsAnswerWithErrors)
{
    ServeSession session(isolatedOptions());

    JsonValue bad = parsed(session.handleLine("this is not json"));
    EXPECT_FALSE(boolAt(bad, "ok"));
    ASSERT_NE(bad.get("error"), nullptr);

    JsonValue no_kind = parsed(session.handleLine("{\"id\":7}"));
    EXPECT_FALSE(boolAt(no_kind, "ok"));
    EXPECT_EQ(intAt(no_kind, "id"), 7);

    JsonValue unknown =
        parsed(session.handleLine("{\"id\":8,\"kind\":\"nope\"}"));
    EXPECT_FALSE(boolAt(unknown, "ok"));
    EXPECT_NE(unknown.get("error")->string.find("unknown kind"),
              std::string::npos);

    JsonValue bad_field = parsed(session.handleLine(
        "{\"id\":9,\"kind\":\"polybench\",\"seed\":\"seven\"}"));
    EXPECT_FALSE(boolAt(bad_field, "ok"));

    JsonValue bad_budget = parsed(session.handleLine(
        "{\"id\":10,\"kind\":\"polybench\",\"budget\":\"warp9\"}"));
    EXPECT_FALSE(boolAt(bad_budget, "ok"));

    // The session survived all of it and still serves.
    EXPECT_FALSE(session.quitRequested());
    JsonValue good = parsed(session.handleLine(gemmRequest(11, 3)));
    EXPECT_TRUE(boolAt(good, "ok"));
    EXPECT_TRUE(boolAt(good, "feasible"));
}

TEST(ServeTest, StatsSaveAndQuitRequests)
{
    const char *tmp = std::getenv("TMPDIR");
    std::string path = std::string(tmp && *tmp ? tmp : "/tmp") +
                       "/scalehls_test_serve_save.shlsnap";
    ServeSession session(isolatedOptions());

    JsonValue stats =
        parsed(session.handleLine("{\"id\":1,\"kind\":\"stats\"}"));
    EXPECT_TRUE(boolAt(stats, "ok"));
    EXPECT_EQ(intAt(stats, "loaded_entries"), 0);
    ASSERT_NE(stats.get("cache"), nullptr);
    ASSERT_NE(stats.get("cache")->get("plan"), nullptr);
    EXPECT_EQ(intAt(*stats.get("cache")->get("plan"), "entries"), 0);

    parsed(session.handleLine(gemmRequest(2, 5)));
    JsonValue save = parsed(session.handleLine(
        "{\"id\":3,\"kind\":\"save\",\"path\":\"" + path + "\"}"));
    EXPECT_TRUE(boolAt(save, "ok"));

    // The explicit save wrote a loadable snapshot with the request's
    // entries in it.
    EstimateCache restored;
    CacheLoadResult loaded = loadEstimateCache(restored, path);
    EXPECT_EQ(loaded.status, CacheLoadStatus::Loaded);
    EXPECT_GT(loaded.totalEntries(), 0u);
    std::remove(path.c_str());

    // A save with NO path configured and none given reports false.
    JsonValue unsaved =
        parsed(session.handleLine("{\"id\":4,\"kind\":\"save\"}"));
    EXPECT_FALSE(boolAt(unsaved, "ok"));

    EXPECT_FALSE(session.quitRequested());
    JsonValue quit =
        parsed(session.handleLine("{\"id\":5,\"kind\":\"quit\"}"));
    EXPECT_TRUE(boolAt(quit, "ok"));
    EXPECT_TRUE(session.quitRequested());
    // All five requests completed — including the unsuccessful save,
    // which is an answered request, not a dispatch failure.
    EXPECT_EQ(session.completedRequests(), 5u);
}

TEST(ServeTest, FailedSaveReplyCarriesTheReason)
{
    // Every reply carries "ok" plus either "error" or a result: a save
    // that writes nothing says why, for an unwritable path and for no
    // path at all.
    ServeSession session(isolatedOptions());
    auto expectSaveError = [&](const std::string &request,
                               const std::string &reason) {
        JsonValue reply = parsed(session.handleLine(request));
        EXPECT_EQ(intAt(reply, "id"), 7);
        EXPECT_FALSE(boolAt(reply, "ok"));
        ASSERT_NE(reply.get("kind"), nullptr);
        EXPECT_EQ(reply.get("kind")->string, "save");
        const JsonValue *error = reply.get("error");
        ASSERT_NE(error, nullptr) << request;
        EXPECT_NE(error->string.find(reason), std::string::npos)
            << error->string;
    };
    expectSaveError("{\"id\":7,\"kind\":\"save\",\"path\":"
                    "\"/nonexistent/dir/x.shlsnap\"}",
                    "cannot open /nonexistent/dir/x.shlsnap.tmp");
    expectSaveError("{\"id\":7,\"kind\":\"save\"}", "no snapshot path");
}

TEST(ServeTest, RepeatedRequestsAreDeterministicAndWarm)
{
    ServeSession session(isolatedOptions());
    JsonValue first = parsed(session.handleLine(gemmRequest(1, 7)));
    ASSERT_TRUE(boolAt(first, "ok"));
    ASSERT_TRUE(boolAt(first, "feasible"));

    JsonValue second = parsed(session.handleLine(gemmRequest(2, 7)));
    EXPECT_EQ(qorSlice(first), qorSlice(second));
    // The repeat runs entirely against the warmed shared cache: every
    // plan decision replays, nothing is re-materialized.
    EXPECT_EQ(intAt(second, "full_materializations"), 0);
    EXPECT_EQ(intAt(second, "overlay_materializations"), 0);
    EXPECT_GT(intAt(second, "plan_composed"), 0);
}

TEST(ServeTest, ConcurrentDispatchIsBitIdenticalToFreshSessions)
{
    // Reference responses: each distinct request on its OWN cold
    // session — no sharing, no concurrency.
    std::vector<std::string> requests;
    std::vector<std::string> reference;
    for (int i = 0; i < 4; ++i) {
        requests.push_back(gemmRequest(i, 3 + static_cast<unsigned>(i)));
        ServeSession fresh(isolatedOptions());
        reference.push_back(qorSlice(parsed(
            fresh.handleLine(requests.back()))));
        EXPECT_NE(reference.back(), "<no qor>");
    }

    // The same requests — duplicated, shuffled across 4 dispatch
    // threads, racing on ONE shared session/cache — must answer with
    // exactly the reference QoR for every copy.
    ServeSession session(isolatedOptions());
    ThreadPool pool(4);
    std::mutex mutex;
    std::vector<std::pair<size_t, std::string>> responses;
    for (int copy = 0; copy < 3; ++copy) {
        for (size_t r = 0; r < requests.size(); ++r) {
            pool.submit([&, r] {
                std::string response =
                    session.handleLine(requests[r]);
                std::lock_guard<std::mutex> lock(mutex);
                responses.emplace_back(r, response);
            });
        }
    }
    pool.waitIdle();

    ASSERT_EQ(responses.size(), 12u);
    for (const auto &entry : responses) {
        JsonValue response = parsed(entry.second);
        EXPECT_TRUE(boolAt(response, "ok"));
        EXPECT_EQ(qorSlice(response), reference[entry.first])
            << "request " << entry.first
            << " diverged under concurrent dispatch";
    }
    EXPECT_EQ(session.completedRequests(), 12u);
}

TEST(ServeTest, SnapshotCarriesWarmStartAcrossSessions)
{
    const char *tmp = std::getenv("TMPDIR");
    std::string path = std::string(tmp && *tmp ? tmp : "/tmp") +
                       "/scalehls_test_serve_warm.shlsnap";
    std::remove(path.c_str());

    std::string cold_slice;
    {
        ServeOptions options = isolatedOptions();
        options.cacheSavePath = path;
        ServeSession session(options);
        JsonValue cold = parsed(session.handleLine(gemmRequest(1, 7)));
        ASSERT_TRUE(boolAt(cold, "ok"));
        EXPECT_GT(intAt(cold, "overlay_materializations"), 0);
        cold_slice = qorSlice(cold);
        // ~ServeSession writes the shutdown snapshot.
    }

    ServeOptions options = isolatedOptions();
    options.cacheLoadPath = path;
    ServeSession warm_session(options);
    EXPECT_TRUE(warm_session.loadResult().loaded());
    EXPECT_GT(warm_session.loadResult().totalEntries(), 0u);
    // The loaded entries carry no lookup history (fresh baselines).
    EXPECT_EQ(warm_session.cache().planStats().lookups(), 0u);

    JsonValue warm = parsed(warm_session.handleLine(gemmRequest(2, 7)));
    ASSERT_TRUE(boolAt(warm, "ok"));
    EXPECT_EQ(qorSlice(warm), cold_slice);
    EXPECT_EQ(intAt(warm, "full_materializations"), 0);
    EXPECT_EQ(intAt(warm, "overlay_materializations"), 0);
    EXPECT_GT(intAt(warm, "plan_composed"), 0);
    std::remove(path.c_str());
}

TEST(ServeTest, PerRequestThreadsDoNotChangeQoR)
{
    ServeSession session(isolatedOptions());
    JsonValue serial = parsed(session.handleLine(
        "{\"id\":1,\"kind\":\"polybench\",\"kernel\":\"gemm\","
        "\"size\":8,\"samples\":6,\"iterations\":4,\"batch\":2,"
        "\"seed\":9,\"threads\":1}"));
    ServeSession other(isolatedOptions());
    JsonValue pooled = parsed(other.handleLine(
        "{\"id\":2,\"kind\":\"polybench\",\"kernel\":\"gemm\","
        "\"size\":8,\"samples\":6,\"iterations\":4,\"batch\":2,"
        "\"seed\":9,\"threads\":4}"));
    EXPECT_EQ(qorSlice(serial), qorSlice(pooled));
}

TEST(ServeTest, KernelRequestAnswersByIndexAndRejectsBadNames)
{
    ServeSession session(isolatedOptions());
    JsonValue kernel = parsed(session.handleLine(
        "{\"id\":1,\"kind\":\"kernel\",\"model\":\"resnet18\","
        "\"graph_level\":4,\"kernel\":0,\"samples\":6,"
        "\"iterations\":4,\"batch\":2,\"seed\":3}"));
    EXPECT_TRUE(boolAt(kernel, "ok"));
    EXPECT_TRUE(boolAt(kernel, "feasible"));
    ASSERT_NE(kernel.get("design"), nullptr);
    EXPECT_EQ(kernel.get("design")->string.rfind("resnet18/", 0), 0u);

    JsonValue missing = parsed(session.handleLine(
        "{\"id\":2,\"kind\":\"kernel\",\"model\":\"resnet18\","
        "\"kernel\":\"no_such_kernel\"}"));
    EXPECT_FALSE(boolAt(missing, "ok"));
    EXPECT_NE(missing.get("error")->string.find("no kernel named"),
              std::string::npos);
}

TEST(ServeTest, KernelReplyCarriesEveryDSEStatsField)
{
    // The first request of a fresh session explores on a cold cache at
    // one thread, so its reply must carry every DSEStats counter under
    // its snake name with exactly the values of the same exploration
    // run directly on a fresh cache.
    std::string line =
        "{\"id\":1,\"kind\":\"kernel\",\"model\":\"resnet18\","
        "\"graph_level\":4,\"kernel\":0,\"samples\":6,"
        "\"iterations\":4,\"batch\":2,\"seed\":3,\"threads\":1}";
    ServeSession session(isolatedOptions());
    JsonValue reply = parsed(session.handleLine(line));
    ASSERT_TRUE(boolAt(reply, "ok"));
    ASSERT_TRUE(boolAt(reply, "feasible"));

    ExploreRequest request;
    request.budgetSpec = "vu9p-slr";
    request.model = "resnet18";
    ASSERT_EQ(exploreRequestFromJson(request, parsed(line)), "");
    EstimateCache cache;
    request.dse.cacheLoadPath.clear();
    request.dse.cacheSavePath.clear();
    request.dse.sharedEstimates = &cache;
    ASSERT_FALSE(request.validate());
    auto kernels =
        buildDNNKernelModules(request.model, request.graphLevel, 1);
    ASSERT_FALSE(kernels.empty());
    auto direct = runDSE(kernels[0].module.get(), request);
    ASSERT_TRUE(direct);
    DSEStats::forEachField(
        [&](const char *name, size_t expected) {
            EXPECT_EQ(intAt(reply, name), static_cast<int64_t>(expected))
                << name;
        },
        *direct);
}

TEST(ServeTest, BadKernelIndexAndSizeAreRejectedWithoutSideEffects)
{
    // A negative kernel index must not wrap to SIZE_MAX (which builds
    // every kernel of the model) and size 0 must not answer a gemm-0
    // design. Both are error replies that leave the session exactly as
    // it was: the good replies around them are byte-identical to a
    // session that never saw them.
    std::string good_kernel =
        "{\"id\":4,\"kind\":\"kernel\",\"model\":\"resnet18\","
        "\"graph_level\":4,\"kernel\":0,\"samples\":6,"
        "\"iterations\":4,\"batch\":2,\"seed\":3}";

    ServeSession session(isolatedOptions());
    std::string first = session.handleLine(gemmRequest(1, 7));
    JsonValue bad_kernel = parsed(session.handleLine(
        "{\"id\":2,\"kind\":\"kernel\",\"model\":\"resnet18\","
        "\"kernel\":-1}"));
    EXPECT_FALSE(boolAt(bad_kernel, "ok"));
    EXPECT_EQ(bad_kernel.get("error")->string,
              "kernel expects an unsigned integer, got '-1'");
    JsonValue bad_size = parsed(session.handleLine(
        "{\"id\":3,\"kind\":\"polybench\",\"kernel\":\"gemm\","
        "\"size\":0}"));
    EXPECT_FALSE(boolAt(bad_size, "ok"));
    EXPECT_EQ(bad_size.get("error")->string, "size must be positive");
    std::string second = session.handleLine(good_kernel);

    ServeSession clean(isolatedOptions());
    EXPECT_EQ(first, clean.handleLine(gemmRequest(1, 7)));
    EXPECT_EQ(second, clean.handleLine(good_kernel));
    EXPECT_TRUE(boolAt(parsed(second), "ok"));
    EXPECT_EQ(session.completedRequests(), 2u);
}

TEST(ServeTest, OverflowingSizeAnswersInfeasibleWithoutAWrappedFrontier)
{
    // gemm at n = 2^31 - 1 needs ~n^3 cycles, far beyond int64_t: every
    // trip-count x latency product overflows. Checked QoR arithmetic
    // makes each such point infeasible, so the reply says so and no
    // frontier latency can fall below the true bound (it used to report
    // a wrapped frontier of latency 2).
    ServeSession session(isolatedOptions());
    JsonValue reply = parsed(session.handleLine(
        "{\"id\":1,\"kind\":\"polybench\",\"kernel\":\"gemm\","
        "\"size\":2147483647,\"samples\":2,\"iterations\":2}"));
    EXPECT_TRUE(boolAt(reply, "ok"));
    EXPECT_FALSE(boolAt(reply, "feasible"));
    if (const JsonValue *qor = reply.get("qor")) {
        EXPECT_GE(intAt(*qor, "latency"), kInfeasibleQoR);
    }
    if (const JsonValue *frontier = reply.get("frontier");
        frontier && intAt(*frontier, "size") > 0) {
        EXPECT_GE(intAt(*frontier, "min_latency"), kInfeasibleQoR);
        EXPECT_GE(intAt(*frontier, "max_latency"), kInfeasibleQoR);
    }
}

TEST(ServeTest, MalformedCacheCapIsAnErrorReply)
{
    // An overflowing count and the retired four-field spec both answer
    // with the shared cache-cap diagnostic; the session keeps serving.
    ServeSession session(isolatedOptions());
    for (const char *spec : {"99999999999999999999", "1:2:3:4"}) {
        JsonValue reply = parsed(session.handleLine(
            std::string("{\"id\":1,\"kind\":\"polybench\","
                        "\"kernel\":\"gemm\",\"cache_cap\":\"") +
            spec + "\"}"));
        EXPECT_FALSE(boolAt(reply, "ok"));
        ASSERT_NE(reply.get("error"), nullptr);
        EXPECT_EQ(reply.get("error")->string,
                  std::string("cache cap must be <n> or func:sched:plan, "
                              "got '") +
                      spec + "'");
    }
    EXPECT_TRUE(boolAt(parsed(session.handleLine(gemmRequest(2, 3))), "ok"));
}

TEST(ServeTest, FeasibleRepliesNeverCarryTheInfeasibleSentinel)
{
    // "feasible" is the answered QoR's own flag. trmm at 1 once answered
    // the infeasible sentinel (a perfectization miscompile) under
    // "feasible":true. (gemm at 2^31 still reaches the sentinel through
    // a signed overflow, which UBSan builds reject, so it is not
    // exercised here.)
    ServeSession session(isolatedOptions());
    const char *requests[] = {
        "{\"id\":1,\"kind\":\"polybench\",\"kernel\":\"trmm\",\"size\":1,"
        "\"samples\":4,\"iterations\":4}",
        "{\"id\":2,\"kind\":\"polybench\",\"kernel\":\"trmm\",\"size\":2,"
        "\"samples\":4,\"iterations\":4}",
        "{\"id\":3,\"kind\":\"polybench\",\"kernel\":\"gemm\",\"size\":8,"
        "\"samples\":4,\"iterations\":4}",
    };
    for (const char *request : requests) {
        JsonValue reply = parsed(session.handleLine(request));
        ASSERT_TRUE(boolAt(reply, "ok")) << request;
        const JsonValue *qor = reply.get("qor");
        if (boolAt(reply, "feasible")) {
            ASSERT_NE(qor, nullptr) << request;
            EXPECT_LT(intAt(*qor, "latency"), kInfeasibleQoR) << request;
        }
    }
    JsonValue trmm = parsed(session.handleLine(requests[0]));
    EXPECT_TRUE(boolAt(trmm, "feasible"));
}

} // namespace
} // namespace scalehls
