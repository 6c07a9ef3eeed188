/**
 * @file
 * Tests of the unified ExploreRequest decode/validate path: the CLI
 * flag surface, the serve JSON surface and direct struct assembly must
 * produce identical option structs field by field, and must reject the
 * same malformed inputs with the same diagnostic. This is the contract
 * that keeps the three front ends from drifting apart.
 */

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/explore_request.h"
#include "support/json.h"

namespace scalehls {
namespace {

/** Field-by-field equality of two validated requests. */
void
expectRequestsEqual(const ExploreRequest &a, const ExploreRequest &b,
                    const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(a.budgetSpec, b.budgetSpec);
    EXPECT_EQ(a.budget.name, b.budget.name);
    EXPECT_EQ(a.budget.dsp, b.budget.dsp);
    EXPECT_EQ(a.budget.lut, b.budget.lut);
    EXPECT_EQ(a.budget.memoryBits, b.budget.memoryBits);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.graphLevel, b.graphLevel);
    EXPECT_EQ(a.cacheCapSpec, b.cacheCapSpec);
    EXPECT_EQ(a.space.maxTileSize, b.space.maxTileSize);
    EXPECT_EQ(a.space.maxTotalUnroll, b.space.maxTotalUnroll);
    EXPECT_EQ(a.space.maxII, b.space.maxII);
    EXPECT_EQ(a.dse.numThreads, b.dse.numThreads);
    EXPECT_EQ(a.dse.seed, b.dse.seed);
    EXPECT_EQ(a.dse.numInitialSamples, b.dse.numInitialSamples);
    EXPECT_EQ(a.dse.maxIterations, b.dse.maxIterations);
    EXPECT_EQ(a.dse.batchSize, b.dse.batchSize);
    EXPECT_EQ(a.dse.crossPointCache, b.dse.crossPointCache);
    EXPECT_EQ(a.dse.auditMode, b.dse.auditMode);
    EXPECT_EQ(a.dse.estimateCacheTierCaps.func,
              b.dse.estimateCacheTierCaps.func);
    EXPECT_EQ(a.dse.estimateCacheTierCaps.band,
              b.dse.estimateCacheTierCaps.band);
    EXPECT_EQ(a.dse.estimateCacheTierCaps.schedule,
              b.dse.estimateCacheTierCaps.schedule);
    EXPECT_EQ(a.dse.estimateCacheTierCaps.plan,
              b.dse.estimateCacheTierCaps.plan);
}

ExploreRequest
fromFlags(const std::vector<std::string> &flags)
{
    ExploreRequest request;
    for (const std::string &flag : flags) {
        std::string error;
        EXPECT_TRUE(parseExploreFlag(request, flag, &error)) << flag;
        EXPECT_TRUE(error.empty()) << error;
    }
    return request;
}

ExploreRequest
fromJsonText(const std::string &text)
{
    ExploreRequest request;
    auto parsed = parseJson(text);
    EXPECT_TRUE(parsed.has_value()) << text;
    std::string error = exploreRequestFromJson(request, *parsed);
    EXPECT_TRUE(error.empty()) << error;
    return request;
}

TEST(ExploreRequest, FlagJsonAndDirectDecodeToIdenticalOptions)
{
    // One non-default value for every decodable field, through all
    // three doors.
    ExploreRequest cli = fromFlags(
        {"-dse-budget=vu9p-slr", "-dse-model=vgg16",
         "-dse-graph-level=3", "-dse-threads=2", "-dse-batch=4",
         "-dse-seed=99", "-dse-samples=10", "-dse-iterations=20",
         "-dse-cache=0", "-dse-cache-cap=64:128:256:512",
         "-dse-audit=1"});

    ExploreRequest json = fromJsonText(
        "{\"budget\":\"vu9p-slr\",\"model\":\"vgg16\","
        "\"graph_level\":3,\"threads\":2,\"batch\":4,\"seed\":99,"
        "\"samples\":10,\"iterations\":20,\"cache\":false,"
        "\"cache_cap\":\"64:128:256:512\",\"audit\":1}");

    ExploreRequest direct;
    direct.budgetSpec = "vu9p-slr";
    direct.model = "vgg16";
    direct.graphLevel = 3;
    direct.cacheCapSpec = "64:128:256:512";
    direct.dse.numThreads = 2;
    direct.dse.batchSize = 4;
    direct.dse.seed = 99;
    direct.dse.numInitialSamples = 10;
    direct.dse.maxIterations = 20;
    direct.dse.crossPointCache = false;
    direct.dse.auditMode = true;

    ASSERT_FALSE(cli.validate().has_value());
    ASSERT_FALSE(json.validate().has_value());
    ASSERT_FALSE(direct.validate().has_value());

    expectRequestsEqual(cli, json, "cli vs json");
    expectRequestsEqual(cli, direct, "cli vs direct");

    // validate() resolved the specs into real values.
    EXPECT_EQ(cli.budget.name, "vu9p-slr");
    EXPECT_EQ(cli.dse.estimateCacheTierCaps.func, 64u);
    EXPECT_EQ(cli.dse.estimateCacheTierCaps.plan, 512u);
}

/** A value no struct field can hold (negative, fractional, out of
 * range) is rejected at decode time by the CLI and the JSON decoder
 * alike, with the shared diagnostic naming each surface's field. */
void
expectSameDecodeRejection(const std::string &flag_name,
                          const std::string &json_key,
                          const std::string &value)
{
    SCOPED_TRACE(flag_name + "=" + value);
    ExploreRequest from_flag;
    std::string flag_error;
    EXPECT_TRUE(
        parseExploreFlag(from_flag, flag_name + "=" + value, &flag_error));
    EXPECT_EQ(flag_error, flag_name + " expects an unsigned integer, got '" +
                              value + "'");

    ExploreRequest from_json;
    auto parsed = parseJson("{\"" + json_key + "\":" + value + "}");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(exploreRequestFromJson(from_json, *parsed),
              json_key + " expects an unsigned integer, got '" + value +
                  "'");
}

/** The same malformed value through all three front ends yields the
 * SAME diagnostic string. */
void
expectSameDiagnostic(const std::string &flag, const std::string &json,
                     ExploreRequest direct,
                     const std::string &expected)
{
    SCOPED_TRACE(expected);
    // CLI: the flag is consumed (it IS an explore flag); spec errors
    // surface at validate().
    ExploreRequest from_flag;
    std::string flag_error;
    EXPECT_TRUE(parseExploreFlag(from_flag, flag, &flag_error));
    if (flag_error.empty()) {
        auto invalid = from_flag.validate();
        ASSERT_TRUE(invalid.has_value()) << flag;
        EXPECT_EQ(*invalid, expected);
    } else {
        EXPECT_EQ(flag_error, expected);
    }

    // JSON.
    ExploreRequest from_json;
    auto parsed = parseJson(json);
    ASSERT_TRUE(parsed.has_value()) << json;
    std::string json_error = exploreRequestFromJson(from_json, *parsed);
    if (json_error.empty()) {
        auto invalid = from_json.validate();
        ASSERT_TRUE(invalid.has_value()) << json;
        EXPECT_EQ(*invalid, expected);
    } else {
        EXPECT_EQ(json_error, expected);
    }

    // Direct struct assembly.
    auto invalid = direct.validate();
    ASSERT_TRUE(invalid.has_value());
    EXPECT_EQ(*invalid, expected);
}

TEST(ExploreRequest, MalformedInputsRejectedIdenticallyEverywhere)
{
    {
        ExploreRequest direct;
        direct.budgetSpec = "badchip";
        expectSameDiagnostic(
            "-dse-budget=badchip", "{\"budget\":\"badchip\"}", direct,
            "budget must be xc7z020, vu9p-slr or dsp:lut:bram18k, got "
            "'badchip'");
    }
    {
        ExploreRequest direct;
        direct.model = "lenet";
        expectSameDiagnostic(
            "-dse-model=lenet", "{\"model\":\"lenet\"}", direct,
            "model must be resnet18, vgg16 or mobilenet, got 'lenet'");
    }
    {
        ExploreRequest direct;
        direct.graphLevel = 9;
        expectSameDiagnostic("-dse-graph-level=9", "{\"graph_level\":9}",
                             direct, "graph level must be in 1..7, got 9");
    }
    {
        ExploreRequest direct;
        direct.cacheCapSpec = "1:2";
        expectSameDiagnostic(
            "-dse-cache-cap=1:2", "{\"cache_cap\":\"1:2\"}", direct,
            "cache cap must be <n> or func:band:sched:plan, got '1:2'");
    }
    {
        ExploreRequest direct;
        direct.dse.batchSize = 0;
        expectSameDiagnostic("-dse-batch=0", "{\"batch\":0}", direct,
                             "batch size must be positive");
    }
    {
        ExploreRequest direct;
        direct.dse.numInitialSamples = 0;
        expectSameDiagnostic("-dse-samples=0", "{\"samples\":0}", direct,
                             "initial samples must be positive");
    }
    // Numbers JSON can spell but no field can hold are rejected, never
    // wrapped, truncated or cast out of range.
    expectSameDecodeRejection("-dse-graph-level", "graph_level",
                              "4294967300");
    expectSameDecodeRejection("-dse-samples", "samples", "2.9");
    expectSameDecodeRejection("-dse-threads", "threads", "1e300");
}

TEST(ExploreRequest, NonNumericCountsShareTheDiagnosticShape)
{
    // The decode-layer rejections name the surface field (flag vs JSON
    // key), but the diagnostic text is the shared one.
    ExploreRequest request;
    std::string error;
    EXPECT_TRUE(parseExploreFlag(request, "-dse-threads=many", &error));
    EXPECT_EQ(error, "-dse-threads expects an unsigned integer, got "
                     "'many'");

    ExploreRequest from_json;
    auto parsed = parseJson("{\"threads\":-1}");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(exploreRequestFromJson(from_json, *parsed),
              "threads expects an unsigned integer, got '-1'");
}

/** scalehls-opt's integral pass option @p flag given @p value is
 * rejected with the shared diagnostic naming @p bad, and the decoded
 * field is left as it was. */
void
expectPassOptionRejected(const std::string &flag, const std::string &value,
                         const std::string &bad)
{
    SCOPED_TRACE(flag + "=" + value);
    std::string expected =
        flag + " expects an unsigned integer, got '" + bad + "'";
    std::vector<int64_t> sizes{7};
    int64_t factor = 7;
    if (flag == "-affine-loop-tile") {
        EXPECT_EQ(decodeFlagIntList(flag, value, sizes), expected);
    } else {
        EXPECT_EQ(decodeFlagInt(flag, value, factor), expected);
    }
    EXPECT_EQ(sizes, std::vector<int64_t>{7});
    EXPECT_EQ(factor, 7);
}

TEST(PassOptions, MalformedValuesGetTheSharedDiagnostic)
{
    // Each must be a diagnostic, never an uncaught std::stoll exception.
    expectPassOptionRejected("-affine-loop-unroll", "abc", "abc");
    expectPassOptionRejected("-loop-pipelining", "x", "x");
    expectPassOptionRejected("-func-pipelining", "x", "x");
    expectPassOptionRejected("-affine-loop-tile", "4,x", "x");
    std::string huge = "99999999999999999999";
    expectPassOptionRejected("-affine-loop-unroll", huge, huge);
    // Neither a negative value nor an empty list element decodes.
    expectPassOptionRejected("-affine-loop-unroll", "-1", "-1");
    expectPassOptionRejected("-affine-loop-tile", "4,", "");
}

TEST(PassOptions, WellFormedValuesDecode)
{
    int64_t factor = 0;
    std::string max = std::to_string(std::numeric_limits<int64_t>::max());
    EXPECT_EQ(decodeFlagInt("-affine-loop-unroll", max, factor), "");
    EXPECT_EQ(factor, std::numeric_limits<int64_t>::max());
    std::vector<int64_t> sizes{7};
    EXPECT_EQ(decodeFlagIntList("-affine-loop-tile", "1,2,16", sizes), "");
    EXPECT_EQ(sizes, (std::vector<int64_t>{1, 2, 16}));
    EXPECT_EQ(decodeFlagIntList("-affine-loop-tile", "", sizes), "");
    EXPECT_TRUE(sizes.empty());
}

TEST(ExploreRequest, BareAuditFlagArmsAuditors)
{
    ExploreRequest request;
    request.dse.auditMode = false;
    std::string error;
    EXPECT_TRUE(parseExploreFlag(request, "-dse-audit", &error));
    EXPECT_TRUE(error.empty());
    EXPECT_TRUE(request.dse.auditMode);
}

TEST(ExploreRequest, NonExploreFlagsAreLeftToTheCaller)
{
    ExploreRequest request;
    std::string error;
    EXPECT_FALSE(parseExploreFlag(request, "-top=main", &error));
    EXPECT_FALSE(parseExploreFlag(request, "-emit-hlscpp", &error));
    EXPECT_FALSE(parseExploreFlag(request, "--corpus", &error));
    EXPECT_TRUE(error.empty());
}

TEST(ExploreRequest, JsonIgnoresEnclosingProtocolMembers)
{
    // The serve protocol wraps explore fields in kind/id/kernel members
    // the decoder must skip.
    ExploreRequest request;
    auto parsed = parseJson("{\"kind\":\"kernel\",\"id\":7,"
                            "\"kernel\":\"conv1\",\"threads\":3}");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(exploreRequestFromJson(request, *parsed), "");
    EXPECT_EQ(request.dse.numThreads, 3u);
}

TEST(ExploreRequest, DefaultsValidate)
{
    ExploreRequest request;
    EXPECT_FALSE(request.validate().has_value());
    EXPECT_EQ(request.budget.name, "xc7z020");
    EXPECT_EQ(request.graphLevel, 4);
}

} // namespace
} // namespace scalehls
