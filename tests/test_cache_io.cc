/** @file Tests for the estimate-cache snapshot format (cache_io): exact
 * round-trips of all four tiers through encode/decode and save/load,
 * deterministic snapshot bytes, wholesale rejection of version- or
 * digest-schema-mismatched snapshots, corrupt/truncated files degrading
 * to a clean cold start (never a crash, never a partial payload), the
 * stats-baseline guarantee (loading inserts entries without recording
 * lookups), and the per-tier cap plumbing behind -dse-cache-cap. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "estimate/cache_io.h"
#include "estimate/estimate_cache.h"

namespace scalehls {
namespace {

QoRResult
sampleQoR(int64_t seed)
{
    QoRResult qor;
    qor.latency = 100 + seed;
    qor.interval = 50 + seed;
    qor.feasible = seed % 2 == 0;
    qor.resources.dsp = seed;
    qor.resources.lut = seed * 10;
    qor.resources.bram18k = seed * 2;
    qor.resources.memoryBits = seed * 1024;
    return qor;
}

BandEstimate
sampleBand(int64_t seed)
{
    BandEstimate band;
    band.latency = 1000 + seed;
    band.interval = 200 + seed;
    band.feasible = seed % 3 != 0;
    band.memPortII = 1 + seed % 4;
    band.pipelinedCompute.dsp = seed;
    band.pipelinedCompute.lut = seed * 7;
    band.sequentialOps["arith.mulf"] = seed;
    band.sequentialOps["arith.addf"] = seed + 1;
    OpProfile profile;
    profile.latency = 4;
    profile.ii = 1;
    profile.dsp = 3;
    profile.lut = static_cast<int>(seed);
    band.profiles["arith.mulf"] = profile;
    band.loops = 2 + seed;
    band.calls = seed % 2;
    return band;
}

BandScheduleEntry
sampleSchedule(int64_t seed)
{
    BandScheduleEntry entry;
    entry.estimate = sampleBand(seed);
    entry.origin = "kernel#" + std::to_string(seed);
    BandScheduleEntry::MemrefInfo memref;
    memref.extId = static_cast<unsigned>(seed);
    memref.read = true;
    memref.write = seed % 2 == 0;
    memref.relevant = {true, false, true};
    memref.contribution.kinds = {PartitionKind::Cyclic,
                                 PartitionKind::None};
    memref.contribution.factors = {4, 1};
    memref.assumed.kinds = {PartitionKind::Block, PartitionKind::Cyclic};
    memref.assumed.factors = {2, 8};
    entry.memrefs.push_back(memref);
    memref.extId += 1;
    memref.relevant = {false};
    entry.memrefs.push_back(memref);
    return entry;
}

BandPlanOutcome
samplePlan(int64_t seed)
{
    BandPlanOutcome outcome;
    outcome.materializable = seed % 2 == 0;
    outcome.composable = seed % 3 != 0;
    outcome.digest = "digest-" + std::to_string(seed);
    outcome.extMap = {0u, 2u, static_cast<unsigned>(seed)};
    return outcome;
}

/** A cache populated with distinguishable entries in every tier. */
void
populate(EstimateCache &cache, int entries = 3)
{
    for (int i = 0; i < entries; ++i) {
        cache.insert(EstimateCache::keyFor("func" + std::to_string(i),
                                           "d" + std::to_string(i)),
                     sampleQoR(i));
        cache.insertBand("band-digest-" + std::to_string(i),
                         sampleBand(i + 10));
        cache.insertSchedule("phase1-digest-" + std::to_string(i),
                             sampleSchedule(i + 20));
        cache.insertPlan("plan-key-" + std::to_string(i),
                         samplePlan(i + 30));
    }
}

void
expectEqual(const QoRResult &a, const QoRResult &b)
{
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.interval, b.interval);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.resources.dsp, b.resources.dsp);
    EXPECT_EQ(a.resources.lut, b.resources.lut);
    EXPECT_EQ(a.resources.bram18k, b.resources.bram18k);
    EXPECT_EQ(a.resources.memoryBits, b.resources.memoryBits);
}

void
expectEqual(const BandEstimate &a, const BandEstimate &b)
{
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.interval, b.interval);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.memPortII, b.memPortII);
    EXPECT_EQ(a.pipelinedCompute.dsp, b.pipelinedCompute.dsp);
    EXPECT_EQ(a.pipelinedCompute.lut, b.pipelinedCompute.lut);
    EXPECT_EQ(a.sequentialOps, b.sequentialOps);
    ASSERT_EQ(a.profiles.size(), b.profiles.size());
    for (const auto &entry : a.profiles) {
        auto it = b.profiles.find(entry.first);
        ASSERT_NE(it, b.profiles.end());
        EXPECT_EQ(entry.second.latency, it->second.latency);
        EXPECT_EQ(entry.second.ii, it->second.ii);
        EXPECT_EQ(entry.second.dsp, it->second.dsp);
        EXPECT_EQ(entry.second.lut, it->second.lut);
    }
    EXPECT_EQ(a.loops, b.loops);
    EXPECT_EQ(a.calls, b.calls);
}

void
expectEqual(const PartitionPlan &a, const PartitionPlan &b)
{
    EXPECT_EQ(a.kinds, b.kinds);
    EXPECT_EQ(a.factors, b.factors);
}

void
expectEqual(const BandScheduleEntry &a, const BandScheduleEntry &b)
{
    expectEqual(a.estimate, b.estimate);
    EXPECT_EQ(a.origin, b.origin);
    ASSERT_EQ(a.memrefs.size(), b.memrefs.size());
    for (size_t i = 0; i < a.memrefs.size(); ++i) {
        EXPECT_EQ(a.memrefs[i].extId, b.memrefs[i].extId);
        EXPECT_EQ(a.memrefs[i].read, b.memrefs[i].read);
        EXPECT_EQ(a.memrefs[i].write, b.memrefs[i].write);
        EXPECT_EQ(a.memrefs[i].relevant, b.memrefs[i].relevant);
        expectEqual(a.memrefs[i].contribution, b.memrefs[i].contribution);
        expectEqual(a.memrefs[i].assumed, b.memrefs[i].assumed);
    }
}

TEST(CacheIOTest, RoundTripAllFourTiers)
{
    EstimateCache cache;
    populate(cache);
    std::string bytes = encodeEstimateCache(cache);

    EstimateCache restored;
    CacheLoadResult result = decodeEstimateCache(restored, bytes);
    ASSERT_EQ(result.status, CacheLoadStatus::Loaded);
    EXPECT_EQ(result.funcEntries, 3u);
    EXPECT_EQ(result.bandEntries, 3u);
    EXPECT_EQ(result.scheduleEntries, 3u);
    EXPECT_EQ(result.planEntries, 3u);
    EXPECT_EQ(result.totalEntries(), 12u);

    for (int i = 0; i < 3; ++i) {
        auto qor = restored.lookup(EstimateCache::keyFor(
            "func" + std::to_string(i), "d" + std::to_string(i)));
        ASSERT_TRUE(qor.has_value());
        expectEqual(*qor, sampleQoR(i));

        auto band =
            restored.lookupBand("band-digest-" + std::to_string(i));
        ASSERT_TRUE(band.has_value());
        expectEqual(*band, sampleBand(i + 10));

        auto schedule =
            restored.lookupSchedule("phase1-digest-" + std::to_string(i));
        ASSERT_TRUE(schedule.has_value());
        expectEqual(*schedule, sampleSchedule(i + 20));

        auto plan = restored.lookupPlan("plan-key-" + std::to_string(i));
        ASSERT_TRUE(plan.has_value());
        BandPlanOutcome expected = samplePlan(i + 30);
        EXPECT_EQ(plan->materializable, expected.materializable);
        EXPECT_EQ(plan->composable, expected.composable);
        EXPECT_EQ(plan->digest, expected.digest);
        EXPECT_EQ(plan->extMap, expected.extMap);
    }
}

TEST(CacheIOTest, SnapshotBytesAreInsertOrderIndependent)
{
    EstimateCache forward;
    EstimateCache backward;
    for (int i = 0; i < 8; ++i) {
        forward.insert("key" + std::to_string(i), sampleQoR(i));
        forward.insertPlan("plan" + std::to_string(i), samplePlan(i));
    }
    for (int i = 7; i >= 0; --i) {
        backward.insert("key" + std::to_string(i), sampleQoR(i));
        backward.insertPlan("plan" + std::to_string(i), samplePlan(i));
    }
    EXPECT_EQ(encodeEstimateCache(forward), encodeEstimateCache(backward));
}

TEST(CacheIOTest, EmptyCacheRoundTrips)
{
    EstimateCache cache;
    std::string bytes = encodeEstimateCache(cache);
    EstimateCache restored;
    CacheLoadResult result = decodeEstimateCache(restored, bytes);
    EXPECT_EQ(result.status, CacheLoadStatus::Loaded);
    EXPECT_EQ(result.totalEntries(), 0u);
}

TEST(CacheIOTest, LoadNeverTouchesStatsBaselines)
{
    EstimateCache cache;
    populate(cache);
    std::string bytes = encodeEstimateCache(cache);

    EstimateCache restored;
    ASSERT_TRUE(decodeEstimateCache(restored, bytes).loaded());
    // The entries are present, but NO lookups, hits or misses are on the
    // books: every hit-rate report measures this run only.
    EXPECT_EQ(restored.funcStats().entries, 3u);
    EXPECT_EQ(restored.funcStats().lookups(), 0u);
    EXPECT_EQ(restored.bandStats().lookups(), 0u);
    EXPECT_EQ(restored.scheduleStats().lookups(), 0u);
    EXPECT_EQ(restored.planStats().lookups(), 0u);

    // First post-load probes are hits with a 100% rate — history from
    // the serialized process must not dilute it.
    EXPECT_TRUE(restored.lookup(EstimateCache::keyFor("func0", "d0")));
    EXPECT_EQ(restored.funcStats().hits, 1u);
    EXPECT_EQ(restored.funcStats().misses, 0u);
}

TEST(CacheIOTest, VersionMismatchRejectedWholesale)
{
    EstimateCache cache;
    populate(cache);
    std::string bytes =
        encodeEstimateCache(cache, kCacheSnapshotFormatVersion + 1);

    EstimateCache restored;
    CacheLoadResult result = decodeEstimateCache(restored, bytes);
    EXPECT_EQ(result.status, CacheLoadStatus::VersionMismatch);
    EXPECT_EQ(result.totalEntries(), 0u);
    EXPECT_FALSE(result.message.empty());
    EXPECT_EQ(restored.size(), 0u);
    EXPECT_FALSE(restored.lookupPlan("plan-key-0"));
}

TEST(CacheIOTest, DigestSchemaSaltMismatchRejectedWholesale)
{
    EstimateCache cache;
    populate(cache);
    std::string bytes = encodeEstimateCache(
        cache, kCacheSnapshotFormatVersion, "some-other-digest-schema");

    EstimateCache restored;
    CacheLoadResult result = decodeEstimateCache(restored, bytes);
    EXPECT_EQ(result.status, CacheLoadStatus::SaltMismatch);
    EXPECT_EQ(result.totalEntries(), 0u);
    EXPECT_EQ(restored.size(), 0u);
}

TEST(CacheIOTest, TruncatedSnapshotIsCleanColdStart)
{
    EstimateCache cache;
    populate(cache);
    std::string bytes = encodeEstimateCache(cache);

    // Every truncation point — header, salt, payload, checksum — must
    // decode to Corrupt with zero inserts, never crash or partially load.
    for (size_t cut : {size_t(0), size_t(4), size_t(11),
                       bytes.size() / 2, bytes.size() - 1}) {
        EstimateCache restored;
        CacheLoadResult result = decodeEstimateCache(
            restored, std::string_view(bytes).substr(0, cut));
        EXPECT_EQ(result.status, CacheLoadStatus::Corrupt)
            << "cut at " << cut;
        EXPECT_EQ(restored.size(), 0u);
        EXPECT_FALSE(restored.lookupBand("band-digest-0"));
    }
}

TEST(CacheIOTest, FlippedPayloadByteFailsChecksum)
{
    EstimateCache cache;
    populate(cache);
    std::string bytes = encodeEstimateCache(cache);

    std::string corrupted = bytes;
    corrupted[corrupted.size() - 3] ^= 0x40;
    EstimateCache restored;
    CacheLoadResult result = decodeEstimateCache(restored, corrupted);
    EXPECT_EQ(result.status, CacheLoadStatus::Corrupt);
    EXPECT_EQ(restored.size(), 0u);
}

TEST(CacheIOTest, BadMagicRejected)
{
    EstimateCache restored;
    CacheLoadResult result =
        decodeEstimateCache(restored, "definitely not a snapshot file");
    EXPECT_EQ(result.status, CacheLoadStatus::Corrupt);

    // Trailing garbage after a valid payload is corruption too.
    EstimateCache cache;
    populate(cache, 1);
    std::string padded = encodeEstimateCache(cache) + "tail";
    EXPECT_EQ(decodeEstimateCache(restored, padded).status,
              CacheLoadStatus::Corrupt);
}

TEST(CacheIOTest, SaveLoadRoundTripsThroughDisk)
{
    const char *tmp = std::getenv("TMPDIR");
    std::string path = std::string(tmp && *tmp ? tmp : "/tmp") +
                       "/scalehls_test_cache_io.shlsnap";

    EstimateCache cache;
    populate(cache, 5);
    std::string error;
    ASSERT_TRUE(saveEstimateCache(cache, path, &error)) << error;

    EstimateCache restored;
    CacheLoadResult result = loadEstimateCache(restored, path);
    EXPECT_EQ(result.status, CacheLoadStatus::Loaded);
    EXPECT_EQ(result.totalEntries(), 20u);
    auto schedule = restored.lookupSchedule("phase1-digest-4");
    ASSERT_TRUE(schedule.has_value());
    expectEqual(*schedule, sampleSchedule(24));
    std::remove(path.c_str());
}

TEST(CacheIOTest, MissingFileIsSilentNoFile)
{
    EstimateCache restored;
    CacheLoadResult result = loadEstimateCache(
        restored, "/nonexistent-dir/never-written.shlsnap");
    EXPECT_EQ(result.status, CacheLoadStatus::NoFile);
    EXPECT_EQ(result.totalEntries(), 0u);
    EXPECT_EQ(restored.size(), 0u);
}

TEST(CacheIOTest, SaveFailureReportsError)
{
    EstimateCache cache;
    populate(cache, 1);
    std::string error;
    EXPECT_FALSE(saveEstimateCache(
        cache, "/nonexistent-dir/sub/snapshot.shlsnap", &error));
    EXPECT_FALSE(error.empty());
}

TEST(CacheIOTest, LoadIsFirstWriterWinsAgainstExistingEntries)
{
    EstimateCache cache;
    cache.insert("shared-key", sampleQoR(1));
    std::string bytes = encodeEstimateCache(cache);

    EstimateCache target;
    target.insert("shared-key", sampleQoR(99));
    ASSERT_TRUE(decodeEstimateCache(target, bytes).loaded());
    // The live entry wins; the snapshot never overwrites warm state.
    auto qor = target.lookup("shared-key");
    ASSERT_TRUE(qor.has_value());
    expectEqual(*qor, sampleQoR(99));
}

TEST(CacheIOTest, SaltCoversDigestHashFingerprint)
{
    std::string salt = cacheSnapshotSalt();
    EXPECT_NE(salt.find(digestHashFingerprint()), std::string::npos);
    // Deterministic across calls (it stamps every snapshot header).
    EXPECT_EQ(salt, cacheSnapshotSalt());
}

TEST(CacheIOTest, ForEachVisitsEveryEntryWithoutTouchingStats)
{
    EstimateCache cache;
    populate(cache, 4);
    size_t visited = 0;
    cache.forEachSchedule(
        [&](const std::string &key, const BandScheduleEntry &entry) {
            EXPECT_EQ(key.rfind("phase1-digest-", 0), 0u);
            EXPECT_FALSE(entry.origin.empty());
            ++visited;
        });
    EXPECT_EQ(visited, 4u);
    EXPECT_EQ(cache.scheduleStats().lookups(), 0u);
}

TEST(CacheIOTest, ParseEstimateCacheCaps)
{
    auto uniform = parseEstimateCacheCaps("4096");
    ASSERT_TRUE(uniform.has_value());
    EXPECT_EQ(uniform->func, 4096u);
    EXPECT_EQ(uniform->band, 4096u);
    EXPECT_EQ(uniform->schedule, 4096u);
    EXPECT_EQ(uniform->plan, 4096u);

    auto tiers = parseEstimateCacheCaps("1024:4096:0:8192");
    ASSERT_TRUE(tiers.has_value());
    EXPECT_EQ(tiers->func, 1024u);
    EXPECT_EQ(tiers->band, 4096u);
    EXPECT_EQ(tiers->schedule, 0u);
    EXPECT_EQ(tiers->plan, 8192u);

    auto zero = parseEstimateCacheCaps("0");
    ASSERT_TRUE(zero.has_value());
    EXPECT_EQ(zero->func, 0u);
    EXPECT_EQ(zero->band, 0u);
    EXPECT_EQ(zero->schedule, 0u);
    EXPECT_EQ(zero->plan, 0u);

    EXPECT_FALSE(parseEstimateCacheCaps(""));
    EXPECT_FALSE(parseEstimateCacheCaps("1:2"));
    EXPECT_FALSE(parseEstimateCacheCaps("1:2:3:4:5"));
    EXPECT_FALSE(parseEstimateCacheCaps("a:2:3:4"));
    EXPECT_FALSE(parseEstimateCacheCaps("-1"));
}

TEST(CacheIOTest, PerTierCapsEvictIndependently)
{
    EstimateCache cache;
    EstimateCacheTierCaps caps;
    // The cap is spread across shards, so leave ample per-shard slack
    // on the tier that must NOT evict and starve the one that must.
    caps.func = 4096;
    caps.plan = 2;
    cache.setTierMaxEntries(caps);

    for (int i = 0; i < 64; ++i) {
        cache.insert("f" + std::to_string(i), sampleQoR(i));
        cache.insertPlan("p" + std::to_string(i), samplePlan(i));
    }
    EXPECT_EQ(cache.funcStats().evictions, 0u);
    EXPECT_GT(cache.planStats().evictions, 0u);
    EXPECT_LT(cache.planStats().entries, 64u);
    // Band/schedule tiers stay unbounded.
    for (int i = 0; i < 64; ++i)
        cache.insertBand("b" + std::to_string(i), sampleBand(i));
    EXPECT_EQ(cache.bandStats().entries, 64u);
    EXPECT_EQ(cache.bandStats().evictions, 0u);
}

} // namespace
} // namespace scalehls
