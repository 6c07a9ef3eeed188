/**
 * @file
 * Snapshot persistence for the three-tier EstimateCache: a versioned,
 * checksummed binary format that lets the content-keyed cache tiers
 * outlive the process (DSE-as-a-service warm starts). Safety rests on
 * properties the tiers already have, not on trusting the file:
 *
 *  - every key is injective and content-derived (EstimateCache::keyFor,
 *    self-contained band digests, bandPlanKey), so entries are valid in
 *    any process — there is nothing process-local to go stale;
 *  - schedule and plan entries are re-validated at every use with a
 *    slow-path fallback, so an entry that no longer matches this
 *    build's pipeline costs a recomputation, never a wrong QoR;
 *  - a format version plus a digest-schema salt in the header reject
 *    snapshots written under an incompatible layout or digest scheme
 *    wholesale, and any truncated/corrupt/unreadable file loads as an
 *    EMPTY cache (cold start with a warning — never a crash, never a
 *    partially-trusted payload).
 *
 * Loading inserts entries only: the hit/miss/eviction counters of the
 * receiving cache are left untouched, so hit-rate reports and bench
 * compare gates always measure THIS run's lookups, not the serialized
 * process's history.
 */

#ifndef SCALEHLS_ESTIMATE_CACHE_IO_H
#define SCALEHLS_ESTIMATE_CACHE_IO_H

#include <cstdint>
#include <string>
#include <string_view>

#include "estimate/estimate_cache.h"

namespace scalehls {

/** Snapshot byte-layout version; bump on any change to the encoding
 * below (field order, widths, new tiers). Version-mismatched snapshots
 * are rejected wholesale. */
inline constexpr uint32_t kCacheSnapshotFormatVersion = 2;

/** The digest-schema salt stamped into every snapshot header: a manual
 * schema version, the digest attribute-coverage registries
 * (estimateRelevantAttrs / digestExcludedAttrs), and a live fingerprint
 * of the digest hash itself (digestHashFingerprint). A snapshot whose
 * salt differs was keyed under a different digest scheme and is
 * rejected wholesale — its keys could silently miss or, worse, alias
 * this build's keys. */
std::string cacheSnapshotSalt();

/** Why (or that) a snapshot load populated the cache. Everything except
 * Loaded leaves the receiving cache exactly as it was (cold start). */
enum class CacheLoadStatus
{
    Loaded,          ///< Entries inserted; counts in CacheLoadResult.
    NoFile,          ///< Path missing/unreadable — silent cold start.
    VersionMismatch, ///< Other format version; rejected wholesale.
    SaltMismatch,    ///< Digest schema changed; rejected wholesale.
    Corrupt          ///< Bad magic/checksum/truncation; rejected.
};

struct CacheLoadResult
{
    CacheLoadStatus status = CacheLoadStatus::NoFile;
    size_t funcEntries = 0;
    size_t scheduleEntries = 0;
    size_t planEntries = 0;
    /** Human-readable reason on any non-Loaded status. */
    std::string message;

    bool loaded() const { return status == CacheLoadStatus::Loaded; }
    size_t
    totalEntries() const
    {
        return funcEntries + scheduleEntries + planEntries;
    }
};

/** Serialize all three tiers of @p cache into the snapshot byte format.
 * Entries are exported per tier in sorted key order, so byte-identical
 * cache contents produce byte-identical snapshots regardless of insert
 * order or shard layout. @p format_version / @p salt exist for tests
 * exercising the rejection paths; production callers use the
 * defaults. */
std::string encodeEstimateCache(
    const EstimateCache &cache,
    uint32_t format_version = kCacheSnapshotFormatVersion,
    const std::string &salt = std::string());

/** Validate @p bytes and bulk-insert its entries into @p cache.
 * All-or-nothing: the payload is fully decoded and checksummed before
 * the first insert, so a rejected snapshot leaves @p cache untouched.
 * Inserts are first-writer-wins and never touch the stats counters. */
CacheLoadResult decodeEstimateCache(EstimateCache &cache,
                                    std::string_view bytes);

/** encodeEstimateCache to @p path (written via a temp file + rename, so
 * a concurrent loader never observes a half-written snapshot). Returns
 * false with @p error set on IO failure. */
bool saveEstimateCache(const EstimateCache &cache, const std::string &path,
                       std::string *error = nullptr);

/** Read @p path and decodeEstimateCache it. A missing file is a silent
 * NoFile cold start; every other failure carries a message. */
CacheLoadResult loadEstimateCache(EstimateCache &cache,
                                  const std::string &path);

/** loadEstimateCache, logging rejection/corruption warnings (and a
 * one-line load summary) to stderr — the convenience wrapper the tools
 * and the Compiler use. */
CacheLoadResult loadEstimateCacheLogged(EstimateCache &cache,
                                        const std::string &path);

/** saveEstimateCache, logging IO failures to stderr. */
bool saveEstimateCacheLogged(const EstimateCache &cache,
                             const std::string &path);

/** The default snapshot path under $SCALEHLS_CACHE_DIR
 * ("<dir>/estimate_cache.shlsnap"), or "" when the variable is unset or
 * empty — the load-on-start/save-on-exit hook every DSE entry point
 * resolves its unset cache paths against. */
std::string defaultCacheSnapshotPath();

} // namespace scalehls

#endif // SCALEHLS_ESTIMATE_CACHE_IO_H
