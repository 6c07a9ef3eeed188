/**
 * @file
 * A sharded concurrent memo cache: a fixed array of mutex-protected
 * hash-map shards indexed by key hash. Lookups and inserts from different
 * shards never contend; the value type is returned by copy so no
 * reference ever escapes a shard lock (a `const V&` into a concurrently
 * growing map is a use-after-rehash bug waiting to happen).
 */

#ifndef SCALEHLS_SUPPORT_CONCURRENT_CACHE_H
#define SCALEHLS_SUPPORT_CONCURRENT_CACHE_H

#include <algorithm>
#include <array>
#include <atomic>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace scalehls {

/** A point-in-time statistics snapshot of one cache tier. Multi-tier
 * caches (e.g. the EstimateCache) expose one snapshot per tier so
 * callers can report them side by side. */
struct CacheStats
{
    size_t hits = 0;
    size_t misses = 0;
    size_t entries = 0;
    /** Entries dropped by the max-entry bound (0 when unbounded). */
    size_t evictions = 0;

    size_t lookups() const { return hits + misses; }
    double
    hitRate() const
    {
        size_t total = lookups();
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/** Hash for ordinal vectors (e.g. DesignSpace::Point): FNV-1a over the
 * elements. */
struct OrdinalVectorHash
{
    template <typename Vec>
    size_t
    operator()(const Vec &v) const
    {
        size_t h = 1469598103934665603ull;
        for (const auto &e : v) {
            h ^= static_cast<size_t>(e);
            h *= 1099511628211ull;
        }
        return h;
    }
};

template <typename Key, typename Value, typename Hash = std::hash<Key>,
          unsigned NumShards = 16>
class ConcurrentCache
{
    static_assert(NumShards > 0, "at least one shard");

  public:
    /** The cached value for @p key, by copy; nullopt on a miss. Every
     * call is counted toward the hit/miss statistics, refreshes the
     * entry's recency (it becomes the last eviction candidate of its
     * shard) and bumps its per-entry hit count. */
    std::optional<Value>
    lookup(const Key &key) const
    {
        const Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it == shard.map.end()) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        }
        Entry &entry = it->second;
        entry.hits += 1;
        if (entry.tracked)
            shard.order.splice(shard.order.end(), shard.order,
                               entry.pos);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return entry.value;
    }

    /** Insert unless present. Returns true when this call inserted; the
     * first writer wins, so concurrent duplicate computations converge on
     * one canonical value. When a max-entry bound is set, inserting past
     * a shard's share evicts in least-recently-used order, informed by
     * the per-entry hit counts: the LRU candidate is evicted only if it
     * was never hit since its insertion (or its last reprieve) —
     * otherwise its hit count is spent and it is re-queued as most
     * recent, so a proven-useful entry outlives a never-probed newer
     * one. Content-keyed consumers just recompute an evicted value, so
     * eviction bounds memory without ever changing results. */
    bool
    insert(const Key &key, Value value)
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto emplaced = shard.map.emplace(key, Entry{std::move(value)});
        bool inserted = emplaced.second;
        if (inserted && per_shard_cap_ != 0) {
            // The cap governs TRACKED (post-bound) entries: entries
            // inserted while the cache was unbounded carry no recency
            // position and are never evicted, and must not make every
            // new insert evict itself trying to get the map under cap.
            Entry &entry = emplaced.first->second;
            entry.tracked = true;
            entry.pos = shard.order.insert(shard.order.end(), key);
            // Bounded scan: every entry earns at most one reprieve, so
            // the loop terminates even when every candidate was hit.
            size_t reprieves = shard.order.size();
            while (shard.order.size() > per_shard_cap_) {
                auto victim = shard.map.find(shard.order.front());
                bool is_new = victim == emplaced.first;
                if ((victim->second.hits != 0 || is_new) &&
                    reprieves-- > 0) {
                    // Reprieve: the hit count is spent, not carried —
                    // an entry must keep earning hits to keep
                    // outliving eviction scans. The entry this call
                    // inserted is always reprieved (an insert must
                    // never evict itself).
                    victim->second.hits = 0;
                    shard.order.splice(shard.order.end(), shard.order,
                                       victim->second.pos);
                    continue;
                }
                shard.order.pop_front();
                shard.map.erase(victim);
                evictions_.fetch_add(1, std::memory_order_relaxed);
            }
        }
        return inserted;
    }

    /** Bound the total entry count (approximately: the bound is split
     * evenly across shards, each evicting LRU past its share). 0 (the
     * default) keeps the cache unbounded — recency bookkeeping is then
     * skipped entirely. Set before the cache is populated; entries
     * inserted while unbounded are never evicted. */
    void
    setMaxEntries(size_t max_entries)
    {
        per_shard_cap_ =
            max_entries == 0
                ? 0
                : std::max<size_t>(1, (max_entries + NumShards - 1) /
                                          NumShards);
    }

    size_t
    size() const
    {
        size_t total = 0;
        for (const Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            total += shard.map.size();
        }
        return total;
    }

    /** Visit every (key, value) pair — the bulk-export side of snapshot
     * persistence (cache_io). @p fn runs under the owning shard's lock:
     * it must not call back into this cache, and concurrent inserts on
     * other shards may or may not be visited (each shard is a
     * point-in-time snapshot). Shard order is fixed but the order within
     * a shard follows the unordered map — callers wanting a
     * deterministic byte stream sort the exported pairs themselves. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            for (const auto &entry : shard.map)
                fn(entry.first, entry.second.value);
        }
    }

    void
    clear()
    {
        for (Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            shard.map.clear();
            shard.order.clear();
        }
        hits_.store(0, std::memory_order_relaxed);
        misses_.store(0, std::memory_order_relaxed);
        evictions_.store(0, std::memory_order_relaxed);
    }

    /** @name Statistics
     * Lookups resolved from / missing in the cache since construction (or
     * the last clear()). Relaxed counters: exact totals once the cache is
     * quiescent, approximate while threads are still inserting. */
    ///@{
    size_t hits() const { return hits_.load(std::memory_order_relaxed); }
    size_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }
    size_t lookups() const { return hits() + misses(); }
    size_t evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }
    double
    hitRate() const
    {
        size_t total = lookups();
        return total == 0 ? 0.0
                          : static_cast<double>(hits()) /
                                static_cast<double>(total);
    }
    /** Everything above in one snapshot (entry count takes the shard
     * locks; hit/miss counters are the same relaxed reads). */
    CacheStats
    stats() const
    {
        CacheStats s;
        s.hits = hits();
        s.misses = misses();
        s.entries = size();
        s.evictions = evictions();
        return s;
    }
    ///@}

  private:
    /** One cached value plus its eviction bookkeeping. */
    struct Entry
    {
        Value value;
        /** Lookups served since insertion or the last eviction
         * reprieve (spent, not carried, when the entry dodges an
         * eviction). */
        size_t hits = 0;
        /** In the recency list (inserted while a bound was active). */
        bool tracked = false;
        typename std::list<Key>::iterator pos{};
    };

    struct Shard
    {
        mutable std::mutex mutex;
        /** Mutable: lookup() refreshes recency/hit counts under the
         * shard lock. */
        mutable std::unordered_map<Key, Entry, Hash> map;
        /** Recency order, least-recently-used first; maintained only
         * when a max-entry bound is active. */
        mutable std::list<Key> order;
    };

    const Shard &
    shardFor(const Key &key) const
    {
        return shards_[Hash()(key) % NumShards];
    }
    Shard &
    shardFor(const Key &key)
    {
        return shards_[Hash()(key) % NumShards];
    }

    std::array<Shard, NumShards> shards_;
    size_t per_shard_cap_ = 0; ///< 0 = unbounded.
    mutable std::atomic<size_t> hits_{0};
    mutable std::atomic<size_t> misses_{0};
    mutable std::atomic<size_t> evictions_{0};
};

} // namespace scalehls

#endif // SCALEHLS_SUPPORT_CONCURRENT_CACHE_H
