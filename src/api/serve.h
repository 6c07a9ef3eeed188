/**
 * @file
 * The DSE-as-a-service session layer behind the scalehls-serve tool: a
 * stream of newline-delimited JSON requests (DNN kernel / whole-model /
 * polybench explorations, stats, snapshot control) answered against ONE
 * shared EstimateCache, so the Nth request for a design the service has
 * seen pays plan-composed evaluation instead of re-materializing IR.
 *
 * Requests are self-contained and handleLine() is thread-safe, so a
 * front end may dispatch any number of requests concurrently: the DSE
 * trajectory of each request is a function of its (seed, batch) alone,
 * and the shared cache is content-keyed — concurrency changes
 * wall-clock, never any response's QoR.
 *
 * Protocol (one JSON object per line; all fields except "kind"
 * optional):
 *
 *   {"kind":"kernel","id":1,"model":"resnet18","graph_level":4,
 *    "kernel":0,"budget":"vu9p-slr","threads":2,"seed":7,
 *    "samples":40,"iterations":20}
 *   {"kind":"model","id":2,"model":"resnet18","graph_level":4,
 *    "budget":"vu9p-slr", ...}
 *   {"kind":"polybench","id":3,"kernel":"gemm","size":16, ...}
 *   {"kind":"stats","id":4}
 *   {"kind":"save","id":5,"path":"/tmp/warm.shlsnap"}
 *   {"kind":"quit","id":6}
 *
 * Every response is one JSON line echoing "id", with "ok" plus either
 * an "error" string or the per-request QoR, frontier summary,
 * materialization stats and per-tier cache stats.
 */

#ifndef SCALEHLS_API_SERVE_H
#define SCALEHLS_API_SERVE_H

#include <atomic>
#include <mutex>
#include <string>

#include "api/scalehls.h"
#include "estimate/cache_io.h"

namespace scalehls {

struct JsonValue;

/** Session configuration (the tool maps its flags onto this). */
struct ServeOptions
{
    /** Snapshot persistence: load on construction, save on shutdown
     * (and on explicit "save" requests). Default to the
     * $SCALEHLS_CACHE_DIR hook; "" disables. */
    std::string cacheLoadPath = defaultCacheSnapshotPath();
    std::string cacheSavePath = defaultCacheSnapshotPath();
    /** Per-tier cache bounds (see DSEOptions::estimateCacheTierCaps). */
    EstimateCacheTierCaps tierCaps;
    /** Additionally save the snapshot every N completed requests
     * (0 = only at shutdown) — bounds snapshot loss on a crash. */
    size_t snapshotEvery = 0;
    /** Default worker threads per request (a request's "threads" field
     * overrides; 0 here means 1 — the front end provides concurrency
     * ACROSS requests, so per-request pools stay small by default). */
    unsigned defaultThreads = 1;
};

/** One serving session: the shared cache plus the request dispatcher.
 * Construction loads the snapshot; destruction saves it. */
class ServeSession
{
  public:
    explicit ServeSession(const ServeOptions &options = {});
    ~ServeSession();

    /** Parse and execute one request line, returning the one-line JSON
     * response. Thread-safe; blocking (runs the DSE inline). */
    std::string handleLine(const std::string &line);

    /** True once a "quit" request was processed. */
    bool
    quitRequested() const
    {
        return quit_.load(std::memory_order_acquire);
    }

    size_t
    completedRequests() const
    {
        return completed_.load(std::memory_order_relaxed);
    }

    /** Save the snapshot now (to @p path, or the configured save path
     * when empty). False when no path is configured or IO failed; the
     * reason goes to @p error when given, else to stderr. */
    bool saveSnapshot(const std::string &path = std::string(),
                      std::string *error = nullptr);

    EstimateCache &cache() { return cache_; }
    /** The load outcome of the construction-time snapshot load. */
    const CacheLoadResult &loadResult() const { return load_result_; }

  private:
    std::string handleKernelRequest(const JsonValue &req,
                                    const std::string &id);
    std::string handleModelRequest(const JsonValue &req,
                                   const std::string &id);
    std::string handlePolybenchRequest(const JsonValue &req,
                                       const std::string &id);

    ServeOptions options_;
    EstimateCache cache_;
    CacheLoadResult load_result_;
    std::atomic<bool> quit_{false};
    std::atomic<size_t> completed_{0};
    /** Serializes snapshot writes (saves iterate the cache under shard
     * locks, so they are safe against concurrent inserts; the mutex
     * only keeps two saves from racing on the temp file). */
    std::mutex save_mutex_;
};

} // namespace scalehls

#endif // SCALEHLS_API_SERVE_H
