/**
 * @file
 * The long-lived simulation service (`omnisim_cli serve`): a JSON-lines
 * request/response protocol over stdin/stdout or a Unix socket, turning
 * the simulator from a batch tool into a warm-cache server.
 *
 * One request per line, one response per line. Responses carry the
 * request's `id` verbatim and may arrive out of order — requests are
 * dispatched onto a resident batch::TaskPool and execute concurrently.
 * Every design's evaluations share one process-wide RunStore-backed
 * dse::EvalCache, so the first `resimulate` for a design another
 * process already traced is served at §7.2 incremental cost, and every
 * full run this process pays for is published back for the next one.
 *
 * Protocol (see README for a worked session):
 *
 *   {"id":1,"op":"simulate","design":"fifo_chain",
 *    "depths":{"c0":4},"engine":"omnisim"}
 *   {"id":2,"op":"resimulate","design":"fifo_chain","depths":{"c0":8}}
 *   {"id":3,"op":"dse","design":"reconvergent","strategy":"grid",
 *    "budget":64}
 *   {"id":4,"op":"batch","designs":["fifo_chain"],"engines":["omnisim"],
 *    "seeds":2}
 *   {"id":5,"op":"list"}   {"id":6,"op":"stats"}   {"id":7,"op":"shutdown"}
 *   {"id":8,"op":"metrics"}                // full telemetry snapshot
 *   {"id":9,"op":"metrics","format":"prometheus"}
 *
 * Error isolation: a malformed line, unknown op, unknown design, or an
 * engine failure produces {"id":...,"ok":false,"error":"..."} for that
 * request only; the service keeps serving. `shutdown` drains all
 * in-flight requests, answers last, and ends the session.
 */

#ifndef OMNISIM_SERVE_SERVICE_HH
#define OMNISIM_SERVE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "core/omnisim.hh"
#include "support/sync.hh"

namespace omnisim::batch
{
class TaskPool;
}
namespace omnisim::dse
{
class EvalCache;
}
namespace omnisim::io
{
class RunStore;
}

namespace omnisim::serve
{

/** Service configuration. */
struct ServeOptions
{
    /** Worker threads for request dispatch; 0 = hardware_concurrency. */
    unsigned jobs = 0;

    /** RunStore directory; empty disables persistence (in-memory
     *  warm cache only). */
    std::string storeDir;

    /** Engine options for OmniSim runs the service performs. */
    OmniSimOptions engine;
};

/**
 * The request dispatcher. Owns the worker pool, the optional RunStore,
 * and one EvalCache per design, shared by every request and every
 * transport. Thread-safe: handle() may be called from any thread, and
 * submit() fans requests across the pool.
 */
class SimService
{
  public:
    explicit SimService(ServeOptions opts = {});
    ~SimService();

    SimService(const SimService &) = delete;
    SimService &operator=(const SimService &) = delete;

    /** @return resolved worker count. */
    unsigned jobs() const;

    /** @return the run store, or null when persistence is disabled. */
    io::RunStore *store() { return store_.get(); }

    /**
     * Handle one request line synchronously and return the response
     * line (no trailing newline). Never throws — all errors become
     * {"ok":false} responses.
     */
    std::string handle(const std::string &line);

    /**
     * Handle one request line on the worker pool. sink is called
     * exactly once, from a worker thread, with the response line;
     * concurrent sinks are the caller's business (the stream loops
     * serialize writes with a mutex).
     */
    void submit(std::string line, std::function<void(std::string)> sink);

    /** Block until every submitted request has been answered. */
    void drain();

    /** @return true once a shutdown request has been handled. */
    bool shutdownRequested() const;

    /** @return requests answered so far (including errors). */
    std::uint64_t requestsServed() const;

  private:
    struct Response;
    struct DesignCache;

    /**
     * Get-or-create the design's shared evaluation cache. Entry
     * creation holds the global map lock only briefly; the expensive
     * store rehydration runs outside it (per-design once), so a first
     * request for one design never stalls requests for others.
     */
    DesignCache &cacheFor(const std::string &design)
        OMNISIM_EXCLUDES(cachesMu_);

    Response dispatch(const std::string &line);
    Response doSimulate(const struct Request &req);
    Response doResimulate(const struct Request &req);
    Response doDse(const struct Request &req);
    Response doBatch(const struct Request &req);
    Response doList(const struct Request &req);
    Response doStats(const struct Request &req);
    Response doMetrics(const struct Request &req);

    ServeOptions opts_;
    std::unique_ptr<io::RunStore> store_;
    std::unique_ptr<batch::TaskPool> pool_;

    mutable sync::Mutex cachesMu_;
    std::map<std::string, std::unique_ptr<DesignCache>> caches_
        OMNISIM_GUARDED_BY(cachesMu_);

    std::atomic<bool> shutdown_{false};
    std::atomic<std::uint64_t> served_{0};
    const std::chrono::steady_clock::time_point started_ =
        std::chrono::steady_clock::now();
};

/**
 * Drive a service from a line stream: read requests from in, stream
 * responses to out (mutex-serialized, flushed per line). Returns when
 * a shutdown request has been answered or in reaches EOF (in-flight
 * requests are drained either way).
 * @return 0 on clean shutdown/EOF.
 */
int serveLines(SimService &svc, std::istream &in, std::ostream &out);

/**
 * Serve connections on a Unix-domain socket at path (unlinked and
 * re-bound on startup). Connections are accepted one at a time;
 * requests within a connection run concurrently. Returns after a
 * shutdown request.
 * @return 0 on clean shutdown; 1 on socket errors.
 */
int serveUnixSocket(SimService &svc, const std::string &path);

} // namespace omnisim::serve

#endif // OMNISIM_SERVE_SERVICE_HH
