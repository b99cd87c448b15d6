#include "serve/service.hh"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>

#include "batch/batch.hh"
#include "design/design.hh"
#include "designs/common.hh"
#include "dse/dse.hh"
#include "io/run_store.hh"
#include "obs/context.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/json.hh"
#include "support/logging.hh"
#include "support/stopwatch.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define OMNISIM_HAVE_UNIX_SOCKETS 1
#endif

namespace omnisim::serve
{

/** One parsed request (internal to the dispatcher). */
struct Request
{
    JsonValue doc;
    std::string idJson = "null"; ///< The "id" member re-serialized.
    std::string op;
};

/** One finished response line, tagged for per-op accounting. */
struct SimService::Response
{
    Response() = default;
    Response(std::string l) : line(std::move(l)) {}
    std::string line;
    std::string op; ///< empty when the line never parsed far enough
    bool ok = false;
};

/**
 * Per-design shared state: the evaluation cache plus the FIFO
 * name/registered-depth metadata every depth-resolving request needs —
 * cached here so the hot serving path never rebuilds the Design just
 * to translate names.
 */
struct SimService::DesignCache
{
    std::unique_ptr<dse::EvalCache> cache;
    std::vector<std::string> fifoNames;
    std::vector<std::uint32_t> baseDepths;
    std::once_flag attachOnce; ///< Store rehydration runs exactly once.
};

namespace
{

constexpr std::uint64_t kMaxDepth = 1u << 20;

/**
 * Per-op telemetry handles (requests/errors counters + execute-latency
 * histogram), resolved once per op name. The op set is closed; anything
 * unknown or unparseable is accounted under "other" so totals always
 * reconcile with requestsServed().
 */
struct OpMetrics
{
    explicit OpMetrics(const std::string &op)
        : requests(obs::Registry::global().counter("serve.requests." + op)),
          errors(obs::Registry::global().counter("serve.errors." + op)),
          latencyUs(
              obs::Registry::global().histogram("serve.request_us." + op))
    {}
    obs::Counter &requests;
    obs::Counter &errors;
    obs::Histogram &latencyUs;
};

constexpr const char *kKnownOps[] = {
    "simulate", "resimulate", "dse",     "batch",
    "list",     "stats",      "metrics", "shutdown",
};

OpMetrics &
opMetricsFor(const std::string &op)
{
    static OpMetrics simulate{"simulate"};
    static OpMetrics resimulate{"resimulate"};
    static OpMetrics dse{"dse"};
    static OpMetrics batch{"batch"};
    static OpMetrics list{"list"};
    static OpMetrics stats{"stats"};
    static OpMetrics metrics{"metrics"};
    static OpMetrics shutdown{"shutdown"};
    static OpMetrics other{"other"};
    if (op == "simulate")
        return simulate;
    if (op == "resimulate")
        return resimulate;
    if (op == "dse")
        return dse;
    if (op == "batch")
        return batch;
    if (op == "list")
        return list;
    if (op == "stats")
        return stats;
    if (op == "metrics")
        return metrics;
    if (op == "shutdown")
        return shutdown;
    return other;
}

obs::Gauge &
inflightGauge()
{
    static obs::Gauge &g = obs::Registry::global().gauge("serve.inflight");
    return g;
}

/** Begin a response carrying the request id, op, and correlation id. */
JsonBuilder
beginResponse(const Request &req, bool ok)
{
    JsonBuilder b;
    b.key("id").rawValue(req.idJson);
    b.key("op").str(req.op);
    b.key("ok").boolean(ok);
    b.key("cid").num(obs::currentCorrelationId());
    return b;
}

/** Required string request field. */
const std::string &
requireString(const Request &req, const char *field)
{
    const JsonValue *v = req.doc.find(field);
    if (!v || !v->isString())
        omnisim_fatal("'%s' requires a \"%s\" string field",
                      req.op.c_str(), field);
    return v->str();
}

/** Optional unsigned request field with default. */
std::uint64_t
optionalU64(const Request &req, const char *field, std::uint64_t def,
            std::uint64_t max)
{
    const JsonValue *v = req.doc.find(field);
    if (!v || v->isNull())
        return def;
    return v->asU64(field, max);
}

/** Worker threads a dse/batch request fans out over: its optional
 *  "jobs" field capped at the service's own width, which 0 selects, so
 *  one request never starts more threads than the service runs. */
unsigned
requestJobs(const Request &req, unsigned width)
{
    const std::uint64_t v = optionalU64(req, "jobs", 0, 4096);
    return v == 0 ? width
                  : static_cast<unsigned>(std::min<std::uint64_t>(v, width));
}

/** Optional string request field with default. */
std::string
optionalString(const Request &req, const char *field, std::string def)
{
    const JsonValue *v = req.doc.find(field);
    if (!v || v->isNull())
        return def;
    return v->str();
}

/**
 * Resolve a request "depths" member against a design's cached FIFO
 * metadata: registered depths, overridden either by an object of
 * {"fifoName": depth} pairs or by a full per-FIFO array.
 */
dse::DepthVector
resolveDepths(const std::string &design,
              const std::vector<std::string> &fifoNames,
              const std::vector<std::uint32_t> &baseDepths,
              const JsonValue *spec)
{
    dse::DepthVector depths(baseDepths.begin(), baseDepths.end());
    if (!spec || spec->isNull())
        return depths;
    if (spec->isObject()) {
        for (const auto &[name, v] : spec->members()) {
            const auto it =
                std::find(fifoNames.begin(), fifoNames.end(), name);
            if (it == fifoNames.end())
                omnisim_fatal("design '%s' has no FIFO named '%s'",
                              design.c_str(), name.c_str());
            const auto f = static_cast<std::size_t>(
                it - fifoNames.begin());
            depths[f] = static_cast<std::uint32_t>(
                v.asU64("depth", kMaxDepth));
            if (depths[f] < 1)
                omnisim_fatal("fifo '%s': depth must be >= 1",
                              name.c_str());
        }
        return depths;
    }
    if (spec->isArray()) {
        if (spec->array().size() != depths.size())
            omnisim_fatal("\"depths\" array has %zu entries; design has "
                          "%zu FIFOs", spec->array().size(), depths.size());
        for (std::size_t f = 0; f < depths.size(); ++f) {
            depths[f] = static_cast<std::uint32_t>(
                spec->array()[f].asU64("depth", kMaxDepth));
            if (depths[f] < 1)
                omnisim_fatal("fifo %zu: depth must be >= 1", f);
        }
        return depths;
    }
    omnisim_fatal("\"depths\" must be an object of fifo->depth pairs or "
                  "a per-FIFO array");
}

/** Append one evaluation's summary fields to a builder. */
void
emitEvaluation(JsonBuilder &b, const dse::Evaluation &e)
{
    b.key("status").str(simStatusName(e.status));
    b.key("cycles").num(static_cast<std::uint64_t>(e.latency));
    b.key("cost").num(static_cast<std::uint64_t>(e.cost));
    b.key("method").str(dse::evalMethodName(e.method));
    b.key("via_delta").boolean(e.viaDelta);
    b.key("cached").boolean(e.fromMemo);
    if (!e.message.empty())
        b.key("message").str(e.message);
}

} // namespace

// ---------------------------------------------------------------------------
// SimService.
// ---------------------------------------------------------------------------

SimService::SimService(ServeOptions opts) : opts_(std::move(opts))
{
    if (!opts_.storeDir.empty())
        store_ = std::make_unique<io::RunStore>(opts_.storeDir);
    pool_ = std::make_unique<batch::TaskPool>(opts_.jobs);
}

SimService::~SimService() = default;

unsigned
SimService::jobs() const
{
    return pool_->jobs();
}

SimService::DesignCache &
SimService::cacheFor(const std::string &design)
{
    DesignCache *entry;
    {
        sync::LockGuard lock(cachesMu_);
        auto it = caches_.find(design);
        if (it == caches_.end()) {
            // findDesign throws FatalError on unknown names — surfaced
            // as an error response by the dispatcher, never cached.
            const designs::DesignEntry &de = designs::findDesign(design);
            auto dc = std::make_unique<DesignCache>();
            const Design d = de.build();
            for (const auto &f : d.fifos()) {
                dc->fifoNames.push_back(f.name);
                dc->baseDepths.push_back(f.depth);
            }
            dc->cache =
                std::make_unique<dse::EvalCache>(de.build, opts_.engine);
            it = caches_.emplace(design, std::move(dc)).first;
        }
        entry = it->second.get();
    }
    // Store rehydration (file IO plus a CompiledRun freeze per stored
    // run) happens outside the global map lock: a first request for a
    // big design stalls only same-design requests, which genuinely
    // need the warm pool, and call_once makes them wait for it.
    if (store_)
        std::call_once(entry->attachOnce, [&] {
            entry->cache->attachStore(store_.get(), design);
        });
    return *entry;
}

std::string
SimService::handle(const std::string &line)
{
    // Every request gets a fresh correlation id, installed before the
    // span opens so the span, every event the handlers emit, and the
    // response's "cid" member all stitch to the same id.
    const obs::CorrelationId cid = obs::newCorrelationId();
    obs::CorrelationScope cscope(cid);
    OMNISIM_SPAN("serve.request");
    obs::ScopedGauge inflight(inflightGauge());
    const auto t0 = std::chrono::steady_clock::now();
    Response r = dispatch(line);
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    OpMetrics &om = opMetricsFor(r.op);
    om.requests.add();
    if (!r.ok)
        om.errors.add();
    om.latencyUs.record(static_cast<std::uint64_t>(us));
    served_.fetch_add(1, std::memory_order_relaxed);
    return std::move(r.line);
}

void
SimService::submit(std::string line, std::function<void(std::string)> sink)
{
    static obs::Histogram &mQueueWait =
        obs::Registry::global().histogram("serve.queue_wait_us");
    const auto enqueued = std::chrono::steady_clock::now();
    pool_->submit([this, line = std::move(line), sink = std::move(sink),
                   enqueued]() mutable {
        mQueueWait.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - enqueued)
                .count()));
        sink(handle(line));
    });
}

void
SimService::drain()
{
    pool_->drain();
}

bool
SimService::shutdownRequested() const
{
    return shutdown_.load(std::memory_order_acquire);
}

std::uint64_t
SimService::requestsServed() const
{
    return served_.load(std::memory_order_relaxed);
}

SimService::Response
SimService::dispatch(const std::string &line)
{
    std::string idJson = "null";
    std::string op;
    // Collect this request's warn+ events so error responses can echo
    // the diagnostic tail the operator would otherwise have to fish out
    // of the server log by cid.
    obs::LogCapture capture;
    try {
        Request req;
        req.doc = JsonValue::parse(line);
        if (!req.doc.isObject())
            omnisim_fatal("request must be a JSON object");
        if (const JsonValue *id = req.doc.find("id"))
            req.idJson = id->dump();
        idJson = req.idJson;
        const JsonValue *opv = req.doc.find("op");
        if (!opv || !opv->isString())
            omnisim_fatal("request needs an \"op\" string field");
        req.op = opv->str();
        op = req.op;

        Response r;
        if (req.op == "simulate")
            r = doSimulate(req);
        else if (req.op == "resimulate")
            r = doResimulate(req);
        else if (req.op == "dse")
            r = doDse(req);
        else if (req.op == "batch")
            r = doBatch(req);
        else if (req.op == "list")
            r = doList(req);
        else if (req.op == "stats")
            r = doStats(req);
        else if (req.op == "metrics")
            r = doMetrics(req);
        else if (req.op == "shutdown") {
            shutdown_.store(true, std::memory_order_release);
            JsonBuilder b = beginResponse(req, true);
            b.key("served").num(
                served_.load(std::memory_order_relaxed) + 1);
            r = Response(b.finish());
        } else {
            omnisim_fatal("unknown op '%s' (have: simulate, resimulate, "
                          "dse, batch, list, stats, metrics, shutdown)",
                          req.op.c_str());
        }
        r.op = req.op;
        r.ok = true;
        // One completion event per request (not entry + exit): the
        // request path is hot enough that every ring record shows up
        // in the serve-throughput logging gate.
        OMNISIM_LOG_DEBUG("serve.request_ok", "op=%s id=%s", op.c_str(),
                          req.idJson.c_str());
        return r;
    } catch (const std::exception &e) {
        // Logged inside the capture scope so the failure event itself is
        // part of the response's "log" tail.
        OMNISIM_LOG_ERROR("serve.request_failed", "op=%s error=%s",
                          op.empty() ? "?" : op.c_str(), e.what());
        JsonBuilder b;
        b.key("id").rawValue(idJson);
        if (!op.empty())
            b.key("op").str(op);
        b.key("ok").boolean(false);
        b.key("cid").num(obs::currentCorrelationId());
        b.key("error").str(e.what());
        if (!capture.lines().empty()) {
            b.key("log").beginArray();
            for (const std::string &l : capture.lines())
                b.rawValue(l);
            b.endArray();
            if (capture.truncated() > 0)
                b.key("log_truncated").num(capture.truncated());
        }
        Response r(b.finish());
        r.op = op;
        return r;
    }
}

SimService::Response
SimService::doSimulate(const Request &req)
{
    const std::string &design = requireString(req, "design");
    const std::string engine =
        optionalString(req, "engine", "omnisim");

    Stopwatch sw;
    if (engine == "omnisim") {
        // Through the shared cache with the reuse-pool probe disabled:
        // a cold, full-fidelity engine run (unless this exact
        // configuration was already evaluated) whose result is memoized
        // and published to the store for every later resimulate.
        DesignCache &dc = cacheFor(design);
        const dse::DepthVector depths =
            resolveDepths(design, dc.fifoNames, dc.baseDepths,
                          req.doc.find("depths"));
        const dse::Evaluation e =
            dc.cache->evaluate(depths, /*allowIncremental=*/false);
        JsonBuilder b = beginResponse(req, true);
        b.key("design").str(design);
        b.key("engine").str(engine);
        emitEvaluation(b, e);
        b.key("seconds").num(sw.seconds());
        return {b.finish()};
    }

    // Foreign engines run through the batch scenario path (which
    // isolates build/compile/engine failures); no cache, no store.
    batch::Scenario sc;
    sc.design = design;
    if (!batch::parseEngineKind(engine, sc.engine))
        omnisim_fatal("unknown engine '%s'", engine.c_str());
    if (const JsonValue *spec = req.doc.find("depths");
        spec && !spec->isNull()) {
        if (!spec->isObject())
            omnisim_fatal("\"depths\" must be an object of fifo->depth "
                          "pairs for non-omnisim engines");
        for (const auto &[name, v] : spec->members())
            sc.depths.push_back(
                {name, static_cast<std::uint32_t>(
                           v.asU64("depth", kMaxDepth))});
    }
    const batch::ScenarioOutcome out = batch::runScenario(sc);
    if (out.failed)
        omnisim_fatal("%s", out.error.c_str());
    JsonBuilder b = beginResponse(req, true);
    b.key("design").str(design);
    b.key("engine").str(engine);
    b.key("status").str(simStatusName(out.result.status));
    b.key("cycles").num(static_cast<std::uint64_t>(out.result.totalCycles));
    b.key("method").str("full");
    b.key("seconds").num(sw.seconds());
    return {b.finish()};
}

SimService::Response
SimService::doResimulate(const Request &req)
{
    const std::string &design = requireString(req, "design");

    Stopwatch sw;
    DesignCache &dc = cacheFor(design);
    const dse::DepthVector depths = resolveDepths(
        design, dc.fifoNames, dc.baseDepths, req.doc.find("depths"));
    const dse::Evaluation e = dc.cache->evaluate(depths);
    JsonBuilder b = beginResponse(req, true);
    b.key("design").str(design);
    b.key("engine").str("omnisim");
    emitEvaluation(b, e);
    b.key("seconds").num(sw.seconds());
    return {b.finish()};
}

SimService::Response
SimService::doDse(const Request &req)
{
    const std::string &design = requireString(req, "design");

    dse::DseOptions opts;
    opts.strategy = optionalString(req, "strategy", "grid");
    opts.budget = static_cast<std::size_t>(
        optionalU64(req, "budget", opts.budget, 1u << 24));
    opts.seed = optionalU64(req, "seed", opts.seed,
                            std::numeric_limits<std::uint64_t>::max());
    opts.jobs = requestJobs(req, jobs());
    opts.engine = opts_.engine;
    opts.store = store_.get();
    opts.storeDesign = design;

    const bool linear = [&] {
        const JsonValue *v = req.doc.find("linear");
        return v && v->isBool() && v->boolean();
    }();
    if (const JsonValue *fifos = req.doc.find("fifos");
        fifos && !fifos->isNull()) {
        for (const JsonValue &g : fifos->array()) {
            dse::FifoRange r;
            const JsonValue *name = g.find("fifo");
            if (!name || !name->isString())
                omnisim_fatal("each \"fifos\" entry needs a \"fifo\" "
                              "name");
            r.fifo = name->str();
            if (const JsonValue *v = g.find("from"))
                r.lo = static_cast<std::uint32_t>(
                    v->asU64("from", kMaxDepth));
            if (const JsonValue *v = g.find("to"))
                r.hi = static_cast<std::uint32_t>(
                    v->asU64("to", kMaxDepth));
            r.geometric = !linear;
            opts.space.fifos.push_back(std::move(r));
        }
    }

    const dse::DseReport rep = dse::exploreRegistered(design, opts);

    JsonBuilder b = beginResponse(req, true);
    b.key("design").str(design);
    b.key("strategy").str(rep.strategy);
    b.key("jobs").num(rep.jobs);
    b.key("evaluations").num(rep.evaluations.size());
    b.key("full_runs").num(rep.fullRuns);
    b.key("incremental_hits").num(rep.incrementalHits);
    b.key("delta_hits").num(rep.deltaHits);
    b.key("stored_warm_starts").num(rep.storedWarmStarts);
    b.key("hit_rate").num(rep.hitRate());
    b.key("wall_seconds").num(rep.wallSeconds);
    b.key("any_ok").boolean(rep.anyOk);

    const auto emitPoint = [&](const dse::Evaluation &e) {
        b.beginObject();
        b.key("cost").num(static_cast<std::uint64_t>(e.cost));
        b.key("cycles").num(static_cast<std::uint64_t>(e.latency));
        b.key("depths").beginObject();
        for (const std::size_t a : rep.axes)
            b.key(rep.fifoNames[a])
                .num(static_cast<std::uint64_t>(e.depths[a]));
        b.endObject();
        b.endObject();
    };
    b.key("frontier").beginArray();
    for (const auto &e : rep.frontier)
        emitPoint(e);
    b.endArray();
    if (rep.anyOk) {
        b.key("min_latency");
        emitPoint(rep.minLatency);
        b.key("knee");
        emitPoint(rep.knee);
    }
    return {b.finish()};
}

SimService::Response
SimService::doBatch(const Request &req)
{
    std::vector<std::string> only;
    if (const JsonValue *designs = req.doc.find("designs");
        designs && !designs->isNull()) {
        for (const JsonValue &d : designs->array())
            only.push_back(d.str());
    }
    std::vector<batch::EngineKind> engines;
    if (const JsonValue *list = req.doc.find("engines");
        list && !list->isNull()) {
        for (const JsonValue &e : list->array()) {
            batch::EngineKind kind;
            if (!batch::parseEngineKind(e.str(), kind))
                omnisim_fatal("unknown engine '%s'", e.str().c_str());
            engines.push_back(kind);
        }
    }
    if (engines.empty())
        engines.push_back(batch::EngineKind::OmniSim);
    const auto seeds = static_cast<unsigned>(
        optionalU64(req, "seeds", 1, 1u << 20));
    const std::vector<batch::Scenario> scenarios =
        batch::registryScenarios(engines, std::max(1u, seeds), only);
    const batch::BatchReport rep =
        batch::BatchRunner({requestJobs(req, jobs())}).run(scenarios);

    JsonBuilder b = beginResponse(req, true);
    b.key("jobs").num(rep.jobs);
    b.key("scenarios").num(rep.outcomes.size());
    b.key("ok_count").num(rep.okCount());
    b.key("failed_count").num(rep.failedCount());
    b.key("wall_seconds").num(rep.wallSeconds);
    b.key("throughput").num(rep.throughput());
    b.key("outcomes").beginArray();
    for (const auto &o : rep.outcomes) {
        b.beginObject();
        b.key("label").str(o.scenario.label());
        if (o.failed) {
            b.key("status").str("error");
            b.key("error").str(o.error);
        } else {
            b.key("status").str(simStatusName(o.result.status));
            b.key("cycles").num(
                static_cast<std::uint64_t>(o.result.totalCycles));
        }
        b.endObject();
    }
    b.endArray();
    return {b.finish()};
}

SimService::Response
SimService::doList(const Request &req)
{
    JsonBuilder b = beginResponse(req, true);
    b.key("designs").beginArray();
    for (const auto *suite :
         {&designs::typeBCDesigns(), &designs::typeADesigns()}) {
        for (const auto &e : *suite) {
            b.beginObject();
            b.key("name").str(e.name);
            b.key("description").str(e.description);
            b.endObject();
        }
    }
    b.endArray();
    return {b.finish()};
}

SimService::Response
SimService::doStats(const Request &req)
{
    JsonBuilder b = beginResponse(req, true);
    b.key("jobs").num(jobs());
    b.key("served").num(served_.load(std::memory_order_relaxed));
    b.key("uptime_seconds")
        .num(std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - started_)
                 .count());
    // Includes this stats request itself. Per-op counts and quantiles
    // come from the process-wide registry: a test process hosting
    // several services sees their union, exactly like a scrape would.
    b.key("inflight").num(inflightGauge().value());
    b.key("requests").beginObject();
    for (const char *opName : kKnownOps) {
        const OpMetrics &om = opMetricsFor(opName);
        const obs::Histogram::Snapshot snap = om.latencyUs.snapshot();
        b.key(opName).beginObject();
        b.key("count").num(om.requests.value());
        b.key("errors").num(om.errors.value());
        b.key("p50_us").num(snap.quantile(0.50));
        b.key("p90_us").num(snap.quantile(0.90));
        b.key("p99_us").num(snap.quantile(0.99));
        b.endObject();
    }
    b.endObject();
    {
        const obs::Histogram::Snapshot qw =
            obs::Registry::global().histogram("serve.queue_wait_us")
                .snapshot();
        b.key("queue_wait").beginObject();
        b.key("count").num(qw.count);
        b.key("p50_us").num(qw.quantile(0.50));
        b.key("p99_us").num(qw.quantile(0.99));
        b.endObject();
    }
    {
        sync::LockGuard lock(cachesMu_);
        b.key("designs_cached").num(caches_.size());

        // Compile-pipeline statistics aggregated over every pooled run
        // of every cached design: what the optimization passes removed
        // from the graphs this service is serving probes against.
        opt::CompileStats agg;
        bool any = false;
        for (const auto &[name, dc] : caches_) {
            if (!dc->cache)
                continue;
            const opt::CompileStats s = dc->cache->compileStats();
            if (s.origNodes == 0)
                continue; // empty pool
            if (!any) {
                agg = s;
                any = true;
            } else {
                agg.accumulate(s);
            }
        }
        b.key("opt").beginObject();
        b.key("level").str(any ? opt::optLevelName(agg.level) : "none");
        b.key("orig_nodes").num(agg.origNodes);
        b.key("opt_nodes").num(agg.optNodes);
        b.key("orig_edges").num(agg.origEdges);
        b.key("opt_edges").num(agg.optEdges);
        b.key("orig_constraints").num(agg.origConstraints);
        b.key("kept_constraints").num(agg.keptConstraints);
        b.key("elimination").num(agg.elimination());
        b.key("passes").beginArray();
        for (const opt::PassStats &p : agg.passes) {
            b.beginObject();
            b.key("pass").str(p.pass);
            b.key("nodes_eliminated").num(p.nodesEliminated);
            b.key("edges_eliminated").num(p.edgesEliminated);
            b.key("constraints_eliminated").num(p.constraintsEliminated);
            b.endObject();
        }
        b.endArray();
        b.endObject();
    }
    if (store_)
        b.key("store").str(store_->dir());
    else
        b.key("store").null();
    return {b.finish()};
}

SimService::Response
SimService::doMetrics(const Request &req)
{
    // Full registry snapshot. The metrics JSON is spliced in verbatim —
    // Registry::toJson() emits canonical JSON, so the response stays a
    // single well-formed object.
    JsonBuilder b = beginResponse(req, true);
    b.key("metrics").rawValue(obs::Registry::global().toJson());
    if (optionalString(req, "format", "json") == "prometheus")
        b.key("prometheus").str(obs::Registry::global().toPrometheus());
    return {b.finish()};
}

// ---------------------------------------------------------------------------
// Transports.
// ---------------------------------------------------------------------------

namespace
{

/** @return true when line parses as a request whose op is "shutdown". */
bool
isShutdownRequest(const std::string &line)
{
    try {
        const JsonValue doc = JsonValue::parse(line);
        const JsonValue *op = doc.find("op");
        return op && op->isString() && op->str() == "shutdown";
    } catch (const std::exception &) {
        return false; // malformed lines get their error response later
    }
}

bool
blankLine(const std::string &line)
{
    return std::all_of(line.begin(), line.end(), [](char c) {
        return c == ' ' || c == '\t' || c == '\r';
    });
}

/**
 * Request lines larger than this are rejected without being buffered
 * whole: the resident service must not be OOM-able by one client
 * streaming an endless line. Every legitimate request is tiny; 1 MiB
 * leaves three orders of magnitude of headroom.
 */
constexpr std::size_t kMaxRequestLine = 1u << 20;

/** The error response an over-long request line earns. */
std::string
oversizeError()
{
    JsonBuilder b;
    b.key("id").null();
    b.key("ok").boolean(false);
    b.key("error").str(strf("request line exceeds %zu bytes",
                            kMaxRequestLine));
    return b.finish();
}

enum class LineRead : std::uint8_t
{
    Ok,      ///< A complete (possibly EOF-terminated) line.
    TooLong, ///< Line exceeded kMaxRequestLine; remainder discarded.
    Eof,     ///< End of input, nothing buffered.
};

/** Bounded line read: never buffers more than the cap. */
LineRead
readBoundedLine(std::istream &in, std::string &line)
{
    line.clear();
    for (;;) {
        const int c = in.get();
        if (c == std::char_traits<char>::eof())
            return line.empty() ? LineRead::Eof : LineRead::Ok;
        if (c == '\n')
            return LineRead::Ok;
        if (line.size() >= kMaxRequestLine) {
            int d;
            do {
                d = in.get();
            } while (d != std::char_traits<char>::eof() && d != '\n');
            return LineRead::TooLong;
        }
        line += static_cast<char>(c);
    }
}

} // namespace

int
serveLines(SimService &svc, std::istream &in, std::ostream &out)
{
    sync::Mutex outMu;
    const auto emit = [&](const std::string &response) {
        sync::LockGuard lock(outMu);
        out << response << '\n';
        out.flush();
    };

    std::string line;
    for (;;) {
        const LineRead got = readBoundedLine(in, line);
        if (got == LineRead::Eof)
            break;
        if (got == LineRead::TooLong) {
            emit(oversizeError());
            continue;
        }
        if (blankLine(line))
            continue;
        if (isShutdownRequest(line)) {
            // Graceful drain: stop reading, let every in-flight request
            // answer, then answer the shutdown itself — always the last
            // response of the session.
            svc.drain();
            emit(svc.handle(line));
            return 0;
        }
        svc.submit(line, emit);
    }
    svc.drain();
    return 0;
}

int
serveUnixSocket(SimService &svc, const std::string &path)
{
#ifdef OMNISIM_HAVE_UNIX_SOCKETS
    // A client vanishing mid-response must never kill the resident
    // service: sends already pass MSG_NOSIGNAL, but a platform without
    // it on some path (or a stray write to a dead descriptor) would
    // raise SIGPIPE and take the whole process down. Ignore it for the
    // lifetime of the service loop — the send()/recv() return codes
    // carry all the information we act on.
    ::signal(SIGPIPE, SIG_IGN);

    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        warn(strf("serve: socket path '%s' too long", path.c_str()));
        return 1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        warn("serve: cannot create socket");
        return 1;
    }
    addr.sun_family = AF_UNIX;
    path.copy(addr.sun_path, path.size());
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 8) != 0) {
        warn(strf("serve: cannot bind '%s'", path.c_str()));
        ::close(fd);
        return 1;
    }

    bool sawShutdown = false;
    while (!sawShutdown) {
        // EINTR is routine for a long-lived accept (any signal delivery
        // interrupts it); only real errors end the serving loop.
        int cfd;
        do {
            cfd = ::accept(fd, nullptr, nullptr);
        } while (cfd < 0 && errno == EINTR);
        if (cfd < 0)
            break;

        sync::Mutex outMu;
        const auto emit = [&](const std::string &response) {
            sync::LockGuard lock(outMu);
            std::string framed = response;
            framed += '\n';
            std::size_t off = 0;
            while (off < framed.size()) {
                const ssize_t sent =
                    ::send(cfd, framed.data() + off, framed.size() - off,
                           MSG_NOSIGNAL);
                if (sent < 0 && errno == EINTR)
                    continue; // interrupted mid-response: keep sending
                if (sent <= 0)
                    return; // peer went away; nothing useful to do
                off += static_cast<std::size_t>(sent);
            }
        };

        // One request per '\n'-terminated line; a final line the peer
        // half-closes without terminating is still answered (matching
        // the stdio transport), and a partial line growing past the
        // request cap drops the connection after an error response
        // instead of buffering without bound.
        const auto handleLine = [&](const std::string &line) {
            if (blankLine(line))
                return;
            if (isShutdownRequest(line)) {
                svc.drain();
                emit(svc.handle(line));
                sawShutdown = true;
                return;
            }
            svc.submit(line, emit);
        };

        std::string buf;
        char chunk[1 << 14];
        bool connectionOpen = true;
        while (connectionOpen && !sawShutdown) {
            const ssize_t got = ::recv(cfd, chunk, sizeof(chunk), 0);
            if (got < 0 && errno == EINTR)
                continue;
            if (got <= 0) {
                if (got == 0 && !buf.empty())
                    handleLine(buf); // unterminated final request
                break;
            }
            buf.append(chunk, static_cast<std::size_t>(got));
            std::size_t start = 0;
            for (std::size_t nl = buf.find('\n', start);
                 nl != std::string::npos; nl = buf.find('\n', start)) {
                handleLine(buf.substr(start, nl - start));
                start = nl + 1;
                if (sawShutdown) {
                    connectionOpen = false;
                    break;
                }
            }
            buf.erase(0, start);
            if (connectionOpen && buf.size() > kMaxRequestLine) {
                emit(oversizeError());
                connectionOpen = false;
            }
        }
        svc.drain(); // responses write to cfd; finish them before close
        ::close(cfd);
    }
    ::close(fd);
    ::unlink(path.c_str());
    return 0;
#else
    (void)svc;
    warn(strf("serve: Unix sockets unavailable on this platform "
              "(wanted '%s'); use stdio mode", path.c_str()));
    return 1;
#endif
}

} // namespace omnisim::serve
