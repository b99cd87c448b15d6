#include "dse/dse.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "batch/batch.hh"
#include "design/design.hh"
#include "designs/common.hh"
#include "dse/strategies.hh"
#include "io/run_store.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/stopwatch.hh"

namespace omnisim::dse
{

const char *
evalMethodName(EvalMethod m)
{
    switch (m) {
      case EvalMethod::FullRun:
        return "full";
      case EvalMethod::Incremental:
        return "incremental";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Space resolution.
// ---------------------------------------------------------------------------

DepthVector
ResolvedSpace::maxConfig() const
{
    DepthVector v = base;
    for (std::size_t a = 0; a < axes.size(); ++a)
        v[axes[a]] = candidates[a].back();
    return v;
}

DepthVector
ResolvedSpace::configOf(const std::vector<std::size_t> &idx) const
{
    omnisim_assert(idx.size() == axes.size(), "axis index arity mismatch");
    DepthVector v = base;
    for (std::size_t a = 0; a < axes.size(); ++a)
        v[axes[a]] = candidates[a][idx[a]];
    return v;
}

std::size_t
ResolvedSpace::gridSize() const
{
    std::size_t n = 1;
    for (const auto &c : candidates) {
        if (n > std::numeric_limits<std::size_t>::max() / c.size())
            return std::numeric_limits<std::size_t>::max();
        n *= c.size();
    }
    return n;
}

namespace
{

std::vector<std::uint32_t>
candidatesOf(const FifoRange &r)
{
    std::vector<std::uint32_t> out;
    if (r.geometric) {
        for (std::uint32_t d = r.lo; d < r.hi; d *= 2)
            out.push_back(d);
        out.push_back(r.hi);
    } else {
        for (std::uint32_t d = r.lo; d <= r.hi; ++d)
            out.push_back(d);
    }
    return out;
}

} // namespace

ResolvedSpace
resolveSpace(const Design &d, const DseSpace &space)
{
    ResolvedSpace rs;
    for (const auto &f : d.fifos())
        rs.base.push_back(f.depth);

    std::vector<FifoRange> ranges = space.fifos;
    if (ranges.empty()) {
        for (const auto &f : d.fifos())
            ranges.push_back({f.name, 1, 16, true});
    }

    for (const auto &r : ranges) {
        if (r.lo < 1 || r.hi < r.lo)
            omnisim_fatal("dse range for fifo '%s' is empty: lo=%u hi=%u "
                          "(need 1 <= lo <= hi)", r.fifo.c_str(), r.lo,
                          r.hi);
        const FifoId id = d.fifoByName(r.fifo); // throws on unknown name
        const auto axis = static_cast<std::size_t>(id);
        if (std::find(rs.axes.begin(), rs.axes.end(), axis) !=
            rs.axes.end())
            omnisim_fatal("fifo '%s' listed twice in the dse space",
                          r.fifo.c_str());
        rs.axes.push_back(axis);
        rs.names.push_back(r.fifo);
        rs.candidates.push_back(candidatesOf(r));
    }
    return rs;
}

// ---------------------------------------------------------------------------
// EvalCache.
// ---------------------------------------------------------------------------

namespace
{

/** Cap on pooled completed runs per cache: each holds a complete
 *  compiled run, so the pool is bounded to bound memory. */
constexpr std::size_t kMaxPool = 4;

} // namespace

/**
 * One pooled completed run: either a live engine that ran in this
 * process, or a run rehydrated from the persistent store. The Design
 * and CompiledDesign are heap-held so their addresses stay stable for
 * the engine's lifetime (OmniSim keeps a reference, CompiledDesign a
 * pointer); StoredRun is address-stable by construction. Both serve
 * resimulate() with identical (bit-for-bit) outcomes, so a probe does
 * not care which kind it hits.
 */
struct EvalCache::PoolEntry
{
    std::unique_ptr<Design> design;
    std::unique_ptr<CompiledDesign> cd;
    std::unique_ptr<OmniSim> engine;
    std::unique_ptr<io::StoredRun> stored;

    /** Depth vector the pooled run executed under (dedup on refresh). */
    DepthVector baseDepths;

    IncrementalOutcome
    resimulate(const DepthVector &depths) const
    {
        return engine ? engine->resimulate(depths)
                      : stored->resimulate(depths);
    }
};

EvalCache::EvalCache(std::function<Design()> builder, OmniSimOptions opts)
    : builder_(std::move(builder)), opts_(opts)
{
    fifoCount_ = builder_().fifos().size();
}

EvalCache::~EvalCache() = default;

void
EvalCache::attachStore(io::RunStore *store, std::string designName,
                       std::string engineName)
{
    omnisim_assert(store != nullptr, "attachStore: null store");
    {
        sync::LockGuard lock(mu_);
        omnisim_assert(store_ == nullptr,
                       "attachStore: store already attached");
        store_ = store;
        storeDesign_ = std::move(designName);
        storeEngine_ = std::move(engineName);
    }
    storeFingerprint_ = io::designFingerprint(builder_());
    refreshFromStore();
}

std::size_t
EvalCache::refreshFromStore()
{
    io::RunStore *store;
    {
        sync::LockGuard lock(mu_);
        store = store_;
        if (!store || pool_.size() >= kMaxPool)
            return 0;
    }

    // Disk IO and rehydration happen outside the lock; adoption under
    // the lock dedups against entries (and races) by base depth vector.
    std::vector<std::unique_ptr<io::StoredRun>> runs = store->loadAll(
        storeDesign_, storeEngine_, storeFingerprint_, kMaxPool);

    std::size_t adopted = 0;
    sync::LockGuard lock(mu_);
    for (auto &run : runs) {
        if (pool_.size() >= kMaxPool)
            break;
        const DepthVector &base = run->baseDepths();
        if (base.size() != fifoCount_)
            continue; // stale: FIFO count changed under the same name
        const bool dup = std::any_of(
            pool_.begin(), pool_.end(),
            [&](const auto &p) { return p->baseDepths == base; });
        if (dup)
            continue;
        auto entry = std::make_unique<PoolEntry>();
        entry->baseDepths = base;
        entry->stored = std::move(run);
        pool_.push_back(std::move(entry));
        ++adopted;
        ++storedWarmStarts_;
    }
    return adopted;
}

std::size_t
EvalCache::storedWarmStarts() const
{
    sync::LockGuard lock(mu_);
    return storedWarmStarts_;
}

void
EvalCache::setMetricsLabel(const std::string &label)
{
    labelHist_.store(
        &obs::Registry::global().histogram("dse.eval_us." + label),
        std::memory_order_release);
}

Evaluation
EvalCache::evaluate(const DepthVector &depths, bool allowIncremental)
{
    static obs::Counter &mMemoHits =
        obs::Registry::global().counter("dse.evalcache.memo_hits");
    static obs::Counter &mIncremental =
        obs::Registry::global().counter("dse.evalcache.incremental");
    static obs::Counter &mDelta =
        obs::Registry::global().counter("dse.evalcache.delta");
    static obs::Counter &mFullRuns =
        obs::Registry::global().counter("dse.evalcache.full_runs");
    static obs::Histogram &mEvalUs =
        obs::Registry::global().histogram("dse.eval_us");
    // Standalone evaluations (library embedders, tests) are entry
    // points and allocate their own correlation id; evaluations inside
    // a serve request or batch scenario keep the surrounding id.
    const obs::CorrelationId parentCid = obs::currentCorrelationId();
    obs::CorrelationScope cscope(
        parentCid ? parentCid : obs::newCorrelationId());
    OMNISIM_SPAN("dse.evaluate");
    obs::ScopedLatencyUs evalTimer(mEvalUs);
    std::optional<obs::ScopedLatencyUs> labelTimer;
    if (obs::Histogram *lh = labelHist_.load(std::memory_order_acquire))
        labelTimer.emplace(*lh);

    if (depths.size() != fifoCount_)
        omnisim_fatal("depth vector has %zu entries; design has %zu FIFOs",
                      depths.size(), fifoCount_);
    for (std::size_t f = 0; f < depths.size(); ++f) {
        if (depths[f] < 1)
            omnisim_fatal("fifo %zu: depth must be >= 1", f);
    }

    {
        sync::LockGuard lock(mu_);
        if (const auto it = done_.find(depths); it != done_.end()) {
            ++cacheHits_;
            mMemoHits.add();
            Evaluation e = it->second;
            e.fromMemo = true;
            OMNISIM_LOG_TRACE("dse.evaluate", "memo hit");
            return e;
        }
    }

    const Evaluation fresh = computeFresh(depths, allowIncremental);
    OMNISIM_LOG_TRACE("dse.evaluate", "method=%s via_delta=%d status=%s",
                      evalMethodName(fresh.method), fresh.viaDelta ? 1 : 0,
                      simStatusName(fresh.status));

    sync::LockGuard lock(mu_);
    // Two workers may race on the same unseen configuration; results
    // are deterministic, so whichever insertion wins is authoritative
    // and the stats count the configuration exactly once.
    const auto [it, inserted] = done_.emplace(depths, fresh);
    if (inserted) {
        if (fresh.method == EvalMethod::Incremental) {
            ++incrementalHits_;
            mIncremental.add();
            if (fresh.viaDelta) {
                ++deltaHits_;
                mDelta.add();
            }
        } else {
            ++fullRuns_;
            mFullRuns.add();
        }
    }
    return it->second;
}

Evaluation
EvalCache::computeFresh(const DepthVector &depths, bool allowIncremental)
{
    Evaluation e;
    e.depths = depths;
    for (const std::uint32_t d : depths)
        e.cost += d;

    // Try the recorded constraints of every pooled run first (§7.2).
    // resimulate() only reads run state, so a snapshot of raw entry
    // pointers can be probed without holding the cache lock: entries
    // are never removed and unique_ptr targets never move.
    if (allowIncremental) {
        std::vector<const PoolEntry *> entries;
        {
            sync::LockGuard lock(mu_);
            entries.reserve(pool_.size());
            for (const auto &p : pool_)
                entries.push_back(p.get());
        }
        for (const PoolEntry *entry : entries) {
            const IncrementalOutcome inc = entry->resimulate(depths);
            if (inc.reused) {
                e.status = inc.result.status;
                e.latency = inc.result.totalCycles;
                e.method = EvalMethod::Incremental;
                e.viaDelta = inc.viaDelta;
                return e;
            }
        }
    }

    // Divergence (or an empty pool): full re-simulation, which then
    // seeds the pool so neighbouring configurations can reuse it. A
    // throwing build/compile/run (user-level design errors surface as
    // FatalError) is isolated into a Crash evaluation rather than
    // unwinding through the worker pool and killing the whole search.
    e.method = EvalMethod::FullRun;
    try {
        auto entry = std::make_unique<PoolEntry>();
        entry->design = std::make_unique<Design>(builder_());
        for (std::size_t f = 0; f < depths.size(); ++f)
            entry->design->setFifoDepth(static_cast<FifoId>(f),
                                        depths[f]);
        entry->cd =
            std::make_unique<CompiledDesign>(compile(*entry->design));
        entry->engine = std::make_unique<OmniSim>(*entry->cd, opts_);
        entry->baseDepths = depths;

        const SimResult r = entry->engine->run();
        e.status = r.status;
        e.latency = r.ok() ? r.totalCycles : 0;

        if (r.ok()) {
            // Publish the engine's own frozen run outside the lock (file
            // IO); failures only cost future processes their warm start.
            if (store_) {
                std::vector<std::string> labels;
                for (const auto &f : entry->design->fifos())
                    labels.push_back(f.name);
                store_->publish(storeDesign_, storeEngine_,
                                storeFingerprint_,
                                {depths, labels, r,
                                 entry->engine->compiledRun().layout()});
            }
            sync::LockGuard lock(mu_);
            if (pool_.size() < kMaxPool)
                pool_.push_back(std::move(entry));
        }
    } catch (const std::exception &ex) {
        e.status = SimStatus::Crash;
        e.latency = 0;
        e.message = ex.what();
    }
    return e;
}

bool
EvalCache::contains(const DepthVector &depths) const
{
    sync::LockGuard lock(mu_);
    return done_.contains(depths);
}

std::size_t
EvalCache::size() const
{
    sync::LockGuard lock(mu_);
    return done_.size();
}

std::size_t
EvalCache::incrementalHits() const
{
    sync::LockGuard lock(mu_);
    return incrementalHits_;
}

std::size_t
EvalCache::deltaHits() const
{
    sync::LockGuard lock(mu_);
    return deltaHits_;
}

std::size_t
EvalCache::fullRuns() const
{
    sync::LockGuard lock(mu_);
    return fullRuns_;
}

std::size_t
EvalCache::cacheHits() const
{
    sync::LockGuard lock(mu_);
    return cacheHits_;
}

std::vector<Evaluation>
EvalCache::evaluations() const
{
    sync::LockGuard lock(mu_);
    std::vector<Evaluation> out;
    out.reserve(done_.size());
    for (const auto &[depths, e] : done_)
        out.push_back(e);
    return out;
}

opt::CompileStats
EvalCache::compileStats() const
{
    sync::LockGuard lock(mu_);
    opt::CompileStats agg;
    bool first = true;
    for (const auto &p : pool_) {
        const opt::CompileStats &s = p->engine
                                         ? p->engine->compileStats()
                                         : p->stored->compileStats();
        if (first) {
            agg = s;
            first = false;
        } else {
            agg.accumulate(s);
        }
    }
    return agg;
}

// ---------------------------------------------------------------------------
// Report distillation.
// ---------------------------------------------------------------------------

double
DseReport::hitRate() const
{
    const std::size_t total = incrementalHits + fullRuns;
    return total == 0 ? 0.0
                      : static_cast<double>(incrementalHits) /
                            static_cast<double>(total);
}

double
DseReport::configsPerSecond() const
{
    if (evaluations.empty() || wallSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(evaluations.size()) / wallSeconds;
}

namespace
{

/** Deterministic total order: cost, then latency, then depths. */
bool
evalLess(const Evaluation &a, const Evaluation &b)
{
    if (a.cost != b.cost)
        return a.cost < b.cost;
    if (a.latency != b.latency)
        return a.latency < b.latency;
    return a.depths < b.depths;
}

std::vector<Evaluation>
paretoFrontier(const std::vector<Evaluation> &sorted)
{
    // Input sorted by (cost asc, latency asc): sweep keeping points
    // whose latency strictly improves on everything cheaper. Equal-cost
    // groups contribute at most their min-latency member.
    std::vector<Evaluation> front;
    Cycles bestLatency = std::numeric_limits<Cycles>::max();
    for (const Evaluation &e : sorted) {
        if (!e.ok())
            continue;
        if (!front.empty() && front.back().cost == e.cost)
            continue; // same cost, latency >= the kept member
        if (e.latency < bestLatency) {
            front.push_back(e);
            bestLatency = e.latency;
        }
    }
    return front;
}

Evaluation
kneePoint(const std::vector<Evaluation> &front)
{
    omnisim_assert(!front.empty(), "knee of an empty frontier");
    const double c0 = static_cast<double>(front.front().cost);
    const double c1 = static_cast<double>(front.back().cost);
    const double l0 = static_cast<double>(front.back().latency);
    const double l1 = static_cast<double>(front.front().latency);
    const double cSpan = std::max(1.0, c1 - c0);
    const double lSpan = std::max(1.0, l1 - l0);

    std::size_t best = 0;
    double bestDist = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < front.size(); ++i) {
        const double nc = (static_cast<double>(front[i].cost) - c0) / cSpan;
        const double nl =
            (static_cast<double>(front[i].latency) - l0) / lSpan;
        const double dist = std::sqrt(nc * nc + nl * nl);
        if (dist < bestDist) { // ties keep the cheaper (earlier) point
            bestDist = dist;
            best = i;
        }
    }
    return front[best];
}

} // namespace

// ---------------------------------------------------------------------------
// explore().
// ---------------------------------------------------------------------------

DseReport
explore(const std::string &designLabel,
        const std::function<Design()> &builder, const DseOptions &opts)
{
    std::unique_ptr<DseStrategy> strategy = makeStrategy(opts.strategy);
    if (!strategy) {
        std::string known;
        for (const std::string &n : strategyNames())
            known += known.empty() ? n : ", " + n;
        omnisim_fatal("unknown dse strategy '%s' (have: %s)",
                      opts.strategy.c_str(), known.c_str());
    }
    if (opts.budget < 1)
        omnisim_fatal("dse budget must be >= 1");

    const Design probe = builder();
    const ResolvedSpace space = resolveSpace(probe, opts.space);

    DseReport rep;
    rep.design = designLabel;
    rep.strategy = strategy->name();
    for (const auto &f : probe.fifos())
        rep.fifoNames.push_back(f.name);
    rep.axes = space.axes;

    OMNISIM_SPAN("dse.explore");
    static obs::Counter &mExplores =
        obs::Registry::global().counter("dse.explores");
    mExplores.add();
    OMNISIM_LOG_INFO("dse.explore", "design=%s strategy=%s budget=%zu",
                     designLabel.c_str(), strategy->name(), opts.budget);

    EvalCache cache(builder, opts.engine);
    cache.setMetricsLabel(strategy->name());
    if (opts.store)
        cache.attachStore(opts.store,
                          opts.storeDesign.empty() ? designLabel
                                                   : opts.storeDesign);
    const batch::BatchRunner pool({opts.jobs});
    rep.jobs = pool.jobs();

    Stopwatch sw;
    SearchContext ctx(space, cache, pool, opts.budget, opts.seed);

    // Warm start: one full run of the deepest configuration gives every
    // strategy a reference latency and seeds the reuse pool, so that
    // even the first parallel wave of candidates can resolve
    // incrementally instead of racing into full runs.
    ctx.evaluate(space.maxConfig());

    strategy->search(ctx);
    rep.wallSeconds = sw.seconds();

    rep.evaluations = cache.evaluations();
    std::sort(rep.evaluations.begin(), rep.evaluations.end(), evalLess);
    rep.frontier = paretoFrontier(rep.evaluations);
    rep.anyOk = !rep.frontier.empty();
    if (rep.anyOk) {
        // Latency decreases strictly along the frontier, and latency
        // ties collapse to their cheapest member during the sweep, so
        // the last point is the cheapest min-latency configuration.
        rep.minLatency = rep.frontier.back();
        rep.knee = kneePoint(rep.frontier);
    }
    rep.fullRuns = cache.fullRuns();
    rep.incrementalHits = cache.incrementalHits();
    rep.deltaHits = cache.deltaHits();
    rep.cacheHits = cache.cacheHits();
    rep.storedWarmStarts = cache.storedWarmStarts();
    return rep;
}

DseReport
exploreRegistered(const std::string &designName, const DseOptions &opts)
{
    const designs::DesignEntry &entry = designs::findDesign(designName);
    return explore(entry.name, entry.build, opts);
}

} // namespace omnisim::dse
