/**
 * @file
 * Design-space exploration over joint FIFO depth assignments (§7.2 of
 * the paper, the LightningSimV2/FLASH FIFO-sizing workflow). The
 * mechanism — constraint-checked incremental re-simulation — lives in
 * OmniSim::resimulate(); this subsystem supplies the policy layer:
 *
 *  - a DseSpace describing which FIFOs to vary and over which depth
 *    candidates (geometric ladders for broad searches, dense linear
 *    ranges for sweeps);
 *  - an EvalCache that memoizes every visited depth vector and serves
 *    each new one by re-checking the recorded constraints of a pool of
 *    previously completed full runs — each frozen into a CompiledRun,
 *    so a probe is a delta relaxation over the affected cone rather
 *    than a graph rebuild — falling back to a full OmniSim run only on
 *    divergence (Table 6's fallback row), the property that makes a
 *    thousand-configuration search cost milliseconds;
 *  - search strategies (src/dse/strategies.hh) that drive the cache,
 *    fanning independent candidate evaluations across the src/batch/
 *    worker pool while remaining bit-identical to a serial search;
 *  - a DseReport carrying the Pareto frontier of (total buffer cost,
 *    latency), the min-latency and knee-point configurations, and the
 *    incremental-hit statistics the §7.2 evaluation reports.
 */

#ifndef OMNISIM_DSE_DSE_HH
#define OMNISIM_DSE_DSE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/omnisim.hh"
#include "design/frontend.hh"
#include "obs/metrics.hh"
#include "runtime/result.hh"
#include "support/sync.hh"

namespace omnisim::io
{
class RunStore; // io/run_store.hh
}

namespace omnisim::dse
{

/** One depth per FIFO of the design, indexed by FifoId. */
using DepthVector = std::vector<std::uint32_t>;

/** How an evaluation was obtained. */
enum class EvalMethod : std::uint8_t
{
    FullRun,     ///< Fresh OmniSim run (constraints diverged or empty pool).
    Incremental, ///< Served by resimulate() against a pooled prior run.
};

/** @return "full" or "incremental". */
const char *evalMethodName(EvalMethod m);

/** The outcome of simulating one depth configuration. */
struct Evaluation
{
    DepthVector depths;

    SimStatus status = SimStatus::Ok;

    /** Total latency in cycles; valid when status == Ok. */
    Cycles latency = 0;

    /** Total buffer cost: the sum of every FIFO depth in the design,
     *  a BRAM-words proxy (each slot stores one value). */
    std::uint64_t cost = 0;

    EvalMethod method = EvalMethod::FullRun;

    /** For Incremental evaluations: true when the CompiledRun delta
     *  worklist alone decided the attempt (no full relaxation pass). */
    bool viaDelta = false;

    /** True when this evaluate() call was answered from the memo table
     *  (method then describes how the configuration was *originally*
     *  computed). Never set on entries inside the cache — only on the
     *  copies a repeat call returns. */
    bool fromMemo = false;

    /** Failure explanation when the engine threw (status == Crash). */
    std::string message;

    bool ok() const { return status == SimStatus::Ok; }
};

/** One explored axis: a named FIFO and its candidate depth range. */
struct FifoRange
{
    std::string fifo;
    std::uint32_t lo = 1;
    std::uint32_t hi = 16;

    /**
     * Candidate spacing. Geometric (default) visits lo, 2·lo, 4·lo, ...
     * plus hi — the right shape for order-of-magnitude sizing searches.
     * Linear visits every integer in [lo, hi] — the right shape for
     * exhaustive sweeps.
     */
    bool geometric = true;
};

/** Which FIFOs to explore. Empty == every FIFO with default FifoRange. */
struct DseSpace
{
    std::vector<FifoRange> fifos;
};

/**
 * A DseSpace resolved against a concrete design: explored axes mapped
 * to FifoIds with concrete ascending candidate lists, plus the design's
 * registered depth for every unexplored FIFO.
 */
struct ResolvedSpace
{
    /** FifoId of each explored axis, in the order the ranges were
     *  given (reports and sweep tables preserve this order). */
    std::vector<std::size_t> axes;

    /** FIFO name of each axis (for reports). */
    std::vector<std::string> names;

    /** Ascending candidate depths per axis; never empty. */
    std::vector<std::vector<std::uint32_t>> candidates;

    /** Registered depth of every FIFO (the value unexplored FIFOs keep). */
    DepthVector base;

    /** @return base with every axis at its deepest candidate. */
    DepthVector maxConfig() const;

    /** @return base with the given candidate index per axis. */
    DepthVector configOf(const std::vector<std::size_t> &idx) const;

    /** @return the cross-product size, saturating at SIZE_MAX. */
    std::size_t gridSize() const;
};

/**
 * Resolve a space against a design.
 * @throws FatalError on unknown FIFO names, empty ranges, or lo < 1.
 */
ResolvedSpace resolveSpace(const Design &d, const DseSpace &space);

/**
 * Memoizing evaluator for depth configurations. Thread-safe: strategy
 * code may call evaluate() from any number of batch workers
 * concurrently. Every configuration is first attempted incrementally
 * against a pool of at most four engines holding completed full runs
 * (resimulate() only reads recorded run state, so pool members serve
 * many workers at once); a configuration all pool members refuse gets a
 * fresh full run, which then joins the pool and seeds future reuse.
 *
 * Results are deterministic per depth vector — an incremental answer
 * equals the full-run answer whenever reuse is legal, which is exactly
 * the §7.2 constraint guarantee — so searches are bit-identical
 * regardless of worker count or pool contents.
 */
class EvalCache
{
  public:
    /**
     * @param builder rebuilds the design from scratch (depth overrides
     *        are applied on top for fallback full runs).
     * @param opts    engine options for fallback full runs.
     */
    explicit EvalCache(std::function<Design()> builder,
                       OmniSimOptions opts = {});
    ~EvalCache();

    EvalCache(const EvalCache &) = delete;
    EvalCache &operator=(const EvalCache &) = delete;

    /**
     * Attach a persistent run store (io/run_store.hh). Warm start: the
     * store's matching runs for (designName, engineName) are rehydrated
     * into the reuse pool immediately — so the very first evaluate() of
     * this process can be served at §7.2 incremental cost by a run some
     * earlier process paid for. From then on every successful full run
     * is published back to the store. The store must outlive the cache.
     *
     * Call before the first evaluate(); stale-design protection is by
     * fingerprint (runs recorded against a structurally different
     * design are skipped, never trusted).
     */
    void attachStore(io::RunStore *store, std::string designName,
                     std::string engineName = "omnisim")
        OMNISIM_EXCLUDES(mu_);

    /**
     * Re-scan the attached store for runs published since attachStore()
     * (e.g. by a concurrent process) and adopt them into the reuse pool
     * up to the pool cap. No-op without an attached store.
     * @return runs newly adopted.
     */
    std::size_t refreshFromStore() OMNISIM_EXCLUDES(mu_);

    /** @return pool entries rehydrated from the attached store. */
    std::size_t storedWarmStarts() const OMNISIM_EXCLUDES(mu_);

    /**
     * Evaluate one configuration, memoized.
     * @param depths one depth (>= 1) per design FIFO.
     * @param allowIncremental when false, skip the §7.2 reuse-pool
     *        probe and pay for a fresh full engine run (unless the
     *        configuration is already memoized) — the cold path the
     *        serve layer's `simulate` op and benches use as a baseline.
     * @throws FatalError on a malformed depth vector.
     */
    Evaluation evaluate(const DepthVector &depths,
                        bool allowIncremental = true)
        OMNISIM_EXCLUDES(mu_);

    /** @return true when the configuration has already been evaluated. */
    bool contains(const DepthVector &depths) const OMNISIM_EXCLUDES(mu_);

    /** @return unique configurations evaluated so far. */
    std::size_t size() const OMNISIM_EXCLUDES(mu_);

    /** @return evaluations served by resimulate() reuse. */
    std::size_t incrementalHits() const OMNISIM_EXCLUDES(mu_);

    /** @return incremental hits decided entirely by the CompiledRun
     *  delta worklist (no full relaxation pass) — the affected-cone
     *  fast path that makes pooled runs cheap to probe. */
    std::size_t deltaHits() const OMNISIM_EXCLUDES(mu_);

    /** @return evaluations that needed a fresh full run. */
    std::size_t fullRuns() const OMNISIM_EXCLUDES(mu_);

    /** @return repeat evaluate() calls answered from the memo table. */
    std::size_t cacheHits() const OMNISIM_EXCLUDES(mu_);

    /** @return a snapshot of every unique evaluation (unspecified order). */
    std::vector<Evaluation> evaluations() const OMNISIM_EXCLUDES(mu_);

    /**
     * Tag this cache's evaluations with a telemetry label: latencies
     * land in the `dse.eval_us.<label>` histogram in addition to the
     * global `dse.eval_us` one. explore() labels by strategy name so
     * per-strategy evaluation cost can be compared on a live service.
     */
    void setMetricsLabel(const std::string &label);

    /** @return compile-pipeline statistics accumulated over every
     *  pooled completed run — live engines and store-rehydrated runs
     *  alike (both freeze through the same pass pipeline). Empty when
     *  the pool is empty. */
    opt::CompileStats compileStats() const OMNISIM_EXCLUDES(mu_);

  private:
    struct PoolEntry;

    Evaluation computeFresh(const DepthVector &depths,
                            bool allowIncremental) OMNISIM_EXCLUDES(mu_);

    std::function<Design()> builder_;
    OmniSimOptions opts_;
    std::size_t fifoCount_;

    // Persistent store attachment (null == in-process only). Written
    // once by attachStore() before the cache sees concurrent traffic
    // (the documented contract: "call before the first evaluate()"),
    // then read lock-free on the evaluation paths — so deliberately
    // not GUARDED_BY even though attachStore also holds mu_ for its
    // already-attached assertion.
    io::RunStore *store_ = nullptr;
    std::string storeDesign_;
    std::string storeEngine_;
    std::uint64_t storeFingerprint_ = 0;

    mutable sync::Mutex mu_;
    std::map<DepthVector, Evaluation> done_ OMNISIM_GUARDED_BY(mu_);
    std::vector<std::unique_ptr<PoolEntry>> pool_ OMNISIM_GUARDED_BY(mu_);
    std::size_t incrementalHits_ OMNISIM_GUARDED_BY(mu_) = 0;
    std::size_t deltaHits_ OMNISIM_GUARDED_BY(mu_) = 0;
    std::size_t fullRuns_ OMNISIM_GUARDED_BY(mu_) = 0;
    std::size_t cacheHits_ OMNISIM_GUARDED_BY(mu_) = 0;
    std::size_t storedWarmStarts_ OMNISIM_GUARDED_BY(mu_) = 0;

    // Optional per-label latency histogram (see setMetricsLabel);
    // registry-owned, stable for the process lifetime.
    std::atomic<obs::Histogram *> labelHist_{nullptr};
};

/** Exploration configuration. */
struct DseOptions
{
    /** Strategy name: grid, binary, greedy, or anneal. */
    std::string strategy = "grid";

    /** Maximum unique configurations to evaluate (full + incremental). */
    std::size_t budget = 512;

    /** Worker threads; 0 selects hardware_concurrency. */
    unsigned jobs = 0;

    /** PRNG seed for randomized strategies (simulated annealing). */
    std::uint64_t seed = 1;

    /** Explored FIFOs; empty == all FIFOs, default ranges. */
    DseSpace space;

    /** Engine options for fallback full runs. */
    OmniSimOptions engine;

    /**
     * Optional persistent run store (non-owning; must outlive the
     * exploration). When set, the EvalCache warm-starts from runs
     * earlier processes published for this design and publishes its own
     * full runs back — repeated explorations of one design across
     * processes converge to all-incremental serving.
     */
    io::RunStore *store = nullptr;

    /** Store key; defaults to the explore() design label. */
    std::string storeDesign;
};

/** Everything a search produced. */
struct DseReport
{
    std::string design;
    std::string strategy;

    /** Name of every design FIFO, indexed by FifoId. */
    std::vector<std::string> fifoNames;

    /** FifoId of each explored axis. */
    std::vector<std::size_t> axes;

    /** Every unique evaluation, sorted by (cost, latency, depths). */
    std::vector<Evaluation> evaluations;

    /**
     * Pareto frontier over successful evaluations: ascending cost,
     * strictly descending latency — no point is dominated.
     */
    std::vector<Evaluation> frontier;

    /** True when at least one configuration simulated to completion. */
    bool anyOk = false;

    /** Min-latency configuration (lowest cost among ties); valid when
     *  anyOk. */
    Evaluation minLatency;

    /** Knee of the frontier: the point nearest (after normalizing both
     *  axes to [0,1]) the utopia point (min cost, min latency); valid
     *  when anyOk. */
    Evaluation knee;

    std::size_t fullRuns = 0;
    std::size_t incrementalHits = 0;
    std::size_t deltaHits = 0;
    std::size_t cacheHits = 0;

    /** Pool entries rehydrated from a persistent RunStore (0 when no
     *  store was attached or the store had nothing usable). */
    std::size_t storedWarmStarts = 0;

    unsigned jobs = 1;
    double wallSeconds = 0.0;

    /** @return fraction of unique evaluations served incrementally. */
    double hitRate() const;

    /** @return unique configurations per wall-clock second. */
    double configsPerSecond() const;
};

/**
 * Run one exploration: resolve the space, warm the cache with a full
 * run of the deepest configuration, execute the strategy, and distill
 * the report.
 *
 * @param designLabel report label for the design.
 * @param builder     rebuilds the design from scratch.
 * @throws FatalError on unknown strategy names or malformed spaces.
 */
DseReport explore(const std::string &designLabel,
                  const std::function<Design()> &builder,
                  const DseOptions &opts);

/** explore() over a registered design (designs::findDesign). */
DseReport exploreRegistered(const std::string &designName,
                            const DseOptions &opts);

} // namespace omnisim::dse

#endif // OMNISIM_DSE_DSE_HH
