/**
 * @file
 * The OmniSim engine (§5.2, §6, §7 of the paper): flexibly coupled
 * functionality and performance simulation.
 *
 * One Func Sim thread per dataflow module free-runs through the design,
 * committing blocking FIFO accesses directly into per-FIFO timing tables
 * (data structure D of Fig. 7) under fine-grained per-FIFO locks — the
 * fast path that lets Type A designs run fully parallel. Non-blocking
 * accesses and status checks are cycle-dependent queries: when their
 * outcome is already decidable from committed table state they resolve
 * in-place; otherwise the thread pauses in the query pool (E) and the
 * dedicated Perf Sim thread resolves them per Table 2. The task tracker
 * (F) counts runnable threads; when it reaches zero the Perf thread
 * either resolves pending queries, applies the earliest-query-false rule
 * (§7.1, footnote 7: when every target event is unknown, all threads have
 * progressed past the earliest query's cycle, so its target must lie in
 * the future and the query safely resolves false), or — when no queries
 * remain — reports a true design deadlock.
 *
 * Every resolved query is recorded as a constraint; finalization freezes
 * the merged thread logs into a CompiledRun (graph/compiled_run.hh):
 * structural CSR, cached topological order, and baseline longest-path
 * node times over the structure plus depth-synthesized write-after-read
 * edges. That compiled form powers the §7.2 incremental re-simulation:
 * under new FIFO depths only the WAR delta of the changed FIFOs is
 * relaxed over the affected cone, the recorded constraints touching it
 * are re-checked, and only a divergent outcome forces a full re-run.
 */

#ifndef OMNISIM_CORE_OMNISIM_HH
#define OMNISIM_CORE_OMNISIM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "design/frontend.hh"
#include "graph/csr.hh"
#include "graph/simgraph.hh"
#include "opt/opt.hh"
#include "runtime/fifo_table.hh"
#include "runtime/result.hh"

namespace omnisim
{

class CompiledRun; // graph/compiled_run.hh

/** Engine configuration. */
struct OmniSimOptions
{
    /**
     * Eager write stalls (default): a blocking write to a full FIFO
     * pauses until space is committed, keeping every live cycle exact.
     * When false, threads performing blocking writes never pause (the
     * paper's T4 optimization, §6.2); finalization repairs their timing,
     * reproducing the paper's small (<0.2%) accuracy deltas on designs
     * whose queries observe the optimistic times. Exposed as an ablation.
     */
    bool eagerWriteStall = true;

    /** Elide empty()/full() checks whose results are unused (§7.3.2). */
    bool elideUnusedChecks = true;

    /** Per-thread op watchdog (guards against runaway designs). */
    std::uint64_t opLimit = 200'000'000;

    /**
     * Debug cross-check: verify that finalization's longest-path times
     * reproduce the live commit cycles exactly (eager mode only).
     */
    bool verifyFinalization = false;

    /**
     * Graph compilation level for the frozen run (src/opt/): -O0 keeps
     * the identity layout; -O1 (default) runs the lattice-prune /
     * chain-collapse / dedup pipeline. Bit-identical resimulate()
     * outcomes at every level — this only trades freeze time for probe
     * and rehydration speed.
     */
    opt::OptLevel optLevel = opt::OptLevel::O1;

    /**
     * Has no effect: the frozen run's solver is serial. Kept only
     * because bench/omnibench still assigns it; remove it together with
     * those assignments.
     */
    unsigned jobs = 1;
};

/** A recorded query outcome — the §7.2 constraint. */
struct QueryRecord
{
    FifoId fifo = invalidId;
    EventKind kind = EventKind::FifoNbWrite;
    /** Access index being attempted (the w or r of Table 2). */
    std::uint32_t index = 0;
    /** Graph node of the attempt/check. */
    std::uint64_t node = 0;
    /** True iff the target event had occurred strictly before the op. */
    bool outcome = false;
};

/**
 * Self-contained image of one finished successful run as traced, before
 * any compilation: merged node payloads, structural edges, entry-time
 * seeds, the per-FIFO commit tables, the depth vector the run executed
 * under, the recorded constraints, the module tail anchors, and the
 * baseline SimResult — the pass pipeline's input (opt::LayoutInput
 * views it). Graph dumps and compiler tests use it; a run file stores
 * the compiled layout instead (src/io/).
 */
struct RunSnapshot
{
    std::vector<NodeInfo> nodes;
    std::vector<CsrGraph::EdgeSpec> edges;
    std::vector<Cycles> seed;
    std::vector<FifoTable> tables;
    std::vector<std::uint32_t> depths;
    std::vector<QueryRecord> constraints;
    std::vector<std::uint64_t> tailNode;
    std::vector<Cycles> tailSlack;

    /** Baseline result of the recorded run (status is always Ok). */
    SimResult result;
};

/** Outcome of an incremental re-simulation attempt (§7.2 / Table 6). */
struct IncrementalOutcome
{
    /** True when all constraints held and the graph was reused. */
    bool reused = false;

    /** Valid when reused: the re-finalized result (same functional
     *  outputs, new cycle count). */
    SimResult result;

    /** Why reuse failed (constraint diverged / timing cycle). */
    std::string reason;

    /** True when the attempt was served by the frozen CompiledRun
     *  (either path) instead of a per-call graph rebuild. */
    bool viaCompiled = false;

    /** True when the delta worklist alone decided the attempt — the
     *  affected-cone fast path, no full relaxation pass at all. */
    bool viaDelta = false;
};

/**
 * The OmniSim simulator. Construct once per design configuration, call
 * run(), then optionally probe alternative FIFO depths with
 * resimulate().
 */
class OmniSim
{
  public:
    explicit OmniSim(const CompiledDesign &cd, OmniSimOptions opts = {});
    ~OmniSim();

    /** Execute the full multi-threaded simulation. */
    SimResult run();

    /**
     * Attempt incremental re-simulation under new FIFO depths without
     * re-running the design (requires a prior successful run()).
     *
     * Served by the CompiledRun frozen at the end of run(): the WAR
     * edge delta is diffed for the changed depths only and node times
     * are relaxed over just the affected cone in cached topological
     * order, falling back to one full relaxation pass over the compiled
     * CSR when the delta is too large or may create a timing cycle.
     * Outcomes are bit-identical to resimulateReference().
     */
    IncrementalOutcome resimulate(const std::vector<std::uint32_t> &depths);

    /**
     * Reference implementation of resimulate(): rebuilds the full
     * adjacency-list graph and re-runs Kahn longest path from scratch
     * on every call. Kept as the ground truth the compiled path is
     * tested against (tests/test_compiled_run.cc) and as the in-run
     * reference of bench/omnibench's dse_warm workload.
     */
    IncrementalOutcome
    resimulateReference(const std::vector<std::uint32_t> &depths);

    /** @return the constraints recorded by the last run. */
    const std::vector<QueryRecord> &constraints() const;

    /**
     * @return pass statistics of the compilation pipeline the last
     * successful run's graph went through (empty pass list at -O0).
     * Requires a prior successful run().
     */
    const opt::CompileStats &compileStats() const;

    /**
     * @return the frozen form of the last successful run — what
     * resimulate() serves from and what a run file persists (src/io/).
     * Requires a prior successful run().
     */
    const CompiledRun &compiledRun() const;

    /**
     * Copy the traced image of the last successful run into out (the
     * pass pipeline's input: graph dumps and compiler tests).
     * @return false when there is no valid completed run to export.
     */
    bool exportSnapshot(RunSnapshot &out) const;

  private:
    struct RunData;

    const CompiledDesign &cd_;
    OmniSimOptions opts_;
    std::unique_ptr<RunData> data_;
};

/** One-shot convenience wrapper around OmniSim::run(). */
SimResult simulateOmniSim(const CompiledDesign &cd,
                          const OmniSimOptions &opts = {});

} // namespace omnisim

#endif // OMNISIM_CORE_OMNISIM_HH
