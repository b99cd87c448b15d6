/**
 * @file
 * Compiled form of a finished simulation run (§7.2 of the paper, taken
 * to the LightningSimV2/GSIM conclusion: pay for structure once, then
 * only touch what changed).
 *
 * After a successful OmniSim run the finished trace goes through the
 * graph compilation pipeline (src/opt/): at -O1 the pass manager prunes
 * constraints and WAR endpoints that can never matter at any depth in
 * the candidate lattice, collapses linear chains into weighted interval
 * edges, and deduplicates structurally identical subgraphs; at -O0 it
 * emits the identity image. Either way the result is a RunLayout — the
 * frozen run as plain arrays in layout node ids — over which this class
 * builds an immutable CSR pair (forward for propagation, reverse for
 * in-place recomputation), a cached topological order, the baseline
 * longest-path times, and per-node accessor maps that make every
 * depth-dependent write-after-read edge computable in O(1) — WAR edges
 * are never materialized at all.
 *
 * resimulate() then serves a new depth vector by *delta relaxation*:
 * diff the synthesized WAR edge set against the baseline for the changed
 * FIFOs only, seed a worklist with the destination writes of
 * added/removed/re-sourced edges, and relax node times in cached
 * topological order over just the affected cone. Node times can both
 * rise and fall, so each pop fully recomputes its node from the reverse
 * CSR plus its WAR in-edge; chaotic re-evaluation converges to the
 * unique longest-path fixed point on any DAG, and a bounded pop budget
 * catches the cyclic (timing-infeasible) case. When the delta is too
 * large, the budget trips, or a depth vector shrinks a FIFO into a
 * potential cycle, the attempt falls back to a full relaxation pass —
 * still over the compiled CSR, with WAR edges overlaid functionally, so
 * even the fallback never rebuilds a graph.
 *
 * Probed depths are clamped per FIFO to writes+1 first: no WAR edge
 * exists beyond that and every recorded write-kind constraint index is
 * <= writes+1, so deeper depths are provably indistinguishable — which
 * is also what makes the -O1 lattice analysis finite.
 *
 * The cached order is the Kahn order of the *maximally constrained*
 * overlay (every depth 1). freeze() certifies it *universal* when, in
 * every FIFO, each live blocking write ranks after every live read with
 * a smaller index: at depth s the WAR edge runs from read w-s to write
 * w, so a universal order is topological for every clamped probe. Then
 * no probe can be infeasible, the baseline solve and every full
 * fallback are one in-order sweep recomputing each node from the
 * reverse CSR, and the delta sweep never has to re-sweep. Without the
 * certificate (a cyclic depth-1 overlay, or lazy write-stall mode) the
 * delta sweep allows bounded re-sweeps and the full fallback is the
 * Kahn pass, which is also what proves infeasibility. The certificate
 * is a pure function of the frozen structure, so a live engine and a
 * StoredRun reopened from its layout always pick the same path.
 *
 * Every path is bit-identical to the pre-compiled reference
 * implementation (OmniSim::resimulateReference): identical reuse
 * decisions, identical first-divergent constraint (reported in recorded
 * indices), identical re-finalized cycle counts — at -O0 and -O1 alike.
 * tests/test_compiled_run.cc and the conformance fuzzer's opt-vs-O0
 * oracle enforce this across the design registry.
 */

#ifndef OMNISIM_GRAPH_COMPILED_RUN_HH
#define OMNISIM_GRAPH_COMPILED_RUN_HH

#include <cstdint>
#include <vector>

#include "graph/csr.hh"
#include "graph/simgraph.hh"
#include "opt/layout.hh"
#include "runtime/fifo_table.hh"
#include "support/types.hh"

namespace omnisim
{

struct QueryRecord; // core/omnisim.hh

/**
 * Immutable compiled snapshot of one finished run. All mutable state of
 * resimulate() is per-call scratch, so a single CompiledRun may serve
 * any number of concurrent callers (the DSE EvalCache probes pooled
 * runs from every batch worker at once). Self-contained: the layout
 * owns every array the solver touches, so the originating tables and
 * constraint list are only read during construction.
 */
class CompiledRun
{
  public:
    /** Outcome of one compiled re-simulation attempt. */
    struct Attempt
    {
        enum class Status : std::uint8_t
        {
            Reused,     ///< All constraints held; totalCycles is valid.
            Diverged,   ///< constraintIndex names the first flipped query.
            Infeasible, ///< New depths create a timing cycle.
        };

        Status status = Status::Reused;

        /** First divergent constraint (index into the recorded list);
         *  valid when status == Diverged. */
        std::size_t constraintIndex = 0;

        /** How that constraint would now resolve; valid for Diverged. */
        bool nowAnswer = false;

        /** Re-finalized total latency; valid when status == Reused. */
        Cycles totalCycles = 0;

        /** True when the delta worklist served the attempt without a
         *  full relaxation pass (the compiled fast path). */
        bool viaDelta = false;

        /** Nodes whose times were recomputed: the affected cone on the
         *  delta path, every node on a full relaxation, 0 when the
         *  depths were unchanged. Telemetry feeds on this. */
        std::size_t relaxedNodes = 0;
    };

    /**
     * Freeze a finished run: compile it through the pass pipeline, then
     * solve the layout (the constructor below).
     *
     * @param nodes       per-node payloads (durations are copied out).
     * @param structural  depth-independent constraint edges.
     * @param seed        per-node minimum start times (size == nodes).
     * @param tables      per-FIFO commit tables.
     * @param baseDepths  FIFO depths the run executed under.
     * @param constraints recorded query outcomes (copied into the
     *                    layout's kept list).
     * @param tailNode    per-module last-op node (module tail anchor).
     * @param tailSlack   per-module cycles between last op and return.
     * @param level       optimization level (see opt/opt.hh).
     */
    CompiledRun(const std::vector<NodeInfo> &nodes,
                const std::vector<CsrGraph::EdgeSpec> &structural,
                const std::vector<Cycles> &seed,
                const std::vector<FifoTable> &tables,
                const std::vector<std::uint32_t> &baseDepths,
                const std::vector<QueryRecord> &constraints,
                const std::vector<std::uint64_t> &tailNode,
                const std::vector<Cycles> &tailSlack,
                opt::OptLevel level = opt::OptLevel::O1);

    /**
     * Freeze an already compiled layout: the tail of the constructor
     * above, and all of a StoredRun's rehydration from a run file
     * (src/io/), which persists the engine's own layout. The layout
     * must pass opt::verifyIndices and carry its accessor arrays
     * (RunLayout::rebuildAccessMaps); @p baseDepths has one entry per
     * FIFO.
     */
    CompiledRun(opt::RunLayout layout,
                const std::vector<std::uint32_t> &baseDepths);

    /** @return false when even the baseline WAR overlay has a timing
     *  cycle (only reachable in lazy write-stall mode). */
    bool baselineAcyclic() const { return baselineAcyclic_; }

    /** @return true when freeze() certified the cached order universal:
     *  topological for the WAR overlay at every clamped depth vector, so
     *  no probe is infeasible and every full relaxation is one in-order
     *  sweep (see the file comment). */
    bool universalOrder() const { return universalOrder_; }

    /** @return baseline total latency (max node time + duration, max
     *  module tail, collapsed-node floor). */
    Cycles baselineTotalCycles() const { return baseTotal_; }

    /** @return original structural plus baseline-synthesized WAR edge
     *  count (the figure the engine reports as graphEdges). */
    std::size_t numEdges() const
    {
        return lay_.stats.origEdges + baseWarEdges_;
    }

    /** @return the compiled layout (optimized graph, pass statistics). */
    const opt::RunLayout &layout() const { return lay_; }

    /** @return pass pipeline statistics for this run. */
    const opt::CompileStats &compileStats() const { return lay_.stats; }

    /**
     * Attempt an incremental re-finalization under new depths.
     * Thread-safe and allocation-bounded; never touches shared state.
     * Divergences are reported in original recorded-constraint indices
     * regardless of optimization level.
     *
     * @param depths one depth per FIFO (size == fifo count).
     */
    Attempt resimulate(const std::vector<std::uint32_t> &depths) const;

  private:
    /** Solve the layout (the body of the layout constructor). */
    void freeze();

    /** Adopt a topological order as the cached rank. */
    void setOrder(const std::vector<std::uint32_t> &order);

    /** The universal-order certificate over the cached rank (one pass
     *  per FIFO with a running maximum of read ranks). */
    bool rankIsUniversal() const;

    /** Clamp a probed depth vector into the per-FIFO lattice. */
    std::vector<std::uint32_t>
    clampDepths(const std::vector<std::uint32_t> &depths) const;

    /** Full Kahn relaxation over the CSR with WAR(depths) overlaid
     *  functionally; the topological order output is optional. Depths
     *  must already be clamped. */
    bool relaxFull(const std::vector<std::uint32_t> &depths,
                   std::vector<Cycles> &time,
                   std::vector<std::uint32_t> *order) const;

    /** Full relaxation as one sweep in cached rank order, recomputing
     *  each node from its in-edges. Exact only under a universal order
     *  (every in-edge then originates earlier in the sweep). Depths must
     *  already be clamped. */
    void relaxInOrder(const std::vector<std::uint32_t> &depths,
                      std::vector<Cycles> &time) const;

    /** Delta worklist relaxation. @return false to request the full
     *  fallback (budget exceeded / possible cycle). */
    bool relaxDelta(const std::vector<std::uint32_t> &depths,
                    const std::vector<std::size_t> &changedFifos,
                    std::vector<Cycles> &cur,
                    std::vector<std::uint8_t> &changedFlag,
                    std::vector<std::uint64_t> &changedNodes) const;

    /** Recompute one node's time from its in-edges under a time view. */
    Cycles recompute(std::uint64_t v, const std::vector<Cycles> &cur,
                     const std::vector<std::uint32_t> &depths) const;

    /** Evaluate kept constraint i against a time view + depths. */
    bool evalConstraint(std::size_t i, const std::vector<Cycles> &time,
                        const std::vector<std::uint32_t> &depths) const;

    /** Visit structural + WAR(depths) out-edges of node u. */
    template <typename F>
    void forEachOutOverlay(std::uint64_t u,
                           const std::vector<std::uint32_t> &depths,
                           F &&f) const;

    Attempt finishWithTimes(const std::vector<Cycles> &time,
                            const std::vector<std::uint32_t> &depths) const;

    // ---- Frozen structure (layout node ids throughout) --------------
    opt::RunLayout lay_;
    CsrGraph fwd_;                      ///< Structural out-edges.
    CsrGraph rev_;                      ///< Structural in-edges.
    std::vector<std::uint32_t> baseDepths_; ///< Clamped baseline.
    std::size_t baseWarEdges_ = 0;      ///< Original-graph count.
    std::vector<std::uint32_t> indegStructural_;

    // ---- Baseline solution ------------------------------------------
    bool baselineAcyclic_ = false;
    bool universalOrder_ = false;
    std::vector<Cycles> baseTime_;
    Cycles baseTotal_ = 0;
    std::vector<std::uint32_t> rank_;      ///< Cached topo position.
    std::vector<std::uint64_t> order_;     ///< Inverse of rank_.
    std::vector<std::uint64_t> byContrib_; ///< Nodes by desc time+dur.

    // ---- Constraint index (indices into lay_.cons) ------------------
    /** CSR map layout node -> kept constraints referencing it (as the
     *  query node or as its baseline target event). */
    std::vector<std::uint32_t> consOffsets_;
    std::vector<std::uint32_t> consIds_;
    /** Write-kind kept constraints per FIFO (their target read index
     *  moves with the depth, so a depth change affects all of them). */
    std::vector<std::vector<std::uint32_t>> writeConsByFifo_;
    /** Kept constraints whose baseline re-evaluation already differs
     *  from the recorded outcome (lazy-mode repairs), ascending. */
    std::vector<std::uint32_t> baselineDivergent_;
};

} // namespace omnisim

#endif // OMNISIM_GRAPH_COMPILED_RUN_HH
