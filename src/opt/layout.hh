/**
 * @file
 * RunLayout: the solver-facing image of a frozen run.
 *
 * CompiledRun's relaxation and constraint machinery no longer reads the
 * FIFO tables or the recorded constraint list directly — it operates on
 * a RunLayout, a set of plain arrays in *layout node ids*. The layout is
 * either the identity image of the traced graph (-O0) or the output of
 * the optimization pass pipeline (-O1): collapsed chains, deduplicated
 * subgraphs, pruned constraints, and per-FIFO access maps restricted to
 * the entries that can still matter under some depth vector.
 *
 * Invariants the passes guarantee (and the run-file decoder validates,
 * see opt::verifyIndices):
 *  - every kept FIFO access entry maps to a live layout node;
 *  - every kept constraint's node and reachable targets are live;
 *  - node times of live layout nodes equal the original nodes' times at
 *    every depth vector in the candidate lattice (depths clamp per FIFO
 *    to writes+1 — deeper behaves identically, see compiled_run.cc);
 *  - max(floor, max over live nodes of time+dur) equals the original
 *    re-finalized total at every such depth vector.
 */

#ifndef OMNISIM_OPT_LAYOUT_HH
#define OMNISIM_OPT_LAYOUT_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/csr.hh"
#include "opt/opt.hh"
#include "runtime/event.hh"
#include "support/types.hh"

namespace omnisim::opt
{

/** Sentinel: a FIFO access entry whose node was proven irrelevant. */
constexpr std::uint32_t kNoNode =
    std::numeric_limits<std::uint32_t>::max();

/** Sentinel in RunLayout::remap: original node has no live image. */
constexpr std::uint32_t kDropped =
    std::numeric_limits<std::uint32_t>::max();

/** Per-FIFO access map in layout ids. */
struct FifoLayout
{
    /** r-th committed read's layout node (1-based index r-1 here), or
     *  kNoNode when the read can never source a binding WAR edge and no
     *  kept constraint targets it. */
    std::vector<std::uint32_t> readNode;

    /** w-th committed write's layout node, or kNoNode likewise. */
    std::vector<std::uint32_t> writeNode;

    /** writeBlocking[w-1] == 1 when the w-th write was committed by a
     *  *blocking* write (the only kind that may carry a WAR in-edge);
     *  one flag per write entry, pruned or not. */
    std::vector<std::uint8_t> writeBlocking;

    /** Depth clamp: probing any depth >= writes+1 behaves identically
     *  to writes+1 (no WAR edge exists and every write-kind constraint
     *  index is <= writes+1), so the solver clamps here. */
    std::uint32_t cap = 1;

    /** Live blocking writes (delta-size prediction). */
    std::uint32_t blockingWrites = 0;
};

/** One kept recorded constraint, in recorded order. */
struct LayoutCons
{
    std::uint32_t origIndex = 0; ///< Index into the recorded list.
    std::uint32_t fifo = 0;
    EventKind kind = EventKind::FifoNbRead;
    std::uint32_t index = 0;     ///< 1-based access index queried.
    std::uint32_t node = 0;      ///< Query node, layout id.
    bool outcome = false;        ///< Recorded answer.
};

/** The compiled, possibly optimized image of one frozen run. */
struct RunLayout
{
    OptLevel level = OptLevel::O0;

    std::size_t numNodes = 0;
    std::vector<Cycles> seed; ///< Per-node minimum start times.
    /** Per-node duration, with module tail slack and the durations of
     *  collapsed successors folded in (max) — the total is always
     *  max(floor, max over nodes of time+dur). */
    std::vector<Cycles> dur;
    std::vector<CsrGraph::EdgeSpec> edges; ///< Structural, layout ids.

    // Per-node accessor map (WAR edges in O(1)), layout ids.
    std::vector<std::int32_t> accFifo;  ///< FIFO id, -1 for non-access.
    std::vector<std::uint32_t> accIdx;  ///< 1-based access index.
    std::vector<std::uint8_t> accWrite; ///< 1 == write entry.
    std::vector<std::uint8_t> accBlockingWrite;

    std::vector<FifoLayout> fifos;
    std::vector<LayoutCons> cons; ///< Kept, ascending origIndex.

    /** Constant lower bound on the total: the best time+dur any
     *  collapsed (depth-independent) node contributed. */
    Cycles floor = 0;

    /** Original node id -> layout id of its live image (itself, or the
     *  representative it was deduplicated into), or kDropped. Empty in a
     *  layout read back from a run file, which does not keep it: the
     *  solver never reads it. */
    std::vector<std::uint32_t> remap;

    CompileStats stats;

    /** Rebuild accFifo/accIdx/accWrite/accBlockingWrite, the per-FIFO
     *  caps and the blocking counts from fifos[]. Used by the pass
     *  manager and the run-file decoder. */
    void rebuildAccessMaps();
};

} // namespace omnisim::opt

#endif // OMNISIM_OPT_LAYOUT_HH
