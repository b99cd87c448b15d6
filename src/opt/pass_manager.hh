/**
 * @file
 * PassManager: the graph compilation pipeline that runs between a
 * finished trace and CompiledRun.
 *
 * At -O1 three passes run, in this order:
 *
 *  1. "lattice-prune" — interval analysis over the *entire* candidate
 *     depth lattice. For every node it computes a lower bound LB (the
 *     structural-only longest path: WAR edges only ever delay nodes)
 *     and an upper bound UB (longest path over the union WAR overlay,
 *     where every blocking write is gated behind *all* earlier reads of
 *     its FIFO — a superset of the overlay at any depth). Any WAR edge
 *     with UB[read]+1 <= LB[write] can never bind at any depth, so the
 *     endpoints need not stay addressable; any recorded constraint whose
 *     outcome is provably constant across the lattice (and equal to the
 *     recorded outcome) can never flip and is dropped. If the union
 *     overlay is cyclic the analysis conservatively keeps everything.
 *  2. "chain-collapse" — unpinned nodes with in/out degree <= 1 are
 *     folded away: pass-through nodes become weighted interval edges,
 *     sources push their start into successors' seeds, sinks fold their
 *     completion into predecessors' durations, and isolated nodes fold
 *     into the constant floor. Exact for both node times of survivors
 *     and the re-finalized total.
 *  3. "dedup" — structurally identical siblings (equal seed and equal
 *     canonical in-edge set) among unpinned nodes are merged via a
 *     remap table; equal in-edges imply equal times at every depth, so
 *     the merge is exact. Runs to a fixed point so identical
 *     loop-iteration subgraphs collapse level by level.
 *
 * Pinned (never removed): module tail anchors, kept FIFO access
 * entries' nodes, and every node a kept constraint references.
 */

#ifndef OMNISIM_OPT_PASS_MANAGER_HH
#define OMNISIM_OPT_PASS_MANAGER_HH

#include <cstdint>
#include <vector>

#include "graph/csr.hh"
#include "graph/simgraph.hh"
#include "opt/layout.hh"
#include "opt/opt.hh"
#include "support/types.hh"

namespace omnisim
{
struct QueryRecord; // core/omnisim.hh
class FifoTable;    // runtime/fifo_table.hh
} // namespace omnisim

namespace omnisim::opt
{

/** Borrowed views of a finished run (all must outlive compile()). */
struct LayoutInput
{
    const std::vector<NodeInfo> *nodes = nullptr;
    const std::vector<CsrGraph::EdgeSpec> *edges = nullptr;
    const std::vector<Cycles> *seed = nullptr;
    const std::vector<FifoTable> *tables = nullptr;
    const std::vector<std::uint32_t> *depths = nullptr;
    const std::vector<QueryRecord> *constraints = nullptr;
    const std::vector<std::uint64_t> *tailNode = nullptr;
    const std::vector<Cycles> *tailSlack = nullptr;
};

class PassManager
{
  public:
    explicit PassManager(OptLevel level) : level_(level) {}

    /** Names of the passes this level runs, in order. */
    std::vector<const char *> passNames() const;

    /** Compile a finished run into a RunLayout. Deterministic: the same
     *  input always produces the same layout byte for byte. */
    RunLayout compile(const LayoutInput &in) const;

  private:
    OptLevel level_;
};

} // namespace omnisim::opt

#endif // OMNISIM_OPT_PASS_MANAGER_HH
