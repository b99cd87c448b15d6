#include "graph/compiled_run.hh"

#include <algorithm>
#include <limits>

#include "core/omnisim.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "opt/pass_manager.hh"
#include "support/logging.hh"

namespace omnisim
{

namespace
{

/** Reversed copy of an edge list (for the in-edge CSR). */
std::vector<CsrGraph::EdgeSpec>
reverseEdges(const std::vector<CsrGraph::EdgeSpec> &edges)
{
    std::vector<CsrGraph::EdgeSpec> out;
    out.reserve(edges.size());
    for (const auto &e : edges)
        out.push_back({e.dst, e.src, e.weight});
    return out;
}

/** Adapter exposing the layout CSR with WAR(depths) overlaid, in the
 *  shape longestPath() expects. Depths must be pre-clamped. */
struct OverlayView
{
    const CsrGraph &fwd;
    const opt::RunLayout &lay;
    const std::vector<std::uint32_t> &depths;

    std::size_t numNodes() const { return fwd.numNodes(); }

    template <typename F>
    void
    forEachOut(std::uint64_t u, F &&f) const
    {
        fwd.forEachOut(u, f);
        const std::int32_t ff = lay.accFifo[u];
        if (ff >= 0 && !lay.accWrite[u]) {
            // u is the r-th read of FIFO ff: under depth s it releases
            // the (r + s)-th write (Table 2 row 2 / war.hh) — if that
            // write may wait at all (blocking only) and wasn't proven
            // irrelevant by the lattice prune.
            const opt::FifoLayout &fl =
                lay.fifos[static_cast<std::size_t>(ff)];
            const std::uint64_t w =
                static_cast<std::uint64_t>(lay.accIdx[u]) +
                depths[static_cast<std::size_t>(ff)];
            if (w <= fl.writeNode.size()) {
                const std::uint32_t dst =
                    fl.writeNode[static_cast<std::size_t>(w - 1)];
                if (dst != opt::kNoNode && lay.accBlockingWrite[dst])
                    f(dst, Cycles{1});
            }
        }
    }
};

/** Original-graph baseline WAR edge count (the engine's graphEdges
 *  stat keeps pre-pass semantics at every opt level). The per-write
 *  blocking flags cover pruned entries too, so the layout alone knows. */
std::size_t
countBaseWarEdges(const opt::RunLayout &lay,
                  const std::vector<std::uint32_t> &depths)
{
    std::size_t count = 0;
    for (std::size_t f = 0; f < lay.fifos.size(); ++f) {
        const opt::FifoLayout &fl = lay.fifos[f];
        const std::uint64_t s = depths[f];
        for (std::uint64_t w = s + 1; w <= fl.writeNode.size(); ++w)
            if (w - s <= fl.readNode.size() && fl.writeBlocking[w - 1])
                ++count;
    }
    return count;
}

/** Compile a finished run through the pass pipeline. */
opt::RunLayout
compileLayout(const std::vector<NodeInfo> &nodes,
              const std::vector<CsrGraph::EdgeSpec> &structural,
              const std::vector<Cycles> &seed,
              const std::vector<FifoTable> &tables,
              const std::vector<std::uint32_t> &baseDepths,
              const std::vector<QueryRecord> &constraints,
              const std::vector<std::uint64_t> &tailNode,
              const std::vector<Cycles> &tailSlack, opt::OptLevel level)
{
    omnisim_assert(seed.size() == nodes.size(),
                   "compiled run: seed/node mismatch");
    omnisim_assert(baseDepths.size() == tables.size(),
                   "compiled run: depth/table mismatch");
    opt::LayoutInput in;
    in.nodes = &nodes;
    in.edges = &structural;
    in.seed = &seed;
    in.tables = &tables;
    in.depths = &baseDepths;
    in.constraints = &constraints;
    in.tailNode = &tailNode;
    in.tailSlack = &tailSlack;
    return opt::PassManager(level).compile(in);
}

} // namespace

template <typename F>
void
CompiledRun::forEachOutOverlay(std::uint64_t u,
                               const std::vector<std::uint32_t> &depths,
                               F &&f) const
{
    OverlayView{fwd_, lay_, depths}.forEachOut(u, f);
}

CompiledRun::CompiledRun(const std::vector<NodeInfo> &nodes,
                         const std::vector<CsrGraph::EdgeSpec> &structural,
                         const std::vector<Cycles> &seed,
                         const std::vector<FifoTable> &tables,
                         const std::vector<std::uint32_t> &baseDepths,
                         const std::vector<QueryRecord> &constraints,
                         const std::vector<std::uint64_t> &tailNode,
                         const std::vector<Cycles> &tailSlack,
                         opt::OptLevel level)
    : CompiledRun(compileLayout(nodes, structural, seed, tables, baseDepths,
                                constraints, tailNode, tailSlack, level),
                  baseDepths)
{}

CompiledRun::CompiledRun(opt::RunLayout layout,
                         const std::vector<std::uint32_t> &baseDepths)
    : lay_(std::move(layout)), fwd_(0, {}), rev_(0, {})
{
    baseDepths_ = clampDepths(baseDepths);
    baseWarEdges_ = countBaseWarEdges(lay_, baseDepths_);
    freeze();
}

std::vector<std::uint32_t>
CompiledRun::clampDepths(const std::vector<std::uint32_t> &depths) const
{
    omnisim_assert(depths.size() == lay_.fifos.size(),
                   "depth vector size mismatch");
    std::vector<std::uint32_t> clamped(depths.size());
    for (std::size_t f = 0; f < depths.size(); ++f)
        clamped[f] = std::min(depths[f], lay_.fifos[f].cap);
    return clamped;
}

void
CompiledRun::setOrder(const std::vector<std::uint32_t> &order)
{
    rank_.assign(order.size(), 0);
    order_.assign(order.begin(), order.end());
    for (std::size_t i = 0; i < order.size(); ++i)
        rank_[order[i]] = static_cast<std::uint32_t>(i);
}

bool
CompiledRun::rankIsUniversal() const
{
    for (const opt::FifoLayout &fl : lay_.fifos) {
        // Write w may wait on any read r < w (the WAR edge at depth
        // w - r), so it must rank above every live read seen so far.
        std::uint32_t reach = 0; // 1 + highest live read rank so far
        for (std::size_t i = 0; i < fl.writeNode.size(); ++i) {
            if (i > 0 && i <= fl.readNode.size() &&
                fl.readNode[i - 1] != opt::kNoNode)
                reach = std::max(reach, rank_[fl.readNode[i - 1]] + 1);
            const std::uint32_t wn = fl.writeNode[i];
            if (wn != opt::kNoNode && lay_.accBlockingWrite[wn] &&
                rank_[wn] < reach)
                return false;
        }
    }
    return true;
}

void
CompiledRun::freeze()
{
    const std::size_t n = lay_.numNodes;
    fwd_ = CsrGraph(n, lay_.edges);
    rev_ = CsrGraph(n, reverseEdges(lay_.edges));

    indegStructural_.assign(n, 0);
    for (std::size_t u = 0; u < n; ++u)
        fwd_.forEachOut(u,
                        [&](std::uint64_t v, Cycles) {
                            ++indegStructural_[v];
                        });

    // Worklist priority: the topological order of the *maximally
    // constrained* overlay (every depth 1). When it ranks every live
    // blocking write above all earlier live reads of its FIFO it orders
    // the overlay at every probe-able depth vector (universal), and the
    // baseline solve is one in-order sweep. Otherwise the baseline gets
    // its own Kahn pass, and the rank falls back to the baseline order
    // when depth-1 itself is infeasible (cyclic) — then shallowing
    // probes may re-queue across the order, which still converges on a
    // DAG and is bounded by the pop budget. Either way correctness is
    // unaffected: rank only schedules the delta sweep.
    std::vector<std::uint32_t> order;
    const std::vector<std::uint32_t> ones(lay_.fifos.size(), 1);
    const bool tight = relaxFull(ones, baseTime_, &order);
    if (tight) {
        setOrder(order);
        universalOrder_ = rankIsUniversal();
    }
    OMNISIM_LOG_DEBUG("relax.freeze", "nodes=%llu universal=%d",
                      static_cast<unsigned long long>(n),
                      universalOrder_ ? 1 : 0);
    if (universalOrder_) {
        baselineAcyclic_ = true;
        relaxInOrder(baseDepths_, baseTime_);
    } else {
        baselineAcyclic_ =
            relaxFull(baseDepths_, baseTime_, tight ? nullptr : &order);
        if (!baselineAcyclic_)
            return; // engine reports a deadlock; nothing else is needed
        if (!tight)
            setOrder(order);
    }

    baseTotal_ = lay_.floor;
    for (std::size_t v = 0; v < n; ++v)
        baseTotal_ = std::max(baseTotal_, baseTime_[v] + lay_.dur[v]);

    byContrib_.resize(n);
    for (std::size_t v = 0; v < n; ++v)
        byContrib_[v] = v;
    std::sort(byContrib_.begin(), byContrib_.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                  const Cycles ca = baseTime_[a] + lay_.dur[a];
                  const Cycles cb = baseTime_[b] + lay_.dur[b];
                  if (ca != cb)
                      return ca > cb;
                  return a < b;
              });

    // Constraint index: per-node reference lists (query node + baseline
    // target node), per-FIFO write-kind lists, and the baseline-divergent
    // set (constraints whose recomputed outcome already differs from the
    // live one — possible under lazy write stalls).
    const std::size_t nc = lay_.cons.size();
    writeConsByFifo_.assign(lay_.fifos.size(), {});
    std::vector<std::uint32_t> counts(n + 1, 0);
    auto forEachRefNode = [&](std::size_t i, auto &&visit) {
        const opt::LayoutCons &c = lay_.cons[i];
        visit(c.node);
        const opt::FifoLayout &fl = lay_.fifos[c.fifo];
        switch (c.kind) {
          case EventKind::FifoNbRead:
          case EventKind::FifoCanRead:
            if (c.index <= fl.writeNode.size() &&
                fl.writeNode[c.index - 1] != opt::kNoNode)
                visit(fl.writeNode[c.index - 1]);
            break;
          case EventKind::FifoNbWrite:
          case EventKind::FifoCanWrite: {
            const std::uint32_t s = baseDepths_[c.fifo];
            if (c.index > s && c.index - s <= fl.readNode.size() &&
                fl.readNode[c.index - s - 1] != opt::kNoNode)
                visit(fl.readNode[c.index - s - 1]);
            break;
          }
          default:
            omnisim_panic("bad constraint kind");
        }
    };
    for (std::size_t i = 0; i < nc; ++i) {
        const opt::LayoutCons &c = lay_.cons[i];
        if (c.kind == EventKind::FifoNbWrite ||
            c.kind == EventKind::FifoCanWrite)
            writeConsByFifo_[c.fifo].push_back(
                static_cast<std::uint32_t>(i));
        forEachRefNode(i, [&](std::uint64_t v) { ++counts[v + 1]; });
        if (evalConstraint(i, baseTime_, baseDepths_) != c.outcome)
            baselineDivergent_.push_back(static_cast<std::uint32_t>(i));
    }
    for (std::size_t v = 1; v <= n; ++v)
        counts[v] += counts[v - 1];
    consOffsets_ = counts;
    consIds_.resize(counts[n]);
    std::vector<std::uint32_t> cursor(counts.begin(), counts.end() - 1);
    for (std::size_t i = 0; i < nc; ++i)
        forEachRefNode(i, [&](std::uint64_t v) {
            consIds_[cursor[v]++] = static_cast<std::uint32_t>(i);
        });
}

bool
CompiledRun::relaxFull(const std::vector<std::uint32_t> &depths,
                       std::vector<Cycles> &time,
                       std::vector<std::uint32_t> *order) const
{
    const std::size_t n = lay_.numNodes;
    const OverlayView view{fwd_, lay_, depths};

    // Kahn over the overlay. The structural indegrees are precomputed;
    // only the depth-dependent WAR contributions are added per call, so
    // the full pass never re-walks the edge list just to count.
    time = lay_.seed;
    std::vector<std::uint32_t> indeg = indegStructural_;
    for (std::size_t f = 0; f < lay_.fifos.size(); ++f) {
        const opt::FifoLayout &fl = lay_.fifos[f];
        const std::uint64_t s = depths[f];
        for (std::uint64_t w = s + 1; w <= fl.writeNode.size(); ++w) {
            // Must mirror OverlayView emission exactly: a pruned read
            // *or* write endpoint means no edge, hence no indegree.
            if (w - s > fl.readNode.size() ||
                fl.readNode[static_cast<std::size_t>(w - s - 1)] ==
                    opt::kNoNode)
                continue;
            const std::uint32_t v =
                fl.writeNode[static_cast<std::size_t>(w - 1)];
            if (v != opt::kNoNode && lay_.accBlockingWrite[v])
                ++indeg[v];
        }
    }
    if (order) {
        order->clear();
        order->reserve(n);
    }
    std::vector<std::uint64_t> ready;
    ready.reserve(64);
    for (std::size_t u = 0; u < n; ++u)
        if (indeg[u] == 0)
            ready.push_back(u);
    std::size_t processed = 0;
    while (!ready.empty()) {
        const std::uint64_t u = ready.back();
        ready.pop_back();
        ++processed;
        if (order)
            order->push_back(static_cast<std::uint32_t>(u));
        view.forEachOut(u, [&](std::uint64_t v, Cycles w) {
            if (time[u] + w > time[v])
                time[v] = time[u] + w;
            if (--indeg[v] == 0)
                ready.push_back(v);
        });
    }
    return processed == n;
}

Cycles
CompiledRun::relaxInOrder(const std::vector<std::uint32_t> &depths,
                          std::vector<Cycles> &time, std::size_t from) const
{
    time.resize(lay_.numNodes);
    Cycles end = 0;
    for (std::size_t i = 0; i < from; ++i)
        end = std::max(end, time[order_[i]] + lay_.dur[order_[i]]);
    for (std::size_t i = from; i < order_.size(); ++i) {
        const std::uint64_t v = order_[i];
        const Cycles t = recompute(v, time, depths);
        time[v] = t;
        end = std::max(end, t + lay_.dur[v]);
    }
    return end;
}

Cycles
CompiledRun::recompute(std::uint64_t v, const std::vector<Cycles> &cur,
                       const std::vector<std::uint32_t> &depths) const
{
    Cycles t = lay_.seed[v];
    rev_.forEachOut(v, [&](std::uint64_t src, Cycles w) {
        t = std::max(t, cur[src] + w);
    });
    if (lay_.accFifo[v] >= 0 && lay_.accBlockingWrite[v]) {
        // v is the w-th *blocking* write of its FIFO: under depth s it
        // waits for the (w - s)-th read.
        const auto f = static_cast<std::size_t>(lay_.accFifo[v]);
        const opt::FifoLayout &fl = lay_.fifos[f];
        const std::uint32_t w = lay_.accIdx[v];
        const std::uint32_t s = depths[f];
        if (w > s && w - s <= fl.readNode.size()) {
            const std::uint32_t rn = fl.readNode[w - s - 1];
            // A pruned read entry can only source WAR edges the
            // lattice analysis proved can never bind.
            if (rn != opt::kNoNode)
                t = std::max(t, cur[rn] + 1);
        }
    }
    return t;
}

std::size_t
CompiledRun::readRankBound(const opt::FifoLayout &fl, std::size_t k) const
{
    // The universal certificate ranks write w above every live read
    // r < w, so the last live read at or below k bounds writes past k.
    std::size_t r = std::min(k, fl.readNode.size());
    while (r > 0 && fl.readNode[r - 1] == opt::kNoNode)
        --r;
    return r > 0 ? rank_[fl.readNode[r - 1]] + 1 : 0;
}

std::size_t
CompiledRun::collectSeeds(const std::vector<std::uint32_t> &depths,
                          const std::vector<std::size_t> &changedFifos,
                          std::size_t cap, Scratch &s) const
{
    std::size_t from = lay_.numNodes;
    for (std::size_t k = 0; k < changedFifos.size(); ++k) {
        const opt::FifoLayout &fl = lay_.fifos[changedFifos[k]];
        const std::uint32_t was = baseDepths_[changedFifos[k]];
        const std::uint32_t now = depths[changedFifos[k]];
        const std::size_t first = s.seeds.size();
        // The scan touches a few words per write; raw pointers keep the
        // seed pushes from forcing reloads of the layout's vectors.
        const std::uint32_t *writes = fl.writeNode.data();
        const std::uint8_t *blocking = fl.writeBlocking.data();
        const std::uint32_t *reads = fl.readNode.data();
        const std::size_t numWrites = fl.writeNode.size();
        const std::size_t numReads = fl.readNode.size();
        const Cycles *base = baseTime_.data();
        // Write w's WAR term under depth d: one past the (w - d)-th read,
        // or 0 (never binding) when there is no such edge. Times start
        // at 0, so a real term is at least 1.
        const auto warTerm = [&](std::size_t w, std::uint32_t d) -> Cycles {
            if (w <= d || w - d > numReads)
                return 0;
            const std::uint32_t rn = reads[w - d - 1];
            return rn == opt::kNoNode ? 0 : base[rn] + 1;
        };
        // Writes at or below both depths have a WAR in-edge under
        // neither; NB and pruned writes never have one.
        for (std::size_t w = std::min(was, now) + std::size_t{1};
             w <= numWrites; ++w) {
            const std::uint32_t v = writes[w - 1];
            if (v == opt::kNoNode || !blocking[w - 1])
                continue;
            // The baseline time is the max of the other in-edges and the
            // old WAR term. A new term above it moves the write; one at
            // or below it moves the write only if the old term was the
            // binding in-edge and no other in-edge ties it.
            const Cycles next = warTerm(w, now);
            if (next <= base[v] &&
                (next == base[v] || warTerm(w, was) != base[v] ||
                 recompute(v, baseTime_, depths) == base[v]))
                continue;
            s.seeds.push_back(v);
            if (s.seeds.size() > cap)
                break;
        }
        // This FIFO's seeds are its writes from its first seed on. Kept
        // out of the scan above, whose codegen the probes without seeds
        // pay for.
        if (s.seeds.size() > first) {
            const std::uint32_t w = lay_.accIdx[s.seeds[first]];
            from = std::min(from, readRankBound(fl, w - 1));
        }
        if (s.seeds.size() > cap) {
            // Over the cap: bound the FIFOs not looked at as well.
            for (std::size_t j = k + 1; j < changedFifos.size(); ++j) {
                const std::size_t f = changedFifos[j];
                from = std::min(from,
                                readRankBound(lay_.fifos[f],
                                              std::min(baseDepths_[f],
                                                       depths[f])));
            }
            break;
        }
    }
    return from;
}

CompiledRun::Attempt::Path
CompiledRun::relaxDelta(const std::vector<std::uint32_t> &depths,
                        Scratch &s, std::size_t cap,
                        std::size_t &recomputed, std::size_t &resume) const
{
    const std::size_t n = lay_.numNodes;
    std::vector<Cycles> &cur = s.time;
    std::vector<std::uint8_t> &pending = s.pending;

    // Pending markers are indexed by *rank*, so the sweep scans them
    // sequentially between the lowest and the highest pending rank.
    std::size_t lo = n, hi = 0;
    for (const std::uint64_t v : s.seeds) {
        const std::size_t p = rank_[v];
        pending[p] = 1;
        lo = std::min(lo, p);
        hi = std::max(hi, p);
    }
    std::size_t lowest = lo; // lowest rank ever marked
    // Handing over to the full pass can leave flags set from the lowest
    // rank marked up to hi: clear them, as a converged sweep does.
    const auto handOver = [&](std::size_t from, Attempt::Path path) {
        std::fill(pending.begin() + static_cast<std::ptrdiff_t>(from),
                  pending.begin() + static_cast<std::ptrdiff_t>(hi) + 1,
                  std::uint8_t{0});
        return path;
    };

    // Sweep the cached topological order, recomputing pending nodes
    // exactly and marking out-neighbours pending on change. When the
    // cached rank orders the probe's overlay (always, under a universal
    // order — see freeze()), one sweep reaches the unique longest-path
    // fixed point; otherwise a WAR edge pointing across the order or a
    // genuine timing cycle leaves a pending node *behind* the sweep
    // position, handled by bounded re-sweeps — chaotic re-evaluation
    // still converges on any DAG — before handing the verdict to the
    // full Kahn pass (which is what proves a cycle).
    for (int sweep = 0; sweep < 4; ++sweep) {
        std::size_t nextMin = n;
        for (std::size_t i = lo; i <= hi; ++i) {
            if (!pending[i])
                continue;
            pending[i] = 0;
            ++recomputed;
            const std::uint64_t v = order_[i];
            const Cycles t = recompute(v, cur, depths);
            if (t == cur[v])
                continue;
            cur[v] = t;
            if (!s.changed[v]) {
                s.changed[v] = 1;
                s.changedNodes.push_back(v);
                // Every rank up to i already holds its time.
                if (s.changedNodes.size() > cap) {
                    resume = i + 1;
                    return handOver(std::min(lowest, nextMin),
                                    Attempt::Path::ConeCap);
                }
            }
            forEachOutOverlay(v, depths, [&](std::uint64_t dst, Cycles) {
                const std::size_t p = rank_[dst];
                if (pending[p])
                    return;
                pending[p] = 1;
                if (p <= i)
                    nextMin = std::min(nextMin, p);
                else
                    hi = std::max(hi, p);
            });
        }
        if (nextMin == n)
            return Attempt::Path::Delta; // every flag cleared again
        lo = nextMin;
        lowest = std::min(lowest, lo);
    }
    resume = 0;
    return handOver(lowest, Attempt::Path::Resweep);
}

bool
CompiledRun::evalConstraint(std::size_t i, const std::vector<Cycles> &time,
                            const std::vector<std::uint32_t> &depths) const
{
    const opt::LayoutCons &c = lay_.cons[i];
    const opt::FifoLayout &fl = lay_.fifos[c.fifo];
    const Cycles at = time[c.node];
    switch (c.kind) {
      case EventKind::FifoNbRead:
      case EventKind::FifoCanRead:
        // Kept read-kind queries always have their target write entry
        // pinned (lattice-prune invariant, identity at -O0).
        return fl.writeNode.size() >= c.index &&
               time[fl.writeNode[c.index - 1]] < at;
      case EventKind::FifoNbWrite:
      case EventKind::FifoCanWrite: {
        const std::uint32_t s = depths[c.fifo];
        if (c.index <= s)
            return true;
        return fl.readNode.size() >= c.index - s &&
               time[fl.readNode[c.index - s - 1]] < at;
      }
      default:
        omnisim_panic("bad constraint kind");
    }
}

void
CompiledRun::finishWithTimes(const std::vector<Cycles> &time,
                             const std::vector<std::uint32_t> &depths,
                             Cycles end, Attempt &a) const
{
    a.relaxedNodes = time.size();
    for (std::size_t i = 0; i < lay_.cons.size(); ++i) {
        const bool now = evalConstraint(i, time, depths);
        if (now != lay_.cons[i].outcome) {
            a.status = Attempt::Status::Diverged;
            a.constraintIndex = lay_.cons[i].origIndex;
            a.nowAnswer = now;
            return;
        }
    }
    a.status = Attempt::Status::Reused;
    a.totalCycles = std::max(lay_.floor, end);
}

void
CompiledRun::finishDelta(const std::vector<std::uint32_t> &depths,
                         const std::vector<std::size_t> &changedFifos,
                         const Scratch &s, Attempt &a) const
{
    // Every other constraint reads only unmoved times at its recorded
    // target, so it still holds. The first divergence in recorded order
    // is the lowest divergent index over these lists, so none of them
    // needs merging: the sorted ones stop at their first divergence, and
    // any list skips indices above the best found so far.
    a.relaxedNodes = s.changedNodes.size();
    std::uint32_t first = std::numeric_limits<std::uint32_t>::max();
    bool firstAnswer = false;
    const auto check = [&](std::uint32_t i) {
        if (i >= first)
            return true;
        const bool now = evalConstraint(i, s.time, depths);
        if (now == lay_.cons[i].outcome)
            return false;
        first = i;
        firstAnswer = now;
        return true;
    };
    const auto checkSorted = [&](const std::vector<std::uint32_t> &ids) {
        for (const std::uint32_t i : ids)
            if (check(i))
                break;
    };
    checkSorted(baselineDivergent_);
    for (const std::size_t f : changedFifos)
        checkSorted(writeConsByFifo_[f]);
    for (const std::uint64_t v : s.changedNodes)
        for (std::uint32_t k = consOffsets_[v]; k < consOffsets_[v + 1]; ++k)
            check(consIds_[k]);
    if (first != std::numeric_limits<std::uint32_t>::max()) {
        a.status = Attempt::Status::Diverged;
        a.constraintIndex = lay_.cons[first].origIndex;
        a.nowAnswer = firstAnswer;
        return;
    }

    a.status = Attempt::Status::Reused;
    // Total latency: the collapsed-node floor, the best unchanged
    // baseline contribution (first byContrib_ entry outside the changed
    // set — tail slack is folded into dur), improved by the changed
    // nodes' new contributions.
    Cycles total = lay_.floor;
    for (const std::uint64_t v : byContrib_) {
        if (!s.changed[v]) {
            total = std::max(total, baseTime_[v] + lay_.dur[v]);
            break;
        }
    }
    for (const std::uint64_t v : s.changedNodes)
        total = std::max(total, s.time[v] + lay_.dur[v]);
    a.totalCycles = total;
}

std::unique_ptr<CompiledRun::Scratch>
CompiledRun::takeScratch() const
{
    {
        sync::LockGuard lock(scratchMu_);
        if (!scratchFree_.empty()) {
            std::unique_ptr<Scratch> s = std::move(scratchFree_.back());
            scratchFree_.pop_back();
            return s;
        }
    }
    auto s = std::make_unique<Scratch>();
    s->time = baseTime_;
    s->changed.assign(lay_.numNodes, 0);
    s->pending.assign(lay_.numNodes, 0);
    return s;
}

void
CompiledRun::returnScratch(std::unique_ptr<Scratch> s) const
{
    for (const std::uint64_t v : s->changedNodes) {
        s->time[v] = baseTime_[v];
        s->changed[v] = 0;
    }
    s->seeds.clear();
    s->changedNodes.clear();
    sync::LockGuard lock(scratchMu_);
    scratchFree_.push_back(std::move(s));
}

CompiledRun::Attempt
CompiledRun::attempt(const std::vector<std::uint32_t> &depths) const
{
    omnisim_assert(baselineAcyclic_,
                   "resimulate against an infeasible baseline");

    // Clamp into the finite lattice first: depths beyond writes+1 are
    // provably indistinguishable (see the header comment), and the -O1
    // analyses rely on probes staying inside the lattice.
    const std::vector<std::uint32_t> clamped = clampDepths(depths);

    std::vector<std::size_t> changedFifos;
    for (std::size_t f = 0; f < clamped.size(); ++f)
        if (clamped[f] != baseDepths_[f])
            changedFifos.push_back(f);

    Attempt a;
    if (changedFifos.empty()) {
        // Times are the baseline times; only a lazy-mode repair can
        // diverge, and those constraints are precomputed.
        if (!baselineDivergent_.empty()) {
            const opt::LayoutCons &c =
                lay_.cons[baselineDivergent_.front()];
            a.status = Attempt::Status::Diverged;
            a.constraintIndex = c.origIndex;
            a.nowAnswer = !c.outcome;
            return a;
        }
        a.status = Attempt::Status::Reused;
        a.totalCycles = baseTotal_;
        return a;
    }

    // The cone cap: past it one streaming pass beats the worklist.
    const std::size_t n = lay_.numNodes;
    const std::size_t cap = n / 8;
    std::unique_ptr<Scratch> s = takeScratch();
    std::size_t resume = collectSeeds(clamped, changedFifos, cap, *s);
    a.seeds = s->seeds.size();
    if (s->seeds.empty()) {
        a.path = Attempt::Path::NoSeeds;
    } else if (s->seeds.size() > cap) {
        a.path = Attempt::Path::SeedCount;
    } else {
        a.path = relaxDelta(clamped, *s, cap, a.recomputed, resume);
    }

    if (a.viaDelta()) {
        finishDelta(clamped, changedFifos, *s, a);
    } else if (universalOrder_) {
        // The delta is too large: one exact full sweep decides. A
        // universal order is topological for every clamped probe, so the
        // in-order sweep needs no feasibility verdict. Every rank below
        // the lowest seed, or below where the delta sweep stopped,
        // already holds its time in s->time; a prefix longer than the
        // cap is worth keeping there, at the price of restoring s->time
        // after. Otherwise the sweep fills s->full from rank 0, which
        // needs no setup and no restore: every in-edge is ranked earlier,
        // so each time is written before it is read.
        const bool inPlace = resume > cap;
        const std::size_t from = inPlace ? resume : 0;
        std::vector<Cycles> &time = inPlace ? s->time : s->full;
        const Cycles end = relaxInOrder(clamped, time, from);
        a.recomputed += n - from;
        finishWithTimes(time, clamped, end, a);
        if (inPlace)
            std::copy(baseTime_.begin(), baseTime_.end(), s->time.begin());
    } else {
        // Without the certificate a Kahn pass over fresh times decides,
        // and it is also what proves a timing cycle (the only way the
        // re-sweep budget runs out on a DAG is a large delta).
        std::vector<Cycles> time;
        a.recomputed += n;
        if (relaxFull(clamped, time, nullptr)) {
            Cycles end = 0;
            for (std::size_t v = 0; v < n; ++v)
                end = std::max(end, time[v] + lay_.dur[v]);
            finishWithTimes(time, clamped, end, a);
        } else {
            a.status = Attempt::Status::Infeasible;
        }
    }
    returnScratch(std::move(s));
    return a;
}

CompiledRun::Attempt
CompiledRun::resimulate(const std::vector<std::uint32_t> &depths) const
{
    static obs::Counter &mAttempts =
        obs::Registry::global().counter("engine.resim.attempts");
    static obs::Counter &mDelta =
        obs::Registry::global().counter("engine.resim.delta");
    static obs::Counter &mFullRelax =
        obs::Registry::global().counter("engine.resim.full_relax");
    static obs::Counter &mDiverged =
        obs::Registry::global().counter("engine.resim.diverged");
    static obs::Counter &mInfeasible =
        obs::Registry::global().counter("engine.resim.infeasible");
    static obs::Counter &mReused =
        obs::Registry::global().counter("engine.resim.reused");
    static obs::Histogram &mConeNodes =
        obs::Registry::global().histogram("engine.resim.cone_nodes");
    static obs::Histogram &mSeeds =
        obs::Registry::global().histogram("engine.resim.seeds");
    static obs::Histogram &mResimUs =
        obs::Registry::global().histogram("engine.resim.us");
    // Hot span: fires per incremental request; the flight mirror keeps
    // serve.request / dse.evaluate as the crash-stack context instead.
    OMNISIM_SPAN_HOT("omnisim.resimulate");
    obs::ScopedLatencyUs resimTimer(mResimUs);

    const Attempt a = attempt(depths);
    mAttempts.add();
    if (a.viaDelta())
        mDelta.add();
    else
        mFullRelax.add(); // fell back to a full relaxation pass
    mConeNodes.record(a.relaxedNodes);
    mSeeds.record(a.seeds);
    switch (a.status) {
      case Attempt::Status::Infeasible:
        mInfeasible.add();
        break;
      case Attempt::Status::Diverged:
        mDiverged.add();
        break;
      case Attempt::Status::Reused:
        mReused.add();
        break;
    }
    return a;
}

} // namespace omnisim
