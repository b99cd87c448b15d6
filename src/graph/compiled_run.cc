#include "graph/compiled_run.hh"

#include <algorithm>

#include "core/omnisim.hh"
#include "obs/log.hh"
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

void
CompiledRun::relaxInOrder(const std::vector<std::uint32_t> &depths,
                          std::vector<Cycles> &time) const
{
    time.resize(lay_.numNodes);
    for (const std::uint64_t v : order_)
        time[v] = recompute(v, time, depths);
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

bool
CompiledRun::relaxDelta(const std::vector<std::uint32_t> &depths,
                        const std::vector<std::size_t> &changedFifos,
                        std::vector<Cycles> &cur,
                        std::vector<std::uint8_t> &changedFlag,
                        std::vector<std::uint64_t> &changedNodes) const
{
    const std::size_t n = lay_.numNodes;

    // A FIFO shrinking well below its recorded depth newly constrains
    // nearly every write it carried; the resulting cone is routinely a
    // third of the graph, and per-node recomputation (random-access
    // in-edge scans) then loses to one streaming Kahn pass. Predict
    // that case from the binding-write count and skip straight to the
    // full pass.
    std::size_t shrinkBound = 0;
    for (const std::size_t f : changedFifos) {
        const opt::FifoLayout &fl = lay_.fifos[f];
        if (depths[f] < baseDepths_[f] &&
            fl.writeNode.size() > depths[f])
            shrinkBound +=
                std::min<std::size_t>(fl.blockingWrites,
                                      fl.writeNode.size() - depths[f]);
    }
    if (shrinkBound > n / 16)
        return false;

    // Seed: every write whose WAR in-edge is added, removed, or
    // re-sourced by a changed depth. Beyond half the graph the full
    // pass is no slower — bail before paying for the scratch.
    std::vector<std::uint64_t> seeds;
    for (const std::size_t f : changedFifos) {
        const opt::FifoLayout &fl = lay_.fifos[f];
        const std::uint32_t lo = std::min(baseDepths_[f], depths[f]);
        for (std::uint64_t w = static_cast<std::uint64_t>(lo) + 1;
             w <= fl.writeNode.size(); ++w) {
            const std::uint32_t v =
                fl.writeNode[static_cast<std::size_t>(w - 1)];
            if (v == opt::kNoNode || !lay_.accBlockingWrite[v])
                continue; // NB or pruned writes never gain an edge
            seeds.push_back(v);
            if (seeds.size() > n / 2)
                return false;
        }
    }

    cur = baseTime_;
    changedFlag.assign(n, 0);
    // Pending markers are indexed by *rank* so the sweep below scans
    // them sequentially — the cache-friendliness is what lets a probe
    // whose cone is a third of the graph still beat a full pass.
    std::vector<std::uint8_t> pendingAt(n, 0);
    std::size_t minPos = n;
    for (const std::uint64_t v : seeds) {
        const std::size_t p = rank_[v];
        if (!pendingAt[p]) {
            pendingAt[p] = 1;
            minPos = std::min(minPos, p);
        }
    }

    // Sweep the cached topological order from the first pending node,
    // recomputing pending nodes exactly and marking out-neighbours
    // pending on change. When the cached rank orders the probe's
    // overlay (always, under a universal order — see freeze()), one
    // sweep reaches the unique longest-path fixed point; otherwise a WAR
    // edge pointing across the order or a genuine timing cycle leaves a
    // pending node *behind* the sweep position, handled by bounded
    // re-sweeps — chaotic re-evaluation still converges on any DAG —
    // before handing the verdict to the full Kahn pass (which is what
    // proves a cycle).
    for (int sweep = 0; sweep < 4; ++sweep) {
        std::size_t nextMin = n;
        for (std::size_t i = minPos; i < n; ++i) {
            if (!pendingAt[i])
                continue;
            pendingAt[i] = 0;
            const std::uint64_t v = order_[i];
            const Cycles t = recompute(v, cur, depths);
            if (t == cur[v])
                continue;
            cur[v] = t;
            if (!changedFlag[v]) {
                changedFlag[v] = 1;
                changedNodes.push_back(v);
                // A cone this wide means the prediction above missed
                // (e.g. a deepened FIFO whose WAR edges all bound);
                // cut the loss and let the streaming pass finish.
                if (changedNodes.size() > n / 8)
                    return false;
            }
            forEachOutOverlay(v, depths, [&](std::uint64_t dst, Cycles) {
                const std::size_t p = rank_[dst];
                if (!pendingAt[p]) {
                    pendingAt[p] = 1;
                    if (p <= i)
                        nextMin = std::min(nextMin, p);
                }
            });
        }
        if (nextMin == n)
            return true;
        minPos = nextMin;
    }
    return false;
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

CompiledRun::Attempt
CompiledRun::finishWithTimes(const std::vector<Cycles> &time,
                             const std::vector<std::uint32_t> &depths) const
{
    Attempt a;
    a.relaxedNodes = time.size();
    for (std::size_t i = 0; i < lay_.cons.size(); ++i) {
        const bool now = evalConstraint(i, time, depths);
        if (now != lay_.cons[i].outcome) {
            a.status = Attempt::Status::Diverged;
            a.constraintIndex = lay_.cons[i].origIndex;
            a.nowAnswer = now;
            return a;
        }
    }
    a.status = Attempt::Status::Reused;
    Cycles total = lay_.floor;
    for (std::size_t v = 0; v < time.size(); ++v)
        total = std::max(total, time[v] + lay_.dur[v]);
    a.totalCycles = total;
    return a;
}

CompiledRun::Attempt
CompiledRun::resimulate(const std::vector<std::uint32_t> &depths) const
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
        a.viaDelta = true;
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

    std::vector<Cycles> cur;
    std::vector<std::uint8_t> changedFlag;
    std::vector<std::uint64_t> changedNodes;
    if (!relaxDelta(clamped, changedFifos, cur, changedFlag,
                    changedNodes)) {
        // Delta too large or the worklist hit its budget (the only way
        // a timing cycle manifests): one exact full pass decides. A
        // universal order is topological for every clamped probe, so
        // the in-order sweep needs no feasibility verdict.
        std::vector<Cycles> time;
        if (universalOrder_) {
            relaxInOrder(clamped, time);
        } else if (!relaxFull(clamped, time, nullptr)) {
            a.status = Attempt::Status::Infeasible;
            return a;
        }
        return finishWithTimes(time, clamped);
    }

    // Affected constraints only: those referencing a node whose time
    // moved, every write-kind constraint of a changed FIFO (its target
    // read index moved with the depth), and the baseline-divergent set.
    // Checked in recorded order so the first reported divergence is
    // bit-identical to the full pass.
    a.viaDelta = true;
    a.relaxedNodes = changedNodes.size();
    std::vector<std::uint32_t> inds(baselineDivergent_);
    for (const std::size_t f : changedFifos)
        inds.insert(inds.end(), writeConsByFifo_[f].begin(),
                    writeConsByFifo_[f].end());
    for (const std::uint64_t v : changedNodes)
        inds.insert(inds.end(), consIds_.begin() + consOffsets_[v],
                    consIds_.begin() + consOffsets_[v + 1]);
    std::sort(inds.begin(), inds.end());
    inds.erase(std::unique(inds.begin(), inds.end()), inds.end());
    for (const std::uint32_t i : inds) {
        const bool now = evalConstraint(i, cur, clamped);
        if (now != lay_.cons[i].outcome) {
            a.status = Attempt::Status::Diverged;
            a.constraintIndex = lay_.cons[i].origIndex;
            a.nowAnswer = now;
            return a;
        }
    }

    a.status = Attempt::Status::Reused;
    // Total latency: the collapsed-node floor, the best unchanged
    // baseline contribution (first byContrib_ entry outside the changed
    // set — tail slack is folded into dur), improved by the changed
    // nodes' new contributions.
    Cycles total = lay_.floor;
    for (const std::uint64_t v : byContrib_) {
        if (!changedFlag[v]) {
            total = std::max(total, baseTime_[v] + lay_.dur[v]);
            break;
        }
    }
    for (const std::uint64_t v : changedNodes)
        total = std::max(total, cur[v] + lay_.dur[v]);
    a.totalCycles = total;
    return a;
}

} // namespace omnisim
