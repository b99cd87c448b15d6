#include "opt/pass_manager.hh"

#include <algorithm>

#include "core/omnisim.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "opt/build.hh"
#include "opt/verify.hh"
#include "runtime/fifo_table.hh"
#include "support/logging.hh"

namespace omnisim::opt
{

const char *
optLevelName(OptLevel level)
{
    return level == OptLevel::O1 ? "O1" : "O0";
}

void
CompileStats::accumulate(const CompileStats &other)
{
    origNodes += other.origNodes;
    origEdges += other.origEdges;
    optNodes += other.optNodes;
    optEdges += other.optEdges;
    origConstraints += other.origConstraints;
    keptConstraints += other.keptConstraints;
    for (const PassStats &ps : other.passes) {
        auto it = std::find_if(passes.begin(), passes.end(),
                               [&](const PassStats &mine) {
                                   return mine.pass == ps.pass;
                               });
        if (it == passes.end()) {
            passes.push_back(ps);
        } else {
            it->nodesEliminated += ps.nodesEliminated;
            it->edgesEliminated += ps.edgesEliminated;
            it->constraintsEliminated += ps.constraintsEliminated;
        }
    }
}

void
RunLayout::rebuildAccessMaps()
{
    accFifo.assign(numNodes, -1);
    accIdx.assign(numNodes, 0);
    accWrite.assign(numNodes, 0);
    accBlockingWrite.assign(numNodes, 0);
    for (std::size_t f = 0; f < fifos.size(); ++f) {
        FifoLayout &fl = fifos[f];
        fl.cap = static_cast<std::uint32_t>(fl.writeNode.size()) + 1;
        for (std::size_t w = 0; w < fl.writeNode.size(); ++w) {
            const std::uint32_t v = fl.writeNode[w];
            if (v == kNoNode)
                continue;
            accFifo[v] = static_cast<std::int32_t>(f);
            accIdx[v] = static_cast<std::uint32_t>(w + 1);
            accWrite[v] = 1;
            if (fl.writeBlocking[w])
                accBlockingWrite[v] = 1;
        }
        for (std::size_t r = 0; r < fl.readNode.size(); ++r) {
            const std::uint32_t v = fl.readNode[r];
            if (v == kNoNode)
                continue;
            accFifo[v] = static_cast<std::int32_t>(f);
            accIdx[v] = static_cast<std::uint32_t>(r + 1);
            accWrite[v] = 0;
        }
    }
}

namespace detail
{

Build::Build(const LayoutInput &input) : in(&input)
{
    n = input.nodes->size();
    seed = *input.seed;
    dur.resize(n);
    for (std::size_t v = 0; v < n; ++v)
        dur[v] = (*input.nodes)[v].duration;
    // Fold module tail slack into the tail anchors' extended durations:
    // the re-finalized total is max(time + dur, time[tail] + slack), and
    // both terms share the node's time.
    for (std::size_t m = 0; m < input.tailNode->size(); ++m) {
        const std::uint64_t t = (*input.tailNode)[m];
        dur[t] = std::max(dur[t], (*input.tailSlack)[m]);
    }

    alive.assign(n, 1);
    mergedInto.resize(n);
    for (std::size_t v = 0; v < n; ++v)
        mergedInto[v] = static_cast<std::uint32_t>(v);

    // Canonical adjacency: one edge per (src, dst), max weight.
    out.resize(n);
    rin.resize(n);
    for (const auto &e : *input.edges)
        out[e.src].push_back({static_cast<std::uint32_t>(e.dst),
                              e.weight});
    for (std::size_t u = 0; u < n; ++u) {
        auto &lst = out[u];
        std::sort(lst.begin(), lst.end());
        std::size_t keep = 0;
        for (std::size_t i = 0; i < lst.size(); ++i) {
            if (keep > 0 && lst[keep - 1].first == lst[i].first)
                lst[keep - 1].second = lst[i].second; // sorted: max last
            else
                lst[keep++] = lst[i];
        }
        canonEdgesRemoved += lst.size() - keep;
        lst.resize(keep);
        liveEdges += keep;
        for (const auto &[v, w] : lst)
            rin[v].push_back({static_cast<std::uint32_t>(u), w});
    }

    // FIFO access map + default (identity) kept sets.
    const auto &tables = *input.tables;
    accFifo.assign(n, -1);
    accIdx.assign(n, 0);
    accWrite.assign(n, 0);
    accBlocking.assign(n, 0);
    readKept.resize(tables.size());
    writeKept.resize(tables.size());
    for (std::size_t f = 0; f < tables.size(); ++f) {
        const FifoTable &t = tables[f];
        readKept[f].assign(t.reads(), 1);
        writeKept[f].assign(t.writes(), 1);
        for (std::uint32_t i = 1; i <= t.writes(); ++i) {
            const std::uint64_t v = t.writeNodeOf(i);
            accFifo[v] = static_cast<std::int32_t>(f);
            accIdx[v] = i;
            accWrite[v] = 1;
            if ((*input.nodes)[v].kind == EventKind::FifoWrite)
                accBlocking[v] = 1;
        }
        for (std::uint32_t i = 1; i <= t.reads(); ++i) {
            const std::uint64_t v = t.readNodeOf(i);
            accFifo[v] = static_cast<std::int32_t>(f);
            accIdx[v] = i;
            accWrite[v] = 0;
        }
    }
    consKept.assign(input.constraints->size(), 1);
    pinned.assign(n, 0);
}

void
Build::pinFromKeptSets()
{
    pinned.assign(n, 0);
    for (const std::uint64_t t : *in->tailNode)
        pinned[t] = 1;
    const auto &tables = *in->tables;
    for (std::size_t f = 0; f < tables.size(); ++f) {
        const FifoTable &t = tables[f];
        for (std::uint32_t i = 1; i <= t.reads(); ++i)
            if (readKept[f][i - 1])
                pinned[t.readNodeOf(i)] = 1;
        for (std::uint32_t i = 1; i <= t.writes(); ++i)
            if (writeKept[f][i - 1])
                pinned[t.writeNodeOf(i)] = 1;
    }
    const auto &cons = *in->constraints;
    for (std::size_t i = 0; i < cons.size(); ++i)
        if (consKept[i])
            pinned[cons[i].node] = 1;
}

void
Build::removeEdge(std::uint32_t u, std::uint32_t v)
{
    auto &ou = out[u];
    for (std::size_t i = 0; i < ou.size(); ++i) {
        if (ou[i].first == v) {
            ou[i] = ou.back();
            ou.pop_back();
            break;
        }
    }
    auto &iv = rin[v];
    for (std::size_t i = 0; i < iv.size(); ++i) {
        if (iv[i].first == u) {
            iv[i] = iv.back();
            iv.pop_back();
            break;
        }
    }
    --liveEdges;
}

bool
Build::addEdge(std::uint32_t u, std::uint32_t v, Cycles w)
{
    for (auto &[dst, weight] : out[u]) {
        if (dst == v) {
            if (w > weight) {
                weight = w;
                for (auto &[src, win] : rin[v])
                    if (src == u)
                        win = w;
            }
            return false;
        }
    }
    out[u].push_back({v, w});
    rin[v].push_back({u, w});
    ++liveEdges;
    return true;
}

/** Compact a finished Build into layout ids. */
static RunLayout
materialize(Build &b, OptLevel level, std::vector<PassStats> passes)
{
    const LayoutInput &in = *b.in;
    RunLayout lay;
    lay.level = level;

    // Resolve merge chains, then assign dense ids to live nodes in
    // ascending original id (the order [remap-bijective] checks).
    std::vector<std::uint32_t> rep(b.n);
    for (std::size_t v = 0; v < b.n; ++v) {
        std::uint32_t r = static_cast<std::uint32_t>(v);
        while (b.mergedInto[r] != r)
            r = b.mergedInto[r];
        rep[v] = r;
    }
    std::vector<std::uint32_t> denseId(b.n, kDropped);
    std::uint32_t next = 0;
    for (std::size_t v = 0; v < b.n; ++v)
        if (b.alive[v])
            denseId[v] = next++;
    lay.numNodes = next;

    lay.remap.resize(b.n);
    for (std::size_t v = 0; v < b.n; ++v) {
        const std::uint32_t r = rep[v];
        lay.remap[v] = b.alive[r] ? denseId[r] : kDropped;
    }

    lay.seed.resize(next);
    lay.dur.resize(next);
    for (std::size_t v = 0; v < b.n; ++v) {
        if (!b.alive[v])
            continue;
        lay.seed[denseId[v]] = b.seed[v];
        lay.dur[denseId[v]] = b.dur[v];
    }
    lay.floor = b.floor;

    lay.edges.reserve(b.liveEdges);
    for (std::size_t u = 0; u < b.n; ++u) {
        if (!b.alive[u])
            continue;
        for (const auto &[v, w] : b.out[u])
            lay.edges.push_back({denseId[u], denseId[v], w});
    }
    std::sort(lay.edges.begin(), lay.edges.end(),
              [](const CsrGraph::EdgeSpec &a, const CsrGraph::EdgeSpec &e) {
                  return a.src != e.src ? a.src < e.src : a.dst < e.dst;
              });

    const auto &tables = *in.tables;
    lay.fifos.resize(tables.size());
    for (std::size_t f = 0; f < tables.size(); ++f) {
        const FifoTable &t = tables[f];
        FifoLayout &fl = lay.fifos[f];
        fl.readNode.assign(t.reads(), kNoNode);
        fl.writeNode.assign(t.writes(), kNoNode);
        fl.writeBlocking.assign(t.writes(), 0);
        for (std::uint32_t i = 1; i <= t.reads(); ++i) {
            if (!b.readKept[f][i - 1])
                continue;
            const std::uint32_t id = lay.remap[t.readNodeOf(i)];
            omnisim_assert(id != kDropped,
                           "kept read entry lost its node");
            fl.readNode[i - 1] = id;
        }
        for (std::uint32_t i = 1; i <= t.writes(); ++i) {
            fl.writeBlocking[i - 1] = b.accBlocking[t.writeNodeOf(i)];
            if (!b.writeKept[f][i - 1])
                continue;
            const std::uint32_t id = lay.remap[t.writeNodeOf(i)];
            omnisim_assert(id != kDropped,
                           "kept write entry lost its node");
            fl.writeNode[i - 1] = id;
        }
    }
    lay.rebuildAccessMaps();

    const auto &cons = *in.constraints;
    for (std::size_t i = 0; i < cons.size(); ++i) {
        if (!b.consKept[i])
            continue;
        const QueryRecord &qr = cons[i];
        LayoutCons lc;
        lc.origIndex = static_cast<std::uint32_t>(i);
        lc.fifo = static_cast<std::uint32_t>(qr.fifo);
        lc.kind = qr.kind;
        lc.index = qr.index;
        const std::uint32_t id = lay.remap[qr.node];
        omnisim_assert(id != kDropped, "kept constraint lost its node");
        lc.node = id;
        lc.outcome = qr.outcome;
        lay.cons.push_back(lc);
    }

    lay.stats.level = level;
    lay.stats.passes = std::move(passes);
    lay.stats.origNodes = b.n;
    lay.stats.origEdges = in.edges->size();
    lay.stats.optNodes = lay.numNodes;
    lay.stats.optEdges = lay.edges.size();
    lay.stats.origConstraints = cons.size();
    lay.stats.keptConstraints = lay.cons.size();
    return lay;
}

} // namespace detail

std::vector<const char *>
PassManager::passNames() const
{
    if (level_ == OptLevel::O0)
        return {};
    return {"lattice-prune", "chain-collapse", "dedup"};
}

RunLayout
PassManager::compile(const LayoutInput &in) const
{
    static obs::Counter &mCompiles =
        obs::Registry::global().counter("compile.runs");
    static obs::Histogram &mCompileUs =
        obs::Registry::global().histogram("compile.us");
    static obs::Histogram &mLatticePruneUs =
        obs::Registry::global().histogram("compile.pass_us.lattice_prune");
    static obs::Histogram &mChainCollapseUs =
        obs::Registry::global().histogram("compile.pass_us.chain_collapse");
    static obs::Histogram &mDedupUs =
        obs::Registry::global().histogram("compile.pass_us.dedup");
    OMNISIM_SPAN("compile.run");
    obs::ScopedLatencyUs compileTimer(mCompileUs);
    mCompiles.add();

    detail::Build b(in);
    // Between-pass verification: materialize a throwaway copy of the
    // pass IR after each pass and run the full invariant checker on it,
    // so a pass bug is caught at the pass that introduced it instead of
    // surfacing as a downstream divergence. Always-on in Debug, behind
    // --verify in Release (see opt/verify.hh).
    const auto verifyStage = [&](const char *stage, bool afterDedup) {
        if (!verifyEnabled())
            return;
        OMNISIM_SPAN("compile.verify");
        detail::Build copy(b);
        const RunLayout mid = detail::materialize(copy, level_, {});
        VerifyContext ctx;
        ctx.input = &in;
        ctx.pass = stage;
        ctx.afterDedup = afterDedup;
        verifyLayout(mid, ctx);
    };
    std::vector<PassStats> passes;
    if (level_ != OptLevel::O0) {
        {
            OMNISIM_SPAN("compile.lattice_prune");
            obs::ScopedLatencyUs t(mLatticePruneUs);
            passes.emplace_back();
            passes.back().pass = "lattice-prune";
            detail::latticePrune(b, passes.back());
            b.pinFromKeptSets();
        }
        verifyStage("lattice-prune", false);
        {
            OMNISIM_SPAN("compile.chain_collapse");
            obs::ScopedLatencyUs t(mChainCollapseUs);
            passes.emplace_back();
            passes.back().pass = "chain-collapse";
            detail::chainCollapse(b, passes.back());
        }
        verifyStage("chain-collapse", false);
        {
            OMNISIM_SPAN("compile.dedup");
            obs::ScopedLatencyUs t(mDedupUs);
            passes.emplace_back();
            passes.back().pass = "dedup";
            detail::dedup(b, passes.back());
        }
        verifyStage("dedup", true);
    }
    RunLayout lay;
    {
        OMNISIM_SPAN("compile.materialize");
        lay = detail::materialize(b, level_, std::move(passes));
    }
    if (verifyEnabled()) {
        VerifyContext ctx;
        ctx.input = &in;
        ctx.pass = "materialize";
        ctx.afterDedup = level_ != OptLevel::O0;
        verifyLayout(lay, ctx);
    }
    OMNISIM_LOG_DEBUG(
        "compile.done", "level=%s nodes=%llu->%llu constraints=%llu->%llu",
        optLevelName(level_),
        static_cast<unsigned long long>(lay.stats.origNodes),
        static_cast<unsigned long long>(lay.stats.optNodes),
        static_cast<unsigned long long>(lay.stats.origConstraints),
        static_cast<unsigned long long>(lay.stats.keptConstraints));
    return lay;
}

} // namespace omnisim::opt
