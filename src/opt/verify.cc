#include "opt/verify.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "core/omnisim.hh"
#include "graph/simgraph.hh"
#include "obs/log.hh"
#include "opt/pass_manager.hh"
#include "runtime/fifo_table.hh"
#include "support/logging.hh"

namespace omnisim::opt
{

namespace
{

std::atomic<bool> verifyFlag{
#ifdef NDEBUG
    false // Release: opt-in via --verify.
#else
    true // Debug: always-on.
#endif
};

/** Log the structured diagnostic (picked up by the flight recorder
 *  ring) and throw. The bracketed id is the stable handle tests and
 *  humans grep for. */
[[noreturn]] void
failVerify(const VerifyContext &ctx, const char *id,
           const std::string &detail)
{
    OMNISIM_LOG_ERROR("verify.fail", "pass=%s invariant=%s %s", ctx.pass,
                      id, detail.c_str());
    omnisim_fatal("IR verifier: [%s] at '%s': %s", id, ctx.pass,
                  detail.c_str());
}

/**
 * Longest-path relaxation over an explicit edge list (Kahn order, so it
 * doubles as the acyclicity oracle). time[v] = max(seed[v],
 * max over in-edges u->v of time[u] + w); parallel edges are harmless
 * (max over all).
 * @return false when the graph has a cycle (times undefined).
 */
bool
longestPath(std::size_t n, const std::vector<Cycles> &seed,
            const std::vector<CsrGraph::EdgeSpec> &edges,
            std::vector<Cycles> &time)
{
    std::vector<std::uint32_t> indeg(n, 0);
    std::vector<std::vector<std::pair<std::uint32_t, Cycles>>> out(n);
    for (const auto &e : edges) {
        out[static_cast<std::size_t>(e.src)].push_back(
            {static_cast<std::uint32_t>(e.dst), e.weight});
        ++indeg[static_cast<std::size_t>(e.dst)];
    }
    time = seed;
    std::vector<std::uint32_t> ready;
    ready.reserve(n);
    for (std::size_t v = 0; v < n; ++v)
        if (indeg[v] == 0)
            ready.push_back(static_cast<std::uint32_t>(v));
    std::size_t done = 0;
    while (done < ready.size()) {
        const std::uint32_t u = ready[done++];
        for (const auto &[v, w] : out[u]) {
            time[v] = std::max(time[v], time[u] + w);
            if (--indeg[v] == 0)
                ready.push_back(v);
        }
    }
    return done == n;
}

void
checkShape(const RunLayout &lay, const VerifyContext &ctx)
{
    const std::size_t n = lay.numNodes;
    if (lay.seed.size() != n || lay.dur.size() != n)
        failVerify(ctx, "shape",
                   strf("%zu seeds / %zu durations for %zu nodes",
                        lay.seed.size(), lay.dur.size(), n));
}

void
checkCsrSorted(const RunLayout &lay, const VerifyContext &ctx)
{
    const std::size_t n = lay.numNodes;
    for (std::size_t i = 0; i < lay.edges.size(); ++i) {
        const auto &e = lay.edges[i];
        if (e.src >= n || e.dst >= n)
            failVerify(ctx, "csr-sorted",
                       strf("edge %llu -> %llu outside %zu nodes",
                            static_cast<unsigned long long>(e.src),
                            static_cast<unsigned long long>(e.dst), n));
        if (i > 0) {
            const auto &p = lay.edges[i - 1];
            if (p.src > e.src || (p.src == e.src && p.dst >= e.dst))
                failVerify(
                    ctx, "csr-sorted",
                    strf("edge %zu (%llu -> %llu) not strictly after "
                         "edge %zu (%llu -> %llu)",
                         i, static_cast<unsigned long long>(e.src),
                         static_cast<unsigned long long>(e.dst), i - 1,
                         static_cast<unsigned long long>(p.src),
                         static_cast<unsigned long long>(p.dst)));
        }
    }
}

void
checkRemap(const RunLayout &lay, const VerifyContext &ctx)
{
    const std::size_t n = lay.numNodes;
    // Materialization assigns dense ids to live nodes in ascending
    // original id and remaps merged nodes to representatives with
    // *smaller* original ids. So walking the remap table in original-id
    // order, the first occurrences of layout ids must be exactly
    // 0, 1, 2, ... — which also proves surjectivity (every layout node
    // has a preimage) and catches collisions (a lost preimage). A layout
    // read back from a run file keeps no remap table.
    if (lay.remap.empty())
        return;
    std::vector<std::uint8_t> seen(n, 0);
    std::uint32_t next = 0;
    for (std::size_t v = 0; v < lay.remap.size(); ++v) {
        const std::uint32_t d = lay.remap[v];
        if (d == kDropped)
            continue;
        if (d >= n)
            failVerify(ctx, "remap-bijective",
                       strf("remap[%zu] = %u outside %zu layout nodes",
                            v, d, n));
        if (!seen[d]) {
            if (d != next)
                failVerify(ctx, "remap-bijective",
                           strf("first preimage of layout node %u "
                                "appears before layout node %u has one "
                                "(original node %zu)",
                                d, next, v));
            seen[d] = 1;
            ++next;
        }
    }
    if (next != n)
        failVerify(ctx, "remap-bijective",
                   strf("%u of %zu layout nodes have a preimage", next,
                        n));
}

void
checkFifos(const RunLayout &lay, const VerifyContext &ctx)
{
    const std::size_t n = lay.numNodes;
    for (std::size_t f = 0; f < lay.fifos.size(); ++f) {
        const FifoLayout &fl = lay.fifos[f];
        // Access indices and the cap (writes + 1) are 32-bit.
        if (fl.writeNode.size() >= kNoNode)
            failVerify(ctx, "fifo-cap",
                       strf("fifo %zu has %zu writes", f,
                            fl.writeNode.size()));
        if (fl.readNode.size() > fl.writeNode.size())
            failVerify(ctx, "fifo-cap",
                       strf("fifo %zu has %zu reads but only %zu writes",
                            f, fl.readNode.size(), fl.writeNode.size()));
        if (fl.writeBlocking.size() != fl.writeNode.size())
            failVerify(ctx, "fifo-cap",
                       strf("fifo %zu has %zu blocking flags for %zu "
                            "writes", f, fl.writeBlocking.size(),
                            fl.writeNode.size()));
        for (const std::uint32_t v : fl.readNode)
            if (v != kNoNode && v >= n)
                failVerify(ctx, "fifo-cap",
                           strf("fifo %zu read entry %u outside %zu "
                                "layout nodes", f, v, n));
        for (const std::uint32_t v : fl.writeNode)
            if (v != kNoNode && v >= n)
                failVerify(ctx, "fifo-cap",
                           strf("fifo %zu write entry %u outside %zu "
                                "layout nodes", f, v, n));
    }
}

void
checkAccessMaps(const RunLayout &lay, const VerifyContext &ctx)
{
    const std::size_t n = lay.numNodes;
    if (lay.accFifo.size() != n || lay.accIdx.size() != n ||
        lay.accWrite.size() != n || lay.accBlockingWrite.size() != n)
        failVerify(ctx, "shape",
                   strf("accessor arrays sized %zu/%zu/%zu/%zu for %zu "
                        "nodes",
                        lay.accFifo.size(), lay.accIdx.size(),
                        lay.accWrite.size(), lay.accBlockingWrite.size(),
                        n));

    // fifos[] and the O(1) accessor arrays are two views of one map;
    // walk the forward direction and mark what we covered, then demand
    // the reverse direction points at nothing else.
    std::vector<std::uint8_t> covered(n, 0);
    for (std::size_t f = 0; f < lay.fifos.size(); ++f) {
        const FifoLayout &fl = lay.fifos[f];
        if (fl.cap != fl.writeNode.size() + 1)
            failVerify(ctx, "fifo-cap",
                       strf("fifo %zu cap %u != writes %zu + 1", f,
                            fl.cap, fl.writeNode.size()));
        std::uint32_t blocking = 0;
        for (std::size_t w = 0; w < fl.writeNode.size(); ++w) {
            const std::uint32_t v = fl.writeNode[w];
            if (v == kNoNode)
                continue;
            if (lay.accFifo[v] != static_cast<std::int32_t>(f) ||
                lay.accIdx[v] != w + 1 || !lay.accWrite[v] ||
                lay.accBlockingWrite[v] != fl.writeBlocking[w])
                failVerify(ctx, "acc-map-consistent",
                           strf("write entry %zu of fifo %zu (node %u) "
                                "disagrees with the accessor arrays",
                                w + 1, f, v));
            covered[v] = 1;
            blocking += lay.accBlockingWrite[v] ? 1 : 0;
        }
        for (std::size_t r = 0; r < fl.readNode.size(); ++r) {
            const std::uint32_t v = fl.readNode[r];
            if (v == kNoNode)
                continue;
            if (lay.accFifo[v] != static_cast<std::int32_t>(f) ||
                lay.accIdx[v] != r + 1 || lay.accWrite[v])
                failVerify(ctx, "acc-map-consistent",
                           strf("read entry %zu of fifo %zu (node %u) "
                                "disagrees with the accessor arrays",
                                r + 1, f, v));
            if (lay.accBlockingWrite[v])
                failVerify(ctx, "acc-map-consistent",
                           strf("read node %u flagged as blocking "
                                "write", v));
            covered[v] = 1;
        }
        if (blocking != fl.blockingWrites)
            failVerify(ctx, "acc-map-consistent",
                       strf("fifo %zu records %u blocking writes, "
                            "entries say %u", f, fl.blockingWrites,
                            blocking));
    }
    for (std::size_t v = 0; v < n; ++v) {
        if (lay.accFifo[v] >= 0 && !covered[v])
            failVerify(ctx, "acc-map-consistent",
                       strf("node %zu claims fifo %d access %u but no "
                            "access entry references it", v,
                            lay.accFifo[v], lay.accIdx[v]));
        if (lay.accFifo[v] < 0 &&
            (lay.accIdx[v] != 0 || lay.accWrite[v] ||
             lay.accBlockingWrite[v]))
            failVerify(ctx, "acc-map-consistent",
                       strf("non-access node %zu carries accessor "
                            "state", v));
    }
}

void
checkCons(const RunLayout &lay, const VerifyContext &ctx)
{
    const std::size_t n = lay.numNodes;
    std::vector<std::uint32_t> maxWriteConsIdx(lay.fifos.size(), 0);
    bool first = true;
    std::uint32_t prevOrig = 0;
    for (const LayoutCons &c : lay.cons) {
        if (!first && c.origIndex <= prevOrig)
            failVerify(ctx, "cons-addressable",
                       strf("kept constraint %u out of recorded order "
                            "(follows %u)", c.origIndex, prevOrig));
        first = false;
        prevOrig = c.origIndex;
        if (c.origIndex >= lay.stats.origConstraints)
            failVerify(ctx, "cons-addressable",
                       strf("kept constraint %u of %llu recorded",
                            c.origIndex,
                            static_cast<unsigned long long>(
                                lay.stats.origConstraints)));
        if (c.node >= n)
            failVerify(ctx, "cons-addressable",
                       strf("constraint %u query node %u outside %zu "
                            "layout nodes", c.origIndex, c.node, n));
        if (c.fifo >= lay.fifos.size())
            failVerify(ctx, "cons-addressable",
                       strf("constraint %u names fifo %u of %zu",
                            c.origIndex, c.fifo, lay.fifos.size()));
        if (!isQueryKind(c.kind))
            failVerify(ctx, "cons-addressable",
                       strf("constraint %u kind '%s' is not a query",
                            c.origIndex, eventKindName(c.kind)));
        if (c.index < 1)
            failVerify(ctx, "cons-addressable",
                       strf("constraint %u access index 0 (1-based)",
                            c.origIndex));
        const FifoLayout &fl = lay.fifos[c.fifo];
        switch (c.kind) {
          case EventKind::FifoNbRead:
          case EventKind::FifoCanRead:
            // A read-kind query of index w evaluates the w-th write.
            if (c.index <= fl.writeNode.size() &&
                fl.writeNode[c.index - 1] == kNoNode)
                failVerify(ctx, "cons-addressable",
                           strf("read query %u lost its target write "
                                "entry %u of fifo %u", c.origIndex,
                                c.index, c.fifo));
            break;
          default:
            // Write-kind queries slide over the read prefix with the
            // depth; collect the per-FIFO maximum and check below.
            maxWriteConsIdx[c.fifo] =
                std::max(maxWriteConsIdx[c.fifo], c.index);
            break;
        }
    }
    for (std::size_t f = 0; f < lay.fifos.size(); ++f) {
        if (maxWriteConsIdx[f] < 2)
            continue;
        const FifoLayout &fl = lay.fifos[f];
        const std::size_t lim = std::min<std::size_t>(
            maxWriteConsIdx[f] - 1, fl.readNode.size());
        for (std::size_t r = 0; r < lim; ++r)
            if (fl.readNode[r] == kNoNode)
                failVerify(ctx, "cons-addressable",
                           strf("write query target read entry %zu of "
                                "fifo %zu was dropped", r + 1, f));
    }
}

/** [chain-weight]: at the structural-only point of the lattice (== the
 *  all-caps clamped depth vector, where no WAR edge exists) the passes
 *  must preserve every live-image original node's time exactly, and the
 *  re-finalized total with the floor folded in. */
void
checkChainWeight(const RunLayout &lay, const std::vector<Cycles> &timeL,
                 const VerifyContext &ctx)
{
    const LayoutInput &in = *ctx.input;
    const std::size_t n0 = in.nodes->size();

    std::vector<Cycles> durO(n0);
    for (std::size_t v = 0; v < n0; ++v)
        durO[v] = (*in.nodes)[v].duration;
    // Fold module tail slack exactly as the pass IR constructor does:
    // the re-finalized total is max(time + dur, time[tail] + slack).
    for (std::size_t m = 0; m < in.tailNode->size(); ++m) {
        const std::uint64_t t = (*in.tailNode)[m];
        durO[t] = std::max(durO[t], (*in.tailSlack)[m]);
    }

    std::vector<Cycles> timeO;
    if (!longestPath(n0, *in.seed, *in.edges, timeO))
        failVerify(ctx, "chain-weight",
                   "original structural graph is cyclic");

    for (std::size_t v = 0; v < n0; ++v) {
        const std::uint32_t d = lay.remap[v];
        if (d == kDropped)
            continue;
        if (timeL[d] != timeO[v])
            failVerify(
                ctx, "chain-weight",
                strf("node time not conserved: original %zu is %llu, "
                     "layout image %u is %llu", v,
                     static_cast<unsigned long long>(timeO[v]), d,
                     static_cast<unsigned long long>(timeL[d])));
    }

    Cycles totO = 0;
    for (std::size_t v = 0; v < n0; ++v)
        totO = std::max(totO, timeO[v] + durO[v]);
    Cycles totL = lay.floor;
    for (std::size_t d = 0; d < lay.numNodes; ++d)
        totL = std::max(totL, timeL[d] + lay.dur[d]);
    if (totO != totL)
        failVerify(ctx, "chain-weight",
                   strf("total not conserved: original %llu, layout "
                        "%llu (floor %llu)",
                        static_cast<unsigned long long>(totO),
                        static_cast<unsigned long long>(totL),
                        static_cast<unsigned long long>(lay.floor)));
}

/** [dedup-fixpoint]: after dedup no two live unpinned layout nodes may
 *  share (seed, canonical in-edge list) — they would have merged. The
 *  pinned set in layout terms (access entries, kept-constraint nodes,
 *  module tail images) mirrors the pass IR's pin computation. */
void
checkDedupFixpoint(const RunLayout &lay, const VerifyContext &ctx)
{
    const std::size_t n = lay.numNodes;
    std::vector<std::uint8_t> pinned(n, 0);
    for (std::size_t v = 0; v < n; ++v)
        if (lay.accFifo[v] >= 0)
            pinned[v] = 1;
    for (const LayoutCons &c : lay.cons)
        pinned[c.node] = 1;
    for (const std::uint64_t t : *ctx.input->tailNode) {
        const std::uint32_t d = lay.remap[t];
        if (d != kDropped)
            pinned[d] = 1;
    }

    // Edges are sorted by (src, dst), so per-node in-lists built in one
    // sweep are already canonical (ascending src, parallel-edge free).
    std::vector<std::vector<std::pair<std::uint32_t, Cycles>>> rin(n);
    for (const auto &e : lay.edges)
        rin[static_cast<std::size_t>(e.dst)].push_back(
            {static_cast<std::uint32_t>(e.src), e.weight});

    std::vector<std::uint32_t> cands;
    for (std::size_t v = 0; v < n; ++v)
        if (!pinned[v])
            cands.push_back(static_cast<std::uint32_t>(v));
    std::sort(cands.begin(), cands.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  if (lay.seed[a] != lay.seed[b])
                      return lay.seed[a] < lay.seed[b];
                  return rin[a] < rin[b];
              });
    for (std::size_t i = 1; i < cands.size(); ++i) {
        const std::uint32_t a = cands[i - 1], b = cands[i];
        if (lay.seed[a] == lay.seed[b] && rin[a] == rin[b])
            failVerify(ctx, "dedup-fixpoint",
                       strf("nodes %u and %u share seed and in-edges "
                            "but were not merged", a, b));
    }
}

} // namespace

void
setVerifyEnabled(bool on)
{
    verifyFlag.store(on, std::memory_order_relaxed);
}

bool
verifyEnabled()
{
    return verifyFlag.load(std::memory_order_relaxed);
}

void
verifyIndices(const RunLayout &lay, const VerifyContext &ctx)
{
    checkShape(lay, ctx);
    checkCsrSorted(lay, ctx);
    checkFifos(lay, ctx);
    checkCons(lay, ctx);
}

void
verifyLayout(const RunLayout &lay, const VerifyContext &ctx)
{
    verifyIndices(lay, ctx);
    checkAccessMaps(lay, ctx);

    std::vector<Cycles> timeL;
    if (!longestPath(lay.numNodes, lay.seed, lay.edges, timeL))
        failVerify(ctx, "dag", "structural layout graph has a cycle");

    checkRemap(lay, ctx);
    if (ctx.input != nullptr) {
        checkChainWeight(lay, timeL, ctx);
        if (ctx.afterDedup)
            checkDedupFixpoint(lay, ctx);
    }
}

} // namespace omnisim::opt
