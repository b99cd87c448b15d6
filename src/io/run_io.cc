#include "io/run_io.hh"

#include <algorithm>
#include <cstdio>
#include <deque>

#include "design/design.hh"
#include "io/serial.hh"
#include "opt/pass_manager.hh"
#include "opt/verify.hh"
#include "support/logging.hh"

namespace omnisim::io
{

const char kRunMagic[8] = {'O', 'M', 'S', 'I', 'M', 'R', 'U', 'N'};

namespace
{

constexpr std::uint8_t kMaxEventKind =
    static_cast<std::uint8_t>(EventKind::TaskEnd);

// ---------------------------------------------------------------------------
// Snapshot payload encoding. Section order matches RunSnapshot field
// order; every vector is count-prefixed so the decoder can pre-check
// lengths against the remaining input.
// ---------------------------------------------------------------------------

void
encodeSnapshot(ByteWriter &w, const RunSnapshot &snap)
{
    w.u64(snap.nodes.size());
    for (const NodeInfo &n : snap.nodes) {
        w.u8(static_cast<std::uint8_t>(n.kind));
        w.u32(static_cast<std::uint32_t>(n.module));
        w.u32(static_cast<std::uint32_t>(n.channel));
        w.u32(n.index);
        w.u64(n.duration);
    }

    w.u64(snap.edges.size());
    for (const auto &e : snap.edges) {
        w.u64(e.src);
        w.u64(e.dst);
        w.u64(e.weight);
    }

    w.u64(snap.seed.size());
    for (const Cycles c : snap.seed)
        w.u64(c);

    w.u64(snap.tables.size());
    for (const FifoTable &t : snap.tables) {
        w.str(t.label());
        w.u64(t.writes());
        for (std::size_t i = 0; i < t.writes(); ++i) {
            w.u64(t.writeCycles()[i]);
            w.u64(t.writeNodes()[i]);
        }
        w.u64(t.reads());
        for (std::size_t i = 0; i < t.reads(); ++i) {
            w.u64(t.readCycles()[i]);
            w.u64(t.readNodes()[i]);
        }
        w.u64(t.pendingData().size());
        for (const Value v : t.pendingData())
            w.i64(v);
    }

    w.u64(snap.depths.size());
    for (const std::uint32_t d : snap.depths)
        w.u32(d);

    w.u64(snap.constraints.size());
    for (const QueryRecord &qr : snap.constraints) {
        w.u32(static_cast<std::uint32_t>(qr.fifo));
        w.u8(static_cast<std::uint8_t>(qr.kind));
        w.u32(qr.index);
        w.u64(qr.node);
        w.u8(qr.outcome ? 1 : 0);
    }

    w.u64(snap.tailNode.size());
    for (const std::uint64_t n : snap.tailNode)
        w.u64(n);
    w.u64(snap.tailSlack.size());
    for (const Cycles c : snap.tailSlack)
        w.u64(c);

    const SimResult &r = snap.result;
    w.u8(static_cast<std::uint8_t>(r.status));
    w.u64(r.totalCycles);
    w.u64(r.deadlockCycle);
    w.str(r.message);
    w.u64(r.warnings.size());
    for (const std::string &s : r.warnings)
        w.str(s);
    w.u64(r.memories.size());
    for (const auto &[name, vals] : r.memories) {
        w.str(name);
        w.u64(vals.size());
        for (const Value v : vals)
            w.i64(v);
    }
    w.u64(r.stats.events);
    w.u64(r.stats.queries);
    w.u64(r.stats.queriesSkipped);
    w.u64(r.stats.forcedFalse);
    w.u64(r.stats.forcedBlind);
    w.u64(r.stats.deadlockRetroSuspect);
    w.u64(r.stats.graphNodes);
    w.u64(r.stats.graphEdges);
    w.u64(r.stats.cyclesStepped);
    w.u64(r.stats.threadPauses);
}

void
decodeSnapshot(ByteReader &r, RunSnapshot &snap)
{
    const std::size_t nodeCount = r.count(21);
    snap.nodes.resize(nodeCount);
    for (NodeInfo &n : snap.nodes) {
        const std::uint8_t kind = r.u8();
        if (kind > kMaxEventKind)
            omnisim_fatal("run file corrupt: node kind %u out of range",
                          kind);
        n.kind = static_cast<EventKind>(kind);
        n.module = static_cast<ModuleId>(r.u32());
        n.channel = static_cast<std::int32_t>(r.u32());
        n.index = r.u32();
        n.duration = r.u64();
    }

    const std::size_t edgeCount = r.count(24);
    snap.edges.resize(edgeCount);
    for (auto &e : snap.edges) {
        e.src = r.u64();
        e.dst = r.u64();
        e.weight = r.u64();
    }

    const std::size_t seedCount = r.count(8);
    snap.seed.resize(seedCount);
    for (Cycles &c : snap.seed)
        c = r.u64();

    const std::size_t tableCount = r.count(8 + 8 + 8 + 8);
    snap.tables.reserve(tableCount);
    for (std::size_t t = 0; t < tableCount; ++t) {
        std::string label = r.str();
        const std::size_t writes = r.count(16);
        std::vector<Cycles> wc(writes);
        std::vector<std::uint64_t> wn(writes);
        for (std::size_t i = 0; i < writes; ++i) {
            wc[i] = r.u64();
            wn[i] = r.u64();
        }
        const std::size_t reads = r.count(16);
        if (reads > writes)
            omnisim_fatal("run file corrupt: fifo '%s' has %zu reads but "
                          "only %zu writes", label.c_str(), reads, writes);
        std::vector<Cycles> rc(reads);
        std::vector<std::uint64_t> rn(reads);
        for (std::size_t i = 0; i < reads; ++i) {
            rc[i] = r.u64();
            rn[i] = r.u64();
        }
        const std::size_t pending = r.count(8);
        if (pending != writes - reads)
            omnisim_fatal("run file corrupt: fifo '%s' pending count %zu "
                          "!= writes %zu - reads %zu", label.c_str(),
                          pending, writes, reads);
        std::deque<Value> data;
        for (std::size_t i = 0; i < pending; ++i)
            data.push_back(r.i64());
        snap.tables.push_back(FifoTable::restore(
            std::move(wc), std::move(rc), std::move(wn), std::move(rn),
            std::move(data), std::move(label)));
    }

    const std::size_t depthCount = r.count(4);
    snap.depths.resize(depthCount);
    for (std::uint32_t &d : snap.depths)
        d = r.u32();

    const std::size_t consCount = r.count(4 + 1 + 4 + 8 + 1);
    snap.constraints.resize(consCount);
    for (QueryRecord &qr : snap.constraints) {
        qr.fifo = static_cast<FifoId>(r.u32());
        const std::uint8_t kind = r.u8();
        if (kind > kMaxEventKind)
            omnisim_fatal("run file corrupt: constraint kind %u out of "
                          "range", kind);
        qr.kind = static_cast<EventKind>(kind);
        qr.index = r.u32();
        qr.node = r.u64();
        qr.outcome = r.u8() != 0;
    }

    const std::size_t tailCount = r.count(8);
    snap.tailNode.resize(tailCount);
    for (std::uint64_t &n : snap.tailNode)
        n = r.u64();
    const std::size_t slackCount = r.count(8);
    snap.tailSlack.resize(slackCount);
    for (Cycles &c : snap.tailSlack)
        c = r.u64();

    SimResult &res = snap.result;
    res.status = static_cast<SimStatus>(r.u8());
    res.totalCycles = r.u64();
    res.deadlockCycle = r.u64();
    res.message = r.str();
    const std::size_t warnCount = r.count(8);
    res.warnings.resize(warnCount);
    for (std::string &s : res.warnings)
        s = r.str();
    const std::size_t memCount = r.count(8 + 8);
    for (std::size_t m = 0; m < memCount; ++m) {
        std::string name = r.str();
        const std::size_t valCount = r.count(8);
        std::vector<Value> vals(valCount);
        for (Value &v : vals)
            v = r.i64();
        res.memories.emplace(std::move(name), std::move(vals));
    }
    res.stats.events = r.u64();
    res.stats.queries = r.u64();
    res.stats.queriesSkipped = r.u64();
    res.stats.forcedFalse = r.u64();
    res.stats.forcedBlind = r.u64();
    res.stats.deadlockRetroSuspect = r.u64();
    res.stats.graphNodes = r.u64();
    res.stats.graphEdges = r.u64();
    res.stats.cyclesStepped = r.u64();
    res.stats.threadPauses = r.u64();
}

// ---------------------------------------------------------------------------
// Compiled-layout section. Only the layout's defining data is
// persisted: the access maps, depth caps, blocking-write counts, the
// derived LayoutCons fields, and the statistics counters are all
// recomputed from the snapshot on decode, so the section cannot drift
// from the arrays the solver actually indexes.
// ---------------------------------------------------------------------------

void
encodeLayout(ByteWriter &w, const opt::RunLayout &lay)
{
    w.u8(static_cast<std::uint8_t>(lay.level));
    w.u64(lay.numNodes);
    w.u64(lay.remap.size());
    for (const std::uint32_t m : lay.remap)
        w.u32(m);
    w.u64(lay.seed.size());
    for (const Cycles c : lay.seed)
        w.u64(c);
    w.u64(lay.dur.size());
    for (const Cycles c : lay.dur)
        w.u64(c);
    w.u64(lay.edges.size());
    for (const auto &e : lay.edges) {
        w.u64(e.src);
        w.u64(e.dst);
        w.u64(e.weight);
    }
    w.u64(lay.floor);
    w.u64(lay.fifos.size());
    for (const opt::FifoLayout &fl : lay.fifos) {
        w.u64(fl.readNode.size());
        for (const std::uint32_t v : fl.readNode)
            w.u32(v);
        w.u64(fl.writeNode.size());
        for (const std::uint32_t v : fl.writeNode)
            w.u32(v);
    }
    w.u64(lay.cons.size());
    for (const opt::LayoutCons &c : lay.cons)
        w.u32(c.origIndex);
    w.u64(lay.stats.passes.size());
    for (const opt::PassStats &p : lay.stats.passes) {
        w.str(p.pass);
        w.u64(p.nodesEliminated);
        w.u64(p.edgesEliminated);
        w.u64(p.constraintsEliminated);
    }
}

/** Read the raw layout section; only the persisted fields are filled
 *  (LayoutCons carries origIndex only). Callers must validateRunLayout
 *  and then hydrateLayout before the layout is usable. */
void
decodeLayout(ByteReader &r, opt::RunLayout &lay)
{
    const std::uint8_t level = r.u8();
    if (level > static_cast<std::uint8_t>(opt::OptLevel::O1))
        omnisim_fatal("run file corrupt: optimization level %u out of "
                      "range", level);
    lay.level = static_cast<opt::OptLevel>(level);
    lay.numNodes = static_cast<std::size_t>(r.u64());

    const std::size_t remapCount = r.count(4);
    lay.remap.resize(remapCount);
    for (std::uint32_t &m : lay.remap)
        m = r.u32();

    const std::size_t seedCount = r.count(8);
    lay.seed.resize(seedCount);
    for (Cycles &c : lay.seed)
        c = r.u64();
    const std::size_t durCount = r.count(8);
    lay.dur.resize(durCount);
    for (Cycles &c : lay.dur)
        c = r.u64();

    const std::size_t edgeCount = r.count(24);
    lay.edges.resize(edgeCount);
    for (auto &e : lay.edges) {
        e.src = r.u64();
        e.dst = r.u64();
        e.weight = r.u64();
    }

    lay.floor = r.u64();

    const std::size_t fifoCount = r.count(8 + 8);
    lay.fifos.resize(fifoCount);
    for (opt::FifoLayout &fl : lay.fifos) {
        const std::size_t reads = r.count(4);
        fl.readNode.resize(reads);
        for (std::uint32_t &v : fl.readNode)
            v = r.u32();
        const std::size_t writes = r.count(4);
        fl.writeNode.resize(writes);
        for (std::uint32_t &v : fl.writeNode)
            v = r.u32();
    }

    const std::size_t consCount = r.count(4);
    lay.cons.resize(consCount);
    for (opt::LayoutCons &c : lay.cons)
        c.origIndex = r.u32();

    const std::size_t passCount = r.count(8 + 8 + 8 + 8);
    lay.stats.passes.resize(passCount);
    for (opt::PassStats &p : lay.stats.passes) {
        p.pass = r.str();
        p.nodesEliminated = r.u64();
        p.edgesEliminated = r.u64();
        p.constraintsEliminated = r.u64();
    }
}

/** Fill in everything validateRunLayout confirmed derivable: the kept
 *  constraints' evaluation fields, the per-node access maps and depth
 *  caps, and the statistics counters. */
void
hydrateLayout(const RunSnapshot &snap, opt::RunLayout &lay)
{
    for (opt::LayoutCons &c : lay.cons) {
        const QueryRecord &qr = snap.constraints[c.origIndex];
        c.fifo = static_cast<std::uint32_t>(qr.fifo);
        c.kind = qr.kind;
        c.index = qr.index;
        c.node = lay.remap[qr.node];
        c.outcome = qr.outcome;
    }

    std::vector<std::vector<std::uint8_t>> writeBlocking(
        snap.tables.size());
    for (std::size_t f = 0; f < snap.tables.size(); ++f) {
        const FifoTable &t = snap.tables[f];
        writeBlocking[f].resize(t.writes());
        for (std::size_t w = 0; w < t.writes(); ++w)
            writeBlocking[f][w] =
                snap.nodes[t.writeNodes()[w]].kind == EventKind::FifoWrite
                    ? 1
                    : 0;
    }
    lay.rebuildAccessMaps(writeBlocking);

    lay.stats.level = lay.level;
    lay.stats.origNodes = snap.nodes.size();
    lay.stats.origEdges = snap.edges.size();
    lay.stats.optNodes = lay.numNodes;
    lay.stats.optEdges = lay.edges.size();
    lay.stats.origConstraints = snap.constraints.size();
    lay.stats.keptConstraints = lay.cons.size();
}

} // namespace

// ---------------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------------

std::uint64_t
designFingerprint(const Design &d)
{
    // Everything that could invalidate a recorded trace goes into the
    // hash; FIFO depths deliberately do not (see header). Field
    // separators ('\1') keep adjacent strings from aliasing.
    std::uint64_t h = fnv1a(d.name());
    const auto sep = [&] { h = fnv1aU64(0x1, h); };
    for (const auto &m : d.modules()) {
        sep();
        h = fnv1a(m.name, h);
        h = fnv1aU64((m.opts.hasInfiniteLoop ? 1u : 0u) |
                     (m.opts.behaviorVariesOnNb ? 2u : 0u), h);
    }
    for (const auto &f : d.fifos()) {
        sep();
        h = fnv1a(f.name, h);
        h = fnv1aU64(static_cast<std::uint64_t>(f.writer), h);
        h = fnv1aU64(static_cast<std::uint64_t>(f.reader), h);
        h = fnv1aU64(static_cast<std::uint64_t>(f.writeKind), h);
        h = fnv1aU64(static_cast<std::uint64_t>(f.readKind), h);
    }
    for (const auto &m : d.memories()) {
        sep();
        h = fnv1a(m.name, h);
        h = fnv1aU64(m.size, h);
    }
    for (const auto &a : d.axiPorts()) {
        sep();
        h = fnv1a(a.name, h);
        h = fnv1aU64(static_cast<std::uint64_t>(a.owner), h);
        h = fnv1aU64(static_cast<std::uint64_t>(a.backing), h);
        h = fnv1aU64(a.config.readLatency, h);
        h = fnv1aU64(a.config.writeAckLatency, h);
    }
    for (const auto &[mem, vals] : d.inputs()) {
        sep();
        h = fnv1aU64(static_cast<std::uint64_t>(mem), h);
        for (const Value v : vals)
            h = fnv1aU64(static_cast<std::uint64_t>(v), h);
    }
    return h;
}

std::uint64_t
depthVectorHash(const std::vector<std::uint32_t> &depths)
{
    std::uint64_t h = fnv1aU64(depths.size(), 1469598103934665603ull);
    for (const std::uint32_t d : depths)
        h = fnv1aU64(d, h);
    return h;
}

// ---------------------------------------------------------------------------
// File image.
// ---------------------------------------------------------------------------

std::string
encodeRun(const RunFileMeta &meta, const RunSnapshot &snap,
          const opt::RunLayout *layout)
{
    opt::RunLayout recompiled;
    if (!layout) {
        // No layout supplied: run the pass pipeline here. It is
        // deterministic, so the persisted layout matches what any
        // default-options engine computed for this snapshot.
        opt::LayoutInput in;
        in.nodes = &snap.nodes;
        in.edges = &snap.edges;
        in.seed = &snap.seed;
        in.tables = &snap.tables;
        in.depths = &snap.depths;
        in.constraints = &snap.constraints;
        in.tailNode = &snap.tailNode;
        in.tailSlack = &snap.tailSlack;
        recompiled = opt::PassManager(opt::OptLevel::O1).compile(in);
        layout = &recompiled;
    }

    ByteWriter payload;
    payload.str(meta.design);
    payload.str(meta.engine);
    payload.u64(meta.fingerprint);
    encodeSnapshot(payload, snap);
    encodeLayout(payload, *layout);

    ByteWriter file;
    file.raw(kRunMagic, sizeof(kRunMagic));
    file.u32(kRunFormatVersion);
    file.u64(fnv1a(payload.bytes()));
    file.u64(payload.size());
    file.raw(payload.bytes().data(), payload.size());
    return file.take();
}

void
decodeRun(std::string_view bytes, RunFileMeta &meta, RunSnapshot &snap)
{
    opt::RunLayout layout;
    decodeRun(bytes, meta, snap, layout);
}

void
decodeRun(std::string_view bytes, RunFileMeta &meta, RunSnapshot &snap,
          opt::RunLayout &layout)
{
    ByteReader r(bytes);
    const std::string_view magic = r.raw(sizeof(kRunMagic));
    if (magic != std::string_view(kRunMagic, sizeof(kRunMagic)))
        omnisim_fatal("not an OmniSim run file (bad magic)");
    const std::uint32_t version = r.u32();
    if (version < kRunMinFormatVersion || version > kRunFormatVersion)
        omnisim_fatal("run file format version %u unsupported (this "
                      "build reads versions %u through %u)", version,
                      kRunMinFormatVersion, kRunFormatVersion);
    const std::uint64_t checksum = r.u64();
    const std::uint64_t size = r.u64();
    if (size != r.remaining())
        omnisim_fatal("run file corrupt: payload size %llu != %zu "
                      "remaining bytes",
                      static_cast<unsigned long long>(size), r.remaining());
    const std::string_view payload = r.raw(static_cast<std::size_t>(size));
    if (fnv1a(payload) != checksum)
        omnisim_fatal("run file corrupt: payload checksum mismatch");

    ByteReader pr(payload);
    meta.design = pr.str();
    meta.engine = pr.str();
    meta.fingerprint = pr.u64();
    snap = RunSnapshot{};
    layout = opt::RunLayout{};
    decodeSnapshot(pr, snap);
    decodeLayout(pr, layout);
    if (!pr.atEnd())
        omnisim_fatal("run file corrupt: %zu trailing bytes after the "
                      "layout", pr.remaining());
    validateSnapshot(snap);
    validateRunLayout(snap, layout);
    hydrateLayout(snap, layout);
    if (opt::verifyEnabled()) {
        // The IR verifier re-checks every persisted-layout invariant
        // from scratch (the input-dependent conservation checks are
        // skipped — the compile input is gone).
        opt::VerifyContext ctx;
        ctx.pass = "rehydrate";
        opt::verifyLayout(layout, ctx);
    }
}

void
validateSnapshot(const RunSnapshot &snap)
{
    const std::size_t n = snap.nodes.size();
    if (snap.seed.size() != n)
        omnisim_fatal("run snapshot invalid: %zu seeds for %zu nodes",
                      snap.seed.size(), n);
    if (snap.depths.size() != snap.tables.size())
        omnisim_fatal("run snapshot invalid: %zu depths for %zu tables",
                      snap.depths.size(), snap.tables.size());
    for (const std::uint32_t d : snap.depths)
        if (d < 1)
            omnisim_fatal("run snapshot invalid: zero FIFO depth");
    for (const auto &e : snap.edges)
        if (e.src >= n || e.dst >= n)
            omnisim_fatal("run snapshot invalid: edge %llu -> %llu "
                          "outside %zu nodes",
                          static_cast<unsigned long long>(e.src),
                          static_cast<unsigned long long>(e.dst), n);
    for (const FifoTable &t : snap.tables) {
        for (std::size_t i = 0; i < t.writes(); ++i)
            if (t.writeNodes()[i] >= n)
                omnisim_fatal("run snapshot invalid: fifo '%s' write "
                              "node out of range", t.label());
        for (std::size_t i = 0; i < t.reads(); ++i)
            if (t.readNodes()[i] >= n)
                omnisim_fatal("run snapshot invalid: fifo '%s' read "
                              "node out of range", t.label());
    }
    for (const QueryRecord &qr : snap.constraints) {
        if (qr.fifo < 0 ||
            static_cast<std::size_t>(qr.fifo) >= snap.tables.size())
            omnisim_fatal("run snapshot invalid: constraint names fifo "
                          "%d of %zu", qr.fifo, snap.tables.size());
        if (!isQueryKind(qr.kind))
            omnisim_fatal("run snapshot invalid: constraint kind '%s' is "
                          "not a query", eventKindName(qr.kind));
        if (qr.index < 1)
            omnisim_fatal("run snapshot invalid: constraint access "
                          "index 0 (indices are 1-based)");
        if (qr.node >= n)
            omnisim_fatal("run snapshot invalid: constraint node out of "
                          "range");
    }
    if (snap.tailNode.size() != snap.tailSlack.size())
        omnisim_fatal("run snapshot invalid: %zu tail nodes, %zu tail "
                      "slacks", snap.tailNode.size(),
                      snap.tailSlack.size());
    for (const std::uint64_t t : snap.tailNode)
        if (t >= n)
            omnisim_fatal("run snapshot invalid: module tail node out of "
                          "range");
    if (snap.result.status != SimStatus::Ok)
        omnisim_fatal("run snapshot invalid: recorded status is '%s', "
                      "only successful runs are storable",
                      simStatusName(snap.result.status));
}

void
validateRunLayout(const RunSnapshot &snap, const opt::RunLayout &layout)
{
    const std::size_t n = layout.numNodes;
    if (n > snap.nodes.size())
        omnisim_fatal("run layout invalid: %zu layout nodes for %zu "
                      "original nodes", n, snap.nodes.size());
    if (layout.remap.size() != snap.nodes.size())
        omnisim_fatal("run layout invalid: remap table has %zu entries "
                      "for %zu original nodes", layout.remap.size(),
                      snap.nodes.size());
    for (const std::uint32_t m : layout.remap)
        if (m != opt::kDropped && m >= n)
            omnisim_fatal("run layout invalid: remap entry %u outside "
                          "%zu layout nodes", m, n);
    if (layout.seed.size() != n || layout.dur.size() != n)
        omnisim_fatal("run layout invalid: %zu seeds / %zu durations "
                      "for %zu layout nodes", layout.seed.size(),
                      layout.dur.size(), n);
    for (const auto &e : layout.edges)
        if (e.src >= n || e.dst >= n)
            omnisim_fatal("run layout invalid: edge %llu -> %llu outside "
                          "%zu layout nodes",
                          static_cast<unsigned long long>(e.src),
                          static_cast<unsigned long long>(e.dst), n);
    if (layout.fifos.size() != snap.tables.size())
        omnisim_fatal("run layout invalid: %zu fifo maps for %zu tables",
                      layout.fifos.size(), snap.tables.size());
    for (std::size_t f = 0; f < layout.fifos.size(); ++f) {
        const opt::FifoLayout &fl = layout.fifos[f];
        const FifoTable &t = snap.tables[f];
        if (fl.readNode.size() != t.reads() ||
            fl.writeNode.size() != t.writes())
            omnisim_fatal("run layout invalid: fifo '%s' access map "
                          "arity mismatch (%zu/%zu reads, %zu/%zu "
                          "writes)", t.label(), fl.readNode.size(),
                          static_cast<std::size_t>(t.reads()),
                          fl.writeNode.size(),
                          static_cast<std::size_t>(t.writes()));
        for (const std::uint32_t v : fl.readNode)
            if (v != opt::kNoNode && v >= n)
                omnisim_fatal("run layout invalid: fifo '%s' read entry "
                              "outside %zu layout nodes", t.label(), n);
        for (const std::uint32_t v : fl.writeNode)
            if (v != opt::kNoNode && v >= n)
                omnisim_fatal("run layout invalid: fifo '%s' write entry "
                              "outside %zu layout nodes", t.label(), n);
    }

    // Kept constraints: recorded order (strictly ascending original
    // indices), live query nodes, and — the invariant evalConstraint's
    // unchecked indexing relies on — pinned targets: a read-kind query
    // of index w keeps the w-th write entry, and a write-kind query of
    // index i keeps every read entry the sliding target r = i - depth
    // can land on across the clamped lattice (r in [1, min(i-1,
    // reads)]).
    std::vector<std::uint32_t> maxWriteConsIdx(layout.fifos.size(), 0);
    std::uint64_t prevOrig = 0;
    bool first = true;
    for (const opt::LayoutCons &c : layout.cons) {
        if (c.origIndex >= snap.constraints.size())
            omnisim_fatal("run layout invalid: kept constraint %u of "
                          "%zu recorded", c.origIndex,
                          snap.constraints.size());
        if (!first && c.origIndex <= prevOrig)
            omnisim_fatal("run layout invalid: kept constraints out of "
                          "recorded order");
        first = false;
        prevOrig = c.origIndex;

        const QueryRecord &qr = snap.constraints[c.origIndex];
        if (layout.remap[qr.node] == opt::kDropped)
            omnisim_fatal("run layout invalid: kept constraint %u lost "
                          "its query node", c.origIndex);
        const opt::FifoLayout &fl =
            layout.fifos[static_cast<std::size_t>(qr.fifo)];
        switch (qr.kind) {
          case EventKind::FifoNbRead:
          case EventKind::FifoCanRead:
            if (qr.index <= fl.writeNode.size() &&
                fl.writeNode[qr.index - 1] == opt::kNoNode)
                omnisim_fatal("run layout invalid: kept read query %u "
                              "lost its target write entry", c.origIndex);
            break;
          default: {
            auto &mx = maxWriteConsIdx[static_cast<std::size_t>(qr.fifo)];
            mx = std::max(mx, qr.index);
            break;
          }
        }
    }
    for (std::size_t f = 0; f < layout.fifos.size(); ++f) {
        const opt::FifoLayout &fl = layout.fifos[f];
        if (maxWriteConsIdx[f] < 2)
            continue;
        const std::size_t lim = std::min<std::size_t>(
            maxWriteConsIdx[f] - 1, fl.readNode.size());
        for (std::size_t r = 0; r < lim; ++r)
            if (fl.readNode[r] == opt::kNoNode)
                omnisim_fatal("run layout invalid: write query target "
                              "read entry %zu of fifo '%s' was dropped",
                              r + 1, snap.tables[f].label());
    }
}

// ---------------------------------------------------------------------------
// StoredRun.
// ---------------------------------------------------------------------------

StoredRun::StoredRun(RunSnapshot snap, RunFileMeta meta,
                     std::optional<opt::RunLayout> layout)
    : meta_(std::move(meta)), snap_(std::move(snap))
{
    // A persisted layout (opened file) skips the pass pipeline
    // entirely; otherwise recompile — deterministic, so both paths
    // freeze the same structure.
    compiled_ = layout
                    ? std::make_unique<CompiledRun>(snap_,
                                                    std::move(*layout))
                    : std::make_unique<CompiledRun>(snap_);
    if (!compiled_->baselineAcyclic())
        omnisim_fatal("stored run for '%s' has a timing-infeasible "
                      "baseline — file is stale or corrupt",
                      meta_.design.c_str());
}

std::unique_ptr<StoredRun>
StoredRun::rehydrate(RunSnapshot snap, RunFileMeta meta)
{
    validateSnapshot(snap);
    return std::unique_ptr<StoredRun>(
        new StoredRun(std::move(snap), std::move(meta), std::nullopt));
}

std::unique_ptr<StoredRun>
StoredRun::open(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        omnisim_fatal("cannot open run file '%s'", path.c_str());
    std::string bytes;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, got);
    const bool readError = std::ferror(f) != 0;
    std::fclose(f);
    if (readError)
        omnisim_fatal("error reading run file '%s'", path.c_str());

    RunFileMeta meta;
    RunSnapshot snap;
    opt::RunLayout layout;
    decodeRun(bytes, meta, snap, layout); // validates both
    return std::unique_ptr<StoredRun>(new StoredRun(
        std::move(snap), std::move(meta), std::move(layout)));
}

IncrementalOutcome
StoredRun::resimulate(const std::vector<std::uint32_t> &depths) const
{
    IncrementalOutcome out;
    if (depths.size() != snap_.tables.size()) {
        out.reason = strf("depth vector has %zu entries; stored run has "
                          "%zu FIFOs", depths.size(), snap_.tables.size());
        return out;
    }

    const CompiledRun::Attempt a = compiled_->resimulate(depths);
    out.viaCompiled = true;
    out.viaDelta = a.viaDelta;
    switch (a.status) {
      case CompiledRun::Attempt::Status::Infeasible:
        out.reason = "new depths make the recorded timing infeasible "
                     "(potential deadlock) — full re-simulation required";
        return out;
      case CompiledRun::Attempt::Status::Diverged: {
        const QueryRecord &qr = snap_.constraints[a.constraintIndex];
        // Table labels are set from the design's FIFO names when the
        // run is recorded, so this message is byte-identical to the
        // in-process OmniSim::resimulate() divergence text.
        out.reason = strf(
            "constraint violated: %s #%u on fifo '%s' would now "
            "resolve %s", eventKindName(qr.kind), qr.index,
            snap_.tables[qr.fifo].label(),
            a.nowAnswer ? "true" : "false");
        return out;
      }
      case CompiledRun::Attempt::Status::Reused:
        out.reused = true;
        out.result = snap_.result;
        out.result.totalCycles = a.totalCycles;
        return out;
    }
    omnisim_panic("bad compiled attempt status");
}

} // namespace omnisim::io
