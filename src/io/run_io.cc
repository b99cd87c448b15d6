#include "io/run_io.hh"

#include <algorithm>
#include <cstdio>

#include "design/design.hh"
#include "io/serial.hh"
#include "opt/verify.hh"
#include "support/logging.hh"

namespace omnisim::io
{

const char kRunMagic[8] = {'O', 'M', 'S', 'I', 'M', 'R', 'U', 'N'};

namespace
{

/** A decoded, validated run file, ready to freeze. */
struct DecodedRun
{
    RunFileMeta meta;
    std::vector<std::uint32_t> depths;
    std::vector<std::string> labels;
    SimResult result;
    opt::RunLayout layout;
};

constexpr std::uint8_t kMaxEventKind =
    static_cast<std::uint8_t>(EventKind::TaskEnd);

/** Bytes of one encoded edge: u32 src, u32 dst, u64 weight. */
constexpr std::size_t kEdgeBytes = 16;

/** Bytes of one encoded kept constraint: u32 origIndex, fifo, index and
 *  node, u8 kind and outcome. */
constexpr std::size_t kConsBytes = 18;

// ---------------------------------------------------------------------------
// Payload sections, in file order.
// ---------------------------------------------------------------------------

void
encodeResult(ByteWriter &w, const SimResult &r)
{
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
        w.array(vals);
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
decodeResult(ByteReader &r, SimResult &res)
{
    res.status = static_cast<SimStatus>(r.u8());
    res.totalCycles = r.u64();
    res.deadlockCycle = r.u64();
    res.message = r.str();
    res.warnings.resize(r.count(8));
    for (std::string &s : res.warnings)
        s = r.str();
    const std::size_t memCount = r.count(8 + 8);
    for (std::size_t m = 0; m < memCount; ++m) {
        std::string name = r.str();
        r.array(res.memories[std::move(name)]);
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

/** The layout's defining data; everything rebuildAccessMaps() and the
 *  array sizes determine is left out. */
void
encodeLayout(ByteWriter &w, const opt::RunLayout &lay)
{
    w.u8(static_cast<std::uint8_t>(lay.level));
    w.u64(lay.numNodes);
    w.array(lay.seed);
    w.array(lay.dur);

    w.u64(lay.edges.size());
    char *p = w.grow(lay.edges.size() * kEdgeBytes);
    for (const auto &e : lay.edges) {
        storeLe(p, static_cast<std::uint32_t>(e.src));
        storeLe(p + 4, static_cast<std::uint32_t>(e.dst));
        storeLe(p + 8, e.weight);
        p += kEdgeBytes;
    }
    w.u64(lay.floor);

    w.u64(lay.fifos.size());
    for (const opt::FifoLayout &fl : lay.fifos) {
        w.array(fl.readNode);
        w.array(fl.writeNode);
        w.array(fl.writeBlocking);
    }

    w.u64(lay.cons.size());
    p = w.grow(lay.cons.size() * kConsBytes);
    for (const opt::LayoutCons &c : lay.cons) {
        storeLe(p, c.origIndex);
        storeLe(p + 4, c.fifo);
        storeLe(p + 8, c.index);
        storeLe(p + 12, c.node);
        storeLe(p + 16, static_cast<std::uint8_t>(c.kind));
        storeLe(p + 17, static_cast<std::uint8_t>(c.outcome ? 1 : 0));
        p += kConsBytes;
    }

    const opt::CompileStats &st = lay.stats;
    w.u64(st.origNodes);
    w.u64(st.origEdges);
    w.u64(st.origConstraints);
    w.u64(st.passes.size());
    for (const opt::PassStats &ps : st.passes) {
        w.str(ps.pass);
        w.u64(ps.nodesEliminated);
        w.u64(ps.edgesEliminated);
        w.u64(ps.constraintsEliminated);
    }
}

/** Read the layout section and fill in the post-pass statistics it
 *  implies; the caller validates it before rebuilding the accessor
 *  arrays. */
void
decodeLayout(ByteReader &r, opt::RunLayout &lay)
{
    const std::uint8_t level = r.u8();
    if (level > static_cast<std::uint8_t>(opt::OptLevel::O1))
        omnisim_fatal("run file corrupt: optimization level %u out of "
                      "range", level);
    lay.level = static_cast<opt::OptLevel>(level);
    lay.numNodes = static_cast<std::size_t>(r.u64());
    r.array(lay.seed);
    r.array(lay.dur);

    const std::size_t edgeCount = r.count(kEdgeBytes);
    const char *p = r.take(edgeCount * kEdgeBytes);
    lay.edges.resize(edgeCount);
    for (auto &e : lay.edges) {
        e.src = loadLe<std::uint32_t>(p);
        e.dst = loadLe<std::uint32_t>(p + 4);
        e.weight = loadLe<std::uint64_t>(p + 8);
        p += kEdgeBytes;
    }
    lay.floor = r.u64();

    lay.fifos.resize(r.count(3 * 8));
    for (opt::FifoLayout &fl : lay.fifos) {
        r.array(fl.readNode);
        r.array(fl.writeNode);
        r.array(fl.writeBlocking);
    }

    const std::size_t consCount = r.count(kConsBytes);
    p = r.take(consCount * kConsBytes);
    lay.cons.resize(consCount);
    for (opt::LayoutCons &c : lay.cons) {
        c.origIndex = loadLe<std::uint32_t>(p);
        c.fifo = loadLe<std::uint32_t>(p + 4);
        c.index = loadLe<std::uint32_t>(p + 8);
        c.node = loadLe<std::uint32_t>(p + 12);
        const std::uint8_t kind = loadLe<std::uint8_t>(p + 16);
        if (kind > kMaxEventKind)
            omnisim_fatal("run file corrupt: constraint kind %u out of "
                          "range", kind);
        c.kind = static_cast<EventKind>(kind);
        c.outcome = p[17] != 0;
        p += kConsBytes;
    }

    opt::CompileStats &st = lay.stats;
    st.origNodes = r.u64();
    st.origEdges = r.u64();
    st.origConstraints = r.u64();
    st.passes.resize(r.count(8 + 3 * 8));
    for (opt::PassStats &ps : st.passes) {
        ps.pass = r.str();
        ps.nodesEliminated = r.u64();
        ps.edgesEliminated = r.u64();
        ps.constraintsEliminated = r.u64();
    }
    st.level = lay.level;
    st.optNodes = lay.numNodes;
    st.optEdges = lay.edges.size();
    st.keptConstraints = lay.cons.size();
}

/** Header and payload checks, every section, then the one layout
 *  validator; the result is safe to freeze. */
DecodedRun
decodeRun(std::string_view bytes)
{
    ByteReader r(bytes);
    const std::string_view magic = r.raw(sizeof(kRunMagic));
    if (magic != std::string_view(kRunMagic, sizeof(kRunMagic)))
        omnisim_fatal("not an OmniSim run file (bad magic)");
    const std::uint32_t version = r.u32();
    if (version != kRunFormatVersion)
        omnisim_fatal("run file format version %u unsupported (this "
                      "build reads version %u)", version,
                      kRunFormatVersion);
    const std::uint64_t checksum = r.u64();
    const std::uint64_t size = r.u64();
    if (size != r.remaining())
        omnisim_fatal("run file corrupt: payload size %llu != %zu "
                      "remaining bytes",
                      static_cast<unsigned long long>(size), r.remaining());
    const std::string_view payload = r.raw(static_cast<std::size_t>(size));
    if (payloadChecksum(payload) != checksum)
        omnisim_fatal("run file corrupt: payload checksum mismatch");

    DecodedRun d;
    ByteReader pr(payload);
    d.meta.design = pr.str();
    d.meta.engine = pr.str();
    d.meta.fingerprint = pr.u64();
    pr.array(d.depths);
    d.labels.resize(pr.count(8));
    for (std::string &label : d.labels)
        label = pr.str();
    decodeResult(pr, d.result);
    decodeLayout(pr, d.layout);
    if (!pr.atEnd())
        omnisim_fatal("run file corrupt: %zu trailing bytes after the "
                      "layout", pr.remaining());

    if (d.labels.size() != d.depths.size() ||
        d.layout.fifos.size() != d.depths.size())
        omnisim_fatal("run file invalid: %zu depths, %zu labels and %zu "
                      "fifo maps", d.depths.size(), d.labels.size(),
                      d.layout.fifos.size());
    for (const std::uint32_t depth : d.depths)
        if (depth < 1)
            omnisim_fatal("run file invalid: zero FIFO depth");
    if (d.result.status != SimStatus::Ok)
        omnisim_fatal("run file invalid: recorded status is '%s', only "
                      "successful runs are storable",
                      simStatusName(d.result.status));

    opt::VerifyContext ctx;
    ctx.pass = "rehydrate";
    opt::verifyIndices(d.layout, ctx);
    d.layout.rebuildAccessMaps();
    if (opt::verifyEnabled())
        opt::verifyLayout(d.layout, ctx); // the rest of the IR checks
    return d;
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
    std::uint64_t h = fnv1aU64(depths.size(), kFnvOffset);
    for (const std::uint32_t d : depths)
        h = fnv1aU64(d, h);
    return h;
}

// ---------------------------------------------------------------------------
// File image.
// ---------------------------------------------------------------------------

std::string
encodeRun(const RunFileMeta &meta, const RunRecord &run)
{
    ByteWriter w;
    w.raw(kRunMagic, sizeof(kRunMagic));
    w.u32(kRunFormatVersion);
    const std::size_t checksumAt = w.size();
    w.u64(0); // checksum and payload size: filled in below
    w.u64(0);
    const std::size_t payloadAt = w.size();

    w.str(meta.design);
    w.str(meta.engine);
    w.u64(meta.fingerprint);
    w.array(run.depths);
    w.u64(run.labels.size());
    for (const std::string &label : run.labels)
        w.str(label);
    encodeResult(w, run.result);
    encodeLayout(w, run.layout);

    const std::string_view payload = w.view().substr(payloadAt);
    storeLe(w.at(checksumAt), payloadChecksum(payload));
    storeLe(w.at(checksumAt + 8),
            static_cast<std::uint64_t>(payload.size()));
    return w.take();
}

// ---------------------------------------------------------------------------
// StoredRun.
// ---------------------------------------------------------------------------

StoredRun::StoredRun(RunFileMeta meta, std::vector<std::uint32_t> depths,
                     std::vector<std::string> labels, SimResult result,
                     opt::RunLayout layout)
    : meta_(std::move(meta)), depths_(std::move(depths)),
      labels_(std::move(labels)), result_(std::move(result)),
      compiled_(std::move(layout), depths_)
{
    if (!compiled_.baselineAcyclic())
        omnisim_fatal("stored run for '%s' has a timing-infeasible "
                      "baseline — file is stale or corrupt",
                      meta_.design.c_str());
}

std::unique_ptr<StoredRun>
StoredRun::decode(std::string_view bytes)
{
    DecodedRun d = decodeRun(bytes);
    return std::unique_ptr<StoredRun>(
        new StoredRun(std::move(d.meta), std::move(d.depths),
                      std::move(d.labels), std::move(d.result),
                      std::move(d.layout)));
}

std::unique_ptr<StoredRun>
StoredRun::open(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        omnisim_fatal("cannot open run file '%s'", path.c_str());
    std::string bytes;
    bool ok = std::fseek(f, 0, SEEK_END) == 0;
    const long size = ok ? std::ftell(f) : -1;
    ok = size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
    if (ok) {
        bytes.resize(static_cast<std::size_t>(size));
        ok = std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size();
    }
    std::fclose(f);
    if (!ok)
        omnisim_fatal("error reading run file '%s'", path.c_str());
    return decode(bytes);
}

IncrementalOutcome
StoredRun::resimulate(const std::vector<std::uint32_t> &depths) const
{
    IncrementalOutcome out;
    if (depths.size() != depths_.size()) {
        out.reason = strf("depth vector has %zu entries; stored run has "
                          "%zu FIFOs", depths.size(), depths_.size());
        return out;
    }

    const CompiledRun::Attempt a = compiled_.resimulate(depths);
    out.viaCompiled = true;
    out.viaDelta = a.viaDelta();
    switch (a.status) {
      case CompiledRun::Attempt::Status::Infeasible:
        out.reason = "new depths make the recorded timing infeasible "
                     "(potential deadlock) — full re-simulation required";
        return out;
      case CompiledRun::Attempt::Status::Diverged: {
        // Only kept constraints can diverge; the layout lists them in
        // ascending recorded order.
        const std::vector<opt::LayoutCons> &cons =
            compiled_.layout().cons;
        const opt::LayoutCons &c = *std::lower_bound(
            cons.begin(), cons.end(), a.constraintIndex,
            [](const opt::LayoutCons &k, std::size_t i) {
                return k.origIndex < i;
            });
        // Labels are the design's FIFO names, so this message is
        // byte-identical to the OmniSim::resimulate() divergence text.
        out.reason = strf(
            "constraint violated: %s #%u on fifo '%s' would now "
            "resolve %s", eventKindName(c.kind), c.index,
            labels_[c.fifo].c_str(), a.nowAnswer ? "true" : "false");
        return out;
      }
      case CompiledRun::Attempt::Status::Reused:
        out.reused = true;
        out.result = result_;
        out.result.totalCycles = a.totalCycles;
        return out;
    }
    omnisim_panic("bad compiled attempt status");
}

} // namespace omnisim::io
