/** @file Persistent run store tests: round-trip bit-identity across the
 *  design registry (serialize -> reload -> resimulate equals the
 *  in-process engine and fresh-run ground truth), plus deliberate
 *  corruption, truncation, and version-bump rejection — a bad file must
 *  always be a recoverable FatalError, never UB. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "design/context.hh"
#include "dse/dse.hh"
#include "helpers.hh"
#include "io/run_io.hh"
#include "io/run_store.hh"
#include "io/serial.hh"
#include "support/prng.hh"

namespace omnisim
{
namespace
{

namespace fs = std::filesystem;

using test::checkedOmniSim;
using test::Compiled;

/** Deterministic per-design PRNG seed (std::hash is not portable). */
std::uint64_t
nameSeed(const std::string &name)
{
    return io::fnv1a(name);
}

/** Fresh temp directory under the build-tree scratch root. */
struct TempDir
{
    std::string path;

    explicit TempDir(const std::string &tag)
        : path(test::scratchDir("io_" + tag).string())
    {}

    ~TempDir() { fs::remove_all(path); }
};

void
expectIdentical(const IncrementalOutcome &stored,
                const IncrementalOutcome &live, const std::string &what)
{
    ASSERT_EQ(stored.reused, live.reused)
        << what << ": stored says '" << stored.reason << "', live says '"
        << live.reason << "'";
    EXPECT_EQ(stored.reason, live.reason) << what;
    EXPECT_EQ(stored.viaDelta, live.viaDelta) << what;
    if (stored.reused) {
        EXPECT_EQ(stored.result.totalCycles, live.result.totalCycles)
            << what;
        EXPECT_EQ(stored.result.memories, live.result.memories) << what;
    }
}

TEST(RunIo, RegistryRoundTripBitIdentity)
{
    // Every registered design: run once, serialize, decode into a
    // StoredRun (through actual bytes, not object copies), then drive
    // both the stored and the live engine through randomized depth
    // probes. Decisions, totals, divergence messages, and functional
    // outputs must match bit-for-bit; a few reused probes additionally
    // check against a fresh full simulation as ground truth.
    std::size_t designsCovered = 0, reused = 0, diverged = 0;
    for (const auto *suite :
         {&designs::typeBCDesigns(), &designs::typeADesigns()}) {
        for (const auto &entry : *suite) {
            Design d = entry.build();
            if (d.fifos().empty())
                continue;
            const CompiledDesign cd = compile(d);
            OmniSim engine(cd, checkedOmniSim());
            if (engine.run().status != SimStatus::Ok)
                continue;
            RunSnapshot snap;
            ASSERT_TRUE(engine.exportSnapshot(snap)) << entry.name;

            io::RunFileMeta meta;
            meta.design = entry.name;
            meta.engine = "omnisim";
            meta.fingerprint = io::designFingerprint(d);
            const std::string image = io::encodeRun(meta, snap);

            io::RunFileMeta meta2;
            RunSnapshot snap2;
            io::decodeRun(image, meta2, snap2);
            EXPECT_EQ(meta2.design, entry.name);
            EXPECT_EQ(meta2.fingerprint, meta.fingerprint);
            const std::unique_ptr<io::StoredRun> stored =
                io::StoredRun::rehydrate(std::move(snap2), meta2);

            std::vector<std::uint32_t> base;
            for (const auto &f : d.fifos())
                base.push_back(f.depth);
            EXPECT_EQ(stored->baseDepths(), base) << entry.name;
            EXPECT_EQ(stored->baseline().totalCycles,
                      engine.resimulate(base).result.totalCycles)
                << entry.name;

            Prng prng(nameSeed(entry.name));
            std::size_t groundTruthBudget = 2;
            for (int probe = 0; probe < 16; ++probe) {
                std::vector<std::uint32_t> depths = base;
                const std::size_t touches = 1 + prng.below(base.size());
                for (std::size_t k = 0; k < touches; ++k)
                    depths[prng.below(base.size())] =
                        static_cast<std::uint32_t>(1 + prng.below(20));

                const IncrementalOutcome fromStore =
                    stored->resimulate(depths);
                const IncrementalOutcome live = engine.resimulate(depths);
                expectIdentical(fromStore, live, entry.name);
                if (!fromStore.reused) {
                    ++diverged;
                    continue;
                }
                ++reused;
                if (groundTruthBudget > 0 && depths != base) {
                    --groundTruthBudget;
                    Design fresh = entry.build();
                    for (std::size_t f = 0; f < depths.size(); ++f)
                        fresh.setFifoDepth(static_cast<FifoId>(f),
                                           depths[f]);
                    const CompiledDesign fcd = compile(fresh);
                    const SimResult full =
                        simulateOmniSim(fcd, checkedOmniSim());
                    ASSERT_EQ(full.status, SimStatus::Ok) << entry.name;
                    EXPECT_EQ(fromStore.result.totalCycles,
                              full.totalCycles) << entry.name;
                    EXPECT_EQ(fromStore.result.memories, full.memories)
                        << entry.name;
                }
            }
            ++designsCovered;
        }
    }
    EXPECT_GT(designsCovered, 10u);
    EXPECT_GT(reused, 0u);
    EXPECT_GT(diverged, 0u);
}

TEST(RunIo, StoredRunServesWithoutTheDesign)
{
    // The whole point: after rehydration, resimulate() works without
    // the Design, the DSL, or the trace — only the file's bytes.
    Compiled c("reconvergent");
    OmniSim engine(c.cd, checkedOmniSim());
    ASSERT_EQ(engine.run().status, SimStatus::Ok);
    RunSnapshot snap;
    ASSERT_TRUE(engine.exportSnapshot(snap));
    io::RunFileMeta meta;
    meta.design = "reconvergent";
    meta.engine = "omnisim";
    const std::string image = io::encodeRun(meta, snap);

    TempDir dir("standalone");
    const std::string path = (fs::path(dir.path) / "r.omnirun").string();
    std::ofstream(path, std::ios::binary) << image;

    const std::unique_ptr<io::StoredRun> run = io::StoredRun::open(path);
    std::vector<std::uint32_t> deeper = run->baseDepths();
    for (auto &d : deeper)
        d += 4;
    const IncrementalOutcome out = run->resimulate(deeper);
    ASSERT_TRUE(out.reused) << out.reason;
    EXPECT_EQ(out.result.totalCycles,
              engine.resimulate(deeper).result.totalCycles);
}

TEST(RunIo, ExportRequiresAValidRun)
{
    Compiled c("fifo_chain");
    OmniSim engine(c.cd, checkedOmniSim());
    RunSnapshot snap;
    EXPECT_FALSE(engine.exportSnapshot(snap)); // run() not called yet
}

TEST(RunIo, TruncationAlwaysRejected)
{
    // Every prefix of a valid file (sampled densely near section
    // boundaries via a stride) must throw FatalError — never crash,
    // never succeed.
    Compiled c("fifo_chain");
    OmniSim engine(c.cd, checkedOmniSim());
    ASSERT_EQ(engine.run().status, SimStatus::Ok);
    RunSnapshot snap;
    ASSERT_TRUE(engine.exportSnapshot(snap));
    const std::string image = io::encodeRun({"fifo_chain", "omnisim", 1},
                                            snap);

    std::size_t rejected = 0;
    for (std::size_t len = 0; len < image.size();
         len += 1 + len / 97) {
        io::RunFileMeta meta;
        RunSnapshot out;
        EXPECT_THROW(io::decodeRun(std::string_view(image).substr(0, len),
                                   meta, out),
                     FatalError)
            << "prefix length " << len;
        ++rejected;
    }
    EXPECT_GT(rejected, 100u);

    // And the untruncated image still decodes.
    io::RunFileMeta meta;
    RunSnapshot out;
    EXPECT_NO_THROW(io::decodeRun(image, meta, out));
}

TEST(RunIo, BitFlipsAlwaysRejected)
{
    Compiled c("fifo_chain");
    OmniSim engine(c.cd, checkedOmniSim());
    ASSERT_EQ(engine.run().status, SimStatus::Ok);
    RunSnapshot snap;
    ASSERT_TRUE(engine.exportSnapshot(snap));
    const std::string image = io::encodeRun({"fifo_chain", "omnisim", 1},
                                            snap);

    // Flip one bit at a spread of positions: the checksum (or, for
    // header bytes, the magic/version/size checks) must catch each one.
    Prng prng(0xb17f11b);
    for (int i = 0; i < 64; ++i) {
        std::string bad = image;
        const std::size_t pos = prng.below(bad.size());
        bad[pos] = static_cast<char>(
            bad[pos] ^ static_cast<char>(1u << prng.below(8)));
        io::RunFileMeta meta;
        RunSnapshot out;
        EXPECT_THROW(io::decodeRun(bad, meta, out), FatalError)
            << "flipped byte " << pos;
    }
}

TEST(RunIo, VersionBumpRejected)
{
    Compiled c("fifo_chain");
    OmniSim engine(c.cd, checkedOmniSim());
    ASSERT_EQ(engine.run().status, SimStatus::Ok);
    RunSnapshot snap;
    ASSERT_TRUE(engine.exportSnapshot(snap));
    const std::string image =
        io::encodeRun({"fifo_chain", "omnisim", 1}, snap);

    // A newer version and the previous one are both rejected: only the
    // current version decodes, and a store counts any other as a miss.
    for (const std::uint32_t version :
         {io::kRunFormatVersion + 1, io::kRunFormatVersion - 1}) {
        std::string bad = image;
        // The u32 format version sits right after the 8-byte magic.
        bad[8] = static_cast<char>(version);
        io::RunFileMeta meta;
        RunSnapshot out;
        try {
            io::decodeRun(bad, meta, out);
            ADD_FAILURE() << "version " << version << " not rejected";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("version"),
                      std::string::npos);
        }
    }
}

TEST(RunIo, TruncatedLayoutSectionRejected)
{
    // Cut bytes out of the trailing layout section while keeping the
    // header (size + checksum) honest, so only the section parser
    // itself can object — it must throw FatalError, never crash.
    Compiled c("fifo_chain");
    OmniSim engine(c.cd, checkedOmniSim());
    ASSERT_EQ(engine.run().status, SimStatus::Ok);
    RunSnapshot snap;
    ASSERT_TRUE(engine.exportSnapshot(snap));
    const io::RunFileMeta meta{"fifo_chain", "omnisim", 1};
    const std::string image = io::encodeRun(meta, snap);
    // The image of an empty layout differs only in that section, so the
    // size difference bounds it from below: every cut stays inside it.
    const opt::RunLayout empty;
    const std::size_t layoutBytes =
        image.size() - io::encodeRun(meta, snap, &empty).size();
    ASSERT_GT(layoutBytes, 16u);
    const std::size_t hdr = 8 + 4 + 8 + 8;

    for (std::size_t cut = 1; cut < layoutBytes; cut += 1 + cut / 13) {
        const std::string payload =
            image.substr(hdr, image.size() - hdr - cut);
        io::ByteWriter file;
        file.raw(io::kRunMagic, sizeof(io::kRunMagic));
        file.u32(io::kRunFormatVersion);
        file.u64(io::fnv1a(payload));
        file.u64(payload.size());
        file.raw(payload.data(), payload.size());
        io::RunFileMeta m;
        RunSnapshot out;
        opt::RunLayout lay;
        EXPECT_THROW(io::decodeRun(file.take(), m, out, lay),
                     FatalError)
            << "cut " << cut << " bytes";
    }
}

TEST(RunIo, LayoutInvariantViolationsRejected)
{
    // A checksum-intact layout section whose content breaks a solver
    // invariant must be rejected by validateRunLayout — these are the
    // invariants evalConstraint's unchecked indexing relies on.
    // fig4_ex5 keeps most of its recorded constraints at -O1, so
    // the constraint-shaped tampers below actually exercise the checks.
    Compiled c("fig4_ex5");
    OmniSim engine(c.cd, checkedOmniSim());
    ASSERT_EQ(engine.run().status, SimStatus::Ok);
    RunSnapshot snap;
    ASSERT_TRUE(engine.exportSnapshot(snap));
    const std::string image = io::encodeRun({"fig4_ex5", "omnisim", 1},
                                            snap);
    io::RunFileMeta meta;
    RunSnapshot out;
    opt::RunLayout lay;
    io::decodeRun(image, meta, out, lay);
    EXPECT_NO_THROW(io::validateRunLayout(out, lay));

    {
        opt::RunLayout bad = lay;
        bad.numNodes = out.nodes.size() + 1;
        EXPECT_THROW(io::validateRunLayout(out, bad), FatalError);
    }
    {
        opt::RunLayout bad = lay;
        ASSERT_FALSE(bad.remap.empty());
        bad.remap.pop_back();
        EXPECT_THROW(io::validateRunLayout(out, bad), FatalError);
    }
    {
        opt::RunLayout bad = lay;
        bad.edges.push_back({bad.numNodes + 3, 0, 1});
        EXPECT_THROW(io::validateRunLayout(out, bad), FatalError);
    }
    {
        opt::RunLayout bad = lay;
        ASSERT_FALSE(bad.fifos.empty());
        bad.fifos[0].readNode.push_back(0);
        EXPECT_THROW(io::validateRunLayout(out, bad), FatalError);
    }
    {
        opt::RunLayout bad = lay;
        ASSERT_FALSE(bad.cons.empty());
        bad.cons.back().origIndex =
            static_cast<std::uint32_t>(out.constraints.size());
        EXPECT_THROW(io::validateRunLayout(out, bad), FatalError);
    }
    if (lay.cons.size() >= 2) {
        opt::RunLayout bad = lay;
        std::swap(bad.cons.front().origIndex, bad.cons.back().origIndex);
        EXPECT_THROW(io::validateRunLayout(out, bad), FatalError);
    }
    // Drop a kept read query's pinned target write entry.
    for (const opt::LayoutCons &cons : lay.cons) {
        const QueryRecord &qr = out.constraints[cons.origIndex];
        if ((qr.kind == EventKind::FifoNbRead ||
             qr.kind == EventKind::FifoCanRead) &&
            qr.index <= lay.fifos[qr.fifo].writeNode.size()) {
            opt::RunLayout bad = lay;
            bad.fifos[qr.fifo].writeNode[qr.index - 1] = opt::kNoNode;
            EXPECT_THROW(io::validateRunLayout(out, bad), FatalError);
            break;
        }
    }
}

TEST(RunIo, BadMagicRejected)
{
    io::RunFileMeta meta;
    RunSnapshot out;
    EXPECT_THROW(io::decodeRun("definitely not a run file", meta, out),
                 FatalError);
    EXPECT_THROW(io::decodeRun("", meta, out), FatalError);
}

TEST(RunIo, SemanticCorruptionRejected)
{
    // A file whose bytes are intact (checksum valid) but whose content
    // violates a cross-index invariant must still be rejected: rebuild
    // the image around a tampered snapshot.
    Compiled c("fifo_chain");
    OmniSim engine(c.cd, checkedOmniSim());
    ASSERT_EQ(engine.run().status, SimStatus::Ok);
    RunSnapshot good;
    ASSERT_TRUE(engine.exportSnapshot(good));

    {
        RunSnapshot bad = good;
        bad.seed.pop_back(); // seed/node arity mismatch
        EXPECT_THROW(io::validateSnapshot(bad), FatalError);
    }
    {
        RunSnapshot bad = good;
        bad.edges.push_back({bad.nodes.size() + 7, 0, 1});
        EXPECT_THROW(io::validateSnapshot(bad), FatalError);
    }
    {
        RunSnapshot bad = good;
        ASSERT_FALSE(bad.depths.empty());
        bad.depths[0] = 0;
        EXPECT_THROW(io::validateSnapshot(bad), FatalError);
    }
    {
        RunSnapshot bad = good;
        bad.result.status = SimStatus::Deadlock;
        EXPECT_THROW(io::validateSnapshot(bad), FatalError);
    }
    {
        RunSnapshot bad = good;
        QueryRecord qr;
        qr.fifo = 0;
        qr.kind = EventKind::FifoRead; // not a query kind
        qr.index = 1;
        qr.node = 0;
        bad.constraints.push_back(qr);
        EXPECT_THROW(io::validateSnapshot(bad), FatalError);
    }
}

TEST(RunStore, PublishLoadRoundTrip)
{
    TempDir dir("store_roundtrip");
    io::RunStore store(dir.path);

    Compiled c("reconvergent");
    const std::uint64_t fp = io::designFingerprint(c.design);
    OmniSim engine(c.cd, checkedOmniSim());
    ASSERT_EQ(engine.run().status, SimStatus::Ok);
    RunSnapshot snap;
    ASSERT_TRUE(engine.exportSnapshot(snap));

    ASSERT_TRUE(store.publish("reconvergent", "omnisim", fp, snap));
    EXPECT_EQ(store.count("reconvergent", "omnisim"), 1u);

    const std::unique_ptr<io::StoredRun> run =
        store.load("reconvergent", "omnisim", fp, snap.depths);
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->baseline().totalCycles, snap.result.totalCycles);

    // Wrong fingerprint (a structurally-changed design) is a miss, not
    // an error; so is an unknown depth vector.
    EXPECT_EQ(store.load("reconvergent", "omnisim", fp + 1, snap.depths),
              nullptr);
    std::vector<std::uint32_t> other = snap.depths;
    other[0] += 1;
    EXPECT_EQ(store.load("reconvergent", "omnisim", fp, other), nullptr);

    // Re-publication overwrites atomically, never accumulates.
    ASSERT_TRUE(store.publish("reconvergent", "omnisim", fp, snap));
    EXPECT_EQ(store.count("reconvergent", "omnisim"), 1u);
}

TEST(RunStore, CorruptFilesAreSkippedNotFatal)
{
    TempDir dir("store_corrupt");
    io::RunStore store(dir.path);

    Compiled c("fifo_chain");
    const std::uint64_t fp = io::designFingerprint(c.design);
    OmniSim engine(c.cd, checkedOmniSim());
    ASSERT_EQ(engine.run().status, SimStatus::Ok);
    RunSnapshot snap;
    ASSERT_TRUE(engine.exportSnapshot(snap));
    ASSERT_TRUE(store.publish("fifo_chain", "omnisim", fp, snap));

    // Truncate the published file in place.
    const std::string path =
        store.pathFor("fifo_chain", "omnisim", snap.depths);
    fs::resize_file(path, fs::file_size(path) / 2);

    EXPECT_EQ(store.load("fifo_chain", "omnisim", fp, snap.depths),
              nullptr);
    EXPECT_TRUE(
        store.loadAll("fifo_chain", "omnisim", fp, 8).empty());

    // Publishing again replaces the corpse and loads work again.
    ASSERT_TRUE(store.publish("fifo_chain", "omnisim", fp, snap));
    EXPECT_NE(store.load("fifo_chain", "omnisim", fp, snap.depths),
              nullptr);
}

TEST(RunStore, LoadAllWarmStartsTheEvalCache)
{
    TempDir dir("store_warm");
    io::RunStore store(dir.path);
    const designs::DesignEntry &entry =
        designs::findDesign("reconvergent");

    Design d = entry.build();
    std::vector<std::uint32_t> base;
    for (const auto &f : d.fifos())
        base.push_back(f.depth);

    // Process 1: pay for the full run of the registered configuration;
    // the attached store receives it.
    {
        dse::EvalCache cache(entry.build);
        cache.attachStore(&store, "reconvergent");
        EXPECT_EQ(cache.storedWarmStarts(), 0u); // store was empty
        const dse::Evaluation e =
            cache.evaluate(base, /*allowIncremental=*/false);
        ASSERT_TRUE(e.ok());
        EXPECT_EQ(e.method, dse::EvalMethod::FullRun);
        EXPECT_EQ(store.count("reconvergent", "omnisim"), 1u);
    }

    // Process 2 (fresh caches): the same configuration — and nearby
    // reusable ones — resolve incrementally against the rehydrated run
    // without any fresh engine run.
    {
        dse::EvalCache cache(entry.build);
        cache.attachStore(&store, "reconvergent");
        EXPECT_EQ(cache.storedWarmStarts(), 1u);

        const dse::Evaluation e = cache.evaluate(base);
        EXPECT_TRUE(e.ok());
        EXPECT_EQ(e.method, dse::EvalMethod::Incremental);
        EXPECT_EQ(cache.fullRuns(), 0u);

        // Bit-identity of the warm-served evaluation against a fresh
        // engine run of the same configuration.
        const SimResult fresh = simulateOmniSim(compile(d));
        ASSERT_EQ(fresh.status, SimStatus::Ok);
        EXPECT_EQ(e.latency, fresh.totalCycles);
    }

    // A DSE exploration over the warm store also starts from the
    // rehydrated pool instead of an empty one.
    {
        dse::DseOptions opts;
        opts.strategy = "grid";
        opts.budget = 8;
        opts.jobs = 1;
        opts.store = &store;
        const dse::DseReport rep =
            dse::exploreRegistered("reconvergent", opts);
        EXPECT_EQ(rep.storedWarmStarts, 1u);
        EXPECT_GE(store.count("reconvergent", "omnisim"),
                  1u + rep.fullRuns);
    }
}

TEST(RunStore, FingerprintExcludesDepthsButSeesStructure)
{
    Design a = designs::findDesign("reconvergent").build();
    Design b = designs::findDesign("reconvergent").build();
    ASSERT_FALSE(b.fifos().empty());
    b.setFifoDepth(0, b.fifos()[0].depth + 9);
    EXPECT_EQ(io::designFingerprint(a), io::designFingerprint(b))
        << "depths must not change the fingerprint";

    const Design other = designs::findDesign("fifo_chain").build();
    EXPECT_NE(io::designFingerprint(a), io::designFingerprint(other));
}

} // namespace
} // namespace omnisim
