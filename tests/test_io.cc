/** @file Persistent run store tests: every registry design's frozen run
 *  published to a store and reloaded through its file bytes (the
 *  reopened run resimulates bit-identically to the engine and reports
 *  its CompileStats), plus deliberate corruption, truncation,
 *  version-bump and layout tampering — a bad file must always be a
 *  recoverable FatalError, never UB. */

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
#include "obs/metrics.hh"
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

/** A registry design's finished engine run and the parts a run file
 *  records of it. */
struct FinishedRun
{
    Compiled c;
    OmniSim engine;
    SimResult result;
    test::FifoVectors fifos;

    explicit FinishedRun(const std::string &name)
        : c(name), engine(c.cd, checkedOmniSim()), result(engine.run()),
          fifos(c.design)
    {}

    /** The engine's own record, or the same run around @p layout. */
    io::RunRecord
    record(const opt::RunLayout *layout = nullptr) const
    {
        return {fifos.depths, fifos.labels, result,
                layout ? *layout : engine.compiledRun().layout()};
    }

    std::string
    image(const opt::RunLayout *layout = nullptr) const
    {
        return io::encodeRun({c.design.name(), "omnisim", 1},
                             record(layout));
    }
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
    // Every registered design: run once, publish the engine's frozen run
    // to a store, load it back through the file's bytes exactly as a
    // fresh process would, then drive both the stored and the live
    // engine through randomized depth probes. Decisions, totals,
    // divergence messages, functional outputs and compile statistics
    // must match bit-for-bit; a few reused probes additionally check
    // against a fresh full simulation as ground truth.
    TempDir dir("registry");
    io::RunStore store(dir.path);
    std::size_t designsCovered = 0, reused = 0, diverged = 0;
    for (const auto *suite :
         {&designs::typeBCDesigns(), &designs::typeADesigns()}) {
        for (const auto &entry : *suite) {
            Design d = entry.build();
            if (d.fifos().empty())
                continue;
            const CompiledDesign cd = compile(d);
            OmniSim engine(cd, checkedOmniSim());
            const SimResult r = engine.run();
            if (r.status != SimStatus::Ok)
                continue;

            const test::FifoVectors fifos(d);
            const std::vector<std::uint32_t> &base = fifos.depths;
            const io::RunRecord live{base, fifos.labels, r,
                                     engine.compiledRun().layout()};
            const std::uint64_t fp = io::designFingerprint(d);
            ASSERT_TRUE(store.publish(entry.name, "omnisim", fp, live));
            const std::unique_ptr<io::StoredRun> stored =
                store.load(entry.name, "omnisim", fp, base);
            ASSERT_NE(stored, nullptr) << entry.name;
            EXPECT_EQ(stored->meta().design, entry.name);
            EXPECT_EQ(stored->baseDepths(), base) << entry.name;
            EXPECT_EQ(stored->baseline().totalCycles,
                      engine.resimulate(base).result.totalCycles)
                << entry.name;
            EXPECT_EQ(stored->compileStats(), engine.compileStats())
                << entry.name;
            // Every persisted field decodes back unchanged.
            EXPECT_EQ(io::encodeRun(stored->meta(), stored->record()),
                      io::encodeRun(stored->meta(), live))
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
                const IncrementalOutcome fromEngine =
                    engine.resimulate(depths);
                expectIdentical(fromStore, fromEngine, entry.name);
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
    // The whole point: after reopening, resimulate() works without the
    // Design, the DSL, or the trace — only the file's bytes.
    FinishedRun fr("reconvergent");
    ASSERT_EQ(fr.result.status, SimStatus::Ok);

    TempDir dir("standalone");
    const std::string path = (fs::path(dir.path) / "r.omnirun").string();
    std::ofstream(path, std::ios::binary) << fr.image();

    const std::unique_ptr<io::StoredRun> run = io::StoredRun::open(path);
    std::vector<std::uint32_t> deeper = run->baseDepths();
    for (auto &d : deeper)
        d += 4;
    const IncrementalOutcome out = run->resimulate(deeper);
    ASSERT_TRUE(out.reused) << out.reason;
    EXPECT_EQ(out.result.totalCycles,
              fr.engine.resimulate(deeper).result.totalCycles);
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
    const FinishedRun fr("fifo_chain");
    ASSERT_EQ(fr.result.status, SimStatus::Ok);
    const std::string image = fr.image();

    std::size_t rejected = 0;
    for (std::size_t len = 0; len < image.size();
         len += 1 + len / 97) {
        EXPECT_THROW(
            io::StoredRun::decode(std::string_view(image).substr(0, len)),
            FatalError)
            << "prefix length " << len;
        ++rejected;
    }
    EXPECT_GT(rejected, 100u);

    // And the untruncated image still decodes.
    EXPECT_NO_THROW(io::StoredRun::decode(image));
}

TEST(RunIo, BitFlipsAlwaysRejected)
{
    const FinishedRun fr("fifo_chain");
    ASSERT_EQ(fr.result.status, SimStatus::Ok);
    const std::string image = fr.image();

    // Flip one bit at a spread of positions: the checksum (or, for
    // header bytes, the magic/version/size checks) must catch each one.
    Prng prng(0xb17f11b);
    for (int i = 0; i < 64; ++i) {
        std::string bad = image;
        const std::size_t pos = prng.below(bad.size());
        bad[pos] = static_cast<char>(
            bad[pos] ^ static_cast<char>(1u << prng.below(8)));
        EXPECT_THROW(io::StoredRun::decode(bad), FatalError)
            << "flipped byte " << pos;
    }
}

TEST(RunIo, PayloadChecksumSeesEveryWordAndTailByte)
{
    // The checksum folds 8-byte words; a change to any single word or
    // tail byte must move it, whatever the position.
    std::string bytes(8 * 5 + 3, '\0');
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>(i * 37 + 11);
    const std::uint64_t sum = io::payloadChecksum(bytes);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0x80);
        EXPECT_NE(io::payloadChecksum(bad), sum) << "byte " << i;
    }
    EXPECT_NE(io::payloadChecksum(bytes.substr(0, bytes.size() - 1)),
              sum);
}

TEST(RunIo, VersionBumpRejected)
{
    const FinishedRun fr("fifo_chain");
    ASSERT_EQ(fr.result.status, SimStatus::Ok);
    const std::string image = fr.image();

    // A newer version and the previous one are both rejected: only the
    // current version decodes, and a store counts any other as a miss.
    for (const std::uint32_t version :
         {io::kRunFormatVersion + 1, io::kRunFormatVersion - 1}) {
        std::string bad = image;
        // The u32 format version sits right after the 8-byte magic.
        bad[8] = static_cast<char>(version);
        try {
            io::StoredRun::decode(bad);
            ADD_FAILURE() << "version " << version << " not rejected";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("version"),
                      std::string::npos);
        }
    }
}

/** Wrap @p payload in an honest header (right size and checksum), so
 *  only the payload parser and validator can object to it. */
std::string
withHeader(const std::string &payload)
{
    io::ByteWriter file;
    file.raw(io::kRunMagic, sizeof(io::kRunMagic));
    file.u32(io::kRunFormatVersion);
    file.u64(io::payloadChecksum(payload));
    file.u64(payload.size());
    file.raw(payload.data(), payload.size());
    return file.take();
}

TEST(RunIo, TruncatedLayoutSectionRejected)
{
    // Cut bytes out of the trailing layout section while keeping the
    // header (size + checksum) honest, so only the section parser
    // itself can object — it must throw FatalError, never crash.
    const FinishedRun fr("fifo_chain");
    ASSERT_EQ(fr.result.status, SimStatus::Ok);
    const std::string image = fr.image();
    // The image of an empty layout differs only in that section, so the
    // size difference bounds it from below: every cut stays inside it.
    const opt::RunLayout empty;
    const std::size_t layoutBytes = image.size() - fr.image(&empty).size();
    ASSERT_GT(layoutBytes, 16u);
    const std::size_t hdr = 8 + 4 + 8 + 8;

    for (std::size_t cut = 1; cut < layoutBytes; cut += 1 + cut / 13) {
        EXPECT_THROW(io::StoredRun::decode(withHeader(
                         image.substr(hdr, image.size() - hdr - cut))),
                     FatalError)
            << "cut " << cut << " bytes";
    }
}

TEST(RunIo, LayoutInvariantViolationsRejected)
{
    // A checksum-intact file whose layout breaks an invariant the
    // solver's unchecked indexing relies on must be rejected on decode.
    // fig4_ex5 keeps most of its recorded constraints at -O1, so the
    // constraint-shaped tampers below actually exercise the checks.
    const FinishedRun fr("fig4_ex5");
    ASSERT_EQ(fr.result.status, SimStatus::Ok);
    const opt::RunLayout &lay = fr.engine.compiledRun().layout();
    ASSERT_FALSE(lay.fifos.empty());
    ASSERT_FALSE(lay.cons.empty());
    EXPECT_NO_THROW(io::StoredRun::decode(fr.image()));

    // Each tamper must be rejected, and by the check meant for it.
    std::size_t tampers = 0;
    const auto expectRejected = [&](const opt::RunLayout &bad,
                                    const char *why) {
        ++tampers;
        try {
            io::StoredRun::decode(fr.image(&bad));
            ADD_FAILURE() << "accepted a layout that should fail " << why;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
                << e.what();
        }
    };
    {
        opt::RunLayout bad = lay; // seeds and durations miss a node
        bad.numNodes += 1;
        expectRejected(bad, "[shape]");
    }
    {
        opt::RunLayout bad = lay; // an edge outside the layout
        bad.edges.push_back({bad.numNodes + 3, 0, 1});
        expectRejected(bad, "[csr-sorted]");
    }
    {
        opt::RunLayout bad = lay; // fewer fifo maps than depths
        bad.fifos.pop_back();
        expectRejected(bad, "fifo maps");
    }
    {
        opt::RunLayout bad = lay; // more reads than writes
        opt::FifoLayout &fl = bad.fifos[0];
        fl.readNode.resize(fl.writeNode.size() + 1, opt::kNoNode);
        expectRejected(bad, "[fifo-cap]");
    }
    {
        opt::RunLayout bad = lay; // a write entry outside the layout
        ASSERT_FALSE(bad.fifos[0].writeNode.empty());
        bad.fifos[0].writeNode.back() =
            static_cast<std::uint32_t>(bad.numNodes);
        expectRejected(bad, "[fifo-cap]");
    }
    {
        opt::RunLayout bad = lay; // a blocking flag without a write
        bad.fifos[0].writeBlocking.push_back(1);
        expectRejected(bad, "[fifo-cap]");
    }
    {
        opt::RunLayout bad = lay; // kept past the recorded count
        bad.cons.back().origIndex =
            static_cast<std::uint32_t>(bad.stats.origConstraints);
        expectRejected(bad, "[cons-addressable]");
    }
    if (lay.cons.size() >= 2) {
        opt::RunLayout bad = lay; // out of recorded order
        std::swap(bad.cons.front().origIndex, bad.cons.back().origIndex);
        expectRejected(bad, "[cons-addressable]");
    }
    {
        opt::RunLayout bad = lay; // query node outside the layout
        bad.cons.front().node = static_cast<std::uint32_t>(bad.numNodes);
        expectRejected(bad, "[cons-addressable]");
    }
    {
        opt::RunLayout bad = lay; // names a missing fifo
        bad.cons.front().fifo = static_cast<std::uint32_t>(bad.fifos.size());
        expectRejected(bad, "[cons-addressable]");
    }
    {
        opt::RunLayout bad = lay; // not a query kind
        bad.cons.front().kind = EventKind::FifoRead;
        expectRejected(bad, "[cons-addressable]");
    }
    {
        opt::RunLayout bad = lay; // access indices are 1-based
        bad.cons.front().index = 0;
        expectRejected(bad, "[cons-addressable]");
    }
    // Drop a kept read query's pinned target write entry, and a kept
    // write query's pinned target read entry.
    bool droppedWrite = false, droppedRead = false;
    for (const opt::LayoutCons &c : lay.cons) {
        const opt::FifoLayout &fl = lay.fifos[c.fifo];
        const bool readKind = c.kind == EventKind::FifoNbRead ||
                              c.kind == EventKind::FifoCanRead;
        if (readKind && !droppedWrite && c.index <= fl.writeNode.size()) {
            opt::RunLayout bad = lay;
            bad.fifos[c.fifo].writeNode[c.index - 1] = opt::kNoNode;
            expectRejected(bad, "[cons-addressable]");
            droppedWrite = true;
        } else if (!readKind && !droppedRead && c.index >= 2 &&
                   !fl.readNode.empty()) {
            opt::RunLayout bad = lay;
            bad.fifos[c.fifo].readNode[0] = opt::kNoNode;
            expectRejected(bad, "[cons-addressable]");
            droppedRead = true;
        }
    }
    EXPECT_TRUE(droppedWrite || droppedRead);
    EXPECT_GE(tampers, 12u);
}

TEST(RunIo, BadMagicRejected)
{
    EXPECT_THROW(io::StoredRun::decode("definitely not a run file"),
                 FatalError);
    EXPECT_THROW(io::StoredRun::decode(""), FatalError);
}

TEST(RunIo, SemanticCorruptionRejected)
{
    // A file whose bytes are intact (checksum valid) but whose run is
    // not storable must still be rejected: encode a tampered record.
    const FinishedRun fr("fifo_chain");
    ASSERT_EQ(fr.result.status, SimStatus::Ok);
    const opt::RunLayout &lay = fr.engine.compiledRun().layout();
    const std::vector<std::uint32_t> &depths = fr.fifos.depths;
    const std::vector<std::string> &labels = fr.fifos.labels;
    const auto decodes = [&](const io::RunRecord &run) {
        return io::StoredRun::decode(
            io::encodeRun({"fifo_chain", "omnisim", 1}, run));
    };
    ASSERT_FALSE(depths.empty());
    EXPECT_NO_THROW(decodes({depths, labels, fr.result, lay}));
    {
        std::vector<std::uint32_t> bad = depths;
        bad[0] = 0;
        EXPECT_THROW(decodes({bad, labels, fr.result, lay}), FatalError);
    }
    {
        SimResult bad = fr.result;
        bad.status = SimStatus::Deadlock;
        EXPECT_THROW(decodes({depths, labels, bad, lay}), FatalError);
    }
    {
        std::vector<std::string> bad = labels;
        bad.pop_back();
        EXPECT_THROW(decodes({depths, bad, fr.result, lay}), FatalError);
    }
    {
        std::vector<std::uint32_t> moreDepths = depths;
        moreDepths.push_back(1);
        std::vector<std::string> moreLabels = labels;
        moreLabels.push_back("extra");
        EXPECT_THROW(decodes({moreDepths, moreLabels, fr.result, lay}),
                     FatalError);
    }
}

TEST(RunStore, PublishLoadRoundTrip)
{
    TempDir dir("store_roundtrip");
    io::RunStore store(dir.path);

    const FinishedRun fr("reconvergent");
    ASSERT_EQ(fr.result.status, SimStatus::Ok);
    const std::uint64_t fp = io::designFingerprint(fr.c.design);
    const std::vector<std::uint32_t> &depths = fr.fifos.depths;

    ASSERT_TRUE(store.publish("reconvergent", "omnisim", fp, fr.record()));
    EXPECT_EQ(store.count("reconvergent", "omnisim"), 1u);

    const std::unique_ptr<io::StoredRun> run =
        store.load("reconvergent", "omnisim", fp, depths);
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->baseline().totalCycles, fr.result.totalCycles);

    // Wrong fingerprint (a structurally-changed design) is a miss, not
    // an error; so is an unknown depth vector.
    EXPECT_EQ(store.load("reconvergent", "omnisim", fp + 1, depths),
              nullptr);
    std::vector<std::uint32_t> other = depths;
    other[0] += 1;
    EXPECT_EQ(store.load("reconvergent", "omnisim", fp, other), nullptr);

    // Re-publication overwrites atomically, never accumulates.
    ASSERT_TRUE(store.publish("reconvergent", "omnisim", fp, fr.record()));
    EXPECT_EQ(store.count("reconvergent", "omnisim"), 1u);
}

TEST(RunStore, CorruptFilesAreSkippedNotFatal)
{
    TempDir dir("store_corrupt");
    io::RunStore store(dir.path);
    obs::Counter &misses =
        obs::Registry::global().counter("store.load_misses");

    const FinishedRun fr("fifo_chain");
    ASSERT_EQ(fr.result.status, SimStatus::Ok);
    const std::uint64_t fp = io::designFingerprint(fr.c.design);
    const std::vector<std::uint32_t> &depths = fr.fifos.depths;
    ASSERT_TRUE(store.publish("fifo_chain", "omnisim", fp, fr.record()));

    // Truncate the published file in place.
    const std::string path = store.pathFor("fifo_chain", "omnisim", depths);
    fs::resize_file(path, fs::file_size(path) / 2);

    // Both loaders skip the corpse and count it as a miss.
    std::uint64_t before = misses.value();
    EXPECT_EQ(store.load("fifo_chain", "omnisim", fp, depths), nullptr);
    EXPECT_EQ(misses.value(), before + 1);
    before = misses.value();
    EXPECT_TRUE(store.loadAll("fifo_chain", "omnisim", fp, 8).empty());
    EXPECT_EQ(misses.value(), before + 1);

    // Publishing again replaces the corpse and loads work again.
    ASSERT_TRUE(store.publish("fifo_chain", "omnisim", fp, fr.record()));
    EXPECT_NE(store.load("fifo_chain", "omnisim", fp, depths), nullptr);

    // A readable file recorded against another design revision is a
    // miss for both loaders too.
    before = misses.value();
    EXPECT_EQ(store.load("fifo_chain", "omnisim", fp + 1, depths), nullptr);
    EXPECT_EQ(misses.value(), before + 1);
    before = misses.value();
    EXPECT_TRUE(store.loadAll("fifo_chain", "omnisim", fp + 1, 8).empty());
    EXPECT_EQ(misses.value(), before + 1);
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

TEST(RunStore, KeyHashesKeepTheirValues)
{
    // File names carry the depth hash and every file carries the design
    // fingerprint: a change to either value orphans every published run.
    EXPECT_EQ(io::depthVectorHash({2, 2}), 0xeb0a27bf10e6da21ull);
    EXPECT_EQ(io::designFingerprint(
                  designs::findDesign("fifo_chain").build()),
              0xe0a825d6fc1ded97ull);
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
