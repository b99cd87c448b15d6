/**
 * @file
 * Direct unit coverage of the graph compilation pipeline (src/opt/):
 * pass-manager determinism, per-pass statistics bookkeeping, the -O0
 * identity layout, and bit-identical resimulate() outcomes across
 * compile levels. The conformance fuzzer covers the same equivalence
 * over random designs; these tests pin it on the registry with exact
 * expectations and survive independent of the fuzz corpus.
 */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "opt/layout.hh"
#include "opt/pass_manager.hh"
#include "support/prng.hh"
#include "support/stats.hh"

using namespace omnisim;

namespace
{

/** Run a registry design and export its snapshot. */
RunSnapshot
snapshotOf(const test::Compiled &c)
{
    OmniSim engine(c.cd);
    EXPECT_EQ(engine.run().status, SimStatus::Ok);
    RunSnapshot snap;
    EXPECT_TRUE(engine.exportSnapshot(snap));
    return snap;
}

opt::RunLayout
compileSnapshot(const RunSnapshot &snap, opt::OptLevel level)
{
    return opt::PassManager(level).compile(
        {&snap.nodes, &snap.edges, &snap.seed, &snap.tables, &snap.depths,
         &snap.constraints, &snap.tailNode, &snap.tailSlack});
}

TEST(Opt, LevelNamesAndPassList)
{
    EXPECT_STREQ(opt::optLevelName(opt::OptLevel::O0), "O0");
    EXPECT_STREQ(opt::optLevelName(opt::OptLevel::O1), "O1");
    EXPECT_TRUE(opt::PassManager(opt::OptLevel::O0).passNames().empty());
    const auto names = opt::PassManager(opt::OptLevel::O1).passNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_STREQ(names[0], "lattice-prune");
    EXPECT_STREQ(names[1], "chain-collapse");
    EXPECT_STREQ(names[2], "dedup");
}

TEST(Opt, IdentityLayoutAtO0)
{
    const test::Compiled c("fifo_chain");
    const RunSnapshot snap = snapshotOf(c);
    const opt::RunLayout lay = compileSnapshot(snap, opt::OptLevel::O0);

    EXPECT_EQ(lay.level, opt::OptLevel::O0);
    EXPECT_EQ(lay.numNodes, snap.nodes.size());
    EXPECT_EQ(lay.edges.size(), snap.edges.size());
    EXPECT_EQ(lay.cons.size(), snap.constraints.size());
    EXPECT_TRUE(lay.stats.passes.empty());
    EXPECT_DOUBLE_EQ(lay.stats.elimination(), 0.0);
    ASSERT_EQ(lay.remap.size(), snap.nodes.size());
    for (std::size_t n = 0; n < lay.remap.size(); ++n)
        EXPECT_EQ(lay.remap[n], static_cast<std::uint32_t>(n));
}

TEST(Opt, StatsAreConsistentAtO1)
{
    const test::Compiled c("fig4_ex5"); // keeps real constraints at -O1
    const RunSnapshot snap = snapshotOf(c);
    const opt::RunLayout lay = compileSnapshot(snap, opt::OptLevel::O1);
    const opt::CompileStats &s = lay.stats;

    EXPECT_EQ(s.level, opt::OptLevel::O1);
    EXPECT_EQ(s.origNodes, snap.nodes.size());
    EXPECT_EQ(s.origEdges, snap.edges.size());
    EXPECT_EQ(s.origConstraints, snap.constraints.size());
    EXPECT_EQ(s.optNodes, lay.numNodes);
    EXPECT_EQ(s.optEdges, lay.edges.size());
    EXPECT_EQ(s.keptConstraints, lay.cons.size());
    EXPECT_LT(s.optNodes, s.origNodes); // the chains do collapse
    EXPECT_GT(s.keptConstraints, 0u);
    EXPECT_GT(s.elimination(), 0.0);
    EXPECT_LE(s.elimination(), 1.0);

    // Per-pass counters must add up to the whole-pipeline deltas.
    std::uint64_t nodesGone = 0, edgesGone = 0, consGone = 0;
    ASSERT_EQ(s.passes.size(), 3u);
    for (const auto &p : s.passes) {
        nodesGone += p.nodesEliminated;
        edgesGone += p.edgesEliminated;
        consGone += p.constraintsEliminated;
    }
    EXPECT_EQ(nodesGone, s.origNodes - s.optNodes);
    // Chain-collapse also *creates* interval edges, so per-pass edge
    // removal counters bound the net delta from above.
    EXPECT_GE(edgesGone, s.origEdges - s.optEdges);
    EXPECT_EQ(consGone, s.origConstraints - s.keptConstraints);

    // Remap: every entry dropped or a live layout id; every kept
    // constraint's query node survived the passes.
    ASSERT_EQ(lay.remap.size(), snap.nodes.size());
    for (const std::uint32_t l : lay.remap)
        EXPECT_TRUE(l == opt::kDropped || l < lay.numNodes);
    for (const auto &qc : lay.cons) {
        ASSERT_LT(qc.origIndex, snap.constraints.size());
        EXPECT_EQ(lay.remap[snap.constraints[qc.origIndex].node],
                  qc.node);
    }
}

TEST(Opt, RegistryEliminationGeomean)
{
    // The -O1 pipeline's node+edge elimination, as a geomean over every
    // registry design whose run completes (a deadlocking design has no
    // frozen run), sits at 36.3% and must stay at or above 30.9%.
    std::vector<double> eliminations;
    for (const auto *suite :
         {&designs::typeBCDesigns(), &designs::typeADesigns()}) {
        for (const auto &entry : *suite) {
            const test::Compiled c(entry.name);
            OmniSim engine(c.cd);
            if (engine.run().status != SimStatus::Ok)
                continue;
            eliminations.push_back(engine.compileStats().elimination());
        }
    }
    ASSERT_FALSE(eliminations.empty());
    EXPECT_GE(geomean(eliminations), 0.309)
        << "over " << eliminations.size() << " designs";
}

TEST(Opt, CompileIsDeterministic)
{
    const test::Compiled c("reconvergent");
    const RunSnapshot snap = snapshotOf(c);
    const opt::RunLayout a = compileSnapshot(snap, opt::OptLevel::O1);
    const opt::RunLayout b = compileSnapshot(snap, opt::OptLevel::O1);

    EXPECT_EQ(a.numNodes, b.numNodes);
    EXPECT_EQ(a.remap, b.remap);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.dur, b.dur);
    EXPECT_EQ(a.floor, b.floor);
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (std::size_t e = 0; e < a.edges.size(); ++e) {
        EXPECT_EQ(a.edges[e].src, b.edges[e].src);
        EXPECT_EQ(a.edges[e].dst, b.edges[e].dst);
        EXPECT_EQ(a.edges[e].weight, b.edges[e].weight);
    }
}

TEST(Opt, ResimulateBitIdenticalAcrossLevels)
{
    for (const char *name : {"fifo_chain", "fig4_ex5", "branch",
                             "multicore", "reconvergent"}) {
        SCOPED_TRACE(name);
        const test::Compiled c(name);

        OmniSimOptions o0Opts;
        o0Opts.optLevel = opt::OptLevel::O0;
        OmniSim o0(c.cd, o0Opts);
        OmniSim o1(c.cd); // default -O1
        const SimResult r0 = o0.run();
        const SimResult r1 = o1.run();
        ASSERT_EQ(r0.status, SimStatus::Ok);
        ASSERT_EQ(r1.status, SimStatus::Ok);
        EXPECT_EQ(r0.totalCycles, r1.totalCycles);
        EXPECT_EQ(o1.compileStats().level, opt::OptLevel::O1);

        std::vector<std::uint32_t> base;
        for (const auto &f : c.design.fifos())
            base.push_back(f.depth);
        Prng prng(0x0177u);
        for (int probe = 0; probe < 24; ++probe) {
            std::vector<std::uint32_t> d = base;
            for (auto &depth : d)
                if (prng.below(2))
                    depth = 1 + prng.below(12);
            const IncrementalOutcome i0 = o0.resimulate(d);
            const IncrementalOutcome i1 = o1.resimulate(d);
            EXPECT_EQ(i0.reused, i1.reused);
            EXPECT_EQ(i0.reason, i1.reason);
            if (i0.reused && i1.reused) {
                EXPECT_EQ(i0.result.totalCycles, i1.result.totalCycles);
                EXPECT_EQ(i0.result.memories, i1.result.memories);
            }
        }
    }
}

} // namespace
