/**
 * @file
 * The IR verifier (src/opt/verify.*) under test from both sides:
 *
 *  - a mutation corpus: hand-corrupted layouts must be rejected with
 *    the documented invariant id bracketed in the FatalError message
 *    ([dag], [csr-sorted], [remap-bijective], [cons-addressable], ...);
 *  - a clean sweep: every registry design and 500 generated designs
 *    compile with verification forced on — the between-pass hooks and
 *    the final materialize check must all pass.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/generate.hh"
#include "gen/spec.hh"
#include "helpers.hh"
#include "io/run_io.hh"
#include "opt/layout.hh"
#include "opt/pass_manager.hh"
#include "opt/verify.hh"

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

opt::LayoutInput
inputOf(const RunSnapshot &snap)
{
    return {&snap.nodes, &snap.edges,       &snap.seed,
            &snap.tables, &snap.depths,     &snap.constraints,
            &snap.tailNode, &snap.tailSlack};
}

opt::RunLayout
compileSnapshot(const RunSnapshot &snap, opt::OptLevel level)
{
    return opt::PassManager(level).compile(inputOf(snap));
}

/** Run fn, demand a FatalError, and hand back its message. */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected the verifier to throw FatalError";
    return "";
}

/** The id the verifier must bracket into the failure message. */
void
expectInvariant(const std::string &msg, const char *id)
{
    EXPECT_NE(msg.find(std::string("[") + id + "]"), std::string::npos)
        << "message was: " << msg;
}

TEST(Verify, CleanLayoutsPassBothLevels)
{
    for (const char *name : {"fifo_chain", "fig4_ex5", "reconvergent"}) {
        SCOPED_TRACE(name);
        const test::Compiled c(name);
        const RunSnapshot snap = snapshotOf(c);
        for (const opt::OptLevel level :
             {opt::OptLevel::O0, opt::OptLevel::O1}) {
            const opt::RunLayout lay = compileSnapshot(snap, level);
            opt::VerifyContext ctx;
            ctx.pass = "test-clean";
            EXPECT_NO_THROW(opt::verifyLayout(lay, ctx));
        }
    }
}

TEST(Verify, CycleInjectionIsRejected)
{
    const test::Compiled c("fifo_chain");
    const RunSnapshot snap = snapshotOf(c);
    opt::RunLayout lay = compileSnapshot(snap, opt::OptLevel::O1);
    ASSERT_FALSE(lay.edges.empty());

    // Close a loop: the reverse of an existing edge cannot already be
    // present (the layout is a DAG), so after re-sorting the CSR stays
    // strictly (src, dst)-ordered and the acyclicity check is what fires.
    CsrGraph::EdgeSpec back = lay.edges.front();
    std::swap(back.src, back.dst);
    lay.edges.push_back(back);
    std::sort(lay.edges.begin(), lay.edges.end(),
              [](const CsrGraph::EdgeSpec &a, const CsrGraph::EdgeSpec &b) {
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.dst < b.dst;
              });

    opt::VerifyContext ctx;
    ctx.pass = "test-cycle";
    expectInvariant(fatalMessage([&] { opt::verifyLayout(lay, ctx); }),
                    "dag");
}

TEST(Verify, UnsortedCsrIsRejected)
{
    const test::Compiled c("fifo_chain");
    const RunSnapshot snap = snapshotOf(c);
    opt::RunLayout lay = compileSnapshot(snap, opt::OptLevel::O1);
    ASSERT_GE(lay.edges.size(), 2u);

    std::swap(lay.edges.front(), lay.edges.back());

    opt::VerifyContext ctx;
    ctx.pass = "test-unsorted";
    expectInvariant(fatalMessage([&] { opt::verifyLayout(lay, ctx); }),
                    "csr-sorted");
}

TEST(Verify, RemapCollisionIsRejected)
{
    const test::Compiled c("fifo_chain");
    const RunSnapshot snap = snapshotOf(c);
    opt::RunLayout lay = compileSnapshot(snap, opt::OptLevel::O1);
    ASSERT_GE(lay.numNodes, 2u);

    // Collide every preimage of the last layout node into node 0: the
    // last layout node loses its preimage, so the map is no longer onto.
    const std::uint32_t last =
        static_cast<std::uint32_t>(lay.numNodes - 1);
    for (std::uint32_t &d : lay.remap)
        if (d == last)
            d = 0;

    opt::VerifyContext ctx;
    ctx.pass = "test-collision";
    expectInvariant(fatalMessage([&] { opt::verifyLayout(lay, ctx); }),
                    "remap-bijective");
}

TEST(Verify, StaleConstraintIndicesAreRejected)
{
    const test::Compiled c("fig4_ex5"); // keeps real constraints at -O1
    const RunSnapshot snap = snapshotOf(c);
    opt::RunLayout lay = compileSnapshot(snap, opt::OptLevel::O1);
    ASSERT_FALSE(lay.cons.empty());

    opt::VerifyContext ctx;
    ctx.pass = "test-stale-cons";
    if (lay.cons.size() >= 2) {
        // Duplicate recorded indices violate the strictly-ascending
        // recorded order the resolver depends on.
        opt::RunLayout bad = lay;
        bad.cons[1].origIndex = bad.cons[0].origIndex;
        expectInvariant(
            fatalMessage([&] { opt::verifyLayout(bad, ctx); }),
            "cons-addressable");
    }
    // A query node past the live layout is stale by construction.
    opt::RunLayout bad = lay;
    bad.cons[0].node = static_cast<std::uint32_t>(bad.numNodes);
    expectInvariant(fatalMessage([&] { opt::verifyLayout(bad, ctx); }),
                    "cons-addressable");
}

TEST(Verify, AccessMapDriftIsRejected)
{
    const test::Compiled c("fifo_chain");
    const RunSnapshot snap = snapshotOf(c);
    opt::RunLayout lay = compileSnapshot(snap, opt::OptLevel::O1);
    ASSERT_FALSE(lay.fifos.empty());

    lay.fifos[0].blockingWrites += 1;

    opt::VerifyContext ctx;
    ctx.pass = "test-acc-drift";
    expectInvariant(fatalMessage([&] { opt::verifyLayout(lay, ctx); }),
                    "acc-map-consistent");
}

TEST(Verify, ChainWeightTamperingIsRejected)
{
    const test::Compiled c("fifo_chain");
    const RunSnapshot snap = snapshotOf(c);
    const opt::LayoutInput in = inputOf(snap);
    opt::RunLayout lay = opt::PassManager(opt::OptLevel::O1).compile(in);
    ASSERT_GT(lay.numNodes, 0u);

    // Stretch one collapsed duration: the re-finalized total drifts.
    lay.dur.back() += 1000;

    opt::VerifyContext ctx;
    ctx.input = &in;
    ctx.pass = "test-weight";
    expectInvariant(fatalMessage([&] { opt::verifyLayout(lay, ctx); }),
                    "chain-weight");
}

TEST(Verify, RegistryCompilesCleanWithVerifierForcedOn)
{
    // Sticky global — every compile below (and in later tests of this
    // binary) runs the between-pass verifier even in Release builds.
    opt::setVerifyEnabled(true);
    ASSERT_TRUE(opt::verifyEnabled());

    const auto sweep = [](const std::vector<designs::DesignEntry> &suite) {
        for (const auto &entry : suite) {
            SCOPED_TRACE(entry.name);
            const Design d = entry.build();
            const CompiledDesign cd = compile(d);
            OmniSim engine(cd, test::checkedOmniSim());
            const SimResult r = engine.run();
            if (r.status != SimStatus::Ok)
                continue; // nothing frozen to verify
            // Round-trip through OMSIMRUN: decoding re-verifies the
            // persisted layout under pass="rehydrate".
            EXPECT_NO_THROW(
                io::StoredRun::decode(test::runImage(d, engine, r)));
        }
    };
    sweep(designs::typeADesigns());
    sweep(designs::typeBCDesigns());
}

TEST(Verify, FiveHundredGeneratedDesignsCompileClean)
{
    opt::setVerifyEnabled(true);
    int frozen = 0;
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        SCOPED_TRACE(seed);
        const gen::GenSpec spec = gen::generateSpec(seed);
        Design d = gen::materialize(spec);
        const CompiledDesign cd = compile(d);
        OmniSim engine(cd, test::checkedOmniSim());
        SimResult r;
        ASSERT_NO_THROW(r = engine.run());
        if (r.status != SimStatus::Ok)
            continue;
        ++frozen;
        // One depth probe re-enters the compiled paths post-verification.
        std::vector<std::uint32_t> depths;
        for (const auto &f : d.fifos())
            depths.push_back(f.depth + 1);
        ASSERT_NO_THROW((void)engine.resimulate(depths));
    }
    // The generator's deadlock injection is rare: the overwhelming
    // majority of seeds must actually exercise the pass pipeline.
    EXPECT_GT(frozen, 350);
}

} // namespace
