/** @file CompiledRun tests: the delta-driven resimulate() must be
 *  bit-identical to the pre-compiled full-rebuild reference
 *  (OmniSim::resimulateReference) across the design registry, for both
 *  reuse and divergence outcomes, including randomized depth vectors,
 *  a large generated design, and the timing-infeasible shrink case;
 *  plus where the freeze certifies its cached order universal. */

#include <gtest/gtest.h>

#include "design/context.hh"
#include "gen/generate.hh"
#include "gen/spec.hh"
#include "graph/compiled_run.hh"
#include "helpers.hh"
#include "io/run_io.hh"
#include "support/prng.hh"

namespace omnisim
{
namespace
{

using test::checkedOmniSim;
using test::Compiled;

/** Deterministic per-design PRNG seed (std::hash is not portable). */
std::uint64_t
nameSeed(const std::string &name)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : name)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return h;
}

/** Both resimulate paths must agree bit-for-bit. */
void
expectIdentical(const IncrementalOutcome &compiled,
                const IncrementalOutcome &reference,
                const std::string &what)
{
    ASSERT_EQ(compiled.reused, reference.reused)
        << what << ": compiled says '" << compiled.reason
        << "', reference says '" << reference.reason << "'";
    EXPECT_EQ(compiled.reason, reference.reason) << what;
    if (compiled.reused) {
        EXPECT_EQ(compiled.result.totalCycles,
                  reference.result.totalCycles) << what;
        EXPECT_EQ(compiled.result.status, reference.result.status) << what;
        EXPECT_EQ(compiled.result.memories, reference.result.memories)
            << what;
    }
}

/** Full fresh simulation under the given depths, as ground truth. */
SimResult
fullRun(const designs::DesignEntry &entry,
        const std::vector<std::uint32_t> &depths)
{
    Design d = entry.build();
    for (std::size_t f = 0; f < depths.size(); ++f)
        d.setFifoDepth(static_cast<FifoId>(f), depths[f]);
    const CompiledDesign cd = compile(d);
    return simulateOmniSim(cd, checkedOmniSim());
}

std::string
depthsLabel(const std::vector<std::uint32_t> &depths)
{
    std::string s = "(";
    for (std::size_t i = 0; i < depths.size(); ++i) {
        if (i)
            s += ',';
        s += std::to_string(depths[i]);
    }
    return s + ")";
}

TEST(CompiledRun, RegistryRandomizedDepthsMatchReference)
{
    // Every registered design, 24 randomized depth vectors each —
    // deepening, shrinking, multi-FIFO joint changes — must take the
    // identical reuse/divergence decision with identical totals and
    // identical divergence reasons on both paths. A few reused vectors
    // per design are additionally checked against a fresh full run.
    // Every registry freeze certifies its cached order universal, so
    // these probes all run on the in-order full sweep when they fall
    // back.
    std::size_t reusedSeen = 0, divergedSeen = 0;
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
            EXPECT_TRUE(engine.compiledRun().universalOrder())
                << entry.name;

            std::vector<std::uint32_t> base;
            for (const auto &f : d.fifos())
                base.push_back(f.depth);

            Prng prng(nameSeed(entry.name));
            std::size_t groundTruthBudget = 2;
            for (int probe = 0; probe < 24; ++probe) {
                std::vector<std::uint32_t> depths = base;
                const std::size_t touches = 1 + prng.below(base.size());
                for (std::size_t k = 0; k < touches; ++k) {
                    const std::size_t f = prng.below(base.size());
                    depths[f] = static_cast<std::uint32_t>(
                        1 + prng.below(20));
                }

                const IncrementalOutcome inc = engine.resimulate(depths);
                const IncrementalOutcome ref =
                    engine.resimulateReference(depths);
                expectIdentical(inc, ref,
                                entry.name + " " + depthsLabel(depths));
                EXPECT_TRUE(inc.viaCompiled);
                if (!inc.reused) {
                    ++divergedSeen;
                    continue;
                }
                ++reusedSeen;
                if (groundTruthBudget > 0 && depths != base) {
                    --groundTruthBudget;
                    const SimResult full = fullRun(entry, depths);
                    ASSERT_EQ(full.status, SimStatus::Ok)
                        << entry.name << " " << depthsLabel(depths);
                    EXPECT_EQ(inc.result.totalCycles, full.totalCycles)
                        << entry.name << " " << depthsLabel(depths);
                    EXPECT_EQ(inc.result.memories, full.memories)
                        << entry.name << " " << depthsLabel(depths);
                }
            }
        }
    }
    // The randomized sweep must actually exercise both outcome kinds.
    EXPECT_GT(reusedSeen, 0u);
    EXPECT_GT(divergedSeen, 0u);
}

TEST(CompiledRun, LargeGeneratedDesignMatchesReference)
{
    // A generated design of thousands of layout nodes, served from a
    // StoredRun reopened from its run file. Small deltas take the
    // worklist; broad perturbations and the all-ones probe fall back to
    // the full in-order sweep. The reference engine is ground truth.
    gen::GenConfig cfg = gen::largeGenConfig();
    cfg.minProcs = 96;
    cfg.maxProcs = 128;
    const Design design = gen::materialize(gen::generateSpec(7, cfg));
    const CompiledDesign cd = compile(design);
    OmniSim engine(cd);
    const SimResult r = engine.run();
    ASSERT_EQ(r.status, SimStatus::Ok);
    const std::unique_ptr<io::StoredRun> stored =
        io::StoredRun::decode(test::runImage(design, engine, r));
    EXPECT_TRUE(stored->compiled().universalOrder());
    const std::vector<std::uint32_t> &base = stored->baseDepths();
    const std::size_t nfifos = base.size();
    ASSERT_GT(nfifos, 0u);

    Prng prng(0x9a7a11e1u);
    std::vector<std::vector<std::uint32_t>> probes;
    for (int k = 0; k < 6; ++k) {
        std::vector<std::uint32_t> d = base;
        const std::size_t touches =
            k < 3 ? 1 + prng.below(4)
                  : 1 + prng.below(std::max<std::size_t>(1, nfifos / 4));
        for (std::size_t i = 0; i < touches; ++i)
            d[prng.below(nfifos)] =
                static_cast<std::uint32_t>(1 + prng.below(12));
        probes.push_back(std::move(d));
    }
    probes.emplace_back(nfifos, 1);
    probes.push_back(base);

    for (std::size_t k = 0; k < probes.size(); ++k)
        expectIdentical(stored->resimulate(probes[k]),
                        engine.resimulateReference(probes[k]),
                        "probe " + std::to_string(k));
}

TEST(CompiledRun, Table6HitAndDivergenceMatchReference)
{
    Compiled c("fig4_ex5");
    OmniSim engine(c.cd, checkedOmniSim());
    ASSERT_EQ(engine.run().status, SimStatus::Ok);

    // Row 2: depth change that satisfies every constraint — reused.
    expectIdentical(engine.resimulate({2, 100}),
                    engine.resimulateReference({2, 100}), "(2,100)");
    const IncrementalOutcome hit = engine.resimulate({2, 100});
    ASSERT_TRUE(hit.reused) << hit.reason;

    // Row 3: flips recorded NB writes — both paths refuse with the
    // exact same first-divergent-constraint message.
    const IncrementalOutcome miss = engine.resimulate({100, 2});
    const IncrementalOutcome missRef = engine.resimulateReference({100, 2});
    EXPECT_FALSE(miss.reused);
    expectIdentical(miss, missRef, "(100,2)");
    EXPECT_NE(miss.reason.find("constraint violated"), std::string::npos);
}

TEST(CompiledRun, InfeasibleShrinkMatchesReference)
{
    // Shrinking a FIFO until the recorded schedule becomes a timing
    // cycle must be refused identically by both paths.
    Design d("reconverge");
    const MemId out = d.addMemory("out", 1);
    const std::size_t n = 6;
    const FifoId f1 = d.declareFifo("f1", 8);
    const FifoId f2 = d.declareFifo("f2", 8);
    const ModuleId p = d.addModule("p", [=](Context &ctx) {
        for (std::size_t i = 0; i < n; ++i)
            ctx.write(f2, static_cast<Value>(i));
        for (std::size_t i = 0; i < n; ++i)
            ctx.write(f1, static_cast<Value>(i));
    });
    const ModuleId c = d.addModule("c", [=](Context &ctx) {
        Value sum = 0;
        for (std::size_t i = 0; i < n; ++i) {
            sum += ctx.read(f1);
            sum += ctx.read(f2);
        }
        ctx.store(out, 0, sum);
    });
    d.connectFifo(f1, p, c);
    d.connectFifo(f2, p, c);
    const CompiledDesign cd = compile(d);
    OmniSim engine(cd, checkedOmniSim());
    ASSERT_EQ(engine.run().status, SimStatus::Ok);
    // The depth-1 overlay is cyclic, so the freeze cannot certify a
    // universal order: the probe goes through the Kahn fallback, which
    // is what proves the cycle.
    EXPECT_FALSE(engine.compiledRun().universalOrder());

    const IncrementalOutcome bad = engine.resimulate({8, 1});
    expectIdentical(bad, engine.resimulateReference({8, 1}), "(8,1)");
    EXPECT_FALSE(bad.reused);
    EXPECT_NE(bad.reason.find("infeasible"), std::string::npos);
}

TEST(CompiledRun, IdenticalDepthsServeFromBaselineInstantly)
{
    Compiled c("reconvergent");
    OmniSim engine(c.cd, checkedOmniSim());
    const SimResult initial = engine.run();
    ASSERT_EQ(initial.status, SimStatus::Ok);
    std::vector<std::uint32_t> base;
    for (const auto &f : c.design.fifos())
        base.push_back(f.depth);

    const IncrementalOutcome inc = engine.resimulate(base);
    ASSERT_TRUE(inc.reused) << inc.reason;
    EXPECT_TRUE(inc.viaCompiled);
    EXPECT_TRUE(inc.viaDelta); // no depth changed: the trivial delta
    EXPECT_EQ(inc.result.totalCycles, initial.totalCycles);
}

TEST(CompiledRun, DeltaPathServesSmallDeepening)
{
    // Deepening one FIFO of a Type A design touches only its own WAR
    // cone: the worklist path must decide it without a full pass.
    Compiled c("accum_dataflow");
    OmniSim engine(c.cd, checkedOmniSim());
    ASSERT_EQ(engine.run().status, SimStatus::Ok);
    std::vector<std::uint32_t> depths;
    for (const auto &f : c.design.fifos())
        depths.push_back(f.depth);
    depths[0] += 6;

    const IncrementalOutcome inc = engine.resimulate(depths);
    ASSERT_TRUE(inc.reused) << inc.reason;
    EXPECT_TRUE(inc.viaDelta);
    expectIdentical(inc, engine.resimulateReference(depths), "deepen");
}

TEST(CompiledRun, ReferencePathStaysAvailableWithoutRun)
{
    Compiled c("fig4_ex5");
    OmniSim engine(c.cd, checkedOmniSim());
    EXPECT_FALSE(engine.resimulate({2, 2}).reused);
    EXPECT_FALSE(engine.resimulateReference({2, 2}).reused);
}

} // namespace
} // namespace omnisim
