/** @file CompiledRun tests: the delta-driven resimulate() must be
 *  bit-identical to the pre-compiled full-rebuild reference
 *  (OmniSim::resimulateReference) across the design registry, for both
 *  reuse and divergence outcomes, including randomized depth vectors,
 *  a large generated design, and the timing-infeasible shrink case;
 *  plus where the freeze certifies its cached order universal, that a
 *  probe's work is bounded by what it changes, that concurrent probers
 *  sharing one run get exactly what a lone prober gets, and that every
 *  probe is counted. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "design/context.hh"
#include "gen/generate.hh"
#include "gen/spec.hh"
#include "graph/compiled_run.hh"
#include "graph/csr.hh"
#include "helpers.hh"
#include "io/run_io.hh"
#include "obs/metrics.hh"
#include "support/prng.hh"

namespace omnisim
{
namespace
{

using test::checkedOmniSim;
using test::Compiled;
using Attempt = CompiledRun::Attempt;
using Path = CompiledRun::Attempt::Path;

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

/** Re-size one to three FIFOs of @p base to a depth in 1..@p deepest. */
std::vector<std::uint32_t>
randomProbe(Prng &prng, const std::vector<std::uint32_t> &base,
            std::uint32_t deepest)
{
    std::vector<std::uint32_t> d = base;
    const std::size_t touches =
        1 + prng.below(std::min<std::size_t>(3, d.size()));
    for (std::size_t k = 0; k < touches; ++k)
        d[prng.below(d.size())] =
            1 + static_cast<std::uint32_t>(prng.below(deepest));
    return d;
}

/** Two attempts at the same depths must agree in every field. */
void
expectSameAttempt(const Attempt &a, const Attempt &b, const std::string &what)
{
    EXPECT_EQ(a.status, b.status) << what;
    EXPECT_EQ(a.path, b.path) << what;
    EXPECT_EQ(a.constraintIndex, b.constraintIndex) << what;
    EXPECT_EQ(a.nowAnswer, b.nowAnswer) << what;
    EXPECT_EQ(a.totalCycles, b.totalCycles) << what;
    EXPECT_EQ(a.relaxedNodes, b.relaxedNodes) << what;
    EXPECT_EQ(a.seeds, b.seeds) << what;
    EXPECT_EQ(a.recomputed, b.recomputed) << what;
}

/**
 * Two producers fill f2 and then f1 (n items each); one consumer reads
 * them in alternation, so shrinking f2 far enough is a timing cycle.
 * With @p bulk > 0 an unrelated producer/consumer pair streams that many
 * items through a third FIFO, which grows the graph without touching
 * the cycle.
 */
Design
reconvergeDesign(std::size_t bulk)
{
    Design d("reconverge");
    const MemId out = d.addMemory("out", 2);
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
    if (bulk > 0) {
        const FifoId f3 = d.declareFifo("f3", 2);
        const ModuleId q = d.addModule("q", [=](Context &ctx) {
            for (std::size_t i = 0; i < bulk; ++i)
                ctx.write(f3, static_cast<Value>(i));
        });
        const ModuleId r = d.addModule("r", [=](Context &ctx) {
            Value sum = 0;
            for (std::size_t i = 0; i < bulk; ++i)
                sum += ctx.read(f3);
            ctx.store(out, 1, sum);
        });
        d.connectFifo(f3, q, r);
    }
    return d;
}

/**
 * An independent model of a compiled layout: node times under a depth
 * vector by its own Kahn pass over the structural edges plus the WAR
 * overlay rebuilt from the FIFO access maps, and the seed rule and the
 * overlay successors read off the same maps.
 */
class LayoutModel
{
  public:
    explicit LayoutModel(const opt::RunLayout &lay)
        : lay_(lay), fwd_(lay.numNodes, lay.edges),
          rev_(lay.numNodes, reversed(lay.edges))
    {}

    std::vector<std::uint32_t>
    clamp(std::vector<std::uint32_t> depths) const
    {
        for (std::size_t f = 0; f < depths.size(); ++f)
            depths[f] = std::min(depths[f], lay_.fifos[f].cap);
        return depths;
    }

    /** Longest-path times; empty when the overlay is cyclic. */
    std::vector<Cycles>
    solve(const std::vector<std::uint32_t> &depths) const
    {
        const std::size_t n = lay_.numNodes;
        std::vector<std::uint32_t> indeg(n, 0);
        for (std::size_t v = 0; v < n; ++v) {
            fwd_.forEachOut(v, [&](std::uint64_t dst, Cycles) {
                ++indeg[dst];
            });
            if (warSource(v, depths) != opt::kNoNode)
                ++indeg[v];
        }
        std::vector<Cycles> time(lay_.seed);
        std::vector<std::uint64_t> ready;
        for (std::size_t v = 0; v < n; ++v)
            if (indeg[v] == 0)
                ready.push_back(v);
        std::size_t done = 0;
        while (!ready.empty()) {
            const std::uint64_t u = ready.back();
            ready.pop_back();
            ++done;
            forEachSucc(u, depths, [&](std::uint64_t v, Cycles w) {
                time[v] = std::max(time[v], time[u] + w);
                if (--indeg[v] == 0)
                    ready.push_back(v);
            });
        }
        if (done != n)
            time.clear();
        return time;
    }

    /** Blocking writes of FIFOs whose clamped depth changed, whose time
     *  recomputed over @p base under @p depths differs from it. */
    std::size_t
    exactSeeds(const std::vector<Cycles> &base,
               const std::vector<std::uint32_t> &baseDepths,
               const std::vector<std::uint32_t> &depths) const
    {
        std::size_t seeds = 0;
        for (std::size_t v = 0; v < lay_.numNodes; ++v) {
            const std::int32_t f = lay_.accFifo[v];
            if (f < 0 || !lay_.accBlockingWrite[v] ||
                depths[f] == baseDepths[f])
                continue;
            Cycles t = lay_.seed[v];
            rev_.forEachOut(v, [&](std::uint64_t src, Cycles w) {
                t = std::max(t, base[src] + w);
            });
            const std::uint32_t r = warSource(v, depths);
            if (r != opt::kNoNode)
                t = std::max(t, base[r] + 1);
            seeds += t != base[v];
        }
        return seeds;
    }

    /** Structural and WAR(depths) successors of node u. */
    template <typename F>
    void
    forEachSucc(std::uint64_t u, const std::vector<std::uint32_t> &depths,
                F &&f) const
    {
        fwd_.forEachOut(u, f);
        const std::int32_t ff = lay_.accFifo[u];
        if (ff < 0 || lay_.accWrite[u])
            return;
        const opt::FifoLayout &fl = lay_.fifos[ff];
        const std::size_t w = lay_.accIdx[u] + depths[ff];
        if (w <= fl.writeNode.size() &&
            fl.writeNode[w - 1] != opt::kNoNode &&
            lay_.accBlockingWrite[fl.writeNode[w - 1]])
            f(fl.writeNode[w - 1], Cycles{1});
    }

  private:
    static std::vector<CsrGraph::EdgeSpec>
    reversed(std::vector<CsrGraph::EdgeSpec> edges)
    {
        for (auto &e : edges)
            std::swap(e.src, e.dst);
        return edges;
    }

    /** The read a blocking write v waits for under depths, if any. */
    std::uint32_t
    warSource(std::uint64_t v, const std::vector<std::uint32_t> &depths) const
    {
        const std::int32_t f = lay_.accFifo[v];
        if (f < 0 || !lay_.accBlockingWrite[v])
            return opt::kNoNode;
        const opt::FifoLayout &fl = lay_.fifos[f];
        const std::uint32_t w = lay_.accIdx[v];
        const std::uint32_t s = depths[f];
        if (w <= s || w - s > fl.readNode.size())
            return opt::kNoNode;
        return fl.readNode[w - s - 1];
    }

    const opt::RunLayout &lay_;
    CsrGraph fwd_;
    CsrGraph rev_;
};

TEST(CompiledRun, RegistryRandomizedDepthsMatchReference)
{
    // Every registered design, 24 randomized depth vectors each —
    // deepening, shrinking, multi-FIFO joint changes — must take the
    // identical reuse/divergence decision with identical totals and
    // identical divergence reasons on both paths. A few reused vectors
    // per design are additionally checked against a fresh full run.
    // Every registry freeze certifies its cached order universal, so
    // these probes all run on the in-order full sweep when they fall
    // back. Each way a probe can end (and hand its scratch back) must
    // be taken at least once.
    std::size_t reusedSeen = 0, divergedSeen = 0, deltaDivergedSeen = 0;
    std::map<Path, std::size_t> paths;
    // A seed-count full pass keeps a long unchanged prefix in place, or
    // else sweeps every rank into a buffer of its own: both are taken.
    std::size_t prefixKept = 0, everyRank = 0;
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
                const Attempt a = engine.compiledRun().resimulate(depths);
                EXPECT_EQ(a.viaDelta(), inc.viaDelta) << entry.name;
                ++paths[a.path];
                if (a.path == Path::SeedCount)
                    ++(a.recomputed ==
                               engine.compiledRun().layout().numNodes
                           ? everyRank
                           : prefixKept);
                if (!inc.reused) {
                    ++divergedSeen;
                    deltaDivergedSeen += a.viaDelta();
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
    // A universal order never leaves a pending node behind the sweep,
    // so the re-sweep budget needs a design without the certificate
    // and large enough that its timing cycle stays under the cone cap.
    {
        const Design d = reconvergeDesign(200);
        const CompiledDesign cd = compile(d);
        OmniSim engine(cd, checkedOmniSim());
        ASSERT_EQ(engine.run().status, SimStatus::Ok);
        EXPECT_FALSE(engine.compiledRun().universalOrder());
        for (const std::vector<std::uint32_t> &depths :
             {std::vector<std::uint32_t>{8, 1, 2},
              std::vector<std::uint32_t>{8, 3, 2},
              std::vector<std::uint32_t>{8, 1, 2}}) {
            expectIdentical(engine.resimulate(depths),
                            engine.resimulateReference(depths),
                            "reconverge " + depthsLabel(depths));
            ++paths[engine.compiledRun().resimulate(depths).path];
        }
    }

    // The randomized sweep must actually exercise both outcome kinds,
    // and every exit path.
    EXPECT_GT(reusedSeen, 0u);
    EXPECT_GT(divergedSeen, 0u);
    EXPECT_GT(deltaDivergedSeen, 0u);
    for (const Path p : {Path::NoSeeds, Path::Delta, Path::SeedCount,
                         Path::ConeCap, Path::Resweep})
        EXPECT_GT(paths[p], 0u) << "path " << static_cast<int>(p);
    EXPECT_GT(prefixKept, 0u);
    EXPECT_GT(everyRank, 0u);
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
    const Design d = reconvergeDesign(0);
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

/**
 * Pin the work of each probe of @p run to what the probe changes, with
 * @p model (over the same layout) as the independent judge: the exact
 * seed count, no recomputation at all without seeds, and a delta sweep
 * that recomputes only its seeds and the overlay successors of the
 * nodes it moved. @return probes that changed a depth but had no seeds,
 * and delta probes with seeds.
 */
std::pair<std::size_t, std::size_t>
checkProbeWork(const CompiledRun &run, const LayoutModel &model,
               const std::vector<std::uint32_t> &baseDepths,
               const std::vector<std::vector<std::uint32_t>> &probes,
               const std::string &name)
{
    const std::size_t n = run.layout().numNodes;
    const std::vector<std::uint32_t> base = model.clamp(baseDepths);
    const std::vector<Cycles> baseTime = model.solve(base);
    std::size_t noSeeds = 0, deltas = 0;
    for (const std::vector<std::uint32_t> &probe : probes) {
        const std::string what = name + " " + depthsLabel(probe);
        const std::vector<std::uint32_t> depths = model.clamp(probe);
        const Attempt a = run.resimulate(probe);
        if (depths == base) {
            EXPECT_EQ(a.path, Path::Unchanged) << what;
            EXPECT_EQ(a.recomputed, 0u) << what;
            continue;
        }
        const std::size_t seeds = model.exactSeeds(baseTime, base, depths);
        if (seeds > n / 8) {
            EXPECT_EQ(a.path, Path::SeedCount) << what;
            EXPECT_EQ(a.seeds, n / 8 + 1) << what;
            continue;
        }
        EXPECT_EQ(a.seeds, seeds) << what;
        const std::vector<Cycles> time = model.solve(depths);
        if (time.empty()) {
            ADD_FAILURE() << what << ": no seeds over the cap, yet cyclic";
            continue;
        }
        std::vector<std::uint64_t> moved;
        for (std::size_t v = 0; v < n; ++v)
            if (time[v] != baseTime[v])
                moved.push_back(v);
        if (seeds == 0) {
            ++noSeeds;
            EXPECT_EQ(a.path, Path::NoSeeds) << what;
            EXPECT_EQ(a.recomputed, 0u) << what;
            EXPECT_EQ(a.relaxedNodes, 0u) << what;
            EXPECT_TRUE(moved.empty()) << what;
        } else if (a.path == Path::Delta) {
            ++deltas;
            std::set<std::uint64_t> succ;
            for (const std::uint64_t v : moved)
                model.forEachSucc(v, depths, [&](std::uint64_t dst, Cycles) {
                    succ.insert(dst);
                });
            EXPECT_EQ(a.relaxedNodes, moved.size()) << what;
            EXPECT_GE(a.recomputed, a.seeds) << what;
            EXPECT_LE(a.recomputed, a.seeds + succ.size()) << what;
        } else {
            EXPECT_EQ(a.path, Path::ConeCap) << what;
            EXPECT_GT(moved.size(), n / 8) << what;
        }
    }
    return {noSeeds, deltas};
}

TEST(CompiledRun, ProbeWorkIsBoundedByItsChange)
{
    // Over the registry and a large generated design, each probe's work
    // is what its depth change moves, not what the graph holds.
    std::size_t noSeeds = 0, deltas = 0;
    const auto tally = [&](std::pair<std::size_t, std::size_t> seen) {
        noSeeds += seen.first;
        deltas += seen.second;
    };
    for (const auto *suite :
         {&designs::typeBCDesigns(), &designs::typeADesigns()}) {
        for (const auto &entry : *suite) {
            const Design d = entry.build();
            if (d.fifos().empty())
                continue;
            const CompiledDesign cd = compile(d);
            OmniSim engine(cd);
            if (engine.run().status != SimStatus::Ok)
                continue;
            std::vector<std::uint32_t> base;
            for (const auto &f : d.fifos())
                base.push_back(f.depth);
            Prng prng(nameSeed(entry.name) ^ 0x5eed);
            std::vector<std::vector<std::uint32_t>> probes;
            for (int k = 0; k < 12; ++k)
                probes.push_back(randomProbe(prng, base, 16));
            const CompiledRun &run = engine.compiledRun();
            tally(checkProbeWork(run, LayoutModel(run.layout()), base,
                                 probes, entry.name));
        }
    }

    gen::GenConfig cfg = gen::largeGenConfig();
    cfg.minProcs = 96;
    cfg.maxProcs = 128;
    const Design design = gen::materialize(gen::generateSpec(7, cfg));
    const CompiledDesign cd = compile(design);
    OmniSim engine(cd);
    ASSERT_EQ(engine.run().status, SimStatus::Ok);
    std::vector<std::uint32_t> base;
    for (const auto &f : design.fifos())
        base.push_back(f.depth);
    Prng prng(0x9a7a11e1u);
    std::vector<std::vector<std::uint32_t>> probes;
    for (int k = 0; k < 24; ++k)
        probes.push_back(randomProbe(prng, base, 12));
    const CompiledRun &run = engine.compiledRun();
    tally(checkProbeWork(run, LayoutModel(run.layout()), base, probes,
                         "generated"));

    EXPECT_GT(noSeeds, 0u);
    EXPECT_GT(deltas, 0u);
}

TEST(CompiledRun, ConcurrentProbesMatchLoneProbes)
{
    // Four threads share one live engine's CompiledRun and one StoredRun
    // reopened from it. Scratch buffers are pooled per run, so a probe
    // must not see another's: every attempt equals the same probe run
    // alone, before the threads started.
    Compiled c("reconvergent");
    OmniSim engine(c.cd);
    const SimResult r = engine.run();
    ASSERT_EQ(r.status, SimStatus::Ok);
    const std::unique_ptr<io::StoredRun> stored =
        io::StoredRun::decode(test::runImage(c.design, engine, r));
    const CompiledRun &live = engine.compiledRun();
    const CompiledRun &reopened = stored->compiled();

    constexpr std::size_t kThreads = 4, kProbes = 200;
    std::vector<std::vector<std::vector<std::uint32_t>>> probes(kThreads);
    std::vector<std::vector<Attempt>> alone(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        Prng prng(0xc0c0 + t);
        for (std::size_t k = 0; k < kProbes; ++k) {
            probes[t].push_back(
                randomProbe(prng, stored->baseDepths(), 16));
            alone[t].push_back(live.resimulate(probes[t].back()));
            expectSameAttempt(reopened.resimulate(probes[t].back()),
                              alone[t].back(), "alone");
        }
    }

    std::vector<std::vector<Attempt>> shared(kThreads), reread(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (const auto &depths : probes[t]) {
                shared[t].push_back(live.resimulate(depths));
                reread[t].push_back(reopened.resimulate(depths));
            }
        });
    for (std::thread &th : threads)
        th.join();

    std::map<Path, std::size_t> paths;
    for (std::size_t t = 0; t < kThreads; ++t)
        for (std::size_t k = 0; k < kProbes; ++k) {
            const std::string what = "thread " + std::to_string(t) + " " +
                                     depthsLabel(probes[t][k]);
            expectSameAttempt(shared[t][k], alone[t][k], what);
            expectSameAttempt(reread[t][k], alone[t][k], what);
            ++paths[alone[t][k].path];
        }
    // The mix reaches the delta and both full-pass hand-overs.
    EXPECT_GT(paths[Path::Delta], 0u);
    EXPECT_GT(paths[Path::SeedCount], 0u);
    EXPECT_GT(paths[Path::ConeCap], 0u);
}

TEST(CompiledRun, StoredRunProbeIsCounted)
{
    // A probe served from a rehydrated run is accounted exactly like
    // one served by the live engine.
    Compiled c("fig4_ex5");
    OmniSim engine(c.cd);
    const SimResult r = engine.run();
    ASSERT_EQ(r.status, SimStatus::Ok);
    const std::unique_ptr<io::StoredRun> stored =
        io::StoredRun::decode(test::runImage(c.design, engine, r));

    obs::Registry &reg = obs::Registry::global();
    const std::uint64_t attempts =
        reg.counter("engine.resim.attempts").value();
    const std::uint64_t seeded =
        reg.histogram("engine.resim.seeds").snapshot().count;
    EXPECT_TRUE(stored->resimulate({2, 100}).reused);
    EXPECT_EQ(reg.counter("engine.resim.attempts").value(), attempts + 1);
    EXPECT_EQ(reg.histogram("engine.resim.seeds").snapshot().count,
              seeded + 1);
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
