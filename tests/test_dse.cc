/** @file Design-space-exploration engine tests: space resolution, the
 *  memoizing EvalCache and its §7.2 incremental-reuse pool, the four
 *  search strategies, Pareto/knee distillation, and the determinism
 *  contract (fixed seed ⇒ identical results for any worker count). */

#include <algorithm>

#include <gtest/gtest.h>

#include "design/context.hh"
#include "dse/dse.hh"
#include "dse/strategies.hh"
#include "helpers.hh"

namespace omnisim
{
namespace
{

using dse::DepthVector;
using dse::DseOptions;
using dse::DseReport;
using dse::EvalMethod;

std::function<Design()>
builderOf(const char *name)
{
    return designs::findDesign(name).build;
}

/** Ground truth: fresh full simulation under the given depths. */
SimResult
freshRun(const char *name, const DepthVector &depths)
{
    Design d = designs::findDesign(name).build();
    for (std::size_t f = 0; f < depths.size(); ++f)
        d.setFifoDepth(static_cast<FifoId>(f), depths[f]);
    const CompiledDesign cd = compile(d);
    return simulateOmniSim(cd, test::checkedOmniSim());
}

TEST(DseSpace, EmptySpaceCoversEveryFifoGeometrically)
{
    const Design d = designs::findDesign("reconvergent").build();
    const dse::ResolvedSpace rs = dse::resolveSpace(d, {});
    ASSERT_EQ(rs.axes.size(), 4u);
    ASSERT_EQ(rs.base.size(), 4u);
    for (std::size_t a = 0; a < rs.axes.size(); ++a) {
        EXPECT_EQ(rs.names[a], d.fifos()[rs.axes[a]].name);
        EXPECT_EQ(rs.candidates[a],
                  (std::vector<std::uint32_t>{1, 2, 4, 8, 16}));
    }
    EXPECT_EQ(rs.gridSize(), 625u);
    EXPECT_EQ(rs.maxConfig(), (DepthVector{16, 16, 16, 16}));
}

TEST(DseSpace, LinearRangeAndBasePreservation)
{
    const Design d = designs::findDesign("reconvergent").build();
    dse::DseSpace space;
    space.fifos.push_back({"slow", 2, 5, false});
    const dse::ResolvedSpace rs = dse::resolveSpace(d, space);
    ASSERT_EQ(rs.axes.size(), 1u);
    EXPECT_EQ(rs.candidates[0],
              (std::vector<std::uint32_t>{2, 3, 4, 5}));
    // Unexplored FIFOs keep their registered depth.
    const DepthVector max = rs.maxConfig();
    for (std::size_t f = 0; f < d.fifos().size(); ++f) {
        if (f != rs.axes[0]) {
            EXPECT_EQ(max[f], d.fifos()[f].depth);
        }
    }
}

TEST(DseSpace, RejectsUnknownFifoEmptyRangeAndDuplicates)
{
    const Design d = designs::findDesign("reconvergent").build();
    dse::DseSpace unknown;
    unknown.fifos.push_back({"nope", 1, 4, true});
    EXPECT_THROW(dse::resolveSpace(d, unknown), FatalError);

    dse::DseSpace empty;
    empty.fifos.push_back({"slow", 8, 4, true});
    EXPECT_THROW(dse::resolveSpace(d, empty), FatalError);

    dse::DseSpace dup;
    dup.fifos.push_back({"slow", 1, 4, true});
    dup.fifos.push_back({"slow", 1, 8, true});
    EXPECT_THROW(dse::resolveSpace(d, dup), FatalError);
}

TEST(EvalCache, MemoizesAndCountsMethods)
{
    dse::EvalCache cache(builderOf("fifo_chain"), test::checkedOmniSim());
    const dse::Evaluation first = cache.evaluate({8, 8});
    EXPECT_EQ(first.method, EvalMethod::FullRun);
    EXPECT_EQ(first.cost, 16u);
    ASSERT_TRUE(first.ok());

    // A neighbouring configuration reuses the pooled run (§7.2)...
    const dse::Evaluation inc = cache.evaluate({4, 8});
    EXPECT_EQ(inc.method, EvalMethod::Incremental);
    // ...and a repeat of either is a memo hit, not new work.
    cache.evaluate({8, 8});
    cache.evaluate({4, 8});
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.fullRuns(), 1u);
    EXPECT_EQ(cache.incrementalHits(), 1u);
    EXPECT_EQ(cache.cacheHits(), 2u);
}

TEST(EvalCache, RejectsMalformedDepthVectors)
{
    dse::EvalCache cache(builderOf("fifo_chain"));
    EXPECT_THROW(cache.evaluate({4}), FatalError);       // arity
    EXPECT_THROW(cache.evaluate({4, 0}), FatalError);    // zero depth
}

TEST(EvalCache, IncrementalAnswersMatchFreshFullRuns)
{
    dse::EvalCache cache(builderOf("reconvergent"),
                         test::checkedOmniSim());
    cache.evaluate({16, 16, 16, 16}); // seed the reuse pool
    for (const DepthVector &cfg :
         {DepthVector{1, 1, 1, 1}, DepthVector{2, 8, 1, 4},
          DepthVector{16, 1, 2, 4}, DepthVector{3, 5, 7, 2}}) {
        const dse::Evaluation e = cache.evaluate(cfg);
        const SimResult full = freshRun("reconvergent", cfg);
        ASSERT_TRUE(e.ok());
        ASSERT_EQ(full.status, SimStatus::Ok);
        EXPECT_EQ(e.latency, full.totalCycles)
            << "method=" << dse::evalMethodName(e.method);
    }
    // The pooled constraints, not full re-runs, did most of the work.
    EXPECT_GT(cache.incrementalHits(), 0u);
}

TEST(EvalCache, DivergenceFallbackMatchesFreshRun)
{
    // fig4_ex5 is Type C: deepening the first-choice FIFO flips
    // recorded NB outcomes, so reuse is refused and the cache must fall
    // back to a full run that equals a from-scratch simulation.
    dse::EvalCache cache(builderOf("fig4_ex5"), test::checkedOmniSim());
    ASSERT_TRUE(cache.evaluate({2, 2}).ok());

    const dse::Evaluation e = cache.evaluate({100, 2});
    EXPECT_EQ(e.method, EvalMethod::FullRun); // constraints diverged
    const SimResult fresh = freshRun("fig4_ex5", {100, 2});
    ASSERT_EQ(fresh.status, SimStatus::Ok);
    EXPECT_EQ(e.latency, fresh.totalCycles);
}

DseReport
runDse(const char *design, const char *strategy, std::size_t budget,
       unsigned jobs = 0, std::uint64_t seed = 1,
       dse::DseSpace space = {})
{
    DseOptions opts;
    opts.strategy = strategy;
    opts.budget = budget;
    opts.jobs = jobs;
    opts.seed = seed;
    opts.space = std::move(space);
    return dse::exploreRegistered(design, opts);
}

TEST(DseGrid, CoversTheExactCrossProduct)
{
    dse::DseSpace space;
    space.fifos.push_back({"a", 1, 3, false});
    space.fifos.push_back({"b", 1, 3, false});
    const DseReport rep = runDse("fifo_chain", "grid", 64, 2, 1, space);
    EXPECT_EQ(rep.evaluations.size(), 9u);
    for (std::uint32_t a = 1; a <= 3; ++a)
        for (std::uint32_t b = 1; b <= 3; ++b)
            EXPECT_TRUE(std::any_of(
                rep.evaluations.begin(), rep.evaluations.end(),
                [&](const dse::Evaluation &e) {
                    return e.depths == DepthVector{a, b};
                }))
                << a << "," << b;
}

TEST(DseGrid, MajorityOfEvaluationsServedIncrementally)
{
    // On fifo_chain, most grid evaluations must come from resimulate(),
    // not full re-runs.
    const DseReport rep = runDse("fifo_chain", "grid", 64);
    EXPECT_EQ(rep.evaluations.size(), 25u); // 5 x 5 geometric ladders
    EXPECT_GT(rep.incrementalHits, rep.fullRuns);
    EXPECT_GT(2 * rep.incrementalHits, rep.evaluations.size());

    // A short grid (budget 8, every FIFO on the 1..8 geometric ladder)
    // over a chain and a reconvergent design: 14 of the 16 evaluations
    // are incremental today, and at least 12 must stay so.
    std::size_t incremental = 0;
    for (const char *name : {"fifo_chain", "reconvergent"}) {
        const Design d = designs::findDesign(name).build();
        dse::DseSpace space;
        for (const auto &f : d.fifos())
            space.fifos.push_back({f.name, 1, 8, true});
        const DseReport small = runDse(name, "grid", 8, 1, 1, space);
        EXPECT_EQ(small.evaluations.size(), 8u) << name;
        incremental += small.incrementalHits;
    }
    EXPECT_GE(incremental, 12u);
}

TEST(DseGrid, BudgetIsAHardCeiling)
{
    const DseReport rep = runDse("reconvergent", "grid", 7);
    EXPECT_LE(rep.evaluations.size(), 7u);
    EXPECT_GE(rep.evaluations.size(), 1u); // warm start always lands
}

TEST(DseReport, FrontierIsParetoAndKneeLiesOnIt)
{
    const DseReport rep = runDse("reconvergent", "grid", 1024);
    ASSERT_TRUE(rep.anyOk);
    ASSERT_FALSE(rep.frontier.empty());
    for (std::size_t i = 1; i < rep.frontier.size(); ++i) {
        EXPECT_LT(rep.frontier[i - 1].cost, rep.frontier[i].cost);
        EXPECT_GT(rep.frontier[i - 1].latency, rep.frontier[i].latency);
    }
    // No evaluation dominates any frontier point.
    for (const auto &f : rep.frontier)
        for (const auto &e : rep.evaluations) {
            if (e.ok()) {
                EXPECT_FALSE(e.cost <= f.cost && e.latency <= f.latency &&
                             (e.cost < f.cost || e.latency < f.latency))
                    << "frontier point dominated";
            }
        }
    const auto onFrontier = [&](const dse::Evaluation &p) {
        return std::any_of(rep.frontier.begin(), rep.frontier.end(),
                           [&](const dse::Evaluation &f) {
                               return f.depths == p.depths;
                           });
    };
    EXPECT_TRUE(onFrontier(rep.minLatency));
    EXPECT_TRUE(onFrontier(rep.knee));
    EXPECT_EQ(rep.minLatency.latency, rep.frontier.back().latency);
}

TEST(DseStrategies, GreedyFindsTheGridOptimumLatency)
{
    const DseReport grid = runDse("reconvergent", "grid", 1024);
    const DseReport greedy = runDse("reconvergent", "greedy", 128);
    ASSERT_TRUE(grid.anyOk);
    ASSERT_TRUE(greedy.anyOk);
    EXPECT_EQ(greedy.minLatency.latency, grid.minLatency.latency);
    EXPECT_LT(greedy.evaluations.size(), grid.evaluations.size());
}

TEST(DseStrategies, AnnealFindsTheGridOptimumLatency)
{
    const DseReport grid = runDse("reconvergent", "grid", 1024);
    const DseReport anneal = runDse("reconvergent", "anneal", 160, 0, 42);
    ASSERT_TRUE(grid.anyOk);
    ASSERT_TRUE(anneal.anyOk);
    EXPECT_EQ(anneal.minLatency.latency, grid.minLatency.latency);
}

TEST(DseStrategies, AnnealStallBoundTerminatesNearGridBudgets)
{
    // Regression for the ROADMAP open item: `reconvergent --budget 512`
    // puts the budget near the default lattice's 625-point grid, and
    // the cooled chain used to crawl for minutes hunting the last
    // unseen configurations — every wave a full re-walk of the cache.
    // The stall bound (256 consecutive proposals without a new unique
    // configuration) must end the search promptly instead; without it
    // this test effectively hangs under the CI timeout. The chain still
    // has to do real work first: it must reach the grid optimum before
    // stalling out.
    const DseReport rep = runDse("reconvergent", "anneal", 512, 0, 42);
    ASSERT_TRUE(rep.anyOk);
    EXPECT_LE(rep.evaluations.size(), 512u);
    const DseReport grid = runDse("reconvergent", "grid", 1024);
    EXPECT_EQ(rep.minLatency.latency, grid.minLatency.latency);
}

TEST(DseStrategies, BinarySearchMatchesGridOnTheChain)
{
    const DseReport grid = runDse("fifo_chain", "grid", 64);
    const DseReport binary = runDse("fifo_chain", "binary", 64);
    ASSERT_TRUE(grid.anyOk);
    ASSERT_TRUE(binary.anyOk);
    EXPECT_EQ(binary.minLatency.latency, grid.minLatency.latency);
    EXPECT_EQ(binary.minLatency.cost, grid.minLatency.cost);
    EXPECT_LT(binary.evaluations.size(), grid.evaluations.size());
}

/** Strip scheduling-dependent fields so runs can be compared. */
struct Essence
{
    DepthVector depths;
    SimStatus status;
    Cycles latency;
    std::uint64_t cost;

    bool
    operator==(const Essence &o) const
    {
        return depths == o.depths && status == o.status &&
               latency == o.latency && cost == o.cost;
    }
};

std::vector<Essence>
essenceOf(const std::vector<dse::Evaluation> &evals)
{
    std::vector<Essence> out;
    for (const auto &e : evals)
        out.push_back({e.depths, e.status, e.latency, e.cost});
    return out;
}

TEST(DseStrategies, SeededAnnealIsBitIdenticalAcrossWorkerCounts)
{
    // The determinism contract: proposals and acceptance draws are
    // generated serially, evaluations are pure and memoized, so the
    // whole search — not just the best point — is identical whether
    // the waves run on one worker or eight. (The evaluation *method*
    // may differ: pool contents depend on completion order.)
    const DseReport a = runDse("reconvergent", "anneal", 96, 1, 7);
    const DseReport b = runDse("reconvergent", "anneal", 96, 8, 7);
    EXPECT_EQ(essenceOf(a.evaluations), essenceOf(b.evaluations));
    EXPECT_EQ(essenceOf(a.frontier), essenceOf(b.frontier));
    EXPECT_EQ(a.minLatency.depths, b.minLatency.depths);
    EXPECT_EQ(a.knee.depths, b.knee.depths);

    // A different seed explores a different trajectory.
    const DseReport c = runDse("reconvergent", "anneal", 96, 4, 8);
    EXPECT_NE(essenceOf(a.evaluations), essenceOf(c.evaluations));
}

TEST(DseStrategies, GridAndGreedyAreBitIdenticalAcrossWorkerCounts)
{
    for (const char *strategy : {"grid", "greedy"}) {
        const DseReport a = runDse("reconvergent", strategy, 200, 1);
        const DseReport b = runDse("reconvergent", strategy, 200, 6);
        EXPECT_EQ(essenceOf(a.evaluations), essenceOf(b.evaluations))
            << strategy;
        EXPECT_EQ(a.minLatency.depths, b.minLatency.depths) << strategy;
    }
}

TEST(DseStrategies, UnknownStrategyThrows)
{
    DseOptions opts;
    opts.strategy = "quantum";
    EXPECT_THROW(dse::exploreRegistered("fifo_chain", opts), FatalError);
}

TEST(DseExplore, ThrowingCompileIsIsolatedPerEvaluation)
{
    // A design with a declared-but-unconnected FIFO builds fine but
    // fails compile() with a FatalError. Each evaluation must surface
    // that as a Crash with the message attached — never unwind through
    // the worker pool and kill the search.
    const auto builder = []() {
        Design d("broken");
        d.declareFifo("dangling", 2);
        d.addModule("m", [](Context &) {});
        return d;
    };
    DseOptions opts;
    opts.strategy = "grid";
    opts.budget = 4;
    opts.jobs = 2;
    opts.space.fifos.push_back({"dangling", 1, 2, false});
    const DseReport rep = dse::explore("broken", builder, opts);
    EXPECT_FALSE(rep.anyOk);
    ASSERT_FALSE(rep.evaluations.empty());
    for (const auto &e : rep.evaluations) {
        EXPECT_EQ(e.status, SimStatus::Crash);
        EXPECT_FALSE(e.message.empty());
    }
}

TEST(DseExplore, DeadlockingConfigurationsAreReportedNotFatal)
{
    // The reconverge pattern of test_incremental: a producer writing
    // f2 fully before f1 deadlocks when f2 is shallow. The explorer
    // must record those points as Deadlock and keep going.
    dse::DseSpace space;
    space.fifos.push_back({"f1", 1, 8, true});
    space.fifos.push_back({"f2", 1, 8, true});
    DseOptions opts;
    opts.strategy = "grid";
    opts.budget = 64;
    opts.space = space;
    const std::size_t n = 6;
    const auto builder = [n]() {
        Design d("reconverge");
        const MemId out = d.addMemory("out", 1);
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
        return d;
    };
    const DseReport rep = dse::explore("reconverge", builder, opts);
    ASSERT_TRUE(rep.anyOk);
    EXPECT_TRUE(std::any_of(rep.evaluations.begin(),
                            rep.evaluations.end(),
                            [](const dse::Evaluation &e) {
                                return e.status == SimStatus::Deadlock;
                            }));
    // Deadlocked points never appear on the frontier.
    for (const auto &f : rep.frontier)
        EXPECT_TRUE(f.ok());
}

} // namespace
} // namespace omnisim
