/** @file Property-based tests: the engine-equivalence invariant
 *  (OmniSim == co-sim == LightningSim where applicable) swept over FIFO
 *  depths, random workloads, and randomly generated dataflow designs. */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "design/context.hh"
#include "helpers.hh"
#include "support/prng.hh"

namespace omnisim
{
namespace
{

using test::checkedOmniSim;
using test::fastCosim;

/** Sweep FIFO depths on Type B/C designs: OmniSim must track co-sim
 *  through every depth-induced behavioural change. The name is a
 *  std::string so gtest prints it by value, not by address, and the
 *  ctest names stay the same from build to build. */
class DepthSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(DepthSweep, OmniSimEqualsCosim)
{
    const auto [name, depth] = GetParam();
    Design d = designs::findDesign(name).build();
    for (std::size_t f = 0; f < d.fifos().size(); ++f)
        d.setFifoDepth(static_cast<FifoId>(f),
                       static_cast<std::uint32_t>(depth));
    const CompiledDesign cd = compile(d);
    const SimResult co = simulateCosim(cd, fastCosim());
    const SimResult om = simulateOmniSim(cd, checkedOmniSim());
    ASSERT_EQ(om.status, co.status);
    EXPECT_EQ(om.memories, co.memories);
    if (co.status == SimStatus::Ok) {
        EXPECT_EQ(om.totalCycles, co.totalCycles);
    }
}

INSTANTIATE_TEST_SUITE_P(
    TypeBC, DepthSweep,
    ::testing::Combine(
        ::testing::Values("fig4_ex4a", "fig4_ex4b", "fig4_ex5",
                          "fig2_timer", "branch"),
        ::testing::Values(1, 2, 3, 5, 16)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_d" +
               std::to_string(std::get<1>(info.param));
    });

/** Randomly generated acyclic blocking pipelines: all three simulators
 *  must agree on both outputs and cycle counts. */
class RandomPipeline : public ::testing::TestWithParam<int>
{};

Design
randomPipeline(std::uint64_t seed)
{
    Prng prng(seed);
    const std::size_t stages = 2 + prng.below(4); // 2..5 modules
    const std::size_t n = 64 + prng.below(256);
    Design d(strf("rand_%llu", static_cast<unsigned long long>(seed)));
    const MemId data = d.addMemory("data", n);
    const MemId out = d.addMemory("out", 1);
    {
        std::vector<Value> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<Value>(prng.range(-100, 100));
        d.setInput(data, v);
    }

    std::vector<FifoId> links(stages + 1);
    for (std::size_t s = 0; s <= stages; ++s) {
        links[s] = d.declareFifo(
            strf("l%zu", s), 1 + static_cast<std::uint32_t>(prng.below(4)));
    }

    std::vector<ModuleId> mods;
    mods.push_back(d.addModule("src", [=](Context &ctx) {
        PipelineScope pipe(ctx, 1);
        for (std::size_t i = 0; i < n; ++i) {
            pipe.iter();
            ctx.write(links[0], ctx.load(data, i));
        }
    }));
    for (std::size_t s = 0; s < stages; ++s) {
        const FifoId in_f = links[s];
        const FifoId out_f = links[s + 1];
        const auto ii = 1 + static_cast<std::uint32_t>(prng.below(3));
        const auto extra = static_cast<Cycles>(prng.below(3));
        const Value mul = prng.range(1, 5);
        mods.push_back(d.addModule(strf("st%zu", s), [=](Context &ctx) {
            PipelineScope pipe(ctx, ii);
            for (std::size_t i = 0; i < n; ++i) {
                pipe.iter();
                const Value v = ctx.read(in_f);
                if (extra)
                    ctx.advance(extra);
                ctx.write(out_f, v * mul + 1);
            }
        }));
    }
    mods.push_back(d.addModule("sink", [=](Context &ctx) {
        Value sum = 0;
        PipelineScope pipe(ctx, 1);
        for (std::size_t i = 0; i < n; ++i) {
            pipe.iter();
            sum += ctx.read(links[stages]);
        }
        ctx.store(out, 0, sum);
    }));

    for (std::size_t s = 0; s <= stages; ++s)
        d.connectFifo(links[s], mods[s], mods[s + 1]);
    return d;
}

TEST_P(RandomPipeline, AllEnginesAgree)
{
    Design d = randomPipeline(static_cast<std::uint64_t>(GetParam()));
    const CompiledDesign cd = compile(d);
    ASSERT_EQ(cd.classification.type, DesignType::A);
    const SimResult co = simulateCosim(cd, fastCosim());
    const SimResult om = simulateOmniSim(cd, checkedOmniSim());
    const SimResult ls = simulateLightningSim(cd);
    ASSERT_EQ(co.status, SimStatus::Ok);
    EXPECT_EQ(om.totalCycles, co.totalCycles);
    EXPECT_EQ(ls.totalCycles, co.totalCycles);
    EXPECT_EQ(om.memories, co.memories);
    EXPECT_EQ(ls.memories, co.memories);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipeline,
                         ::testing::Range(1, 21));

/** Randomly generated Type C stress: a producer with NB drops and a
 *  jittery consumer — OmniSim must equal co-sim for any parameters. */
class RandomNbStress : public ::testing::TestWithParam<int>
{};

TEST_P(RandomNbStress, OmniSimEqualsCosim)
{
    Prng prng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
    const std::size_t n = 128 + prng.below(512);
    const auto depth = 1 + static_cast<std::uint32_t>(prng.below(5));
    const auto prod_pace = static_cast<Cycles>(prng.below(3));
    const auto cons_pace = static_cast<Cycles>(prng.below(4));
    const auto burst = 2 + prng.below(8);

    Design d("nb_stress");
    const MemId data = d.addMemory("data", n);
    const MemId out = d.addMemory("out", 2);
    d.setInput(data, designs::iotaData(n));
    const FifoId f = d.declareFifo("f", depth, AccessKind::NonBlocking,
                                   AccessKind::NonBlocking);
    const ModuleId p = d.addModule(
        "p",
        [=](Context &ctx) {
            Value dropped = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (!ctx.writeNb(f, ctx.load(data, i)))
                    ++dropped;
                if (prod_pace)
                    ctx.advance(prod_pace);
            }
            ctx.store(out, 1, dropped);
        },
        {.hasInfiniteLoop = false, .behaviorVariesOnNb = true});
    const ModuleId c = d.addModule(
        "c",
        [=](Context &ctx) {
            Value sum = 0;
            for (std::size_t k = 0; k < n; ++k) {
                Value v;
                if (ctx.readNb(f, v))
                    sum += v;
                if (cons_pace)
                    ctx.advance(cons_pace);
                if (k % burst == burst - 1)
                    ctx.advance(3);
            }
            ctx.store(out, 0, sum);
        },
        {.hasInfiniteLoop = false, .behaviorVariesOnNb = true});
    d.connectFifo(f, p, c);
    const CompiledDesign cd = compile(d);

    const SimResult co = simulateCosim(cd, fastCosim());
    const SimResult om = simulateOmniSim(cd, checkedOmniSim());
    ASSERT_EQ(co.status, SimStatus::Ok);
    ASSERT_EQ(om.status, SimStatus::Ok);
    EXPECT_EQ(om.memories, co.memories);
    EXPECT_EQ(om.totalCycles, co.totalCycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNbStress,
                         ::testing::Range(1, 26));

/** Input-data invariance: blocking designs must produce cycle counts
 *  independent of data values (control flow is data-independent). */
TEST(Property, BlockingCyclesAreDataIndependent)
{
    Cycles reference = 0;
    for (int seed = 1; seed <= 4; ++seed) {
        Prng prng(seed);
        Design d = designs::findDesign("fig4_ex3").build();
        std::vector<Value> data(designs::tableN);
        for (auto &v : data)
            v = prng.range(0, 1000);
        d.setInput(0, data);
        const CompiledDesign cd = compile(d);
        const SimResult r = simulateOmniSim(cd, checkedOmniSim());
        ASSERT_EQ(r.status, SimStatus::Ok);
        if (seed == 1)
            reference = r.totalCycles;
        else
            EXPECT_EQ(r.totalCycles, reference);
    }
}

/** Monotonicity: deepening every FIFO can never increase latency. */
TEST(Property, DeeperFifosNeverSlowTypeADesigns)
{
    for (const char *name : {"axis_stream", "accum_dataflow",
                             "inr_arch_lite"}) {
        Cycles prev = ~Cycles{0};
        for (std::uint32_t depth : {1u, 2u, 4u, 16u}) {
            Design d = designs::findDesign(name).build();
            for (std::size_t f = 0; f < d.fifos().size(); ++f)
                d.setFifoDepth(static_cast<FifoId>(f), depth);
            const CompiledDesign cd = compile(d);
            const SimResult r = simulateLightningSim(cd);
            ASSERT_EQ(r.status, SimStatus::Ok) << name;
            EXPECT_LE(r.totalCycles, prev) << name << " depth " << depth;
            prev = r.totalCycles;
        }
    }
}

} // namespace
} // namespace omnisim
