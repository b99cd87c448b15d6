/** @file Unit tests for the design DSL, validation passes and the
 *  Type A/B/C taxonomy classifier (Table 4 of the paper). */

#include <gtest/gtest.h>

#include <ostream>

#include "design/classify.hh"
#include "design/context.hh"
#include "design/frontend.hh"
#include "designs/common.hh"
#include "designs/typebc.hh"
#include "support/logging.hh"

namespace omnisim
{
namespace
{

ModuleBody
noop()
{
    return [](Context &) {};
}

TEST(DesignBuilder, ValidatesArguments)
{
    Design d("t");
    EXPECT_THROW(d.addMemory("m", 0), FatalError);
    const MemId m = d.addMemory("m", 4);
    EXPECT_THROW(d.setInput(m, {1, 2, 3, 4, 5}), FatalError);
    EXPECT_THROW(d.setInput(99, {1}), FatalError);

    const ModuleId a = d.addModule("a", noop());
    const ModuleId b = d.addModule("b", noop());
    EXPECT_THROW(d.addFifo("f", 0, a, b), FatalError); // zero depth
    EXPECT_THROW(d.addFifo("f", 2, a, 99), FatalError);
    const FifoId f = d.addFifo("f", 2, a, b);
    EXPECT_THROW(d.setFifoDepth(f, 0), FatalError);
    d.setFifoDepth(f, 7);
    EXPECT_EQ(d.fifos()[f].depth, 7u);
    EXPECT_THROW(d.addAxiPort("p", 99, m), FatalError);
    EXPECT_THROW(d.addAxiPort("p", a, 99), FatalError);
}

TEST(DesignBuilder, DeclareConnectRoundTrip)
{
    Design d("t");
    const FifoId f = d.declareFifo("f", 3);
    const ModuleId a = d.addModule("a", noop());
    const ModuleId b = d.addModule("b", noop());
    d.connectFifo(f, a, b);
    EXPECT_EQ(d.fifos()[f].writer, a);
    EXPECT_EQ(d.fifos()[f].reader, b);
    EXPECT_THROW(d.connectFifo(9, a, b), FatalError);
    EXPECT_THROW(d.connectFifo(f, a, 42), FatalError);
}

TEST(Frontend, RejectsBrokenDesigns)
{
    Design empty("empty");
    EXPECT_THROW(compile(empty), FatalError);

    Design dup("dup");
    dup.addModule("same", noop());
    dup.addModule("same", noop());
    EXPECT_THROW(compile(dup), FatalError);

    Design dangling("dangling");
    dangling.addModule("a", noop());
    dangling.declareFifo("f", 2);
    EXPECT_THROW(compile(dangling), FatalError);
}

TEST(Frontend, ThreadPlanCoversAllModules)
{
    Design d("t");
    d.addModule("a", noop());
    d.addModule("b", noop());
    d.addModule("c", noop());
    const CompiledDesign cd = compile(d);
    EXPECT_EQ(cd.threadPlan.size(), 3u);
    EXPECT_EQ(cd.threadPlan[0], 0);
    EXPECT_EQ(cd.threadPlan[2], 2);
}

TEST(Classify, BlockingAcyclicIsTypeA)
{
    Design d("a");
    const ModuleId p = d.addModule("p", noop());
    const ModuleId c = d.addModule("c", noop());
    d.addFifo("f", 2, p, c);
    const Classification cls = classify(d);
    EXPECT_EQ(cls.type, DesignType::A);
    EXPECT_FALSE(cls.cyclic);
    EXPECT_FALSE(cls.anyNonBlocking);
    EXPECT_EQ(cls.funcSimLevel, SimLevel::L1);
    EXPECT_EQ(cls.perfSimLevel, SimLevel::L1);
    ASSERT_EQ(cls.topoOrder.size(), 2u);
    EXPECT_EQ(cls.topoOrder[0], p);
    EXPECT_EQ(cls.topoOrder[1], c);
}

TEST(Classify, NonBlockingMakesTypeB)
{
    Design d("b");
    const ModuleId p = d.addModule("p", noop());
    const ModuleId c = d.addModule("c", noop());
    d.addFifo("f", 2, p, c, AccessKind::NonBlocking,
              AccessKind::Blocking);
    const Classification cls = classify(d);
    EXPECT_EQ(cls.type, DesignType::B);
    EXPECT_TRUE(cls.anyNonBlocking);
    EXPECT_EQ(cls.funcSimLevel, SimLevel::L2);
    EXPECT_EQ(cls.perfSimLevel, SimLevel::L3);
}

TEST(Classify, CyclicBlockingIsTypeB)
{
    Design d("b");
    const ModuleId p = d.addModule("p", noop());
    const ModuleId c = d.addModule("c", noop());
    d.addFifo("f1", 2, p, c);
    d.addFifo("f2", 2, c, p);
    const Classification cls = classify(d);
    EXPECT_EQ(cls.type, DesignType::B);
    EXPECT_TRUE(cls.cyclic);
    EXPECT_TRUE(cls.topoOrder.empty());
    ASSERT_EQ(cls.cycles.size(), 1u);
    EXPECT_EQ(cls.cycles[0].size(), 2u);
}

TEST(Classify, BehaviorVariationMakesTypeC)
{
    Design d("c");
    const ModuleId p = d.addModule(
        "p", noop(), {.hasInfiniteLoop = false,
                      .behaviorVariesOnNb = true});
    const ModuleId c = d.addModule("c", noop());
    d.addFifo("f", 2, p, c, AccessKind::NonBlocking,
              AccessKind::NonBlocking);
    const Classification cls = classify(d);
    EXPECT_EQ(cls.type, DesignType::C);
    EXPECT_EQ(cls.funcSimLevel, SimLevel::L3);
    EXPECT_EQ(cls.perfSimLevel, SimLevel::L3);
}

TEST(Classify, BehaviorVariationWithoutNbIsRejected)
{
    Design d("bad");
    const ModuleId p = d.addModule(
        "p", noop(), {.hasInfiniteLoop = false,
                      .behaviorVariesOnNb = true});
    const ModuleId c = d.addModule("c", noop());
    d.addFifo("f", 2, p, c);
    EXPECT_THROW(classify(d), FatalError);
}

TEST(Classify, SelfLoopIsCyclic)
{
    Design d("self");
    const ModuleId m = d.addModule("m", noop());
    d.addFifo("loop", 2, m, m);
    const Classification cls = classify(d);
    EXPECT_TRUE(cls.cyclic);
    ASSERT_EQ(cls.cycles.size(), 1u);
    EXPECT_EQ(cls.cycles[0].size(), 1u);
}

TEST(Classify, TopoOrderPrefersDeclarationOrder)
{
    Design d("topo");
    const ModuleId a = d.addModule("a", noop());
    const ModuleId b = d.addModule("b", noop());
    const ModuleId c = d.addModule("c", noop());
    d.addFifo("f", 2, c, a); // c must precede a
    const Classification cls = classify(d);
    ASSERT_EQ(cls.topoOrder.size(), 3u);
    // b is independent: declaration order places it by lowest id first.
    EXPECT_EQ(cls.topoOrder[0], b);
    EXPECT_EQ(cls.topoOrder[1], c);
    EXPECT_EQ(cls.topoOrder[2], a);
}

/** Table 4 reproduction: every suite design classifies as published. */
struct Table4Row
{
    const char *name;
    DesignType type;
    bool cyclic;
};

/** Print a row by value. gtest's default dumps the row's bytes, that is
 *  the address of `name` and the padding, so the ctest name would change
 *  on every build. */
void
PrintTo(const Table4Row &row, std::ostream *os)
{
    *os << "(\"" << row.name << "\", " << designTypeName(row.type) << ", "
        << (row.cyclic ? "cyclic" : "acyclic") << ")";
}

class Table4Test : public ::testing::TestWithParam<Table4Row>
{};

TEST_P(Table4Test, MatchesPublishedTaxonomy)
{
    const Table4Row row = GetParam();
    Design d = designs::findDesign(row.name).build();
    const DesignSummary s = summarize(d);
    EXPECT_EQ(s.type, row.type) << row.name;
    EXPECT_EQ(s.cyclic, row.cyclic) << row.name;
}

INSTANTIATE_TEST_SUITE_P(
    Table4, Table4Test,
    ::testing::Values(
        Table4Row{"fig4_ex2", DesignType::B, true},
        Table4Row{"fig4_ex3", DesignType::B, true},
        Table4Row{"fig4_ex4a", DesignType::C, false},
        Table4Row{"fig4_ex4a_d", DesignType::C, true},
        Table4Row{"fig4_ex4b", DesignType::C, false},
        Table4Row{"fig4_ex4b_d", DesignType::C, true},
        Table4Row{"fig4_ex5", DesignType::C, false},
        Table4Row{"fig2_timer", DesignType::C, false},
        Table4Row{"deadlock", DesignType::B, true},
        Table4Row{"branch", DesignType::C, true},
        Table4Row{"multicore", DesignType::C, true}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(Classify, AllTypeASuiteDesignsAreTypeA)
{
    for (const auto &e : designs::typeADesigns()) {
        Design d = e.build();
        const Classification cls = classify(d);
        EXPECT_EQ(cls.type, DesignType::A) << e.name;
        EXPECT_FALSE(cls.cyclic) << e.name;
    }
}

TEST(Classify, MulticoreMatchesTable4Scale)
{
    Design d = designs::buildMulticore();
    EXPECT_EQ(d.modules().size(), 34u); // 16 x 2 + dispatcher + collector
    EXPECT_EQ(d.fifos().size(), 64u);   // 4 per core
}

} // namespace
} // namespace omnisim
