/** @file Generator + differential conformance harness tests: spec
 *  serialization round trips, generator determinism and coverage, a
 *  fixed-seed conformance corpus across every oracle pair, shrinker
 *  minimality/validity, and one minimized regression repro per
 *  divergence the harness found during development. */

#include <gtest/gtest.h>

#include <set>

#include "design/frontend.hh"
#include "gen/conformance.hh"
#include "gen/generate.hh"
#include "gen/shrink.hh"
#include "gen/spec.hh"
#include "helpers.hh"
#include "support/prng.hh"

namespace omnisim
{
namespace
{

using gen::GenConfig;
using gen::GenEdge;
using gen::GenProc;
using gen::GenSpec;
using gen::PortMode;

/** Corpus-wide conformance options: cheap but complete. */
gen::ConformanceOptions
corpusOptions()
{
    gen::ConformanceOptions o;
    o.resimProbes = 3;
    o.groundTruthProbes = 1;
    return o;
}

// ---------------------------------------------------------------------------
// Spec model and serialization.
// ---------------------------------------------------------------------------

TEST(GenSpec, SerializationRoundTripsGeneratedSpecs)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const GenSpec spec = gen::generateSpec(seed);
        const std::string text = gen::specToString(spec);
        const GenSpec again = gen::parseSpec(text);
        EXPECT_EQ(spec, again) << text;
        EXPECT_EQ(text, gen::specToString(again));
    }
    // Seeds are full u64: the replay workflow must round-trip the
    // upper half of the seed space too.
    const GenSpec high = gen::generateSpec(0x8000000000000005ull);
    EXPECT_EQ(gen::parseSpec(gen::specToString(high)), high);
}

TEST(GenSpec, ParseRejectsMalformedText)
{
    const GenSpec ok = gen::generateSpec(7);
    const std::string good = gen::specToString(ok);
    EXPECT_NO_THROW(gen::parseSpec(good));
    for (const std::string &bad :
         {std::string("g2;seed=1;items=4;extra=0@0"),
          std::string("g1;seed=1;items=0;extra=0@0"),
          std::string("g1;seed=1;items=4;extra=0@0;X 0>1 d=2 w=b r=b"),
          std::string("g1;seed=1;items=4;extra=0@0;E 0>0 d=2 w=b r=b"),
          std::string("g1;seed=1;items=4;extra=0@0;E 0>1 d=2 w=q r=b"),
          // 2^64 + 1: must be an overflow error, never a silent wrap
          // that replays a different design than the text claims.
          std::string("g1;seed=18446744073709551617;items=4;extra=0@0"),
          // 2^32 + 4 in a 32-bit field: out-of-width, not a wrap to 4.
          std::string("g1;seed=1;items=4294967300;extra=0@0"),
          good + ";", good + "trailing"}) {
        EXPECT_THROW(gen::parseSpec(bad), FatalError) << bad;
    }
}

TEST(GenSpec, ValidationCatchesBrokenStructure)
{
    GenSpec s;
    EXPECT_FALSE(gen::specIsValid(s)); // no processes
    s.procs.resize(2);
    EXPECT_TRUE(gen::specIsValid(s));
    s.edges.push_back({0, 5, 2, PortMode::Blocking, PortMode::Blocking});
    EXPECT_FALSE(gen::specIsValid(s)); // endpoint out of range
    s.edges[0].reader = 1;
    EXPECT_TRUE(gen::specIsValid(s));
    s.edges[0].depth = 0;
    EXPECT_FALSE(gen::specIsValid(s));
    s.edges[0].depth = 2;
    s.extraReads = 1;
    s.extraProc = 0; // proc 0 has no blocking forward in-edge
    EXPECT_FALSE(gen::specIsValid(s));
    s.extraProc = 1;
    EXPECT_TRUE(gen::specIsValid(s));
}

TEST(GenSpec, MaterializeCompilesAcrossSeeds)
{
    std::set<char> types;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        const GenSpec spec = gen::generateSpec(seed);
        Design d = gen::materialize(spec);
        const CompiledDesign cd = compile(d);
        types.insert(designTypeName(cd.classification.type)[0]);
        EXPECT_EQ(d.fifos().size(), spec.edges.size());
        EXPECT_EQ(d.modules().size(), spec.procs.size());
    }
    // The generator must cover the whole taxonomy.
    EXPECT_TRUE(types.count('A'));
    EXPECT_TRUE(types.count('B'));
    EXPECT_TRUE(types.count('C'));
}

TEST(GenSpec, GenerationIsDeterministicAndSeedSensitive)
{
    const GenSpec a1 = gen::generateSpec(42);
    const GenSpec a2 = gen::generateSpec(42);
    EXPECT_EQ(a1, a2);
    // Nearby seeds must decorrelate into different structures.
    std::set<std::string> texts;
    for (std::uint64_t seed = 1; seed <= 16; ++seed)
        texts.insert(gen::specToString(gen::generateSpec(seed)));
    EXPECT_GT(texts.size(), 12u);
}

// ---------------------------------------------------------------------------
// Fixed-seed conformance corpus (the bounded ctest version of `fuzz`).
// ---------------------------------------------------------------------------

TEST(GenConformance, DefaultConfigCorpusIsClean)
{
    std::uint32_t probes = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const GenSpec spec = gen::generateSpec(seed);
        const gen::ConformanceReport rep =
            gen::checkConformance(spec, corpusOptions());
        EXPECT_TRUE(rep.clean())
            << "seed " << seed << ": " << rep.summary() << "\nspec: "
            << gen::specToString(spec);
        probes += rep.probesRun;
    }
    // The depth-delta oracles must keep running: the corpus runs 153
    // probes today, and a drop past 15% means probes stopped reaching
    // them (fewer Ok baselines, or probes aborted by engine errors).
    EXPECT_GE(probes, 131u);
}

TEST(GenConformance, NonBlockingHeavyCorpusIsClean)
{
    GenConfig cfg;
    cfg.pNonBlocking = 0.7;
    cfg.pMixedEnds = 0.15;
    cfg.pResponse = 0.4;
    for (std::uint64_t seed = 1001; seed <= 1040; ++seed) {
        const GenSpec spec = gen::generateSpec(seed, cfg);
        const gen::ConformanceReport rep =
            gen::checkConformance(spec, corpusOptions());
        EXPECT_TRUE(rep.clean())
            << "seed " << seed << ": " << rep.summary() << "\nspec: "
            << gen::specToString(spec);
    }
}

TEST(GenConformance, DeadlockInjectionAgreesAcrossEngines)
{
    GenConfig cfg;
    cfg.pDeadlockInjection = 1.0;
    cfg.pNonBlocking = 0.0;
    cfg.pMixedEnds = 0.0;
    std::size_t deadlocks = 0;
    for (std::uint64_t seed = 2001; seed <= 2020; ++seed) {
        const GenSpec spec = gen::generateSpec(seed, cfg);
        const gen::ConformanceReport rep =
            gen::checkConformance(spec, corpusOptions());
        EXPECT_TRUE(rep.clean())
            << "seed " << seed << ": " << rep.summary() << "\nspec: "
            << gen::specToString(spec);
        deadlocks += rep.baseline == SimStatus::Deadlock;
        if (spec.extraReads > 0) {
            EXPECT_EQ(rep.baseline, SimStatus::Deadlock)
                << "seed " << seed;
        }
    }
    EXPECT_GT(deadlocks, 0u);
}

TEST(GenConformance, ReportSummarizesDivergences)
{
    gen::ConformanceReport rep;
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.summary(), "");
    rep.divergences.push_back({"omnisim-vs-cosim", "cycles differ"});
    rep.divergences.push_back({"io-round-trip", "meta"});
    EXPECT_FALSE(rep.clean());
    EXPECT_EQ(rep.summary(),
              "omnisim-vs-cosim: cycles differ; io-round-trip: meta");
}

// ---------------------------------------------------------------------------
// Shrinker.
// ---------------------------------------------------------------------------

TEST(GenShrink, MinimizesAgainstSyntheticPredicate)
{
    // "Fails" whenever the spec still contains a non-blocking edge: the
    // shrinker must strip everything else and keep exactly that.
    GenConfig cfg;
    cfg.pNonBlocking = 0.9;
    const GenSpec spec = gen::generateSpec(5, cfg);
    const gen::FailPredicate fails = [](const GenSpec &s) {
        for (const GenEdge &e : s.edges)
            if (e.writeMode == PortMode::NonBlocking ||
                e.readMode == PortMode::NonBlocking)
                return true;
        return false;
    };
    ASSERT_TRUE(fails(spec));
    const gen::ShrinkResult res = gen::shrinkSpec(spec, fails);
    EXPECT_TRUE(fails(res.spec));
    EXPECT_TRUE(gen::specIsValid(res.spec));
    EXPECT_EQ(res.spec.items, 1u);
    EXPECT_EQ(res.spec.edges.size(), 1u);
    EXPECT_LE(res.spec.procs.size(), 2u);
    EXPECT_EQ(res.spec.edges[0].depth, 1u);
    // The surviving spec must still materialize and simulate.
    const gen::ConformanceReport rep =
        gen::checkConformance(res.spec, corpusOptions());
    EXPECT_TRUE(rep.clean()) << rep.summary();
}

TEST(GenShrink, RespectsAttemptBudgetAndKeepsFailure)
{
    const GenSpec spec = gen::generateSpec(9);
    std::size_t calls = 0;
    const gen::FailPredicate fails = [&](const GenSpec &) {
        ++calls;
        return true; // everything fails: shrink to the floor
    };
    const gen::ShrinkResult res = gen::shrinkSpec(spec, fails, 64);
    EXPECT_LE(res.attempts, 64u);
    EXPECT_TRUE(gen::specIsValid(res.spec));
    EXPECT_GE(calls, res.attempts);
}

// ---------------------------------------------------------------------------
// Regression repros: minimized specs from divergences the harness found
// during development (each must stay conformant forever).
// ---------------------------------------------------------------------------

/** Run one checked-in repro spec through the full oracle matrix. */
void
expectReproClean(const char *text)
{
    const GenSpec spec = gen::parseSpec(text);
    gen::ConformanceOptions opts = corpusOptions();
    opts.resimProbes = 6; // repros lean on depth probes; probe harder
    const gen::ConformanceReport rep = gen::checkConformance(spec, opts);
    EXPECT_TRUE(rep.clean()) << text << "\n" << rep.summary();
}

TEST(GenRegression, MinimalRequestResponseCycle)
{
    // The smallest Type B shape the generator emits: a blocking
    // request/response pair at depth 1 (the fig4_ex3 skeleton).
    expectReproClean(
        "g1;seed=0;items=4;extra=0@0;"
        "P ii=0 pace=0/0/0/0 src=1+0 chk=-;"
        "P ii=0 pace=0/0/0/0 src=1+0 chk=-;"
        "E 0>1 d=1 w=b r=b;E 1>0 d=1 w=b r=b");
}

TEST(GenRegression, CosimRetroactivePipelinedNbCommit)
{
    // Found by fuzz seed 22, shrunk: a pipelined reader's next-iteration
    // readNb lands at an earlier cycle than its stalled blocking read
    // (the elastic-pipeline rule), so the writer's cycle-t writeNb must
    // not conclude "no space" before that retroactive commit is final.
    // Co-simulation used to treat clock-reached as final and dropped an
    // element OmniSim (correctly) delivered.
    expectReproClean(
        "g1;seed=22;items=2;extra=0@0;"
        "P ii=0 pace=0/0/0/0 src=1+0 chk=-;"
        "P ii=1 pace=0/0/0/0 src=1+0 chk=-;"
        "E 0>1 d=1 w=n r=n;E 0>1 d=1 w=b r=b");
}

TEST(GenRegression, BlindForcedQueryVsElasticFixpoint)
{
    // Found by fuzz seed 614, shrunk: a depth probe re-routes a stall
    // cascade (producer blocked on a shallower FIFO behind a paused
    // query owner) into a quiescent state where the engines must apply
    // the §7.1 earliest-query-false rule without being able to prove
    // its precondition. The engines now resolve floor-provable queries
    // soundly first, report the remaining guess (stats.forcedBlind),
    // and the resimulate-vs-fresh oracle holds guess-free runs to bit
    // equality while still requiring engine agreement on guessed ones.
    expectReproClean(
        "g1;seed=614;items=12;extra=0@0;"
        "P ii=0 pace=0/0/0/0 src=1+0 chk=-;"
        "P ii=1 pace=0/9/38/0 src=1+0 chk=-;"
        "P ii=0 pace=1/0/0/0 src=1+0 chk=-;"
        "E 0>1 d=6 w=b r=b;E 0>2 d=1 w=b r=b;E 1>2 d=1 w=n r=n;"
        "E 0>2 d=1 w=b r=b");
}

TEST(GenRegression, ReusedOkVsSerializedDeadlockProbe)
{
    // Found by fuzz seed 209: a probe made the serialized engines
    // deadlock (with pipelined threads' elastic windows still open)
    // where the recorded-run fixpoint completes; the deadlock is now
    // flagged retro-suspect and both engines must still agree.
    expectReproClean(
        "g1;seed=209;items=5;extra=0@0;"
        "P ii=0 pace=1/0/0/0 src=2+1 chk=f;"
        "P ii=0 pace=1/5/9/2 src=2+7 chk=f;"
        "P ii=3 pace=2/11/37/0 src=1+1 chk=-;"
        "P ii=0 pace=0/2/23/1 src=4+0 chk=f;"
        "P ii=2 pace=1/4/30/3 src=4+1 chk=-;"
        "P ii=0 pace=0/3/32/2 src=2+7 chk=f;"
        "P ii=0 pace=2/0/0/0 src=1+1 chk=ef;"
        "E 0>1 d=1 w=b r=b;E 0>2 d=1 w=b r=b;E 1>3 d=5 w=b r=b;"
        "E 1>4 d=1 w=b r=b;E 4>5 d=1 w=b r=b;E 2>6 d=8 w=b r=n;"
        "E 1>5 d=6 w=b r=b;E 2>3 d=8 w=b r=b");
}

TEST(GenRegression, PipelinedNbBurstProducerProbe)
{
    // Found by fuzz seed 63: reconvergent bursty producer feeding a
    // non-blocking edge whose depth probes used to slip past the
    // recorded-constraint re-check.
    expectReproClean(
        "g1;seed=63;items=35;extra=0@0;"
        "P ii=2 pace=0/0/0/0 src=1+3 chk=ef;"
        "P ii=2 pace=2/5/20/4 src=3+1 chk=-;"
        "P ii=2 pace=0/0/0/0 src=3+4 chk=ef;"
        "E 0>1 d=5 w=b r=b;E 1>2 d=7 w=n r=n;E 0>2 d=7 w=b r=b");
}

} // namespace
} // namespace omnisim
