/**
 * @file
 * The four omnibench workloads. Each runs in its own process, takes
 * every generated input from its seed, and times only calls into the
 * library's public functions; checks run untimed and untraced.
 */

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <thread>

#include "core/omnisim.hh"
#include "cosim/cosim.hh"
#include "csim/csim.hh"
#include "design/frontend.hh"
#include "designs/common.hh"
#include "dse/dse.hh"
#include "io/run_io.hh"
#include "obs/trace.hh"
#include "omnibench.hh"
#include "serve/json.hh"
#include "serve/service.hh"
#include "support/logging.hh"
#include "support/prng.hh"
#include "support/sync.hh"

namespace omnibench
{

namespace
{

using namespace omnisim;
namespace fs = std::filesystem;
using DesignList = std::vector<const designs::DesignEntry *>;

double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e3;
}

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

DesignList
named(std::initializer_list<const char *> names)
{
    DesignList out;
    for (const char *n : names)
        out.push_back(&designs::findDesign(n));
    return out;
}

DesignList
suite(const std::vector<designs::DesignEntry> &s)
{
    DesignList out;
    for (const auto &e : s)
        out.push_back(&e);
    return out;
}

template <typename T>
void
shuffle(std::vector<T> &v, Prng &prng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[prng.below(i)]);
}

/** A registry design after the front end; the Design lives on the heap
 *  so CompiledDesign's pointer survives moves. */
struct Built
{
    std::unique_ptr<Design> design;
    CompiledDesign cd;
};

Built
build(const designs::DesignEntry &e,
      const std::vector<std::uint32_t> *depths = nullptr)
{
    Built b;
    {
        OMNISIM_SPAN("bench.design_build");
        b.design = std::make_unique<Design>(e.build());
    }
    if (depths)
        for (std::size_t f = 0; f < depths->size(); ++f)
            b.design->setFifoDepth(static_cast<FifoId>(f), (*depths)[f]);
    {
        OMNISIM_SPAN("bench.frontend");
        b.cd = compile(*b.design);
    }
    return b;
}

/** A cold simulate from scratch: build, compile, OmniSim::run (jobs=1).
 *  @param ms receives its host time. */
SimResult
coldRun(const designs::DesignEntry &e,
        const std::vector<std::uint32_t> *depths, VisibleStats &visible,
        double &ms)
{
    const Clock::time_point t0 = Clock::now();
    Built b = build(e, depths);
    OmniSim sim(b.cd);
    SimResult r = sim.run();
    ms = msSince(t0);
    visible.noteRun(r);
    if (r.ok())
        visible.noteCompile(sim.compileStats());
    return r;
}

/** @return how many of the units are clean (stolen at most kMaxStolen). */
std::size_t
cleanCount(const std::vector<Unit> &units)
{
    return static_cast<std::size_t>(
        std::count_if(units.begin(), units.end(),
                      [](const Unit &u) { return u.stolen <= kMaxStolen; }));
}

/** A design's speed-up: the median of its clean units (cleanRatios()). */
double
unitSpeedup(const std::vector<Unit> &units)
{
    return median(cleanRatios(units));
}

/** Geomean of the lowest third (at least one) of the speed-ups. */
double
lowestThird(std::vector<double> speedups)
{
    std::sort(speedups.begin(), speedups.end());
    speedups.resize((speedups.size() + 2) / 3);
    return geomeanOf(speedups);
}

bool
sameOutputs(const SimResult &a, const SimResult &b)
{
    return a.status == b.status && a.memories == b.memories &&
           (!a.ok() || a.totalCycles == b.totalCycles);
}

// ---------------------------------------------------------------------------
// bc_cold / a_cold: cold simulate of a registry suite against a reference
// engine.
// ---------------------------------------------------------------------------

enum class RefEngine : std::uint8_t
{
    Cosim,
    CSim,
};

class ColdWorkload : public Workload
{
  public:
    ColdWorkload(std::string name, DesignList designs, RefEngine ref,
                 unsigned simsPerUnit, unsigned refsPerUnit,
                 std::uint64_t seed)
        : name_(std::move(name)), designs_(std::move(designs)), ref_(ref),
          simsPerUnit_(simsPerUnit), refsPerUnit_(refsPerUnit), prng_(seed)
    {}

    void
    setup(Checks &checks) override
    {
        visible_ = {};
        base_.clear();
        for (const auto *e : designs_) {
            Built b = build(*e);
            OmniSimOptions o;
            o.jobs = 1;
            OmniSim sim(b.cd, o);
            Base base;
            {
                OMNISIM_SPAN("bench.omnisim_run");
                base.rep0 = sim.run();
            }
            visible_.noteRun(base.rep0);
            if (base.rep0.ok())
                visible_.noteCompile(sim.compileStats());
            if (ref_ == RefEngine::CSim) {
                base.csim0 = simulateCSim(b.cd);
                checks.expect(base.csim0.memories == base.rep0.memories,
                              name_ + ": " + e->name +
                                  " memories differ from csim");
            }
            base_.push_back(std::move(base));
        }
    }

    PhaseResult
    measure(double seconds, Tracer &tracer, Checks &checks) override
    {
        const std::size_t n = designs_.size();
        std::vector<Samples> samples(n);
        const Clock::time_point end = deadline(seconds);

        // Each round runs one unit of each design that has the fewest clean
        // units so far, in a seeded order: a design whose unit the host
        // stole goes again before the others, and no design is favoured
        // when the deadline cuts a round short.
        std::vector<std::size_t> round(n);
        std::iota(round.begin(), round.end(), 0);
        bool expired = false;
        while (!expired) {
            shuffle(round, prng_);
            std::vector<std::size_t> counts(n);
            for (std::size_t d = 0; d < n; ++d)
                counts[d] = cleanCount(samples[d].units);
            const std::size_t fewest =
                *std::min_element(counts.begin(), counts.end());
            for (const std::size_t d : round) {
                if (counts[d] != fewest)
                    continue;
                if (Clock::now() >= end) {
                    expired = true;
                    break;
                }
                runUnit(d, samples[d], tracer, checks);
            }
        }
        for (std::size_t d = 0; d < n; ++d) // a median needs a unit
            if (samples[d].units.empty())
                runUnit(d, samples[d], tracer, checks);

        // A design's speed-up is the median over its clean units of the
        // unit's reference over operation time (unitSpeedup()). The tail
        // is the geomean over the third of the designs with the lowest
        // speed-ups, the work speed-up the geomean over the half of the
        // designs with the longest median cold simulate: where the
        // suite's time goes. Weighting every design by its time instead
        // rests half of a_cold on inr_arch_lite, whose ~20 cold simulates
        // a run are too few for a steady median (README.md).
        PhaseResult r;
        std::vector<double> medians, p90s, ratios;
        for (std::size_t d = 0; d < n; ++d) {
            const Samples &s = samples[d];
            const double m = median(s.sims);
            medians.push_back(m);
            p90s.push_back(quantile(s.sims, 0.90));
            ratios.push_back(unitSpeedup(s.units));
            r.notes.push_back(strf(
                "%-24s sims=%-4zu sim_p50=%9.3fms p90=%9.3fms  %s=%-4zu "
                "ref_p50=%9.3fms  units=%zu/%-3zu ref/sim=%.4g",
                designs_[d]->name.c_str(), s.sims.size(), m, p90s[d],
                refName(), s.refs.size(), median(s.refs),
                cleanCount(s.units), s.units.size(), ratios[d]));
        }
        r.opP50Ms = geomeanOf(medians);
        r.opTailMs = geomeanOf(p90s);
        r.speedupX = geomeanOf(ratios);
        r.speedupTailX = lowestThird(ratios);
        std::vector<std::size_t> bySize(n);
        std::iota(bySize.begin(), bySize.end(), 0);
        std::sort(bySize.begin(), bySize.end(),
                  [&](std::size_t a, std::size_t b) {
                      return medians[a] > medians[b];
                  });
        std::vector<double> heavy;
        for (std::size_t k = 0; k < (n + 1) / 2; ++k)
            heavy.push_back(ratios[bySize[k]]);
        r.speedupWorkX = geomeanOf(heavy);
        return r;
    }

  private:
    struct Base
    {
        SimResult rep0;  ///< First cold simulate (determinism reference).
        SimResult csim0; ///< C simulation (a_cold reference).
    };

    const char *refName() const
    {
        return ref_ == RefEngine::Cosim ? "cosim" : "csim";
    }

    /** Shortest unit: designs that run in microseconds repeat theirs. */
    static constexpr double kMinUnitMs = 10.0;

    /** One design's host times over the phase. */
    struct Samples
    {
        std::vector<double> sims;       ///< Every cold simulate, ms.
        std::vector<double> refs;       ///< Every reference run, ms.
        std::vector<Unit> units;        ///< Ratio: median ref / sim.
    };

    /**
     * One unit of design d: its operations and references back to back,
     * the more numerous kind split around the other, the whole pattern
     * repeated until the unit has taken kMinUnitMs.
     */
    void
    runUnit(std::size_t d, Samples &s, Tracer &tracer, Checks &checks)
    {
        const bool refsOutside = refsPerUnit_ > simsPerUnit_;
        const unsigned outer = refsOutside ? refsPerUnit_ : simsPerUnit_;
        const unsigned inner = refsOutside ? simsPerUnit_ : refsPerUnit_;
        std::vector<double> unitSims, unitRefs;
        std::vector<double> &outerMs = refsOutside ? unitRefs : unitSims;
        std::vector<double> &innerMs = refsOutside ? unitSims : unitRefs;
        const Clock::time_point t0 = Clock::now();
        const StealMeter steal;
        do {
            for (unsigned k = 0; k < outer / 2; ++k)
                outerMs.push_back(runOne(d, refsOutside, tracer, checks));
            for (unsigned k = 0; k < inner; ++k)
                innerMs.push_back(runOne(d, !refsOutside, tracer, checks));
            for (unsigned k = outer / 2; k < outer; ++k)
                outerMs.push_back(runOne(d, refsOutside, tracer, checks));
        } while (msSince(t0) < kMinUnitMs);
        s.sims.insert(s.sims.end(), unitSims.begin(), unitSims.end());
        s.refs.insert(s.refs.end(), unitRefs.begin(), unitRefs.end());
        s.units.push_back(
            {median(unitRefs) / median(unitSims), steal.share()});
    }

    /** One timed operation plus its untimed, untraced check.
     *  @return its host time in ms. */
    double
    runOne(std::size_t d, bool isRef, Tracer &tracer, Checks &checks)
    {
        const designs::DesignEntry &e = *designs_[d];
        const Base &base = base_[d];
        Built b;
        std::unique_ptr<OmniSim> sim;
        SimResult r;
        const Clock::time_point t0 = Clock::now();
        if (isRef) {
            OMNISIM_SPAN("bench.reference");
            b = build(e);
            if (ref_ == RefEngine::Cosim) {
                OMNISIM_SPAN("bench.cosim");
                r = simulateCosim(b.cd);
            } else {
                OMNISIM_SPAN("bench.csim");
                r = simulateCSim(b.cd);
            }
        } else {
            OMNISIM_SPAN("bench.cold_simulate");
            b = build(e);
            OmniSimOptions o;
            o.jobs = 1;
            sim = std::make_unique<OmniSim>(b.cd, o);
            OMNISIM_SPAN("bench.omnisim_run");
            r = sim->run();
        }
        const double ms = msSince(t0);

        Untraced quiet(tracer);
        if (!isRef) {
            visible_.noteRun(r);
            checks.expect(sameOutputs(r, base.rep0),
                          name_ + ": " + e.name + " differs from rep 0");
            if (ref_ == RefEngine::CSim)
                checks.expect(r.memories == base.csim0.memories,
                              name_ + ": " + e.name +
                                  " memories differ from csim");
        } else if (ref_ == RefEngine::Cosim) {
            checks.expect(sameOutputs(r, base.rep0),
                          name_ + ": " + e.name + " differs from cosim");
        } else {
            checks.expect(r.memories == base.rep0.memories,
                          name_ + ": " + e.name +
                              " csim memories differ from omnisim");
        }
        return ms;
    }

    std::string name_;
    DesignList designs_;
    RefEngine ref_;
    unsigned simsPerUnit_;
    unsigned refsPerUnit_;
    Prng prng_;
    std::vector<Base> base_;
};

// ---------------------------------------------------------------------------
// dse_warm: §7.2 re-simulation probes against pooled runs, then DSE.
// ---------------------------------------------------------------------------

class DseWarm : public Workload
{
  public:
    explicit DseWarm(std::uint64_t seed)
        : designs_(named({"fifo_chain", "reconvergent", "fig4_ex5",
                          "fig2_timer", "fir_filter", "axis_stream",
                          "multicore", "flowgnn_lite", "skynet_lite",
                          "inr_arch_lite"})),
          explored_(named({"fifo_chain", "reconvergent", "fig4_ex5",
                           "fig2_timer", "fir_filter", "axis_stream",
                           "flowgnn_lite"})),
          prng_(seed)
    {}

    void
    setup(Checks &checks) override
    {
        visible_ = {};
        pool_.clear();
        OmniSimOptions o;
        o.jobs = std::min(4u, hostThreads());
        for (const auto *e : designs_) {
            auto p = std::make_unique<Pooled>();
            p->built = build(*e);
            p->sim = std::make_unique<OmniSim>(p->built.cd, o);
            SimResult r;
            {
                OMNISIM_SPAN("bench.omnisim_run");
                r = p->sim->run();
            }
            checks.expect(r.ok(), "dse_warm: pooled run of " + e->name +
                                      " did not complete");
            visible_.noteRun(r);
            if (r.ok())
                visible_.noteCompile(p->sim->compileStats());
            for (const auto &f : p->built.design->fifos())
                p->base.push_back(f.depth);
            pool_.push_back(std::move(p));
        }
    }

    PhaseResult
    measure(double seconds, Tracer &tracer, Checks &checks) override
    {
        const std::size_t n = pool_.size();
        std::vector<std::vector<double>> probes(n), refs(n);
        std::vector<std::vector<Unit>> units(n);
        std::vector<double> tailFactors, cleanTailFactors;

        // Probes: for 60% of the phase, rounds of one unit per design in
        // a seeded order. A unit is kProbesPerSide probes, the
        // from-scratch reference of the last of them (also its check),
        // and kProbesPerSide more, so that both sides see the same
        // second of the host. A unit's speed-up is the reference over
        // the geomean of its probes, and a design's the geomean over its
        // clean units: a median, of probes or of units, would jump by the
        // cost of one full fall-back (about 10 delta probes) as the count
        // of fall-backs near it changes from seed to seed.
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        const Clock::time_point probesEnd = deadline(0.6 * seconds);
        const Clock::time_point end = deadline(seconds);
        bool expired = false;
        while (!expired) {
            shuffle(order, prng_);
            for (const std::size_t d : order) {
                if (Clock::now() >= probesEnd) {
                    expired = true;
                    break;
                }
                std::vector<double> unit;
                const StealMeter steal;
                for (unsigned k = 0; k < 2 * kProbesPerSide; ++k) {
                    const bool check = k + 1 == kProbesPerSide;
                    unit.push_back(
                        probe(d, check ? &refs[d] : nullptr, tracer, checks));
                }
                const double typical = geomeanOf(unit);
                units[d].push_back({refs[d].back() / typical, steal.share()});
                for (const double t : unit) {
                    tailFactors.push_back(t / typical);
                    if (units[d].back().stolen <= kMaxStolen)
                        cleanTailFactors.push_back(t / typical);
                }
                probes[d].insert(probes[d].end(), unit.begin(), unit.end());
            }
        }

        // DSE: rounds of one unit per explored design until the phase
        // ends, at least one. A unit is a cold simulate of the design, an
        // exploration and another cold simulate; its work speed-up is
        // the time cold-simulating every unique configuration the
        // exploration evaluated would take (at the unit's mean cold
        // simulate) over the exploration's wall time.
        const std::size_t m = explored_.size();
        std::vector<double> evals(m, 0), wall(m, 0);
        std::vector<std::vector<double>> cold(m);
        std::vector<std::vector<Unit>> works(m);
        std::vector<std::size_t> xorder(m);
        std::iota(xorder.begin(), xorder.end(), 0);
        do {
            shuffle(xorder, prng_);
            for (const std::size_t d : xorder) {
                double before = 0, after = 0;
                const StealMeter steal;
                {
                    Untraced quiet(tracer);
                    coldRun(*explored_[d], nullptr, visible_, before);
                }
                const auto [unitEvals, unitSeconds] =
                    explore(d, tracer, checks);
                {
                    Untraced quiet(tracer);
                    coldRun(*explored_[d], nullptr, visible_, after);
                }
                cold[d].push_back(before);
                cold[d].push_back(after);
                evals[d] += unitEvals;
                wall[d] += unitSeconds;
                works[d].push_back({unitEvals * (before + after) / 2 /
                                         (unitSeconds * 1e3),
                                     steal.share()});
            }
        } while (Clock::now() < end);

        PhaseResult r;
        std::vector<double> p50, p99, ratios;
        for (std::size_t d = 0; d < n; ++d) {
            p50.push_back(quantile(probes[d], 0.5));
            p99.push_back(quantile(probes[d], 0.99));
            ratios.push_back(geomeanOf(cleanRatios(units[d])));
            r.notes.push_back(strf(
                "%-24s probes=%-6zu p50=%9.4fms p90=%9.4fms p99=%9.4fms  "
                "checked=%-4zu ref_p50=%9.4fms  units=%zu/%-3zu "
                "ref/probe=%.4g",
                designs_[d]->name.c_str(), probes[d].size(), p50[d],
                quantile(probes[d], 0.90), p99[d], refs[d].size(),
                median(refs[d]), cleanCount(units[d]),
                units[d].size(), ratios[d]));
        }
        // Per explored design: unitSpeedup(); geomean over designs.
        double evalsAll = 0, wallAll = 0;
        std::vector<double> work;
        for (std::size_t x = 0; x < m; ++x) {
            evalsAll += evals[x];
            wallAll += wall[x];
            work.push_back(unitSpeedup(works[x]));
            r.notes.push_back(strf(
                "explore %-16s units=%zu/%-3zu evals=%-6.0f wall=%8.3fs  "
                "cold_p50=%8.3fms  work=%.4g",
                explored_[x]->name.c_str(), cleanCount(works[x]),
                works[x].size(), evals[x], wall[x], median(cold[x]),
                work.back()));
        }
        r.notes.push_back(strf("explore: %.1f unique configurations/s",
                               wallAll > 0 ? evalsAll / wallAll : 0.0));
        r.opP50Ms = geomeanOf(p50);
        r.opTailMs = geomeanOf(p99);
        r.speedupX = geomeanOf(ratios);
        r.speedupTailX =
            r.speedupX / quantile(cleanTailFactors.empty() ? tailFactors
                                                           : cleanTailFactors,
                                  0.90);
        r.speedupWorkX = geomeanOf(work);
        return r;
    }

  private:
    /** Probes on each side of a unit's reference. */
    static constexpr unsigned kProbesPerSide = 8;

    struct Pooled
    {
        Built built;
        std::unique_ptr<OmniSim> sim;
        std::vector<std::uint32_t> base;
    };

    /**
     * One seeded probe of design d. With refs, the from-scratch
     * reference then runs on the same depths, untimed by the probe and
     * untraced, its time is appended to refs, and both must agree.
     * @return the probe's host time in ms.
     */
    double
    probe(std::size_t d, std::vector<double> *refs, Tracer &tracer,
          Checks &checks)
    {
        Pooled &p = *pool_[d];
        const std::vector<std::uint32_t> depths = nextProbe(p.base);
        IncrementalOutcome out;
        const Clock::time_point t0 = Clock::now();
        {
            OMNISIM_SPAN("bench.resimulate");
            out = p.sim->resimulate(depths);
        }
        const double ms = msSince(t0);
        tracer.drain();
        if (!refs)
            return ms;
        Untraced quiet(tracer);
        const Clock::time_point r0 = Clock::now();
        const IncrementalOutcome ref = p.sim->resimulateReference(depths);
        refs->push_back(msSince(r0));
        checks.expect(ref.reused == out.reused &&
                          (!ref.reused ||
                           ref.result.totalCycles == out.result.totalCycles),
                      "dse_warm: " + designs_[d]->name +
                          " resimulate disagrees with the reference");
        return ms;
    }

    /** One anneal exploration of explored design x (budget 256).
     *  @return its evaluations and wall seconds. */
    std::pair<double, double>
    explore(std::size_t x, Tracer &tracer, Checks &checks)
    {
        dse::DseOptions opts;
        opts.strategy = "anneal";
        opts.budget = 256;
        opts.jobs = std::min(2u, hostThreads());
        opts.seed = prng_.next();
        dse::DseReport rep;
        const Clock::time_point t0 = Clock::now();
        {
            OMNISIM_SPAN("bench.explore");
            rep = dse::exploreRegistered(explored_[x]->name, opts);
        }
        const double seconds = secondsSince(t0);
        tracer.drain();
        Untraced quiet(tracer);
        const bool crashed =
            std::any_of(rep.evaluations.begin(), rep.evaluations.end(),
                        [](const dse::Evaluation &e) {
                            return e.status == SimStatus::Crash;
                        });
        checks.expect(rep.anyOk && !crashed,
                      "dse_warm: exploring " + explored_[x]->name +
                          " failed");
        return {static_cast<double>(rep.evaluations.size()), seconds};
    }

    /** Re-size one to three FIFOs to a depth in 1..16. */
    std::vector<std::uint32_t>
    nextProbe(const std::vector<std::uint32_t> &base)
    {
        std::vector<std::uint32_t> d = base;
        const std::size_t touches =
            1 + prng_.below(std::min<std::size_t>(3, d.size()));
        for (std::size_t k = 0; k < touches; ++k)
            d[prng_.below(d.size())] =
                1 + static_cast<std::uint32_t>(prng_.below(16));
        return d;
    }

    DesignList designs_;
    DesignList explored_;
    Prng prng_;
    std::vector<std::unique_ptr<Pooled>> pool_;
};

// ---------------------------------------------------------------------------
// serve_mix: a closed loop of clients against an in-process SimService.
// ---------------------------------------------------------------------------

class ServeMix : public Workload
{
  public:
    ServeMix(std::uint64_t seed, const std::string &scratch)
        : designs_(named({"fifo_chain", "reconvergent", "fig4_ex5",
                          "fig2_timer", "fir_filter", "axis_stream",
                          "vector_add_stream", "hamming_fixed"})),
          seed_(seed), prng_(seed),
          storeDir_((fs::path(scratch) /
                     strf("serve-store-%llu",
                          static_cast<unsigned long long>(seed)))
                        .string())
    {}

    ~ServeMix() override
    {
        svc_.reset();
        std::error_code ec;
        fs::remove_all(storeDir_, ec);
    }

    /** A first service traces every design at its registered depths and
     *  publishes the runs to a fresh store. */
    void
    prepare(Checks &checks) override
    {
        fs::remove_all(storeDir_);
        serve::SimService first(serviceOptions());
        for (const auto *e : designs_) {
            const Design design = e->build();
            std::vector<std::uint32_t> depths;
            for (const auto &f : design.fifos())
                depths.push_back(f.depth);
            base_.push_back(std::move(depths));
            const Reply rep = roundTrip(
                first, requestLine(0, "simulate", *e, base_.back()));
            checks.expect(rep.ok && rep.fullRun,
                          "serve_mix: first simulate of " + e->name +
                              " failed");
        }
    }

    /**
     * A service restart over the populated store: its first request per
     * design rehydrates the stored run (file read plus freeze) instead of
     * tracing the design again.
     */
    void
    setup(Checks &checks) override
    {
        visible_ = {};
        svc_.reset();
        svc_ = std::make_unique<serve::SimService>(serviceOptions());
        for (std::size_t d = 0; d < designs_.size(); ++d) {
            const Reply rep = roundTrip(
                *svc_, requestLine(0, "resimulate", *designs_[d], base_[d]));
            checks.expect(rep.ok && !rep.fullRun,
                          "serve_mix: after a restart " + designs_[d]->name +
                              " was not answered from the store");
        }
    }

    PhaseResult
    measure(double seconds, Tracer &tracer, Checks &checks) override
    {
        const unsigned clients = std::min(2u, hostThreads());
        const Clock::time_point end = deadline(seconds);

        // The closed loop runs in segments (segmentPlan()); between
        // segments every span is closed, so the tracer can drain without
        // cutting one. Between segments, with the service idle, four
        // designs in turn each get one direct run of a seeded request
        // from the segment: the reference, timed on the host the mix just
        // saw, and a check of that response.
        const std::size_t n = designs_.size();
        std::vector<Record> records;
        std::vector<std::vector<Direct>> direct(n);
        std::size_t nextDirect = 0;
        std::size_t segments = 0;
        std::vector<double> segmentMs, segmentStolen;
        double mixSeconds = 0;
        while (Clock::now() < end) {
            std::vector<std::vector<Record>> got(clients);
            std::vector<std::thread> threads;
            const std::uint64_t stream = ++segments_; // fresh streams
            const Clock::time_point s0 = Clock::now();
            const StealMeter steal;
            for (unsigned c = 0; c < clients; ++c)
                threads.emplace_back([&, c] {
                    Prng prng(seed_ ^ (0x9e3779b97f4a7c15ULL *
                                       (1 + c + clients * stream)));
                    for (const auto &[d, simulate] : segmentPlan(prng)) {
                        if (Clock::now() >= end)
                            break;
                        got[c].push_back(
                            oneRequest(prng, d, simulate, segments));
                    }
                });
            for (std::thread &t : threads)
                t.join();
            segmentMs.push_back(msSince(s0));
            mixSeconds += segmentMs.back() / 1e3;
            tracer.drain();
            const std::size_t first = records.size();
            for (auto &g : got)
                records.insert(records.end(), g.begin(), g.end());
            ++segments;
            Untraced quiet(tracer);
            for (int k = 0; k < 4; ++k) {
                directRun(nextDirect, records, first, direct[nextDirect],
                          checks);
                nextDirect = (nextDirect + 1) % n;
            }
            segmentStolen.push_back(steal.share());
        }
        {
            Untraced quiet(tracer);
            for (std::size_t d = 0; d < n; ++d) // a pairing needs one
                if (direct[d].empty())
                    directRun(d, records, 0, direct[d], checks);
        }
        for (const Record &rec : records)
            checks.expect(rec.reply.ok, "serve_mix: a request to " +
                                            designs_[rec.design]->name +
                                            " answered ok:false");
        const double openMs = openStoredRuns(tracer, checks);

        // A unit is a direct run and the requests of its design in the
        // segment before it, so that both see the same second of the
        // host. A design's speed-up is the median over its clean units
        // (unitSpeedup()) of the direct run over the median request; its
        // tail speed-up, over the slowest request, a full run. The work
        // speed-up is the median over clean segments of the time direct
        // runs of the segment's requests would take, each at its design's
        // direct run nearest in time (at most a segment away), over the
        // segment's wall time.
        PhaseResult r;
        std::vector<double> all, ratios, tails;
        std::vector<std::vector<double>> mine(n), full(n), incr(n),
            directMs(n);
        std::vector<std::vector<std::vector<double>>> bySegment(
            n, std::vector<std::vector<double>>(segments));
        std::vector<double> segmentWork(segments, 0.0);
        std::vector<Unit> segmentUnits;
        for (const Record &rec : records) {
            all.push_back(rec.reply.ms);
            segmentWork[rec.segment] +=
                nearestDirect(direct[rec.design], rec.segment);
            mine[rec.design].push_back(rec.reply.ms);
            bySegment[rec.design][rec.segment].push_back(rec.reply.ms);
            if (rec.reply.fullRun)
                full[rec.design].push_back(rec.reply.ms);
            if (rec.reply.incremental)
                incr[rec.design].push_back(rec.reply.ms);
        }
        for (std::size_t s = 0; s < segments; ++s)
            segmentUnits.push_back(
                {segmentWork[s] / segmentMs[s], segmentStolen[s]});
        for (std::size_t d = 0; d < n; ++d) {
            std::vector<Unit> units, tailUnits;
            for (const Direct &dr : direct[d]) {
                const std::vector<double> &seg = bySegment[d][dr.segment];
                directMs[d].push_back(dr.ms);
                if (seg.empty())
                    continue;
                const double stolen = segmentStolen[dr.segment];
                units.push_back({dr.ms / median(seg), stolen});
                tailUnits.push_back(
                    {dr.ms / *std::max_element(seg.begin(), seg.end()),
                     stolen});
            }
            ratios.push_back(unitSpeedup(units));
            tails.push_back(unitSpeedup(tailUnits));
            r.notes.push_back(strf(
                "%-24s n=%-5zu p50=%8.4fms  full n=%-4zu p50=%8.3fms  "
                "incremental n=%-5zu p50=%8.4fms  direct=%8.3fms  "
                "units=%zu/%-3zu direct/request=%.4g tail=%.4g",
                designs_[d]->name.c_str(), mine[d].size(), median(mine[d]),
                full[d].size(), median(full[d]), incr[d].size(),
                median(incr[d]), median(directMs[d]),
                cleanCount(units), units.size(), ratios[d],
                tails[d]));
        }
        r.notes.push_back(strf(
            "requests=%zu clients=%u mix=%.3fs (%.1f req/s) p90=%.3fms "
            "stored_open_mean=%.3fms run_file_kb=%.1f",
            records.size(), clients, mixSeconds,
            mixSeconds > 0 ? static_cast<double>(records.size()) / mixSeconds
                           : 0.0,
            quantile(all, 0.9), openMs, runFileKb()));
        r.opP50Ms = quantile(all, 0.5);
        r.opTailMs = quantile(all, 0.99);
        r.speedupX = geomeanOf(ratios);
        r.speedupTailX = geomeanOf(tails);
        r.speedupWorkX = unitSpeedup(segmentUnits);
        return r;
    }

    double
    runFileKb() const override
    {
        double bytes = 0, files = 0;
        std::error_code ec;
        for (fs::directory_iterator it(storeDir_, ec), e; !ec && it != e;
             it.increment(ec))
            if (it->path().extension() == ".omnirun") {
                bytes += static_cast<double>(it->file_size());
                ++files;
            }
        return files > 0 ? bytes / files / 1024.0 : 0.0;
    }

  private:
    struct Reply
    {
        bool ok = false;
        double ms = 0;
        std::string status;
        std::uint64_t cycles = 0;
        bool fullRun = false;     ///< Answered by a fresh engine run.
        bool incremental = false; ///< Answered by §7.2 re-simulation.
    };
    struct Record
    {
        std::size_t design = 0;
        std::size_t segment = 0; ///< Of the measured phase, from 0.
        bool simulate = false;
        std::vector<std::uint32_t> depths;
        Reply reply;
    };
    /** A direct run after a segment, of one of its requests. */
    struct Direct
    {
        std::size_t segment = 0;
        double ms = 0;
    };

    /** @return the time of the direct run nearest to segment s (the
     *  later one on a tie); 0 when there is none. */
    static double
    nearestDirect(const std::vector<Direct> &runs, std::size_t s)
    {
        const Direct *best = nullptr;
        const auto gap = [s](const Direct &dr) {
            return dr.segment > s ? dr.segment - s : s - dr.segment;
        };
        for (const Direct &dr : runs)
            if (!best || gap(dr) <= gap(*best))
                best = &dr;
        return best ? best->ms : 0.0;
    }

    serve::ServeOptions
    serviceOptions() const
    {
        serve::ServeOptions o;
        o.jobs = std::min(2u, hostThreads());
        o.storeDir = storeDir_;
        return o;
    }

    static std::string
    requestLine(std::uint64_t id, const char *op,
                const designs::DesignEntry &e,
                const std::vector<std::uint32_t> &depths)
    {
        std::string list;
        for (const std::uint32_t d : depths)
            list += (list.empty() ? "" : ",") + std::to_string(d);
        return strf("{\"id\":%llu,\"op\":\"%s\",\"design\":%s,"
                    "\"depths\":[%s]}",
                    static_cast<unsigned long long>(id), op,
                    serve::jsonQuote(e.name).c_str(), list.c_str());
    }

    /** Submit one request and block until its response arrives. */
    static Reply
    roundTrip(serve::SimService &svc, std::string line)
    {
        struct Pending
        {
            sync::Mutex mu;
            sync::CondVar cv;
            bool done OMNISIM_GUARDED_BY(mu) = false;
            std::string response OMNISIM_GUARDED_BY(mu);
        } pending;
        const Clock::time_point t0 = Clock::now();
        {
            OMNISIM_SPAN("bench.serve_request");
            svc.submit(std::move(line), [&pending](std::string resp) {
                sync::LockGuard lk(pending.mu);
                pending.response = std::move(resp);
                pending.done = true;
                pending.cv.notify_one();
            });
            sync::UniqueLock lk(pending.mu);
            while (!pending.done)
                pending.cv.wait(lk);
        }
        Reply reply;
        reply.ms = msSince(t0);
        sync::LockGuard lk(pending.mu);
        try { // a malformed response is a failed check, not a crash
            const serve::JsonValue doc =
                serve::JsonValue::parse(pending.response);
            const serve::JsonValue *ok = doc.find("ok");
            reply.ok = ok && ok->isBool() && ok->boolean();
            if (const serve::JsonValue *s = doc.find("status"))
                reply.status = s->str();
            if (const serve::JsonValue *c = doc.find("cycles"))
                reply.cycles = c->asU64("cycles", ~std::uint64_t{0});
            const serve::JsonValue *method = doc.find("method");
            const serve::JsonValue *cached = doc.find("cached");
            if (method && cached && !cached->boolean()) {
                reply.fullRun = method->str() == "full";
                reply.incremental = method->str() == "incremental";
            }
        } catch (const std::exception &) {
            reply.ok = false;
        }
        return reply;
    }

    /**
     * One client's segment: every design 10 times, once as `simulate`
     * and 9 times as `resimulate`, in a seeded order. Fixing the counts
     * keeps the share of full engine runs, which cost 50-300 times a
     * re-simulation, from varying with the seed.
     */
    std::vector<std::pair<std::size_t, bool>>
    segmentPlan(Prng &prng) const
    {
        std::vector<std::pair<std::size_t, bool>> plan;
        for (std::size_t d = 0; d < designs_.size(); ++d) {
            plan.emplace_back(d, true);
            plan.insert(plan.end(), 9, {d, false});
        }
        shuffle(plan, prng);
        return plan;
    }

    /**
     * One request; every depth drawn from 1..64. The range keeps repeats
     * (memo hits) rare even on two-FIFO designs, so no design's median
     * flips between a memo hit and a re-simulation as the run's request
     * count varies.
     */
    Record
    oneRequest(Prng &prng, std::size_t design, bool simulate,
               std::size_t segment)
    {
        Record rec;
        rec.design = design;
        rec.segment = segment;
        rec.simulate = simulate;
        for (std::size_t f = 0; f < base_[rec.design].size(); ++f)
            rec.depths.push_back(
                1 + static_cast<std::uint32_t>(prng.below(64)));
        rec.reply = roundTrip(
            *svc_, requestLine(prng.next() >> 12,
                               rec.simulate ? "simulate" : "resimulate",
                               *designs_[rec.design], rec.depths));
        return rec;
    }

    /**
     * Run one seeded request of design d from records[first..] directly
     * at the same depths; its response must match in status and cycles.
     * Appends the direct run, tagged with the request's segment, to
     * `runs`.
     */
    void
    directRun(std::size_t d, const std::vector<Record> &records,
              std::size_t first, std::vector<Direct> &runs, Checks &checks)
    {
        std::vector<const Record *> mine;
        for (std::size_t i = first; i < records.size(); ++i)
            if (records[i].design == d)
                mine.push_back(&records[i]);
        if (mine.empty())
            return;
        const Record &rec = *mine[prng_.below(mine.size())];
        double t = 0;
        const SimResult r = coldRun(*designs_[d], &rec.depths, visible_, t);
        runs.push_back({rec.segment, t});
        checks.expect(rec.reply.status == simStatusName(r.status) &&
                          (!r.ok() || rec.reply.cycles == r.totalCycles),
                      "serve_mix: " + designs_[d]->name +
                          " response differs from a direct run");
    }

    /** Open up to two published runs per design; @return mean ms. */
    double
    openStoredRuns(Tracer &tracer, Checks &checks)
    {
        std::vector<std::string> paths;
        std::error_code ec;
        for (fs::directory_iterator it(storeDir_, ec), e; !ec && it != e;
             it.increment(ec))
            if (it->path().extension() == ".omnirun")
                paths.push_back(it->path().string());
        std::sort(paths.begin(), paths.end());
        std::vector<double> ms;
        for (const auto *e : designs_) {
            unsigned opened = 0;
            const std::string prefix =
                (fs::path(storeDir_) / (e->name + ".")).string();
            for (const std::string &p : paths) {
                if (opened == 2 || p.rfind(prefix, 0) != 0)
                    continue;
                ++opened;
                std::unique_ptr<io::StoredRun> run;
                const Clock::time_point t0 = Clock::now();
                try {
                    OMNISIM_SPAN("bench.stored_open");
                    run = io::StoredRun::open(p);
                } catch (const FatalError &) {
                    // counted as a failed check below
                }
                ms.push_back(msSince(t0));
                tracer.drain();
                Untraced quiet(tracer);
                checks.expect(run && run->baseline().ok(),
                              "serve_mix: stored run " + p +
                                  " did not reopen");
            }
        }
        double sum = 0;
        for (const double x : ms)
            sum += x;
        return ms.empty() ? 0.0 : sum / static_cast<double>(ms.size());
    }

    DesignList designs_;
    std::uint64_t seed_;
    Prng prng_;
    std::string storeDir_;
    std::vector<std::vector<std::uint32_t>> base_; ///< Registered depths.
    std::uint64_t segments_ = 0;
    std::unique_ptr<serve::SimService> svc_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"bc_cold", "a_cold",
                                                   "dse_warm", "serve_mix"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &scratchDir)
{
    // A bc_cold unit is 3 cold simulates, a co-simulation and 3 more; an
    // a_cold unit 2 C simulations, a cold simulate and 2 more. See
    // README.md for the sizing.
    if (name == "bc_cold")
        return std::make_unique<ColdWorkload>(
            name, suite(designs::typeBCDesigns()), RefEngine::Cosim, 6, 1,
            seed);
    if (name == "a_cold")
        return std::make_unique<ColdWorkload>(
            name, suite(designs::typeADesigns()), RefEngine::CSim, 1, 4,
            seed);
    if (name == "dse_warm")
        return std::make_unique<DseWarm>(seed);
    if (name == "serve_mix")
        return std::make_unique<ServeMix>(seed, scratchDir);
    return nullptr;
}

} // namespace omnibench
