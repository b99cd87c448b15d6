#include "gen/conformance.hh"

#include <memory>

#include "cosim/cosim.hh"
#include "csim/csim.hh"
#include "design/frontend.hh"
#include "io/run_io.hh"
#include "lightningsim/lightningsim.hh"
#include "opt/verify.hh"
#include "serve/json.hh"
#include "support/logging.hh"
#include "support/prng.hh"

namespace omnisim::gen
{

namespace
{

/** First functional difference between two memory maps, or "". */
std::string
memoryDiff(const char *an, const SimResult &a, const char *bn,
           const SimResult &b)
{
    if (a.memories.size() != b.memories.size())
        return strf("memory count %s=%zu %s=%zu", an, a.memories.size(),
                    bn, b.memories.size());
    auto ai = a.memories.begin();
    auto bi = b.memories.begin();
    for (; ai != a.memories.end(); ++ai, ++bi) {
        if (ai->first != bi->first)
            return strf("memory name %s='%s' %s='%s'", an,
                        ai->first.c_str(), bn, bi->first.c_str());
        if (ai->second.size() != bi->second.size())
            return strf("memory '%s' size %s=%zu %s=%zu",
                        ai->first.c_str(), an, ai->second.size(), bn,
                        bi->second.size());
        for (std::size_t i = 0; i < ai->second.size(); ++i) {
            if (ai->second[i] != bi->second[i])
                return strf("memory '%s'[%zu] %s=%lld %s=%lld",
                            ai->first.c_str(), i, an,
                            static_cast<long long>(ai->second[i]), bn,
                            static_cast<long long>(bi->second[i]));
        }
    }
    return "";
}

/** Full-result comparison; empty string when equal. */
std::string
resultDiff(const char *an, const SimResult &a, const char *bn,
           const SimResult &b, bool checkCycles)
{
    if (a.status != b.status)
        return strf("status %s=%s %s=%s", an, simStatusName(a.status),
                    bn, simStatusName(b.status));
    if (a.status != SimStatus::Ok)
        return ""; // equal non-Ok terminal states agree
    if (checkCycles && a.totalCycles != b.totalCycles)
        return strf("cycles %s=%llu %s=%llu", an,
                    static_cast<unsigned long long>(a.totalCycles), bn,
                    static_cast<unsigned long long>(b.totalCycles));
    return memoryDiff(an, a, bn, b);
}

/** Bit-identity of two incremental outcomes; empty string when equal. */
std::string
incrementalDiff(const char *an, const IncrementalOutcome &a,
                const char *bn, const IncrementalOutcome &b)
{
    if (a.reused != b.reused)
        return strf("reused %s=%d (%s) %s=%d (%s)", an, a.reused,
                    a.reason.c_str(), bn, b.reused, b.reason.c_str());
    if (a.reason != b.reason)
        return strf("reason %s='%s' %s='%s'", an, a.reason.c_str(), bn,
                    b.reason.c_str());
    if (!a.reused)
        return "";
    return resultDiff(an, a.result, bn, b.result, /*checkCycles=*/true);
}

/**
 * Serve-protocol echo: serialize a result through the serve JSON layer
 * and parse it back; every field must survive exactly — including
 * memory words and cycle counts above 2^53.
 */
std::string
serveEchoDiff(const SimResult &r)
{
    serve::JsonBuilder b;
    b.key("status").str(simStatusName(r.status));
    b.key("cycles").num(r.totalCycles);
    b.key("deadlock_cycle").num(r.deadlockCycle);
    b.key("message").str(r.message);
    b.key("memories").beginObject();
    for (const auto &[name, vals] : r.memories) {
        b.key(name).beginArray();
        for (const Value v : vals)
            b.num(v);
        b.endArray();
    }
    b.endObject();

    serve::JsonValue v;
    try {
        v = serve::JsonValue::parse(b.finish());
    } catch (const std::exception &e) {
        return strf("response does not re-parse: %s", e.what());
    }
    try {
        if (v.find("status")->str() != simStatusName(r.status))
            return "status did not round-trip";
        if (v.find("cycles")->asU64("cycles", ~0ULL) != r.totalCycles)
            return strf("cycles %llu did not round-trip",
                        static_cast<unsigned long long>(r.totalCycles));
        if (v.find("deadlock_cycle")->asU64("deadlock_cycle", ~0ULL) !=
            r.deadlockCycle)
            return "deadlock_cycle did not round-trip";
        if (v.find("message")->str() != r.message)
            return "message did not round-trip";
        const serve::JsonValue *mems = v.find("memories");
        if (!mems || mems->members().size() != r.memories.size())
            return "memories did not round-trip";
        std::size_t m = 0;
        for (const auto &[name, vals] : r.memories) {
            const auto &[jname, jvals] = mems->members()[m++];
            if (jname != name || jvals.array().size() != vals.size())
                return strf("memory '%s' shape did not round-trip",
                            name.c_str());
            for (std::size_t i = 0; i < vals.size(); ++i) {
                if (jvals.array()[i].asI64("word") != vals[i])
                    return strf("memory '%s'[%zu] = %lld did not "
                                "round-trip", name.c_str(), i,
                                static_cast<long long>(vals[i]));
            }
        }
    } catch (const std::exception &e) {
        return strf("echo extraction failed: %s", e.what());
    }
    return "";
}

} // namespace

std::string
ConformanceReport::summary() const
{
    std::string out;
    for (const Divergence &d : divergences) {
        if (!out.empty())
            out += "; ";
        out += d.oracle + ": " + d.detail;
    }
    return out;
}

ConformanceReport
checkConformance(const GenSpec &spec, const ConformanceOptions &opts)
{
    ConformanceReport rep;
    const auto div = [&](const char *oracle, std::string detail) {
        rep.divergences.push_back({oracle, std::move(detail)});
    };

    // Sticky by design: once any lane of a fuzz sweep asks for the IR
    // verifier, every subsequent compile in the process keeps it.
    if (opts.withVerify)
        opt::setVerifyEnabled(true);

    Design d = materialize(spec);
    const CompiledDesign cd = compile(d);
    rep.designType = designTypeName(cd.classification.type)[0];

    // Ground truth first: clocked co-simulation, RTL cost model off.
    CosimOptions coOpts;
    coOpts.modelRtlCost = false;
    SimResult co;
    try {
        co = simulateCosim(cd, coOpts);
    } catch (const std::exception &e) {
        div("cosim-engine", e.what());
        return rep;
    }
    rep.baseline = co.status;

    // Cross-check omnisim finalization against live commit cycles.
    OmniSimOptions omOpts;
    omOpts.verifyFinalization = true;
    OmniSim engine(cd, omOpts);
    SimResult om;
    try {
        om = engine.run();
    } catch (const std::exception &e) {
        div("omnisim-engine", e.what());
        return rep;
    }

    if (std::string diff =
            resultDiff("omnisim", om, "cosim", co, /*checkCycles=*/true);
        !diff.empty())
        div("omnisim-vs-cosim", std::move(diff));

    // The compile-pipeline exactness oracle: the same design frozen
    // with the optimization passes off must report the identical result
    // — and, below, answer every depth probe identically.
    std::unique_ptr<OmniSim> o0;
    try {
        OmniSimOptions o0Opts = omOpts;
        o0Opts.optLevel = opt::OptLevel::O0;
        o0 = std::make_unique<OmniSim>(cd, o0Opts);
        const SimResult r0 = o0->run();
        if (std::string diff =
                resultDiff("O1", om, "O0", r0, /*checkCycles=*/true);
            !diff.empty())
            div("opt-vs-O0", std::move(diff));
        if (r0.status != SimStatus::Ok)
            o0.reset(); // no probes without an Ok O0 baseline
    } catch (const std::exception &e) {
        div("opt-engine", e.what());
        o0.reset();
    }

    const bool typeA = cd.classification.type == DesignType::A;

    if (typeA && co.ok()) {
        // Naive C simulation has no timing model, but for Type A
        // designs its sequential infinite-depth execution must land on
        // the same functional outputs.
        try {
            const SimResult cs = simulateCSim(cd);
            if (cs.status != SimStatus::Ok)
                div("csim-vs-cosim",
                    strf("csim status %s on an Ok Type A design",
                         simStatusName(cs.status)));
            else if (std::string diff =
                         memoryDiff("csim", cs, "cosim", co);
                     !diff.empty())
                div("csim-vs-cosim", std::move(diff));
        } catch (const std::exception &e) {
            div("csim-engine", e.what());
        }
    }

    if (typeA && co.ok()) {
        try {
            const SimResult ls = simulateLightningSim(cd);
            if (std::string diff = resultDiff("lightning", ls, "cosim", co,
                                              /*checkCycles=*/true);
                !diff.empty())
                div("lightning-vs-cosim", std::move(diff));
        } catch (const std::exception &e) {
            div("lightning-engine", e.what());
        }
    } else if (!typeA) {
        // The Fig. 3 support matrix: Type B/C must be rejected.
        try {
            const SimResult ls = simulateLightningSim(cd);
            if (ls.status != SimStatus::Unsupported)
                div("lightning-support",
                    strf("Type %c design not rejected (status %s)",
                         rep.designType, simStatusName(ls.status)));
        } catch (const std::exception &e) {
            div("lightning-engine", e.what());
        }
    }

    if (std::string diff = serveEchoDiff(om); !diff.empty())
        div("serve-echo", std::move(diff));

    // Depth-delta oracles need an Ok baseline and at least one FIFO.
    if (!om.ok() || d.fifos().empty() || opts.resimProbes == 0)
        return rep;

    std::vector<std::uint32_t> base;
    for (const auto &f : d.fifos())
        base.push_back(f.depth);

    // Encode the engine's frozen run and reopen it the way the store
    // does (bytes -> decode -> validate -> freeze); every probe then
    // checks the stored run against the live engine.
    std::unique_ptr<io::StoredRun> stored;
    try {
        std::vector<std::string> labels;
        for (const auto &f : d.fifos())
            labels.push_back(f.name);
        io::RunFileMeta meta;
        meta.design = d.name();
        meta.engine = "omnisim";
        meta.fingerprint = io::designFingerprint(d);
        stored = io::StoredRun::decode(io::encodeRun(
            meta, {base, labels, om, engine.compiledRun().layout()}));
        if (stored->meta().design != meta.design ||
            stored->meta().engine != meta.engine ||
            stored->meta().fingerprint != meta.fingerprint) {
            div("io-round-trip", "meta block did not round-trip");
            stored.reset();
        }
    } catch (const std::exception &e) {
        div("io-round-trip", e.what());
    }

    Prng prng(spec.seed ^ 0x0a02bdbf7bb3c0a7ULL);
    std::uint32_t groundTruthBudget = opts.groundTruthProbes;
    for (std::uint32_t probe = 0; probe < opts.resimProbes; ++probe) {
        std::vector<std::uint32_t> depths = base;
        const std::size_t touches = 1 + prng.below(base.size());
        for (std::size_t k = 0; k < touches; ++k)
            depths[prng.below(base.size())] =
                static_cast<std::uint32_t>(1 + prng.below(12));

        IncrementalOutcome inc;
        IncrementalOutcome ref;
        try {
            inc = engine.resimulate(depths);
            ref = engine.resimulateReference(depths);
        } catch (const std::exception &e) {
            div("resim-engine", e.what());
            break;
        }
        ++rep.probesRun;
        if (std::string diff =
                incrementalDiff("compiled", inc, "reference", ref);
            !diff.empty())
            div("resim-vs-reference", std::move(diff));

        if (o0) {
            try {
                const IncrementalOutcome i0 = o0->resimulate(depths);
                if (std::string diff =
                        incrementalDiff("O1", inc, "O0", i0);
                    !diff.empty())
                    div("opt-vs-O0", std::move(diff));
            } catch (const std::exception &e) {
                div("opt-vs-O0", e.what());
            }
        }

        if (stored) {
            try {
                const IncrementalOutcome sr = stored->resimulate(depths);
                if (std::string diff =
                        incrementalDiff("stored", sr, "live", inc);
                    !diff.empty())
                    div("io-round-trip", std::move(diff));
            } catch (const std::exception &e) {
                div("io-round-trip", e.what());
            }
        }

        if (inc.reused && groundTruthBudget > 0) {
            --groundTruthBudget;
            try {
                Design fresh = materialize(spec);
                for (std::size_t f = 0; f < depths.size(); ++f)
                    fresh.setFifoDepth(static_cast<FifoId>(f),
                                       depths[f]);
                const CompiledDesign fcd = compile(fresh);
                const SimResult fom = simulateOmniSim(fcd, omOpts);
                const SimResult fco = simulateCosim(fcd, coOpts);
                // The engines must agree with each other on the probe
                // configuration unconditionally.
                if (std::string diff =
                        resultDiff("fresh-omnisim", fom, "fresh-cosim",
                                   fco, /*checkCycles=*/true);
                    !diff.empty())
                    div("fresh-engine-agreement", std::move(diff));
                // resimulate() serves the elastic timing fixpoint. A
                // fresh run that had to guess (a blind earliest-query-
                // false, or a deadlock declared while an elastic window
                // was still open) is a self-reported approximation of
                // that fixpoint — the serialized thread model cannot
                // issue a later op before an earlier one resolves — so
                // only guess-free fresh runs are held to bit-equality.
                const bool approximated =
                    fom.stats.forcedBlind > 0 ||
                    fom.stats.deadlockRetroSuspect > 0 ||
                    fco.stats.forcedBlind > 0 ||
                    fco.stats.deadlockRetroSuspect > 0;
                if (!approximated) {
                    if (std::string diff =
                            resultDiff("reused", inc.result, "fresh",
                                       fom, /*checkCycles=*/true);
                        !diff.empty())
                        div("resim-vs-fresh", std::move(diff));
                }
            } catch (const std::exception &e) {
                div("resim-vs-fresh", e.what());
            }
        }
    }
    return rep;
}

} // namespace omnisim::gen
