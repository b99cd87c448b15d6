/**
 * @file
 * The differential conformance driver: run one generated design through
 * every oracle pair the system has and report each divergence.
 *
 * Oracle matrix (gated by design type and baseline status):
 *
 *   omnisim vs cosim      — all types; status always, cycles + memories
 *                           when Ok (cosim is the RTL ground truth).
 *   csim vs cosim         — Type A with an Ok baseline; functional
 *                           memories only (csim has no timing model).
 *   lightningsim vs cosim — Type A with an Ok baseline; status, cycles
 *                           and memories. Type B/C must be rejected as
 *                           Unsupported (the Fig. 3 support matrix).
 *   resimulate vs resimulateReference
 *                         — random depth deltas after an Ok omnisim
 *                           run; reuse decision, divergence reason and
 *                           (when reused) cycles/memories must be
 *                           bit-identical, plus fresh-engine ground
 *                           truth for a bounded number of reused probes.
 *   opt vs -O0            — a second omnisim engine frozen with the
 *                           optimization passes disabled; the baseline
 *                           result and every depth probe must answer
 *                           bit-identically (reuse decision, divergence
 *                           reason, cycles, memories — the delta-path
 *                           flag may differ, the answers may not).
 *   run_io round trip     — the engine's frozen run, encoded and
 *                           reopened the way the store reopens it
 *                           (StoredRun::decode), must echo the meta
 *                           block and serve the same depth probes
 *                           bit-identically to the originating engine.
 *   serve-protocol echo   — the result serialized through the serve
 *                           JSON layer and parsed back must be exact
 *                           (64-bit cycle counts and memory words
 *                           included).
 */

#ifndef OMNISIM_GEN_CONFORMANCE_HH
#define OMNISIM_GEN_CONFORMANCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/omnisim.hh"
#include "gen/spec.hh"

namespace omnisim::gen
{

/** Conformance run configuration. */
struct ConformanceOptions
{
    /** Random depth vectors probed through the resimulate and io
     *  oracles. */
    std::uint32_t resimProbes = 4;

    /** Reused probes additionally checked against fresh full engine
     *  runs (omnisim and cosim) at the probed depths. */
    std::uint32_t groundTruthProbes = 1;

    /** Force the IR verifier on for every compile this run performs:
     *  pass bugs then surface as engine divergences whose detail
     *  carries the bracketed [invariant-id]. */
    bool withVerify = false;
};

/** One observed disagreement between an oracle pair. */
struct Divergence
{
    std::string oracle; ///< e.g. "omnisim-vs-cosim", "io-round-trip".
    std::string detail; ///< First observed difference, one line.
};

/** Outcome of one conformance run. */
struct ConformanceReport
{
    char designType = 'A';            ///< 'A' / 'B' / 'C'.
    SimStatus baseline = SimStatus::Ok; ///< Cosim ground-truth status.
    std::uint32_t probesRun = 0;      ///< Depth probes exercised.
    std::vector<Divergence> divergences;

    bool clean() const { return divergences.empty(); }

    /** All divergences as "oracle: detail" lines. */
    std::string summary() const;
};

/**
 * Run the full oracle matrix over one spec. Never throws for engine
 * disagreements (they become divergences); an engine exception is
 * itself reported as a divergence of the oracle that tripped it.
 */
ConformanceReport checkConformance(const GenSpec &spec,
                                   const ConformanceOptions &opts = {});

} // namespace omnisim::gen

#endif // OMNISIM_GEN_CONFORMANCE_HH
