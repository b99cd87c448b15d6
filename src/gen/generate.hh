/**
 * @file
 * Seeded random design generation: one u64 seed deterministically
 * expands (via the shared xoshiro Prng) into a GenSpec — a random
 * process DAG with parameterized FIFO counts and depths, blocking /
 * non-blocking access mixes, bursty phase-shifted producers,
 * reconvergent and shared-consumer topologies, request/response cycles
 * and occasional deliberate deadlocks. The same seed yields the same
 * design on every platform, so a failing seed IS the bug report.
 */

#ifndef OMNISIM_GEN_GENERATE_HH
#define OMNISIM_GEN_GENERATE_HH

#include <cstdint>

#include "gen/spec.hh"

namespace omnisim::gen
{

/** Shape and probability knobs for the generator. */
struct GenConfig
{
    /** Process count range [minProcs, maxProcs]. */
    std::uint32_t minProcs = 2;
    std::uint32_t maxProcs = 7;

    /** Items (tokens per blocking edge) range [4, maxItems]. */
    std::uint32_t maxItems = 48;

    /** Edge depth range [1, maxDepth]. */
    std::uint32_t maxDepth = 8;

    /** Extra forward edges beyond the connecting spine (reconvergence,
     *  shared consumers, parallel FIFO pairs), at most this many. */
    std::uint32_t maxExtraEdges = 6;

    /** Probability that a given edge is fully non-blocking (nn). */
    double pNonBlocking = 0.30;

    /** Probability that an edge mixes one blocking and one non-blocking
     *  end — the combination that legitimately deadlocks when the
     *  non-blocking side under-produces/under-consumes. */
    double pMixedEnds = 0.06;

    /** Probability of each candidate request/response back-edge. */
    double pResponse = 0.25;

    /** Per-process probability of a pipeline scope. */
    double pPipeline = 0.55;

    /** Per-process probability of a bursty advance pattern. */
    double pBurst = 0.45;

    /** Probability of injecting a guaranteed deadlock (extra blocking
     *  reads beyond the conserved token count). */
    double pDeadlockInjection = 0.04;
};

/** Expand a seed into a validated spec. Deterministic. */
GenSpec generateSpec(std::uint64_t seed, const GenConfig &cfg = {});

/**
 * The large regime (`omnisim_cli fuzz --large`): hundreds-to-thousands
 * of processes, so compiled graphs reach thousands of layout nodes.
 * Probabilities are tamer than the default mix — fewer non-blocking
 * ends and near-zero deadlock injection — so most seeds yield a
 * successful baseline run to relax against; the default config remains
 * the semantic-coverage workhorse.
 */
GenConfig largeGenConfig();

} // namespace omnisim::gen

#endif // OMNISIM_GEN_GENERATE_HH
