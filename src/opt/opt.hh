/**
 * @file
 * Optimization levels and pass statistics for the graph compilation
 * pipeline (the LightningSimV2 direction: compile and shrink the
 * simulation graph before solving it).
 *
 * This header is deliberately tiny — core/omnisim.hh includes it so the
 * engine options can carry an OptLevel without pulling the pass manager
 * into every translation unit.
 */

#ifndef OMNISIM_OPT_OPT_HH
#define OMNISIM_OPT_OPT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace omnisim::opt
{

/**
 * How aggressively a finished run is compiled before freezing.
 *
 * O0 freezes the traced graph verbatim (the pre-pipeline behavior, kept
 * as the conformance oracle's reference). O1 runs the full pass list;
 * every optimization is exact — resimulate() answers are bit-identical
 * to O0 across the entire candidate depth lattice, enforced by the
 * conformance fuzzer's opt-vs-O0 oracle.
 */
enum class OptLevel : std::uint8_t
{
    O0 = 0,
    O1 = 1,
};

/** @return "O0" / "O1". */
const char *optLevelName(OptLevel level);

/** What one pass removed from the graph it was handed. */
struct PassStats
{
    std::string pass; ///< "lattice-prune", "chain-collapse", "dedup".
    std::uint64_t nodesEliminated = 0;
    std::uint64_t edgesEliminated = 0;
    std::uint64_t constraintsEliminated = 0;

    bool operator==(const PassStats &) const = default;
};

/** Aggregate outcome of compiling one run. */
struct CompileStats
{
    OptLevel level = OptLevel::O0;
    std::vector<PassStats> passes;

    std::uint64_t origNodes = 0;
    std::uint64_t origEdges = 0; ///< Structural edges before passes.
    std::uint64_t optNodes = 0;
    std::uint64_t optEdges = 0;  ///< Structural edges after passes.
    std::uint64_t origConstraints = 0;
    std::uint64_t keptConstraints = 0;

    /** Fraction of nodes+edges removed, in [0, 1]. */
    double elimination() const
    {
        const double before =
            static_cast<double>(origNodes + origEdges);
        if (before <= 0.0)
            return 0.0;
        const double after = static_cast<double>(optNodes + optEdges);
        return 1.0 - after / before;
    }

    /** Merge another run's counters into this one (serve stats). */
    void accumulate(const CompileStats &other);

    bool operator==(const CompileStats &) const = default;
};

} // namespace omnisim::opt

#endif // OMNISIM_OPT_OPT_HH
