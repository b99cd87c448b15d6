/**
 * @file
 * The generated-design specification: a small, fully serializable IR
 * describing one randomized dataflow design — a process DAG with FIFO
 * edges (forward and request/response back-edges), per-end blocking /
 * non-blocking access modes, per-process pacing (bursty, phase-shifted
 * advance patterns) and pipelining. materialize() interprets a spec
 * into a regular Design the four engines can simulate, so the same
 * spec drives every oracle of the differential conformance harness
 * (src/gen/conformance.hh) and shrinks structurally (src/gen/shrink.hh)
 * without touching C++ lambdas.
 *
 * Execution semantics of one process p over spec.items iterations
 * (interpreted by the module body materialize() emits):
 *
 *   1. read every forward in-edge (writer index < p), in edge order:
 *      blocking reads accumulate the value; non-blocking reads
 *      accumulate on hit and perturb the accumulator on miss (the
 *      outcome visibly changes behavior — Type C semantics), after an
 *      optional empty() probe whose result is also accumulated;
 *   2. pace: advance(paceBase) every iteration, plus advance(paceBurst)
 *      on iterations congruent to pacePhase mod paceEvery;
 *   3. write every out-edge, in edge order: a mixed function of the
 *      accumulator and the iteration index; non-blocking writes count
 *      drops (stored, so drops are functionally visible), after an
 *      optional full() probe;
 *   4. read every response in-edge (writer index > p) — the fig4_ex3
 *      request/response shape that makes the module graph cyclic.
 *
 * Processes with no forward in-edge additionally load the shared input
 * memory each iteration (stride/offset addressing). Every process ends
 * by storing its accumulator and drop count to its own output memory.
 * With all ends blocking and token-conserving loops this terminates by
 * construction; spec.extraReads deliberately breaks conservation on one
 * process to synthesize guaranteed deadlocks (a conformance outcome in
 * its own right).
 */

#ifndef OMNISIM_GEN_SPEC_HH
#define OMNISIM_GEN_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "design/design.hh"

namespace omnisim::gen
{

/** How one end of a generated FIFO edge is accessed. */
enum class PortMode : std::uint8_t
{
    Blocking,
    NonBlocking,
};

/** One FIFO edge of the generated process graph. */
struct GenEdge
{
    /** Process indices. writer < reader is a forward dataflow edge;
     *  writer > reader is a request/response back-edge (read at the end
     *  of the reader's iteration). Self-edges are invalid. */
    std::uint32_t writer = 0;
    std::uint32_t reader = 1;

    std::uint32_t depth = 2; ///< FIFO depth, >= 1.

    PortMode writeMode = PortMode::Blocking;
    PortMode readMode = PortMode::Blocking;

    bool operator==(const GenEdge &) const = default;
};

/** Per-process behavior knobs. */
struct GenProc
{
    /** Pipeline initiation interval; 0 = no pipeline scope. */
    std::uint32_t ii = 0;

    /** advance() issued every iteration. */
    std::uint32_t paceBase = 0;

    /** Bursty stall: advance(paceBurst) on every iteration i with
     *  i % paceEvery == pacePhase. paceEvery == 0 disables the burst. */
    std::uint32_t paceEvery = 0;
    std::uint32_t paceBurst = 0;
    std::uint32_t pacePhase = 0;

    /** Input-memory addressing for source processes (no forward
     *  in-edge): load(data, (i * stride + offset) % dataSize). */
    std::uint32_t stride = 1;
    std::uint32_t offset = 0;

    /** Probe empty() before each non-blocking read (result is
     *  accumulated, so it is behavior-relevant, never elided). */
    bool checksEmpty = false;

    /** Probe full() before each non-blocking write. */
    bool checksFull = false;

    bool operator==(const GenProc &) const = default;
};

/** One complete generated design. */
struct GenSpec
{
    /** Provenance: the generator seed (0 for hand-written specs). Not
     *  semantic — it only names the design. */
    std::uint64_t seed = 0;

    /** Tokens through every blocking edge; loop trip count. */
    std::uint32_t items = 16;

    /** Deadlock injection: extraProc performs this many blocking reads
     *  beyond the conserved token count on its first blocking forward
     *  in-edge. 0 disables (the common case). */
    std::uint32_t extraReads = 0;
    std::uint32_t extraProc = 0;

    std::vector<GenProc> procs;
    std::vector<GenEdge> edges;

    bool operator==(const GenSpec &) const = default;
};

/** Spec size ceilings enforced by validateSpec(). Sized for the
 *  large-regime generator (gen::largeGenConfig), whose designs reach
 *  thousands of processes; one engine thread is spawned per process,
 *  so materializing near the ceiling is a deliberate stress, not a
 *  default. */
constexpr std::uint32_t kMaxGenProcs = 4096;
constexpr std::uint32_t kMaxGenEdges = 12288;
constexpr std::uint32_t kMaxGenItems = 1u << 16;
constexpr std::uint32_t kMaxGenDepth = 1u << 20;
constexpr std::uint32_t kMaxGenPace = 1u << 12;

/**
 * Check structural validity: at least one process, every edge endpoint
 * in range and non-self, depths/items/pace within ceilings, and the
 * extra-read injection pointing at a process that actually has a
 * blocking forward in-edge.
 * @throws FatalError naming the first violation.
 */
void validateSpec(const GenSpec &spec);

/** @return validateSpec() success as a bool (shrink candidates). */
bool specIsValid(const GenSpec &spec);

/**
 * Interpret a spec into a simulatable Design named "gen_<seed>".
 * @throws FatalError when the spec fails validation.
 */
Design materialize(const GenSpec &spec);

/**
 * Serialize a spec as a single-line, human-readable token (the form
 * `omnisim_cli fuzz --replay` accepts and regression tests embed):
 *
 *   g1;seed=42;items=16;extra=2@1;
 *     P ii=1 pace=0/8/33/4 src=3+7 chk=ef;
 *     P ...;
 *     E 0>1 d=4 w=b r=n; ...
 *
 * (shown wrapped; the actual encoding is one line, ';'-separated).
 */
std::string specToString(const GenSpec &spec);

/**
 * Parse specToString() output back into a spec.
 * @throws FatalError on any malformation (also validates).
 */
GenSpec parseSpec(const std::string &text);

} // namespace omnisim::gen

#endif // OMNISIM_GEN_SPEC_HH
