/**
 * @file
 * The IR verifier: an LLVM-style invariant checker over RunLayout, run
 * between every PassManager pass and on OMSIMRUN rehydration.
 *
 * Every check carries a stable invariant id (the bracketed token in the
 * failure message and the `invariant` field of the "verify.fail" log
 * event). The catalog — see README "Static analysis" for prose:
 *
 *   [shape]                per-node array sizes match numNodes.
 *   [csr-sorted]           edges strictly sorted by (src, dst) — which
 *                          also forbids duplicates — with both
 *                          endpoints in range.
 *   [dag]                  the structural layout graph is acyclic.
 *   [remap-bijective]      remap entries are kDropped or in range,
 *                          every layout id has a preimage, and the
 *                          smallest preimage is strictly increasing in
 *                          layout id (materialization assigns dense ids
 *                          in ascending original id). Skipped when the
 *                          remap is empty (a layout read from a run
 *                          file keeps none).
 *   [fifo-cap]             per-FIFO access maps: entries are kNoNode or
 *                          live layout nodes, no more reads than
 *                          writes, one blocking flag per write, and
 *                          cap == writes + 1.
 *   [acc-map-consistent]   the O(1) accessor arrays (accFifo/accIdx/
 *                          accWrite/accBlockingWrite) and fifos[] are
 *                          two views of the same map, including the
 *                          blocking flags and blockingWrites counts.
 *   [cons-addressable]     kept constraints are in strictly ascending
 *                          recorded order below the recorded count,
 *                          reference live nodes, and their evaluation
 *                          targets stay addressable (read-kind: the
 *                          target write entry; write-kind: the sliding
 *                          read-prefix rule).
 *   [chain-weight]         conservation through chain-collapse/dedup:
 *                          at the structural-only point of the lattice
 *                          (== the all-caps clamped depth vector) every
 *                          live-image original node's time and the
 *                          re-finalized total are preserved exactly.
 *                          Needs VerifyContext::input.
 *   [dedup-fixpoint]       no two live unpinned layout nodes with equal
 *                          seed and identical canonical in-edge lists
 *                          remain (dedup ran to a fixed point). Needs
 *                          VerifyContext::input and afterDedup.
 *
 * A violation logs a structured "verify.fail" event (pass name,
 * invariant id, offending ids — picked up by the flight recorder ring)
 * and throws FatalError whose message embeds "[invariant-id]".
 *
 * Verification is always-on in Debug builds (!NDEBUG) and opt-in behind
 * the global --verify CLI flag (setVerifyEnabled) in Release.
 */

#ifndef OMNISIM_OPT_VERIFY_HH
#define OMNISIM_OPT_VERIFY_HH

#include "opt/layout.hh"

namespace omnisim::opt
{

struct LayoutInput; // opt/pass_manager.hh

/** What the verifier may assume about the layout being checked. */
struct VerifyContext
{
    /** The compile input, when verifying inside the pass pipeline;
     *  nullptr on rehydration (input-dependent checks are skipped). */
    const LayoutInput *input = nullptr;

    /** Stage name for diagnostics: a pass name, "materialize", or
     *  "rehydrate". */
    const char *pass = "?";

    /** True once the dedup pass has run (gates [dedup-fixpoint]). */
    bool afterDedup = false;
};

/** Toggle verification globally. Default: on in Debug (!NDEBUG),
 *  off in Release until --verify flips it. Thread-safe. */
void setVerifyEnabled(bool on);
bool verifyEnabled();

/**
 * Check every RunLayout invariant. @throws FatalError with the
 * invariant id bracketed in the message on the first violation.
 * Unconditional — callers gate on verifyEnabled().
 */
void verifyLayout(const RunLayout &lay, const VerifyContext &ctx);

/**
 * The part of verifyLayout that CompiledRun's unchecked indexing relies
 * on, over the fields a run file stores: [shape] of seed/dur,
 * [csr-sorted], the access-entry half of [fifo-cap], and
 * [cons-addressable]. Needs no accessor arrays, so the run-file decoder
 * runs it on every layout it reads, before deriving them.
 * Unconditional; @throws FatalError like verifyLayout.
 */
void verifyIndices(const RunLayout &lay, const VerifyContext &ctx);

} // namespace omnisim::opt

#endif // OMNISIM_OPT_VERIFY_HH
