/**
 * @file
 * OMSIMRUN, the versioned, endian-stable on-disk form of a completed
 * OmniSim run, and StoredRun, which serves resimulate() from one in a
 * fresh process (the LightningSimV2 lesson applied across process
 * boundaries: the compiled graph should outlive the process that paid
 * for the trace).
 *
 * A run file holds what a CompiledRun freeze and a StoredRun read, and
 * nothing else: the engine's own compiled layout, the FIFO depths the
 * run executed under, the FIFO labels, and the baseline SimResult. The
 * trace the layout was compiled from is not kept, so reopening a run
 * never runs the pass pipeline: it decodes, validates and freezes.
 *
 * File layout (all integers little-endian, see serial.hh):
 *
 *   magic            8 bytes   "OMSIMRUN"
 *   format version   u32       kRunFormatVersion
 *   payload checksum u64       payloadChecksum() of the payload bytes
 *   payload size     u64
 *   payload          bytes     meta (design, engine, fingerprint),
 *                              base depths, FIFO labels, the baseline
 *                              SimResult, then the layout: opt level,
 *                              node count, seeds, durations, edges,
 *                              floor, per-FIFO read entries, write
 *                              entries and write blocking flags, the
 *                              kept constraints in full, and the
 *                              CompileStats counters and pass list
 *
 * The layout's derived fields (accessor maps, depth caps, blocking
 * counts, post-pass statistics) are rebuilt on decode rather than
 * stored, so they cannot drift from the arrays the solver indexes. Only
 * the current version decodes: RunStore is a cache keyed by
 * fingerprint, so a file of any other version is rejected with a
 * version error and its loaders count it as a miss.
 *
 * Decoding is strict: bad magic, another version, a checksum mismatch,
 * a truncated section, an impossible element count, trailing bytes, a
 * non-Ok baseline, a zero depth, FIFO counts that disagree, or any
 * index the solver later reads unchecked (opt::verifyIndices) throws
 * FatalError — a corrupt file is always a recoverable error, never UB.
 * The design fingerprint (a structural hash that deliberately excludes
 * FIFO depths — those are the re-simulation knob) lets loaders reject
 * runs recorded against a since-changed design.
 */

#ifndef OMNISIM_IO_RUN_IO_HH
#define OMNISIM_IO_RUN_IO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/omnisim.hh"
#include "graph/compiled_run.hh"

namespace omnisim
{
class Design;
}

namespace omnisim::io
{

/** Current on-disk format version; bumped on any layout change. */
constexpr std::uint32_t kRunFormatVersion = 6;

/** The 8-byte file magic. */
extern const char kRunMagic[8];

/** Identity block stored ahead of the run. */
struct RunFileMeta
{
    std::string design;       ///< Registry/design name.
    std::string engine;       ///< Engine that produced the run.
    std::uint64_t fingerprint = 0; ///< designFingerprint() at save time.
};

/**
 * Structural hash of a design: name, modules (name + classifier
 * options), FIFO topology (name, endpoints, access kinds), memories,
 * AXI ports, and testbench inputs. FIFO depths are excluded — a stored
 * run exists precisely to answer questions about other depth vectors —
 * so the fingerprint is stable across the whole DSE lattice of one
 * design and changes whenever the recorded trace could no longer be
 * trusted.
 */
std::uint64_t designFingerprint(const Design &d);

/** Stable hash of a depth vector (RunStore file naming). */
std::uint64_t depthVectorHash(const std::vector<std::uint32_t> &depths);

/** What a run file records of a finished run, borrowed from the engine
 *  that froze it (or from a StoredRun, which holds the same parts). */
struct RunRecord
{
    const std::vector<std::uint32_t> &depths; ///< Depths it ran under.
    const std::vector<std::string> &labels;   ///< FIFO names, per depth.
    const SimResult &result;                  ///< Baseline; status Ok.
    const opt::RunLayout &layout;             ///< CompiledRun::layout().
};

/** Encode a complete run file image (header + payload) at the current
 *  format version. */
std::string encodeRun(const RunFileMeta &meta, const RunRecord &run);

/**
 * A run reopened from a run file: owns the decoded parts and the
 * CompiledRun frozen over the persisted layout, and serves resimulate()
 * with outcomes bit-identical to the engine that published it
 * (tests/test_io.cc checks this through file bytes on every registry
 * design).
 *
 * There is one way to make one: bytes -> decode -> validate -> freeze.
 * open() only reads the file first. Not copyable; held behind
 * unique_ptr so the throwing decode stays out of any constructor a
 * caller could reach directly.
 */
class StoredRun
{
  public:
    StoredRun(const StoredRun &) = delete;
    StoredRun &operator=(const StoredRun &) = delete;

    /**
     * Decode, validate and freeze a run file image.
     * @throws FatalError on any malformation (see file comment) or a
     *         timing-infeasible baseline.
     */
    static std::unique_ptr<StoredRun> decode(std::string_view bytes);

    /**
     * Read a run file with one sized read, then decode() it.
     * @throws FatalError on IO errors or any malformation.
     */
    static std::unique_ptr<StoredRun> open(const std::string &path);

    const RunFileMeta &meta() const { return meta_; }

    /** @return the depth vector the recorded run executed under. */
    const std::vector<std::uint32_t> &baseDepths() const
    {
        return depths_;
    }

    /** @return the recorded baseline result (status Ok). */
    const SimResult &baseline() const { return result_; }

    /** @return the publishing engine's compile-pipeline statistics. */
    const opt::CompileStats &compileStats() const
    {
        return compiled_.compileStats();
    }

    /** @return the CompiledRun serving resimulate() — read-only
     *  introspection (layout, universal-order certificate) for benches
     *  and tests. */
    const CompiledRun &compiled() const { return compiled_; }

    /** @return the parts encodeRun() records; encoding them reproduces
     *  the decoded file byte for byte. */
    RunRecord
    record() const
    {
        return {depths_, labels_, result_, compiled_.layout()};
    }

    /**
     * Attempt incremental re-simulation under new depths, without the
     * design, the DSL, or any re-tracing — pure CompiledRun delta
     * relaxation over the persisted layout. Identical contract to
     * OmniSim::resimulate(): reused outcomes carry the baseline result
     * with re-finalized cycles; divergence reports the first flipped
     * constraint with the same message text, and the probe is counted
     * in the same engine.resim.* metrics. Thread-safe.
     */
    IncrementalOutcome
    resimulate(const std::vector<std::uint32_t> &depths) const;

  private:
    StoredRun(RunFileMeta meta, std::vector<std::uint32_t> depths,
              std::vector<std::string> labels, SimResult result,
              opt::RunLayout layout);

    RunFileMeta meta_;
    std::vector<std::uint32_t> depths_;
    std::vector<std::string> labels_;
    SimResult result_;
    CompiledRun compiled_; ///< Frozen last, over depths_.
};

} // namespace omnisim::io

#endif // OMNISIM_IO_RUN_IO_HH
