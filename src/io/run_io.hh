/**
 * @file
 * Versioned, endian-stable on-disk format for a completed OmniSim run,
 * and the StoredRun rehydration wrapper that serves resimulate() from
 * it in a fresh process (the LightningSimV2 lesson applied across
 * process boundaries: the compiled graph should outlive the process
 * that paid for the trace).
 *
 * File layout (all integers little-endian, see serial.hh):
 *
 *   magic            8 bytes   "OMSIMRUN"
 *   format version   u32       kRunFormatVersion
 *   payload checksum u64       FNV-1a over the payload bytes
 *   payload size     u64
 *   payload          bytes     meta (design, engine, fingerprint)
 *                              followed by the RunSnapshot sections
 *                              and the compiled-layout section (opt
 *                              level, node remap, optimized graph,
 *                              kept-constraint indices, pass stats)
 *
 * The layout section persists the graph-compilation pipeline's output
 * next to the snapshot, so a loader rehydrates by re-solving the
 * already optimized layout instead of re-running the passes (and their
 * whole-graph analyses) — the dominant cost on large runs. Only the
 * current version decodes: RunStore is a cache keyed by fingerprint, so
 * a file of any other version is rejected with a version error and its
 * loaders count it as a miss.
 *
 * Decoding is strict: bad magic, an unknown version, a checksum
 * mismatch, a truncated section, an impossible element count, or any
 * violated semantic invariant (validateSnapshot / validateRunLayout)
 * throws FatalError — a corrupt file is always a recoverable error,
 * never UB. The design fingerprint (a structural hash that
 * deliberately excludes FIFO depths — those are the re-simulation
 * knob) lets loaders reject runs recorded against a since-changed
 * design.
 */

#ifndef OMNISIM_IO_RUN_IO_HH
#define OMNISIM_IO_RUN_IO_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/omnisim.hh"
#include "graph/compiled_run.hh"

namespace omnisim
{
class Design;
}

namespace omnisim::io
{

/** Current on-disk format version; bumped on any layout change.
 *  v2: EngineStats gained the forcedBlind / deadlockRetroSuspect
 *  approximation markers (see runtime/result.hh).
 *  v3: appended the compiled-layout section (see file comment).
 *  v4: appended a partition-plan section to the layout.
 *  v5: dropped the partition-plan section. */
constexpr std::uint32_t kRunFormatVersion = 5;

/** Oldest version this build decodes: only the current one. */
constexpr std::uint32_t kRunMinFormatVersion = kRunFormatVersion;

/** The 8-byte file magic. */
extern const char kRunMagic[8];

/** Identity block stored ahead of the snapshot payload. */
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

/**
 * Encode a complete run file image (header + payload) at the current
 * format version. When @p layout is null the persisted compiled layout
 * is produced by running the deterministic pass pipeline
 * (opt::OptLevel::O1) over @p snap; pass the engine's own layout to
 * skip that recompile.
 */
std::string encodeRun(const RunFileMeta &meta, const RunSnapshot &snap,
                      const opt::RunLayout *layout = nullptr);

/**
 * Decode and fully validate a run file image.
 * @throws FatalError on any malformation (see file comment).
 */
void decodeRun(std::string_view bytes, RunFileMeta &meta,
               RunSnapshot &snap);

/**
 * Decode overload that also surfaces the persisted compiled layout,
 * already validated against @p snap.
 */
void decodeRun(std::string_view bytes, RunFileMeta &meta, RunSnapshot &snap,
               opt::RunLayout &layout);

/**
 * Check every cross-index invariant of a decoded snapshot — node ids in
 * tables/edges/constraints/tails within range, constraint kinds
 * query-only with 1-based indices, table/pending arities consistent,
 * depths positive, result status Ok — so that CompiledRun rehydration
 * and constraint evaluation can index without bounds checks.
 * @throws FatalError naming the first violation.
 */
void validateSnapshot(const RunSnapshot &snap);

/**
 * Check every cross-index invariant of a decoded compiled layout
 * against its (already validated) snapshot: dense node ids within
 * range, remap entries kDropped or in-range, per-FIFO access tables
 * sized exactly to the recorded access counts, kept-constraint indices
 * strictly ascending with their evaluation targets pinned (a read-kind
 * constraint's write entry and a write-kind constraint's read prefix
 * must survive), so CompiledRun::evalConstraint can index without
 * bounds checks.
 * @throws FatalError naming the first violation.
 */
void validateRunLayout(const RunSnapshot &snap,
                       const opt::RunLayout &layout);

/**
 * A run rehydrated from a snapshot: owns the snapshot storage and the
 * CompiledRun frozen over it, and serves resimulate() with outcomes
 * bit-identical to the originating process (tests/test_io.cc enforces
 * this across the design registry).
 *
 * Not copyable, and held behind unique_ptr via the open()/rehydrate()
 * factories so the decode-throws-FatalError paths stay out of
 * constructors callers could reach directly. (The CompiledRun itself
 * is self-contained since the compile pipeline landed — it copies what
 * it needs out of the snapshot at freeze time.)
 */
class StoredRun
{
  public:
    StoredRun(const StoredRun &) = delete;
    StoredRun &operator=(const StoredRun &) = delete;

    /**
     * Rehydrate from an already-decoded snapshot, recompiling through
     * the deterministic pass pipeline.
     * @throws FatalError when the snapshot fails validation or its
     *         recorded baseline is timing-infeasible.
     */
    static std::unique_ptr<StoredRun> rehydrate(RunSnapshot snap,
                                                RunFileMeta meta = {});

    /**
     * Read + decode + rehydrate a run file. The file carries its
     * compiled layout, so rehydration skips the optimization passes.
     * @throws FatalError on IO errors or any malformation.
     */
    static std::unique_ptr<StoredRun> open(const std::string &path);

    const RunFileMeta &meta() const { return meta_; }
    const RunSnapshot &snapshot() const { return snap_; }

    /** @return the depth vector the recorded run executed under. */
    const std::vector<std::uint32_t> &baseDepths() const
    {
        return snap_.depths;
    }

    /** @return the recorded baseline result (status Ok). */
    const SimResult &baseline() const { return snap_.result; }

    /** @return compile-pipeline statistics of the rehydrated run. */
    const opt::CompileStats &compileStats() const
    {
        return compiled_->compileStats();
    }

    /** @return the CompiledRun serving resimulate() — read-only
     *  introspection (layout, universal-order certificate) for benches
     *  and tests. */
    const CompiledRun &compiled() const { return *compiled_; }

    /**
     * Attempt incremental re-simulation under new depths, without the
     * design, the DSL, or any re-tracing — pure CompiledRun delta
     * relaxation over the rehydrated structure. Identical contract to
     * OmniSim::resimulate(): reused outcomes carry the baseline result
     * with re-finalized cycles; divergence reports the first flipped
     * constraint with the same message text. Thread-safe.
     */
    IncrementalOutcome
    resimulate(const std::vector<std::uint32_t> &depths) const;

  private:
    StoredRun(RunSnapshot snap, RunFileMeta meta,
              std::optional<opt::RunLayout> layout);

    RunFileMeta meta_;
    RunSnapshot snap_;
    std::unique_ptr<CompiledRun> compiled_;
};

} // namespace omnisim::io

#endif // OMNISIM_IO_RUN_IO_HH
