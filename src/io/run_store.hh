/**
 * @file
 * RunStore: a directory cache of serialized runs keyed by
 * (design name, engine, depth-vector hash), giving compiled runs a
 * lifetime beyond the process that traced them. The second process to
 * ask about a design pays only the §7.2 incremental cost.
 *
 * Publication is atomic: the file image is written to a unique
 * temporary name in the store directory and then renamed over the
 * final name, so readers — including concurrent readers in other
 * processes — only ever observe complete files. Loads are
 * corruption-tolerant: a truncated, bit-flipped, version-mismatched, or
 * fingerprint-stale file makes load() return null (and loadAll() skip
 * the entry), never crash and never UB. The store never deletes user
 * files on its own; invalidation is by fingerprint comparison at load
 * time (see README "Cache invalidation").
 */

#ifndef OMNISIM_IO_RUN_STORE_HH
#define OMNISIM_IO_RUN_STORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/run_io.hh"

namespace omnisim::io
{

/** Directory-backed cache of serialized runs. Methods are thread-safe
 *  (the object holds no mutable state; atomicity comes from the
 *  write-then-rename protocol). */
class RunStore
{
  public:
    /**
     * Open (creating if needed) a store rooted at dir.
     * @throws FatalError when the directory cannot be created.
     */
    explicit RunStore(std::string dir);

    const std::string &dir() const { return dir_; }

    /** @return the final path a run with this key publishes to. */
    std::string pathFor(const std::string &design,
                        const std::string &engine,
                        const std::vector<std::uint32_t> &depths) const;

    /**
     * Atomically publish a finished run (see RunRecord), keyed by the
     * depths it ran under. Overwrites any previous entry with the same
     * key (rename-over is atomic on POSIX). IO failures are reported by
     * the return value — a full disk must not take down a simulation
     * service.
     */
    bool publish(const std::string &design, const std::string &engine,
                 std::uint64_t fingerprint, const RunRecord &run) const;

    /**
     * Load the run recorded for exactly (design, engine, depths).
     * @return null when absent, unreadable, corrupt, version-mismatched,
     *         fingerprint-stale, or recorded under different depths
     *         (a depth-hash collision).
     */
    std::unique_ptr<StoredRun>
    load(const std::string &design, const std::string &engine,
         std::uint64_t fingerprint,
         const std::vector<std::uint32_t> &depths) const;

    /**
     * Load every run stored for (design, engine) whose fingerprint
     * matches, up to maxCount, in deterministic (sorted filename)
     * order. Unreadable or stale entries are skipped and, like load()'s
     * misses, counted in store.load_misses.
     */
    std::vector<std::unique_ptr<StoredRun>>
    loadAll(const std::string &design, const std::string &engine,
            std::uint64_t fingerprint, std::size_t maxCount) const;

    /** @return stored entries for (design, engine), readable or not. */
    std::size_t count(const std::string &design,
                      const std::string &engine) const;

  private:
    std::string prefixFor(const std::string &design,
                          const std::string &engine) const;

    std::string dir_;
};

} // namespace omnisim::io

#endif // OMNISIM_IO_RUN_STORE_HH
