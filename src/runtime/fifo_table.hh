/**
 * @file
 * FIFO read/write timing tables — data structure (D) of Fig. 7 in the
 * paper. One table per FIFO records every committed access together with
 * the exact hardware cycle it occupies and the simulation-graph node that
 * represents it. The Perf Sim thread resolves Table 2 queries against these
 * tables; the co-simulator uses them as its per-cycle channel state; the
 * incremental finalizer synthesizes write-after-read edges from them.
 *
 * Tables are deliberately unsynchronized: each engine supplies its own
 * locking discipline (per-FIFO mutex in the OmniSim core, the clock barrier
 * in co-sim, nothing in single-threaded engines).
 */

#ifndef OMNISIM_RUNTIME_FIFO_TABLE_HH
#define OMNISIM_RUNTIME_FIFO_TABLE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "support/logging.hh"
#include "support/types.hh"

namespace omnisim
{

/** Committed access history and in-flight data for one FIFO channel. */
class FifoTable
{
  public:
    /** Record the w-th write at the given cycle carrying a value. */
    void
    commitWrite(Value v, Cycles cycle, std::uint64_t node)
    {
        writeCycle_.push_back(cycle);
        writeNode_.push_back(node);
        data_.push_back(v);
    }

    /**
     * Record the r-th read at the given cycle.
     *
     * Every engine must establish writes() >= reads() + 1 before
     * committing a read; a violation (a buggy design driver or a co-sim
     * ordering mismatch) would otherwise pop an empty deque — undefined
     * behaviour — so it is diagnosed here in every build type.
     *
     * @return the value that was written r-th.
     */
    Value
    commitRead(Cycles cycle, std::uint64_t node)
    {
        omnisim_assert(!data_.empty(),
                       "FIFO '%s' read underrun: read #%u committed with "
                       "no unread write (%u writes, %u reads)",
                       label(), reads() + 1, writes(), reads());
        readCycle_.push_back(cycle);
        readNode_.push_back(node);
        Value v = data_.front();
        data_.pop_front();
        return v;
    }

    /** @return number of committed writes. */
    std::uint32_t
    writes() const
    {
        return static_cast<std::uint32_t>(writeCycle_.size());
    }

    /** @return number of committed reads. */
    std::uint32_t
    reads() const
    {
        return static_cast<std::uint32_t>(readCycle_.size());
    }

    /** @return cycle of the i-th (1-based) committed write. */
    Cycles writeCycleOf(std::uint32_t i) const { return writeCycle_[i - 1]; }

    /** @return cycle of the i-th (1-based) committed read. */
    Cycles readCycleOf(std::uint32_t i) const { return readCycle_[i - 1]; }

    /** @return graph node of the i-th (1-based) committed write. */
    std::uint64_t writeNodeOf(std::uint32_t i) const
    {
        return writeNode_[i - 1];
    }

    /** @return graph node of the i-th (1-based) committed read. */
    std::uint64_t readNodeOf(std::uint32_t i) const
    {
        return readNode_[i - 1];
    }

    /** @return values written but not yet read, oldest first. */
    const std::deque<Value> &pendingData() const { return data_; }

    /** Name the channel for diagnostics (underrun panics). */
    void setLabel(std::string label) { label_ = std::move(label); }

    /** @return the diagnostic label ("?" until setLabel is called). */
    const char *label() const { return label_.empty() ? "?" : label_.c_str(); }

  private:
    std::vector<Cycles> writeCycle_;
    std::vector<Cycles> readCycle_;
    std::vector<std::uint64_t> writeNode_;
    std::vector<std::uint64_t> readNode_;
    std::deque<Value> data_;
    std::string label_;
};

} // namespace omnisim

#endif // OMNISIM_RUNTIME_FIFO_TABLE_HH
