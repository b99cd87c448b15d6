#include "core/omnisim.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "design/context.hh"
#include "graph/compiled_run.hh"
#include "graph/csr.hh"
#include "graph/longest_path.hh"
#include "graph/war.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/axi.hh"
#include "runtime/memory.hh"
#include "runtime/timing.hh"
#include "support/logging.hh"
#include "support/sync.hh"

namespace omnisim
{

namespace
{

/** Raised inside context calls to unwind a Func Sim thread. */
struct AbortSim
{};

/** One outstanding cycle-dependent query (pool entry, Fig. 7 (E)). */
struct PendingQuery
{
    ModuleId mod = invalidId;
    FifoId fifo = invalidId;
    EventKind kind = EventKind::FifoNbWrite;
    std::uint32_t index = 0; ///< The w/r of Table 2.
    Cycles at = 0;           ///< Hardware cycle of the attempt.
    std::uint64_t node = 0;  ///< Graph node of the attempt.
    Value writeValue = 0;    ///< Payload committed if an NB write succeeds.

    // Resolution results, written by the Perf Sim thread. Not
    // GUARDED_BY-annotated: the entry is only reachable through
    // GlobalShared::pool, so every access already sits inside a
    // gs.mu region.
    bool resolved = false;
    bool answer = false; ///< Target event happened strictly before `at`.
    Value readValue = 0;
};

/** Global orchestration state (task tracker + query pool). */
struct GlobalShared
{
    sync::Mutex mu;
    sync::CondVar perfCv; ///< Wakes the Perf Sim thread.
    sync::CondVar funcCv; ///< Wakes query-paused Func threads.

    /// Task tracker (F): runnable Func threads.
    std::int64_t running OMNISIM_GUARDED_BY(mu) = 0;
    /// Func threads that have not returned.
    std::size_t live OMNISIM_GUARDED_BY(mu) = 0;

    /** Query pool (E). shared_ptr: an aborting Func thread may unwind
     *  while the Perf thread still inspects its query. */
    std::vector<std::shared_ptr<PendingQuery>> pool OMNISIM_GUARDED_BY(mu);
    bool poolDirty OMNISIM_GUARDED_BY(mu) = false;

    /** Counts query insertions. Together with the sum of the per-FIFO
     *  commit mirrors this versions the engine state: the Perf thread
     *  may apply the earliest-query-false rule only when neither has
     *  changed since its resolution pass — a query or commit that raced
     *  in behind the snapshot could make a pool entry resolvable, and
     *  forcing it false would be unsound. */
    std::uint64_t poolInsertions OMNISIM_GUARDED_BY(mu) = 0;

    std::atomic<bool> abort{false};
    bool crashed OMNISIM_GUARDED_BY(mu) = false;
    bool timedOut OMNISIM_GUARDED_BY(mu) = false;
    bool deadlock OMNISIM_GUARDED_BY(mu) = false;
    /// Written by the Perf thread with every lock *dropped* (taking the
    /// per-FIFO locks to compute it under mu would invert the declared
    /// fs.mu -> gs.mu order); only the main thread reads it, after
    /// joining the writer — so deliberately not GUARDED_BY.
    Cycles deadlockCycle = 0;
    std::string crashMessage OMNISIM_GUARDED_BY(mu);

    /**
     * Per-module lower bound on the cycle of any op the thread may
     * still commit (TimingModel::retroFloor, published when the thread
     * pauses; ~0 once it returned). The Perf thread uses these to
     * resolve stuck queries *soundly*: when every other live thread's
     * floor has passed a query's cycle, its target event can only lie
     * in the future — answer false is then exact, not a guess.
     */
    std::vector<Cycles> floors OMNISIM_GUARDED_BY(mu);

    /** Per-module: paused with an open elastic window (retroFloor <
     *  earliest) — the thread's future ops may still land at cycles
     *  before its current op. */
    std::vector<std::uint8_t> retroOpen OMNISIM_GUARDED_BY(mu);

    std::atomic<std::uint64_t> nextNode{0};

    // Statistics.
    std::uint64_t queries OMNISIM_GUARDED_BY(mu) = 0;
    std::uint64_t forcedFalse OMNISIM_GUARDED_BY(mu) = 0;
    std::uint64_t forcedBlind OMNISIM_GUARDED_BY(mu) = 0;
    bool deadlockRetroSuspect OMNISIM_GUARDED_BY(mu) = false;
    std::uint64_t pauses OMNISIM_GUARDED_BY(mu) = 0;
};

/** Shared per-FIFO state: commit table + the blocking fast path. */
struct FifoShared
{
    /** Back-pointer to the run's orchestration state, set once before
     *  the Func threads launch. Exists to make the process-wide lock
     *  order declarable on `mu` below (a paused thread holds its FIFO
     *  lock while it takes the global one, never the reverse); the
     *  analysis only ever names it, nothing dereferences it at run
     *  time. */
    GlobalShared *gs = nullptr;

    sync::Mutex mu OMNISIM_ACQUIRED_BEFORE(gs->mu);
    sync::CondVar cv;
    FifoTable table OMNISIM_GUARDED_BY(mu);
    std::uint32_t depth OMNISIM_GUARDED_BY(mu) = 2;
    bool readerWaiting OMNISIM_GUARDED_BY(mu) = false;
    bool writerWaiting OMNISIM_GUARDED_BY(mu) = false;

    /** Commit counters mirrored outside the lock so that a peer can
     *  spin briefly (lock-free) before paying for a tracked pause. */
    std::atomic<std::uint32_t> writesSeen{0};
    std::atomic<std::uint32_t> readsSeen{0};
};

/** Bounded lock-free spin: wait for cond() a few microseconds before
 *  falling back to a tracked pause. SPSC streams ping-pong at buffer
 *  boundaries; spinning absorbs the common case where the peer commits
 *  within nanoseconds, which is what lets Type A designs run at full
 *  multi-threaded speed (Table 5). */
template <typename Cond>
bool
spinFor(Cond &&cond)
{
    for (int spin = 0; spin < 1024; ++spin) {
        if (cond())
            return true;
        if ((spin & 63) == 63)
            std::this_thread::yield();
    }
    return false;
}

/** Floor value marking a finished thread (passes every gate). */
constexpr Cycles kFloorDone = ~Cycles{0};

/** Node created by a Func thread, merged into the graph at finalization. */
struct NodeRec
{
    std::uint64_t id = 0;
    NodeInfo info;
};

/** Per-thread collection buffers (merged after join — no contention). */
struct ThreadData
{
    std::vector<NodeRec> nodes;
    /** Node-id block allocation (amortizes the shared counter). */
    std::uint64_t nodeNext = 0;
    std::uint64_t nodeEnd = 0;
    std::vector<CsrGraph::EdgeSpec> edges;
    std::vector<QueryRecord> constraints;
    std::uint64_t entryNode = 0;
    std::uint64_t tailNode = 0;
    Cycles tailSlack = 0;
    Cycles finalNow = 0;
    std::uint64_t events = 0;
    std::uint64_t skipped = 0;
};

} // namespace

/** Everything run() produces that resimulate() later needs. */
struct OmniSim::RunData
{
    std::vector<NodeInfo> nodes;
    std::vector<Cycles> seed;
    std::vector<CsrGraph::EdgeSpec> edges;
    std::vector<FifoTable> tables;
    std::vector<std::uint32_t> depthsUsed;
    std::vector<QueryRecord> constraints;
    std::vector<std::uint64_t> tailNode;
    std::vector<Cycles> tailSlack;
    SimResult result;
    bool valid = false;

    /** Frozen form of the finished run: CSR structure, cached topo
     *  order, baseline times. Declared last so it is destroyed first —
     *  it references tables and constraints above. */
    std::unique_ptr<CompiledRun> compiled;
};

namespace
{

/**
 * The OmniSim Func Sim context: free-running trace execution with
 * per-FIFO fast paths and query-pool pauses.
 */
class OmniContext : public Context
{
  public:
    OmniContext(const Design &design, MemoryPool &pool, GlobalShared &gs,
                std::vector<FifoShared> &fifos, ModuleId mod,
                ThreadData &td, const OmniSimOptions &opts, bool lazy)
        : design_(design), pool_(pool), gs_(gs), fifos_(fifos), mod_(mod),
          td_(td), opts_(opts), lazyWrites_(lazy),
          timing_(makeEntry(), 1)
    {}

    TimingModel &timing() { return timing_; }

    // ---- Blocking FIFO fast path ------------------------------------

    Value
    read(FifoId f) override
    {
        bump();
        FifoShared &fs = fifos_[f];
        sync::UniqueLock flk(fs.mu);
        const std::uint32_t r = fs.table.reads() + 1;
        if (fs.table.writes() < r) {
            flk.unlock();
            spinFor([&] {
                return fs.writesSeen.load(std::memory_order_acquire) >= r;
            });
            flk.lock();
            if (fs.table.writes() < r) {
                pausePrepare(fs, /*reader=*/true);
                while (!gs_.abort.load(std::memory_order_relaxed) &&
                       fs.table.writes() < r)
                    fs.cv.wait(flk);
                if (gs_.abort.load(std::memory_order_relaxed))
                    throw AbortSim{};
            }
        }
        const Cycles at =
            std::max(timing_.earliest(), fs.table.writeCycleOf(r) + 1);
        const std::uint64_t node = newNode(EventKind::FifoRead, f, r, 1);
        td_.edges.push_back({fs.table.writeNodeOf(r), node, 1});
        const Value v = fs.table.commitRead(at, node);
        fs.readsSeen.store(fs.table.reads(), std::memory_order_release);
        wakeWriter(fs);
        flk.unlock();
        recordStructural(timing_.commitOp(at, 1, node), node);
        return v;
    }

    void
    write(FifoId f, Value v) override
    {
        bump();
        FifoShared &fs = fifos_[f];
        sync::UniqueLock flk(fs.mu);
        const std::uint32_t w = fs.table.writes() + 1;
        Cycles at;
        if (w <= fs.depth || lazyWrites_) {
            // Space available — or the paper's "threads with only
            // blocking writes never pause" optimization (§6.2), which
            // assumes infinite depth and lets finalization repair timing.
            at = timing_.earliest();
        } else {
            if (fs.table.reads() < w - fs.depth) {
                const std::uint32_t needed = w - fs.depth;
                flk.unlock();
                spinFor([&] {
                    return fs.readsSeen.load(std::memory_order_acquire) >=
                           needed;
                });
                flk.lock();
                if (fs.table.reads() < needed) {
                    pausePrepare(fs, /*reader=*/false);
                    while (!gs_.abort.load(std::memory_order_relaxed) &&
                           fs.table.reads() < needed)
                        fs.cv.wait(flk);
                    if (gs_.abort.load(std::memory_order_relaxed))
                        throw AbortSim{};
                }
            }
            at = std::max(timing_.earliest(),
                          fs.table.readCycleOf(w - fs.depth) + 1);
        }
        const std::uint64_t node = newNode(EventKind::FifoWrite, f, w, 1);
        fs.table.commitWrite(v, at, node);
        fs.writesSeen.store(fs.table.writes(), std::memory_order_release);
        wakeReader(fs);
        flk.unlock();
        recordStructural(timing_.commitOp(at, 1, node), node);
    }

    // ---- Non-blocking accesses (cycle-dependent queries) ------------

    bool
    readNb(FifoId f, Value &out) override
    {
        bump();
        FifoShared &fs = fifos_[f];
        sync::UniqueLock flk(fs.mu);
        const std::uint32_t r = fs.table.reads() + 1;
        const Cycles at = timing_.earliest();
        const std::uint64_t node = newNode(EventKind::FifoNbRead, f, r, 1);

        // Note: no read-after-write edge is recorded for a successful
        // NB read. The op never waits — success already implies the
        // write committed strictly before `at` — so the edge is
        // non-binding here, and materializing it would let incremental
        // re-simulation silently *delay* the attempt under new depths
        // instead of observing that its outcome flips (§7.2 soundness).
        bool answer = false;
        Value v = 0;
        if (fs.table.writes() >= r) {
            // Target already committed: decidable in place.
            answer = fs.table.writeCycleOf(r) < at;
            if (answer) {
                v = fs.table.commitRead(at, node);
                fs.readsSeen.store(fs.table.reads(),
                                   std::memory_order_release);
                wakeWriter(fs);
            }
            flk.unlock();
        } else {
            flk.unlock();
            auto q = std::make_shared<PendingQuery>();
            q->mod = mod_;
            q->fifo = f;
            q->kind = EventKind::FifoNbRead;
            q->index = r;
            q->at = at;
            q->node = node;
            answer = waitQuery(q);
            v = q->readValue;
        }

        td_.constraints.push_back(
            {f, EventKind::FifoNbRead, r, node, answer});
        recordStructural(timing_.commitOp(at, 1, node), node);
        if (answer)
            out = v;
        return answer;
    }

    bool
    writeNb(FifoId f, Value v) override
    {
        bump();
        FifoShared &fs = fifos_[f];
        sync::UniqueLock flk(fs.mu);
        const std::uint32_t w = fs.table.writes() + 1;
        const Cycles at = timing_.earliest();
        const std::uint64_t node = newNode(EventKind::FifoNbWrite, f, w, 1);

        bool answer = false;
        if (w <= fs.depth) {
            answer = true; // Table 2 row 1: w <= S always succeeds.
            fs.table.commitWrite(v, at, node);
            fs.writesSeen.store(fs.table.writes(),
                                std::memory_order_release);
            wakeReader(fs);
            flk.unlock();
        } else if (fs.table.reads() >= w - fs.depth) {
            answer = fs.table.readCycleOf(w - fs.depth) < at;
            if (answer) {
                fs.table.commitWrite(v, at, node);
                fs.writesSeen.store(fs.table.writes(),
                                    std::memory_order_release);
                wakeReader(fs);
            }
            flk.unlock();
        } else {
            flk.unlock();
            auto q = std::make_shared<PendingQuery>();
            q->mod = mod_;
            q->fifo = f;
            q->kind = EventKind::FifoNbWrite;
            q->index = w;
            q->at = at;
            q->node = node;
            q->writeValue = v;
            answer = waitQuery(q);
        }

        td_.constraints.push_back(
            {f, EventKind::FifoNbWrite, w, node, answer});
        recordStructural(timing_.commitOp(at, 1, node), node);
        return answer;
    }

    bool
    empty(FifoId f) override
    {
        bump();
        FifoShared &fs = fifos_[f];
        sync::UniqueLock flk(fs.mu);
        const std::uint32_t next = fs.table.reads() + 1;
        const Cycles at = timing_.earliest();
        const std::uint64_t node =
            newNode(EventKind::FifoCanRead, f, next, 0);

        bool answer; // "the next-th write happened strictly before at"
        if (fs.table.writes() >= next) {
            answer = fs.table.writeCycleOf(next) < at;
            flk.unlock();
        } else {
            flk.unlock();
            auto q = std::make_shared<PendingQuery>();
            q->mod = mod_;
            q->fifo = f;
            q->kind = EventKind::FifoCanRead;
            q->index = next;
            q->at = at;
            q->node = node;
            answer = waitQuery(q);
        }

        td_.constraints.push_back(
            {f, EventKind::FifoCanRead, next, node, answer});
        recordStructural(timing_.commitOp(at, 0, node), node);
        return !answer;
    }

    bool
    full(FifoId f) override
    {
        bump();
        FifoShared &fs = fifos_[f];
        sync::UniqueLock flk(fs.mu);
        const std::uint32_t next = fs.table.writes() + 1;
        const Cycles at = timing_.earliest();
        const std::uint64_t node =
            newNode(EventKind::FifoCanWrite, f, next, 0);

        bool answer;
        if (next <= fs.depth) {
            answer = true;
            flk.unlock();
        } else if (fs.table.reads() >= next - fs.depth) {
            answer = fs.table.readCycleOf(next - fs.depth) < at;
            flk.unlock();
        } else {
            flk.unlock();
            auto q = std::make_shared<PendingQuery>();
            q->mod = mod_;
            q->fifo = f;
            q->kind = EventKind::FifoCanWrite;
            q->index = next;
            q->at = at;
            q->node = node;
            answer = waitQuery(q);
        }

        td_.constraints.push_back(
            {f, EventKind::FifoCanWrite, next, node, answer});
        recordStructural(timing_.commitOp(at, 0, node), node);
        return !answer;
    }

    void
    emptyUnused(FifoId f) override
    {
        if (opts_.elideUnusedChecks) {
            ++td_.skipped; // §7.3.2: replaced by a skippable marker.
            return;
        }
        (void)empty(f);
    }

    void
    fullUnused(FifoId f) override
    {
        if (opts_.elideUnusedChecks) {
            ++td_.skipped;
            return;
        }
        (void)full(f);
    }

    // ---- Memory and AXI ---------------------------------------------

    Value
    load(MemId m, std::uint64_t idx) override
    {
        bump();
        return pool_.load(m, idx);
    }

    void
    store(MemId m, std::uint64_t idx, Value v) override
    {
        bump();
        pool_.store(m, idx, v);
    }

    void
    axiReadReq(AxiId a, std::uint64_t addr, std::uint32_t len) override
    {
        bump();
        const std::uint64_t node = newNode(EventKind::AxiReadReq, a, 0, 1);
        const Cycles at = timing_.earliest();
        recordStructural(timing_.commitOp(at, 1, node), node);
        axiState(a).pushReadReq(addr, len, at, node);
    }

    Value
    axiRead(AxiId a) override
    {
        bump();
        std::uint64_t addr = 0;
        const AxiPortState::Dep dep = axiState(a).popReadBeat(addr);
        const std::uint64_t node = newNode(EventKind::AxiRead, a, 0, 1);
        td_.edges.push_back({dep.tag, node, dep.weight});
        const Cycles at =
            std::max(timing_.earliest(), dep.time + dep.weight);
        recordStructural(timing_.commitOp(at, 1, node), node);
        return pool_.load(design_.axiPorts()[a].backing, addr);
    }

    void
    axiWriteReq(AxiId a, std::uint64_t addr, std::uint32_t len) override
    {
        bump();
        const std::uint64_t node =
            newNode(EventKind::AxiWriteReq, a, 0, 1);
        const Cycles at = timing_.earliest();
        recordStructural(timing_.commitOp(at, 1, node), node);
        axiState(a).pushWriteReq(addr, len, at, node);
    }

    void
    axiWrite(AxiId a, Value v) override
    {
        bump();
        std::uint64_t addr = 0;
        const AxiPortState::Dep dep = axiState(a).popWriteBeat(addr);
        const std::uint64_t node = newNode(EventKind::AxiWrite, a, 0, 1);
        td_.edges.push_back({dep.tag, node, dep.weight});
        const Cycles at =
            std::max(timing_.earliest(), dep.time + dep.weight);
        recordStructural(timing_.commitOp(at, 1, node), node);
        pool_.store(design_.axiPorts()[a].backing, addr, v);
        lastWriteBeatTime_ = at;
        lastWriteBeatNode_ = node;
    }

    void
    axiWriteResp(AxiId a) override
    {
        bump();
        const AxiPortState::Dep dep =
            axiState(a).popWriteResp(lastWriteBeatTime_,
                                     lastWriteBeatNode_);
        const std::uint64_t node =
            newNode(EventKind::AxiWriteResp, a, 0, 1);
        td_.edges.push_back({dep.tag, node, dep.weight});
        const Cycles at =
            std::max(timing_.earliest(), dep.time + dep.weight);
        recordStructural(timing_.commitOp(at, 1, node), node);
    }

    // ---- Timing -------------------------------------------------------

    void advance(Cycles n) override { timing_.advance(n); }
    Cycles now() const override { return timing_.now(); }
    void pipelineBegin(std::uint32_t ii) override
    {
        timing_.pipelineBegin(ii);
    }
    void iterBegin() override { timing_.iterBegin(); }
    void pipelineEnd() override { timing_.pipelineEnd(); }

  private:
    std::uint64_t
    allocNodeId()
    {
        if (td_.nodeNext == td_.nodeEnd) {
            constexpr std::uint64_t blockSize = 4096;
            td_.nodeNext = gs_.nextNode.fetch_add(blockSize);
            td_.nodeEnd = td_.nodeNext + blockSize;
        }
        return td_.nodeNext++;
    }

    std::uint64_t
    makeEntry()
    {
        const std::uint64_t id = allocNodeId();
        td_.nodes.push_back(
            {id, NodeInfo{EventKind::StartTask, mod_, invalidId, 0, 0}});
        td_.entryNode = id;
        return id;
    }

    std::uint64_t
    newNode(EventKind kind, std::int32_t channel, std::uint32_t index,
            Cycles dur)
    {
        const std::uint64_t id = allocNodeId();
        td_.nodes.push_back({id, NodeInfo{kind, mod_, channel, index, dur}});
        return id;
    }

    void
    recordStructural(const std::vector<TimingModel::Constraint> &cs,
                     std::uint64_t node)
    {
        for (const auto &c : cs)
            td_.edges.push_back({c.tag, node, c.weight});
    }

    void
    bump() OMNISIM_EXCLUDES(gs_.mu)
    {
        if (gs_.abort.load(std::memory_order_relaxed))
            throw AbortSim{};
        if (++td_.events > opts_.opLimit) {
            sync::LockGuard g(gs_.mu);
            if (!gs_.timedOut && !gs_.crashed) {
                gs_.timedOut = true;
                gs_.crashMessage = strf(
                    "module '%s' exceeded the op watchdog limit",
                    design_.modules()[mod_].name.c_str());
            }
            gs_.abort.store(true);
            gs_.perfCv.notify_all();
            gs_.funcCv.notify_all();
            throw AbortSim{};
        }
    }

    /**
     * Bookkeeping before a tracked pause on a FIFO condition. The
     * caller holds fs.mu, has already seen the predicate false, and —
     * immediately after this returns — waits on fs.cv in its own
     * explicit loop (keeping the guarded predicate reads inside the
     * annotated locking scope), rethrowing AbortSim on abort. The waker
     * clears the waiting flag and re-increments the task tracker before
     * notifying, so the tracker can never transiently read zero while a
     * wake is in flight.
     */
    void
    pausePrepare(FifoShared &fs, bool reader)
        OMNISIM_REQUIRES(fs.mu) OMNISIM_EXCLUDES(gs_.mu)
    {
        if (reader)
            fs.readerWaiting = true;
        else
            fs.writerWaiting = true;
        sync::LockGuard g(gs_.mu);
        publishFloorLocked();
        --gs_.running;
        ++gs_.pauses;
        if (gs_.running == 0)
            gs_.perfCv.notify_all();
    }

    /** Publish this thread's retroactive floor (must hold gs_.mu). The
     *  Perf thread reads floors only at quiescence, when every thread
     *  has just published at its pause point. */
    void
    publishFloorLocked() OMNISIM_REQUIRES(gs_.mu)
    {
        const Cycles f = timing_.retroFloor();
        gs_.floors[mod_] = f;
        gs_.retroOpen[mod_] = f < timing_.earliest() ? 1 : 0;
    }

    /** Enqueue a query, pause, and return its resolved answer. */
    bool
    waitQuery(const std::shared_ptr<PendingQuery> &q)
        OMNISIM_EXCLUDES(gs_.mu)
    {
        sync::UniqueLock g(gs_.mu);
        publishFloorLocked();
        gs_.pool.push_back(q);
        gs_.poolDirty = true;
        ++gs_.poolInsertions;
        ++gs_.queries;
        --gs_.running;
        ++gs_.pauses;
        gs_.perfCv.notify_all();
        while (!gs_.abort.load(std::memory_order_relaxed) && !q->resolved)
            gs_.funcCv.wait(g);
        if (!q->resolved)
            throw AbortSim{};
        return q->answer;
    }

    void
    wakeReader(FifoShared &fs)
        OMNISIM_REQUIRES(fs.mu) OMNISIM_EXCLUDES(gs_.mu)
    {
        if (fs.readerWaiting) {
            fs.readerWaiting = false;
            {
                sync::LockGuard g(gs_.mu);
                ++gs_.running;
            }
            fs.cv.notify_all();
        }
    }

    void
    wakeWriter(FifoShared &fs)
        OMNISIM_REQUIRES(fs.mu) OMNISIM_EXCLUDES(gs_.mu)
    {
        if (fs.writerWaiting) {
            fs.writerWaiting = false;
            {
                sync::LockGuard g(gs_.mu);
                ++gs_.running;
            }
            fs.cv.notify_all();
        }
    }

    AxiPortState &
    axiState(AxiId a)
    {
        auto it = axi_.find(a);
        if (it == axi_.end()) {
            it = axi_.emplace(a,
                AxiPortState(design_.axiPorts()[a].config)).first;
        }
        return it->second;
    }

    const Design &design_;
    MemoryPool &pool_;
    GlobalShared &gs_;
    std::vector<FifoShared> &fifos_;
    ModuleId mod_;
    ThreadData &td_;
    const OmniSimOptions &opts_;
    bool lazyWrites_;
    TimingModel timing_;
    std::map<AxiId, AxiPortState> axi_;
    Cycles lastWriteBeatTime_ = 0;
    std::uint64_t lastWriteBeatNode_ = 0;
};

/**
 * The Perf Sim thread: resolves queries against the FIFO tables per
 * Table 2, applies the earliest-query-false rule, detects deadlocks.
 */
class PerfSim
{
  public:
    PerfSim(GlobalShared &gs, std::vector<FifoShared> &fifos)
        : gs_(gs), fifos_(fifos)
    {}

    void
    operator()() OMNISIM_EXCLUDES(gs_.mu)
    {
        sync::UniqueLock g(gs_.mu);
        for (;;) {
            while (!(gs_.abort.load() || gs_.live == 0 || gs_.poolDirty ||
                     (gs_.running == 0 && gs_.live > 0)))
                gs_.perfCv.wait(g);
            if (gs_.abort.load() || gs_.live == 0)
                return;
            gs_.poolDirty = false;

            // Resolution pass over a pool snapshot. Table state is read
            // under per-FIFO locks, so the global lock is dropped.
            std::vector<std::shared_ptr<PendingQuery>> snapshot = gs_.pool;
            const std::uint64_t insertions0 = gs_.poolInsertions;
            g.unlock();
            const std::uint64_t commits0 = commitSum();
            std::vector<std::shared_ptr<PendingQuery>> done;
            for (const auto &q : snapshot) {
                if (tryResolve(*q))
                    done.push_back(q);
            }
            g.lock();

            if (!done.empty()) {
                for (const auto &q : done) {
                    std::erase(gs_.pool, q);
                    q->resolved = true;
                    ++gs_.running;
                }
                gs_.funcCv.notify_all();
                continue;
            }

            if (gs_.running == 0 && gs_.live > 0) {
                if (gs_.poolInsertions != insertions0 ||
                    commitSum() != commits0) {
                    // A query or commit raced in behind the resolution
                    // snapshot; some pool entry may now be resolvable.
                    // Re-run the pass before forcing anything false.
                    gs_.poolDirty = true;
                    continue;
                }
                if (!gs_.pool.empty()) {
                    // §7.1 earliest-query-false, in two tiers. First the
                    // provable cases: a query whose every other live
                    // thread's floor has passed its cycle — no future
                    // commit can precede the attempt, so "false" is
                    // exact. Only when no query qualifies fall back to
                    // the blind guess on the earliest (cycle, module)
                    // pool entry, and record that the precondition was
                    // unproven (stats.forcedBlind; the conformance
                    // harness treats such runs as approximations of the
                    // elastic timing fixpoint).
                    std::vector<std::shared_ptr<PendingQuery>> sound;
                    for (const auto &q : gs_.pool) {
                        bool floorsPass = true;
                        for (std::size_t m = 0; m < gs_.floors.size();
                             ++m) {
                            if (static_cast<ModuleId>(m) == q->mod)
                                continue;
                            if (gs_.floors[m] < q->at) {
                                floorsPass = false;
                                break;
                            }
                        }
                        if (floorsPass)
                            sound.push_back(q);
                    }
                    const bool blind = sound.empty();
                    if (blind) {
                        sound.push_back(*std::min_element(
                            gs_.pool.begin(), gs_.pool.end(),
                            [](const std::shared_ptr<PendingQuery> &a,
                               const std::shared_ptr<PendingQuery> &b) {
                                if (a->at != b->at)
                                    return a->at < b->at;
                                return a->mod < b->mod;
                            }));
                        ++gs_.forcedBlind;
                    }
                    for (const auto &q : sound) {
                        std::erase(gs_.pool, q);
                        q->answer = false;
                        q->resolved = true;
                        ++gs_.running;
                        ++gs_.forcedFalse;
                    }
                    gs_.funcCv.notify_all();
                } else {
                    // All threads blocked, nothing pending: deadlock.
                    // Flag it when a paused thread still had an open
                    // elastic window — real pipelined hardware could
                    // have issued its next iteration's ops and possibly
                    // made progress where the serialized engine cannot.
                    gs_.deadlock = true;
                    for (std::size_t m = 0; m < gs_.floors.size(); ++m)
                        if (gs_.floors[m] != kFloorDone &&
                            gs_.retroOpen[m])
                            gs_.deadlockRetroSuspect = true;
                    gs_.abort.store(true);
                    gs_.funcCv.notify_all();
                    // Per-FIFO locks only with the global lock dropped
                    // (same discipline as the resolution pass): paused
                    // threads acquire fs.mu then gs_.mu, so taking them
                    // here nested would invert the order. deadlockCycle
                    // is safe to write unlocked — only the main thread
                    // reads it, after joining this one.
                    g.unlock();
                    gs_.deadlockCycle = maxCommittedCycle();
                    wakeAllFifos();
                    return;
                }
            }
        }
    }

  private:
    bool
    tryResolve(PendingQuery &q) OMNISIM_EXCLUDES(gs_.mu)
    {
        FifoShared &fs = fifos_[q.fifo];
        sync::LockGuard flk(fs.mu);
        switch (q.kind) {
          case EventKind::FifoNbRead:
          case EventKind::FifoCanRead:
            if (fs.table.writes() < q.index)
                return false;
            q.answer = fs.table.writeCycleOf(q.index) < q.at;
            if (q.answer && q.kind == EventKind::FifoNbRead) {
                q.readValue = fs.table.commitRead(q.at, q.node);
                fs.readsSeen.store(fs.table.reads(),
                                   std::memory_order_release);
                wakeWaiter(fs, fs.writerWaiting);
            }
            return true;

          case EventKind::FifoNbWrite:
          case EventKind::FifoCanWrite:
            if (q.index <= fs.depth) {
                q.answer = true;
            } else if (fs.table.reads() >= q.index - fs.depth) {
                q.answer = fs.table.readCycleOf(q.index - fs.depth) < q.at;
            } else {
                return false;
            }
            if (q.answer && q.kind == EventKind::FifoNbWrite) {
                fs.table.commitWrite(q.writeValue, q.at, q.node);
                fs.writesSeen.store(fs.table.writes(),
                                    std::memory_order_release);
                wakeWaiter(fs, fs.readerWaiting);
            }
            return true;

          default:
            omnisim_panic("non-query kind %s in query pool",
                          eventKindName(q.kind));
        }
    }

    /** Wake a blocking-paused peer after a query-driven commit. `flag`
     *  aliases fs.readerWaiting or fs.writerWaiting, which is why the
     *  caller must hold fs.mu. */
    void
    wakeWaiter(FifoShared &fs, bool &flag)
        OMNISIM_REQUIRES(fs.mu) OMNISIM_EXCLUDES(gs_.mu)
    {
        if (flag) {
            flag = false;
            {
                sync::LockGuard g(gs_.mu);
                ++gs_.running;
            }
            fs.cv.notify_all();
        }
    }

    /** Sum of all per-FIFO commit mirrors: the commit half of the
     *  engine state version. */
    std::uint64_t
    commitSum() const
    {
        std::uint64_t sum = 0;
        for (const auto &fs : fifos_) {
            sum += fs.writesSeen.load(std::memory_order_acquire);
            sum += fs.readsSeen.load(std::memory_order_acquire);
        }
        return sum;
    }

    Cycles
    maxCommittedCycle()
    {
        Cycles mx = 0;
        for (auto &fs : fifos_) {
            sync::LockGuard flk(fs.mu);
            const FifoTable &t = fs.table;
            if (t.writes() > 0)
                mx = std::max(mx, t.writeCycleOf(t.writes()));
            if (t.reads() > 0)
                mx = std::max(mx, t.readCycleOf(t.reads()));
        }
        return mx;
    }

    void
    wakeAllFifos()
    {
        for (auto &fs : fifos_) {
            sync::LockGuard flk(fs.mu);
            fs.cv.notify_all();
        }
    }

    GlobalShared &gs_;
    std::vector<FifoShared> &fifos_;
};

} // namespace

OmniSim::OmniSim(const CompiledDesign &cd, OmniSimOptions opts)
    : cd_(cd), opts_(opts)
{}

OmniSim::~OmniSim() = default;

SimResult
OmniSim::run()
{
    // Resolved once; the registry hands back process-lifetime references.
    static obs::Counter &mRuns =
        obs::Registry::global().counter("engine.omnisim.runs");
    static obs::Counter &mEvents =
        obs::Registry::global().counter("engine.omnisim.events");
    static obs::Counter &mQueries =
        obs::Registry::global().counter("engine.omnisim.queries");
    static obs::Histogram &mRunUs =
        obs::Registry::global().histogram("engine.omnisim.run_us");
    OMNISIM_SPAN("omnisim.run");
    obs::ScopedLatencyUs runTimer(mRunUs);
    mRuns.add();

    const Design &design = cd_.d();
    const std::size_t nmods = design.modules().size();
    const std::size_t nfifos = design.fifos().size();
    OMNISIM_LOG_DEBUG("engine.run", "design=%s modules=%zu fifos=%zu",
                      design.name().c_str(), nmods, nfifos);

    // Pre-spawn initialization. No thread exists yet, but the fields
    // are lock-annotated, so initialization takes the (uncontended)
    // locks rather than poking holes in the analysis.
    GlobalShared gs;
    {
        sync::LockGuard g(gs.mu);
        gs.running = static_cast<std::int64_t>(nmods);
        gs.live = nmods;
        gs.floors.assign(nmods, 1);
        gs.retroOpen.assign(nmods, 0);
    }

    std::vector<FifoShared> fifos(nfifos);
    std::vector<std::uint32_t> depths(nfifos);
    for (std::size_t f = 0; f < nfifos; ++f) {
        fifos[f].gs = &gs; // lock-order witness only (see FifoShared)
        sync::LockGuard flk(fifos[f].mu);
        fifos[f].depth = design.fifos()[f].depth;
        depths[f] = design.fifos()[f].depth;
        fifos[f].table.setLabel(design.fifos()[f].name);
    }

    // Write-stall policy. Type A designs have no cycle-dependent
    // queries, so every writer may free-run under the infinite-depth
    // assumption (finalization recomputes exact times through the
    // synthesized WAR edges) — this is what lets the multi-threaded
    // engine beat the single-threaded baseline (Table 5). For designs
    // with queries, stalls stay eager so query resolution sees exact
    // cycles; the lazy option additionally frees the paper's T4 threads
    // (no FIFO reads, only blocking writes) as an ablation.
    const bool pure_type_a = cd_.classification.type == DesignType::A;
    std::vector<bool> lazy(nmods, pure_type_a);
    if (!opts_.eagerWriteStall && !pure_type_a) {
        std::vector<bool> reads_any(nmods, false);
        std::vector<bool> writes_nb(nmods, false);
        for (const auto &f : design.fifos()) {
            reads_any[f.reader] = true;
            if (f.writeKind != AccessKind::Blocking)
                writes_nb[f.writer] = true;
        }
        for (std::size_t m = 0; m < nmods; ++m)
            lazy[m] = !reads_any[m] && !writes_nb[m];
    }
    const bool any_lazy =
        std::any_of(lazy.begin(), lazy.end(), [](bool b) { return b; });

    MemoryPool pool = design.makeMemoryPool();
    std::vector<ThreadData> tdata(nmods);

    auto funcMain = [&](ModuleId m) {
        OmniContext ctx(design, pool, gs, fifos, m, tdata[m], opts_,
                        lazy[m]);
        bool crashed_here = false;
        std::string crash_msg;
        try {
            design.modules()[m].body(ctx);
        } catch (const AbortSim &) {
            // Unwound by abort; tracker slot already released at pause.
        } catch (const SimCrash &c) {
            crashed_here = true;
            crash_msg =
                strf("@E Simulation failed: SIGSEGV (%s in task '%s')",
                     c.what(), design.modules()[m].name.c_str());
        }
        tdata[m].finalNow = ctx.timing().now();
        tdata[m].tailNode = ctx.timing().lastOpTag();
        tdata[m].tailSlack = ctx.timing().now() - ctx.timing().lastOpTime();
        {
            sync::LockGuard g(gs.mu);
            if (crashed_here && !gs.crashed) {
                gs.crashed = true;
                gs.crashMessage = crash_msg;
                gs.abort.store(true);
                gs.funcCv.notify_all();
            }
            gs.floors[m] = kFloorDone; // nothing further can commit
            gs.retroOpen[m] = 0;
            --gs.live;
            --gs.running;
            gs.perfCv.notify_all();
        }
        if (crashed_here) {
            for (auto &fs : fifos) {
                sync::LockGuard flk(fs.mu);
                fs.cv.notify_all();
            }
        }
    };

    // §6.2 step 1: invoke all threads — Func Sim and Perf Sim.
    {
        OMNISIM_SPAN("omnisim.execute");
        std::vector<std::thread> workers;
        workers.reserve(nmods);
        for (ModuleId m : cd_.threadPlan)
            workers.emplace_back(funcMain, m);
        std::thread perf{PerfSim(gs, fifos)};

        for (auto &w : workers)
            w.join();
        {
            // Ensure the Perf thread observes live == 0 and exits.
            sync::LockGuard g(gs.mu);
            gs.perfCv.notify_all();
        }
        perf.join();
    }

    // Every worker and the Perf thread are joined: one final lock pass
    // snapshots the orchestration outcome, and finalization below runs
    // single-threaded on the locals.
    std::uint64_t queries, forcedFalse, forcedBlind, pauses;
    bool crashed, timedOut, deadlock, retroSuspect;
    std::string crashMessage;
    {
        sync::LockGuard g(gs.mu);
        queries = gs.queries;
        forcedFalse = gs.forcedFalse;
        forcedBlind = gs.forcedBlind;
        pauses = gs.pauses;
        crashed = gs.crashed;
        timedOut = gs.timedOut;
        deadlock = gs.deadlock;
        retroSuspect = gs.deadlockRetroSuspect;
        crashMessage = gs.crashMessage;
    }

    OMNISIM_SPAN("omnisim.finalize");

    // ---- Finalization (§6.2): merge thread logs, rebuild timing -----
    data_ = std::make_unique<RunData>();
    RunData &rd = *data_;
    rd.depthsUsed = depths;

    const std::size_t nnodes = gs.nextNode.load();
    rd.nodes.resize(nnodes);
    rd.seed.assign(nnodes, 0);
    rd.tailNode.resize(nmods);
    rd.tailSlack.resize(nmods);
    std::uint64_t events = 0;
    std::uint64_t skipped = 0;
    for (std::size_t m = 0; m < nmods; ++m) {
        const ThreadData &td = tdata[m];
        for (const NodeRec &nr : td.nodes)
            rd.nodes[nr.id] = nr.info;
        rd.seed[td.entryNode] = 1;
        rd.edges.insert(rd.edges.end(), td.edges.begin(), td.edges.end());
        rd.constraints.insert(rd.constraints.end(), td.constraints.begin(),
                              td.constraints.end());
        rd.tailNode[m] = td.tailNode;
        rd.tailSlack[m] = td.tailSlack;
        events += td.events;
        skipped += td.skipped;
    }
    rd.tables.reserve(nfifos);
    for (auto &fs : fifos) {
        sync::LockGuard flk(fs.mu);
        rd.tables.push_back(std::move(fs.table));
    }

    mEvents.add(events);
    mQueries.add(queries);

    SimResult &r = rd.result;
    r.stats.events = events;
    r.stats.queries = queries;
    r.stats.queriesSkipped = skipped;
    r.stats.forcedFalse = forcedFalse;
    r.stats.forcedBlind = forcedBlind;
    r.stats.deadlockRetroSuspect = retroSuspect ? 1 : 0;
    r.stats.threadPauses = pauses;

    for (std::size_t i = 0; i < design.memories().size(); ++i) {
        r.memories[design.memories()[i].name] =
            pool.contents(static_cast<MemId>(i));
    }
    for (std::size_t f = 0; f < rd.tables.size(); ++f) {
        const auto &pending = rd.tables[f].pendingData();
        if (!pending.empty()) {
            r.warnings.push_back(strf(
                "WARNING: Hls::stream '%s' contains leftover data "
                "(%zu elements)",
                design.fifos()[f].name.c_str(), pending.size()));
        }
    }

    if (crashed) {
        r.status = SimStatus::Crash;
        r.message = crashMessage;
        return r;
    }
    if (timedOut) {
        r.status = SimStatus::Timeout;
        r.message = crashMessage;
        return r;
    }
    if (deadlock) {
        r.status = SimStatus::Deadlock;
        r.deadlockCycle = gs.deadlockCycle;
        r.message = strf("unresolvable deadlock detected at cycle %llu",
                         static_cast<unsigned long long>(gs.deadlockCycle));
        return r;
    }

    // Freeze the finished run through the graph compilation pipeline
    // (src/opt/): optimization passes, then CSR structure + cached
    // topological order + baseline longest-path times, computed once.
    // resimulate() serves every later depth vector from this compiled
    // form.
    {
        OMNISIM_SPAN("omnisim.freeze");
        rd.compiled = std::make_unique<CompiledRun>(
            rd.nodes, rd.edges, rd.seed, rd.tables, depths, rd.constraints,
            rd.tailNode, rd.tailSlack, opts_.optLevel);
    }
    r.stats.graphNodes = nnodes;
    r.stats.graphEdges = rd.compiled->numEdges();

    if (!rd.compiled->baselineAcyclic()) {
        // Only reachable in lazy mode, which can sail past a stall
        // pattern that real hardware (and eager mode) would deadlock on.
        r.status = SimStatus::Deadlock;
        r.message = "finalization found an infeasible timing cycle";
        return r;
    }
    r.totalCycles = rd.compiled->baselineTotalCycles();

    if (opts_.verifyFinalization && opts_.eagerWriteStall && !any_lazy) {
        // Recompute the times on the *original* graph (the compiled
        // layout renames and collapses nodes, so its solution cannot be
        // indexed by table node ids). This doubles as an independent
        // cross-check of the pipeline's baselineTotalCycles().
        SimGraph graph;
        graph.reserve(rd.nodes.size(), rd.edges.size());
        for (const NodeInfo &info : rd.nodes)
            graph.addNode(info);
        for (const auto &e : rd.edges)
            graph.addEdge(e.src, e.dst, e.weight);
        synthesizeWarEdges(rd.tables, depths,
                           [&](std::uint64_t s, std::uint64_t d, Cycles w) {
                               graph.addEdge(s, d, w);
                           },
                           [&](std::size_t f, std::uint32_t w) {
                               return rd.nodes[rd.tables[f].writeNodeOf(w)]
                                          .kind == EventKind::FifoWrite;
                           });
        const PathResult pr = longestPath(graph, rd.seed);
        omnisim_assert(pr.acyclic,
                       "verify: baseline overlay is cyclic in eager mode");
        const std::vector<Cycles> &time = pr.time;
        Cycles total = 0;
        for (std::size_t v = 0; v < rd.nodes.size(); ++v)
            total = std::max(total, time[v] + rd.nodes[v].duration);
        for (std::size_t m = 0; m < rd.tailNode.size(); ++m)
            total = std::max(total,
                             time[rd.tailNode[m]] + rd.tailSlack[m]);
        omnisim_assert(total == r.totalCycles,
                       "verify: compiled total %llu != reference %llu",
                       static_cast<unsigned long long>(r.totalCycles),
                       static_cast<unsigned long long>(total));
        for (std::size_t f = 0; f < rd.tables.size(); ++f) {
            const FifoTable &t = rd.tables[f];
            for (std::uint32_t i = 1; i <= t.writes(); ++i) {
                omnisim_assert(time[t.writeNodeOf(i)] ==
                               t.writeCycleOf(i),
                               "write %u of fifo %zu: recomputed %llu != "
                               "live %llu", i, f,
                               static_cast<unsigned long long>(
                                   time[t.writeNodeOf(i)]),
                               static_cast<unsigned long long>(
                                   t.writeCycleOf(i)));
            }
            for (std::uint32_t i = 1; i <= t.reads(); ++i) {
                omnisim_assert(time[t.readNodeOf(i)] ==
                               t.readCycleOf(i),
                               "read %u of fifo %zu: recomputed time "
                               "mismatch", i, f);
            }
        }
    }

    rd.valid = true;
    return r;
}

IncrementalOutcome
OmniSim::resimulate(const std::vector<std::uint32_t> &depths)
{
    static obs::Counter &mAttempts =
        obs::Registry::global().counter("engine.resim.attempts");
    static obs::Counter &mDelta =
        obs::Registry::global().counter("engine.resim.delta");
    static obs::Counter &mFullRelax =
        obs::Registry::global().counter("engine.resim.full_relax");
    static obs::Counter &mDiverged =
        obs::Registry::global().counter("engine.resim.diverged");
    static obs::Counter &mInfeasible =
        obs::Registry::global().counter("engine.resim.infeasible");
    static obs::Counter &mReused =
        obs::Registry::global().counter("engine.resim.reused");
    static obs::Histogram &mConeNodes =
        obs::Registry::global().histogram("engine.resim.cone_nodes");
    static obs::Histogram &mResimUs =
        obs::Registry::global().histogram("engine.resim.us");
    // Hot span: fires per incremental request; the flight mirror keeps
    // serve.request / dse.evaluate as the crash-stack context instead.
    OMNISIM_SPAN_HOT("omnisim.resimulate");
    obs::ScopedLatencyUs resimTimer(mResimUs);

    IncrementalOutcome out;
    if (!data_ || !data_->valid) {
        out.reason = "no prior successful run";
        return out;
    }
    const RunData &rd = *data_;
    omnisim_assert(depths.size() == rd.tables.size(),
                   "depth vector size mismatch");
    omnisim_assert(rd.compiled != nullptr, "valid run has no compiled form");

    const CompiledRun::Attempt a = rd.compiled->resimulate(depths);
    mAttempts.add();
    if (a.viaDelta)
        mDelta.add();
    else
        mFullRelax.add(); // fell back to a full relaxation pass
    mConeNodes.record(a.relaxedNodes);
    out.viaCompiled = true;
    out.viaDelta = a.viaDelta;
    switch (a.status) {
      case CompiledRun::Attempt::Status::Infeasible:
        mInfeasible.add();
        out.reason = "new depths make the recorded timing infeasible "
                     "(potential deadlock) — full re-simulation required";
        return out;
      case CompiledRun::Attempt::Status::Diverged: {
        mDiverged.add();
        const QueryRecord &qr = rd.constraints[a.constraintIndex];
        out.reason = strf(
            "constraint violated: %s #%u on fifo '%s' would now "
            "resolve %s", eventKindName(qr.kind), qr.index,
            cd_.d().fifos()[qr.fifo].name.c_str(),
            a.nowAnswer ? "true" : "false");
        return out;
      }
      case CompiledRun::Attempt::Status::Reused:
        mReused.add();
        out.reused = true;
        out.result = rd.result;
        out.result.totalCycles = a.totalCycles;
        return out;
    }
    omnisim_panic("bad compiled attempt status");
}

IncrementalOutcome
OmniSim::resimulateReference(const std::vector<std::uint32_t> &depths)
{
    IncrementalOutcome out;
    if (!data_ || !data_->valid) {
        out.reason = "no prior successful run";
        return out;
    }
    const RunData &rd = *data_;
    omnisim_assert(depths.size() == rd.tables.size(),
                   "depth vector size mismatch");

    SimGraph graph;
    graph.reserve(rd.nodes.size(), rd.edges.size());
    for (const NodeInfo &info : rd.nodes)
        graph.addNode(info);
    for (const auto &e : rd.edges)
        graph.addEdge(e.src, e.dst, e.weight);
    synthesizeWarEdges(rd.tables, depths,
                       [&](std::uint64_t s, std::uint64_t d, Cycles w) {
                           graph.addEdge(s, d, w);
                       },
                       [&](std::size_t f, std::uint32_t w) {
                           // Only a blocking write waits for space; a
                           // committed NB write keeps its attempt time
                           // and its recorded constraint decides (§7.2).
                           return rd.nodes[rd.tables[f].writeNodeOf(w)]
                                      .kind == EventKind::FifoWrite;
                       });

    const PathResult pr = longestPath(graph, rd.seed);
    if (!pr.acyclic) {
        out.reason = "new depths make the recorded timing infeasible "
                     "(potential deadlock) — full re-simulation required";
        return out;
    }

    // Re-evaluate every recorded query outcome under the new depths
    // (§7.2): any divergence means control flow would differ.
    for (const QueryRecord &qr : rd.constraints) {
        const FifoTable &t = rd.tables[qr.fifo];
        const std::uint32_t s = depths[qr.fifo];
        const Cycles at = pr.time[qr.node];
        bool now_answer = false;
        switch (qr.kind) {
          case EventKind::FifoNbRead:
          case EventKind::FifoCanRead:
            now_answer = t.writes() >= qr.index &&
                         pr.time[t.writeNodeOf(qr.index)] < at;
            break;
          case EventKind::FifoNbWrite:
          case EventKind::FifoCanWrite:
            if (qr.index <= s) {
                now_answer = true;
            } else {
                now_answer = t.reads() >= qr.index - s &&
                             pr.time[t.readNodeOf(qr.index - s)] < at;
            }
            break;
          default:
            omnisim_panic("bad constraint kind");
        }
        if (now_answer != qr.outcome) {
            out.reason = strf(
                "constraint violated: %s #%u on fifo '%s' would now "
                "resolve %s", eventKindName(qr.kind), qr.index,
                cd_.d().fifos()[qr.fifo].name.c_str(),
                now_answer ? "true" : "false");
            return out;
        }
    }

    out.reused = true;
    out.result = rd.result;
    Cycles total = 0;
    for (std::size_t n = 0; n < rd.nodes.size(); ++n)
        total = std::max(total, pr.time[n] + rd.nodes[n].duration);
    for (std::size_t m = 0; m < rd.tailNode.size(); ++m) {
        total = std::max(total,
                         pr.time[rd.tailNode[m]] + rd.tailSlack[m]);
    }
    out.result.totalCycles = total;
    return out;
}

const std::vector<QueryRecord> &
OmniSim::constraints() const
{
    omnisim_assert(data_ != nullptr, "no run yet");
    return data_->constraints;
}

const opt::CompileStats &
OmniSim::compileStats() const
{
    omnisim_assert(data_ && data_->valid && data_->compiled != nullptr,
                   "no compiled run yet");
    return data_->compiled->compileStats();
}

const CompiledRun &
OmniSim::compiledRun() const
{
    omnisim_assert(data_ && data_->valid && data_->compiled != nullptr,
                   "no compiled run yet");
    return *data_->compiled;
}

bool
OmniSim::exportSnapshot(RunSnapshot &out) const
{
    if (!data_ || !data_->valid)
        return false;
    const RunData &rd = *data_;
    out.nodes = rd.nodes;
    out.edges = rd.edges;
    out.seed = rd.seed;
    out.tables = rd.tables;
    out.depths = rd.depthsUsed;
    out.constraints = rd.constraints;
    out.tailNode = rd.tailNode;
    out.tailSlack = rd.tailSlack;
    out.result = rd.result;
    return true;
}

SimResult
simulateOmniSim(const CompiledDesign &cd, const OmniSimOptions &opts)
{
    OmniSim engine(cd, opts);
    return engine.run();
}

} // namespace omnisim
