#include "designs/typebc.hh"

#include "design/context.hh"
#include "designs/common.hh"
#include "support/logging.hh"

/*
 * Implementation notes:
 *
 *  - Every input array carries `overrunSlack` extra elements so that a
 *    producer briefly overrunning its data while a done signal is in
 *    flight (legal hardware behaviour, reads return zeros) does not
 *    fault, while naive C simulation — which never delivers the done
 *    signal — runs far past the array and hits the simulated SIGSEGV,
 *    reproducing the paper's C-sim crashes.
 *
 *  - Rates are tuned so that overrun stays far below the slack in the
 *    timed engines and so that the paper's qualitative shapes hold
 *    (drops present, P1 preferred over P2, fetched >> executed).
 *
 *  - Module/FIFO counts occasionally differ by one from Table 4 (the
 *    paper's sources are not published); the taxonomy class, access
 *    kinds and cyclicity of each design match the table.
 */

namespace omnisim::designs
{

namespace
{
constexpr auto nb = AccessKind::NonBlocking;
constexpr auto blk = AccessKind::Blocking;
constexpr auto mixed = AccessKind::Mixed;
} // namespace

Design
buildFig4Ex2()
{
    Design d("fig4_ex2");
    const std::size_t n = tableN;
    const MemId data = d.addMemory("data", n + overrunSlack);
    const MemId sum_out = d.addMemory("sum_out", 1);
    d.setInput(data, iotaData(n));

    const FifoId f1 = d.declareFifo("f1", 2, nb, blk);
    const FifoId f2 = d.declareFifo("f2", 2, blk, blk);
    const FifoId done = d.declareFifo("done", 2, blk, nb);

    const ModuleId producer = d.addModule(
        "producer",
        [=](Context &ctx) {
            std::uint64_t i = 0;
            for (;;) {
                Value dummy;
                if (ctx.readNb(done, dummy))
                    break;
                if (ctx.writeNb(f1, ctx.load(data, i)))
                    ++i;
            }
        },
        {.hasInfiniteLoop = true, .behaviorVariesOnNb = false});

    const ModuleId relay = d.addModule("relay", [=](Context &ctx) {
        for (std::size_t k = 0; k < n; ++k)
            ctx.write(f2, ctx.read(f1));
    });

    const ModuleId consumer = d.addModule("consumer", [=](Context &ctx) {
        Value sum = 0;
        for (std::size_t k = 0; k < n; ++k)
            sum += ctx.read(f2);
        ctx.write(done, 1);
        ctx.store(sum_out, 0, sum);
    });

    d.connectFifo(f1, producer, relay);
    d.connectFifo(f2, relay, consumer);
    d.connectFifo(done, consumer, producer);
    return d;
}

Design
buildFig4Ex3()
{
    Design d("fig4_ex3");
    const std::size_t n = tableN;
    const MemId data = d.addMemory("data", n);
    const MemId sum_out = d.addMemory("sum", 1);
    d.setInput(data, iotaData(n));

    const FifoId f1 = d.declareFifo("fifo1", 2, blk, blk);
    const FifoId f2 = d.declareFifo("fifo2", 2, blk, blk);

    const ModuleId controller = d.addModule(
        "controller", [=](Context &ctx) {
            Value sum = 0;
            for (std::size_t i = 0; i < n; ++i) {
                ctx.write(f1, ctx.load(data, i));
                sum += ctx.read(f2);
            }
            ctx.store(sum_out, 0, sum);
        });

    const ModuleId processor = d.addModule(
        "processor", [=](Context &ctx) {
            for (std::size_t i = 0; i < n; ++i) {
                const Value v = ctx.read(f1);
                ctx.write(f2, v * 2);
            }
        });

    d.connectFifo(f1, controller, processor);
    d.connectFifo(f2, processor, controller);
    return d;
}

namespace
{

/**
 * Shared body of Ex. 4a/4b: a producer that never retries (element
 * dropped when the FIFO is full) feeding a deliberately slower consumer.
 * When count_drops is set, the dropped count is stored (Ex. 4b).
 */
Design
buildEx4Bounded(const char *name, bool count_drops)
{
    Design d(name);
    const std::size_t n = tableN;
    const MemId data = d.addMemory("data", n);
    const MemId sum_out = d.addMemory("sum_out", 1);
    const MemId dropped_out =
        count_drops ? d.addMemory("dropped", 1) : invalidId;
    d.setInput(data, iotaData(n));

    const FifoId f1 = d.declareFifo("fifo", 2, nb, nb);

    const ModuleId producer = d.addModule(
        "producer",
        [=](Context &ctx) {
            Value dropped = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (!ctx.writeNb(f1, ctx.load(data, i)))
                    ++dropped; // element silently lost (Ex. 4a)
            }
            if (count_drops)
                ctx.store(dropped_out, 0, dropped);
        },
        {.hasInfiniteLoop = false, .behaviorVariesOnNb = true});

    const ModuleId consumer = d.addModule(
        "consumer",
        [=](Context &ctx) {
            Value sum = 0;
            for (std::size_t k = 0; k < n; ++k) {
                Value v;
                if (ctx.readNb(f1, v))
                    sum += v;
                ctx.advance(2); // the consumer is 3x slower: drops happen
            }
            ctx.store(sum_out, 0, sum);
        },
        {.hasInfiniteLoop = false, .behaviorVariesOnNb = true});

    d.connectFifo(f1, producer, consumer);
    return d;
}

/**
 * Shared body of Ex. 4a_d/4b_d: the producer loops forever, dropping on
 * full, until the consumer's done signal arrives. Under C simulation the
 * done signal never arrives and the producer runs off its input array.
 */
Design
buildEx4Done(const char *name, bool count_drops)
{
    Design d(name);
    const std::size_t n = tableN;
    const MemId data = d.addMemory("data", n + overrunSlack);
    const MemId sum_out = d.addMemory("sum_out", 1);
    const MemId dropped_out =
        count_drops ? d.addMemory("dropped", 1) : invalidId;
    d.setInput(data, iotaData(n));

    const FifoId f1 = d.declareFifo("fifo", 2, nb, nb);
    const FifoId done = d.declareFifo("done", 2, blk, nb);

    const ModuleId producer = d.addModule(
        "producer",
        [=](Context &ctx) {
            std::uint64_t i = 0;
            Value dropped = 0;
            for (;;) {
                Value dummy;
                if (ctx.readNb(done, dummy))
                    break;
                if (!ctx.writeNb(f1, ctx.load(data, i)))
                    ++dropped;
                ++i;            // Ex. 4a semantics: i advances regardless
                ctx.advance(1); // producer pace: 3 cycles per element
            }
            if (count_drops)
                ctx.store(dropped_out, 0, dropped);
        },
        {.hasInfiniteLoop = true, .behaviorVariesOnNb = true});

    const ModuleId consumer = d.addModule(
        "consumer",
        [=](Context &ctx) {
            Value sum = 0;
            for (std::size_t k = 0; k < n; ++k) {
                Value v;
                if (ctx.readNb(f1, v))
                    sum += v;
                ctx.advance(1);
                if (k % 8 == 7)
                    ctx.advance(8); // bursty stalls force drops
            }
            ctx.write(done, 1);
            ctx.store(sum_out, 0, sum);
        },
        {.hasInfiniteLoop = false, .behaviorVariesOnNb = true});

    d.connectFifo(f1, producer, consumer);
    d.connectFifo(done, consumer, producer);
    return d;
}

} // namespace

Design
buildFig4Ex4a()
{
    return buildEx4Bounded("fig4_ex4a", false);
}

Design
buildFig4Ex4aD()
{
    return buildEx4Done("fig4_ex4a_d", false);
}

Design
buildFig4Ex4b()
{
    return buildEx4Bounded("fig4_ex4b", true);
}

Design
buildFig4Ex4bD()
{
    return buildEx4Done("fig4_ex4b_d", true);
}

Design
buildFig4Ex5()
{
    Design d("fig4_ex5");
    const std::size_t n = tableN;
    const MemId ins = d.addMemory("ins", n);
    const MemId p1_out = d.addMemory("processed_by_P1", 1);
    const MemId p2_out = d.addMemory("processed_by_P2", 1);
    const MemId sum1_out = d.addMemory("sum_out_P1", 1);
    const MemId sum2_out = d.addMemory("sum_out_P2", 1);
    d.setInput(ins, iotaData(n));

    // FIFO1 feeds the fast PE and is the controller's first choice;
    // FIFO2 is the overflow path. Writes mix NB dispatch with a blocking
    // end-of-stream sentinel.
    const FifoId f1 = d.declareFifo("FIFO1", 2, mixed, blk);
    const FifoId f2 = d.declareFifo("FIFO2", 2, mixed, blk);

    const ModuleId controller = d.addModule(
        "controller",
        [=](Context &ctx) {
            Value p1 = 0;
            Value p2 = 0;
            std::size_t i = 0;
            while (i < n) {
                const Value v = ctx.load(ins, i);
                if (ctx.writeNb(f1, v)) {
                    ++p1;
                    ++i;
                    // Paced issue slightly faster than P1's service rate:
                    // FIFO1 periodically backs up and overflows to P2,
                    // but never fast enough to back up FIFO2.
                    if (i % 4 != 0)
                        ctx.advance(1);
                } else if (ctx.writeNb(f2, v)) {
                    ++p2;
                    ++i;
                }
            }
            ctx.write(f1, -1); // end-of-stream sentinels
            ctx.write(f2, -1);
            ctx.store(p1_out, 0, p1);
            ctx.store(p2_out, 0, p2);
        },
        {.hasInfiniteLoop = false, .behaviorVariesOnNb = true});

    const ModuleId pe1 = d.addModule("processor1", [=](Context &ctx) {
        Value sum = 0;
        for (;;) {
            const Value v = ctx.read(f1);
            if (v < 0)
                break;
            ctx.advance(1); // process_it_fast
            sum += v;
        }
        ctx.store(sum1_out, 0, sum);
    });

    const ModuleId pe2 = d.addModule("processor2", [=](Context &ctx) {
        Value sum = 0;
        for (;;) {
            const Value v = ctx.read(f2);
            if (v < 0)
                break;
            ctx.advance(2); // process_it_slow
            sum += v;
        }
        ctx.store(sum2_out, 0, sum);
    });

    d.connectFifo(f1, controller, pe1);
    d.connectFifo(f2, controller, pe2);
    return d;
}

Design
buildFig2Timer()
{
    Design d("fig2_timer");
    const std::size_t n = tableN;
    const MemId data = d.addMemory("data", n);
    const MemId cycles_out = d.addMemory("cycles", 1);
    const MemId sum_out = d.addMemory("sum_out", 1);
    d.setInput(data, iotaData(n));

    const FifoId in_f = d.declareFifo("d_in", 2, blk, blk);
    const FifoId out_f = d.declareFifo("FIFO", 2, blk, nb);

    const ModuleId feeder = d.addModule("feeder", [=](Context &ctx) {
        for (std::size_t i = 0; i < n; ++i)
            ctx.write(in_f, ctx.load(data, i));
    });

    const ModuleId compute = d.addModule("compute", [=](Context &ctx) {
        for (std::size_t i = 0; i < n; ++i) {
            const Value v = ctx.read(in_f);
            ctx.advance(1);
            ctx.write(out_f, v / 2);
        }
    });

    const ModuleId timer = d.addModule(
        "timer",
        [=](Context &ctx) {
            Value cycles = 0;
            Value sum = 0;
            for (std::size_t k = 0; k < n; ++k) {
                while (ctx.empty(out_f)) {
                    ++cycles;
                    ctx.advance(1);
                }
                sum += ctx.read(out_f);
            }
            ctx.store(cycles_out, 0, cycles);
            ctx.store(sum_out, 0, sum);
        },
        {.hasInfiniteLoop = false, .behaviorVariesOnNb = true});

    d.connectFifo(in_f, feeder, compute);
    d.connectFifo(out_f, compute, timer);
    return d;
}

Design
buildDeadlock()
{
    Design d("deadlock");
    const MemId out = d.addMemory("sum", 1);

    const FifoId f1 = d.declareFifo("f1", 2, blk, blk);
    const FifoId f2 = d.declareFifo("f2", 2, blk, blk);

    // Each task first waits for the other: a textbook cyclic deadlock
    // that no FIFO depth can fix.
    const ModuleId a = d.addModule("taskA", [=](Context &ctx) {
        Value sum = 0;
        for (int i = 0; i < 8; ++i) {
            const Value v = ctx.read(f2);
            sum += v;
            ctx.write(f1, v + 1);
        }
        ctx.store(out, 0, sum);
    });

    const ModuleId b = d.addModule("taskB", [=](Context &ctx) {
        for (int i = 0; i < 8; ++i) {
            const Value v = ctx.read(f1);
            ctx.write(f2, v + 1);
        }
    });

    d.connectFifo(f1, a, b);
    d.connectFifo(f2, b, a);
    return d;
}

namespace
{

/** Program word at index i for the branch designs:
 *  0 = nop, 1 = branch to i + 29, 2 = halt (never placed; the fetch
 *  window simply ends). */
Value
branchProgWord(std::size_t i)
{
    return (i % 4 == 3) ? 1 : 0;
}

/**
 * Speculative fetcher: follows a monotonically increasing pc, applying
 * branch redirects from the executor, until pc runs past the window.
 * Returns the number of instructions fetched. Termination holds in every
 * engine because pc only moves forward.
 */
void
fetcherBody(Context &ctx, FifoId instr_f, FifoId redir_f,
            std::size_t base, std::size_t limit, MemId fetched_out,
            bool via_sentinel)
{
    std::size_t pc = base;
    Value fetched = 0;
    while (pc < limit) {
        Value t;
        if (ctx.readNb(redir_f, t))
            pc = static_cast<std::size_t>(t);
        if (pc >= limit)
            break;
        if (ctx.writeNb(instr_f, static_cast<Value>(pc))) {
            ++fetched;
            ++pc;
        }
    }
    // End of fetch window: a negative sentinel carries the fetch count
    // to the executor (multicore) or the count is stored directly.
    ctx.write(instr_f, -(fetched + 1));
    if (!via_sentinel)
        ctx.store(fetched_out, 0, fetched);
}

/**
 * Executor: consumes fetched pcs, executes those matching its
 * architectural pc (1 + 8 cycles), discards wrong-path ones (1 cycle),
 * and issues branch redirects. Drains until the fetcher's sentinel, so
 * it can never starve the fetcher.
 */
Value
executorBody(Context &ctx, MemId prog, FifoId instr_f, FifoId redir_f,
             std::size_t base, std::size_t limit)
{
    std::size_t arch_pc = base;
    Value executed = 0;
    Value fetched_from_sentinel = 0;
    for (;;) {
        const Value raw = ctx.read(instr_f);
        if (raw < 0) {
            fetched_from_sentinel = -raw - 1;
            break;
        }
        const auto pc = static_cast<std::size_t>(raw);
        if (pc != arch_pc) {
            ctx.advance(1); // wrong-path discard
            continue;
        }
        ++executed;
        ctx.advance(8); // execution latency
        const Value op = ctx.load(prog, pc);
        if (op == 1) {
            const std::size_t target = pc + 29;
            arch_pc = target < limit ? target : limit;
            // Redirect may be dropped when the FIFO is full; the wrong
            // path is then simply discarded for longer.
            ctx.writeNb(redir_f, static_cast<Value>(arch_pc));
        } else {
            ++arch_pc;
        }
    }
    return fetched_from_sentinel * (1 << 20) | executed;
}

} // namespace

Design
buildBranch()
{
    Design d("branch");
    const std::size_t n = tableN;
    const MemId prog = d.addMemory("prog", n);
    const MemId fetched_out = d.addMemory("fetched", 1);
    const MemId executed_out = d.addMemory("executed", 1);
    {
        std::vector<Value> words(n);
        for (std::size_t i = 0; i < n; ++i)
            words[i] = branchProgWord(i);
        d.setInput(prog, words);
    }

    const FifoId instr_f = d.declareFifo("instr", 4, mixed, blk);
    const FifoId redir_f = d.declareFifo("redirect", 2, nb, nb);

    const ModuleId fetcher = d.addModule(
        "fetcher",
        [=](Context &ctx) {
            fetcherBody(ctx, instr_f, redir_f, 0, n, fetched_out,
                        false);
        },
        {.hasInfiniteLoop = true, .behaviorVariesOnNb = true});

    const ModuleId executor = d.addModule(
        "executor",
        [=](Context &ctx) {
            const Value packed =
                executorBody(ctx, prog, instr_f, redir_f, 0, n);
            ctx.store(executed_out, 0, packed & ((1 << 20) - 1));
        },
        {.hasInfiniteLoop = true, .behaviorVariesOnNb = true});

    d.connectFifo(instr_f, fetcher, executor);
    d.connectFifo(redir_f, executor, fetcher);
    return d;
}

Design
buildMulticore()
{
    Design d("multicore");
    constexpr std::size_t cores = 16;
    constexpr std::size_t seg = 126; // 16 x 126 = 2016 instructions
    const std::size_t n = cores * seg;

    const MemId prog = d.addMemory("prog", n);
    const MemId fetched_out = d.addMemory("total_fetched", 1);
    const MemId executed_out = d.addMemory("total_executed", 1);
    {
        std::vector<Value> words(n);
        for (std::size_t i = 0; i < n; ++i)
            words[i] = branchProgWord(i);
        d.setInput(prog, words);
    }

    std::vector<FifoId> job_f(cores);
    std::vector<FifoId> instr_f(cores);
    std::vector<FifoId> redir_f(cores);
    std::vector<FifoId> result_f(cores);
    for (std::size_t c = 0; c < cores; ++c) {
        job_f[c] = d.declareFifo(strf("job%zu", c), 2, blk, blk);
        instr_f[c] = d.declareFifo(strf("instr%zu", c), 4, mixed, blk);
        redir_f[c] = d.declareFifo(strf("redir%zu", c), 2, nb, nb);
        result_f[c] = d.declareFifo(strf("result%zu", c), 2, blk, blk);
    }

    const ModuleId dispatcher = d.addModule(
        "dispatcher", [=](Context &ctx) {
            for (std::size_t c = 0; c < cores; ++c)
                ctx.write(job_f[c], static_cast<Value>(c));
        });

    std::vector<ModuleId> fetchers(cores);
    std::vector<ModuleId> executors(cores);
    for (std::size_t c = 0; c < cores; ++c) {
        const FifoId jf = job_f[c];
        const FifoId inf = instr_f[c];
        const FifoId rf = redir_f[c];
        const FifoId resf = result_f[c];
        fetchers[c] = d.addModule(
            strf("fetcher%zu", c),
            [=](Context &ctx) {
                const auto core = static_cast<std::size_t>(ctx.read(jf));
                const std::size_t base = core * seg;
                fetcherBody(ctx, inf, rf, base, base + seg,
                            invalidId, true);
            },
            {.hasInfiniteLoop = true, .behaviorVariesOnNb = true});
        executors[c] = d.addModule(
            strf("executor%zu", c),
            [=](Context &ctx) {
                const std::size_t base = c * seg;
                const Value packed =
                    executorBody(ctx, prog, inf, rf, base, base + seg);
                ctx.write(resf, packed);
            },
            {.hasInfiniteLoop = true, .behaviorVariesOnNb = true});
    }

    const ModuleId collector = d.addModule(
        "collector", [=](Context &ctx) {
            Value fetched = 0;
            Value executed = 0;
            for (std::size_t c = 0; c < cores; ++c) {
                const Value packed = ctx.read(result_f[c]);
                fetched += packed >> 20;
                executed += packed & ((1 << 20) - 1);
            }
            ctx.store(fetched_out, 0, fetched);
            ctx.store(executed_out, 0, executed);
        });

    for (std::size_t c = 0; c < cores; ++c) {
        d.connectFifo(job_f[c], dispatcher, fetchers[c]);
        d.connectFifo(instr_f[c], fetchers[c], executors[c]);
        d.connectFifo(redir_f[c], executors[c], fetchers[c]);
        d.connectFifo(result_f[c], executors[c], collector);
    }
    return d;
}

const std::vector<DesignEntry> &
typeBCDesigns()
{
    static const std::vector<DesignEntry> entries = {
        {"fig4_ex2", "NB FIFO access (done signal)", buildFig4Ex2},
        {"fig4_ex3", "Cyclic dependency", buildFig4Ex3},
        {"fig4_ex4a", "Skip if FIFO full", buildFig4Ex4a},
        {"fig4_ex4a_d", "Skip if full (done signal)", buildFig4Ex4aD},
        {"fig4_ex4b", "Count dropped elements", buildFig4Ex4b},
        {"fig4_ex4b_d", "Count dropped (done signal)", buildFig4Ex4bD},
        {"fig4_ex5", "Congestion-aware select", buildFig4Ex5},
        {"fig2_timer", "Fixed-point cycle count", buildFig2Timer},
        {"deadlock", "Mutual blocking read", buildDeadlock},
        {"branch", "Branch instructions", buildBranch},
        {"multicore", "Multiple cores with branches", buildMulticore},
    };
    return entries;
}

} // namespace omnisim::designs
