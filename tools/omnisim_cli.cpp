/**
 * @file
 * Command-line driver: run any registered benchmark design under any
 * engine, inspect its taxonomy, sweep FIFO depths, or explore the joint
 * FIFO depth space with the DSE engine.
 *
 * Usage:
 *   omnisim_cli list
 *   omnisim_cli info    <design>
 *   omnisim_cli dot     <design> [--optimized]
 *   omnisim_cli run     <design> [--engine csim|cosim|lightning|omnisim]
 *                                [--depth FIFO=N]... [--lazy] [--rtl-cost]
 *   omnisim_cli sweep   <design> (--fifo NAME [--from A] [--to B])...
 *                                [--jobs N]
 *   omnisim_cli dse     <design> [--strategy grid|binary|greedy|anneal]
 *                                [--budget N] [--jobs N] [--seed N]
 *                                (--fifo NAME [--from A] [--to B])...
 *                                [--linear] [--csv]
 *   omnisim_cli batch   [--jobs N] [--engines csim,cosim,lightning,omnisim]
 *                       [--seeds K] [--designs a,b,...]
 *   omnisim_cli serve   [--jobs N] [--store DIR] [--socket PATH]
 *   omnisim_cli fuzz    [--seed S] [--count N] [--jobs N] [--probes K]
 *                       [--budget SEC] [--no-shrink] [--replay SPEC]
 *
 * dot renders the module/FIFO graph; with --optimized it simulates the
 * design once and renders the -O1 compiled run graph instead (diffable
 * against the -O0 trace; see src/opt/).
 * serve/dse/batch/fuzz print focused usage on --help or malformed flags.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "batch/batch.hh"
#include "core/omnisim.hh"
#include "cosim/cosim.hh"
#include "csim/csim.hh"
#include "design/classify.hh"
#include "design/dot.hh"
#include "design/frontend.hh"
#include "designs/common.hh"
#include "dse/dse.hh"
#include "dse/strategies.hh"
#include "gen/conformance.hh"
#include "gen/generate.hh"
#include "gen/shrink.hh"
#include "io/run_store.hh"
#include "lightningsim/lightningsim.hh"
#include "obs/context.hh"
#include "obs/flight.hh"
#include "obs/log.hh"
#include "obs/trace.hh"
#include "opt/verify.hh"
#include "serve/service.hh"
#include "support/stopwatch.hh"
#include "support/table.hh"

using namespace omnisim;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  omnisim_cli list\n"
                 "  omnisim_cli info <design>\n"
                 "  omnisim_cli run <design> [--engine csim|cosim|"
                 "lightning|omnisim] [--depth FIFO=N]... [--lazy] "
                 "[--rtl-cost]\n"
                 "  omnisim_cli sweep <design> (--fifo NAME [--from A] "
                 "[--to B])... [--jobs N]\n"
                 "  omnisim_cli dse <design> ...       (dse --help for "
                 "details)\n"
                 "  omnisim_cli batch ...              (batch --help for "
                 "details)\n"
                 "  omnisim_cli serve ...              (serve --help for "
                 "details)\n"
                 "  omnisim_cli fuzz ...               (fuzz --help for "
                 "details)\n"
                 "  omnisim_cli dot <design> [--optimized]\n"
                 "\n"
                 "  `simulate` is an alias for `run`. Any command also "
                 "accepts\n"
                 "  --trace-out FILE.json to record Perfetto-loadable "
                 "trace spans\n"
                 "  (Chrome trace_event format) for the whole "
                 "invocation, and\n"
                 "  --jobs N to size the worker threads (0 = all cores; "
                 "answers are\n"
                 "  bit-identical at any value). Structured diagnostics: "
                 "--log-out FILE.jsonl\n"
                 "  (one JSON event per line), --log-level "
                 "trace|debug|info|warn|error\n"
                 "  (default warn), --crash-dir DIR for flight-recorder "
                 "crash dumps.\n"
                 "  --verify runs the IR verifier between every compile "
                 "pass and on\n"
                 "  run-file rehydration (always on in Debug builds).\n");
    return 2;
}

/** Focused per-subcommand usage text (the --help / bad-args target). */
const char *
subcommandUsage(const std::string &cmd)
{
    if (cmd == "dse") {
        return "usage: omnisim_cli dse <design> [options]\n"
               "\n"
               "Explore the joint FIFO depth space of a registered "
               "design.\n"
               "\n"
               "options:\n"
               "  --strategy grid|binary|greedy|anneal  search strategy "
               "(default grid)\n"
               "  --budget N     max unique configurations to evaluate "
               "(default 512)\n"
               "  --jobs N       worker threads (default: all cores)\n"
               "  --seed N       PRNG seed for randomized strategies\n"
               "  --fifo NAME [--from A] [--to B]\n"
               "                 one explored axis; repeatable (default: "
               "every FIFO, 1..16)\n"
               "  --linear       dense linear candidate ranges instead "
               "of geometric\n"
               "  --csv          machine-readable output\n"
               "  --store DIR    persistent run store: warm-start from "
               "prior runs\n"
               "                 and publish new full runs\n";
    }
    if (cmd == "batch") {
        return "usage: omnisim_cli batch [options]\n"
               "\n"
               "Fan registry designs x engines x seeds across a worker "
               "pool.\n"
               "\n"
               "options:\n"
               "  --jobs N            worker threads (default: all "
               "cores)\n"
               "  --engines a,b,...   engines to run: csim, cosim, "
               "lightning, omnisim\n"
               "                      (default omnisim)\n"
               "  --seeds K           workload seeds 0..K-1 per design "
               "(default 1)\n"
               "  --designs a,b,...   restrict to named designs "
               "(default: whole registry)\n";
    }
    if (cmd == "fuzz") {
        return "usage: omnisim_cli fuzz [options]\n"
               "\n"
               "Randomized differential conformance: generate seeded "
               "dataflow designs\n"
               "and run each through every oracle pair (omnisim vs "
               "cosim vs csim vs\n"
               "lightningsim, resimulate vs reference across random "
               "depth deltas,\n"
               "run_io serialize->rehydrate round trips, serve-protocol "
               "echo). Any\n"
               "divergence is shrunk to a minimal reproducer spec.\n"
               "\n"
               "options:\n"
               "  --seed S       first seed (default 1)\n"
               "  --count N      seeds to sweep (default 1000)\n"
               "  --jobs N       worker threads (default: all cores)\n"
               "  --probes K     depth probes per design through the "
               "resimulate/io\n"
               "                 oracles (default 4)\n"
               "  --large        large-regime generator (hundreds to "
               "thousands of\n"
               "                 processes)\n"
               "  --budget SEC   stop starting new seeds after SEC "
               "seconds\n"
               "  --no-shrink    report divergent seeds without "
               "minimizing them\n"
               "  --max-shrink N shrink candidate budget per divergence "
               "(default 800)\n"
               "  --replay SPEC  re-run the oracle matrix on one "
               "serialized spec\n"
               "                 (the string a previous fuzz run "
               "printed)\n"
               "  --verify       run the IR verifier between every "
               "compile pass\n"
               "                 and on every rehydration as an extra "
               "oracle\n";
    }
    if (cmd == "serve") {
        return "usage: omnisim_cli serve [options]\n"
               "\n"
               "Long-lived simulation service speaking JSON-lines "
               "requests on stdin/stdout\n"
               "or a Unix socket. Ops: simulate, resimulate, dse, "
               "batch, list, stats,\n"
               "shutdown. See README 'Simulation service' for the "
               "protocol.\n"
               "\n"
               "options:\n"
               "  --jobs N       request worker threads (default: all "
               "cores)\n"
               "  --store DIR    persistent run store directory; "
               "rehydrates prior runs\n"
               "                 for warm-cache serving and publishes "
               "new ones\n"
               "  --socket PATH  serve a Unix-domain socket instead of "
               "stdin/stdout\n"
               "  --lazy         lazy write stalls for omnisim runs "
               "(ablation)\n"
               "  --log-out FILE / --log-level L  (global) structured "
               "JSON event\n"
               "                 log; error responses echo each "
               "request's warn+ tail\n";
    }
    return nullptr;
}

/**
 * Per-subcommand bad-args exit: print the focused usage for serve, dse
 * and batch (the subcommands with non-trivial flag sets) instead of the
 * generic top-level blob.
 */
int
subUsageError(const std::string &cmd)
{
    const char *text = subcommandUsage(cmd);
    if (!text)
        return usage();
    std::fputs(text, stderr);
    return 2;
}

/** @return true when any argument asks for help. */
bool
wantsHelp(const std::vector<std::string> &args)
{
    return std::find(args.begin(), args.end(), "--help") != args.end() ||
           std::find(args.begin(), args.end(), "-h") != args.end();
}

/** Malformed command line (exit 2), as opposed to a FatalError from a
 *  bad design/FIFO name (exit 1). */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Parse an unsigned integer CLI argument value, uniformly. Every
 * numeric flag goes through here so range violations and junk input
 * produce one error shape instead of a raw std::stoul throw.
 *
 * @throws UsageError when text is not an integer in [min, max].
 */
std::uint64_t
parseUnsigned(const char *flag, const std::string &text, std::uint64_t min,
              std::uint64_t max)
{
    std::uint64_t v = 0;
    bool bad = text.empty() || text[0] == '-';
    if (!bad) {
        try {
            std::size_t pos = 0;
            v = std::stoull(text, &pos);
            bad = pos != text.size();
        } catch (const std::exception &) {
            bad = true;
        }
    }
    if (bad || v < min || v > max)
        throw UsageError(
            strf("%s expects an integer in [%llu, %llu], got '%s'", flag,
                 static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), text.c_str()));
    return v;
}

/**
 * parseUnsigned for values narrowed into 32-bit fields (FIFO depths,
 * worker counts, sweep bounds). The cap is clamped to UINT32_MAX before
 * the range check so that a value above the destination width is a
 * usage error (exit 2) instead of a silent truncation — a raw
 * static_cast of the 64-bit parse would quietly wrap depths like 2^32+4
 * to 4.
 */
std::uint32_t
parseU32(const char *flag, const std::string &text, std::uint64_t min,
         std::uint64_t max)
{
    const std::uint64_t cap = std::min<std::uint64_t>(
        max, std::numeric_limits<std::uint32_t>::max());
    return static_cast<std::uint32_t>(parseUnsigned(flag, text, min, cap));
}

int
cmdList()
{
    TablePrinter t({"Design", "Type", "Description"});
    for (const auto &suite :
         {&designs::typeBCDesigns(), &designs::typeADesigns()}) {
        for (const auto &e : *suite) {
            Design d = e.build();
            t.addRow({e.name, designTypeName(classify(d).type),
                      e.description});
        }
        t.addSeparator();
    }
    t.print(std::cout);
    return 0;
}

int
cmdInfo(const std::string &name)
{
    Design d = designs::findDesign(name).build();
    const Classification c = classify(d);
    std::printf("design   : %s\n", d.name().c_str());
    std::printf("type     : %s (FuncSim %s, PerfSim %s)\n",
                designTypeName(c.type), simLevelName(c.funcSimLevel),
                simLevelName(c.perfSimLevel));
    std::printf("cyclic   : %s\n", c.cyclic ? "yes" : "no");
    std::printf("modules  : %zu\n", d.modules().size());
    for (const auto &m : d.modules())
        std::printf("  - %s%s\n", m.name.c_str(),
                    m.opts.hasInfiniteLoop ? "  [infinite loop]" : "");
    std::printf("fifos    : %zu\n", d.fifos().size());
    for (const auto &f : d.fifos()) {
        std::printf("  - %-12s depth %-4u %s -> %s  (W:%s R:%s)\n",
                    f.name.c_str(), f.depth,
                    d.modules()[f.writer].name.c_str(),
                    d.modules()[f.reader].name.c_str(),
                    accessKindName(f.writeKind),
                    accessKindName(f.readKind));
    }
    std::printf("memories : %zu\n", d.memories().size());
    return 0;
}

void
printResult(const SimResult &r, double seconds)
{
    std::printf("status   : %s\n", simStatusName(r.status));
    if (!r.message.empty())
        std::printf("message  : %s\n", r.message.c_str());
    if (r.status == SimStatus::Ok && r.totalCycles)
        std::printf("cycles   : %llu\n",
                    static_cast<unsigned long long>(r.totalCycles));
    for (const auto &[name, vals] : r.memories) {
        if (vals.size() == 1)
            std::printf("%-9s: %lld\n", name.c_str(),
                        static_cast<long long>(vals[0]));
    }
    for (const auto &w : r.warnings)
        std::printf("warning  : %s\n", w.c_str());
    std::printf("events=%llu queries=%llu forcedFalse=%llu "
                "pauses=%llu nodes=%llu edges=%llu\n",
                static_cast<unsigned long long>(r.stats.events),
                static_cast<unsigned long long>(r.stats.queries),
                static_cast<unsigned long long>(r.stats.forcedFalse),
                static_cast<unsigned long long>(r.stats.threadPauses),
                static_cast<unsigned long long>(r.stats.graphNodes),
                static_cast<unsigned long long>(r.stats.graphEdges));
    std::printf("time     : %.3f ms\n", seconds * 1e3);
}

int
cmdRun(const std::string &name, const std::vector<std::string> &args)
{
    std::string engine = "omnisim";
    bool lazy = false;
    bool rtl_cost = false;
    std::vector<std::pair<std::string, std::uint32_t>> depths;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--engine" && i + 1 < args.size()) {
            engine = args[++i];
        } else if (args[i] == "--lazy") {
            lazy = true;
        } else if (args[i] == "--rtl-cost") {
            rtl_cost = true;
        } else if (args[i] == "--depth" && i + 1 < args.size()) {
            const std::string spec = args[++i];
            const auto eq = spec.find('=');
            if (eq == std::string::npos)
                return usage();
            depths.emplace_back(
                spec.substr(0, eq),
                parseU32("--depth", spec.substr(eq + 1), 1, 1u << 20));
        } else {
            return usage();
        }
    }

    Design d = designs::findDesign(name).build();
    for (const auto &[fifo, depth] : depths)
        d.setFifoDepth(d.fifoByName(fifo), depth);
    const CompiledDesign cd = compile(d);

    Stopwatch sw;
    SimResult r;
    if (engine == "csim") {
        r = simulateCSim(cd);
    } else if (engine == "cosim") {
        CosimOptions opts;
        opts.modelRtlCost = rtl_cost;
        r = simulateCosim(cd, opts);
    } else if (engine == "lightning") {
        r = simulateLightningSim(cd);
    } else if (engine == "omnisim") {
        OmniSimOptions opts;
        opts.eagerWriteStall = !lazy;
        r = simulateOmniSim(cd, opts);
    } else {
        return usage();
    }
    std::printf("engine   : %s\n", engine.c_str());
    printResult(r, sw.seconds());
    return r.status == SimStatus::Ok ? 0 : 1;
}

/**
 * Parse a "--fifo NAME [--from A] [--to B]" flag group into a FifoRange
 * appended to out. i points at "--fifo"; advanced past the group.
 * @return false on malformed input (flag without a value, or --from /
 *         --to before any --fifo is meaningless and caught by caller).
 */
bool
parseFifoGroup(const std::vector<std::string> &args, std::size_t &i,
               std::vector<dse::FifoRange> &out)
{
    if (i + 1 >= args.size())
        return false;
    dse::FifoRange r;
    r.fifo = args[++i];
    while (i + 1 < args.size()) {
        if (args[i + 1] == "--from" && i + 2 < args.size()) {
            r.lo = parseU32("--from", args[i + 2], 1, 1u << 20);
            i += 2;
        } else if (args[i + 1] == "--to" && i + 2 < args.size()) {
            r.hi = parseU32("--to", args[i + 2], 1, 1u << 20);
            i += 2;
        } else {
            break;
        }
    }
    if (r.hi < r.lo)
        throw UsageError(strf("--fifo %s: --from %u exceeds --to %u",
                              r.fifo.c_str(), r.lo, r.hi));
    out.push_back(std::move(r));
    return true;
}

/** "fast=4 slow=2 ..." for the explored axes of one evaluation. */
std::string
axisDepths(const dse::DseReport &rep, const dse::Evaluation &e)
{
    std::string s;
    for (std::size_t a = 0; a < rep.axes.size(); ++a) {
        if (!s.empty())
            s += ' ';
        s += strf("%s=%u", rep.fifoNames[rep.axes[a]].c_str(),
                  e.depths[rep.axes[a]]);
    }
    return s;
}

int
cmdSweep(const std::string &name, const std::vector<std::string> &args,
         unsigned jobs)
{
    // Each "--fifo NAME [--from A] [--to B]" group adds one swept axis;
    // the cross product of all groups runs through the DSE grid
    // strategy, whose EvalCache serves every configuration by §7.2
    // incremental re-simulation first and fans the divergent full
    // re-runs across the batch worker pool.
    std::vector<dse::FifoRange> groups;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--fifo") {
            if (!parseFifoGroup(args, i, groups))
                return usage();
        } else {
            return usage();
        }
    }
    if (groups.empty())
        return usage();

    dse::DseOptions opts;
    opts.strategy = "grid";
    opts.jobs = jobs;
    opts.budget = 1;
    for (auto &g : groups) {
        g.geometric = false; // sweeps are exhaustive: every depth
        opts.budget *= g.hi - g.lo + 1;
    }
    opts.space.fifos = groups;

    const dse::DseReport rep = dse::exploreRegistered(name, opts);

    std::vector<std::string> headers;
    for (const std::size_t a : rep.axes)
        headers.push_back(rep.fifoNames[a]);
    headers.push_back("Cycles");
    headers.push_back("Method");

    // Rows in odometer order of the swept depths (first --fifo slowest).
    std::vector<dse::Evaluation> rows = rep.evaluations;
    std::sort(rows.begin(), rows.end(),
              [&](const dse::Evaluation &x, const dse::Evaluation &y) {
                  for (const std::size_t a : rep.axes) {
                      if (x.depths[a] != y.depths[a])
                          return x.depths[a] < y.depths[a];
                  }
                  return false;
              });

    bool anyCrash = false;
    TablePrinter t(headers);
    for (const auto &e : rows) {
        std::vector<std::string> cells;
        for (const std::size_t a : rep.axes)
            cells.push_back(strf("%u", e.depths[a]));
        if (e.ok()) {
            cells.push_back(
                strf("%llu", static_cast<unsigned long long>(e.latency)));
        } else if (e.status == SimStatus::Crash && !e.message.empty()) {
            anyCrash = true;
            cells.push_back(e.message);
        } else {
            anyCrash |= e.status == SimStatus::Crash;
            cells.push_back(simStatusName(e.status));
        }
        cells.push_back(e.method == dse::EvalMethod::Incremental
                            ? "incremental"
                            : "full re-run");
        t.addRow(std::move(cells));
    }
    t.print(std::cout);
    std::printf("%zu configurations: %zu incremental, %zu full re-runs "
                "across %u jobs in %.3f s (%.1f configs/s)\n",
                rep.evaluations.size(), rep.incrementalHits, rep.fullRuns,
                rep.jobs, rep.wallSeconds, rep.configsPerSecond());
    // Non-Ok engine statuses at some depths (deadlocks) are normal
    // sweep outcomes, but a sweep where nothing completes — or where a
    // configuration crashed the build/compile/engine — is a failure.
    return anyCrash || !rep.anyOk ? 1 : 0;
}

int
cmdDse(const std::string &name, const std::vector<std::string> &args,
       unsigned jobs)
{
    dse::DseOptions opts;
    opts.jobs = jobs;
    bool linear = false;
    bool csv = false;
    std::string storeDir;
    std::vector<dse::FifoRange> groups;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--strategy" && i + 1 < args.size()) {
            opts.strategy = args[++i];
        } else if (args[i] == "--budget" && i + 1 < args.size()) {
            opts.budget = static_cast<std::size_t>(
                parseUnsigned("--budget", args[++i], 1, 1u << 24));
        } else if (args[i] == "--seed" && i + 1 < args.size()) {
            opts.seed = parseUnsigned("--seed", args[++i], 0,
                                      std::numeric_limits<
                                          std::uint64_t>::max());
        } else if (args[i] == "--store" && i + 1 < args.size()) {
            storeDir = args[++i];
        } else if (args[i] == "--fifo") {
            if (!parseFifoGroup(args, i, groups))
                return subUsageError("dse");
        } else if (args[i] == "--linear") {
            linear = true;
        } else if (args[i] == "--csv") {
            csv = true;
        } else {
            return subUsageError("dse");
        }
    }
    for (auto &g : groups)
        g.geometric = !linear;
    opts.space.fifos = groups; // empty == every FIFO, geometric 1..16

    std::unique_ptr<io::RunStore> store;
    if (!storeDir.empty()) {
        store = std::make_unique<io::RunStore>(storeDir);
        opts.store = store.get();
    }

    const dse::DseReport rep = dse::exploreRegistered(name, opts);

    if (csv) {
        std::string header;
        for (const std::size_t a : rep.axes)
            header += rep.fifoNames[a] + ",";
        std::printf("%scost,cycles,status,method,pareto\n",
                    header.c_str());
        for (const auto &e : rep.evaluations) {
            const bool onFront =
                std::find_if(rep.frontier.begin(), rep.frontier.end(),
                             [&](const dse::Evaluation &f) {
                                 return f.depths == e.depths;
                             }) != rep.frontier.end();
            std::string row;
            for (const std::size_t a : rep.axes)
                row += strf("%u,", e.depths[a]);
            std::printf("%s%llu,%llu,%s,%s,%d\n", row.c_str(),
                        static_cast<unsigned long long>(e.cost),
                        static_cast<unsigned long long>(e.latency),
                        simStatusName(e.status),
                        evalMethodName(e.method), onFront ? 1 : 0);
        }
        return rep.anyOk ? 0 : 1;
    }

    std::printf("design    : %s\n", rep.design.c_str());
    std::printf("strategy  : %s (seed %llu)\n", rep.strategy.c_str(),
                static_cast<unsigned long long>(opts.seed));
    std::printf("evaluated : %zu configs — %zu full runs, %zu "
                "incremental (%.1f%% incremental, %zu by delta "
                "relaxation), %zu memo re-hits\n",
                rep.evaluations.size(), rep.fullRuns,
                rep.incrementalHits, rep.hitRate() * 100.0,
                rep.deltaHits, rep.cacheHits);
    if (rep.storedWarmStarts > 0)
        std::printf("warm-start: %zu stored runs rehydrated from the "
                    "run store\n", rep.storedWarmStarts);
    std::printf("wall      : %.3f s (%.1f configs/s, %u jobs)\n\n",
                rep.wallSeconds, rep.configsPerSecond(), rep.jobs);

    if (!rep.anyOk) {
        std::printf("no configuration simulated to completion\n");
        return 1;
    }

    TablePrinter t({"Cost", "Cycles", "Depths", "Method"});
    for (const auto &e : rep.frontier)
        t.addRow({strf("%llu", static_cast<unsigned long long>(e.cost)),
                  strf("%llu", static_cast<unsigned long long>(e.latency)),
                  axisDepths(rep, e), evalMethodName(e.method)});
    t.print(std::cout);
    std::printf("\nmin-latency : cost=%llu cycles=%llu  %s\n",
                static_cast<unsigned long long>(rep.minLatency.cost),
                static_cast<unsigned long long>(rep.minLatency.latency),
                axisDepths(rep, rep.minLatency).c_str());
    std::printf("knee        : cost=%llu cycles=%llu  %s\n",
                static_cast<unsigned long long>(rep.knee.cost),
                static_cast<unsigned long long>(rep.knee.latency),
                axisDepths(rep, rep.knee).c_str());
    return 0;
}

/** Split "a,b,c" into its comma-separated parts. */
std::vector<std::string>
splitList(const std::string &spec)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? spec.size() : comma;
        if (end > pos)
            out.push_back(spec.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

int
cmdBatch(const std::vector<std::string> &args, unsigned jobs)
{
    unsigned seeds = 1;
    std::vector<batch::EngineKind> engines;
    std::vector<std::string> only;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--seeds" && i + 1 < args.size()) {
            seeds = parseU32("--seeds", args[++i], 1, 1u << 20);
        } else if (args[i] == "--engines" && i + 1 < args.size()) {
            for (const std::string &n : splitList(args[++i])) {
                batch::EngineKind e;
                if (!batch::parseEngineKind(n, e)) {
                    std::fprintf(stderr, "unknown engine '%s'\n",
                                 n.c_str());
                    return subUsageError("batch");
                }
                engines.push_back(e);
            }
        } else if (args[i] == "--designs" && i + 1 < args.size()) {
            only = splitList(args[++i]);
        } else {
            return subUsageError("batch");
        }
    }
    if (engines.empty())
        engines.push_back(batch::EngineKind::OmniSim);
    if (seeds < 1)
        seeds = 1;

    const std::vector<batch::Scenario> scenarios =
        batch::registryScenarios(engines, seeds, only);

    const batch::BatchReport rep =
        batch::BatchRunner({jobs}).run(scenarios);

    TablePrinter t({"Design", "Engine", "Seed", "Status", "Cycles",
                    "Time"});
    for (const auto &o : rep.outcomes) {
        t.addRow({o.scenario.design,
                  batch::engineKindName(o.scenario.engine),
                  strf("%llu", static_cast<unsigned long long>(
                                   o.scenario.seed)),
                  o.failed ? "error" : simStatusName(o.result.status),
                  o.ok() ? strf("%llu", static_cast<unsigned long long>(
                                    o.result.totalCycles))
                         : "-",
                  strf("%.2f ms", o.seconds * 1e3)});
    }
    t.print(std::cout);
    std::printf("scenarios=%zu ok=%zu failed=%zu jobs=%u wall=%.3f s "
                "throughput=%.1f sims/s\n",
                rep.outcomes.size(), rep.okCount(), rep.failedCount(),
                rep.jobs, rep.wallSeconds, rep.throughput());
    // Non-Ok engine statuses (deadlock, crash) are legitimate
    // exploration outcomes; only configuration failures are errors.
    return rep.failedCount() == 0 ? 0 : 1;
}

/** Print one conformance report (the --replay path and divergences). */
void
printConformance(const gen::GenSpec &spec,
                 const gen::ConformanceReport &rep)
{
    std::printf("spec     : %s\n", gen::specToString(spec).c_str());
    std::printf("type     : %c\n", rep.designType);
    std::printf("baseline : %s\n", simStatusName(rep.baseline));
    std::printf("probes   : %u\n", rep.probesRun);
    if (rep.clean()) {
        std::printf("result   : conformant (no divergence)\n");
    } else {
        for (const auto &dv : rep.divergences)
            std::printf("DIVERGE  : [%s] %s\n", dv.oracle.c_str(),
                        dv.detail.c_str());
    }
}

int
cmdFuzz(const std::vector<std::string> &args, unsigned jobs)
{
    std::uint64_t seed0 = 1;
    std::uint64_t count = 1000;
    std::uint32_t probes = 4;
    double budget = 0.0;
    bool doShrink = true;
    bool large = false;
    std::size_t maxShrink = 800;
    std::string replay;

    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--seed" && i + 1 < args.size()) {
            seed0 = parseUnsigned("--seed", args[++i], 0,
                                  std::numeric_limits<
                                      std::uint64_t>::max() - (1u << 24));
        } else if (args[i] == "--count" && i + 1 < args.size()) {
            count = parseUnsigned("--count", args[++i], 1, 1u << 24);
        } else if (args[i] == "--large") {
            large = true;
        } else if (args[i] == "--probes" && i + 1 < args.size()) {
            probes = parseU32("--probes", args[++i], 0, 64);
        } else if (args[i] == "--budget" && i + 1 < args.size()) {
            budget = static_cast<double>(
                parseUnsigned("--budget", args[++i], 1, 86400));
        } else if (args[i] == "--no-shrink") {
            doShrink = false;
        } else if (args[i] == "--max-shrink" && i + 1 < args.size()) {
            maxShrink = static_cast<std::size_t>(
                parseUnsigned("--max-shrink", args[++i], 1, 1u << 20));
        } else if (args[i] == "--replay" && i + 1 < args.size()) {
            replay = args[++i];
        } else {
            return subUsageError("fuzz");
        }
    }

    gen::ConformanceOptions copts;
    copts.resimProbes = probes;
    copts.withVerify = opt::verifyEnabled();

    if (!replay.empty()) {
        const gen::GenSpec spec = gen::parseSpec(replay);
        const gen::ConformanceReport rep =
            gen::checkConformance(spec, copts);
        printConformance(spec, rep);
        return rep.clean() ? 0 : 1;
    }

    struct Slot
    {
        bool ran = false;
        char type = '?';
        SimStatus baseline = SimStatus::Ok;
        std::string summary; ///< Empty when conformant.
    };
    std::vector<Slot> slots(static_cast<std::size_t>(count));

    const gen::GenConfig cfg =
        large ? gen::largeGenConfig() : gen::GenConfig{};
    Stopwatch sw;
    batch::BatchRunner runner({jobs});
    runner.forEachIndex(slots.size(), [&](std::size_t i) {
        if (budget > 0.0 && sw.seconds() > budget)
            return; // budget exhausted: leave the seed unrun
        // Each fuzz seed is an entry point with its own correlation id,
        // so a divergence stitches to exactly one seed's events.
        obs::CorrelationScope seedScope(obs::newCorrelationId());
        Slot &s = slots[i];
        try {
            const gen::GenSpec spec = gen::generateSpec(seed0 + i, cfg);
            const gen::ConformanceReport rep =
                gen::checkConformance(spec, copts);
            s.type = rep.designType;
            s.baseline = rep.baseline;
            s.summary = rep.summary();
        } catch (const std::exception &e) {
            s.type = '?';
            s.summary = std::string("harness: ") + e.what();
        }
        if (!s.summary.empty())
            OMNISIM_LOG_WARN("fuzz.divergence", "seed=%llu %s",
                             static_cast<unsigned long long>(seed0 + i),
                             s.summary.c_str());
        s.ran = true;
    });
    const double wall = sw.seconds();

    std::size_t ran = 0, typeA = 0, typeB = 0, typeC = 0, deadlocks = 0;
    std::vector<std::size_t> divergent;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const Slot &s = slots[i];
        if (!s.ran)
            continue;
        ++ran;
        typeA += s.type == 'A';
        typeB += s.type == 'B';
        typeC += s.type == 'C';
        deadlocks += s.baseline == SimStatus::Deadlock;
        if (!s.summary.empty())
            divergent.push_back(i);
    }

    std::printf("fuzz: %zu/%llu seeds [%llu..%llu] in %.2f s "
                "(%.1f designs/s, %u jobs)\n",
                ran, static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(seed0),
                static_cast<unsigned long long>(seed0 + count - 1), wall,
                wall > 0 ? static_cast<double>(ran) / wall : 0.0,
                runner.jobs());
    std::printf("types: A=%zu B=%zu C=%zu; deadlock baselines=%zu\n",
                typeA, typeB, typeC, deadlocks);

    if (divergent.empty()) {
        std::printf("all oracles agree: no divergence\n");
        return 0;
    }

    std::printf("\n%zu divergent seed(s):\n", divergent.size());
    constexpr std::size_t kMaxShrunk = 8;
    for (std::size_t k = 0; k < divergent.size(); ++k) {
        const std::size_t i = divergent[k];
        const std::uint64_t seed = seed0 + i;
        std::printf("\n--- seed %llu ---\n",
                    static_cast<unsigned long long>(seed));
        std::printf("divergence: %s\n", slots[i].summary.c_str());
        gen::GenSpec spec = gen::generateSpec(seed, cfg);
        gen::GenSpec repro = spec; // what the replay line will carry
        if (doShrink && k < kMaxShrunk) {
            const gen::FailPredicate fails =
                [&](const gen::GenSpec &cand) {
                    try {
                        return !gen::checkConformance(cand, copts)
                                    .clean();
                    } catch (const std::exception &) {
                        return true; // a harness crash is also a bug
                    }
                };
            // Nothing in the shrink/report path may abort the loop: a
            // divergence that IS a harness exception must still print
            // its replay line and let the remaining seeds report.
            try {
                const gen::ShrinkResult sr =
                    gen::shrinkSpec(spec, fails, maxShrink);
                std::printf("shrunk (%zu/%zu candidates accepted):\n",
                            sr.accepted, sr.attempts);
                printConformance(sr.spec,
                                 gen::checkConformance(sr.spec, copts));
                repro = sr.spec;
            } catch (const std::exception &e) {
                std::printf("shrink/replay raised: %s\n", e.what());
            }
        } else {
            std::printf("spec: %s\n", gen::specToString(spec).c_str());
        }
        std::printf("replay: omnisim_cli fuzz --replay '%s'\n",
                    gen::specToString(repro).c_str());
    }
    return 1;
}

int
cmdServe(const std::vector<std::string> &args, unsigned jobs)
{
    serve::ServeOptions opts;
    opts.jobs = jobs;
    std::string socketPath;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--store" && i + 1 < args.size()) {
            opts.storeDir = args[++i];
        } else if (args[i] == "--socket" && i + 1 < args.size()) {
            socketPath = args[++i];
        } else if (args[i] == "--lazy") {
            opts.engine.eagerWriteStall = false;
        } else {
            return subUsageError("serve");
        }
    }

    serve::SimService svc(opts);
    if (!socketPath.empty())
        return serve::serveUnixSocket(svc, socketPath);
    return serve::serveLines(svc, std::cin, std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    if (cmd == "simulate")
        cmd = "run"; // alias: the serve protocol's op name
    std::vector<std::string> rest(argv + 2, argv + argc);

    // Global --trace-out FILE: record spans for the whole invocation
    // (any subcommand) and export Chrome trace_event JSON on exit.
    std::string traceOut;
    for (std::size_t i = 0; i < rest.size();) {
        if (rest[i] == "--trace-out") {
            if (i + 1 >= rest.size()) {
                std::fprintf(stderr,
                             "error: --trace-out needs a file path\n");
                return 2;
            }
            traceOut = rest[i + 1];
            rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i),
                       rest.begin() + static_cast<std::ptrdiff_t>(i + 2));
        } else {
            ++i;
        }
    }

    // Global structured-diagnostics flags, pre-scanned like --trace-out:
    //   --log-out FILE    JSON-lines event sink (default: legacy stderr)
    //   --log-level L     sink threshold (trace|debug|info|warn|error)
    //   --crash-dir DIR   where flight-recorder crash dumps land
    //   --inject-panic    hidden: fire an omnisim_assert after setup,
    //                     exercising the crash-dump path end to end
    //                     (used by the ctest crash-schema smoke)
    std::string logOut;
    std::string crashDir;
    obs::LogLevel logLevel = obs::LogLevel::Warn;
    bool injectPanic = false;
    for (std::size_t i = 0; i < rest.size();) {
        if (rest[i] == "--log-out" || rest[i] == "--log-level" ||
            rest[i] == "--crash-dir") {
            if (i + 1 >= rest.size()) {
                std::fprintf(stderr, "error: %s needs a value\n",
                             rest[i].c_str());
                return 2;
            }
            if (rest[i] == "--log-out") {
                logOut = rest[i + 1];
            } else if (rest[i] == "--crash-dir") {
                crashDir = rest[i + 1];
            } else if (!obs::parseLogLevel(rest[i + 1], logLevel)) {
                std::fprintf(stderr,
                             "error: --log-level expects trace|debug|"
                             "info|warn|error, got '%s'\n",
                             rest[i + 1].c_str());
                return 2;
            }
            rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i),
                       rest.begin() + static_cast<std::ptrdiff_t>(i + 2));
        } else if (rest[i] == "--inject-panic") {
            injectPanic = true;
            rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
        } else if (rest[i] == "--verify") {
            opt::setVerifyEnabled(true);
            rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }

    // Global --jobs N, pre-scanned out of any command line (like
    // --trace-out): the worker-thread count of every subcommand's pool
    // (0, the default, selects all cores).
    unsigned jobs = 0;
    for (std::size_t i = 0; i < rest.size();) {
        if (rest[i] == "--jobs") {
            if (i + 1 >= rest.size()) {
                std::fprintf(stderr, "error: --jobs needs a count\n");
                return 2;
            }
            try {
                jobs = parseU32("--jobs", rest[i + 1], 0, 4096);
            } catch (const UsageError &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return 2;
            }
            rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i),
                       rest.begin() + static_cast<std::ptrdiff_t>(i + 2));
        } else {
            ++i;
        }
    }

    // serve/dse/batch/fuzz answer --help with their focused usage on
    // stdout (exit 0); their malformed invocations print the same text
    // to stderr (exit 2) instead of the generic top-level blob.
    if (const char *text = subcommandUsage(cmd); text && wantsHelp(rest)) {
        std::fputs(text, stdout);
        return 0;
    }

    // Arm the structured logger for the whole invocation. The legacy
    // stderr sink (active unless --log-out redirects) reproduces the
    // "warn: ..." lines the CLI always printed, still silenced by the
    // setLogQuiet(true) above, so default output is unchanged.
    obs::setLogEnabled(true);
    obs::setLogLevel(logLevel);
    if (!logOut.empty() && !obs::setLogFileSink(logOut)) {
        std::fprintf(stderr, "error: cannot open log file '%s'\n",
                     logOut.c_str());
        return 2;
    }
    if (!crashDir.empty())
        obs::setCrashDumpDir(crashDir);
    obs::installCrashHandlers();

    // The invocation is an entry point: one correlation id covers the
    // whole subcommand (nested entry points — batch scenarios, DSE
    // evaluations, fuzz seeds — stack their own ids on top).
    const obs::CorrelationId cid = obs::newCorrelationId();
    obs::CorrelationScope cscope(cid);
    OMNISIM_LOG_INFO("cli.invoke", "cmd=%s", cmd.c_str());

    if (!traceOut.empty())
        obs::traceStart();
    if (injectPanic)
        omnisim_assert(false, "injected panic (--inject-panic)");
    const int code = [&]() -> int {
    try {
        if (cmd == "list")
            return cmdList();
        if (cmd == "info" && !rest.empty())
            return cmdInfo(rest[0]);
        if (cmd == "dot" && !rest.empty()) {
            const Design d = designs::findDesign(rest[0]).build();
            const bool optimized =
                std::find(rest.begin() + 1, rest.end(), "--optimized") !=
                rest.end();
            std::fputs(optimized
                           ? toDotRun(d, opt::OptLevel::O1).c_str()
                           : toDot(d).c_str(),
                       stdout);
            return 0;
        }
        if (cmd == "run" && !rest.empty()) {
            return cmdRun(rest[0], {rest.begin() + 1, rest.end()});
        }
        if (cmd == "sweep" && !rest.empty()) {
            return cmdSweep(rest[0], {rest.begin() + 1, rest.end()}, jobs);
        }
        if (cmd == "dse") {
            if (rest.empty())
                return subUsageError("dse");
            return cmdDse(rest[0], {rest.begin() + 1, rest.end()}, jobs);
        }
        if (cmd == "batch")
            return cmdBatch(rest, jobs);
        if (cmd == "serve")
            return cmdServe(rest, jobs);
        if (cmd == "fuzz")
            return cmdFuzz(rest, jobs);
    } catch (const UsageError &e) {
        OMNISIM_LOG_ERROR("cli.usage_error", "cmd=%s: %s", cmd.c_str(),
                          e.what());
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const FatalError &e) {
        OMNISIM_LOG_ERROR("cli.fatal", "cmd=%s: %s", cmd.c_str(),
                          e.what());
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        OMNISIM_LOG_ERROR("cli.error", "cmd=%s: %s", cmd.c_str(),
                          e.what());
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage();
    }();

    if (!traceOut.empty()) {
        obs::traceStop();
        if (!obs::traceWriteJson(traceOut)) {
            std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                         traceOut.c_str());
            return code == 0 ? 1 : code;
        }
    }
    return code;
}
