/**
 * @file
 * omnibench entry point.
 *
 *   omnibench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--scratch DIR]
 *
 * --trace 0 sets the workload up several times (setup_s is the median),
 * runs its timed phase for S seconds and reports the end-to-end metrics.
 * --trace 1 sets it up once, runs an untraced phase and then a traced
 * phase of S/2 seconds each, and reports the per-layer metrics; the
 * ratio of the two phases' median latencies is the tracing overhead.
 *
 * Human-readable detail goes first; the last line of standard output is
 * one JSON object {"correct","attempted","failed","metrics"}.
 */

#include <sys/resource.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "obs/metrics.hh"
#include "omnibench.hh"
#include "serve/json.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace omnibench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point
deadline(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
geomeanOf(const std::vector<double> &v)
{
    std::vector<double> pos;
    for (const double x : v)
        if (std::isfinite(x) && x > 0)
            pos.push_back(x);
    return pos.empty() ? 0.0 : omnisim::geomean(pos);
}

namespace
{

/** Steal ticks of all CPUs so far (the eighth field of /proc/stat's
 *  "cpu" line); 0 when unreadable. */
std::uint64_t
stealTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    std::uint64_t field[8] = {};
    stat >> cpu;
    for (std::uint64_t &f : field)
        stat >> f;
    return stat && cpu == "cpu" ? field[7] : 0;
}

} // namespace

StealMeter::StealMeter() : t0_(Clock::now()), ticks0_(stealTicks()) {}

double
StealMeter::share() const
{
    static const double ticksPerSecond =
        static_cast<double>(std::max(1L, sysconf(_SC_CLK_TCK))) *
        static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    const double seconds = secondsSince(t0_);
    const std::uint64_t ticks = stealTicks();
    if (seconds <= 0 || ticks < ticks0_)
        return 0;
    return std::min(1.0, static_cast<double>(ticks - ticks0_) /
                             (seconds * ticksPerSecond));
}

std::vector<double>
cleanRatios(const std::vector<Unit> &units)
{
    std::vector<double> out;
    const Unit *least = nullptr;
    for (const Unit &u : units) {
        if (u.stolen <= kMaxStolen)
            out.push_back(u.ratio);
        if (!least || u.stolen < least->stolen)
            least = &u;
    }
    if (out.empty() && least)
        out.push_back(least->ratio);
    return out;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 10)
        failures.push_back(what);
}

void
VisibleStats::noteRun(const omnisim::SimResult &r)
{
    ++runs;
    events += r.stats.events;
    queries += r.stats.queries;
    threadPauses += r.stats.threadPauses;
    forcedBlind += r.stats.forcedBlind;
}

void
VisibleStats::noteCompile(const omnisim::opt::CompileStats &s)
{
    ++compiles;
    elimination += s.elimination();
    for (const omnisim::opt::PassStats &p : s.passes) {
        nodesRemoved[p.pass] += p.nodesEliminated;
        edgesRemoved[p.pass] += p.edgesEliminated;
    }
}

} // namespace omnibench

namespace
{

using namespace omnibench;

/** Repetitions of the workload set-up behind setup_s (its median). */
constexpr int kSetups = 5;

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "omnibench: %s\n"
                 "usage: omnibench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--scratch DIR]\n"
                 "workloads:",
                 why.c_str());
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

double
parseNumber(const char *flag, const char *text, double lo, double hi)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= lo && v <= hi))
        usage(omnisim::strf("%s expects a number in [%g, %g], got '%s'",
                            flag, lo, hi, text));
    return v;
}

/**
 * Fix the glibc allocator's adaptive settings, so that the memory a run
 * uses does not depend on its seeded order of operations or on thread
 * scheduling. The thresholds take the values glibc's dynamic ones
 * converge to in a long-lived process (blocks up to 32 MiB come from the
 * heap, which is trimmed past 64 MiB free); left dynamic, they move on
 * the first large free. At most 4 arenas: co-simulation starts a thread
 * per module, and with an arena for each of them peak RSS on bc_cold
 * ranged over 15% between runs (3% with the cap).
 */
void
pinAllocator()
{
#if defined(__GLIBC__)
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    mallopt(M_ARENA_MAX, 4);
#endif
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Registry counters/histograms the traced phase moved (reset before). */
std::vector<Metric>
registryMetrics()
{
    auto &reg = omnisim::obs::Registry::global();
    const auto count = [&](const char *n) {
        return static_cast<double>(reg.counter(n).value());
    };
    const auto frac = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const double attempts = count("engine.resim.attempts");
    const double parallel = count("relax.runs.parallel");
    const double evals =
        static_cast<double>(reg.histogram("dse.eval_us").snapshot().count);
    return {
        {"graph.reuse_frac", frac(count("engine.resim.reused"), attempts),
         "fraction"},
        {"graph.delta_frac", frac(count("engine.resim.delta"), attempts),
         "fraction"},
        {"graph.cone_nodes_p50",
         reg.histogram("engine.resim.cone_nodes").snapshot().quantile(0.5),
         "count"},
        {"graph.parallel_frac",
         frac(parallel, parallel + count("relax.runs.serial")), "fraction"},
        {"dse.memo_frac", frac(count("dse.evalcache.memo_hits"), evals),
         "fraction"},
        {"dse.incremental_frac",
         frac(count("dse.evalcache.incremental"), evals), "fraction"},
        {"dse.full_frac", frac(count("dse.evalcache.full_runs"), evals),
         "fraction"},
        {"io.load_hits", count("store.load_hits"), "count"},
        {"io.load_misses", count("store.load_misses"), "count"},
    };
}

/** Latency quantiles the library keeps; printed, not in the result. */
std::vector<std::string>
registryLatencies()
{
    auto &reg = omnisim::obs::Registry::global();
    std::vector<std::string> lines;
    for (const char *h :
         {"engine.resim.us", "dse.eval_us", "store.publish_us",
          "serve.queue_wait_us", "serve.request_us.simulate",
          "serve.request_us.resimulate", "engine.cosim.run_us",
          "engine.csim.run_us", "engine.omnisim.run_us"}) {
        const auto s = reg.histogram(h).snapshot();
        if (s.count == 0)
            continue;
        lines.push_back(omnisim::strf(
            "%-28s n=%-7llu p50=%.1fus p99=%.1fus", h,
            static_cast<unsigned long long>(s.count), s.quantile(0.5),
            s.quantile(0.99)));
    }
    return lines;
}

std::vector<Metric>
visibleMetrics(const VisibleStats &v)
{
    const auto per = [](double x, std::uint64_t n) {
        return n ? x / static_cast<double>(n) : 0.0;
    };
    std::vector<Metric> m = {
        {"core.events", per(static_cast<double>(v.events), v.runs), "count"},
        {"core.queries", per(static_cast<double>(v.queries), v.runs),
         "count"},
        {"core.thread_pauses", per(static_cast<double>(v.threadPauses), v.runs),
         "count"},
        {"core.forced_blind", static_cast<double>(v.forcedBlind), "count"},
        {"core.pauses_per_query",
         per(static_cast<double>(v.threadPauses), v.queries), "count"},
        {"opt.elimination", per(v.elimination, v.compiles), "fraction"},
    };
    for (const char *pass : {"lattice-prune", "chain-collapse", "dedup"}) {
        std::string key = pass;
        std::replace(key.begin(), key.end(), '-', '_');
        const auto get = [&](const std::map<std::string, std::uint64_t> &mp) {
            const auto it = mp.find(pass);
            return it == mp.end() ? 0.0 : static_cast<double>(it->second);
        };
        m.push_back({"opt.nodes_removed." + key,
                     per(get(v.nodesRemoved), v.compiles), "count"});
        m.push_back({"opt.edges_removed." + key,
                     per(get(v.edgesRemoved), v.compiles), "count"});
    }
    return m;
}

const char *
unitOf(const std::string &layerMetric)
{
    if (layerMetric.size() > 6 &&
        layerMetric.compare(layerMetric.size() - 6, 6, ".share") == 0)
        return "%";
    if (layerMetric == "obs.coverage")
        return "%";
    if (layerMetric == "obs.trace_dropped")
        return "count";
    return "ms";
}

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    omnisim::serve::JsonBuilder b;
    b.key("correct").boolean(checks.failed == 0);
    b.key("attempted").num(checks.attempted);
    b.key("failed").num(checks.failed);
    b.key("metrics").beginObject();
    for (const Metric &m : metrics) {
        b.key(m.name).beginObject();
        b.key("value").rawValue(
            std::isfinite(m.value) ? omnisim::strf("%.17g", m.value) : "0");
        b.key("unit").str(m.unit);
        b.endObject();
    }
    b.endObject();
    std::cout << b.finish() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadName;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = -1;
    std::string traceOut;
    std::string scratch = "build-bench/omnibench-scratch";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const char *val = argv[++i];
        if (arg == "--workload")
            workloadName = val;
        else if (arg == "--seed")
            seed = static_cast<std::uint64_t>(
                parseNumber("--seed", val, 0, 9e15));
        else if (arg == "--seconds")
            seconds = parseNumber("--seconds", val, 0.5, 600);
        else if (arg == "--trace")
            trace = static_cast<int>(parseNumber("--trace", val, 0, 1));
        else if (arg == "--trace-out")
            traceOut = val;
        else if (arg == "--scratch")
            scratch = val;
        else
            usage("unknown flag " + arg);
    }
    if (trace < 0)
        usage("--trace 0|1 is required");

    pinAllocator();
    omnisim::setLogQuiet(true);
    std::unique_ptr<Workload> w;
    try {
        std::filesystem::create_directories(scratch);
        w = makeWorkload(workloadName, seed, scratch);
        if (!w)
            usage("unknown workload '" + workloadName + "'");

        Checks checks;
        std::vector<Metric> metrics;
        std::vector<std::string> notes;
        Tracer off(false);
        w->prepare(checks);
        if (trace == 0) {
            std::vector<double> setups;
            std::string setupNote = "setups (s):";
            for (int k = 0; k < kSetups; ++k) {
                const Clock::time_point t0 = Clock::now();
                w->setup(checks);
                setups.push_back(secondsSince(t0));
                setupNote += omnisim::strf(" %.4f", setups.back());
            }
            const StealMeter steal;
            const PhaseResult r = w->measure(seconds, off, checks);
            notes = r.notes;
            notes.push_back(setupNote);
            notes.push_back(omnisim::strf(
                "stolen by the hypervisor during the timed phase: %.2f%% "
                "of the machine's CPU time",
                100 * steal.share()));
            notes.push_back(omnisim::strf(
                "operation host time: p50 %.6g ms, tail %.6g ms", r.opP50Ms,
                r.opTailMs));
            metrics = {
                {"setup_s", median(setups), "s"},
                {"speedup_x", r.speedupX, "x"},
                {"speedup_tail_x", r.speedupTailX, "x"},
                {"speedup_work_x", r.speedupWorkX, "x"},
                {"peak_rss_mb", peakRssMb(), "MB"},
            };
        } else {
            w->setup(checks);
            const PhaseResult base = w->measure(seconds / 2, off, checks);
            omnisim::obs::Registry::global().resetAll();
            Tracer tracer(true, traceOut);
            tracer.start();
            const PhaseResult traced = w->measure(seconds / 2, tracer, checks);
            tracer.finish();

            notes = traced.notes;
            const auto spans = tracer.spanTable();
            notes.insert(notes.end(), spans.begin(), spans.end());
            const auto lat = registryLatencies();
            notes.insert(notes.end(), lat.begin(), lat.end());

            const double queueUs = static_cast<double>(
                omnisim::obs::Registry::global()
                    .histogram("serve.queue_wait_us")
                    .snapshot()
                    .sum);
            for (const auto &[name, value] : tracer.layerMetrics(queueUs))
                metrics.push_back({name, value, unitOf(name)});
            metrics.push_back(
                {"obs.trace_overhead",
                 base.opP50Ms > 0 ? traced.opP50Ms / base.opP50Ms : 0.0,
                 "x"});
            for (Metric &m : registryMetrics())
                metrics.push_back(std::move(m));
            for (Metric &m : visibleMetrics(w->visible()))
                metrics.push_back(std::move(m));
            metrics.push_back(
                {"io.run_file_kb", w->runFileKb(), "KB"});
        }
        w.reset(); // joins service workers, removes scratch stores

        for (const std::string &n : notes)
            std::cout << n << "\n";
        for (const std::string &f : checks.failures)
            std::cout << "FAILED CHECK: " << f << "\n";
        printResult(checks, metrics);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "omnibench: %s\n", e.what());
        return 1;
    }
    return 0;
}
