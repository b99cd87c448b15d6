/**
 * @file
 * omnibench: one benchmark for the paper's four host-time axes — cold
 * simulate of the Type B/C suite against co-simulation (Fig. 8), cold
 * simulate of the Type A suite against C simulation, warm §7.2
 * re-simulation and DSE, and the serve protocol — with per-layer
 * attribution measured from outside the library.
 *
 * The benchmark only calls the library's public functions. It times them
 * with its own clock, wraps them in its own `bench.*` spans, and reads
 * the counters the library already keeps in obs::Registry::global().
 * Nothing under src/ is instrumented for it.
 */

#ifndef OMNIBENCH_OMNIBENCH_HH
#define OMNIBENCH_OMNIBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "opt/opt.hh"
#include "runtime/result.hh"

namespace omnibench
{

using Clock = std::chrono::steady_clock;

/** @return seconds elapsed since t0. */
double secondsSince(Clock::time_point t0);

/** @return the time point `seconds` from now. */
Clock::time_point deadline(double seconds);

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> v);

/** Linearly interpolated quantile, q in [0, 1]; 0 when empty. */
double quantile(std::vector<double> v, double q);

/** Geometric mean of positive samples; 0 when there are none. */
double geomeanOf(const std::vector<double> &v);

/**
 * The share of the machine's CPU time that the hypervisor gave to other
 * guests (steal time, from /proc/stat) since construction; 0 where the
 * kernel does not report it. Units measured while much was stolen do not
 * count (cleanRatios()).
 */
class StealMeter
{
  public:
    StealMeter();

    /** @return the stolen share since construction, in [0, 1]. */
    double share() const;

  private:
    Clock::time_point t0_;
    std::uint64_t ticks0_;
};

/** One unit's speed-up: its reference over its operation time. */
struct Unit
{
    double ratio = 0;
    double stolen = 0; ///< StealMeter::share() over the unit.
};

/** A unit stolen more than this share does not count. */
constexpr double kMaxStolen = 0.10;

/** @return the ratios of the units stolen at most kMaxStolen, or the
 *  least-stolen unit's when there is none. */
std::vector<double> cleanRatios(const std::vector<Unit> &units);

/** Output checks of one run. A failure is any check that does not hold. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< First few, for the report.

    void expect(bool ok, const std::string &what);
};

/**
 * The end-to-end numbers of one timed phase. Every workload fills all of
 * them; README.md gives each workload's operation and reference.
 *
 * The speed-ups divide the reference's host time by the operation's.
 * Both run interleaved in the same phase, so the host's speed, which
 * drifts by more than the metrics' bounds between runs minutes apart,
 * mostly cancels. The operation's own host times are printed, not gated.
 */
struct PhaseResult
{
    double opP50Ms = 0;  ///< Operation's typical host time.
    double opTailMs = 0; ///< Operation's tail host time.

    double speedupX = 0;     ///< At the typical operation.
    double speedupTailX = 0; ///< At the slow operations.
    double speedupWorkX = 0; ///< Where the work is: the heaviest designs
                             ///< (cold workloads) or the phase's throughput.

    /** Human-readable detail lines printed before the result. */
    std::vector<std::string> notes;
};

/**
 * Work the library reported back to the benchmark directly: SimResult
 * stats of every run the benchmark started itself, and compile-pipeline
 * statistics of the engines it kept.
 */
struct VisibleStats
{
    std::uint64_t runs = 0;
    std::uint64_t events = 0;
    std::uint64_t queries = 0;
    std::uint64_t threadPauses = 0;
    std::uint64_t forcedBlind = 0;

    std::uint64_t compiles = 0;
    double elimination = 0; ///< Summed over compiles.
    std::map<std::string, std::uint64_t> nodesRemoved; ///< By pass name.
    std::map<std::string, std::uint64_t> edgesRemoved;

    void noteRun(const omnisim::SimResult &r);
    void noteCompile(const omnisim::opt::CompileStats &s);
};

/**
 * Trace session of the traced phase. The library's per-thread span
 * rings hold 16384 spans each, so the benchmark drains them (export,
 * attribute, restart) after every operation; checks run with tracing
 * off. A disabled tracer turns every call into a no-op.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled, std::string traceOut = {});
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Start recording. */
    void start();

    /** Attribute everything recorded so far, then record afresh. */
    void drain();

    /** Drain and stop recording (before an untimed check). */
    void pause();

    /** Resume recording after pause(). */
    void resume();

    /** Drain and stop for good; writes --trace-out when requested. */
    void finish();

    /**
     * Per-layer metrics of everything drained. queueWaitUs is the time
     * serve requests waited for a worker, which no span covers.
     */
    std::map<std::string, double> layerMetrics(double queueWaitUs) const;

    /** Human-readable per-span table. */
    std::vector<std::string> spanTable() const;

  private:
    struct SpanTotals
    {
        double selfUs = 0;
        double durUs = 0;
        std::uint64_t count = 0;
    };
    struct Event
    {
        std::string name;
        double tsUs;
        double durUs;
        std::int64_t tid;
    };

    void collect();

    bool enabled_;
    bool running_ = false;
    std::string traceOut_;
    std::map<std::string, SpanTotals> spans_;
    std::uint64_t dropped_ = 0;
    Clock::time_point firstStart_{};
    Clock::time_point sessionStart_{};
    std::vector<Event> kept_; ///< Only with traceOut_.
};

/** RAII pause of a tracer around an untimed check. */
class Untraced
{
  public:
    explicit Untraced(Tracer &t) : t_(t) { t_.pause(); }
    ~Untraced() { t_.resume(); }
    Untraced(const Untraced &) = delete;
    Untraced &operator=(const Untraced &) = delete;

  private:
    Tracer &t_;
};

/** One benchmark workload; see README.md for why each exists. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Untimed one-off work the set-ups rely on (serve_mix fills its run
     * store here, so that each set-up is a service restart over it).
     */
    virtual void prepare(Checks &) {}

    /**
     * Build everything the timed phase needs. May run several times;
     * the last set-up is the one measured.
     */
    virtual void setup(Checks &checks) = 0;

    /** Run the timed operations for about `seconds` of wall time. */
    virtual PhaseResult measure(double seconds, Tracer &tracer,
                                Checks &checks) = 0;

    /** Mean size of the run files the workload published; 0 if none. */
    virtual double runFileKb() const { return 0; }

    const VisibleStats &visible() const { return visible_; }

  protected:
    VisibleStats visible_;
};

/** @return the workload, or null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &scratchDir);

/** @return every workload name, in README order. */
const std::vector<std::string> &workloadNames();

} // namespace omnibench

#endif // OMNIBENCH_OMNIBENCH_HH
