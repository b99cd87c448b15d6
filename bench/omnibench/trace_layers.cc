/**
 * @file
 * Per-layer attribution of a traced phase: drain the library's span
 * rings, compute each span's self time (its duration minus what its
 * children on the same thread cover), and fold span names into the
 * layers of src/.
 */

#include <algorithm>
#include <fstream>

#include "obs/trace.hh"
#include "omnibench.hh"
#include "serve/json.hh"
#include "support/logging.hh"

namespace omnibench
{

namespace
{

/**
 * A serve client's span: its self time is the client waiting for work
 * the service's worker threads do and that is attributed there.
 * Counting it would count that work twice.
 */
bool
isWait(const std::string &span)
{
    return span == "bench.serve_request";
}

/** The layer a span's self time belongs to; see README.md. */
std::string
layerOf(const std::string &span)
{
    static const std::map<std::string, std::string> exact = {
        {"bench.design_build", "design"},
        {"bench.frontend", "design"},
        {"bench.stored_open", "io"},
        {"omnisim.execute", "core.execute"},
        {"omnisim.finalize", "core.finalize"},
        {"omnisim.freeze", "graph.freeze"},
        {"omnisim.resimulate", "graph.resim"},
        {"compile.run", "opt.compile"},
        {"serve.request", "serve.handle"},
    };
    if (const auto it = exact.find(span); it != exact.end())
        return it->second;
    const auto starts = [&](const char *p) { return span.rfind(p, 0) == 0; };
    if (starts("compile."))
        return "opt.pass." + span.substr(8);
    if (starts("omnisim."))
        return "core.other";
    if (starts("relax."))
        return "graph.resim";
    if (starts("dse."))
        return "dse";
    if (starts("store."))
        return "io";
    if (starts("serve.") || starts("batch."))
        return "serve.handle";
    if (starts("cosim."))
        return "cosim";
    if (starts("csim."))
        return "csim";
    return "unattributed"; // bench.* self time and unknown spans
}

} // namespace

Tracer::Tracer(bool enabled, std::string traceOut)
    : enabled_(enabled), traceOut_(std::move(traceOut))
{}

Tracer::~Tracer()
{
    if (running_)
        omnisim::obs::traceStop();
}

void
Tracer::start()
{
    if (!enabled_)
        return;
    sessionStart_ = Clock::now();
    if (firstStart_ == Clock::time_point{})
        firstStart_ = sessionStart_;
    omnisim::obs::traceStart();
    running_ = true;
}

void
Tracer::drain()
{
    if (!enabled_ || !running_)
        return;
    collect();
    start();
}

void
Tracer::pause()
{
    if (!enabled_ || !running_)
        return;
    collect();
    omnisim::obs::traceStop();
    running_ = false;
}

void
Tracer::resume()
{
    if (enabled_ && !running_)
        start();
}

void
Tracer::finish()
{
    pause();
    enabled_ = false; // later pause()/resume() pairs are no-ops
    if (traceOut_.empty())
        return;
    std::ofstream out(traceOut_);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Event &e : kept_) {
        out << (first ? "" : ",") << "{\"name\":"
            << omnisim::serve::jsonQuote(e.name)
            << ",\"cat\":\"omnisim\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
            << omnisim::strf(",\"ts\":%.3f,\"dur\":%.3f}", e.tsUs, e.durUs);
        first = false;
    }
    out << "]}\n";
    if (!out)
        omnisim::warn("omnibench: cannot write " + traceOut_);
}

void
Tracer::collect()
{
    using omnisim::serve::JsonValue;
    const JsonValue doc = JsonValue::parse(omnisim::obs::traceJson());
    if (const JsonValue *d = doc.find("omnisimDropped"))
        dropped_ += d->asU64("omnisimDropped", ~std::uint64_t{0});

    std::vector<Event> events;
    for (const JsonValue &e : doc.find("traceEvents")->array()) {
        const JsonValue *ph = e.find("ph");
        if (!ph || ph->str() != "X")
            continue;
        events.push_back({e.find("name")->str(), e.find("ts")->number(),
                          e.find("dur")->number(),
                          static_cast<std::int64_t>(e.find("tid")->number())});
    }

    // Per thread, visit spans by start time (outer before inner on ties)
    // and charge each span's duration to the innermost open span.
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.tsUs != b.tsUs)
                      return a.tsUs < b.tsUs;
                  return a.durUs > b.durUs;
              });
    std::vector<double> covered(events.size(), 0.0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Event &e = events[i];
        while (!open.empty() &&
               (events[open.back()].tid != e.tid ||
                events[open.back()].tsUs + events[open.back()].durUs <=
                    e.tsUs))
            open.pop_back();
        if (!open.empty()) {
            const Event &p = events[open.back()];
            covered[open.back()] +=
                std::min(e.tsUs + e.durUs, p.tsUs + p.durUs) - e.tsUs;
        }
        open.push_back(i);
    }

    const double offsetUs =
        std::chrono::duration<double, std::micro>(sessionStart_ - firstStart_)
            .count();
    for (std::size_t i = 0; i < events.size(); ++i) {
        SpanTotals &t = spans_[events[i].name];
        t.selfUs += std::max(0.0, events[i].durUs - covered[i]);
        t.durUs += events[i].durUs;
        ++t.count;
        if (!traceOut_.empty()) {
            kept_.push_back(events[i]);
            kept_.back().tsUs += offsetUs;
        }
    }
}

std::map<std::string, double>
Tracer::layerMetrics(double queueWaitUs) const
{
    // Busy thread time per layer. Serve clients wait for the queue, for
    // the worker's serve.request span, and for the hand-off around both;
    // only the hand-off is left unattributed.
    std::map<std::string, double> busy;
    for (const auto &[name, t] : spans_)
        if (!isWait(name))
            busy[layerOf(name)] += t.selfUs;
    const auto totals = [&](const char *span) {
        const auto it = spans_.find(span);
        return it == spans_.end() ? SpanTotals{} : it->second;
    };
    busy["serve.queue"] += queueWaitUs;
    busy["unattributed"] +=
        std::max(0.0, totals("bench.serve_request").selfUs -
                          totals("serve.request").durUs - queueWaitUs);

    double all = 0;
    for (const auto &[layer, us] : busy)
        all += us;
    const auto share = [&](const std::string &layer) {
        const auto it = busy.find(layer);
        return all > 0 && it != busy.end() ? 100.0 * it->second / all : 0.0;
    };
    double passesUs = 0;
    for (const auto &[layer, us] : busy)
        if (layer.rfind("opt.pass.", 0) == 0)
            passesUs += us;

    std::map<std::string, double> m;
    for (const char *layer :
         {"design", "core.execute", "core.finalize", "core.other",
          "opt.compile", "graph.freeze", "graph.resim", "dse", "io",
          "serve.handle", "serve.queue", "cosim", "csim"})
        m[std::string(layer) + ".share"] = share(layer);
    for (const char *pass : {"lattice_prune", "chain_collapse", "dedup",
                             "partition", "materialize"})
        m[std::string("opt.") + pass + ".share"] =
            share(std::string("opt.pass.") + pass);
    m["opt.passes.share"] = all > 0 ? 100.0 * passesUs / all : 0.0;
    m["obs.coverage"] = 100.0 - share("unattributed");
    m["obs.trace_dropped"] = static_cast<double>(dropped_);

    // Mean self time per invocation of the layers every workload reaches.
    const auto perCall = [&](const char *span, double us) {
        const SpanTotals t = totals(span);
        return t.count ? us / static_cast<double>(t.count) / 1e3 : 0.0;
    };
    m["core.execute_ms"] =
        perCall("omnisim.execute", totals("omnisim.execute").selfUs);
    m["core.finalize_ms"] =
        perCall("omnisim.finalize", totals("omnisim.finalize").selfUs);
    m["graph.freeze_ms"] =
        perCall("omnisim.freeze", totals("omnisim.freeze").selfUs);
    m["opt.compile_ms"] =
        perCall("compile.run", totals("compile.run").selfUs);
    m["opt.passes_ms"] = perCall("compile.run", passesUs);
    return m;
}

std::vector<std::string>
Tracer::spanTable() const
{
    std::vector<std::string> lines;
    lines.push_back(omnisim::strf("%-24s %-16s %9s %12s %12s %12s", "span",
                                  "layer", "count", "total_ms", "self_ms",
                                  "self_ms/call"));
    for (const auto &[name, t] : spans_)
        lines.push_back(omnisim::strf(
            "%-24s %-16s %9llu %12.3f %12.3f %12.4f", name.c_str(),
            isWait(name) ? "(wait)" : layerOf(name).c_str(),
            static_cast<unsigned long long>(t.count), t.durUs / 1e3,
            t.selfUs / 1e3,
            t.count ? t.selfUs / 1e3 / static_cast<double>(t.count) : 0.0));
    return lines;
}

} // namespace omnibench
