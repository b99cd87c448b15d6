/**
 * @file
 * Graph-compilation pipeline effectiveness and cost over the design
 * registry (the tentpole of the src/opt/ work): how much of each
 * frozen run's graph the -O1 pass pipeline eliminates, what that
 * costs at cold-simulate time, and what a stored run of it costs to
 * keep and to reopen.
 *
 * For every registry design whose baseline run completes Ok:
 *
 *   elimination — CompileStats of the engine's own -O1 freeze:
 *           nodes/edges/constraints before and after, with the
 *           per-pass breakdown (lattice-prune / chain-collapse /
 *           dedup). The acceptance gate is a >= 25% registry geomean
 *           of the per-design node+edge elimination fraction.
 *   cold simulate — end-to-end run() wall time at -O0 vs -O1 (the
 *           pipeline runs inside the freeze, so this prices the
 *           passes themselves).
 *   store — the size of the run file the engine's frozen run encodes
 *           to (what a RunStore publishes) and the wall time of
 *           StoredRun::open() on it: read, decode, validate, freeze.
 *
 * Results land in BENCH_compile.json (per-design counters, per-pass
 * breakdown, timing columns, totals with the elimination geomean)
 * for the CI trajectory; exit status enforces the >= 25% gate.
 *
 * Usage: compile_throughput [--reps N] [--json PATH] [--store DIR]
 *                           [design ...]
 */

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "io/run_io.hh"
#include "support/table.hh"

using namespace omnisim;
using namespace omnisim::bench;

namespace
{

namespace fs = std::filesystem;

/** The acceptance bar: registry geomean node+edge elimination. */
constexpr double kMinEliminationGeomean = 0.25;

bool
writeImage(const std::string &path, const std::string &image)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool wrote =
        std::fwrite(image.data(), 1, image.size(), f) == image.size();
    return std::fclose(f) == 0 && wrote;
}

/** Mean seconds of one StoredRun::open over @p reps repetitions. */
double
timeOpen(const std::string &path, unsigned reps)
{
    Stopwatch sw;
    for (unsigned r = 0; r < reps; ++r)
        (void)io::StoredRun::open(path);
    return sw.seconds() / reps;
}

void
emitPasses(JsonWriter &json, const opt::CompileStats &stats)
{
    json.key("passes").beginArray();
    for (const auto &p : stats.passes) {
        json.beginObject();
        json.key("pass").str(p.pass);
        json.key("nodes_eliminated").num(p.nodesEliminated);
        json.key("edges_eliminated").num(p.edgesEliminated);
        json.key("constraints_eliminated").num(p.constraintsEliminated);
        json.endObject();
    }
    json.endArray();
}

} // namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);

    unsigned reps = 5;
    std::string jsonPath = "BENCH_compile.json";
    std::string storeDir = "compile_bench_store";
    std::vector<std::string> only;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--reps" && i + 1 < argc)
            reps = parseArgU32("--reps", argv[++i], 1u << 16);
        else if (arg == "--json" && i + 1 < argc)
            jsonPath = argv[++i];
        else if (arg == "--store" && i + 1 < argc)
            storeDir = argv[++i];
        else
            only.push_back(arg);
    }
    reps = std::max(1u, reps);

    const std::vector<const designs::DesignEntry *> entries =
        registrySuite(only);

    std::cout << "Graph compilation pipeline over the design registry "
                 "(-O1 freeze vs -O0,\nrun-file size and reopen time)"
                 "\n\n";

    fs::create_directories(storeDir);

    BenchJson json("compile_throughput", jsonPath);
    json.key("reps").num(reps);
    json.json().key("designs").beginArray();

    TablePrinter t({"Design", "Nodes", "Edges", "Cons", "Elim%",
                    "Sim O0", "Sim O1", "Open ms", "File KB"});
    GeomeanAccum eliminations;
    opt::CompileStats totals;
    bool firstTotal = true;
    std::size_t covered = 0, skipped = 0;
    for (const auto *e : entries) {
        FrontEndRun fe = runFrontEnd(*e);

        // Cold -O1 simulate: the pipeline runs inside the freeze.
        Stopwatch o1Sw;
        OmniSim o1(fe.cd);
        const SimResult r1 = o1.run();
        const double o1Seconds = o1Sw.seconds();
        if (r1.status != SimStatus::Ok) {
            ++skipped; // deadlock registry entries have no frozen run
            t.addRow({e->name, "-", "-", "-", "-",
                      simStatusName(r1.status), "-", "-", "-"});
            continue;
        }
        ++covered;
        const opt::CompileStats stats = o1.compileStats();

        // Cold -O0 simulate: identical trace, identity freeze.
        OmniSimOptions o0Opts;
        o0Opts.optLevel = opt::OptLevel::O0;
        Stopwatch o0Sw;
        OmniSim o0(fe.cd, o0Opts);
        (void)o0.run();
        const double o0Seconds = o0Sw.seconds();

        // Store: the engine's frozen run as a run file, reopened.
        std::vector<std::uint32_t> depths;
        std::vector<std::string> labels;
        for (const auto &f : fe.design->fifos()) {
            depths.push_back(f.depth);
            labels.push_back(f.name);
        }
        io::RunFileMeta meta;
        meta.design = e->name;
        meta.engine = "omnisim";
        meta.fingerprint = io::designFingerprint(*fe.design);
        const std::string image = io::encodeRun(
            meta, {depths, labels, r1, o1.compiledRun().layout()});
        const std::string path = storeDir + "/" + e->name + ".run";
        if (!writeImage(path, image)) {
            std::cerr << "cannot write run images under " << storeDir
                      << "\n";
            return 1;
        }
        const double openMs = timeOpen(path, reps) * 1e3;
        const double fileKb = static_cast<double>(image.size()) / 1024.0;

        eliminations.add(stats.elimination());
        if (firstTotal) {
            totals = stats;
            firstTotal = false;
        } else {
            totals.accumulate(stats);
        }

        t.addRow({e->name,
                  strf("%llu -> %llu",
                       static_cast<unsigned long long>(stats.origNodes),
                       static_cast<unsigned long long>(stats.optNodes)),
                  strf("%llu -> %llu",
                       static_cast<unsigned long long>(stats.origEdges),
                       static_cast<unsigned long long>(stats.optEdges)),
                  strf("%llu -> %llu",
                       static_cast<unsigned long long>(
                           stats.origConstraints),
                       static_cast<unsigned long long>(
                           stats.keptConstraints)),
                  strf("%.1f", stats.elimination() * 100.0),
                  fmtSeconds(o0Seconds), fmtSeconds(o1Seconds),
                  strf("%.2f", openMs), strf("%.1f", fileKb)});

        json.json().beginObject();
        json.key("name").str(e->name);
        json.key("level").str(optLevelName(stats.level));
        json.key("orig_nodes").num(stats.origNodes);
        json.key("opt_nodes").num(stats.optNodes);
        json.key("orig_edges").num(stats.origEdges);
        json.key("opt_edges").num(stats.optEdges);
        json.key("orig_constraints").num(stats.origConstraints);
        json.key("kept_constraints").num(stats.keptConstraints);
        json.key("elimination").num(stats.elimination());
        emitPasses(json.json(), stats);
        json.key("cold_o0_seconds").num(o0Seconds);
        json.key("cold_o1_seconds").num(o1Seconds);
        json.key("open_ms").num(openMs);
        json.key("file_kb").num(fileKb);
        json.json().endObject();
    }
    json.json().endArray();
    t.print(std::cout);

    const double elimGeomean = eliminations.value();
    const bool pass = elimGeomean >= kMinEliminationGeomean;
    std::cout << "\n" << covered << " designs compiled (" << skipped
              << " skipped); node+edge elimination geomean "
              << strf("%.1f%%", elimGeomean * 100.0) << " (gate: >= "
              << strf("%.0f%%", kMinEliminationGeomean * 100.0) << " — "
              << (pass ? "PASS" : "FAIL") << ")\n";
    for (const auto &p : totals.passes)
        std::cout << "  " << p.pass << ": -" << p.nodesEliminated
                  << " nodes, -" << p.edgesEliminated << " edges, -"
                  << p.constraintsEliminated << " constraints\n";

    json.key("totals").beginObject();
    json.key("designs").num(covered);
    json.key("skipped").num(skipped);
    json.key("orig_nodes").num(totals.origNodes);
    json.key("opt_nodes").num(totals.optNodes);
    json.key("orig_edges").num(totals.origEdges);
    json.key("opt_edges").num(totals.optEdges);
    json.key("orig_constraints").num(totals.origConstraints);
    json.key("kept_constraints").num(totals.keptConstraints);
    json.key("elimination_geomean").num(elimGeomean);
    json.key("elimination_gate").num(kMinEliminationGeomean);
    emitPasses(json.json(), totals);
    json.json().endObject();

    fs::remove_all(storeDir);
    return json.exitCode(pass);
}
