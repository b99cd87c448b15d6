/**
 * @file
 * Shared helpers for the test suite: compile-and-run wrappers that keep
 * the engine option conventions (RTL cost modeling off, finalization
 * verification on) in one place.
 */

#ifndef OMNISIM_TESTS_HELPERS_HH
#define OMNISIM_TESTS_HELPERS_HH

#include <filesystem>
#include <string>

#include "core/omnisim.hh"
#include "cosim/cosim.hh"
#include "csim/csim.hh"
#include "design/frontend.hh"
#include "designs/common.hh"
#include "io/run_io.hh"
#include "lightningsim/lightningsim.hh"
#include "support/logging.hh"

namespace omnisim::test
{

/** Root for test scratch files: inside the build tree when CMake
 *  provided OMNISIM_TEST_SCRATCH_DIR, the system temp dir otherwise —
 *  never the source checkout or whatever directory ctest happened to be
 *  invoked from. */
inline std::filesystem::path
scratchRoot()
{
#ifdef OMNISIM_TEST_SCRATCH_DIR
    const std::filesystem::path root{OMNISIM_TEST_SCRATCH_DIR};
#else
    const std::filesystem::path root =
        std::filesystem::temp_directory_path() / "omnisim_test_scratch";
#endif
    std::filesystem::create_directories(root);
    return root;
}

/** A named scratch directory under scratchRoot(), created empty (any
 *  leftover from a previous run is wiped first). */
inline std::filesystem::path
scratchDir(const std::string &tag)
{
    const std::filesystem::path dir = scratchRoot() / tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Co-sim options for correctness tests: no synthetic RTL cost. */
inline CosimOptions
fastCosim()
{
    CosimOptions o;
    o.modelRtlCost = false;
    return o;
}

/** OmniSim options for correctness tests: verify finalization. */
inline OmniSimOptions
checkedOmniSim()
{
    OmniSimOptions o;
    o.verifyFinalization = true;
    return o;
}

/** Build + compile a registered design by name. */
struct Compiled
{
    Design design;
    CompiledDesign cd;

    explicit Compiled(const std::string &name)
        : design(designs::findDesign(name).build()), cd(compile(design))
    {}
};

/** The FIFO depths and names of a design: what a run file records as
 *  a run's depths and labels. */
struct FifoVectors
{
    std::vector<std::uint32_t> depths;
    std::vector<std::string> labels;

    explicit FifoVectors(const Design &d)
    {
        for (const auto &f : d.fifos()) {
            depths.push_back(f.depth);
            labels.push_back(f.name);
        }
    }
};

/** The run-file image of @p engine's finished run of @p d — the bytes
 *  a RunStore publishes for it. */
inline std::string
runImage(const Design &d, const OmniSim &engine, const SimResult &result)
{
    const FifoVectors fifos(d);
    return io::encodeRun(
        {d.name(), "omnisim", io::designFingerprint(d)},
        {fifos.depths, fifos.labels, result,
         engine.compiledRun().layout()});
}

} // namespace omnisim::test

#endif // OMNISIM_TESTS_HELPERS_HH
