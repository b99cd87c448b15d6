#include "io/run_store.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "io/serial.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace fs = std::filesystem;

namespace omnisim::io
{

namespace
{

/** Make a name filesystem-safe and unambiguous: [A-Za-z0-9_-] pass
 *  through, everything else becomes %XX. */
std::string
sanitize(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (safe)
            out += c;
        else
            out += strf("%%%02X", static_cast<unsigned char>(c));
    }
    return out;
}

/** Process-unique suffix for temporary publication files. */
std::string
tempSuffix()
{
    static std::atomic<std::uint64_t> counter{0};
    return strf(".tmp-%llu-%llu",
                static_cast<unsigned long long>(::getpid()),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));
}

} // namespace

RunStore::RunStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        omnisim_fatal("run store: cannot create directory '%s' (%s)",
                      dir_.c_str(), ec.message().c_str());
}

std::string
RunStore::prefixFor(const std::string &design,
                    const std::string &engine) const
{
    return sanitize(design) + "." + sanitize(engine) + ".";
}

std::string
RunStore::pathFor(const std::string &design, const std::string &engine,
                  const std::vector<std::uint32_t> &depths) const
{
    return (fs::path(dir_) /
            (prefixFor(design, engine) +
             strf("%016llx", static_cast<unsigned long long>(
                                 depthVectorHash(depths))) +
             ".omnirun"))
        .string();
}

namespace {

// Store instrumentation handles, resolved once per process.
struct StoreMetrics
{
    obs::Counter &publishes =
        obs::Registry::global().counter("store.publishes");
    obs::Counter &publishFails =
        obs::Registry::global().counter("store.publish_fails");
    obs::Counter &loadHits =
        obs::Registry::global().counter("store.load_hits");
    obs::Counter &loadMisses =
        obs::Registry::global().counter("store.load_misses");
    obs::Histogram &publishUs =
        obs::Registry::global().histogram("store.publish_us");

    static StoreMetrics &get()
    {
        static StoreMetrics m;
        return m;
    }
};

} // namespace

bool
RunStore::publish(const std::string &design, const std::string &engine,
                  std::uint64_t fingerprint, const RunRecord &run) const
{
    StoreMetrics &sm = StoreMetrics::get();
    OMNISIM_SPAN("store.publish");
    obs::ScopedLatencyUs timer(sm.publishUs);

    RunFileMeta meta;
    meta.design = design;
    meta.engine = engine;
    meta.fingerprint = fingerprint;
    const std::string image = encodeRun(meta, run);

    const std::string finalPath = pathFor(design, engine, run.depths);
    const std::string tmpPath = finalPath + tempSuffix();

    std::FILE *f = std::fopen(tmpPath.c_str(), "wb");
    if (!f) {
        warn(strf("run store: cannot write '%s'", tmpPath.c_str()));
        sm.publishFails.add();
        return false;
    }
    const bool wrote =
        std::fwrite(image.data(), 1, image.size(), f) == image.size();
    const bool flushed = std::fclose(f) == 0;
    if (!wrote || !flushed) {
        std::remove(tmpPath.c_str());
        warn(strf("run store: short write publishing '%s'",
                  finalPath.c_str()));
        sm.publishFails.add();
        return false;
    }

    std::error_code ec;
    fs::rename(tmpPath, finalPath, ec); // atomic within one directory
    if (ec) {
        std::remove(tmpPath.c_str());
        warn(strf("run store: cannot publish '%s' (%s)",
                  finalPath.c_str(), ec.message().c_str()));
        sm.publishFails.add();
        return false;
    }
    sm.publishes.add();
    OMNISIM_LOG_DEBUG("store.publish", "design=%s engine=%s path=%s",
                      design.c_str(), engine.c_str(), finalPath.c_str());
    return true;
}

std::unique_ptr<StoredRun>
RunStore::load(const std::string &design, const std::string &engine,
               std::uint64_t fingerprint,
               const std::vector<std::uint32_t> &depths) const
{
    StoreMetrics &sm = StoreMetrics::get();
    const std::string path = pathFor(design, engine, depths);
    std::error_code ec;
    if (!fs::exists(path, ec) || ec) {
        sm.loadMisses.add();
        return nullptr;
    }
    try {
        std::unique_ptr<StoredRun> run = StoredRun::open(path);
        if (run->meta().design != design ||
            run->meta().engine != engine ||
            run->meta().fingerprint != fingerprint ||
            run->baseDepths() != depths) {
            sm.loadMisses.add();
            return nullptr; // stale design or a depth-hash collision
        }
        sm.loadHits.add();
        return run;
    } catch (const FatalError &e) {
        warn(strf("run store: ignoring unreadable '%s': %s",
                  path.c_str(), e.what()));
        sm.loadMisses.add();
        return nullptr;
    }
}

std::vector<std::unique_ptr<StoredRun>>
RunStore::loadAll(const std::string &design, const std::string &engine,
                  std::uint64_t fingerprint, std::size_t maxCount) const
{
    StoreMetrics &sm = StoreMetrics::get();
    OMNISIM_SPAN("store.load_all");
    std::vector<std::unique_ptr<StoredRun>> out;
    const std::string prefix = prefixFor(design, engine);

    std::vector<std::string> paths;
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec), end;
         !ec && it != end; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (name.size() > prefix.size() &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.size() > 8 &&
            name.compare(name.size() - 8, 8, ".omnirun") == 0)
            paths.push_back(it->path().string());
    }
    std::sort(paths.begin(), paths.end());

    for (const std::string &path : paths) {
        if (out.size() >= maxCount)
            break;
        try {
            std::unique_ptr<StoredRun> run = StoredRun::open(path);
            if (run->meta().design != design ||
                run->meta().engine != engine ||
                run->meta().fingerprint != fingerprint) {
                sm.loadMisses.add(); // stale design
                continue;
            }
            out.push_back(std::move(run));
        } catch (const FatalError &e) {
            warn(strf("run store: ignoring unreadable '%s': %s",
                      path.c_str(), e.what()));
            sm.loadMisses.add();
        }
    }
    sm.loadHits.add(out.size());
    OMNISIM_LOG_DEBUG("store.load_all", "design=%s engine=%s loaded=%zu",
                      design.c_str(), engine.c_str(), out.size());
    return out;
}

std::size_t
RunStore::count(const std::string &design, const std::string &engine) const
{
    const std::string prefix = prefixFor(design, engine);
    std::size_t n = 0;
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec), end;
         !ec && it != end; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (name.size() > prefix.size() &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.size() > 8 &&
            name.compare(name.size() - 8, 8, ".omnirun") == 0)
            ++n;
    }
    return n;
}

} // namespace omnisim::io
