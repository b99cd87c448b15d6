/** @file Simulation service tests: JSON protocol parsing, request
 *  dispatch with per-request ids, error isolation, concurrent
 *  submission through the TaskPool, warm-cache serving across service
 *  instances via the RunStore, and graceful shutdown/drain. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "batch/batch.hh"
#include "design/frontend.hh"
#include "designs/common.hh"
#include "helpers.hh"
#include "io/run_store.hh"
#include "obs/log.hh"
#include "serve/json.hh"
#include "serve/service.hh"
#include "support/sync.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define OMNISIM_TEST_UNIX_SOCKETS 1
#endif

namespace omnisim
{
namespace
{

namespace fs = std::filesystem;
using serve::JsonValue;
using serve::SimService;

struct TempDir
{
    std::string path;

    explicit TempDir(const std::string &tag)
        : path(test::scratchDir("serve_" + tag).string())
    {}

    ~TempDir() { fs::remove_all(path); }
};

/** Handle a line and parse the response. */
JsonValue
ask(SimService &svc, const std::string &line)
{
    return JsonValue::parse(svc.handle(line));
}

std::uint64_t
numField(const JsonValue &v, const char *key)
{
    const JsonValue *f = v.find(key);
    EXPECT_NE(f, nullptr) << key;
    return f ? f->asU64(key, ~0ull) : 0;
}

std::string
strField(const JsonValue &v, const char *key)
{
    const JsonValue *f = v.find(key);
    EXPECT_NE(f, nullptr) << key;
    return f ? f->str() : "";
}

bool
okField(const JsonValue &v)
{
    const JsonValue *f = v.find("ok");
    return f && f->isBool() && f->boolean();
}

// ---------------------------------------------------------------------------
// JSON layer.
// ---------------------------------------------------------------------------

TEST(ServeJson, ParsesScalarsObjectsAndArrays)
{
    const JsonValue v = JsonValue::parse(
        R"({"a":1,"b":-2.5,"c":"x\ny","d":[true,false,null],"e":{"f":3}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("a")->number(), 1.0);
    EXPECT_EQ(v.find("b")->number(), -2.5);
    EXPECT_EQ(v.find("c")->str(), "x\ny");
    ASSERT_TRUE(v.find("d")->isArray());
    EXPECT_EQ(v.find("d")->array().size(), 3u);
    EXPECT_TRUE(v.find("d")->array()[2].isNull());
    EXPECT_EQ(v.find("e")->find("f")->number(), 3.0);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServeJson, UnicodeEscapesDecodeToUtf8)
{
    EXPECT_EQ(JsonValue::parse(R"("\u0041\u00e9")").str(), "A\xc3\xa9");
    EXPECT_EQ(JsonValue::parse(R"("\ud83d\ude00")").str(),
              "\xf0\x9f\x98\x80"); // surrogate pair
    EXPECT_THROW(JsonValue::parse(R"("\ud83d")"), FatalError);
}

TEST(ServeJson, MalformedInputThrowsNeverCrashes)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\":}", "tru", "{\"a\" 1}", "\"unterminated",
          "{\"a\":1}trailing", "nan", "01", "-", "{\"a\":1,}",
          "\"bad \\q escape\"", "[\"\\u12zz\"]"}) {
        EXPECT_THROW(JsonValue::parse(bad), FatalError) << bad;
    }
    // Depth bomb: rejected by the nesting cap, not a stack overflow.
    EXPECT_THROW(JsonValue::parse(std::string(4096, '[')), FatalError);
}

TEST(ServeJson, DumpRoundTripsAndEscapes)
{
    const JsonValue v =
        JsonValue::parse(R"({"s":"a\"b\\c\n","n":[1,2.5,-3]})");
    const JsonValue again = JsonValue::parse(v.dump());
    EXPECT_EQ(again.find("s")->str(), "a\"b\\c\n");
    EXPECT_EQ(again.find("n")->array()[1].number(), 2.5);
}

TEST(ServeJson, U64IntegersAboveTwoPow53RoundTripExactly)
{
    // Ids, depths and cycle counts are 64-bit; routing them through a
    // double silently corrupts anything above 2^53.
    for (const std::uint64_t v :
         {std::uint64_t{9007199254740993ull},    // 2^53 + 1
          std::uint64_t{1234567890123456789ull},
          std::uint64_t{18446744073709551615ull}}) { // u64 max
        const std::string text = strf("%llu",
            static_cast<unsigned long long>(v));
        const JsonValue parsed = JsonValue::parse(text);
        EXPECT_TRUE(parsed.isExactInt()) << text;
        EXPECT_EQ(parsed.asU64("v", ~0ull), v);
        EXPECT_EQ(parsed.dump(), text); // parse -> dump is bit-exact
    }
}

TEST(ServeJson, I64IntegersRoundTripExactly)
{
    EXPECT_EQ(JsonValue::parse("-9223372036854775808").asI64("v"),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(JsonValue::parse("-9007199254740993").asI64("v"),
              -9007199254740993ll);
    EXPECT_EQ(JsonValue::parse("-9223372036854775808").dump(),
              "-9223372036854775808");
    EXPECT_EQ(JsonValue::makeInt(-42).dump(), "-42");
    EXPECT_EQ(JsonValue::makeUInt(18446744073709551615ull).dump(),
              "18446744073709551615");
    // u64 max does not fit i64.
    EXPECT_THROW(JsonValue::parse("18446744073709551615").asI64("v"),
                 FatalError);
}

TEST(ServeJson, OutOfRangeNumbersAreProtocolErrorsNotTruncations)
{
    // Beyond u64: parses as a lossy double, but integer extraction must
    // refuse rather than truncate.
    const JsonValue beyond = JsonValue::parse("18446744073709551616");
    EXPECT_FALSE(beyond.isExactInt());
    EXPECT_THROW(beyond.asU64("v", ~0ull), FatalError);
    // Exponent form above 2^53: the true value is unknowable.
    EXPECT_THROW(JsonValue::parse("9.1e18").asU64("v", ~0ull),
                 FatalError);
    // Small exponent forms are still fine (exactly representable).
    EXPECT_EQ(JsonValue::parse("1e3").asU64("v", ~0ull), 1000u);
    // Fractions, negatives, overflow vs caller maximum.
    EXPECT_THROW(JsonValue::parse("12.5").asU64("v", ~0ull), FatalError);
    EXPECT_THROW(JsonValue::parse("-1").asU64("v", ~0ull), FatalError);
    EXPECT_THROW(JsonValue::parse("256").asU64("v", 255), FatalError);
    // Overflowing doubles are rejected at parse (JSON has no inf).
    EXPECT_THROW(JsonValue::parse("1e999"), FatalError);
}

TEST(ServeJson, BuilderEmitsExact64BitIntegers)
{
    serve::JsonBuilder b;
    b.key("u").num(std::uint64_t{18446744073709551615ull});
    b.key("i").num(std::int64_t{-9223372036854775807ll - 1});
    b.key("w").num(Value{-5}); // Value routes through the signed lane
    const JsonValue v = JsonValue::parse(b.finish());
    EXPECT_EQ(v.find("u")->asU64("u", ~0ull), 18446744073709551615ull);
    EXPECT_EQ(v.find("i")->asI64("i"),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(v.find("w")->asI64("w"), -5);
}

TEST(ServeJson, MalformedSurrogateEscapesAreParseErrors)
{
    // Lone or inverted surrogate halves must never decode to invalid
    // UTF-8 — every malformed shape is a parse error.
    for (const char *bad : {
             R"("\ud800")",        // lone high half
             R"("\udc00")",        // lone low half
             R"("\udc00\ud800")",  // inverted pair
             R"("\ud83d\ud83d")",  // high followed by high
             R"("\ud800A")",       // high followed by a literal
             R"("\ud800\n")",      // high followed by a non-\u escape
             R"("\ud83d\u00e9")", // high followed by a BMP escape
             R"("\ud83d\u")",      // truncated second escape
             R"("\ud83d\udc0")",   // short second escape
         }) {
        EXPECT_THROW(JsonValue::parse(bad), FatalError) << bad;
    }
    // Boundary pairs that are valid must decode to well-formed UTF-8.
    EXPECT_EQ(JsonValue::parse(R"("\ud800\udc00")").str(),
              "\xf0\x90\x80\x80"); // U+10000
    EXPECT_EQ(JsonValue::parse(R"("\udbff\udfff")").str(),
              "\xf4\x8f\xbf\xbf"); // U+10FFFF
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

TEST(SimServiceTest, SimulateMatchesDirectEngineRun)
{
    SimService svc({1, "", {}});
    const JsonValue r = ask(
        svc, R"({"id":7,"op":"simulate","design":"fifo_chain"})");
    ASSERT_TRUE(okField(r)) << r.dump();
    EXPECT_EQ(numField(r, "id"), 7u);
    EXPECT_EQ(strField(r, "op"), "simulate");
    EXPECT_EQ(strField(r, "status"), "Ok");
    EXPECT_EQ(strField(r, "method"), "full");

    const test::Compiled c("fifo_chain");
    const SimResult direct = simulateOmniSim(c.cd);
    EXPECT_EQ(numField(r, "cycles"), direct.totalCycles);
}

TEST(SimServiceTest, ResimulateIsServedIncrementallyAfterSimulate)
{
    SimService svc({1, "", {}});
    ASSERT_TRUE(okField(ask(
        svc, R"({"id":1,"op":"simulate","design":"fifo_chain"})")));
    const JsonValue r = ask(svc,
        R"({"id":2,"op":"resimulate","design":"fifo_chain",)"
        R"("depths":{"a":9,"b":9}})");
    ASSERT_TRUE(okField(r)) << r.dump();
    EXPECT_EQ(strField(r, "method"), "incremental");

    // Ground truth: a fresh engine run at those depths.
    Design d = designs::findDesign("fifo_chain").build();
    d.setFifoDepth(d.fifoByName("a"), 9);
    d.setFifoDepth(d.fifoByName("b"), 9);
    const SimResult fresh = simulateOmniSim(compile(d));
    ASSERT_EQ(fresh.status, SimStatus::Ok);
    EXPECT_EQ(numField(r, "cycles"), fresh.totalCycles);
}

TEST(SimServiceTest, DepthsAcceptArrayForm)
{
    SimService svc({1, "", {}});
    const JsonValue r = ask(svc,
        R"({"id":1,"op":"simulate","design":"fifo_chain",)"
        R"("depths":[3,5]})");
    ASSERT_TRUE(okField(r)) << r.dump();
    EXPECT_EQ(numField(r, "cost"), 8u);
}

TEST(SimServiceTest, ForeignEngineRunsViaScenarioPath)
{
    SimService svc({1, "", {}});
    const JsonValue r = ask(svc,
        R"({"id":1,"op":"simulate","design":"fifo_chain",)"
        R"("engine":"cosim"})");
    ASSERT_TRUE(okField(r)) << r.dump();
    EXPECT_EQ(strField(r, "engine"), "cosim");
    EXPECT_EQ(strField(r, "status"), "Ok");
}

TEST(SimServiceTest, ErrorIsolationKeepsServing)
{
    SimService svc({1, "", {}});

    // Unknown design.
    JsonValue r = ask(
        svc, R"({"id":1,"op":"simulate","design":"no_such_design"})");
    EXPECT_FALSE(okField(r));
    EXPECT_EQ(numField(r, "id"), 1u);
    EXPECT_NE(strField(r, "error").find("no_such_design"),
              std::string::npos);

    // Unknown FIFO in depths.
    r = ask(svc, R"({"id":2,"op":"resimulate","design":"fifo_chain",)"
                 R"("depths":{"zz":4}})");
    EXPECT_FALSE(okField(r));

    // Malformed JSON: id unknown, still a structured error.
    r = JsonValue::parse(svc.handle("{nope"));
    EXPECT_FALSE(okField(r));
    EXPECT_TRUE(r.find("id")->isNull());

    // Missing op / non-object / bad depth types.
    EXPECT_FALSE(okField(ask(svc, R"({"id":3})")));
    EXPECT_FALSE(okField(ask(svc, R"([1,2,3])")));
    EXPECT_FALSE(okField(ask(
        svc, R"({"id":4,"op":"resimulate","design":"fifo_chain",)"
             R"("depths":{"a":-3}})")));
    EXPECT_FALSE(okField(ask(
        svc, R"({"id":5,"op":"simulate","design":"fifo_chain",)"
             R"("engine":"verilator"})")));

    // After all that abuse the service still answers correctly.
    r = ask(svc, R"({"id":6,"op":"simulate","design":"fifo_chain"})");
    EXPECT_TRUE(okField(r)) << r.dump();
    EXPECT_FALSE(svc.shutdownRequested());
}

TEST(SimServiceTest, ErrorResponseCarriesCidAndLogTail)
{
    // Arm the structured logger (quiet: no sink needed — the per-request
    // LogCapture collects warn+ events independently of the sink level).
    setLogQuiet(true);
    obs::setLogEnabled(true);
    SimService svc({1, "", {}});

    // A failing request (FatalError inside the engine layer) must come
    // back as a structured error carrying the request correlation id and
    // the warn+ log tail recorded while serving it.
    const JsonValue bad = ask(
        svc, R"({"id":1,"op":"simulate","design":"no_such_design"})");
    EXPECT_FALSE(okField(bad));
    const std::uint64_t badCid = numField(bad, "cid");
    EXPECT_GT(badCid, 0u);
    const JsonValue *logField = bad.find("log");
    ASSERT_NE(logField, nullptr) << bad.dump();
    ASSERT_FALSE(logField->array().empty());
    bool sawFailureEvent = false;
    for (const JsonValue &e : logField->array()) {
        // Each entry is a full structured event stamped with the same
        // cid the response carries.
        EXPECT_EQ(numField(e, "cid"), badCid);
        EXPECT_NE(e.find("ts_ns"), nullptr);
        EXPECT_NE(e.find("lvl"), nullptr);
        EXPECT_NE(e.find("msg"), nullptr);
        if (strField(e, "event") == "serve.request_failed")
            sawFailureEvent = true;
    }
    EXPECT_TRUE(sawFailureEvent) << bad.dump();
    EXPECT_EQ(bad.find("log_truncated"), nullptr); // nothing dropped

    // The service keeps serving; success responses carry a fresh cid
    // and no log echo.
    const JsonValue ok = ask(
        svc, R"({"id":2,"op":"simulate","design":"fifo_chain"})");
    EXPECT_TRUE(okField(ok)) << ok.dump();
    EXPECT_GT(numField(ok, "cid"), badCid);
    EXPECT_EQ(ok.find("log"), nullptr);

    obs::setLogEnabled(false);
}

TEST(SimServiceTest, DseOpRunsAndReportsFrontier)
{
    SimService svc({1, "", {}});
    const JsonValue r = ask(svc,
        R"({"id":1,"op":"dse","design":"reconvergent","strategy":"grid",)"
        R"("budget":12,"jobs":1})");
    ASSERT_TRUE(okField(r)) << r.dump();
    EXPECT_EQ(strField(r, "strategy"), "grid");
    EXPECT_EQ(numField(r, "jobs"), 1u);
    EXPECT_GE(numField(r, "evaluations"), 1u);
    ASSERT_TRUE(r.find("frontier")->isArray());
    EXPECT_FALSE(r.find("frontier")->array().empty());
    EXPECT_NE(r.find("min_latency"), nullptr);
}

TEST(SimServiceTest, BatchOpRunsScenarios)
{
    SimService svc({1, "", {}});
    const JsonValue r = ask(svc,
        R"({"id":1,"op":"batch","designs":["fifo_chain","fir_filter"],)"
        R"("engines":["omnisim","csim"],"seeds":1,"jobs":2})");
    ASSERT_TRUE(okField(r)) << r.dump();
    EXPECT_EQ(numField(r, "scenarios"), 4u);
    EXPECT_EQ(numField(r, "failed_count"), 0u);
    EXPECT_EQ(r.find("outcomes")->array().size(), 4u);
}

TEST(SimServiceTest, RequestJobsAreCappedAtTheServiceWidth)
{
    // A request may not start more threads than the service runs: 4096
    // resolves to the service's own width, echoed in the response. (A
    // one-scenario batch starts no extra thread even when uncapped.)
    SimService svc({2, "", {}});
    const JsonValue r = ask(svc,
        R"({"id":1,"op":"batch","designs":["fifo_chain"],"seeds":1,)"
        R"("jobs":4096})");
    ASSERT_TRUE(okField(r)) << r.dump();
    EXPECT_EQ(numField(r, "scenarios"), 1u);
    EXPECT_EQ(numField(r, "jobs"), svc.jobs());
}

TEST(SimServiceTest, ListAndStatsOps)
{
    SimService svc({1, "", {}});
    const JsonValue list = ask(svc, R"({"id":1,"op":"list"})");
    ASSERT_TRUE(okField(list));
    EXPECT_GT(list.find("designs")->array().size(), 10u);

    const JsonValue stats = ask(svc, R"({"id":2,"op":"stats"})");
    ASSERT_TRUE(okField(stats));
    EXPECT_TRUE(stats.find("store")->isNull());
}

TEST(SimServiceTest, StatsReportsUptimeInflightAndPerOpRequests)
{
    SimService svc({1, "", {}});
    ask(svc, R"({"id":1,"op":"list"})");
    const JsonValue stats = ask(svc, R"({"id":2,"op":"stats"})");
    ASSERT_TRUE(okField(stats));

    const JsonValue *uptime = stats.find("uptime_seconds");
    ASSERT_NE(uptime, nullptr);
    EXPECT_GE(uptime->number(), 0.0);

    const JsonValue *inflight = stats.find("inflight");
    ASSERT_NE(inflight, nullptr);
    // handle() runs synchronously here, so the stats request itself is
    // the only one in flight.
    EXPECT_GE(inflight->number(), 1.0);

    // Per-op request accounting. The obs registry is process-global,
    // so counts are >= what this service served — like a Prometheus
    // scrape — but every known op must be present with its quantiles.
    const JsonValue *reqs = stats.find("requests");
    ASSERT_NE(reqs, nullptr);
    for (const char *op : {"simulate", "resimulate", "list", "stats"}) {
        const JsonValue *entry = reqs->find(op);
        ASSERT_NE(entry, nullptr) << "missing op " << op;
        ASSERT_NE(entry->find("count"), nullptr);
        ASSERT_NE(entry->find("errors"), nullptr);
        ASSERT_NE(entry->find("p50_us"), nullptr);
        ASSERT_NE(entry->find("p99_us"), nullptr);
    }
    EXPECT_GE(reqs->find("list")->find("count")->number(), 1.0);
    ASSERT_NE(stats.find("queue_wait"), nullptr);
}

namespace
{
/** Counter value from a `metrics` response (0 when absent). */
double
metricsCounter(const JsonValue &r, const std::string &name)
{
    const JsonValue *m = r.find("metrics");
    if (!m)
        return 0.0;
    const JsonValue *counters = m->find("counters");
    const JsonValue *c = counters ? counters->find(name) : nullptr;
    return c ? c->number() : 0.0;
}
} // namespace

TEST(SimServiceTest, MetricsOpCountsPerOpAndReportsQuantiles)
{
    SimService svc({1, "", {}});
    const JsonValue before = ask(svc, R"({"id":1,"op":"metrics"})");
    ASSERT_TRUE(okField(before));
    const double sim0 = metricsCounter(before, "serve.requests.simulate");
    const double resim0 =
        metricsCounter(before, "serve.requests.resimulate");

    constexpr int kSimulates = 3;
    for (int i = 0; i < kSimulates; ++i)
        ASSERT_TRUE(okField(ask(
            svc, R"({"id":10,"op":"simulate","design":"fifo_chain"})")));
    ASSERT_TRUE(okField(
        ask(svc, R"({"id":11,"op":"resimulate","design":"fifo_chain"})")));

    const JsonValue after = ask(svc, R"({"id":2,"op":"metrics"})");
    ASSERT_TRUE(okField(after));
    // Delta-based: the registry is process-global, so only the growth
    // caused by the requests above is attributable to this test.
    EXPECT_EQ(metricsCounter(after, "serve.requests.simulate") - sim0,
              kSimulates);
    EXPECT_EQ(metricsCounter(after, "serve.requests.resimulate") - resim0,
              1.0);

    const JsonValue *m = after.find("metrics");
    ASSERT_NE(m, nullptr);
    const JsonValue *hists = m->find("histograms");
    ASSERT_NE(hists, nullptr);
    const JsonValue *lat = hists->find("serve.request_us.simulate");
    ASSERT_NE(lat, nullptr) << "per-op latency histogram missing";
    ASSERT_NE(lat->find("p50"), nullptr);
    ASSERT_NE(lat->find("p99"), nullptr);
    const double p50 = lat->find("p50")->number();
    const double p99 = lat->find("p99")->number();
    EXPECT_GT(p50, 0.0) << "simulate latencies are ms-scale; p50 of 0 "
                           "means the histogram never recorded";
    EXPECT_LE(p50, p99);
}

TEST(SimServiceTest, MetricsOpPrometheusFormat)
{
    SimService svc({1, "", {}});
    ask(svc, R"({"id":1,"op":"list"})");
    const JsonValue r =
        ask(svc, R"({"id":2,"op":"metrics","format":"prometheus"})");
    ASSERT_TRUE(okField(r));
    const JsonValue *prom = r.find("prometheus");
    ASSERT_NE(prom, nullptr);
    EXPECT_NE(prom->str().find("omnisim_serve_requests_list"),
              std::string::npos);
    EXPECT_NE(prom->str().find("# TYPE"), std::string::npos);
}

TEST(SimServiceTest, ShutdownSetsFlagAndEchoesId)
{
    SimService svc({1, "", {}});
    EXPECT_FALSE(svc.shutdownRequested());
    const JsonValue r =
        ask(svc, R"({"id":"bye","op":"shutdown"})");
    EXPECT_TRUE(okField(r));
    EXPECT_EQ(r.find("id")->str(), "bye");
    EXPECT_TRUE(svc.shutdownRequested());
}

// ---------------------------------------------------------------------------
// Concurrency and transports.
// ---------------------------------------------------------------------------

TEST(SimServiceTest, ConcurrentSubmissionsAllAnswer)
{
    SimService svc({4, "", {}});
    constexpr int kRequests = 24;

    sync::Mutex mu;
    std::vector<JsonValue> responses;
    for (int i = 0; i < kRequests; ++i) {
        const std::uint32_t depth = 2 + (i % 6);
        svc.submit(strf("{\"id\":%d,\"op\":\"resimulate\","
                        "\"design\":\"fifo_chain\","
                        "\"depths\":{\"a\":%u}}", i, depth),
                   [&](std::string line) {
                       sync::LockGuard lock(mu);
                       responses.push_back(JsonValue::parse(line));
                   });
    }
    svc.drain();

    ASSERT_EQ(responses.size(), static_cast<std::size_t>(kRequests));
    std::vector<bool> seen(kRequests, false);
    for (const JsonValue &r : responses) {
        EXPECT_TRUE(okField(r)) << r.dump();
        const auto id = static_cast<std::size_t>(numField(r, "id"));
        ASSERT_LT(id, seen.size());
        EXPECT_FALSE(seen[id]) << "duplicate response for id " << id;
        seen[id] = true;
    }
    EXPECT_EQ(svc.requestsServed(), static_cast<std::uint64_t>(kRequests));

    // Determinism across the concurrent path: equal depths answered
    // with equal cycles.
    std::map<std::uint64_t, std::uint64_t> byCost;
    for (const JsonValue &r : responses) {
        const std::uint64_t cost = numField(r, "cost");
        const std::uint64_t cycles = numField(r, "cycles");
        const auto [it, fresh] = byCost.emplace(cost, cycles);
        EXPECT_EQ(it->second, cycles) << "cost " << cost;
        (void)fresh;
    }
}

TEST(SimServiceTest, WarmStartAcrossServiceInstances)
{
    TempDir dir("svc_warm");

    // Service instance 1 pays for the trace and publishes it.
    {
        SimService svc({1, dir.path, {}});
        const JsonValue r = ask(
            svc, R"({"id":1,"op":"simulate","design":"reconvergent"})");
        ASSERT_TRUE(okField(r)) << r.dump();
        EXPECT_EQ(strField(r, "method"), "full");
    }

    // Instance 2 — a fresh "process" — serves resimulate incrementally
    // from the stored run without any full engine run.
    {
        SimService svc({1, dir.path, {}});
        const JsonValue r = ask(svc,
            R"({"id":2,"op":"resimulate","design":"reconvergent"})");
        ASSERT_TRUE(okField(r)) << r.dump();
        EXPECT_EQ(strField(r, "method"), "incremental");
    }
}

TEST(SimServiceTest, ConcurrentPublishesAndWarmStartsShareTheStore)
{
    // Two workers over one store: simulate requests at fresh depths
    // publish their runs while other requests warm-start reconvergent
    // from the run an earlier instance published, and resimulate
    // requests probe the runs published so far.
    TempDir dir("svc_concurrent_store");
    {
        SimService first({1, dir.path, {}});
        ASSERT_TRUE(okField(ask(
            first, R"({"id":0,"op":"simulate","design":"reconvergent"})")));
    }

    constexpr int kRounds = 8;
    sync::Mutex mu;
    std::vector<JsonValue> responses;
    {
        SimService svc({2, dir.path, {}});
        const auto submit = [&](const std::string &line) {
            svc.submit(line, [&](std::string out) {
                sync::LockGuard lock(mu);
                responses.push_back(JsonValue::parse(out));
            });
        };
        for (int i = 0; i < kRounds; ++i) {
            submit(strf("{\"id\":%d,\"op\":\"simulate\","
                        "\"design\":\"fifo_chain\","
                        "\"depths\":{\"a\":%d}}", 3 * i, 10 + i));
            submit(strf("{\"id\":%d,\"op\":\"resimulate\","
                        "\"design\":\"reconvergent\","
                        "\"depths\":{\"fast\":%d}}", 3 * i + 1,
                        4 + i % 3));
            submit(strf("{\"id\":%d,\"op\":\"resimulate\","
                        "\"design\":\"fifo_chain\","
                        "\"depths\":{\"b\":%d}}", 3 * i + 2, 3 + i));
        }
        svc.drain();
    }

    ASSERT_EQ(responses.size(), static_cast<std::size_t>(3 * kRounds));
    for (const JsonValue &r : responses) {
        ASSERT_TRUE(okField(r)) << r.dump();
        EXPECT_EQ(strField(r, "status"), "Ok") << r.dump();
        // The reconvergent pool starts from the stored run, and every
        // probe of it keeps its recorded constraints.
        if (numField(r, "id") % 3 == 1) {
            EXPECT_EQ(strField(r, "method"), "incremental") << r.dump();
        }
    }

    // Every published file is whole: each one reopens. (A resimulate
    // that finds the fifo_chain pool still empty runs and publishes
    // too, so there may be more files than simulate requests.)
    const io::RunStore store(dir.path);
    const Design chain = designs::findDesign("fifo_chain").build();
    const std::size_t published = store.count("fifo_chain", "omnisim");
    EXPECT_GE(published, static_cast<std::size_t>(kRounds));
    EXPECT_EQ(store.loadAll("fifo_chain", "omnisim",
                            io::designFingerprint(chain), 64)
                  .size(),
              published);
}

TEST(SimServiceTest, ServeLinesDrainsAndAnswersShutdownLast)
{
    SimService svc({2, "", {}});
    std::istringstream in(
        "{\"id\":1,\"op\":\"simulate\",\"design\":\"fifo_chain\"}\n"
        "\n" // blank lines are ignored
        "{\"id\":2,\"op\":\"resimulate\",\"design\":\"fifo_chain\","
        "\"depths\":{\"b\":6}}\n"
        "{\"id\":3,\"op\":\"shutdown\"}\n"
        "{\"id\":4,\"op\":\"simulate\",\"design\":\"fifo_chain\"}\n");
    std::ostringstream out;
    EXPECT_EQ(serve::serveLines(svc, in, out), 0);
    EXPECT_TRUE(svc.shutdownRequested());

    std::vector<JsonValue> responses;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line))
        responses.push_back(JsonValue::parse(line));

    // Three responses: the request after shutdown is never read.
    ASSERT_EQ(responses.size(), 3u);
    for (const JsonValue &r : responses)
        EXPECT_TRUE(okField(r)) << r.dump();
    // Shutdown answers last, after the drain.
    EXPECT_EQ(numField(responses.back(), "id"), 3u);
}

TEST(SimServiceTest, UnterminatedFinalLineStillAnswered)
{
    SimService svc({1, "", {}});
    std::istringstream in(R"({"id":1,"op":"stats"})"); // no newline
    std::ostringstream out;
    EXPECT_EQ(serve::serveLines(svc, in, out), 0);
    const JsonValue r = JsonValue::parse(out.str());
    EXPECT_TRUE(okField(r)) << r.dump();
    EXPECT_EQ(numField(r, "id"), 1u);
}

TEST(SimServiceTest, OversizedRequestLineIsRejectedNotBuffered)
{
    // One endless line must not OOM the resident service: it earns a
    // structured error and the session keeps serving.
    SimService svc({1, "", {}});
    std::string input((2u << 20), 'x');
    input += "\n{\"id\":1,\"op\":\"stats\"}\n{\"id\":2,\"op\":"
             "\"shutdown\"}\n";
    std::istringstream in(input);
    std::ostringstream out;
    EXPECT_EQ(serve::serveLines(svc, in, out), 0);

    std::vector<JsonValue> responses;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line))
        responses.push_back(JsonValue::parse(line));
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_FALSE(okField(responses[0]));
    EXPECT_NE(strField(responses[0], "error").find("exceeds"),
              std::string::npos);
    EXPECT_TRUE(okField(responses[1]));
    EXPECT_TRUE(okField(responses[2]));
    EXPECT_EQ(numField(responses.back(), "id"), 2u);
}

#ifdef OMNISIM_TEST_UNIX_SOCKETS

/** Connect to a Unix socket, retrying while the server binds. */
int
connectWithRetry(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    path.copy(addr.sun_path, path.size());
    for (int attempt = 0; attempt < 400; ++attempt) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return -1;
}

void
sendAll(int fd, const std::string &text)
{
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n =
            ::send(fd, text.data() + off, text.size() - off, 0);
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }
}

std::string
recvLine(int fd)
{
    std::string out;
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1 && c != '\n')
        out += c;
    return out;
}

TEST(SimServiceTest, ClientDisconnectMidResponseDoesNotKillService)
{
    // Regression: a client that sends a request and vanishes before
    // reading the response used to be able to take the resident service
    // down (SIGPIPE on the dead socket, or an EINTR treated as a fatal
    // accept/read error). The service must shrug and keep serving.
    TempDir dir("svc_sock");
    const std::string path = dir.path + "/sock";

    SimService svc({2, "", {}});
    int rc = -1;
    std::thread server(
        [&] { rc = serve::serveUnixSocket(svc, path); });

    // Client 1: fire a real request, then slam the connection shut
    // without reading a byte of the response.
    {
        const int fd = connectWithRetry(path);
        ASSERT_GE(fd, 0);
        sendAll(fd,
                "{\"id\":1,\"op\":\"simulate\","
                "\"design\":\"fifo_chain\"}\n");
        ::close(fd);
    }

    // Client 2: the service must still answer, then shut down cleanly.
    {
        const int fd = connectWithRetry(path);
        ASSERT_GE(fd, 0);
        sendAll(fd, "{\"id\":2,\"op\":\"stats\"}\n");
        const JsonValue stats = JsonValue::parse(recvLine(fd));
        EXPECT_TRUE(okField(stats)) << stats.dump();
        EXPECT_EQ(numField(stats, "id"), 2u);
        sendAll(fd, "{\"id\":3,\"op\":\"shutdown\"}\n");
        const JsonValue bye = JsonValue::parse(recvLine(fd));
        EXPECT_TRUE(okField(bye)) << bye.dump();
        ::close(fd);
    }

    server.join();
    EXPECT_EQ(rc, 0);
    EXPECT_TRUE(svc.shutdownRequested());
}

#endif // OMNISIM_TEST_UNIX_SOCKETS

TEST(TaskPoolTest, ExecutesDrainsAndIsolatesExceptions)
{
    batch::TaskPool pool(3);
    EXPECT_EQ(pool.jobs(), 3u);

    std::atomic<int> ran{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    // A throwing task must not take a worker down.
    pool.submit([] { throw std::runtime_error("task bug"); });
    for (int i = 0; i < 50; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 100);
    EXPECT_EQ(pool.completed(), 101u);

    // drain() on an idle pool returns immediately.
    pool.drain();
}

} // namespace
} // namespace omnisim
