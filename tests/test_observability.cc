/**
 * @file
 * End-to-end observability tests over real scenario runs: recording
 * must not perturb the simulation (byte-identical digests), per-call
 * span decompositions must sum exactly to the end-to-end duration,
 * the fd cache must visibly remove fd-passing IPC wait time, and the
 * exported artifacts (timeline JSON, metrics JSON) must be well
 * formed.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "counter_schema.hh"
#include "json_check.hh"
#include "sim/trace.hh"
#include "workload/counters.hh"
#include "workload/scenario.hh"

namespace {

using namespace siprox;
using namespace siprox::workload;
namespace tr = sim::trace;

struct RecorderGuard
{
    ~RecorderGuard() { tr::setRecorder(nullptr); }
};

Scenario
tcpScenario(bool fd_cache)
{
    Scenario sc = paperScenario(core::Transport::Tcp, 8, 0);
    sc.callsPerClient = 12;
    sc.proxy.fdCache = fd_cache;
    sc.proxy.idleStrategy = core::IdleStrategy::LinearScan;
    return sc;
}

TEST(ObservabilityTest, RecordingDoesNotPerturbTheRun)
{
    RecorderGuard guard;
    RunResult plain = runScenario(tcpScenario(false));

    tr::Recorder rec;
    tr::setRecorder(&rec);
    RunResult recorded = runScenario(tcpScenario(false));
    tr::setRecorder(nullptr);

    // The recorder observes; it must never change scheduling, counters
    // or timing. Byte-identical digests prove it.
    EXPECT_EQ(plain.digest(), recorded.digest());
    EXPECT_GT(rec.eventCount(), 0u);
}

TEST(ObservabilityTest, EverySpanDecompositionSumsExactly)
{
    RecorderGuard guard;
    tr::Recorder rec;
    tr::setRecorder(&rec);
    RunResult r = runScenario(tcpScenario(false));
    tr::setRecorder(nullptr);

    ASSERT_GT(r.callsCompleted, 0u);
    ASSERT_FALSE(rec.calls().empty());
    for (const auto &[id, cs] : rec.calls()) {
        sim::SimTime sum = 0;
        for (sim::SimTime w : cs.wait)
            sum += w;
        // Exact in integer nanoseconds: every nanosecond between span
        // begin and end is attributed to exactly one wait state.
        EXPECT_EQ(sum, cs.total) << "trace id " << id;
        EXPECT_GT(cs.spans, 0) << "trace id " << id;
    }

    // The server machine recorded spans with real CPU time.
    ASSERT_EQ(rec.machineTotals().count("server"), 1u);
    const auto &server = rec.machineTotals().at("server");
    EXPECT_GT(server.spans, 0);
    EXPECT_GT(server.at(tr::Wait::Cpu), 0);
}

TEST(ObservabilityTest, FdCacheRemovesIpcWait)
{
    RecorderGuard guard;
    tr::Recorder base_rec;
    tr::setRecorder(&base_rec);
    runScenario(tcpScenario(false));
    tr::setRecorder(nullptr);

    tr::Recorder cached_rec;
    tr::setRecorder(&cached_rec);
    runScenario(tcpScenario(true));
    tr::setRecorder(nullptr);

    ASSERT_EQ(base_rec.machineTotals().count("server"), 1u);
    ASSERT_EQ(cached_rec.machineTotals().count("server"), 1u);
    sim::SimTime base_ipc =
        base_rec.machineTotals().at("server").at(tr::Wait::Ipc);
    sim::SimTime cached_ipc =
        cached_rec.machineTotals().at("server").at(tr::Wait::Ipc);
    // Baseline workers block on the supervisor fd round trip for every
    // outbound send; the cache removes most of that wait outright.
    EXPECT_GT(base_ipc, 0);
    EXPECT_LT(cached_ipc, base_ipc);
}

TEST(ObservabilityTest, TimelineJsonHasTheExpectedTracks)
{
    RecorderGuard guard;
    tr::Recorder rec;
    tr::setRecorder(&rec);
    runScenario(tcpScenario(false));
    tr::setRecorder(nullptr);

    std::ostringstream os;
    rec.writeJson(os);
    auto doc = siprox::testjson::parse(os.str());
    ASSERT_TRUE(doc->at("traceEvents").isArray());

    bool saw_server_pid = false, saw_core_track = false;
    bool saw_sched = false, saw_lock = false, saw_wait = false;
    bool saw_span = false, saw_call_async = false;
    for (const auto &evp : doc->at("traceEvents").items) {
        const auto &e = *evp;
        std::string ph = e.at("ph").str;
        if (ph == "M") {
            if (e.at("name").str == "process_name"
                && e.at("args").at("name").str == "server")
                saw_server_pid = true;
            if (e.at("name").str == "thread_name"
                && e.at("args").at("name").str.rfind("core", 0) == 0)
                saw_core_track = true;
            continue;
        }
        if (!e.has("cat"))
            continue;
        std::string cat = e.at("cat").str;
        if (cat == "sched")
            saw_sched = true;
        else if (cat == "lock")
            saw_lock = true;
        else if (cat == "wait")
            saw_wait = true;
        else if (cat == "span")
            saw_span = true;
        else if (cat == "call" && (ph == "b" || ph == "e"))
            saw_call_async = true;
    }
    EXPECT_TRUE(saw_server_pid);
    EXPECT_TRUE(saw_core_track);
    EXPECT_TRUE(saw_sched);
    EXPECT_TRUE(saw_lock);
    EXPECT_TRUE(saw_wait);
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_call_async);
}

/** Every counter-table row is exported under its metrics name with the
 *  RunResult's value: aggregate proxy, network, and in a cluster the
 *  dispatcher and each instance. */
void
expectMetricsCoverEveryRow(const RunResult &r)
{
    stats::MetricsSnapshot m = collectMetrics(r).snapshot();
    const auto &exported = m.counters();
    testcounters::expectEveryRow(exported, "proxy.", r.counters,
                                 counters::kProxy);
    testcounters::expectEveryRow(exported, "net.", r.net, counters::kNet);
    for (std::size_t i = 0; i < r.instanceCounters.size(); ++i) {
        testcounters::expectEveryRow(exported,
                                     "proxy." + std::to_string(i) + ".",
                                     r.instanceCounters[i],
                                     counters::kProxy);
    }
    if (r.clusterInstances > 0) {
        testcounters::expectEveryRow(exported, "dispatcher.",
                                     r.dispatcherStats,
                                     counters::kDispatcher);
    }
}

TEST(ObservabilityTest, CollectMetricsMatchesRunResult)
{
    RunResult cluster =
        runScenario(testcounters::telemetryClusterScenario());
    ASSERT_EQ(cluster.clusterInstances, 2);
    expectMetricsCoverEveryRow(cluster);

    RunResult r = runScenario(tcpScenario(false));
    expectMetricsCoverEveryRow(r);
    stats::MetricsSnapshot m = collectMetrics(r).snapshot();
    EXPECT_EQ(m.counterOr("phone.ops"), r.ops);
    EXPECT_EQ(m.counterOr("phone.callsCompleted"), r.callsCompleted);
    EXPECT_DOUBLE_EQ(m.gaugeOr("run.opsPerSec"), r.opsPerSec);
    // Unknown names fall back to the caller's default.
    EXPECT_EQ(m.counterOr("no.such.counter", 42u), 42u);
    EXPECT_DOUBLE_EQ(m.gaugeOr("no.such.gauge", 1.5), 1.5);

    // Profiler shares surface as gauges under profile.share.*.
    double cpu_share = m.gaugeOr("profile.share.ser:parse_msg", -1);
    EXPECT_GE(cpu_share, 0.0);
    EXPECT_LE(cpu_share, 1.0);

    // JSON export round-trips through a strict parser.
    auto doc = siprox::testjson::parse(m.toJson());
    EXPECT_EQ(doc->at("counters")
                  .at("phone.callsCompleted")
                  .number,
              static_cast<double>(r.callsCompleted));
    EXPECT_TRUE(doc->at("gauges").has("run.opsPerSec"));
}

TEST(ObservabilityTest, MetricsDigestAndDiff)
{
    RunResult a = runScenario(tcpScenario(false));
    RunResult b = runScenario(tcpScenario(false));
    stats::MetricsSnapshot ma = collectMetrics(a).snapshot();
    stats::MetricsSnapshot mb = collectMetrics(b).snapshot();

    // Same scenario, same seed: the counter digest is deterministic.
    EXPECT_EQ(ma.digest(), mb.digest());

    // diff() subtracts counters pairwise, clamping at zero.
    stats::MetricsSnapshot d = mb.diff(ma);
    EXPECT_EQ(d.counterOr("phone.callsCompleted"), 0u);
    stats::MetricsRegistry reg;
    reg.setCounter("x", 10);
    stats::MetricsSnapshot base = reg.snapshot();
    reg.setCounter("x", 25);
    EXPECT_EQ(reg.snapshot().diff(base).counterOr("x"), 15u);
}

} // namespace
