/**
 * @file
 * Windowed-telemetry tests: Series delta bookkeeping (Σ per-window
 * deltas == end-of-run totals, exactly), deterministic JSON/CSV
 * renderings, the explain report's attribution heuristics on
 * synthetic series, percentileMid accuracy, MetricsSnapshot::diff
 * edge cases, and end-to-end telemetry over real scenario runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "counter_schema.hh"
#include "json_check.hh"
#include "sim/trace.hh"
#include "stats/explain.hh"
#include "stats/histogram.hh"
#include "stats/metrics.hh"
#include "stats/timeseries.hh"
#include "workload/counters.hh"
#include "workload/scenario.hh"

namespace {

using namespace siprox;
using namespace siprox::stats;

TEST(SeriesTest, DeltasSumToTotalsExactly)
{
    Series s("server", 0, "symmetric", "UDP");
    s.beginWindow(0);
    s.counter("msgs", 10);
    s.counter("bytes", 1000);
    s.beginWindow(sim::msecs(100));
    s.counter("msgs", 25);
    s.counter("bytes", 1000); // idle window: zero delta
    s.beginWindow(sim::msecs(200));
    s.counter("msgs", 31);
    s.counter("bytes", 4000);
    s.finish(sim::msecs(250));

    ASSERT_EQ(s.windows().size(), 3u);
    EXPECT_EQ(s.windows()[0].counterOr("msgs"), 10u);
    EXPECT_EQ(s.windows()[1].counterOr("msgs"), 15u);
    EXPECT_EQ(s.windows()[2].counterOr("msgs"), 6u);

    for (const char *name : {"msgs", "bytes"}) {
        std::uint64_t sum = 0;
        for (const Window &w : s.windows())
            sum += w.counterOr(name);
        EXPECT_EQ(sum, s.totals().at(name)) << name;
    }

    // Windows tile the run: starts strictly increase and each window
    // ends where the next begins.
    for (std::size_t i = 0; i + 1 < s.windows().size(); ++i) {
        EXPECT_LT(s.windows()[i].startNs, s.windows()[i + 1].startNs);
        EXPECT_EQ(s.windows()[i].endNs, s.windows()[i + 1].startNs);
    }
    EXPECT_EQ(s.windows().back().endNs, sim::msecs(250));
}

TEST(SeriesTest, NonMonotoneSampleClampsAndGaugeKeepsLastValue)
{
    Series s("m", -1, "", "UDP");
    s.beginWindow(0);
    s.counter("c", 10);
    s.counter("c", 7); // producer bug: clamped to zero delta
    EXPECT_EQ(s.windows()[0].counterOr("c"), 10u);
    s.gauge("g", 1.0);
    s.gauge("g", 2.5);
    EXPECT_DOUBLE_EQ(s.windows()[0].gaugeOr("g"), 2.5);
    // Absent names fall back to the caller's default.
    EXPECT_EQ(s.windows()[0].counterOr("nope", 9u), 9u);
    EXPECT_DOUBLE_EQ(s.windows()[0].gaugeOr("nope", -1.0), -1.0);
}

TimeSeries
syntheticSeries()
{
    TimeSeries ts("synthetic", 7, sim::msecs(100), "UDP");
    Series &server = ts.add("server", 0, "symmetric", "UDP");
    Series &phones = ts.add("phones", -1, "", "UDP");
    // Cumulative feeds over four 100ms windows. The server's blocking
    // wait is ipc-dominated, its recv queue saturates in window #2,
    // and the phone fleet's goodput collapses in window #3.
    const std::uint64_t ipc[] = {80, 160, 240, 320};
    const std::uint64_t lock[] = {20, 40, 60, 80};
    const std::uint64_t busy[] = {300, 600, 900, 1200};
    const std::uint64_t calls[] = {100, 200, 290, 300};
    const double occ[] = {0.2, 0.5, 0.95, 0.97};
    for (int i = 0; i < 4; ++i) {
        sim::SimTime start = sim::msecs(100) * i;
        server.beginWindow(start);
        phones.beginWindow(start);
        server.counter("wait.ipc", ipc[i]);
        server.counter("wait.lockspin", lock[i]);
        // Huge cpu/runqueue waits that the blocking rank must ignore.
        server.counter("wait.cpu", 100000u * (i + 1u));
        server.counter("wait.runqueue", 200000u * (i + 1u));
        server.counter("cpu.busyNs", busy[i]);
        server.gauge("cpu.cores", 4);
        server.gauge("occ.recvQueue", occ[i]);
        phones.counter("phone.callsCompleted", calls[i]);
    }
    server.finish(sim::msecs(400));
    phones.finish(sim::msecs(400));
    ts.setMeasurePhase(0, sim::msecs(400));
    return ts;
}

TEST(ExplainTest, RanksBlockingWaitsAndFindsSaturationBeforeCollapse)
{
    TimeSeries ts = syntheticSeries();
    ExplainReport rep = explain(ts);

    const MachineReport *server = rep.machine("server");
    ASSERT_NE(server, nullptr);
    const PhaseAttribution *measure = server->phase("measure");
    ASSERT_NE(measure, nullptr);
    // cpu/runqueue are excluded from the blocking rank by design.
    EXPECT_EQ(measure->topWait, "ipc");
    ASSERT_EQ(measure->waits.size(), 2u);
    EXPECT_NEAR(measure->waits[0].value, 0.8, 1e-9);
    EXPECT_EQ(measure->waits[1].name, "lockspin");

    // occ.recvQueue crosses 0.9 in window #2.
    EXPECT_EQ(measure->saturationWindow, 2);
    EXPECT_EQ(measure->saturationStartNs, sim::msecs(200));
    EXPECT_EQ(measure->topResource, "recvQueue");

    // Goodput peaks in window #0 (1000/s) and collapses in #3
    // (100/s < half the running peak) — after saturation onset.
    EXPECT_EQ(rep.goodputPeakWindow, 0);
    EXPECT_NEAR(rep.goodputPeakPerSec, 1000.0, 1e-6);
    EXPECT_EQ(rep.goodputCollapseWindow, 3);
    EXPECT_LT(measure->saturationStartNs, rep.goodputCollapseStartNs);

    // Renderings are deterministic and the JSON parses strictly.
    EXPECT_EQ(rep.text(), explain(ts).text());
    auto doc = testjson::parse(rep.toJson());
    EXPECT_EQ(doc->at("goodput").at("collapseWindow").number, 3.0);
}

TEST(ExplainTest, WarmupAndMeasurePhasesSplitOnMeasureStart)
{
    TimeSeries ts = syntheticSeries();
    ts.setMeasurePhase(sim::msecs(200), sim::msecs(400));
    ExplainReport rep = explain(ts);
    const MachineReport *server = rep.machine("server");
    ASSERT_NE(server, nullptr);
    ASSERT_EQ(server->phases.size(), 2u);
    EXPECT_EQ(server->phases[0].phase, "warmup");
    EXPECT_EQ(server->phases[1].phase, "measure");
    // Saturation-onset indexes are global window indexes: warmup never
    // saturates, measure does immediately (window #2).
    EXPECT_EQ(server->phases[0].saturationWindow, -1);
    EXPECT_EQ(server->phases[1].saturationWindow, 2);
}

TEST(ExplainTest, LittleCheckAcceptsLowerBoundAndFlagsDeficit)
{
    TimeSeries ts("little", 1, sim::msecs(100), "UDP");
    Series &s = ts.add("server", 0, "symmetric", "UDP");
    // λ = 100 served / 0.1s = 1000/s; W = 50ms → λ·W = 50 records.
    s.beginWindow(0);
    s.counter("served.count", 100);
    s.gauge("latency.meanMs", 50.0);
    s.gauge("txn.records", 40.0); // within tolerance (err 0.2)
    s.beginWindow(sim::msecs(100));
    s.counter("served.count", 200);
    s.gauge("latency.meanMs", 50.0);
    s.gauge("txn.records", 100.0); // L > λ·W: reclaim lag, fine
    s.beginWindow(sim::msecs(200));
    s.counter("served.count", 300);
    s.gauge("latency.meanMs", 50.0);
    s.gauge("txn.records", 5.0); // err 0.9: inconsistent
    s.finish(sim::msecs(300));

    ExplainReport rep = explain(ts);
    EXPECT_EQ(rep.little.checked, 3);
    EXPECT_EQ(rep.little.consistent, 2);
    EXPECT_NEAR(rep.little.worstError, 0.9, 1e-9);
}

TEST(ExplainTest, KneeIndexFindsMaxChordDistance)
{
    EXPECT_EQ(kneeIndex({1, 2}, {1, 2}), -1);
    EXPECT_EQ(kneeIndex({1, 1, 1}, {1, 2, 3}), -1); // degenerate x
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys = {10, 20, 28, 30, 30};
    EXPECT_EQ(kneeIndex(xs, ys), 2);
}

TEST(HistogramTest, PercentileMidWithinFourPercent)
{
    // Uniform 10us grid over [10us, 100ms]: the exact quantile is
    // known, and the spec pins percentileMid to <= 4% relative error
    // (log buckets with 16 sub-buckets: <= ~3.2% at the midpoint).
    LatencyHistogram h;
    const int n = 10000;
    for (int i = 1; i <= n; ++i)
        h.record(static_cast<sim::SimTime>(i) * 10'000);
    for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
        double exact = static_cast<double>(
                           static_cast<int>(q * n)) // ceil on grid
            * 10'000.0;
        double got = static_cast<double>(h.percentileMid(q));
        EXPECT_NEAR(got, exact, exact * 0.04) << "q=" << q;
    }
    // The digest-pinned upper-bound percentile() is unchanged: it
    // must never report below the true quantile.
    EXPECT_GE(h.percentile(0.5), 50'000'000 / 10'000 * 10'000);
}

TEST(MetricsDiffTest, EdgeCases)
{
    MetricsRegistry reg;
    reg.setCounter("grew", 10);
    reg.setCounter("idle", 5);
    reg.setCounter("shrank", 100); // non-monotone producer
    reg.setGauge("g", 1.0);
    MetricsSnapshot base = reg.snapshot();
    reg.setCounter("grew", 17);
    reg.setCounter("shrank", 90);
    reg.setCounter("fresh", 3); // appears only after the baseline
    reg.setGauge("g", 2.0);
    MetricsSnapshot d = reg.snapshot().diff(base);

    // Moved counters keep their delta; fresh ones their full value.
    EXPECT_EQ(d.counterOr("grew"), 7u);
    EXPECT_EQ(d.counterOr("fresh"), 3u);
    // Zero and clamped-negative deltas are suppressed outright.
    EXPECT_EQ(d.counters().count("idle"), 0u);
    EXPECT_EQ(d.counters().count("shrank"), 0u);
    // A key only in the baseline never appears.
    MetricsRegistry other;
    other.setCounter("fresh", 1);
    EXPECT_EQ(other.snapshot().diff(base).counters().count("grew"),
              0u);
    // Gauges ride along with their current values.
    EXPECT_DOUBLE_EQ(d.gaugeOr("g"), 2.0);
}

workload::Scenario
smallScenario(int window_ms)
{
    workload::Scenario sc =
        workload::paperScenario(core::Transport::Tcp, 8, 0);
    sc.callsPerClient = 12;
    sc.proxy.idleStrategy = core::IdleStrategy::LinearScan;
    sc.telemetry.windowMs = window_ms;
    return sc;
}

TEST(TelemetryRunTest, DisabledByDefault)
{
    workload::Scenario sc = smallScenario(0);
    EXPECT_FALSE(sc.telemetry.enabled());
    workload::RunResult r = workload::runScenario(sc);
    EXPECT_EQ(r.timeseries, nullptr);
}

/**
 * Run @p sc twice and check its telemetry: byte-identical artifacts,
 * windows that tile the run with Σ deltas == totals, and every
 * counter-table row in its series (server or proxy<i>, dispatcher, net)
 * with an end-of-run total equal to the RunResult's value.
 */
workload::RunResult
runAndCheckSeries(const workload::Scenario &sc)
{
    workload::RunResult r = workload::runScenario(sc);
    EXPECT_NE(r.timeseries, nullptr);
    if (!r.timeseries)
        return r;
    const TimeSeries &ts = *r.timeseries;

    // Same seed, same scenario: byte-identical artifacts.
    workload::RunResult r2 = workload::runScenario(sc);
    EXPECT_NE(r2.timeseries, nullptr);
    if (r2.timeseries) {
        EXPECT_EQ(ts.toJson(), r2.timeseries->toJson());
        EXPECT_EQ(ts.toCsv(), r2.timeseries->toCsv());
    }

    // Every series: windows tile the run and Σ deltas == totals.
    EXPECT_FALSE(ts.series().empty());
    for (const auto &s : ts.series()) {
        const auto &wins = s->windows();
        EXPECT_FALSE(wins.empty()) << s->machine();
        for (std::size_t i = 0; i + 1 < wins.size(); ++i) {
            EXPECT_LT(wins[i].startNs, wins[i + 1].startNs);
            EXPECT_EQ(wins[i].endNs, wins[i + 1].startNs);
        }
        for (const auto &[name, total] : s->totals()) {
            std::uint64_t sum = 0;
            for (const Window &w : wins)
                sum += w.counterOr(name);
            EXPECT_EQ(sum, total) << s->machine() << " " << name;
        }
    }

    // The telemetry totals agree exactly with the RunResult counters
    // read at the same instant, for every table row.
    static const std::map<std::string, std::uint64_t, std::less<>>
        kNoSeries;
    auto totals = [&ts](const std::string &machine) -> const auto & {
        const Series *s = ts.find(machine);
        EXPECT_NE(s, nullptr) << machine;
        return s ? s->totals() : kNoSeries;
    };
    using workload::counters::kDispatcher;
    using workload::counters::kNet;
    using workload::counters::kProxy;
    testcounters::expectEveryRow(totals("net"), "net.", r.net, kNet);
    if (r.clusterInstances == 0) {
        testcounters::expectEveryRow(totals("server"), "proxy.",
                                     r.counters, kProxy);
    }
    for (std::size_t i = 0; i < r.instanceCounters.size(); ++i) {
        testcounters::expectEveryRow(totals("proxy" + std::to_string(i)),
                                     "proxy.", r.instanceCounters[i],
                                     kProxy);
    }
    if (r.clusterInstances > 0) {
        testcounters::expectEveryRow(totals("dispatcher"), "dispatcher.",
                                     r.dispatcherStats, kDispatcher);
    }
    const Series *phones = ts.find("phones");
    EXPECT_NE(phones, nullptr);
    if (phones) {
        EXPECT_EQ(phones->totals().at("phone.ops"), r.ops);
        EXPECT_EQ(phones->totals().at("phone.callsCompleted"),
                  r.callsCompleted);
    }
    return r;
}

TEST(TelemetryRunTest, SeriesAreConsistentAndDeterministic)
{
    workload::RunResult cluster =
        runAndCheckSeries(testcounters::telemetryClusterScenario());
    EXPECT_EQ(cluster.clusterInstances, 2);

    workload::RunResult r = runAndCheckSeries(smallScenario(50));
    ASSERT_NE(r.timeseries, nullptr);
    const TimeSeries &ts = *r.timeseries;
    const Series *server = ts.find("server");
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(server->hop(), 0);
    EXPECT_EQ(server->arch(), "supervisor");

    // Serve-latency gauges appear once the proxy served anything.
    bool saw_latency = false;
    for (const Window &w : server->windows())
        saw_latency |= w.gauges.count("latency.p95Ms") > 0;
    EXPECT_TRUE(saw_latency);

    // The exported JSON parses strictly and carries the meta block.
    auto doc = testjson::parse(ts.toJson());
    EXPECT_EQ(doc->at("meta").at("windowNs").number,
              static_cast<double>(sim::msecs(50)));
    EXPECT_TRUE(doc->at("series").isArray());
}

TEST(TelemetryRunTest, RecorderFeedsWaitRanking)
{
    // 2ms windows: the whole 8-client run lasts ~16ms of simulated
    // time, so wider windows would fold the measured phase into the
    // warmup window that contains the registration burst.
    sim::trace::Recorder rec(
        sim::trace::Recorder::Options{1u << 14});
    sim::trace::setRecorder(&rec);
    workload::RunResult r = workload::runScenario(smallScenario(2));
    sim::trace::setRecorder(nullptr);
    ASSERT_NE(r.timeseries, nullptr);

    ExplainReport rep = explain(*r.timeseries);
    const MachineReport *server = rep.machine("server");
    ASSERT_NE(server, nullptr);
    const PhaseAttribution *measure = server->phase("measure");
    ASSERT_NE(measure, nullptr);
    // The supervisor/worker TCP proxy blocks on fd-passing IPC; with
    // the recorder attached the rank must surface it.
    EXPECT_EQ(measure->topWait, "ipc");
    EXPECT_FALSE(measure->topResource.empty());
    // Little's law holds on every thick-enough window.
    EXPECT_GT(rep.little.checked, 0);
    EXPECT_EQ(rep.little.consistent, rep.little.checked);
}

} // namespace
