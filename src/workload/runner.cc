#include "workload/scenario.hh"

#include <algorithm>
#include <climits>
#include <memory>
#include <stdexcept>

#include "core/proxy.hh"
#include "net/network.hh"
#include "phone/phone.hh"
#include "sim/mem_stats.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/trace.hh"
#include "stats/histogram.hh"
#include "stats/timeseries.hh"
#include "workload/counters.hh"
#include "workload/topology.hh"

namespace siprox::workload {

namespace {

/** Manager bookkeeping shared with the manager process. */
struct Phases
{
    sim::Latch registered;
    sim::Latch start{1};
    sim::Latch done;
    sim::SimTime measureStart = 0;
    sim::SimTime measureEnd = 0;
    std::vector<sim::SimTime> serverBusyAtStart;
    std::vector<sim::SimTime> clientBusyAtStart;
    bool finished = false;
    /** Time-based mode: set after the measurement window elapses. */
    bool stopCalling = false;
    sim::SimTime window = 0;

    Phases(int phones, int callers)
        : registered(phones), done(callers)
    {
    }
};

/**
 * The manager program (§4.2): waits for every phone to register,
 * starts the measured phase, and records its end.
 */
sim::Task
managerMain(sim::Process &p, Phases *phases,
            std::vector<sim::Machine *> servers,
            std::vector<sim::Machine *> client_machines)
{
    co_await phases->registered.wait(p);
    phases->measureStart = p.sim().now();
    // Profile and utilization cover only the measured phase.
    for (auto *m : servers) {
        m->profiler().reset();
        phases->serverBusyAtStart.push_back(m->scheduler().busyTime());
    }
    for (auto *m : client_machines)
        phases->clientBusyAtStart.push_back(m->scheduler().busyTime());
    if (sim::trace::recording()) {
        sim::trace::recorder()->instant("measure-start",
                                        phases->measureStart);
    }
    phases->start.arrive();
    if (phases->window > 0) {
        co_await p.sleepFor(phases->window);
        phases->stopCalling = true;
    }
    co_await phases->done.wait(p);
    phases->measureEnd = p.sim().now();
    phases->finished = true;
    if (sim::trace::recording()) {
        sim::trace::recorder()->instant("measure-end",
                                        phases->measureEnd);
    }
}

/** Per-hop serve-latency accumulator fed by the overload controller's
 *  served sink: a histogram over the current window (reset at each
 *  boundary) plus the run-cumulative served count. */
struct ServedWindow
{
    stats::LatencyHistogram hist;
    std::uint64_t servedTotal = 0;
};

/**
 * Machine-level telemetry shared by server and client series: CPU busy
 * time (total and per core), lock contention, socket I/O, run-queue
 * depth, and — when a trace recorder is attached — the per-wait-state
 * span totals the explain report ranks.
 */
void
sampleMachine(stats::Series &s, sim::Machine &m, const net::Host &h)
{
    sim::CpuScheduler &sched = m.scheduler();
    s.counter("cpu.busyNs",
              static_cast<std::uint64_t>(sched.busyTime()));
    for (int c = 0; c < sched.cores(); ++c) {
        s.counter("cpu.core" + std::to_string(c) + ".busyNs",
                  static_cast<std::uint64_t>(sched.coreBusyTime(c)));
    }
    s.counter("lock.contendNs",
              static_cast<std::uint64_t>(m.lockContendTime()));
    s.counter("lock.contentions", m.lockContentions());
    const net::HostIoStats &io = h.io();
    s.counter("io.pktsOut", io.pktsOut);
    s.counter("io.bytesOut", io.bytesOut);
    s.counter("io.pktsIn", io.pktsIn);
    s.counter("io.bytesIn", io.bytesIn);
    s.gauge("cpu.cores", sched.cores());
    s.gauge("sched.queued", sched.queued());
    if (sim::trace::recording()) {
        const auto &totals = sim::trace::recorder()->machineTotals();
        auto it = totals.find(m.name());
        if (it != totals.end()) {
            for (std::size_t w = 0; w < sim::trace::kWaitCount; ++w) {
                s.counter("wait."
                              + std::string(sim::trace::waitName(
                                  static_cast<sim::trace::Wait>(w))),
                          static_cast<std::uint64_t>(
                              it->second.wait[w]));
            }
        }
    }
}

/** A forEachCounter sink feeding series @p s. */
auto
into(stats::Series &s)
{
    return [&s](std::string_view name, std::uint64_t v) {
        s.counter(name, v);
    };
}

using Phones = std::vector<std::unique_ptr<phone::Phone>>;

/**
 * One scenario's simulated world: the server topology, client machines,
 * phones, and the manager process. Built in a fixed order — event
 * interleavings, and so every pinned digest, depend on it.
 */
struct World
{
    explicit World(const Scenario &scenario);

    const Scenario &sc;
    sim::Simulation simu;
    net::Network network;
    /** All server-side machine/host/proxy wiring (single proxy, chain,
     *  or dispatched cluster). */
    Topology topo;
    /** Profile/utilization accounting covers every proxy machine plus,
     *  in a cluster, the dispatcher machine (appended last). */
    std::vector<sim::Machine *> profiled;
    std::vector<sim::Machine *> clientMachines;
    std::vector<net::Host *> clientHosts;
    Phases phases;
    Phones callers, callees;
};

World::World(const Scenario &scenario)
    : sc(scenario), simu(sc.seed), network(simu, sc.net),
      topo(simu, network, sc), profiled(topo.profiledMachines()),
      phases(2 * sc.clients, sc.clients)
{
    net::Host &server_host = topo.faultHost(); // what phones talk to
    for (int i = 0; i < sc.clientMachines; ++i) {
        auto &m = simu.addMachine("client" + std::to_string(i),
                                  sc.clientCores);
        clientMachines.push_back(&m);
        clientHosts.push_back(&network.attach(m));
    }

    // Scenario-level fault injection: translate machine indices into
    // host ids now that every host is attached.
    auto for_each_client = [&](int which, auto &&fn) {
        for (int i = 0; i < sc.clientMachines; ++i) {
            if (which < 0 || which == i)
                fn(clientHosts[static_cast<std::size_t>(i)]->id());
        }
    };
    for (const auto &lf : sc.linkFaults) {
        for_each_client(lf.clientMachine, [&](std::uint32_t client) {
            if (lf.toProxy)
                network.faults().setLink(client, server_host.id(),
                                         lf.imp);
            if (lf.fromProxy)
                network.faults().setLink(server_host.id(), client,
                                         lf.imp);
        });
    }
    for (const auto &pt : sc.partitions) {
        for_each_client(pt.clientMachine, [&](std::uint32_t client) {
            network.faults().addPartition(server_host.id(), client,
                                          pt.start, pt.stop);
        });
    }

    phases.window = sc.measureWindow;
    const int calls_per_client = sc.measureWindow > 0
        ? INT_MAX / 4
        : sc.callsPerClient;
    callers.reserve(static_cast<std::size_t>(sc.clients));
    callees.reserve(static_cast<std::size_t>(sc.clients));
    for (int i = 0; i < sc.clients; ++i) {
        int m = i % sc.clientMachines;
        auto mk_cfg = [&](const std::string &user, std::uint16_t port,
                          net::Addr proxy_addr) {
            phone::PhoneConfig cfg;
            cfg.user = user;
            cfg.port = port;
            cfg.transport = sc.proxy.transport;
            cfg.proxyAddr = proxy_addr;
            cfg.opsPerConn = sc.opsPerConn;
            cfg.answerDelay = sc.answerDelay;
            cfg.responseTimeout = sc.phoneResponseTimeout;
            cfg.retryBackoffCap = sc.phoneRetryBackoffCap;
            return cfg;
        };
        // Callers attach to the edge; callees live at the destination
        // (their home proxy) so only requests traverse the chain and
        // registrations stay local to each hop.
        callees.push_back(std::make_unique<phone::Phone>(
            *clientMachines[static_cast<std::size_t>(m)],
            *clientHosts[static_cast<std::size_t>(m)],
            mk_cfg("c" + std::to_string(i),
                   static_cast<std::uint16_t>(16000 + i),
                   topo.calleeEntry())));
        callees.back()->startCallee(calls_per_client,
                                    &phases.registered, nullptr);
        callers.push_back(std::make_unique<phone::Phone>(
            *clientMachines[static_cast<std::size_t>(m)],
            *clientHosts[static_cast<std::size_t>(m)],
            mk_cfg("a" + std::to_string(i),
                   static_cast<std::uint16_t>(6000 + i),
                   topo.callerEntry())));
        callers.back()->startCaller(calls_per_client,
                                    "c" + std::to_string(i),
                                    &phases.registered, &phases.start,
                                    &phases.done, &phases.stopCalling);
    }

    clientMachines[0]->spawn(
        "manager", 0, [this](sim::Process &p) {
            return managerMain(p, &phases, profiled, clientMachines);
        });
}

/**
 * Phone-fleet totals into @p r's phone counters: ops, calls, 503s and
 * backoffs are counted at the callers (each transaction once),
 * retransmissions and reconnects at callers and callees alike. Returns
 * the callers' latest completed operation.
 */
sim::SimTime
sumPhones(const World &w, RunResult &r)
{
    sim::SimTime last_op = 0;
    for (const auto &ph : w.callers) {
        const phone::PhoneStats &st = ph->stats();
        r.ops += st.opsCompleted;
        r.callsCompleted += st.callsCompleted;
        r.callsFailed += st.callsFailed;
        r.phoneRejected503 += st.rejected503;
        r.phoneBackoffs += st.backoffs;
        last_op = std::max(last_op, st.lastOpDone);
    }
    for (const Phones *side : {&w.callers, &w.callees}) {
        for (const auto &ph : *side) {
            const phone::PhoneStats &st = ph->stats();
            r.phoneRetransmissions += st.retransmissions;
            r.reconnects += st.reconnects;
            r.reconnectFailures += st.reconnectFailures;
        }
    }
    return last_op;
}

/** Per-proxy telemetry gauges: queue depths, table occupancy, overload
 *  and hop-control state, the window's serve latency, arch internals. */
void
sampleProxyGauges(stats::Series &s, core::Proxy &px, ServedWindow &sw)
{
    const core::ProxyConfig &cfg = px.config();
    core::SharedState &sh = px.shared();
    s.gauge("queue.request",
            static_cast<double>(px.requestQueueDepth()));
    s.gauge("queue.recv", static_cast<double>(px.recvQueueDepth()));
    // Two table keys per transaction record.
    s.gauge("txn.records", static_cast<double>(sh.txns.size()) / 2.0);
    if (cfg.overload.txnTableCapacity > 0) {
        s.gauge("occ.txnTable",
                static_cast<double>(sh.txns.size())
                    / static_cast<double>(
                        cfg.overload.txnTableCapacity));
    }
    if (cfg.overload.recvQueueCapacity > 0) {
        s.gauge("occ.recvQueue",
                static_cast<double>(px.recvQueueDepth())
                    / static_cast<double>(
                        cfg.overload.recvQueueCapacity));
    }
    const core::OverloadController &oc = sh.overload;
    s.gauge("overload.occupancy", oc.occupancySignal());
    s.gauge("overload.latencyEwmaMs", sim::toMsecs(oc.latencyEwma()));
    s.gauge("overload.rate", oc.currentRate());
    s.gauge("overload.shedding", oc.shedding() ? 1.0 : 0.0);
    s.gauge("hop.grantedRate", oc.hopGrantedRate());
    s.gauge("hop.grantedWindow",
            static_cast<double>(oc.hopGrantedWindow()));
    s.gauge("hop.on", oc.hopOn() ? 1.0 : 0.0);
    if (cfg.nextHop.valid()) {
        s.gauge("hopgate.rateToNext",
                sh.hopGate.grantedRate(cfg.nextHop));
        s.gauge("hopgate.windowToNext",
                static_cast<double>(
                    sh.hopGate.grantedWindow(cfg.nextHop)));
        s.gauge("hopgate.pendingToNext",
                static_cast<double>(
                    sh.hopGate.pendingToward(cfg.nextHop)));
    }
    if (sw.hist.count() > 0) {
        s.gauge("latency.meanMs", sim::toMsecs(sw.hist.mean()));
        s.gauge("latency.p50Ms",
                sim::toMsecs(sw.hist.percentileMid(0.5)));
        s.gauge("latency.p95Ms",
                sim::toMsecs(sw.hist.percentileMid(0.95)));
        s.gauge("latency.p99Ms",
                sim::toMsecs(sw.hist.percentileMid(0.99)));
        s.gauge("latency.p999Ms",
                sim::toMsecs(sw.hist.percentileMid(0.999)));
        s.gauge("latency.maxMs", sim::toMsecs(sw.hist.max()));
    }
    sw.hist.reset();
    if (const core::ServerArch *arch = px.arch()) {
        std::vector<core::ArchGauge> gauges;
        arch->appendTelemetryGauges(gauges);
        for (const core::ArchGauge &g : gauges)
            s.gauge(g.name, g.value);
    }
}

/**
 * Windowed telemetry (Scenario::telemetry): one series per proxy
 * instance and per client machine, the dispatcher in a cluster, plus
 * phone-fleet and network-fabric pseudo-series. It exists only when
 * enabled — its sampler is a simulated process — so default runs keep
 * their pinned digests byte-identical.
 */
class Telemetry
{
  public:
    explicit Telemetry(World &w);

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    /** Flush the final, partial window. Call at the instant the
     *  end-of-run counters are read, so every series' per-window
     *  deltas sum exactly to the totals in RunResult. */
    std::shared_ptr<stats::TimeSeries> finish();

  private:
    sim::Task tick(sim::Process &p);
    void sample();

    World &w_;
    std::shared_ptr<stats::TimeSeries> ts_;
    std::vector<stats::Series *> proxies_, clients_;
    stats::Series *dispatcher_ = nullptr;
    stats::Series *phones_ = nullptr;
    stats::Series *net_ = nullptr;
    std::vector<ServedWindow> served_;
};

Telemetry::Telemetry(World &w)
    : w_(w), served_(w.topo.proxies().size())
{
    const Scenario &sc = w.sc;
    Topology &topo = w.topo;
    const char *transport = core::transportName(sc.proxy.transport);
    ts_ = std::make_shared<stats::TimeSeries>(
        sc.name, sc.seed, sc.telemetry.window(), transport);
    // One series per proxy instance: chain hops (hop = chain index) or
    // cluster members (hop = instance index).
    for (std::size_t i = 0; i < topo.proxies().size(); ++i) {
        core::Proxy &px = *topo.proxies()[i];
        proxies_.push_back(&ts_->add(
            topo.serverMachines()[i]->name(), static_cast<int>(i),
            core::archKindName(px.arch()->kind()),
            core::transportName(px.config().transport)));
        // The overload controller times every served request on every
        // policy (including None); the sink gives telemetry a
        // per-window latency histogram without a second timer.
        px.shared().overload.setServedSink(
            [sw = &served_[i]](sim::SimTime latency) {
                sw->hist.record(latency);
                ++sw->servedTotal;
            });
    }
    if (topo.cluster()) {
        dispatcher_ = &ts_->add(topo.dispatcherMachine()->name(), -1,
                                "dispatcher", transport);
    }
    for (sim::Machine *m : w.clientMachines)
        clients_.push_back(&ts_->add(m->name(), -1, "", transport));
    phones_ = &ts_->add("phones", -1, "", transport);
    net_ = &ts_->add("net", -1, "", transport);

    // Window 0 opens at t=0; the sampler closes a window at every
    // following multiple of the width. The last (partial) window is
    // flushed synchronously by finish().
    for (const auto &s : ts_->series())
        s->beginWindow(0);
    w.clientMachines[0]->spawn(
        "telemetry", 0, [this](sim::Process &p) { return tick(p); });
}

/**
 * The sampler process: cuts a window at every multiple of the window
 * width from t=0 (registration included — the warmup phase is part of
 * the story).
 */
sim::Task
Telemetry::tick(sim::Process &p)
{
    const sim::SimTime window = w_.sc.telemetry.window();
    sim::SimTime next = window;
    for (;;) {
        sim::SimTime now = p.sim().now();
        if (now < next)
            co_await p.sleepFor(next - now);
        // Once the measured phase is over, everything after this
        // boundary (the settle tail) belongs to the final window that
        // finish() flushes — stop ticking so the run loop's coast to
        // its next check produces no empty windows.
        if (w_.phases.finished)
            co_return;
        sample();
        for (const auto &s : ts_->series())
            s->beginWindow(p.sim().now());
        next += window;
    }
}

void
Telemetry::sample()
{
    Topology &topo = w_.topo;
    for (std::size_t i = 0; i < proxies_.size(); ++i) {
        stats::Series &s = *proxies_[i];
        core::Proxy &px = *topo.proxies()[i];
        sampleMachine(s, *topo.serverMachines()[i],
                      *topo.serverHosts()[i]);
        stats::forEachCounter("proxy.", px.shared().counters,
                              counters::kProxy, into(s));
        s.counter("queue.recvDrops", px.recvQueueDrops());
        s.counter("accept.refused", px.acceptRefused());
        s.counter("served.count", served_[i].servedTotal);
        sampleProxyGauges(s, px, served_[i]);
    }
    if (dispatcher_) {
        sampleMachine(*dispatcher_, *topo.dispatcherMachine(),
                      *topo.dispatcherHost());
        const core::DispatcherStats &d = topo.dispatcher()->stats();
        stats::forEachCounter("dispatcher.", d, counters::kDispatcher,
                              into(*dispatcher_));
        for (std::size_t i = 0; i < d.toInstance.size(); ++i) {
            dispatcher_->counter(
                "dispatcher.toInstance" + std::to_string(i),
                d.toInstance[i]);
        }
    }
    for (std::size_t i = 0; i < clients_.size(); ++i) {
        sampleMachine(*clients_[i], *w_.clientMachines[i],
                      *w_.clientHosts[i]);
    }
    RunResult p;
    sumPhones(w_, p);
    phones_->counter("phone.ops", p.ops);
    phones_->counter("phone.callsCompleted", p.callsCompleted);
    phones_->counter("phone.callsFailed", p.callsFailed);
    phones_->counter("phone.retransmissions", p.phoneRetransmissions);
    phones_->counter("phone.reconnects", p.reconnects);
    phones_->counter("phone.reconnectFailures", p.reconnectFailures);
    phones_->counter("phone.rejected503", p.phoneRejected503);
    phones_->counter("phone.backoffs", p.phoneBackoffs);
    const net::NetStats &nst = w_.network.stats();
    stats::forEachCounter("net.", nst, counters::kNet, into(*net_));
    net_->counter("net.batchRecvCalls", nst.batchRecv.calls);
    net_->counter("net.batchRecvMsgs", nst.batchRecv.messages);
    net_->counter("net.batchSendCalls", nst.batchSend.calls);
    net_->counter("net.batchSendMsgs", nst.batchSend.messages);
}

std::shared_ptr<stats::TimeSeries>
Telemetry::finish()
{
    const sim::SimTime end = w_.simu.now();
    sample();
    for (const auto &s : ts_->series())
        s->finish(end);
    const Phases &phases = w_.phases;
    ts_->setMeasurePhase(phases.measureStart,
                         phases.finished ? phases.measureEnd : end);
    return ts_;
}

/** End-of-run collection: every counter the run produced, read at one
 *  instant into a RunResult. */
RunResult
collect(World &w)
{
    const Phases &phases = w.phases;
    std::vector<std::unique_ptr<core::Proxy>> &proxies = w.topo.proxies();
    RunResult result;
    result.timedOut = !phases.finished;
    sim::SimTime end = phases.finished ? phases.measureEnd : w.simu.now();
    result.duration = end - phases.measureStart;

    // A run the cap cut short ends at its callers' last completed op.
    sim::SimTime last_op =
        std::max(phases.measureStart, sumPhones(w, result));
    if (result.timedOut)
        result.duration = last_op - phases.measureStart;
    if (result.duration > 0) {
        result.opsPerSec = static_cast<double>(result.ops)
            / sim::toSecs(result.duration);
    }

    // Latency percentiles over all callers' INVITE transactions.
    stats::LatencyHistogram invite;
    for (const auto &ph : w.callers)
        invite.merge(ph->stats().inviteLatency);
    result.inviteP50 = invite.percentile(0.5);
    result.inviteP99 = invite.percentile(0.99);

    for (const auto &px : proxies) {
        const core::SharedState &sh = px->shared();
        for (const auto &f : counters::kProxy)
            result.counters.*(f.member) += sh.counters.*(f.member);
        if (w.topo.hops() > 1)
            result.hopCounters.push_back(sh.counters);
        if (w.topo.cluster())
            result.instanceCounters.push_back(sh.counters);
        result.txnEntriesAtEnd += sh.txns.size();
        result.retransEntriesAtEnd += sh.retrans.size();
        result.connEntriesAtEnd += sh.conns.size();
        result.proxyRecvQueueDrops += px->recvQueueDrops();
        result.proxyAcceptRefused += px->acceptRefused();
    }
    if (w.topo.cluster()) {
        result.clusterInstances = static_cast<int>(proxies.size());
        result.dispatcherStats = w.topo.dispatcher()->stats();
    }
    result.net = w.network.stats();
    result.faults = w.network.faults().stats();
    if (const core::ServerArch *arch = w.topo.edge().arch()) {
        result.archKind = arch->kind();
        result.archLoops = arch->loopCount();
    }
    // Profile the destination machine: it is the saturating hop the
    // distributed schemes protect (single proxy: the only machine).
    result.serverProfile = w.topo.serverMachines().back()->profiler();
    if (result.duration > 0) {
        // Server utilization reports the busiest server-side machine
        // (hop, cluster instance, or the dispatcher).
        const std::vector<sim::Machine *> &profiled = w.profiled;
        for (std::size_t i = 0; i < profiled.size(); ++i) {
            double capacity = sim::toSecs(result.duration)
                * profiled[i]->scheduler().cores();
            // Bursts spanning the phase boundary are charged when
            // they end, so clamp the tiny resulting over-count.
            result.serverUtilization = std::max(
                result.serverUtilization,
                std::min(
                    1.0,
                    sim::toSecs(
                        profiled[i]->scheduler().busyTime()
                        - (i < phases.serverBusyAtStart.size()
                               ? phases.serverBusyAtStart[i]
                               : 0))
                        / capacity));
        }
        for (std::size_t i = 0; i < w.clientMachines.size(); ++i) {
            sim::Machine &m = *w.clientMachines[i];
            double busy = sim::toSecs(
                m.scheduler().busyTime()
                - (i < phases.clientBusyAtStart.size()
                       ? phases.clientBusyAtStart[i]
                       : 0));
            double cap = sim::toSecs(result.duration)
                * m.scheduler().cores();
            result.maxClientUtilization = std::max(
                result.maxClientUtilization, busy / cap);
        }
    }

    result.simEvents = w.simu.eventsRun();
    const sim::mem::Ledgers &mem = sim::mem::ledgers();
    result.memArenaPeak = mem.arena.peak;
    result.memEventSlabPeak = mem.eventSlab.peak;
    result.memFramePoolPeak = mem.framePool.peak;
    return result;
}

} // namespace

const char *
chainSupportError(const Scenario &sc)
{
    if (sc.chain.empty())
        return nullptr;
    if (sc.chain.size() < 2)
        return "a proxy chain needs at least 2 hops (an edge and a "
               "destination); leave `chain` empty for a single proxy";
    if (sc.chain.size() > 4)
        return "proxy chains support at most 4 hops (edge, up to two "
               "cores, destination)";
    for (const auto &hop : sc.chain) {
        core::Transport t = hop.transport.value_or(sc.proxy.transport);
        if (t != sc.proxy.transport)
            return "mixed-transport chains are not supported: every "
                   "hop must speak the scenario transport (per-hop "
                   "architectures are free to vary)";
        if (const char *err = core::archSupportError(hop.arch, t))
            return err;
    }
    if (sc.proxy.redirect)
        return "redirect mode short-circuits the chain (the 302 hands "
               "the caller the contact directly); run it single-proxy";
    if (sc.proxy.overload.hop.scheme == core::FeedbackScheme::Window
        && !sc.proxy.stateful)
        return "the window scheme needs stateful proxies: pending "
               "slots are released when the transaction record sees "
               "its final response";
    return nullptr;
}

const char *
clusterSupportError(const Scenario &sc)
{
    const ClusterConfig &cl = sc.cluster;
    if (!cl.enabled())
        return nullptr;
    if (cl.instances > 16)
        return "clusters support at most 16 proxy instances; beyond "
               "that the dispatcher model (one machine, one socket) "
               "stops being the interesting bottleneck";
    if (!sc.chain.empty())
        return "cluster and chain topologies are mutually exclusive: "
               "a cluster is N peers behind one dispatcher, not a "
               "linear pipeline — pick one";
    if (const char *err =
            core::dispatchSupportError(cl.policy, sc.proxy.transport))
        return err;
    if (const char *err = core::archSupportError(sc.proxy.arch,
                                                 sc.proxy.transport))
        return err;
    if (sc.proxy.redirect)
        return "redirect mode hands the caller the contact directly, "
               "bypassing the dispatcher on the next request; run it "
               "single-proxy";
    if (cl.dispatcherCores < 1 || cl.dispatcherWorkers < 1)
        return "the dispatcher needs at least one core and one worker";
    if (cl.vnodes < 1)
        return "the consistent-hash ring needs at least one virtual "
               "node per instance";
    if (cl.aorPopulation > 1000000)
        return "pre-seeded AOR populations are capped at 1M per "
               "cluster (beyond that the seeding loop dominates run "
               "setup)";
    return nullptr;
}

RunResult
runScenario(const Scenario &sc)
{
    if (const char *err = chainSupportError(sc))
        throw std::invalid_argument(std::string("chain topology: ")
                                    + err);
    if (const char *err = clusterSupportError(sc))
        throw std::invalid_argument(std::string("cluster topology: ")
                                    + err);

    // Per-run retained-bytes high-water marks (pools persist across
    // runs in one process; the peaks should describe this scenario).
    sim::mem::ledgers().resetPeaks();

    World w(sc);

    std::unique_ptr<Telemetry> telemetry;
    if (sc.telemetry.enabled())
        telemetry = std::make_unique<Telemetry>(w);

    // Registration phase has no explicit cap; the measured phase is
    // capped at maxDuration past its start.
    Phases &phases = w.phases;
    while (!phases.finished) {
        sim::SimTime deadline = phases.measureStart > 0
            ? phases.measureStart + sc.maxDuration
            : w.simu.now() + sim::secs(30);
        w.simu.runUntil(std::min(deadline, w.simu.now() + sim::secs(1)));
        if (phases.measureStart > 0
            && w.simu.now() >= phases.measureStart + sc.maxDuration) {
            break;
        }
        if (phases.measureStart == 0
            && w.simu.now() > sim::secs(3600)) {
            break; // registration wedged: report what we have
        }
    }

    if (phases.finished && sc.settleTime > 0)
        w.simu.runFor(sc.settleTime);

    std::shared_ptr<stats::TimeSeries> series =
        telemetry ? telemetry->finish() : nullptr;
    RunResult result = collect(w);
    result.timeseries = std::move(series);
    w.topo.requestStop();
    return result;
}

Scenario
paperScenario(core::Transport transport, int clients, int ops_per_conn)
{
    Scenario sc;
    sc.proxy.transport = transport;
    sc.clients = clients;
    sc.opsPerConn = ops_per_conn;
    sc.proxy.workers = core::isStreamTransport(transport) ? 32 : 24;
    if (transport == core::Transport::Tls)
        sc.proxy.port = 5061; // RFC 3261 sips
    sc.proxy.stateful = true;
    // Scale call counts so each grid point runs a similar number of
    // operations regardless of client count.
    sc.callsPerClient = std::max(10, 12000 / clients);
    sc.name = std::string(core::transportName(transport)) + "/"
        + (ops_per_conn == 0 ? std::string("persistent")
                             : std::to_string(ops_per_conn) + "ops")
        + "/" + std::to_string(clients) + "c";
    return sc;
}

} // namespace siprox::workload
