/**
 * @file
 * Benchmark scenario description and results — the §4.2 methodology: a
 * registration phase (excluded from measurement), then a measured
 * phase in which every caller places a fixed number of calls to its
 * designated callee. Throughput is operations (SIP transactions — one
 * invite or one bye) per second.
 */

#ifndef SIPROX_WORKLOAD_SCENARIO_HH
#define SIPROX_WORKLOAD_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/dispatcher.hh"
#include "core/shared.hh"
#include "net/config.hh"
#include "net/network.hh"
#include "sim/profiler.hh"
#include "sim/time.hh"
#include "stats/fault_stats.hh"
#include "stats/metrics.hh"
#include "stats/timeseries.hh"

namespace siprox::workload {

/**
 * Impairment applied between one client machine (or all of them) and
 * the proxy, in the chosen direction(s).
 */
struct LinkFault
{
    /** Client machine index, or -1 for every client machine. */
    int clientMachine = -1;
    bool toProxy = true;   ///< impair client -> proxy
    bool fromProxy = true; ///< impair proxy -> client
    net::Impairment imp;
};

/** Hard two-way outage between one client machine and the proxy. */
struct Partition
{
    /** Client machine index, or -1 for every client machine. */
    int clientMachine = -1;
    sim::SimTime start = 0;
    sim::SimTime stop = sim::kTimeNever;
};

/**
 * One hop of a multi-hop proxy chain. The chain is edge -> ... ->
 * destination; callers attach to the edge, callees register at the
 * destination (their home proxy), and every non-REGISTER request
 * traverses the full chain.
 */
struct ChainHop
{
    /** Transport this hop speaks (unset: the scenario transport).
     *  Mixed-transport chains are rejected by chainSupportError() —
     *  the knob exists so the rejection is a named decision, not a
     *  silent impossibility. */
    std::optional<core::Transport> transport;
    /** Server architecture of this hop (free to vary per hop). */
    core::ArchKind arch = core::ArchKind::Auto;
    /** Worker override for this hop (0: the scenario's worker count). */
    int workers = 0;
    /** Local overload-policy override for this hop (unset: the shared
     *  proxy config's policy). Lets a chain model the literature's
     *  baseline where only the overloaded server defends itself and
     *  upstream hops blindly forward. */
    std::optional<core::OverloadPolicy> overloadPolicy;
};

/**
 * A dispatched proxy cluster: N peer proxy instances behind a front-end
 * dispatcher machine, each owning a consistent-hash shard of the
 * location database. Mutually exclusive with Scenario::chain.
 */
struct ClusterConfig
{
    /** Proxy instances (0 disables clustering entirely). */
    int instances = 0;
    /** How the dispatcher places non-REGISTER requests. */
    core::DispatchPolicy policy = core::DispatchPolicy::HashAor;
    /** Cores on the dispatcher machine (it is intentionally small —
     *  the point of a cluster is that the front end does less work per
     *  message than a proxy). */
    int dispatcherCores = 2;
    /** Receive loops on the dispatcher's shared UDP socket. */
    int dispatcherWorkers = 8;
    /** Virtual nodes per instance on the consistent-hash ring. */
    int vnodes = 64;
    /** Delay before a binding written at its owner becomes visible in
     *  peer replicas (async replication staleness knob). */
    sim::SimTime replicationLag = sim::msecs(50);
    /** Serve lookups from the local replica when the shard owner is
     *  remote (stale reads) instead of forwarding to the owner. */
    bool staleReads = false;
    /** Pre-seeded AOR population ("u0".."u<n-1>") resident in the
     *  shards before the run: models a large installed user base whose
     *  state pressures per-instance caches (100k-1M rungs). */
    std::uint64_t aorPopulation = 0;

    bool enabled() const { return instances > 0; }
};

/** One benchmark configuration. */
struct Scenario
{
    std::string name = "scenario";
    /** Concurrent caller/callee pairs ("clients" in the paper). */
    int clients = 100;
    /** Calls each caller places during the measured phase. */
    int callsPerClient = 50;
    /**
     * If nonzero, run time-based instead: callers keep placing calls
     * until this much simulated time has elapsed since the measured
     * phase started (callsPerClient becomes an upper bound per call
     * loop and is ignored). Needed for workloads whose steady state
     * depends on the idle-connection timeout.
     */
    sim::SimTime measureWindow = 0;
    /** TCP: phone reconnect period in operations (0 = persistent). */
    int opsPerConn = 0;
    core::ProxyConfig proxy;
    net::NetConfig net;
    int serverCores = 4;
    int clientMachines = 3;
    int clientCores = 2;
    std::uint64_t seed = 1;
    /** Safety cap on the measured phase (simulated time). */
    sim::SimTime maxDuration = sim::secs(300);
    sim::SimTime answerDelay = 0;
    /** Phone-side give-up deadline per transaction. */
    sim::SimTime phoneResponseTimeout = sim::secs(4);
    /** Phone-side cap on the 503 Retry-After exponential backoff. */
    sim::SimTime phoneRetryBackoffCap = sim::secs(8);
    /** Windowed time-series telemetry (stats/timeseries.hh). Off by
     *  default: the sampler process perturbs event interleavings, so
     *  pinned digests only hold with telemetry disabled. */
    stats::TelemetryConfig telemetry;
    /** Extra simulated time after the last call before counters are
     *  sampled (lets idle-connection machinery drain). */
    sim::SimTime settleTime = 0;
    /** Link-level impairments between clients and the proxy. */
    std::vector<LinkFault> linkFaults;
    /** Scheduled client <-> proxy partitions (e.g. "partition client
     *  machine 2 from the proxy between t=10s and t=15s"). */
    std::vector<Partition> partitions;
    /**
     * Multi-hop proxy chain. Empty (default): the classic single-proxy
     * topology, byte-identical to pre-chain behaviour. Non-empty: one
     * entry per hop (2-4, edge first); `proxy` above provides the
     * shared base config every hop inherits. Fault injection applies
     * between the client machines and the edge.
     */
    std::vector<ChainHop> chain;
    /**
     * Dispatched cluster. Disabled (default): behaviour and digests are
     * byte-identical to pre-cluster runs. Enabled: `proxy` above is the
     * per-instance base config, `chain` must be empty, and phones talk
     * to the dispatcher instead of a proxy.
     */
    ClusterConfig cluster;
};

/** nullptr if the scenario's chain topology is runnable, else a static
 *  reason string (mirrors core::archSupportError's contract). */
const char *chainSupportError(const Scenario &scenario);

/** nullptr if the scenario's cluster topology is runnable, else a
 *  static reason string (same contract as chainSupportError). */
const char *clusterSupportError(const Scenario &scenario);

/** Measured outcome of one scenario run. */
struct RunResult
{
    double opsPerSec = 0;
    std::uint64_t ops = 0;
    std::uint64_t callsCompleted = 0;
    std::uint64_t callsFailed = 0;
    std::uint64_t phoneRetransmissions = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t reconnectFailures = 0;
    /** 503 rejections seen by callers, and backoff sleeps taken. */
    std::uint64_t phoneRejected503 = 0;
    std::uint64_t phoneBackoffs = 0;
    sim::SimTime duration = 0;
    double serverUtilization = 0;
    double maxClientUtilization = 0;
    sim::SimTime inviteP50 = 0;
    sim::SimTime inviteP99 = 0;
    /** Aggregate proxy counters (summed across hops when chained). */
    core::ProxyCounters counters;
    /** Per-hop proxy counters, edge first. Empty for a single proxy. */
    std::vector<core::ProxyCounters> hopCounters;
    /** Cluster width (0 for non-cluster runs). */
    int clusterInstances = 0;
    /** Per-instance proxy counters (clusters only; instance order). */
    std::vector<core::ProxyCounters> instanceCounters;
    /** Dispatcher front-end counters (clusters only). */
    core::DispatcherStats dispatcherStats;
    /** Network-level traffic counters. */
    net::NetStats net;
    /** Per-link injected-fault counters. */
    stats::FaultStats faults;
    /** Shared-table occupancy when the run ended (leak checks). */
    std::size_t txnEntriesAtEnd = 0;
    std::size_t retransEntriesAtEnd = 0;
    std::size_t connEntriesAtEnd = 0;
    /** Messages the proxy's own socket dropped to queue overflow. */
    std::uint64_t proxyRecvQueueDrops = 0;
    /** TCP connects the proxy's full accept queue refused. */
    std::uint64_t proxyAcceptRefused = 0;
    /** Windowed telemetry (Scenario::telemetry enabled), ready for
     *  stats::explain(). Null when telemetry was off. Shared so
     *  RunResult stays copyable. */
    std::shared_ptr<stats::TimeSeries> timeseries;
    /** Server CPU profile over the measured phase. */
    sim::Profiler serverProfile;
    /** Resolved server architecture (never Auto) and its receive-loop
     *  count. Informational; not part of the digest — existing goldens
     *  for the transport-implied architectures must stay byte-stable. */
    core::ArchKind archKind = core::ArchKind::Auto;
    int archLoops = 0;
    /** Simulation events executed over the whole run (wall-clock perf
     *  accounting; not part of the digest). */
    std::uint64_t simEvents = 0;
    /** Retained-bytes high-water marks over the run, per subsystem
     *  (sim/mem_stats.hh ledgers). Footprint accounting only — byte
     *  counts depend on allocator/layout details, so these are not
     *  part of the digest. */
    std::uint64_t memArenaPeak = 0;
    std::uint64_t memEventSlabPeak = 0;
    std::uint64_t memFramePoolPeak = 0;
    /** True if the safety cap cut the run short. */
    bool timedOut = false;

    /**
     * Canonical text rendering of every deterministic counter in this
     * result. Two runs of the same scenario with the same seed must
     * produce byte-identical digests; different seeds should not.
     */
    std::string digest() const;
};

/** Build, run, and tear down one scenario. */
RunResult runScenario(const Scenario &scenario);

/**
 * Fold every deterministic counter, derived gauge, fault total, and
 * server profile entry of @p r into one metrics registry under the
 * unified naming scheme (proxy.*, phone.*, net.*, faults.*,
 * profile.*). The counters section of the returned registry's
 * snapshot is byte-deterministic for identical runs.
 */
stats::MetricsRegistry collectMetrics(const RunResult &r);

/**
 * Scenario presets for the paper's evaluation grid.
 * @param clients 100 / 500 / 1000.
 * @param ops_per_conn 0 (persistent), 50, or 500 (TCP only).
 */
Scenario paperScenario(core::Transport transport, int clients,
                       int ops_per_conn);

} // namespace siprox::workload

#endif // SIPROX_WORKLOAD_SCENARIO_HH
