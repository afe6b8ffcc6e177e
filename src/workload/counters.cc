#include "workload/counters.hh"

#include <cctype>
#include <string>
#include <string_view>

#include "workload/scenario.hh"

namespace siprox::workload {

using namespace counters;

std::string
RunResult::digest() const
{
    std::string out;
    auto add = [&out](std::string_view name, std::uint64_t v) {
        out += name;
        out += '=';
        out += std::to_string(v);
        out += '\n';
    };
    // One digest group's rows, in table order. A word prefix joins
    // camel-case ("disp" + "messagesIn"), a dotted one as is ("hop0.").
    auto group = [&add](std::string_view prefix, const auto &s,
                        const auto &fields, unsigned tag) {
        for (const auto &f : fields) {
            if (!(f.digest & tag))
                continue;
            std::string name = std::string(prefix) + f.name;
            if (!prefix.empty() && prefix.back() != '.')
                name[prefix.size()] = static_cast<char>(
                    std::toupper(static_cast<unsigned char>(f.name[0])));
            add(name, s.*(f.member));
        }
    };
    add("ops", ops);
    add("callsCompleted", callsCompleted);
    add("callsFailed", callsFailed);
    add("phoneRetransmissions", phoneRetransmissions);
    add("reconnects", reconnects);
    add("reconnectFailures", reconnectFailures);
    add("duration", static_cast<std::uint64_t>(duration));
    add("inviteP50", static_cast<std::uint64_t>(inviteP50));
    add("inviteP99", static_cast<std::uint64_t>(inviteP99));
    add("timedOut", timedOut ? 1 : 0);
    group("", counters, kProxy, kBase);
    add("phoneRejected503", phoneRejected503);
    add("phoneBackoffs", phoneBackoffs);
    add("proxyRecvQueueDrops", proxyRecvQueueDrops);
    add("proxyAcceptRefused", proxyAcceptRefused);
    group("", net, kNet, kBase);
    add("txnEntriesAtEnd", txnEntriesAtEnd);
    add("retransEntriesAtEnd", retransEntriesAtEnd);
    add("connEntriesAtEnd", connEntriesAtEnd);
    // TLS and SST groups are appended only when the transport was in
    // play, so pre-existing digests stay byte-identical.
    if (net.tlsConnects || net.tlsHandshakeAborts)
        group("", net, kNet, kTls);
    if (net.sstMessages || net.sstChannels)
        group("", net, kNet, kSst);
    // Batched-I/O group: the sockets record batch syscalls only at
    // batchMax > 1, so every batchMax=1 digest stays byte-identical
    // to its pre-batching golden.
    if (net.batchRecv.calls || net.batchSend.calls) {
        add("batchRecvCalls", net.batchRecv.calls);
        add("batchRecvMsgs", net.batchRecv.messages);
        add("batchRecvMaxDepth", net.batchRecv.maxDepth);
        add("batchSendCalls", net.batchSend.calls);
        add("batchSendMsgs", net.batchSend.messages);
        add("batchSendMaxDepth", net.batchSend.maxDepth);
    }
    // Hop-by-hop control and chain groups follow the same convention:
    // appended only when the feature was in play, so every pre-chain
    // golden digest stays byte-identical.
    if (counters.hopFeedbackSent || counters.hopFeedbackApplied
        || counters.hopThrottleHolds || counters.hopThrottleRejects
        || counters.hopThrottleDrops || counters.hopGrantExpired)
        group("", counters, kProxy, kHopCtl);
    if (!hopCounters.empty()) {
        add("chainHops", hopCounters.size());
        for (std::size_t i = 0; i < hopCounters.size(); ++i) {
            group("hop" + std::to_string(i) + ".", hopCounters[i], kProxy,
                  kPerHop);
        }
    }
    // Cluster group: appended only for cluster runs, so every
    // pre-cluster golden digest stays byte-identical.
    if (clusterInstances > 0) {
        add("clusterInstances",
            static_cast<std::uint64_t>(clusterInstances));
        group("disp", dispatcherStats, kDispatcher, kCluster);
        group("", counters, kProxy, kCluster);
        for (std::size_t i = 0; i < instanceCounters.size(); ++i) {
            const std::string prefix = "inst" + std::to_string(i) + ".";
            group(prefix, instanceCounters[i], kProxy, kPerInst);
            if (i < dispatcherStats.toInstance.size())
                add(prefix + "dispatched", dispatcherStats.toInstance[i]);
        }
    }
    out += faults.digest();
    return out;
}

stats::MetricsRegistry
collectMetrics(const RunResult &r)
{
    stats::MetricsRegistry reg;
    auto put = [&reg](std::string_view name, std::uint64_t v) {
        reg.setCounter(name, v);
    };

    // Phone-side counters (operations counted at the callers).
    reg.setCounter("phone.ops", r.ops);
    reg.setCounter("phone.callsCompleted", r.callsCompleted);
    reg.setCounter("phone.callsFailed", r.callsFailed);
    reg.setCounter("phone.retransmissions", r.phoneRetransmissions);
    reg.setCounter("phone.reconnects", r.reconnects);
    reg.setCounter("phone.reconnectFailures", r.reconnectFailures);
    reg.setCounter("phone.rejected503", r.phoneRejected503);
    reg.setCounter("phone.backoffs", r.phoneBackoffs);

    // Run shape.
    reg.setCounter("run.durationNs",
                   static_cast<std::uint64_t>(
                       r.duration > 0 ? r.duration : 0));
    reg.setCounter("run.timedOut", r.timedOut ? 1 : 0);
    reg.setGauge("run.opsPerSec", r.opsPerSec);
    reg.setGauge("run.serverUtilization", r.serverUtilization);
    reg.setGauge("run.maxClientUtilization", r.maxClientUtilization);
    reg.setGauge("run.inviteP50Ms", sim::toMsecs(r.inviteP50));
    reg.setGauge("run.inviteP99Ms", sim::toMsecs(r.inviteP99));

    // Proxy counters.
    stats::forEachCounter("proxy.", r.counters, kProxy, put);
    reg.setCounter("proxy.recvQueueDrops", r.proxyRecvQueueDrops);
    reg.setCounter("proxy.acceptRefused", r.proxyAcceptRefused);
    reg.setCounter("proxy.txnEntriesAtEnd", r.txnEntriesAtEnd);
    reg.setCounter("proxy.retransEntriesAtEnd",
                   r.retransEntriesAtEnd);
    reg.setCounter("proxy.connEntriesAtEnd", r.connEntriesAtEnd);

    // Server-architecture identity: the ArchKind ordinal (1 =
    // supervisor/worker, 2 = symmetric, 3 = event-driven) and how many
    // receive loops the resolved architecture actually ran.
    reg.setCounter("proxy.arch.kind",
                   static_cast<std::uint64_t>(r.archKind));
    reg.setCounter("proxy.arch.loops",
                   r.archLoops > 0
                       ? static_cast<std::uint64_t>(r.archLoops)
                       : 0);

    // Chain topology: per-hop counters under proxy.hop<i>.* (edge
    // first). Single-proxy runs emit none of these.
    reg.setCounter("proxy.chainHops", r.hopCounters.size());
    for (std::size_t i = 0; i < r.hopCounters.size(); ++i) {
        stats::forEachCounter("proxy.hop" + std::to_string(i) + ".",
                              r.hopCounters[i], kProxy, put);
    }

    // Cluster topology: dispatcher front-end counters plus per-instance
    // counters under proxy.<i>.*. Non-cluster runs emit none of these.
    if (r.clusterInstances > 0) {
        reg.setCounter("cluster.instances",
                       static_cast<std::uint64_t>(r.clusterInstances));
        const core::DispatcherStats &d = r.dispatcherStats;
        stats::forEachCounter("dispatcher.", d, kDispatcher, put);
        for (std::size_t i = 0; i < r.instanceCounters.size(); ++i) {
            const std::string prefix = "proxy." + std::to_string(i) + ".";
            stats::forEachCounter(prefix, r.instanceCounters[i],
                                  kProxy, put);
            if (i < d.toInstance.size())
                reg.setCounter(prefix + "dispatched", d.toInstance[i]);
        }
    }

    // Network counters.
    stats::forEachCounter("net.", r.net, kNet, put);

    // Batched datagram I/O: syscall/message totals plus the batch-depth
    // histogram (bucket n counts batches of exactly n messages; only
    // occupied buckets are emitted).
    reg.setCounter("net.batch.recvCalls", r.net.batchRecv.calls);
    reg.setCounter("net.batch.recvMessages", r.net.batchRecv.messages);
    reg.setCounter("net.batch.recvMaxDepth", r.net.batchRecv.maxDepth);
    reg.setCounter("net.batch.sendCalls", r.net.batchSend.calls);
    reg.setCounter("net.batch.sendMessages", r.net.batchSend.messages);
    reg.setCounter("net.batch.sendMaxDepth", r.net.batchSend.maxDepth);
    for (std::size_t i = 0; i < net::BatchIoStats::kDepthBuckets; ++i) {
        if (r.net.batchRecv.depth[i])
            reg.setCounter("net.batch.recvDepth."
                               + std::to_string(i + 1),
                           r.net.batchRecv.depth[i]);
        if (r.net.batchSend.depth[i])
            reg.setCounter("net.batch.sendDepth."
                               + std::to_string(i + 1),
                           r.net.batchSend.depth[i]);
    }

    // Retained-bytes high-water marks (sim/mem_stats.hh).
    reg.setGauge("mem.arenaPeakBytes",
                 static_cast<double>(r.memArenaPeak));
    reg.setGauge("mem.eventSlabPeakBytes",
                 static_cast<double>(r.memEventSlabPeak));
    reg.setGauge("mem.framePoolPeakBytes",
                 static_cast<double>(r.memFramePoolPeak));

    // Injected-fault totals over every impaired link.
    stats::LinkFaultCounters f = r.faults.total();
    reg.setCounter("faults.offered", f.offered);
    reg.setCounter("faults.lost", f.lost);
    reg.setCounter("faults.duplicated", f.duplicated);
    reg.setCounter("faults.reordered", f.reordered);
    reg.setCounter("faults.delayed", f.delayed);
    reg.setCounter("faults.partitionDrops", f.partitionDrops);
    reg.setCounter("faults.partitionHeld", f.partitionHeld);
    reg.setCounter("faults.connectsRefused", f.connectsRefused);
    reg.setCounter("faults.rstsInjected", f.rstsInjected);
    reg.setCounter("faults.stalledDrops", f.stalledDrops);
    reg.setCounter("faults.recoveries", f.recoveries);

    // Server CPU profile over the measured phase: one share and one
    // milliseconds gauge per cost center that accrued any time.
    for (const auto &line :
         r.serverProfile.top(sim::CostCenters::count())) {
        reg.setGauge("profile.share." + line.name, line.pct / 100.0);
        reg.setGauge("profile.ms." + line.name,
                     sim::toMsecs(line.time));
    }
    reg.setGauge("profile.totalMs",
                 sim::toMsecs(r.serverProfile.total()));

    return reg;
}

} // namespace siprox::workload
