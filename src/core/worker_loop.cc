#include "core/worker_loop.hh"

#include "sim/simulation.hh"

namespace siprox::core {

sim::Task
WorkerLoop::serveBatch(sim::Process &p, net::DatagramSocket &sock,
                       std::vector<net::Datagram> &batch)
{
    const std::size_t n = batch.size();
    for (std::size_t i = 0; i < n; ++i) {
        net::Datagram &dgram = batch[i];
        if (sim::trace::enabled()) {
            sim::trace::log(p.sim().now(), "proxy-rx",
                            dgram.src.toString() + " "
                                + std::to_string(dgram.payload.size())
                                + "B");
        }
        // Occupancy = what is still queued in the kernel plus what
        // this worker drained but has not yet processed, so the
        // admission signal is batching-invariant.
        shared_.overload.noteDrainedBatch(sock.queueDepth(), n - i - 1);
        sim::SpanScope span(p);
        if (n > 1) {
            if (auto *ctx = span.ctx())
                ctx->batchDepth = static_cast<std::uint32_t>(n);
        }
        actions_.clear();
        co_await engine_.handleMessage(p, std::move(dgram.payload),
                                       MsgSource{dgram.src, 0},
                                       actions_);
        for (auto &action : actions_)
            outbox_.push_back(net::OutDatagram{
                action.dstAddr, std::move(action.wire)});
        // One simulated sendmmsg flushes everything the batch emitted.
        if (i + 1 == n)
            co_await sock.sendBatch(p, outbox_);
    }
}

sim::Task
WorkerLoop::reclaimTxns(sim::Process &p, SharedState &shared,
                        const ProxyConfig &cfg, sim::SimTime now)
{
    static const auto cc_tm = sim::CostCenters::id("ser:tm");
    co_await shared.txns.lock().acquire(p);
    if (now == sim::kTimeNever)
        now = p.sim().now();
    std::size_t removed = shared.txns.cleanupExpired(now);
    if (removed) {
        co_await p.cpu(static_cast<sim::SimTime>(removed)
                           * cfg.costs.txnUpdate,
                       cc_tm);
    }
    shared.txns.lock().release();
}

sim::Task
WorkerLoop::datagramTimerTick(sim::Process &p, net::DatagramSocket &sock,
                              sim::SimTime now)
{
    static const auto cc_timer = sim::CostCenters::id("ser:timer");

    // Walk the global retransmission list (§3.2). The walk holds the
    // shared lock for its full duration, as OpenSER does.
    std::vector<RetransList::Due> due;
    std::vector<RetransList::TimedOut> timed_out;
    co_await shared_.retrans.lock().acquire(p);
    std::size_t visited = shared_.retrans.collectDue(now, due, timed_out);
    if (visited) {
        co_await p.cpu(static_cast<sim::SimTime>(visited)
                           * cfg_.costs.timerScanPerEntry,
                       cc_timer);
    }
    shared_.retrans.lock().release();

    shared_.counters.retransSent += due.size();
    for (auto &d : due)
        co_await sock.sendTo(p, d.dst, std::move(d.wire));

    // Timer B/F expiry: answer the caller with 408 and reclaim the
    // transaction so sustained loss cannot grow the table.
    for (auto &to : timed_out) {
        sim::SpanScope span(p);
        actions_.clear();
        co_await engine_.handleTimeout(p, to, &actions_);
        for (auto &action : actions_)
            co_await sock.sendTo(p, action.dstAddr,
                                 std::move(action.wire));
    }
}

} // namespace siprox::core
