/**
 * @file
 * The event-driven server architecture the paper's analysis points at
 * (§5–§6): the supervisor/worker split and its blocking fd-passing IPC
 * are replaced by one process per core running a readiness loop.
 *
 * Differences from OpenSER's designs (§3.1/§3.2):
 *  - No supervisor. Every loop polls the shared listener and accepts
 *    directly (non-blocking), so there is no dispatch channel, no
 *    fd-request round trip, and no process that can become the
 *    bottleneck when de-prioritised (§4.3).
 *  - Shared descriptor table instead of fd passing. Accepting a
 *    connection installs a duplicate descriptor in the shared
 *    connection table (as the multithreaded variant of §6 does). A
 *    loop's first send to another loop's connection dups that
 *    descriptor into a private per-loop cache under the table lock;
 *    every later send writes the private duplicate with no locks at
 *    all (one atomic write per SIP message) — the §5.2 fd cache's
 *    fast path with nothing behind a miss but a hash lookup and a
 *    dup(), no IPC round trip.
 *  - Per-core connection ownership with priority-queue idle
 *    management, always (§5.3's fix is the design here, not a knob;
 *    ProxyConfig::fdCache and ::idleStrategy do not apply).
 *  - Work stealing. A loop that would otherwise block with nothing
 *    ready migrates one ready connection (descriptor, framer state,
 *    idle-queue entry) from a backlogged sibling and services it.
 *    Static per-core ownership alone leaves cores idle whenever the
 *    instantaneous ready-set distribution is skewed — the same
 *    head-of-line effect SO_REUSEPORT accept sharding shows — and a
 *    handful of loops cannot smooth it statistically the way §3.1's
 *    32 workers do.
 *
 * Works over TCP, UDP, and SCTP. For datagram transports the loops
 * degenerate to symmetric readiness-driven receivers on the shared
 * socket; the architectural changes only matter for TCP, which is the
 * point: it closes most of TCP's gap to UDP.
 */

#ifndef SIPROX_CORE_EVENT_ARCH_HH
#define SIPROX_CORE_EVENT_ARCH_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/arch.hh"
#include "core/config.hh"
#include "core/engine.hh"
#include "core/shared.hh"
#include "core/worker_loop.hh"
#include "net/datagram.hh"
#include "net/network.hh"
#include "net/tcp.hh"
#include "sim/machine.hh"

namespace siprox::core {

class EventArch final : public ServerArch
{
  public:
    EventArch(sim::Machine &machine, net::Host &host,
              SharedState &shared, const ProxyConfig &cfg);
    ~EventArch() override;

    void start() override;
    void requestStop() override { stop_ = true; }

    ArchKind kind() const override { return ArchKind::EventDriven; }
    int loopCount() const override
    {
        return static_cast<int>(loops_.size());
    }

    /** No internal queues exist; the kernel queue is the signal. */
    std::size_t requestQueueDepth() const override
    {
        return recvQueueDepth();
    }

    std::size_t recvQueueDepth() const override;
    std::uint64_t recvQueueDrops() const override;
    std::uint64_t acceptRefused() const override;

    /** Gauges: owned connections, peer-fd duplicates, connections
     *  stolen (datagram mode: receive-queue high-water mark). */
    void appendTelemetryGauges(std::vector<ArchGauge> &out)
        const override;

  private:
    struct Loop
    {
        int id = -1;
        /** Connections this loop reads (it holds the fd). */
        std::unordered_map<std::uint64_t, net::TcpConn> owned;
        std::vector<std::uint64_t> ownedOrder;
        std::unordered_map<std::uint64_t, sip::StreamFramer> framers;
        /** Duplicate descriptors for other loops' connections, filled
         *  on first cross-loop send from the shared table. Unlike the
         *  §5.2 fd cache there is no IPC behind a miss — the dup comes
         *  straight out of the shared descriptor table — and no lock
         *  on a hit (each loop writes its own descriptor; a send is
         *  one atomic write). Swept with the idle scan. */
        std::unordered_map<std::uint64_t, net::TcpConn> peerFds;
        /** §5.3 always-on: per-core idle/destroy priority queue. */
        IdlePq idlePq;
        /** Connections this loop is mid-operation on (a coroutine of
         *  ours holds a reference across a suspension point). Thieves
         *  must not migrate these. */
        std::unordered_set<std::uint64_t> busy;
        std::unique_ptr<Engine> engine;
        std::unique_ptr<WorkerLoop> wloop;
        sim::SimTime nextScan = 0;
        int rrCursor = 0;
    };

    bool tcpMode() const { return isStreamTransport(cfg_.transport); }

    sim::Task loopMain(sim::Process &p, int id);
    sim::Task loopMainDatagram(sim::Process &p, int id);

    /** Accept-drain: install accepted connections as loop-owned. */
    sim::Task loopAccept(sim::Process &p, Loop &l, sim::SimTime until);
    sim::Task installConn(sim::Process &p, Loop &l, net::TcpConn conn,
                          bool accepted);
    sim::Task loopReadConn(sim::Process &p, Loop &l,
                           std::uint64_t conn_id);
    sim::Task loopSend(sim::Process &p, Loop &l, SendAction action);
    sim::Task loopConnect(sim::Process &p, Loop &l, SendAction action);

    /**
     * Migrate one ready, non-busy connection from a sibling loop and
     * service it. The migration itself has no suspension points, so it
     * is atomic under the cooperative scheduler. Sets @p stole.
     */
    sim::Task loopSteal(sim::Process &p, Loop &l, bool *stole);

    /** Close this loop's read side and drop the local maps. */
    sim::Task closeOwned(sim::Process &p, Loop &l,
                         std::uint64_t conn_id);

    /**
     * Remove the connection from the shared table and close the
     * table's descriptor — only if loop @p l still owns it (a stale
     * idle-queue entry on the old owner must not destroy a connection
     * that has since been stolen). Other loops' peerFds duplicates
     * stay valid (each holds its own handle) and are reaped by their
     * sweeps; writes on the dead connection are silently dropped.
     */
    sim::Task destroyConn(sim::Process &p, Loop &l,
                          std::uint64_t conn_id);

    sim::Task loopIdleScan(sim::Process &p, Loop &l);
    sim::Task timerMain(sim::Process &p);

    sim::Machine &machine_;
    net::Host &host_;
    SharedState &shared_;
    const ProxyConfig &cfg_;
    net::TcpListener *listener_ = nullptr;
    net::DatagramSocket *sock_ = nullptr;
    std::vector<std::unique_ptr<Loop>> loops_;
    std::unique_ptr<WorkerLoop> timerLoop_;
    bool stop_ = false;

    sim::CostCenterId ccPoll_;
    sim::CostCenterId ccConnHash_;
    sim::CostCenterId ccScan_;
    sim::CostCenterId ccKernAccept_;
};

} // namespace siprox::core

#endif // SIPROX_CORE_EVENT_ARCH_HH
