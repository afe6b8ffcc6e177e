/**
 * @file
 * The pluggable server-architecture layer.
 *
 * The paper's central claim is that OpenSER's TCP deficit is an
 * *architecture* problem (blocking fd-passing IPC, O(N) idle scans),
 * not a transport problem. Making the architecture a first-class,
 * transport-agnostic interface lets the arch x transport cross-product
 * be an experiment axis: the same workload can run the §3.1
 * supervisor/worker design, the §3.2 symmetric workers, or the
 * event-driven redesign over any transport that supports it.
 *
 * Implementations: TcpArch (SupervisorWorker), UdpArch
 * (SymmetricWorker), EventArch (EventDriven). Construct through
 * makeServerArch(), which validates the arch x transport pairing.
 */

#ifndef SIPROX_CORE_ARCH_HH
#define SIPROX_CORE_ARCH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/shared.hh"
#include "net/datagram.hh"
#include "net/network.hh"
#include "sim/machine.hh"

namespace siprox::core {

/**
 * One architecture-specific telemetry gauge: a stable metric name (no
 * machine/hop prefix — the sampler adds those) and its current value.
 * Kept a plain pair-of-POD so core need not depend on stats.
 */
struct ArchGauge
{
    const char *name;
    double value;
};

/**
 * One server architecture bound to a host. start() binds sockets and
 * spawns the architecture's processes; the occupancy hooks are the
 * uniform sampling surface the overload controller, the workload
 * runner, and collectMetrics poll.
 */
class ServerArch
{
  public:
    virtual ~ServerArch() = default;

    ServerArch(const ServerArch &) = delete;
    ServerArch &operator=(const ServerArch &) = delete;

    /** Bind sockets and spawn this architecture's processes. */
    virtual void start() = 0;

    /** Ask every loop to exit at its next wakeup. */
    virtual void requestStop() = 0;

    /** Resolved architecture kind (never Auto). */
    virtual ArchKind kind() const = 0;

    /** Processes running receive loops (workers or event loops). */
    virtual int loopCount() const = 0;

    // --- occupancy hooks (sampled, not locked) -------------------------
    /** Depth of the internal work/request queue: the TCP
     *  worker->supervisor channel; for architectures without IPC the
     *  socket receive queue. */
    virtual std::size_t requestQueueDepth() const = 0;

    /** Datagram receive-queue depth, or the TCP kernel accept
     *  backlog. */
    virtual std::size_t recvQueueDepth() const = 0;

    /** Messages the proxy's socket dropped to receive-queue
     *  overflow. */
    virtual std::uint64_t recvQueueDrops() const = 0;

    /** TCP connects refused because the accept queue was full. */
    virtual std::uint64_t acceptRefused() const = 0;

    /**
     * Append architecture-specific telemetry gauges (windowed
     * sampler). Default: none. Implementations expose what the common
     * hooks above cannot: e.g. open connections, idle-scan length,
     * supervisor channel occupancy.
     */
    virtual void
    appendTelemetryGauges(std::vector<ArchGauge> &out) const
    {
        (void)out;
    }

  protected:
    ServerArch() = default;
};

/**
 * Construct the architecture selected by @p cfg (resolving
 * ArchKind::Auto by transport).
 *
 * @throws std::invalid_argument when the arch x transport pairing is
 *         unsupported (see archSupportError()).
 */
std::unique_ptr<ServerArch> makeServerArch(sim::Machine &machine,
                                           net::Host &host,
                                           SharedState &shared,
                                           const ProxyConfig &cfg);

/**
 * Bind @p host's socket for the datagram transport @p transport (UDP,
 * SCTP or SST) on @p port. Servers and phones use the result only
 * through the transport-generic net::DatagramSocket interface.
 */
net::DatagramSocket &bindDatagram(net::Host &host, Transport transport,
                                  std::uint16_t port);

} // namespace siprox::core

#endif // SIPROX_CORE_ARCH_HH
