/**
 * @file
 * The simulated network fabric and per-machine Host endpoints. A Host
 * owns the bound sockets of one machine; the Network routes datagrams
 * and segments between hosts with configurable latency and loss.
 */

#ifndef SIPROX_NET_NETWORK_HH
#define SIPROX_NET_NETWORK_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/addr.hh"
#include "net/config.hh"
#include "net/impairment.hh"
#include "net/port_alloc.hh"
#include "sim/machine.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"

namespace siprox::net {

class Network;
class UdpSocket;
class TcpListener;
class TcpEndpoint;
class TcpConn;
class SctpSocket;
class SstSocket;
struct TlsHostState;

/**
 * Batched datagram I/O accounting: one record per recvBatch/sendBatch
 * syscall, kept only when NetConfig::batchMax > 1 (at 1 every call is
 * a plain one-message syscall). The depth histogram's invariant — sum
 * over d of d * depth[d-1] equals messages — holds exactly while
 * NetConfig::batchMax <= kDepthBuckets (the last bucket clamps deeper
 * batches).
 */
struct BatchIoStats
{
    static constexpr std::size_t kDepthBuckets = 64;

    std::uint64_t calls = 0;    ///< batched syscalls issued
    std::uint64_t messages = 0; ///< packets moved by those calls
    std::uint64_t maxDepth = 0; ///< deepest single batch seen
    /** Bucket d-1 counts batches of exactly d packets. */
    std::array<std::uint64_t, kDepthBuckets> depth{};

    void
    note(std::size_t n)
    {
        ++calls;
        messages += n;
        if (n > maxDepth)
            maxDepth = n;
        std::size_t b = n < kDepthBuckets ? n : kDepthBuckets;
        if (b > 0)
            ++depth[b - 1];
    }
};

/**
 * Per-host wire traffic, split by direction. Counted at the transport
 * send/deliver sites (every datagram, segment, or frame that actually
 * leaves or reaches a host — losses are charged to the sender only), so
 * windowed telemetry can attribute bytes/packets to individual machines
 * rather than the fabric-wide NetStats totals.
 */
struct HostIoStats
{
    std::uint64_t pktsOut = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t pktsIn = 0;
    std::uint64_t bytesIn = 0;
};

/** Aggregate traffic counters, for tests and benches. Every counter
 *  needs a row in workload/counters.hh. */
struct NetStats
{
    std::uint64_t udpSent = 0;
    std::uint64_t udpDelivered = 0;
    std::uint64_t udpLost = 0;
    std::uint64_t udpDropped = 0; ///< receive-queue overflow
    std::uint64_t tcpConnects = 0;
    std::uint64_t tcpRefused = 0;
    std::uint64_t tcpSegments = 0;
    std::uint64_t tcpBytes = 0;
    std::uint64_t sctpMessages = 0;
    std::uint64_t sctpAssocs = 0;
    std::uint64_t sctpDropped = 0; ///< receive-buffer overflow
    // --- TLS over TCP -------------------------------------------------
    std::uint64_t tlsConnects = 0;        ///< handshakes completed
    std::uint64_t tlsHandshakesFull = 0;  ///< full (asymmetric) paths
    std::uint64_t tlsHandshakesResumed = 0; ///< ticket-resumed, 1-RTT
    std::uint64_t tlsZeroRttResumes = 0;  ///< ticket-resumed, 0-RTT
    std::uint64_t tlsSessionEvictions = 0; ///< server cache LRU drops
    std::uint64_t tlsHandshakeAborts = 0; ///< impairment mid-handshake
    std::uint64_t tlsRecords = 0;         ///< records encrypted (sends)
    // --- SST structured streams ---------------------------------------
    std::uint64_t sstMessages = 0; ///< application messages sent
    std::uint64_t sstStreams = 0;  ///< streams opened (local side)
    std::uint64_t sstFrames = 0;   ///< MTU-sized frames on the wire
    std::uint64_t sstChannels = 0; ///< channel setups paid
    std::uint64_t sstDropped = 0;  ///< receive-buffer overflow
    std::uint64_t sstLost = 0;     ///< messages lost to dead links
    // --- batched datagram I/O (all datagram transports) ----------------
    BatchIoStats batchRecv; ///< recvBatch/tryRecvBatch drains
    BatchIoStats batchSend; ///< sendBatch flushes
    // --- injected faults (aggregates; per-link detail in faults()) ----
    std::uint64_t faultDropped = 0;    ///< datagrams lost/partitioned
    std::uint64_t faultDuplicated = 0; ///< duplicate datagrams injected
    std::uint64_t faultDelayed = 0;    ///< deliveries given extra delay
    std::uint64_t tcpFaultRefused = 0; ///< connects refused by fault
    std::uint64_t tcpRstInjected = 0;  ///< mid-stream RSTs injected
    std::uint64_t tcpBlackholed = 0;   ///< segments that never arrive
    std::uint64_t tcpRecoveries = 0;   ///< in-kernel loss recoveries
};

/**
 * One machine's view of the network: its sockets and ports.
 */
class Host
{
  public:
    Host(Network &net, sim::Machine &machine, std::uint32_t id);
    ~Host();

    Host(const Host &) = delete;
    Host &operator=(const Host &) = delete;

    Network &net() const { return net_; }
    sim::Machine &machine() const { return machine_; }
    std::uint32_t id() const { return id_; }

    /** Address of @p port on this host. */
    Addr addr(std::uint16_t port) const { return Addr{id_, port}; }

    /** Bind a UDP socket; throws AddressInUse. */
    UdpSocket &udpBind(std::uint16_t port);

    /** Open a TCP listener; throws AddressInUse. */
    TcpListener &tcpListen(std::uint16_t port);

    /**
     * Actively open a TCP connection. Blocks for the handshake.
     * @param local_port 0 for an ephemeral port.
     * @throws NetError on refusal or port/socket exhaustion.
     */
    sim::Task tcpConnect(sim::Process &p, Addr remote, TcpConn &out,
                         std::uint16_t local_port = 0);

    /** Bind an SCTP one-to-many socket; throws AddressInUse. */
    SctpSocket &sctpBind(std::uint16_t port);

    /** Bind an SST structured-stream socket; throws AddressInUse. */
    SstSocket &sstBind(std::uint16_t port);

    /**
     * Open a TLS connection: TCP connect, then the handshake — full
     * (2 extra RTTs + asymmetric CPU), ticket-resumed (1 RTT), or
     * 0-RTT, depending on the config knobs and both sides' session
     * state. Link faults during a handshake flight abort the connect.
     * @throws NetError on refusal, abort, or port/socket exhaustion.
     */
    sim::Task tlsConnect(sim::Process &p, Addr remote, TcpConn &out);

    /** Server-side resumable-session cache occupancy (tests). */
    std::size_t tlsSessionCount() const;

    /** Drop this host's client-side TLS session tickets (tests). */
    void tlsForgetTickets();

    PortAllocator &ports() { return ports_; }

    /** Currently open socket structures (endpoints + bound sockets). */
    int openSockets() const { return openSockets_; }

    /** Cumulative wire traffic through this host, by direction. */
    const HostIoStats &io() const { return io_; }

    /** One packet/segment/frame of @p bytes put on the wire. */
    void
    noteSent(std::size_t bytes)
    {
        ++io_.pktsOut;
        io_.bytesOut += bytes;
    }

    /** One packet/segment/frame of @p bytes arrived from the wire. */
    void
    noteReceived(std::size_t bytes)
    {
        ++io_.pktsIn;
        io_.bytesIn += bytes;
    }

  private:
    friend class Network;
    friend class TcpEndpoint;
    friend class TcpListener;
    friend class UdpSocket;
    friend class SctpSocket;
    friend class SstSocket;

    void
    socketOpened()
    {
        ++openSockets_;
    }

    void
    socketClosed()
    {
        --openSockets_;
    }

    /** Track every endpoint created on this host so ~Host can mark
     *  them closed: TcpConn handles in coroutine frames may outlive
     *  the Network, and their close path must not touch it. */
    void adoptEndpoint(const std::shared_ptr<TcpEndpoint> &ep);

    /** Lazily created TLS session state (tickets + server cache). */
    TlsHostState &tls();

    Network &net_;
    sim::Machine &machine_;
    std::uint32_t id_;
    PortAllocator ports_;
    int openSockets_ = 0;
    std::unordered_map<std::uint16_t, std::unique_ptr<UdpSocket>> udp_;
    std::unordered_map<std::uint16_t, std::unique_ptr<TcpListener>>
        listeners_;
    std::unordered_map<std::uint16_t, std::unique_ptr<SctpSocket>> sctp_;
    std::unordered_map<std::uint16_t, std::unique_ptr<SstSocket>> sst_;
    std::vector<std::weak_ptr<TcpEndpoint>> tcpEndpoints_;
    std::unique_ptr<TlsHostState> tls_;
    HostIoStats io_;
};

/**
 * The fabric connecting all hosts.
 */
class Network
{
  public:
    explicit Network(sim::Simulation &sim, NetConfig cfg = {});
    ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Attach a machine, creating its Host. */
    Host &attach(sim::Machine &machine);

    sim::Simulation &sim() const { return sim_; }
    const NetConfig &config() const { return cfg_; }
    NetConfig &config() { return cfg_; }

    Host *hostById(std::uint32_t id);

    NetStats &stats() { return stats_; }

    /** Link-level fault injection (clean by default). */
    FaultInjector &faults() { return faults_; }
    const FaultInjector &faults() const { return faults_; }

    /** Wire delay for a payload of @p bytes. */
    SimTime
    wireDelay(std::size_t bytes) const
    {
        return cfg_.latency
            + static_cast<SimTime>(bytes) * cfg_.perByteWire;
    }

    /** Next globally unique connection id. */
    std::uint64_t nextConnId() { return ++connIds_; }

  private:
    sim::Simulation &sim_;
    NetConfig cfg_;
    std::vector<std::unique_ptr<Host>> hosts_;
    NetStats stats_;
    FaultInjector faults_;
    std::uint64_t connIds_ = 0;
};

} // namespace siprox::net

#endif // SIPROX_NET_NETWORK_HH
