/**
 * @file
 * Network substrate parameters: wire characteristics and per-syscall
 * kernel CPU costs. Defaults approximate a gigabit LAN and a mid-2000s
 * Linux network stack; the calibration against the paper's absolute
 * numbers is documented in EXPERIMENTS.md.
 */

#ifndef SIPROX_NET_CONFIG_HH
#define SIPROX_NET_CONFIG_HH

#include <cstdint>

#include "sim/time.hh"

namespace siprox::net {

using sim::SimTime;

/** Tunable wire and kernel-cost model for the simulated network. */
struct NetConfig
{
    // --- wire ---------------------------------------------------------
    /** One-way propagation + switching latency. */
    SimTime latency = sim::usecs(60);
    /** Serialization delay per payload byte (1 Gb/s = 8 ns/byte). */
    SimTime perByteWire = sim::nsecs(8);

    // --- kernel CPU costs (charged to the calling process) -------------
    SimTime udpSendCost = sim::usecs(4.0);
    SimTime udpRecvCost = sim::usecs(3.5);
    /** TCP per-call costs include amortized ACK generation and
     *  processing, which UDP does not pay. */
    SimTime tcpSendCost = sim::usecs(10.0);
    SimTime tcpRecvCost = sim::usecs(8.0);
    /** Copy cost per byte, applied on both send and receive. */
    SimTime perByteCpu = sim::nsecs(2);
    SimTime tcpConnectCost = sim::usecs(12);
    SimTime tcpAcceptCost = sim::usecs(10);
    SimTime tcpCloseCost = sim::usecs(6);
    /** SCTP chunk/SACK handling is heavier than UDP's fast path. */
    SimTime sctpSendCost = sim::usecs(7.5);
    SimTime sctpRecvCost = sim::usecs(7.0);
    /** Kernel-side SCTP association setup (charged to first sender). */
    SimTime sctpAssocCost = sim::usecs(14);

    // --- batched datagram I/O (recvmmsg/sendmmsg) -----------------------
    /**
     * Messages moved per simulated datagram syscall. The servers
     * always receive and send through the batched paths; 1 (default)
     * makes every batch one packet, the classic recvfrom/sendto
     * charge, and keeps every batchMax=1 digest byte-identical. >1
     * amortizes the fixed part of the syscall cost over a burst, the
     * way recvmmsg/sendmmsg do.
     */
    int batchMax = 1;
    /**
     * Fraction of each per-message kernel send/recv cost that is the
     * fixed syscall crossing (mode switch, fd lookup, cache refill)
     * rather than per-packet work. A batch of n messages costs
     * fixed + n * (cost - fixed) + bytes * perByteCpu, which
     * degenerates to exactly the one-packet charge at n = 1.
     */
    double batchFixedShare = 0.6;

    // --- TLS over TCP (RFC 3261 sips) -----------------------------------
    /** Asymmetric-crypto CPU for a full handshake, charged once per
     *  side (client at connect, server on its first read). */
    SimTime tlsFullHandshakeCost = sim::usecs(120);
    /** Symmetric-only resumed handshake (session ticket accepted). */
    SimTime tlsResumedHandshakeCost = sim::usecs(30);
    /** 0-RTT resume: ticket + early data, no extra flight. */
    SimTime tlsZeroRttHandshakeCost = sim::usecs(18);
    /** Extra round trips a full handshake adds after TCP establishes
     *  (TLS 1.2 shape; a resumed handshake pays one, 0-RTT none). */
    int tlsFullHandshakeRtts = 2;
    /** Per-record framing/MAC CPU added to every TLS send and recv. */
    SimTime tlsRecordCost = sim::usecs(1.5);
    /** Bulk-cipher CPU per payload byte (both directions). */
    SimTime tlsPerByteCpu = sim::nsecs(4);
    /** Server-side session cache entries (per host, LRU-evicted).
     *  A client whose session was evicted falls back to a full
     *  handshake on its next connect. */
    int tlsSessionCacheCapacity = 4096;
    /** Offer/accept session resumption at all. */
    bool tlsResumption = true;
    /** Resume with 0-RTT early data instead of one round trip. */
    bool tlsZeroRtt = false;

    // --- SST (structured streams over a datagram substrate) -------------
    /** Kernel send/recv cost per message (UDP-like fast path plus
     *  stream framing). */
    SimTime sstSendCost = sim::usecs(5.0);
    SimTime sstRecvCost = sim::usecs(4.5);
    /** One-time channel (connection) setup to a new peer, charged to
     *  the first sender; the channel also pays one extra round trip. */
    SimTime sstChannelCost = sim::usecs(12);
    /** Lightweight per-stream setup/teardown CPU — the design point:
     *  orders of magnitude below a TCP+TLS connection cycle. */
    SimTime sstStreamCost = sim::usecs(0.8);
    /** Datagram-substrate MTU; larger messages are fragmented into
     *  frames and reassembled in order per stream. */
    int sstMtu = 1200;
    /** Idle SST channels are reaped by the kernel after this. */
    SimTime sstIdleTimeout = sim::secs(30);

    // --- behaviour ------------------------------------------------------
    /** Probability an individual UDP datagram is lost. */
    double udpLossProb = 0.0;
    /** Datagrams buffered per UDP/SCTP socket before drops. */
    int udpRecvQueue = 4096;
    /** TIME_WAIT hold on the active closer's ephemeral port. */
    SimTime timeWait = sim::secs(60);
    /** Per-host socket table limit (fd/conntrack stand-in). */
    int maxSocketsPerHost = 1 << 20;
    /** Ephemeral port range (half-open). */
    std::uint16_t ephemeralLo = 32768;
    std::uint16_t ephemeralHi = 61000;
    /** TCP listener accept-queue limit. */
    int acceptBacklog = 1024;
    /** Idle SCTP associations are reaped by the kernel after this. */
    SimTime sctpIdleTimeout = sim::secs(30);
};

} // namespace siprox::net

#endif // SIPROX_NET_CONFIG_HH
