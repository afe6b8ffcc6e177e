/**
 * @file
 * Common interface of the message-oriented sockets (UDP, SCTP, SST).
 *
 * The symmetric-worker and event-driven proxy architectures are
 * transport-generic over datagram sockets: they receive whole messages,
 * send whole messages, and sample queue depth/overflow for overload
 * control. Folding the transports behind one interface keeps that code
 * free of per-transport branches; the transports differ only in what
 * the kernel does underneath (SCTP associates, retransmits, and keeps
 * ordering; SST multiplexes streams over a channel; UDP does none of
 * that).
 *
 * The base class owns the receive queue, blocked-receiver wakeups, and
 * the batched I/O paths (recvBatch/sendBatch — the recvmmsg/sendmmsg
 * model): one simulated syscall charge covers up to NetConfig::batchMax
 * messages, split as a fixed crossing cost plus a per-packet marginal
 * cost. The servers receive only through these paths; at batchMax=1
 * each call moves one message at exactly the recvfrom/sendto charge.
 * Transports plug in only their per-message cost centers and the
 * post-charge send body (association/channel setup, fault rolls, wire
 * scheduling).
 */

#ifndef SIPROX_NET_DATAGRAM_HH
#define SIPROX_NET_DATAGRAM_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/addr.hh"
#include "sim/pollable.hh"
#include "sim/process.hh"
#include "sim/task.hh"

namespace siprox::net {

class Host;
struct BatchIoStats;

/** One received message. */
struct Datagram
{
    Addr src;
    Addr dst;
    std::string payload;
};

/** One outgoing message, queued for a batched send. */
struct OutDatagram
{
    Addr dst;
    std::string payload;
};

/**
 * A bound message-oriented socket. pollReady() (inherited from
 * sim::Pollable) is true while the receive queue is non-empty, so
 * readiness loops can wait on several sockets at once.
 *
 * Member coroutines capture `this`: sockets are owned by the Host maps
 * and never move, so that is safe (see the lifetime rule in
 * sim/task.hh).
 */
class DatagramSocket : public sim::Pollable
{
  public:
    /**
     * @param recv_block_reason Static trace label for a receiver
     *        blocking on an empty queue ("udp recv", "sctp recv"...).
     */
    DatagramSocket(Host &host, std::uint16_t port,
                   const char *recv_block_reason);
    ~DatagramSocket() override;

    /**
     * Send @p payload to @p dst. Charges kernel send cost; the message
     * arrives after the wire delay unless lost/impaired or the
     * receiver's queue overflows.
     */
    sim::Task sendTo(sim::Process &p, Addr dst, std::string payload);

    /**
     * Send every queued message, charging one batched syscall per
     * NetConfig::batchMax messages (sendmmsg). Consumes and clears
     * @p msgs, which must stay valid across the call (own it in the
     * calling coroutine's frame).
     */
    sim::Task sendBatch(sim::Process &p, std::vector<OutDatagram> &msgs);

    /** Blocking receive of one whole message; charges kernel receive
     *  cost on delivery. */
    sim::Task recvFrom(sim::Process &p, Datagram &out);

    /**
     * Blocking receive of up to @p max messages in one simulated
     * syscall (recvmmsg): waits for the first message, drains whatever
     * else is queued up to the cap, and charges one batched kernel
     * cost for the lot. @p out is replaced by the drained messages
     * and must stay valid across the call.
     */
    sim::Task recvBatch(sim::Process &p, std::vector<Datagram> &out,
                        int max);

    /**
     * Non-blocking batched dequeue of up to @p max messages; no kernel
     * cost charged (readiness loops pair this with chargeRecvBatch()).
     * @p out is cleared first; @p bytes receives the total payload
     * size. Returns the number of messages dequeued.
     */
    std::size_t tryRecvBatch(std::vector<Datagram> &out, int max,
                             std::size_t &bytes);

    /** Batched kernel receive cost: one syscall crossing amortized
     *  over @p msgs messages totalling @p bytes. */
    virtual sim::Task chargeRecvBatch(sim::Process &p, std::size_t msgs,
                                      std::size_t bytes) = 0;

    /** Batched kernel send cost (same model as chargeRecvBatch). */
    virtual sim::Task chargeSendBatch(sim::Process &p, std::size_t msgs,
                                      std::size_t bytes) = 0;

    Addr localAddr() const;

    /** Receive-queue depth (overload-control occupancy signal). */
    std::size_t queueDepth() const { return queue_.size(); }

    /** Messages discarded to receive-queue overflow. */
    std::uint64_t overflowDrops() const { return overflowDrops_; }

    /** Deepest the receive queue has ever been (telemetry gauge). */
    std::size_t queuePeak() const { return queuePeak_; }

    bool pollReady() const override { return !queue_.empty(); }

  protected:
    /**
     * Transport body of one send, *after* the kernel syscall charge
     * (sendTo/sendBatch bill that): association/channel setup, loss
     * and fault rolls, stats, and wire-delivery scheduling.
     */
    virtual sim::Task sendPrepared(sim::Process &p, Addr dst,
                                   std::string payload) = 0;

    /**
     * Batched per-message kernel charge: fixed crossing share plus
     * per-message marginal cost plus the per-byte copy cost, in one
     * cpu() charge to @p cost_center. Exactly the one-message
     * recvfrom/sendto charge when @p msgs == 1.
     */
    sim::Task chargeBatched(sim::Process &p, sim::SimTime per_msg_cost,
                            const char *cost_center, std::size_t msgs,
                            std::size_t bytes);

    /**
     * Bounded enqueue on the receive queue; wakes one blocked receiver
     * and the poll waiters. Returns false on overflow (overflowDrops_
     * is counted here; the caller counts its per-transport drop stat).
     */
    bool enqueueDelivery(Datagram dgram);

    Host &host_;
    std::uint16_t port_;
    std::deque<Datagram> queue_;
    std::deque<sim::Process *> waiters_;
    std::uint64_t overflowDrops_ = 0;
    std::size_t queuePeak_ = 0;

  private:
    /** Block until the receive queue holds a message. */
    sim::Task awaitDelivery(sim::Process &p);

    /** Record one batch of @p msgs in @p stats (batchMax > 1 only). */
    void noteBatch(BatchIoStats &stats, std::size_t msgs) const;

    /** Messages one wake drains: batchMax (at least 1). */
    std::size_t wakeShare() const;

    /** Retire one in-flight wake's drain share. */
    void consumeWakeCapacity();

    const char *recvBlockReason_;
    /** Messages the wakes already in flight will drain (batchMax per
     *  pending wake) — enqueueDelivery()'s wake-suppression budget. */
    std::size_t wokenCapacity_ = 0;
};

} // namespace siprox::net

#endif // SIPROX_NET_DATAGRAM_HH
