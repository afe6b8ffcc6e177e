/**
 * @file
 * Simulated SST/QUIC-style structured-stream transport: lightweight
 * per-call streams multiplexed over a datagram substrate.
 *
 * The design point (SST, Ford SIGCOMM'07; same shape as QUIC streams):
 * connection state lives in a per-peer *channel* that is paid for once,
 * while each transaction gets its own *stream* whose setup/teardown is
 * orders of magnitude cheaper than a TCP connection cycle — so a
 * connection-per-call workload keeps UDP-like costs while retaining
 * ordered, framed delivery within each stream. There is no cross-stream
 * head-of-line blocking: frames of different streams are delivered
 * independently; ordering floors are per stream only.
 *
 * The DatagramSocket interface maps one sendTo() to one ephemeral
 * stream carrying one message (opened, sent, torn down in a single
 * shot), which is how the proxy architectures use it. Tests exercise
 * the explicit stream API (openStream/streamSend/streamHalfClose)
 * for lifecycle and interleaving behaviour.
 */

#ifndef SIPROX_NET_SST_HH
#define SIPROX_NET_SST_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/addr.hh"
#include "net/datagram.hh"
#include "net/network.hh"
#include "sim/process.hh"
#include "sim/task.hh"

namespace siprox::net {

/** Lifecycle of one SST stream, as seen from one endpoint. */
enum class SstStreamState
{
    Open,
    HalfClosedLocal,  ///< we sent our FIN; peer teardown in flight
    HalfClosedRemote, ///< peer's FIN seen; no more data will arrive
    Closed,           ///< fully torn down (or never existed)
};

/**
 * Per-stream reassembly: frames arrive in order (per-stream floors
 * guarantee it) and are stitched back into whole messages. The first
 * chunk of a message is adopted, not copied, so a message that fits
 * one frame crosses the receive path without a byte copy — the same
 * zero-copy discipline as sip::StreamFramer.
 */
class SstFramer
{
  public:
    /** Append @p chunk; @p end_of_message completes one message. */
    void
    feed(std::string &&chunk, bool end_of_message)
    {
        if (buf_.empty())
            buf_ = std::move(chunk);
        else
            buf_ += chunk;
        if (end_of_message) {
            ready_.push_back(std::move(buf_));
            buf_.clear();
        }
    }

    void
    feed(const std::string &chunk, bool end_of_message)
    {
        feed(std::string(chunk), end_of_message);
    }

    /** Pop the next completed message, if any. */
    std::optional<std::string>
    next()
    {
        if (head_ == ready_.size())
            return std::nullopt;
        std::string m = std::move(ready_[head_++]);
        if (head_ == ready_.size()) {
            // Fully drained: reuse the vector's capacity so the
            // steady-state feed/next cycle is allocation-free.
            ready_.clear();
            head_ = 0;
        } else if (head_ >= kCompactAt
                   && head_ >= ready_.size() - head_) {
            // Under sustained load the ring never fully drains, so the
            // consumed prefix (moved-from strings) would grow without
            // bound. Compact once the dead prefix dominates the live
            // tail, keeping the vector at most ~2x the live count.
            ready_.erase(ready_.begin(),
                         ready_.begin()
                             + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        return m;
    }

    /** Bytes of the current, incomplete message. */
    std::size_t buffered() const { return buf_.size(); }

  private:
    static constexpr std::size_t kCompactAt = 32;

    std::string buf_;
    std::vector<std::string> ready_;
    std::size_t head_ = 0;
};

/**
 * A bound SST socket. Created via Host::sstBind().
 */
class SstSocket : public DatagramSocket
{
  public:
    SstSocket(Host &host, std::uint16_t port);
    ~SstSocket() override;

    sim::Task chargeRecvBatch(sim::Process &p, std::size_t msgs,
                              std::size_t bytes) override;
    sim::Task chargeSendBatch(sim::Process &p, std::size_t msgs,
                              std::size_t bytes) override;

    // --- explicit stream API (long-lived streams; used by tests) ----

    /** Open a long-lived stream to @p dst; no wire traffic yet. */
    sim::Task openStream(sim::Process &p, Addr dst, std::uint32_t &out);

    /** Send one framed message on stream @p id (must be Open). */
    sim::Task streamSend(sim::Process &p, std::uint32_t id,
                         std::string payload);

    /** Send our FIN on stream @p id; the local record lingers as
     *  HalfClosedLocal until the teardown round trip completes. */
    sim::Task streamHalfClose(sim::Process &p, std::uint32_t id);

    /** State of a stream by id — local streams first, then streams
     *  opened towards us; unknown ids read as Closed. */
    SstStreamState streamState(std::uint32_t id) const;

    /** Live stream records (local + remote). */
    std::size_t streamCount() const;

    /** Live channels (peers with connection state). */
    std::size_t channelCount() const { return channels_.size(); }

  protected:
    /**
     * Send one message on an ephemeral stream: open, send, tear down
     * in one shot. The first message to a new peer pays channel setup
     * (kernel CPU + one extra round trip); every message pays the
     * (cheap) stream setup. The per-message syscall cost is already
     * charged by the base.
     */
    sim::Task sendPrepared(sim::Process &p, Addr dst,
                           std::string payload) override;

  private:
    friend class Host;

    struct Channel
    {
        sim::SimTime lastUse = 0;
    };

    struct LocalStream
    {
        Addr peer;
        SstStreamState state = SstStreamState::Open;
        /** Ordered delivery within the stream: no frame may arrive
         *  before this instant. */
        sim::SimTime deliveryFloor = 0;
    };

    struct RemoteStream
    {
        SstStreamState state = SstStreamState::Open;
        sim::SimTime lastUse = 0;
        SstFramer framer;
    };

    /** Ensure a channel to @p dst exists; returns the extra one-time
     *  round-trip delay the next frames must absorb (0 if warm). */
    sim::Task ensureChannel(sim::Process &p, Addr dst, SimTime &extra);

    /** Fragment one message into MTU frames and schedule delivery.
     *  All CPU must be charged before calling; this only rolls faults
     *  and books wire time. @p eom marks the last frame as completing
     *  a message; @p fin additionally carries our half-close. */
    void scheduleFrames(Addr dst, std::uint32_t sid, std::string payload,
                        bool eom, bool fin, bool ephemeral, SimTime extra,
                        SimTime &floor);

    void deliverFrame(Addr src, std::uint32_t sid, std::string chunk,
                      bool eom, bool fin, bool ephemeral);
    void scheduleSweep();
    void sweepIdle();

    std::unordered_map<Addr, Channel, AddrHash> channels_;
    std::unordered_map<std::uint32_t, LocalStream> local_;
    std::unordered_map<Addr,
                       std::unordered_map<std::uint32_t, RemoteStream>,
                       AddrHash>
        remote_;
    std::uint32_t nextStreamId_ = 0;
    bool sweepScheduled_ = false;
};

} // namespace siprox::net

#endif // SIPROX_NET_SST_HH
