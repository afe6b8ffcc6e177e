/**
 * @file
 * Transport-independent SIP proxying: parse, transaction handling,
 * location routing, Via push/pop, and response construction. Each
 * worker owns one Engine; the architecture-specific code (UDP/TCP/SCTP
 * workers) performs the sends that the Engine emits as SendActions.
 *
 * The Engine charges all user-level CPU costs and takes the shared
 * locks itself, so lock contention behaves identically across
 * architectures (as it does in OpenSER, §3).
 */

#ifndef SIPROX_CORE_ENGINE_HH
#define SIPROX_CORE_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/shared.hh"
#include "net/addr.hh"
#include "sim/process.hh"
#include "sim/task.hh"
#include "sip/builders.hh"
#include "sip/parser.hh"
#include "sip/transaction.hh"

namespace siprox::core {

/** Where an incoming message came from. */
struct MsgSource
{
    net::Addr addr;
    /** TCP connection id it arrived on (0 for datagram transports). */
    std::uint64_t connId = 0;
};

/** One message the worker must transmit. */
struct SendAction
{
    std::string wire;
    net::Addr dstAddr;
    /** Preferred existing TCP connection (0: resolve by address). */
    std::uint64_t dstConnId = 0;
    /** True when this is a response heading back toward a caller. */
    bool toUpstream = false;
};

/**
 * Per-worker SIP proxy engine over the shared state.
 */
class Engine
{
  public:
    Engine(SharedState &shared, const ProxyConfig &cfg,
           net::Addr proxy_addr, int worker_id);

    /**
     * Process one raw SIP message.
     *
     * @param p The worker process (CPU charges and lock waits).
     * @param raw Wire bytes of exactly one message.
     * @param src Origin of the message.
     * @param out Receives the transmissions to perform, in order.
     */
    sim::Task handleMessage(sim::Process &p, std::string raw,
                            MsgSource src,
                            std::vector<SendAction> &out);

    /**
     * Timer B/F fired for a forwarded request that never drew a final
     * response: answer the caller with 408 Request Timeout and put the
     * transaction record on the expiry queue so the table is reclaimed
     * even under sustained loss.
     */
    sim::Task handleTimeout(sim::Process &p,
                            const RetransList::TimedOut &to,
                            std::vector<SendAction> *out);

  private:
    sim::Task handleRegister(sim::Process &p, sip::SipMessage msg,
                             MsgSource src,
                             std::vector<SendAction> *out);
    sim::Task handleRequest(sim::Process &p, sip::SipMessage msg,
                            MsgSource src,
                            std::vector<SendAction> *out);
    sim::Task handleResponse(sim::Process &p, sip::SipMessage msg,
                             MsgSource src,
                             std::vector<SendAction> *out);

    /** Digest authentication gate: challenges or verifies. */
    sim::Task checkAuth(sim::Process &p, const sip::SipMessage &msg,
                        MsgSource src, std::vector<SendAction> *out,
                        bool *accepted);

    /** Emit a locally generated response to the request's source. */
    sim::Task replyTo(sim::Process &p, const sip::SipMessage &req,
                      int status, MsgSource src,
                      std::vector<SendAction> *out);

    /**
     * Send a locally built response @p rsp back to @p src: attach the
     * hop-by-hop advertisement, charge the serialization, queue the
     * upstream SendAction, and count the local reply.
     */
    sim::Task sendLocalReply(sim::Process &p, sip::SipMessage rsp,
                             MsgSource src,
                             std::vector<SendAction> *out);

    /** Piggyback this proxy's hop-by-hop overload advertisement on a
     *  response about to be sent upstream (no-op when the hop scheme
     *  is off). Plain state arithmetic: no awaits, no allocations
     *  beyond the arena intern of the rendered value. */
    void attachHopFeedback(sip::SipMessage &rsp, sim::SimTime now);

    /** Park this worker in the `throttled` trace wait state for @p d
     *  (the hop gate's bounded hold before rejecting). */
    sim::Task throttledWait(sim::Process &p, sim::SimTime d);

    /** Resolve a destination address to a TCP connection id (0 if none
     *  or not TCP). Takes and releases the connection-table lock. */
    sim::Task resolveConn(sim::Process &p, net::Addr dst,
                          std::uint64_t *conn_id);

    bool tcp() const { return isStreamTransport(cfg_.transport); }
    bool unreliable() const { return cfg_.transport == Transport::Udp; }
    const char *viaTransport() const;

    /** Apply the resident-state pressure factor to a base cost. */
    sim::SimTime scaled(sim::SimTime base) const;

    SharedState &shared_;
    const ProxyConfig &cfg_;
    net::Addr proxyAddr_;
    /** Our Via host name ("h<id>"), built once instead of per message. */
    std::string viaHost_;
    sip::BranchGenerator branches_;
    std::uint64_t nonce_ = 0;

    // Interned cost centers (named after OpenSER function groups).
    sim::CostCenterId ccParse_;
    sim::CostCenterId ccRoute_;
    sim::CostCenterId ccBuild_;
    sim::CostCenterId ccTm_;
    sim::CostCenterId ccUsrloc_;
    sim::CostCenterId ccTimer_;
    sim::CostCenterId ccConnHash_;
};

} // namespace siprox::core

#endif // SIPROX_CORE_ENGINE_HH
