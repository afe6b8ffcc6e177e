/**
 * @file
 * SIP phone simulator (the paper's §4.2 benchmark client). Each phone
 * is one simulated process on a client machine acting as caller (UAC)
 * or callee (UAS). Phones speak real SIP over the configured
 * transport, retransmit per RFC 3261 timers on UDP, and — for the
 * non-persistent TCP workloads — abandon and re-establish their proxy
 * connection every N operations *without closing the old one*, exactly
 * the behaviour that stresses OpenSER's idle-connection machinery.
 */

#ifndef SIPROX_PHONE_PHONE_HH
#define SIPROX_PHONE_PHONE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "net/network.hh"
#include "net/tcp.hh"
#include "sim/machine.hh"
#include "sim/sync.hh"
#include "sip/builders.hh"
#include "sip/parser.hh"
#include "sip/transaction.hh"
#include "stats/histogram.hh"

namespace siprox::phone {

/** Per-phone configuration. */
struct PhoneConfig
{
    std::string user;
    std::uint16_t port = 0; ///< contact port (bound for UDP/SCTP)
    core::Transport transport = core::Transport::Udp;
    net::Addr proxyAddr;
    /** TCP: abandon + re-establish the connection every N operations
     *  (0 = persistent). */
    int opsPerConn = 0;
    /** Delay between RINGING and OK ("pick up" time). */
    sim::SimTime answerDelay = 0;
    /** Per-await give-up deadline (a failed call, not a crash). */
    sim::SimTime responseTimeout = sim::secs(4);
    /** Per-message processing cost charged on the client machine. */
    sim::SimTime processCost = sim::usecs(3);
    /** Cap on the exponential backoff honoring 503 Retry-After. */
    sim::SimTime retryBackoffCap = sim::secs(8);
};

/**
 * The wait a caller takes after a 503, honoring the advertised
 * Retry-After as a hard floor (RFC 3261 §21.5.4 semantics: never come
 * back sooner than asked). @p streak consecutive rejections double the
 * wait each time; @p cap bounds the growth but never below the
 * advertisement itself; @p u01 in [0, 1) adds up to +50% jitter — only
 * upward, so desynchronizing simultaneously rejected callers cannot
 * undercut the floor.
 */
inline sim::SimTime
backoffWait(sim::SimTime advertised, int streak, sim::SimTime cap,
            double u01)
{
    sim::SimTime wait = advertised << std::min(streak, 20);
    wait = std::min(wait, std::max(cap, advertised));
    return wait
        + static_cast<sim::SimTime>(static_cast<double>(wait) * 0.5
                                    * u01);
}

/** Outcome counters for one phone. */
struct PhoneStats
{
    std::uint64_t opsCompleted = 0;
    std::uint64_t callsCompleted = 0;
    std::uint64_t callsFailed = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t reconnectFailures = 0;
    std::uint64_t strayMessages = 0;
    std::uint64_t registers = 0;
    std::uint64_t authChallengesSeen = 0;
    std::uint64_t redirectsFollowed = 0;
    std::uint64_t rejected503 = 0; ///< calls refused with 503
    std::uint64_t backoffs = 0;    ///< Retry-After sleeps taken
    sim::SimTime firstOpDone = -1;
    sim::SimTime lastOpDone = 0;
    stats::LatencyHistogram inviteLatency;
    stats::LatencyHistogram byeLatency;
};

/**
 * One simulated SIP phone.
 */
class Phone
{
  public:
    Phone(sim::Machine &machine, net::Host &host, PhoneConfig cfg);
    ~Phone();

    Phone(const Phone &) = delete;
    Phone &operator=(const Phone &) = delete;

    /**
     * Spawn as callee: register, arrive at @p registered, then answer
     * @p expected_calls calls and arrive at @p done.
     */
    void startCallee(int expected_calls, sim::Latch *registered,
                     sim::Latch *done);

    /**
     * Spawn as caller: register, arrive at @p registered, wait for
     * @p start, place @p calls calls to @p callee_user, arrive at
     * @p done. If @p stop is non-null, the caller also stops at the
     * first call boundary where *stop is true (time-based runs).
     */
    void startCaller(int calls, std::string callee_user,
                     sim::Latch *registered, sim::Latch *start,
                     sim::Latch *done, const bool *stop = nullptr);

    const PhoneStats &stats() const { return stats_; }
    const PhoneConfig &config() const { return cfg_; }

    /** This phone's contact URI. */
    sip::SipUri contactUri() const;

  private:
    /**
     * Transport adapter: sends to the proxy, receives framed SIP
     * messages, handles TCP connection cycling with zombie draining.
     */
    class Link;

    sim::Task calleeMain(sim::Process &p, int expected_calls,
                         sim::Latch *registered, sim::Latch *done);
    sim::Task callerMain(sim::Process &p, int calls,
                         std::string callee_user,
                         sim::Latch *registered, sim::Latch *start,
                         sim::Latch *done, const bool *stop);

    /** REGISTER and await the 200. */
    sim::Task doRegister(sim::Process &p, bool *ok);

    /** One complete caller-side call (INVITE txn + BYE txn). */
    sim::Task placeCall(sim::Process &p, const std::string &callee_user,
                        int call_index, bool *ok);

    /**
     * Build, send, and await the final response for a request,
     * transparently answering one 401 digest challenge (the request is
     * resent with credentials and an incremented CSeq, which @p spec
     * then carries along with the new branch).
     * @param sent Receives the request as last transmitted.
     */
    sim::Task transact(sim::Process &p, sip::RequestSpec &spec,
                       std::optional<sip::SipMessage> *rsp,
                       sip::SipMessage *sent);

    /**
     * Await a response with CSeq method @p method and final/provisional
     * handling; retransmits @p request on UDP timer T1 backoff.
     */
    sim::Task awaitFinal(sim::Process &p, const sip::SipMessage &request,
                         const std::string &call_id, sip::Method method,
                         std::optional<sip::SipMessage> *out);

    /** Mark one operation complete. */
    void opDone(sim::SimTime now);

    /** Reconnect if the per-connection op budget is exhausted. */
    sim::Task maybeCycle(sim::Process &p);

    sim::Machine &machine_;
    net::Host &host_;
    PhoneConfig cfg_;
    PhoneStats stats_;
    std::unique_ptr<Link> link_;
    sip::BranchGenerator branches_;
    std::uint32_t cseq_ = 0;
    int opsSinceConnect_ = 0;
    /** 503 Retry-After backoff: pending sleep and rejection streak. */
    sim::SimTime pendingBackoff_ = 0;
    int consecutive503_ = 0;
    /** Nonce from the proxy's last 401 challenge (digest auth). */
    std::string authNonce_;
    /** Where requests go: invalid means "the proxy"; a redirect (302)
     *  points this at the callee directly for the rest of the call. */
    net::Addr requestDst_{};
    /** Requests received while awaiting a response (e.g. an INVITE
     *  arriving during a re-REGISTER), already parsed; replayed to the
     *  callee loop. */
    std::deque<sip::SipMessage> pendingRequests_;
};

} // namespace siprox::phone

#endif // SIPROX_PHONE_PHONE_HH
