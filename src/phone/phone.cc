#include "phone/phone.hh"

#include <algorithm>
#include <cstdlib>

#include "core/arch.hh"
#include "net/error.hh"
#include "sim/pollable.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"
#include "sip/timers.hh"

namespace siprox::phone {

namespace {

const sim::CostCenterId kPhoneCc =
    sim::CostCenters::id("phone:process");

} // namespace

// ---------------------------------------------------------------------------
// Link: transport adapter
// ---------------------------------------------------------------------------

class Phone::Link
{
  public:
    Link(net::Host &host, const PhoneConfig &cfg)
        : host_(host), cfg_(cfg)
    {
    }

    sim::Task
    open(sim::Process &p, bool *ok)
    {
        *ok = true;
        if (core::isStreamTransport(cfg_.transport))
            co_await connect(p, ok);
        else
            dgram_ = &core::bindDatagram(host_, cfg_.transport, cfg_.port);
    }

    /** Send to the proxy, or (datagram transports only) directly to
     *  @p dst when it is valid — used after a 302 redirect and for
     *  Via-routed responses. */
    sim::Task
    send(sim::Process &p, std::string wire, bool *ok,
         net::Addr dst = {})
    {
        *ok = true;
        if (sim::trace::enabled()) {
            auto eol = wire.find('\r');
            sim::trace::log(p.sim().now(), cfg_.user + " ->",
                            wire.substr(0, eol));
        }
        if (dgram_) {
            co_await dgram_->sendTo(p, dst.valid() ? dst : cfg_.proxyAddr,
                                    std::move(wire));
        } else if (active_) {
            co_await active_->conn.send(p, std::move(wire));
        } else {
            *ok = false;
        }
    }

    /** Receive one SIP message; empty string on timeout. */
    sim::Task
    recv(sim::Process &p, std::string *raw, sim::SimTime timeout)
    {
        raw->clear();
        sim::SimTime deadline = timeout == sim::kTimeNever
            ? sim::kTimeNever
            : p.sim().now() + timeout;
        std::vector<sim::Pollable *> &items = pollItems_;
        while (ready_.empty()) {
            items.clear();
            if (dgram_) {
                items.push_back(dgram_);
            } else {
                if (active_)
                    items.push_back(&active_->conn.readable());
                for (auto &z : zombies_)
                    items.push_back(&z->conn.readable());
            }
            sim::SimTime budget = deadline == sim::kTimeNever
                ? sim::kTimeNever
                : deadline - p.sim().now();
            if (deadline != sim::kTimeNever && budget <= 0)
                co_return; // timeout
            if (items.empty()) {
                // No open flow: wait out the budget.
                if (deadline == sim::kTimeNever)
                    co_return;
                co_await p.sleepFor(budget);
                co_return;
            }
            int idx = -1;
            co_await sim::poll(p, items, budget, idx);
            if (idx < 0)
                co_return; // timeout
            co_await harvest(p);
        }
        *raw = std::move(ready_.front());
        ready_.pop_front();
        if (sim::trace::enabled()) {
            auto eol = raw->find('\r');
            sim::trace::log(p.sim().now(), cfg_.user + " <-",
                            std::string_view(*raw).substr(0, eol));
        }
    }

    /** TCP: abandon the current connection (left open; the server's
     *  idle machinery must deal with it) and open a fresh one. */
    sim::Task
    cycle(sim::Process &p, bool *ok)
    {
        *ok = true;
        if (!core::isStreamTransport(cfg_.transport))
            co_return;
        auto old = std::move(active_);
        active_.reset();
        if (old)
            zombies_.push_back(std::move(old));
        co_await connect(p, ok);
        if (!*ok && !zombies_.empty()) {
            // Could not reconnect (e.g. port exhaustion): fall back to
            // the most recent abandoned connection.
            active_ = std::move(zombies_.back());
            zombies_.pop_back();
        }
    }

    bool hasActiveFlow() const
    {
        return dgram_ || active_ != nullptr;
    }

  private:
    struct TcpFlow
    {
        net::TcpConn conn;
        sip::StreamFramer framer;
    };

    sim::Task
    connect(sim::Process &p, bool *ok)
    {
        auto flow = std::make_unique<TcpFlow>();
        try {
            if (cfg_.transport == core::Transport::Tls)
                co_await host_.tlsConnect(p, cfg_.proxyAddr,
                                          flow->conn);
            else
                co_await host_.tcpConnect(p, cfg_.proxyAddr,
                                          flow->conn);
        } catch (const net::NetError &) {
            *ok = false;
            co_return;
        }
        active_ = std::move(flow);
        *ok = true;
    }

    /** Drain every readable flow into the ready-message queue. */
    sim::Task
    harvest(sim::Process &p)
    {
        if (dgram_) {
            net::Datagram d;
            while (dgram_->pollReady()) {
                co_await dgram_->recvFrom(p, d);
                ready_.push_back(std::move(d.payload));
            }
            co_return;
        }
        if (active_ && active_->conn.readable().pollReady()) {
            bool alive = true;
            co_await readFlow(p, *active_, &alive);
            if (!alive)
                active_.reset();
        }
        for (std::size_t i = 0; i < zombies_.size();) {
            if (!zombies_[i]->conn.readable().pollReady()) {
                ++i;
                continue;
            }
            bool alive = true;
            co_await readFlow(p, *zombies_[i], &alive);
            if (!alive)
                zombies_.erase(zombies_.begin()
                               + static_cast<long>(i));
            else
                ++i;
        }
    }

    sim::Task
    readFlow(sim::Process &p, TcpFlow &flow, bool *alive)
    {
        std::string bytes;
        co_await flow.conn.recv(p, bytes);
        if (bytes.empty()) {
            *alive = false; // EOF / reset
            co_return;
        }
        flow.framer.feed(std::move(bytes));
        while (auto raw = flow.framer.next())
            ready_.push_back(std::move(*raw));
        *alive = !flow.framer.poisoned();
    }

    net::Host &host_;
    const PhoneConfig &cfg_;
    /** The UDP, SCTP or SST socket; null on stream transports. */
    net::DatagramSocket *dgram_ = nullptr;
    std::unique_ptr<TcpFlow> active_;
    std::vector<std::unique_ptr<TcpFlow>> zombies_;
    std::deque<std::string> ready_;
    /** recv()'s poll set, kept to reuse its storage. */
    std::vector<sim::Pollable *> pollItems_;
};

// ---------------------------------------------------------------------------
// Phone
// ---------------------------------------------------------------------------

Phone::Phone(sim::Machine &machine, net::Host &host, PhoneConfig cfg)
    : machine_(machine), host_(host), cfg_(std::move(cfg)),
      link_(std::make_unique<Link>(host_, cfg_)),
      branches_(std::hash<std::string>{}(cfg_.user))
{
}

Phone::~Phone() = default;

sip::SipUri
Phone::contactUri() const
{
    return sip::uriForAddr(cfg_.user, host_.addr(cfg_.port));
}

void
Phone::startCallee(int expected_calls, sim::Latch *registered,
                   sim::Latch *done)
{
    machine_.spawn(cfg_.user, 0,
                   [this, expected_calls, registered,
                    done](sim::Process &p) {
                       return calleeMain(p, expected_calls, registered,
                                         done);
                   });
}

void
Phone::startCaller(int calls, std::string callee_user,
                   sim::Latch *registered, sim::Latch *start,
                   sim::Latch *done, const bool *stop)
{
    machine_.spawn(cfg_.user, 0,
                   [this, calls, callee_user, registered, start, done,
                    stop](sim::Process &p) {
                       return callerMain(p, calls, callee_user,
                                         registered, start, done,
                                         stop);
                   });
}

void
Phone::opDone(sim::SimTime now)
{
    ++stats_.opsCompleted;
    ++opsSinceConnect_;
    if (stats_.firstOpDone < 0)
        stats_.firstOpDone = now;
    stats_.lastOpDone = now;
}

sim::Task
Phone::maybeCycle(sim::Process &p)
{
    if (!core::isStreamTransport(cfg_.transport) || cfg_.opsPerConn <= 0
        || opsSinceConnect_ < cfg_.opsPerConn) {
        co_return;
    }
    opsSinceConnect_ = 0;
    bool ok = false;
    co_await link_->cycle(p, &ok);
    if (!ok) {
        ++stats_.reconnectFailures;
        co_return;
    }
    ++stats_.reconnects;
    // The new flow must be (re-)registered so the proxy's aliases and
    // location bindings point at it.
    bool reg_ok = false;
    co_await doRegister(p, &reg_ok);
}

sim::Task
Phone::doRegister(sim::Process &p, bool *ok)
{
    *ok = false;
    sip::RequestSpec spec;
    spec.method = sip::Method::Register;
    spec.requestUri = sip::uriForAddr("", cfg_.proxyAddr);
    spec.from = contactUri();
    spec.to = sip::uriForAddr(cfg_.user, cfg_.proxyAddr);
    spec.fromTag = cfg_.user + "-reg";
    spec.callId = cfg_.user + "-reg-"
        + std::to_string(stats_.registers);
    spec.cseq = ++cseq_;
    spec.viaTransport = core::transportName(cfg_.transport);
    spec.viaSentBy = contactUri();
    spec.branch = branches_.next();
    spec.contact = contactUri();

    requestDst_ = net::Addr{}; // registrations always go to the proxy
    std::optional<sip::SipMessage> rsp;
    sip::SipMessage sent_req;
    co_await transact(p, spec, &rsp, &sent_req);
    if (rsp && rsp->isSuccess()) {
        ++stats_.registers;
        *ok = true;
    }
}

sim::Task
Phone::awaitFinal(sim::Process &p, const sip::SipMessage &request,
                  const std::string &call_id, sip::Method method,
                  std::optional<sip::SipMessage> *out)
{
    out->reset();
    const bool udp = cfg_.transport == core::Transport::Udp;
    sim::SimTime deadline = p.sim().now() + cfg_.responseTimeout;
    sim::SimTime interval =
        udp ? sip::timers::kT1 : cfg_.responseTimeout;
    bool got_provisional = false;

    for (;;) {
        sim::SimTime now = p.sim().now();
        if (now >= deadline)
            co_return; // give up: failed call
        sim::SimTime budget = std::min(deadline, now + interval) - now;
        std::string raw;
        co_await link_->recv(p, &raw, budget);
        if (raw.empty()) {
            // Interval expired: retransmit on UDP unless a provisional
            // response told us the proxy has taken over (§2).
            if (udp && !got_provisional
                && p.sim().now() < deadline) {
                // Rendered only now: most requests never retransmit.
                ++stats_.retransmissions;
                bool sent = false;
                co_await link_->send(p, request.serialize(), &sent,
                                     requestDst_);
                interval = std::min<sim::SimTime>(interval * 2,
                                                  sip::timers::kT2);
            }
            continue;
        }
        co_await p.cpu(cfg_.processCost, kPhoneCc);
        auto parsed = sip::parseOwned(std::move(raw));
        if (!parsed.ok) {
            ++stats_.strayMessages;
            continue;
        }
        sip::SipMessage &msg = parsed.message;
        if (msg.isRequest()) {
            // Do not drop requests racing a response (e.g. the next
            // INVITE arriving during a post-reconnect REGISTER).
            pendingRequests_.push_back(std::move(msg));
            continue;
        }
        auto cseq = msg.cseq();
        if (msg.callId() != call_id || !cseq
            || cseq->method != method) {
            ++stats_.strayMessages;
            continue;
        }
        if (msg.isProvisional()) {
            got_provisional = true;
            continue;
        }
        *out = std::move(msg);
        co_return;
    }
}

namespace {

/** The address a request's top Via says responses go to (RFC 3261
 *  §18.2.2); invalid if it is not an h<id> simulated address. */
net::Addr
viaAddr(const sip::SipMessage &msg)
{
    const auto &via = msg.topVia();
    if (!via)
        return {};
    return sip::addrFromVia(*via).value_or(net::Addr{});
}

/** Seconds a 503's Retry-After asks us to wait (RFC 3261 §21.5.4);
 *  defaults to 1 s when the header is missing or unparsable. */
sim::SimTime
retryAfterOf(const sip::SipMessage &rsp)
{
    auto h = rsp.header("Retry-After");
    if (!h)
        return sim::secs(1);
    int s = std::atoi(std::string(*h).c_str());
    return s > 0 ? sim::secs(s) : sim::secs(1);
}

/** Pull the nonce value out of a WWW-Authenticate header. */
std::string
nonceFrom(const sip::SipMessage &rsp)
{
    auto h = rsp.header("WWW-Authenticate");
    if (!h)
        return {};
    auto pos = h->find("nonce=\"");
    if (pos == std::string_view::npos)
        return {};
    auto rest = h->substr(pos + 7);
    auto end = rest.find('"');
    return std::string(rest.substr(0, end));
}

} // namespace

sim::Task
Phone::transact(sim::Process &p, sip::RequestSpec &spec,
                std::optional<sip::SipMessage> *rsp,
                sip::SipMessage *sent)
{
    for (int attempt = 0; attempt < 2; ++attempt) {
        *sent = sip::buildRequest(spec);
        if (!authNonce_.empty()) {
            sent->setHeader("Authorization",
                            "Digest username=\"" + cfg_.user
                                + "\", nonce=\"" + authNonce_
                                + "\", response=\"0badcafe\"");
        }
        co_await p.cpu(cfg_.processCost, kPhoneCc);
        bool send_ok = false;
        co_await link_->send(p, sent->takeSerialized(), &send_ok,
                             requestDst_);
        if (!send_ok) {
            rsp->reset();
            co_return;
        }
        co_await awaitFinal(p, *sent, spec.callId, spec.method, rsp);
        if (!*rsp
            || (*rsp)->statusCode() != sip::status::kUnauthorized) {
            co_return;
        }
        // Digest challenge: remember the nonce and retry with
        // credentials and an incremented CSeq (RFC 2617).
        ++stats_.authChallengesSeen;
        authNonce_ = nonceFrom(**rsp);
        spec.cseq = ++cseq_;
        spec.branch = branches_.next();
    }
    rsp->reset(); // challenged twice: give up
}

sim::Task
Phone::placeCall(sim::Process &p, const std::string &callee_user,
                 int call_index, bool *ok)
{
    *ok = false;
    const std::string call_id =
        cfg_.user + "-call-" + std::to_string(call_index);

    // End-to-end causal span: the Call-ID minted here is the trace id
    // every hop (transport, kernel queue, worker, timer) joins on.
    sim::SpanScope call_span(p);
    if (auto *s = call_span.ctx()) {
        s->traceId = sim::trace::traceIdFor(call_id);
        s->callId = call_id;
        s->label = "call";
    }

    // --- INVITE transaction ---------------------------------------------
    sip::RequestSpec spec;
    spec.method = sip::Method::Invite;
    spec.requestUri = sip::uriForAddr(callee_user, cfg_.proxyAddr);
    spec.from = contactUri();
    spec.to = sip::uriForAddr(callee_user, cfg_.proxyAddr);
    spec.fromTag = cfg_.user + "-" + std::to_string(call_index);
    spec.callId = call_id;
    spec.cseq = ++cseq_;
    spec.viaTransport = core::transportName(cfg_.transport);
    spec.viaSentBy = contactUri();
    spec.branch = branches_.next();
    spec.contact = contactUri();

    sim::SimTime t0 = p.sim().now();
    requestDst_ = net::Addr{}; // each call starts at the proxy
    std::optional<sip::SipMessage> final_rsp;
    sip::SipMessage invite;
    co_await transact(p, spec, &final_rsp, &invite);

    if (final_rsp
        && final_rsp->statusCode() == sip::status::kMovedTemporarily
        && !core::isStreamTransport(cfg_.transport)) {
        // Redirect server (paper §2): re-issue the INVITE straight to
        // the contact; the rest of the call bypasses the server.
        auto contact = final_rsp->contactUri();
        auto direct = contact ? sip::addrFromUri(*contact)
                              : std::nullopt;
        if (!direct)
            co_return;
        ++stats_.redirectsFollowed;
        requestDst_ = *direct;
        spec.requestUri = *contact;
        spec.cseq = ++cseq_;
        spec.branch = branches_.next();
        co_await transact(p, spec, &final_rsp, &invite);
    }
    if (final_rsp
        && final_rsp->statusCode() == sip::status::kServiceUnavailable) {
        // Overload rejection: note the requested backoff; callerMain
        // sleeps it off between calls instead of hammering the proxy.
        ++stats_.rejected503;
        pendingBackoff_ = retryAfterOf(*final_rsp);
    }
    if (!final_rsp || !final_rsp->isSuccess())
        co_return;

    // ACK (end-to-end for 2xx: routed via the proxy to the contact,
    // or straight to the callee after a redirect).
    sip::SipMessage ack =
        sip::buildAck(invite, *final_rsp, branches_.next());
    if (auto contact = final_rsp->contactUri())
        ack.setRequestUri(*contact);
    co_await p.cpu(cfg_.processCost, kPhoneCc);
    bool sent = false;
    co_await link_->send(p, ack.takeSerialized(), &sent, requestDst_);
    stats_.inviteLatency.record(p.sim().now() - t0);
    opDone(p.sim().now());

    // --- BYE transaction ------------------------------------------------
    sim::SimTime t1 = p.sim().now();
    sip::RequestSpec bye_spec = std::move(spec);
    bye_spec.method = sip::Method::Bye;
    if (auto contact = final_rsp->contactUri())
        bye_spec.requestUri = *contact;
    bye_spec.cseq = ++cseq_;
    bye_spec.branch = branches_.next();
    bye_spec.contact.reset();
    std::optional<sip::SipMessage> bye_rsp;
    sip::SipMessage bye;
    co_await transact(p, bye_spec, &bye_rsp, &bye);
    if (bye_rsp
        && bye_rsp->statusCode() == sip::status::kServiceUnavailable) {
        ++stats_.rejected503;
        pendingBackoff_ = retryAfterOf(*bye_rsp);
    }
    if (!bye_rsp || !bye_rsp->isSuccess())
        co_return;
    stats_.byeLatency.record(p.sim().now() - t1);
    opDone(p.sim().now());
    *ok = true;
}

sim::Task
Phone::callerMain(sim::Process &p, int calls, std::string callee_user,
                  sim::Latch *registered, sim::Latch *start,
                  sim::Latch *done, const bool *stop)
{
    bool ok = false;
    co_await link_->open(p, &ok);
    if (ok)
        co_await doRegister(p, &ok);
    if (registered)
        registered->arrive();
    if (ok) {
        if (start)
            co_await start->wait(p);
        for (int i = 0; i < calls && !(stop && *stop); ++i) {
            bool call_ok = false;
            co_await placeCall(p, callee_user, i, &call_ok);
            if (call_ok) {
                ++stats_.callsCompleted;
                consecutive503_ = 0;
            } else {
                ++stats_.callsFailed;
            }
            if (pendingBackoff_ > 0) {
                sim::SimTime wait =
                    backoffWait(pendingBackoff_, consecutive503_,
                                cfg_.retryBackoffCap,
                                p.sim().rng().uniform());
                pendingBackoff_ = 0;
                ++consecutive503_;
                ++stats_.backoffs;
                co_await p.sleepFor(wait);
            }
            co_await maybeCycle(p);
        }
    }
    if (done)
        done->arrive();
}

sim::Task
Phone::calleeMain(sim::Process &p, int expected_calls,
                  sim::Latch *registered, sim::Latch *done)
{
    bool ok = false;
    co_await link_->open(p, &ok);
    if (ok)
        co_await doRegister(p, &ok);
    if (registered)
        registered->arrive();
    if (!ok) {
        if (done)
            done->arrive();
        co_return;
    }

    const bool udp = cfg_.transport == core::Transport::Udp;
    const std::string to_tag = cfg_.user + "-tag";
    int completed = 0;
    std::string current_call; // Call-ID being serviced
    // The 200 OK, re-rendered for each retransmission until the ACK;
    // set exactly while awaiting_ack.
    std::optional<sip::SipMessage> ok200;
    net::Addr ok200_dst;      // where the 200 goes (top Via)
    bool awaiting_ack = false;
    sim::SimTime retrans_at = sim::kTimeNever;
    sim::SimTime retrans_interval = sip::timers::kT1;

    while (completed < expected_calls) {
        sim::SimTime timeout = sim::kTimeNever;
        if (awaiting_ack && udp)
            timeout = retrans_at - p.sim().now();
        sip::SipMessage msg;
        if (!pendingRequests_.empty()) {
            // Parsed, and known to be a request, while a transaction
            // awaited its response.
            msg = std::move(pendingRequests_.front());
            pendingRequests_.pop_front();
            co_await p.cpu(cfg_.processCost, kPhoneCc);
        } else {
            std::string raw;
            co_await link_->recv(
                p, &raw,
                timeout == sim::kTimeNever
                    ? sim::kTimeNever
                    : std::max<sim::SimTime>(timeout, 0));
            if (raw.empty()) {
                // Retransmit 200 OK until the ACK arrives (UAS, §2).
                if (awaiting_ack && udp && ok200) {
                    ++stats_.retransmissions;
                    bool sent = false;
                    co_await link_->send(p, ok200->takeSerialized(),
                                         &sent, ok200_dst);
                    retrans_interval =
                        std::min<sim::SimTime>(retrans_interval * 2,
                                               sip::timers::kT2);
                    retrans_at = p.sim().now() + retrans_interval;
                }
                continue;
            }
            co_await p.cpu(cfg_.processCost, kPhoneCc);
            auto parsed = sip::parseOwned(std::move(raw));
            if (!parsed.ok) {
                ++stats_.strayMessages;
                continue;
            }
            msg = std::move(parsed.message);
            if (!msg.isRequest()) {
                ++stats_.strayMessages;
                continue;
            }
        }
        switch (msg.method()) {
          case sip::Method::Invite: {
            const bool duplicate =
                awaiting_ack && msg.callId() == current_call;
            current_call.assign(msg.callId());
            // Responses follow the request's top Via: the proxy when
            // proxied, the caller directly after a redirect.
            ok200_dst = viaAddr(msg);
            if (!duplicate) {
                sip::SipMessage ringing =
                    sip::buildResponse(msg, sip::status::kRinging,
                                       to_tag);
                bool sent = false;
                co_await p.cpu(cfg_.processCost, kPhoneCc);
                co_await link_->send(p, ringing.takeSerialized(), &sent,
                                     ok200_dst);
                if (cfg_.answerDelay > 0)
                    co_await p.sleepFor(cfg_.answerDelay);
                ok200 = sip::buildResponse(msg, sip::status::kOk, to_tag,
                                           contactUri());
            } else {
                ++stats_.retransmissions;
            }
            bool sent = false;
            co_await p.cpu(cfg_.processCost, kPhoneCc);
            co_await link_->send(p, ok200->takeSerialized(), &sent,
                                 ok200_dst);
            awaiting_ack = true;
            retrans_interval = sip::timers::kT1;
            retrans_at = p.sim().now() + retrans_interval;
            break;
          }
          case sip::Method::Ack: {
            if (awaiting_ack && msg.callId() == current_call) {
                awaiting_ack = false;
                retrans_at = sim::kTimeNever;
                ok200.reset(); // frees the INVITE bytes it shares
                opDone(p.sim().now()); // invite transaction complete
            }
            break;
          }
          case sip::Method::Bye: {
            // A BYE implies the ACK made it (or was lost; either way
            // the call is established and now ending).
            if (awaiting_ack && msg.callId() == current_call) {
                awaiting_ack = false;
                retrans_at = sim::kTimeNever;
                ok200.reset();
                opDone(p.sim().now());
            }
            sip::SipMessage ok = sip::buildResponse(
                msg, sip::status::kOk, to_tag);
            bool sent = false;
            co_await p.cpu(cfg_.processCost, kPhoneCc);
            co_await link_->send(p, ok.takeSerialized(), &sent,
                                 viaAddr(msg));
            if (!current_call.empty() && msg.callId() == current_call) {
                opDone(p.sim().now()); // bye transaction complete
                ++stats_.callsCompleted;
                ++completed;
                current_call.clear();
                co_await maybeCycle(p);
            } else {
                ++stats_.retransmissions;
            }
            break;
          }
          default:
            ++stats_.strayMessages;
            break;
        }
    }
    if (done)
        done->arrive();
}

} // namespace siprox::phone
