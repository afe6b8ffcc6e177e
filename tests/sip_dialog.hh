/**
 * @file
 * One call as the phones build it, shared by the wire-byte goldens and
 * the allocation budgets: caller3 at h4:6003 calls callee3, whose
 * contact is h5:7003, through a stateful proxy at h1:5060. Also crlf(),
 * to write a golden message as its lines.
 */

#ifndef SIPROX_TESTS_SIP_DIALOG_HH
#define SIPROX_TESTS_SIP_DIALOG_HH

#include <initializer_list>
#include <string>
#include <string_view>

#include "sip/builders.hh"
#include "sip/message.hh"
#include "sip/parser.hh"

namespace siprox::tests {

/** @p lines joined with CRLF (an SDP body's lines included). */
inline std::string
crlf(std::initializer_list<std::string_view> lines)
{
    std::string out;
    bool first = true;
    for (std::string_view l : lines) {
        if (!first)
            out += "\r\n";
        out += l;
        first = false;
    }
    return out;
}

/** The callee's registered contact. */
inline sip::SipUri
calleeContact()
{
    return *sip::SipUri::parse("sip:callee3@h5:7003");
}

/** The caller's INVITE, specified as Phone::placeCall does. */
inline sip::RequestSpec
callerInvite()
{
    sip::RequestSpec spec;
    spec.method = sip::Method::Invite;
    spec.requestUri = *sip::SipUri::parse("sip:callee3@h1:5060");
    spec.from = *sip::SipUri::parse("sip:caller3@h4:6003");
    spec.to = spec.requestUri;
    spec.fromTag = "caller3-0";
    spec.callId = "caller3-call-0";
    spec.cseq = 2;
    spec.viaSentBy = *sip::SipUri::parse("sip:h4:6003");
    spec.branch = "z9hG4bK11400714819323198485.2";
    spec.contact = spec.from;
    return spec;
}

/** The BYE that follows callerInvite()'s call. */
inline sip::RequestSpec
callerBye()
{
    sip::RequestSpec spec = callerInvite();
    spec.method = sip::Method::Bye;
    spec.requestUri = calleeContact();
    spec.cseq = 3;
    spec.branch = "z9hG4bK11400714819323198485.4";
    spec.contact.reset();
    return spec;
}

/** The proxy's rewrite of a parsed request toward @p target: Max-Forwards
 *  down, its Via on top, sent by moving the rendering out. */
inline std::string
forwardAtProxy(sip::SipMessage &msg, const sip::SipUri &target,
               std::string_view branch)
{
    msg.setMaxForwards(msg.maxForwards().value_or(70) - 1);
    msg.setRequestUri(target);
    msg.prependVia(sip::ViaView{"UDP", "h1", 5060, branch});
    return msg.takeSerialized();
}

/** @p req as the callee receives it from the proxy. */
inline sip::SipMessage
forwardedByProxy(const sip::SipMessage &req, std::string_view branch)
{
    sip::ParseResult r = sip::parseOwned(req.serialize());
    return sip::parseOwned(
               forwardAtProxy(r.message, calleeContact(), branch))
        .message;
}

/** @p rsp as the caller receives it: the proxy's Via popped. */
inline sip::SipMessage
relayedByProxy(const sip::SipMessage &rsp)
{
    sip::ParseResult r = sip::parseOwned(rsp.serialize());
    r.message.removeFirstHeader(sip::HeaderId::Via);
    return sip::parseOwned(r.message.takeSerialized()).message;
}

} // namespace siprox::tests

#endif // SIPROX_TESTS_SIP_DIALOG_HH
