/**
 * @file
 * SIP message model tests: header operations, typed accessors, Via and
 * CSeq parsing, builders, and serialization invariants.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "sip/builders.hh"
#include "sip/message.hh"
#include "sip/parser.hh"
#include "sip/transaction.hh"
#include "sip_dialog.hh"

namespace {

using namespace siprox;
using namespace siprox::sip;
using namespace siprox::tests;

RequestSpec
inviteSpec()
{
    RequestSpec spec;
    spec.method = Method::Invite;
    spec.requestUri = *SipUri::parse("sip:bob@h1:5060");
    spec.from = *SipUri::parse("sip:alice@h2:10001");
    spec.to = *SipUri::parse("sip:bob@h3:10002");
    spec.fromTag = "ft1";
    spec.callId = "call-1@h2";
    spec.cseq = 1;
    spec.viaSentBy = *SipUri::parse("sip:h2:10001");
    spec.branch = "z9hG4bK-test-1";
    spec.contact = *SipUri::parse("sip:alice@h2:10001");
    return spec;
}

TEST(MethodTest, NamesRoundTrip)
{
    for (Method m : {Method::Invite, Method::Ack, Method::Bye,
                     Method::Cancel, Method::Register, Method::Options}) {
        EXPECT_EQ(methodFromName(methodName(m)), m);
    }
    EXPECT_EQ(methodFromName("SUBSCRIBE"), Method::Unknown);
}

TEST(ViaTest, ParsesHostPortBranch)
{
    auto via = ViaView::parse("SIP/2.0/TCP h2:10001;branch=z9hG4bK77;rport");
    ASSERT_TRUE(via);
    EXPECT_EQ(via->transport, "TCP");
    EXPECT_EQ(via->host, "h2");
    EXPECT_EQ(via->port, 10001);
    EXPECT_EQ(via->branch, "z9hG4bK77");
}

TEST(ViaTest, DefaultPortWhenOmitted)
{
    auto via = ViaView::parse("SIP/2.0/UDP proxy");
    ASSERT_TRUE(via);
    EXPECT_EQ(via->port, 0);
    EXPECT_EQ(via->effectivePort(), 5060);
    EXPECT_TRUE(via->branch.empty());
}

TEST(ViaTest, RejectsMalformed)
{
    EXPECT_FALSE(ViaView::parse(""));
    EXPECT_FALSE(ViaView::parse("SIP/2.0/UDP"));
    EXPECT_FALSE(ViaView::parse("HTTP/1.1 host"));
    EXPECT_FALSE(ViaView::parse("SIP/2.0/UDP host:badport"));
}

TEST(ViaTest, RoundTrips)
{
    Via via;
    via.transport = "TCP";
    via.host = "h5";
    via.port = 5060;
    via.branch = "z9hG4bKabc";
    const std::string text = via.toString(); // the views point into it
    auto parsed = ViaView::parse(text);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->transport, via.transport);
    EXPECT_EQ(parsed->host, via.host);
    EXPECT_EQ(parsed->port, via.port);
    EXPECT_EQ(parsed->branch, via.branch);
}

TEST(CSeqTest, ParsesAndRoundTrips)
{
    auto cseq = CSeq::parse("42 INVITE");
    ASSERT_TRUE(cseq);
    EXPECT_EQ(cseq->number, 42u);
    EXPECT_EQ(cseq->method, Method::Invite);
    EXPECT_EQ(cseq->toString(), "42 INVITE");
    EXPECT_FALSE(CSeq::parse("INVITE"));
    EXPECT_FALSE(CSeq::parse("x INVITE"));
}

TEST(SipMessageTest, HeaderAccessIsCaseInsensitive)
{
    SipMessage msg = SipMessage::request(
        Method::Options, *SipUri::parse("sip:h1"));
    msg.addHeader("Call-ID", "abc");
    EXPECT_EQ(msg.header("call-id").value_or(""), "abc");
    EXPECT_EQ(msg.header("CALL-ID").value_or(""), "abc");
    EXPECT_FALSE(msg.header("Call"));
}

TEST(SipMessageTest, HeaderAllPreservesOrder)
{
    SipMessage msg = SipMessage::response(200);
    msg.addHeader("Via", "SIP/2.0/UDP a");
    msg.addHeader("Route", "r1");
    msg.addHeader("Via", "SIP/2.0/UDP b");
    auto vias = msg.headerAll("Via");
    ASSERT_EQ(vias.size(), 2u);
    EXPECT_EQ(vias[0], "SIP/2.0/UDP a");
    EXPECT_EQ(vias[1], "SIP/2.0/UDP b");
}

TEST(SipMessageTest, PrependAndRemoveFirstHeader)
{
    SipMessage msg = SipMessage::response(200);
    msg.addHeader("Via", "second");
    msg.prependHeader("Via", "first");
    EXPECT_EQ(*msg.header("Via"), "first");
    EXPECT_TRUE(msg.removeFirstHeader("Via"));
    EXPECT_EQ(*msg.header("Via"), "second");
    EXPECT_TRUE(msg.removeFirstHeader("via"));
    EXPECT_FALSE(msg.removeFirstHeader("Via"));
}

TEST(SipMessageTest, SetHeaderReplacesFirst)
{
    SipMessage msg = SipMessage::response(200);
    msg.setHeader("Max-Forwards", "70");
    msg.setHeader("Max-Forwards", "69");
    EXPECT_EQ(msg.headerAll("Max-Forwards").size(), 1u);
    EXPECT_EQ(*msg.maxForwards(), 69);
}

TEST(SipMessageTest, SerializeComputesContentLength)
{
    SipMessage msg = SipMessage::request(
        Method::Invite, *SipUri::parse("sip:bob@h1"));
    msg.addHeader("Content-Length", "999"); // stale value is ignored
    msg.setBody("hello", "text/plain");
    std::string wire = msg.serialize();
    EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
    EXPECT_EQ(wire.find("999"), std::string::npos);
    EXPECT_EQ(wire.substr(wire.size() - 5), "hello");
}

TEST(BuildersTest, RequestCarriesAllRoutingHeaders)
{
    SipMessage msg = buildRequest(inviteSpec());
    EXPECT_TRUE(msg.isRequest());
    EXPECT_EQ(msg.method(), Method::Invite);
    auto via = msg.topVia();
    ASSERT_TRUE(via);
    EXPECT_EQ(via->branch, "z9hG4bK-test-1");
    EXPECT_EQ(via->host, "h2");
    EXPECT_EQ(msg.callId(), "call-1@h2");
    ASSERT_TRUE(msg.cseq());
    EXPECT_EQ(msg.cseq()->method, Method::Invite);
    EXPECT_EQ(*msg.maxForwards(), 70);
    ASSERT_TRUE(msg.contactUri());
    EXPECT_EQ(msg.contactUri()->user, "alice");
    EXPECT_FALSE(msg.body().empty()); // SDP attached to INVITE
}

TEST(BuildersTest, ResponseMirrorsRequest)
{
    SipMessage req = buildRequest(inviteSpec());
    SipMessage rsp = buildResponse(req, 180, "bt1");
    EXPECT_TRUE(rsp.isResponse());
    EXPECT_EQ(rsp.statusCode(), 180);
    EXPECT_EQ(rsp.reason(), "Ringing");
    EXPECT_EQ(rsp.callId(), req.callId());
    EXPECT_EQ(rsp.header("CSeq"), req.header("CSeq"));
    EXPECT_EQ(rsp.headerAll("Via").size(), req.headerAll("Via").size());
    EXPECT_NE(rsp.to().find("tag=bt1"), std::string_view::npos);
    EXPECT_EQ(rsp.from(), req.from());
}

TEST(BuildersTest, OkToInviteCarriesSdp)
{
    SipMessage req = buildRequest(inviteSpec());
    SipMessage ok = buildResponse(req, 200, "bt1");
    EXPECT_FALSE(ok.body().empty());
    SipMessage ringing = buildResponse(req, 180, "bt1");
    EXPECT_TRUE(ringing.body().empty());
}

TEST(BuildersTest, AckReferencesInviteAndFinal)
{
    SipMessage req = buildRequest(inviteSpec());
    SipMessage ok = buildResponse(req, 200, "bt1");
    SipMessage ack = buildAck(req, ok, "z9hG4bK-ack-1");
    EXPECT_EQ(ack.method(), Method::Ack);
    EXPECT_EQ(ack.callId(), req.callId());
    ASSERT_TRUE(ack.cseq());
    EXPECT_EQ(ack.cseq()->number, req.cseq()->number);
    EXPECT_EQ(ack.cseq()->method, Method::Ack);
    EXPECT_NE(ack.to().find("tag=bt1"), std::string_view::npos);
    EXPECT_EQ(ack.topVia()->branch, "z9hG4bK-ack-1");
}

TEST(TransactionKeyTest, RequestAndResponseShareKey)
{
    SipMessage req = buildRequest(inviteSpec());
    SipMessage rsp = buildResponse(req, 180, "bt1");
    auto k1 = transactionKey(req);
    auto k2 = transactionKey(rsp);
    ASSERT_TRUE(k1);
    ASSERT_TRUE(k2);
    EXPECT_EQ(*k1, *k2);
}

TEST(TransactionKeyTest, AckMatchesInviteTransaction)
{
    SipMessage req = buildRequest(inviteSpec());
    SipMessage rsp = buildResponse(req, 404);
    // Non-2xx ACK reuses the INVITE branch.
    SipMessage ack = buildAck(req, rsp, req.topVia()->branch);
    auto k_inv = transactionKey(req);
    auto k_ack = transactionKey(ack);
    ASSERT_TRUE(k_ack);
    EXPECT_EQ(*k_ack, *k_inv);
}

TEST(TransactionKeyTest, DifferentBranchesDiffer)
{
    auto spec = inviteSpec();
    SipMessage a = buildRequest(spec);
    spec.branch = "z9hG4bK-test-2";
    SipMessage b = buildRequest(spec);
    EXPECT_NE(*transactionKey(a), *transactionKey(b));
    TransactionKeyHash h;
    EXPECT_NE(h(*transactionKey(a)), h(*transactionKey(b)));
}

TEST(TransactionKeyTest, MissingViaOrCseqYieldsNothing)
{
    SipMessage msg = SipMessage::request(
        Method::Invite, *SipUri::parse("sip:h1"));
    EXPECT_FALSE(transactionKey(msg));
    msg.addHeader("Via", "SIP/2.0/UDP h2;branch=z9hG4bKx");
    EXPECT_FALSE(transactionKey(msg)); // still no CSeq
    msg.addHeader("CSeq", "1 INVITE");
    EXPECT_TRUE(transactionKey(msg));
}

TEST(BranchGeneratorTest, GeneratesUniqueCookiePrefixedBranches)
{
    BranchGenerator gen(7);
    auto b1 = gen.next();
    auto b2 = gen.next();
    EXPECT_NE(b1, b2);
    EXPECT_EQ(b1.substr(0, 7), std::string(kBranchCookie));
    BranchGenerator other(8);
    EXPECT_NE(other.next(), b1);
}

// --- wire-byte goldens ------------------------------------------------
//
// The builders render straight into the message arena and the last
// send takes the rendered wire out of the cache; digests count only
// counters, so these goldens are what catches a byte that moved.

/** The call of sip_dialog.hh, every message built as the phones do. */
struct Dialog
{
    SipMessage invite, ringing, ok, ack, bye, byeOk;
};

Dialog
buildDialog()
{
    Dialog d;
    d.invite = buildRequest(callerInvite());
    SipMessage at_callee = forwardedByProxy(d.invite, "z9hG4bK20816.1");
    d.ringing = buildResponse(at_callee, status::kRinging, "callee3-tag");
    d.ok = buildResponse(at_callee, status::kOk, "callee3-tag",
                         calleeContact());
    SipMessage ok_at_caller = relayedByProxy(d.ok);
    d.ack = buildAck(d.invite, ok_at_caller,
                     "z9hG4bK11400714819323198485.3");
    d.ack.setRequestUri(*ok_at_caller.contactUri());
    d.bye = buildRequest(callerBye());
    d.byeOk = buildResponse(forwardedByProxy(d.bye, "z9hG4bK20816.2"),
                            status::kOk, "callee3-tag");
    return d;
}

const std::string kSdpCaller = crlf({
    "v=0",
    "o=caller3 2890844526 2890844526 IN IP4 h4",
    "s=call",
    "c=IN IP4 h4",
    "t=0 0",
    "m=audio 49170 RTP/AVP 0 8",
    "a=rtpmap:0 PCMU/8000",
    "a=rtpmap:8 PCMA/8000",
    "",
});

TEST(WireGoldenTest, InviteWithSdp)
{
    EXPECT_EQ(buildDialog().invite.serialize(),
              crlf({
                  "INVITE sip:callee3@h1:5060 SIP/2.0",
                  "Via: SIP/2.0/UDP h4:6003;branch="
                  "z9hG4bK11400714819323198485.2",
                  "Max-Forwards: 70",
                  "From: <sip:caller3@h4:6003>;tag=caller3-0",
                  "To: <sip:callee3@h1:5060>",
                  "Call-ID: caller3-call-0",
                  "CSeq: 2 INVITE",
                  "Contact: <sip:caller3@h4:6003>",
                  "User-Agent: siprox-phone/1.0",
                  "Content-Type: application/sdp",
                  "Content-Length: 147",
                  "",
                  "",
              }) + kSdpCaller);
}

TEST(WireGoldenTest, Ringing)
{
    EXPECT_EQ(buildDialog().ringing.serialize(),
              crlf({
                  "SIP/2.0 180 Ringing",
                  "Via: SIP/2.0/UDP h1:5060;branch=z9hG4bK20816.1",
                  "Via: SIP/2.0/UDP h4:6003;branch="
                  "z9hG4bK11400714819323198485.2",
                  "From: <sip:caller3@h4:6003>;tag=caller3-0",
                  "To: <sip:callee3@h1:5060>;tag=callee3-tag",
                  "Call-ID: caller3-call-0",
                  "CSeq: 2 INVITE",
                  "Content-Length: 0",
                  "",
                  "",
              }));
}

TEST(WireGoldenTest, OkWithSdp)
{
    // The answer's SDP names the To URI's host, as it always has.
    EXPECT_EQ(buildDialog().ok.serialize(),
              crlf({
                  "SIP/2.0 200 OK",
                  "Via: SIP/2.0/UDP h1:5060;branch=z9hG4bK20816.1",
                  "Via: SIP/2.0/UDP h4:6003;branch="
                  "z9hG4bK11400714819323198485.2",
                  "From: <sip:caller3@h4:6003>;tag=caller3-0",
                  "To: <sip:callee3@h1:5060>;tag=callee3-tag",
                  "Call-ID: caller3-call-0",
                  "CSeq: 2 INVITE",
                  "Contact: <sip:callee3@h5:7003>",
                  "Content-Type: application/sdp",
                  "Content-Length: 147",
                  "",
                  "v=0",
                  "o=callee3 2890844526 2890844526 IN IP4 h1",
                  "s=call",
                  "c=IN IP4 h1",
                  "t=0 0",
                  "m=audio 49170 RTP/AVP 0 8",
                  "a=rtpmap:0 PCMU/8000",
                  "a=rtpmap:8 PCMA/8000",
                  "",
              }));
}

TEST(WireGoldenTest, Ack)
{
    EXPECT_EQ(buildDialog().ack.serialize(),
              crlf({
                  "ACK sip:callee3@h5:7003 SIP/2.0",
                  "Via: SIP/2.0/UDP h4:6003;branch="
                  "z9hG4bK11400714819323198485.3",
                  "Max-Forwards: 70",
                  "From: <sip:caller3@h4:6003>;tag=caller3-0",
                  "To: <sip:callee3@h1:5060>;tag=callee3-tag",
                  "Call-ID: caller3-call-0",
                  "CSeq: 2 ACK",
                  "Content-Length: 0",
                  "",
                  "",
              }));
}

TEST(WireGoldenTest, Bye)
{
    EXPECT_EQ(buildDialog().bye.serialize(),
              crlf({
                  "BYE sip:callee3@h5:7003 SIP/2.0",
                  "Via: SIP/2.0/UDP h4:6003;branch="
                  "z9hG4bK11400714819323198485.4",
                  "Max-Forwards: 70",
                  "From: <sip:caller3@h4:6003>;tag=caller3-0",
                  "To: <sip:callee3@h1:5060>",
                  "Call-ID: caller3-call-0",
                  "CSeq: 3 BYE",
                  "User-Agent: siprox-phone/1.0",
                  "Content-Length: 0",
                  "",
                  "",
              }));
}

TEST(WireGoldenTest, OkToBye)
{
    EXPECT_EQ(buildDialog().byeOk.serialize(),
              crlf({
                  "SIP/2.0 200 OK",
                  "Via: SIP/2.0/UDP h1:5060;branch=z9hG4bK20816.2",
                  "Via: SIP/2.0/UDP h4:6003;branch="
                  "z9hG4bK11400714819323198485.4",
                  "From: <sip:caller3@h4:6003>;tag=caller3-0",
                  "To: <sip:callee3@h1:5060>;tag=callee3-tag",
                  "Call-ID: caller3-call-0",
                  "CSeq: 3 BYE",
                  "Content-Length: 0",
                  "",
                  "",
              }));
}

} // namespace
