/**
 * @file
 * Parser and framer tests: canonical messages, odd-but-legal syntax
 * (compact names, folding, LF endings), malformed input rejection, a
 * round-trip property over built messages, and parameterized framing
 * sweeps that split the byte stream at every chunk size.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sip/builders.hh"
#include "sip/parser.hh"

namespace {

using namespace siprox;
using namespace siprox::sip;

const char kCanonicalInvite[] =
    "INVITE sip:bob@h3:10002 SIP/2.0\r\n"
    "Via: SIP/2.0/UDP h2:10001;branch=z9hG4bK776asdhds\r\n"
    "Max-Forwards: 70\r\n"
    "From: <sip:alice@h2:10001>;tag=1928301774\r\n"
    "To: <sip:bob@h3:10002>\r\n"
    "Call-ID: a84b4c76e66710@h2\r\n"
    "CSeq: 314159 INVITE\r\n"
    "Contact: <sip:alice@h2:10001>\r\n"
    "Content-Type: application/sdp\r\n"
    "Content-Length: 4\r\n"
    "\r\n"
    "v=0\n";

TEST(ParserTest, ParsesCanonicalInvite)
{
    auto r = parseMessage(kCanonicalInvite);
    ASSERT_TRUE(r.ok) << r.error;
    const SipMessage &m = r.message;
    EXPECT_TRUE(m.isRequest());
    EXPECT_EQ(m.method(), Method::Invite);
    EXPECT_EQ(m.requestUri().user, "bob");
    EXPECT_EQ(m.topVia()->branch, "z9hG4bK776asdhds");
    EXPECT_EQ(m.callId(), "a84b4c76e66710@h2");
    EXPECT_EQ(m.cseq()->number, 314159u);
    EXPECT_EQ(m.body(), "v=0\n");
    EXPECT_EQ(*m.maxForwards(), 70);
}

TEST(ParserTest, ParsesResponse)
{
    auto r = parseMessage("SIP/2.0 180 Ringing\r\n"
                          "Via: SIP/2.0/TCP h1;branch=z9hG4bKx\r\n"
                          "Call-ID: c1\r\n"
                          "CSeq: 1 INVITE\r\n"
                          "Content-Length: 0\r\n\r\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.message.isResponse());
    EXPECT_EQ(r.message.statusCode(), 180);
    EXPECT_EQ(r.message.reason(), "Ringing");
    EXPECT_TRUE(r.message.isProvisional());
    EXPECT_FALSE(r.message.isFinal());
}

TEST(ParserTest, AcceptsBareLfLineEndings)
{
    auto r = parseMessage("OPTIONS sip:h1 SIP/2.0\n"
                          "Via: SIP/2.0/UDP h2;branch=z9hG4bKy\n"
                          "Call-ID: c2\n"
                          "CSeq: 7 OPTIONS\n"
                          "Content-Length: 0\n\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.message.method(), Method::Options);
    EXPECT_EQ(r.message.cseq()->number, 7u);
}

TEST(ParserTest, ExpandsCompactHeaderNames)
{
    auto r = parseMessage("BYE sip:h1 SIP/2.0\r\n"
                          "v: SIP/2.0/UDP h2;branch=z9hG4bKz\r\n"
                          "i: compact-call\r\n"
                          "f: <sip:a@h2>;tag=1\r\n"
                          "t: <sip:b@h3>\r\n"
                          "m: <sip:a@h2:9>\r\n"
                          "l: 0\r\n\r\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.message.callId(), "compact-call");
    EXPECT_TRUE(r.message.topVia());
    EXPECT_FALSE(r.message.from().empty());
    EXPECT_TRUE(r.message.contactUri());
}

TEST(ParserTest, MatchesHeaderNamesInAnyAsciiCase)
{
    // Header names compare case-insensitively (RFC 3261 §7.3.1),
    // compact forms included, and keep their spelling on the wire.
    auto r = parseMessage("BYE sip:h1 SIP/2.0\r\n"
                          "vIA: SIP/2.0/UDP h2;branch=z9hG4bKmix\r\n"
                          "CALL-id: mixed-call\r\n"
                          "cseq: 4 BYE\r\n"
                          "F: <sip:a@h2>;tag=1\r\n"
                          "T: <sip:b@h3>\r\n"
                          "MAX-FORWARDS: 12\r\n"
                          "x-Trace: on\r\n"
                          "L: 0\r\n\r\n");
    ASSERT_TRUE(r.ok) << r.error;
    const SipMessage &m = r.message;
    EXPECT_EQ(m.topVia()->branch, "z9hG4bKmix");
    EXPECT_EQ(m.callId(), "mixed-call");
    EXPECT_EQ(m.cseq()->number, 4u);
    EXPECT_EQ(m.from(), "<sip:a@h2>;tag=1");
    EXPECT_EQ(m.to(), "<sip:b@h3>");
    EXPECT_EQ(*m.maxForwards(), 12);
    EXPECT_EQ(m.header("X-TRACE"), "on");
    EXPECT_EQ(m.header("content-LENGTH"), "0");
    std::string wire = m.serialize();
    EXPECT_NE(wire.find("\r\nvIA: SIP/2.0/UDP h2"), std::string::npos);
    EXPECT_NE(wire.find("\r\nCALL-id: mixed-call\r\n"),
              std::string::npos);
}

TEST(ParserTest, CaseFoldIsAsciiOnly)
{
    EXPECT_TRUE(iequals("Content-Length", "cONTENT-lENGTH"));
    EXPECT_EQ(headerIdFor("rECORD-rOUTE"), HeaderId::RecordRoute);
    EXPECT_EQ(expandHeaderName("I"), "Call-ID");
    // Latin-1 letters are not SIP token characters: no folding.
    EXPECT_FALSE(iequals("\xC4", "\xE4"));
    EXPECT_FALSE(iequals("[", "{")); // 0x5B vs 0x7B differ only in bit 5
}

TEST(ParserTest, UnfoldsContinuationLines)
{
    auto r = parseMessage("INVITE sip:h1 SIP/2.0\r\n"
                          "Subject: first part\r\n"
                          " second part\r\n"
                          "\tthird part\r\n"
                          "Content-Length: 0\r\n\r\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(*r.message.header("Subject"),
              "first part second part third part");
}

TEST(ParserTest, BodyRespectsContentLengthWithTrailingBytes)
{
    std::string text = "INVITE sip:h1 SIP/2.0\r\n"
                       "Content-Length: 3\r\n\r\n"
                       "abcEXTRA";
    auto r = parseMessage(text);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.message.body(), "abc");
}

TEST(ParserTest, MissingContentLengthConsumesRest)
{
    auto r = parseMessage("INVITE sip:h1 SIP/2.0\r\n\r\nwhole body");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.message.body(), "whole body");
}

TEST(ParserTest, RejectsMalformedInputs)
{
    const char *bad[] = {
        "",
        "\r\n\r\n",
        "INVITE\r\n\r\n",
        "INVITE sip:h1\r\n\r\n",
        "INVITE sip:h1 SIP/3.0\r\n\r\n",
        "INVITE notauri SIP/2.0\r\n\r\n",
        "SIP/2.0 banana OK\r\n\r\n",
        "SIP/2.0 99 Too Low\r\n\r\n",
        "INVITE sip:h1 SIP/2.0\r\nHeaderWithoutColon\r\n\r\n",
        "INVITE sip:h1 SIP/2.0\r\n: empty name\r\n\r\n",
        "INVITE sip:h1 SIP/2.0\r\n cont without header\r\n\r\n",
        "INVITE sip:h1 SIP/2.0\r\nContent-Length: 10\r\n\r\nshort",
        "INVITE sip:h1 SIP/2.0\r\nContent-Length: -1\r\n\r\n",
        "INVITE sip:h1 SIP/2.0\r\nCall-ID: x", // unterminated
    };
    for (const char *text : bad) {
        auto r = parseMessage(text);
        EXPECT_FALSE(r.ok) << "should reject: " << text;
        EXPECT_FALSE(r.error.empty());
    }
}

TEST(ParserTest, RoundTripProperty)
{
    // serialize(parse(serialize(m))) == serialize(m) over builder output.
    for (int i = 0; i < 20; ++i) {
        RequestSpec spec;
        spec.method = i % 2 ? Method::Invite : Method::Bye;
        spec.requestUri = uriForAddr("u" + std::to_string(i),
                                     net::Addr{3, 5060});
        spec.from = uriForAddr("a" + std::to_string(i),
                               net::Addr{1, static_cast<std::uint16_t>(
                                                10000 + i)});
        spec.to = uriForAddr("b", net::Addr{2, 10001});
        spec.fromTag = "tag" + std::to_string(i);
        spec.callId = "cid-" + std::to_string(i) + "@h1";
        spec.cseq = static_cast<std::uint32_t>(i + 1);
        spec.viaSentBy = uriForAddr("", net::Addr{1, 10000});
        spec.branch = "z9hG4bK-" + std::to_string(i);
        spec.contact = spec.from;
        SipMessage msg = buildRequest(spec);
        std::string wire = msg.serialize();
        auto r = parseMessage(wire);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.message.serialize(), wire);
    }
}

TEST(ParserTest, FuzzedMutationsNeverCrash)
{
    sim::Rng rng(123);
    std::string base = kCanonicalInvite;
    for (int i = 0; i < 3000; ++i) {
        std::string text = base;
        int mutations = 1 + static_cast<int>(rng.below(4));
        for (int j = 0; j < mutations; ++j) {
            auto pos = rng.below(text.size());
            switch (rng.below(3)) {
              case 0:
                text[pos] = static_cast<char>(rng.below(256));
                break;
              case 1:
                text.erase(pos, rng.below(8) + 1);
                break;
              default:
                text.insert(pos, 1,
                            static_cast<char>(rng.below(256)));
                break;
            }
            if (text.empty())
                text = "x";
        }
        auto r = parseMessage(text); // must not crash or hang
        (void)r;
    }
    SUCCEED();
}

// --- framer ----------------------------------------------------------------

std::vector<std::string>
frameAll(StreamFramer &framer)
{
    std::vector<std::string> out;
    while (auto raw = framer.next())
        out.push_back(std::move(*raw));
    return out;
}

TEST(FramerTest, SingleMessagePassesThrough)
{
    StreamFramer framer;
    framer.feed(kCanonicalInvite);
    auto msgs = frameAll(framer);
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(msgs[0], kCanonicalInvite);
    EXPECT_EQ(framer.buffered(), 0u);
}

TEST(FramerTest, IncompleteMessageYieldsNothing)
{
    StreamFramer framer;
    std::string text = kCanonicalInvite;
    framer.feed(text.substr(0, text.size() - 1));
    EXPECT_FALSE(framer.next());
    framer.feed(text.substr(text.size() - 1));
    auto msgs = frameAll(framer);
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(msgs[0], text);
}

TEST(FramerTest, SkipsKeepAliveNewlines)
{
    StreamFramer framer;
    framer.feed("\r\n\r\n");
    framer.feed(kCanonicalInvite);
    framer.feed("\r\n");
    auto msgs = frameAll(framer);
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(framer.buffered(), 0u);
}

TEST(FramerTest, PoisonedOnEndlessHeaders)
{
    StreamFramer framer;
    std::string junk(StreamFramer::kMaxHeaderBytes + 10, 'a');
    framer.feed(junk);
    EXPECT_FALSE(framer.next());
    EXPECT_TRUE(framer.poisoned());
}

/** Framing must be chunk-size independent: sweep split granularities. */
class FramerChunkTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FramerChunkTest, ReassemblesAcrossArbitrarySplits)
{
    // Three different messages back to back.
    RequestSpec spec;
    spec.requestUri = uriForAddr("bob", net::Addr{3, 5060});
    spec.from = uriForAddr("alice", net::Addr{1, 10000});
    spec.to = uriForAddr("bob", net::Addr{2, 10001});
    spec.fromTag = "t1";
    spec.callId = "cid@h1";
    spec.viaSentBy = uriForAddr("", net::Addr{1, 10000});
    spec.branch = "z9hG4bK-chunk";
    spec.contact = spec.from;

    spec.method = Method::Invite;
    SipMessage invite = buildRequest(spec);
    SipMessage ringing = buildResponse(invite, 180, "t2");
    spec.method = Method::Bye;
    spec.cseq = 2;
    SipMessage bye = buildRequest(spec);

    std::string stream = invite.serialize() + ringing.serialize()
        + bye.serialize();

    const int chunk = GetParam();
    StreamFramer framer;
    std::vector<std::string> got;
    for (std::size_t off = 0; off < stream.size();
         off += static_cast<std::size_t>(chunk)) {
        framer.feed(std::string_view(stream).substr(
            off, static_cast<std::size_t>(chunk)));
        for (auto &m : frameAll(framer))
            got.push_back(std::move(m));
    }
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], invite.serialize());
    EXPECT_EQ(got[1], ringing.serialize());
    EXPECT_EQ(got[2], bye.serialize());

    // Each framed chunk must itself parse.
    for (const auto &raw : got)
        EXPECT_TRUE(parseMessage(raw).ok);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, FramerChunkTest,
                         ::testing::Values(1, 2, 3, 5, 7, 16, 64, 128,
                                           333, 1024, 4096));

TEST(FramerTest, LongStreamCrossesCompactionThreshold)
{
    // Enough traffic that the consumed prefix passes kCompactAt many
    // times over: framing must stay correct across compactions and the
    // buffer must not grow with the total stream length.
    const std::string wire(kCanonicalInvite);
    const std::size_t count =
        (StreamFramer::kCompactAt / wire.size() + 2) * 8;
    std::string stream;
    for (std::size_t i = 0; i < count; ++i)
        stream += wire + "\r\n"; // keep-alives interleaved

    StreamFramer framer;
    std::size_t got = 0;
    for (std::size_t off = 0; off < stream.size(); off += 100) {
        framer.feed(std::string_view(stream).substr(off, 100));
        while (auto m = framer.next()) {
            EXPECT_EQ(*m, wire);
            ++got;
        }
        EXPECT_LE(framer.buffered(), wire.size() + 2);
    }
    EXPECT_EQ(got, count);
    EXPECT_EQ(framer.buffered(), 0u);
    EXPECT_FALSE(framer.poisoned());
}

TEST(FramerTest, MoveFeedAdoptsAfterFullConsumption)
{
    const std::string wire(kCanonicalInvite);
    StreamFramer framer;
    // First message consumed fully: the next move-feed may adopt.
    framer.feed(std::string(wire));
    ASSERT_EQ(frameAll(framer).size(), 1u);
    EXPECT_EQ(framer.buffered(), 0u);
    // Partial tail, then the rest by move: append path.
    framer.feed(std::string(wire.substr(0, 40)));
    EXPECT_FALSE(framer.next());
    EXPECT_EQ(framer.buffered(), 40u);
    framer.feed(std::string(wire.substr(40)));
    auto msgs = frameAll(framer);
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(msgs[0], wire);
}

TEST(FramerTest, RepeatedNextOnIncompleteHeadersStaysLinear)
{
    // The header scan resumes where it stopped; calling next() after
    // every tiny feed must still find a terminator split across feeds.
    const std::string wire(kCanonicalInvite);
    StreamFramer framer;
    for (char c : wire) {
        framer.feed(std::string_view(&c, 1));
        if (auto m = framer.next()) {
            EXPECT_EQ(*m, wire);
            EXPECT_EQ(framer.buffered(), 0u);
            return;
        }
    }
    FAIL() << "message never framed";
}

} // namespace
