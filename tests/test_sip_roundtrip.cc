/**
 * @file
 * Property battery for the zero-copy parser (see docs/performance.md):
 * a generator renders a known logical message to wire text with random
 * header order and random-but-legal syntax (compact names, folding,
 * extra whitespace, LF endings), and every observation the proxy makes
 * — header list, typed accessors, body, serialization — must match the
 * intended message exactly, as it did with the old copying parser.
 * A torn-framing sweep splits a two-message TCP stream at every byte
 * offset, and copy-on-write tests pin the arena-sharing semantics.
 * The SST per-stream framer is held to the same bar: any chunking must
 * reassemble byte-identically, and its whole-message fast path must
 * allocate no more than the TCP byte-stream framer. Allocation budgets
 * pin the heap traffic of each dialog message's build-and-send, of a
 * proxy's parse-and-forward, and of waking poll waiters, so a
 * regression fails here and not only in the perf harness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/sst.hh"
#include "sim/pollable.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sip/builders.hh"
#include "sip/message.hh"
#include "sip/parser.hh"
#include "sip_dialog.hh"

// --- counting allocator (same interposition as bench/perf_harness) --

static std::atomic<std::uint64_t> g_allocs{0};

static void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace siprox;
using namespace siprox::sip;
using namespace siprox::tests;

/** The logical message a generator intends; the oracle for parsing. */
struct Intended
{
    std::string startLine; // e.g. "INVITE sip:bob@h3:10002 SIP/2.0"
    /** Canonical-name headers in order (pre-folding values). */
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;
};

/** Compact form for a canonical name, or empty if none exists. */
std::string
compactFor(const std::string &name)
{
    if (name == "Call-ID")
        return "i";
    if (name == "Contact")
        return "m";
    if (name == "From")
        return "f";
    if (name == "To")
        return "t";
    if (name == "Via")
        return "v";
    if (name == "Content-Type")
        return "c";
    return {};
}

/**
 * Render @p msg to wire text with random legal syntax. Every variation
 * here is one the RFC allows and the parser must normalize away.
 */
std::string
renderVariant(const Intended &msg, sim::Rng &rng)
{
    auto eol = [&]() -> std::string {
        return rng.below(4) == 0 ? "\n" : "\r\n";
    };
    std::string out = msg.startLine + eol();
    for (const auto &[name, value] : msg.headers) {
        std::string rendered_name = name;
        std::string compact = compactFor(name);
        if (!compact.empty() && rng.below(3) == 0)
            rendered_name = compact;
        out += rendered_name;
        out += ':';
        // Optional whitespace after the colon.
        for (std::uint64_t i = rng.below(3); i > 0; --i)
            out += rng.below(2) ? ' ' : '\t';
        // Fold at a space boundary 1 time in 4 (joined with one SP on
        // parse, so only values whose spaces survive the join qualify).
        auto space = value.find(' ');
        if (space != std::string::npos && rng.below(4) == 0) {
            out += value.substr(0, space);
            out += eol();
            out += rng.below(2) ? "  " : "\t";
            out += value.substr(space + 1);
        } else {
            out += value;
        }
        // Trailing whitespace is trimmed by the parser.
        if (rng.below(4) == 0)
            out += ' ';
        out += eol();
    }
    out += "Content-Length: " + std::to_string(msg.body.size()) + eol();
    out += eol();
    out += msg.body;
    return out;
}

/** A fixed INVITE-shaped header pool (Via chain, routing set, extras). */
Intended
inviteIntent()
{
    Intended m;
    m.startLine = "INVITE sip:bob@h3:10002 SIP/2.0";
    m.headers = {
        {"Via", "SIP/2.0/UDP h5:5060;branch=z9hG4bKtop"},
        {"Via", "SIP/2.0/TCP h2:10001;branch=z9hG4bKmid"},
        {"Max-Forwards", "69"},
        {"Route", "<sip:proxy1@h4>"},
        {"Route", "<sip:proxy2@h6>"},
        {"Record-Route", "<sip:proxy1@h4;lr>"},
        {"From", "<sip:alice@h2:10001>;tag=1928301774"},
        {"To", "<sip:bob@h3:10002>"},
        {"Call-ID", "a84b4c76e66710@h2"},
        {"CSeq", "314159 INVITE"},
        {"Contact", "<sip:alice@h2:10001>"},
        {"Content-Type", "application/sdp"},
        {"X-Custom", "some opaque value"},
    };
    m.body = "v=0\no=alice 123 456 IN IP4 h2\n";
    return m;
}

/** Assert every observation of @p parsed matches @p intent. */
void
expectObservations(const SipMessage &parsed, const Intended &intent)
{
    ASSERT_TRUE(parsed.isRequest());
    EXPECT_EQ(parsed.method(), Method::Invite);
    EXPECT_EQ(parsed.requestUri().toString(), "sip:bob@h3:10002");

    // Header list: same count and order, canonical names, exact
    // values. Content-Length is recomputed on serialize but must
    // still be observable after parse.
    std::size_t i = 0;
    for (const auto &h : parsed.headers()) {
        if (iequals(h.name, "Content-Length"))
            continue;
        ASSERT_LT(i, intent.headers.size())
            << "extra header " << h.name;
        EXPECT_TRUE(iequals(h.name, intent.headers[i].first))
            << h.name << " vs " << intent.headers[i].first;
        EXPECT_EQ(h.value, intent.headers[i].second);
        ++i;
    }
    EXPECT_EQ(i, intent.headers.size());

    // Typed accessors.
    EXPECT_EQ(parsed.callId(), "a84b4c76e66710@h2");
    ASSERT_TRUE(parsed.cseq());
    EXPECT_EQ(parsed.cseq()->number, 314159u);
    EXPECT_EQ(parsed.cseq()->method, Method::Invite);
    ASSERT_TRUE(parsed.topVia());
    const auto &headers = intent.headers;
    auto top = std::find_if(headers.begin(), headers.end(),
                            [](const auto &h) { return h.first == "Via"; });
    ASSERT_NE(top, headers.end());
    EXPECT_EQ(parsed.topVia()->toString(), top->second);
    ASSERT_TRUE(parsed.maxForwards());
    EXPECT_EQ(*parsed.maxForwards(), 69);
    EXPECT_EQ(parsed.header(HeaderId::Route),
              std::optional<std::string_view>("<sip:proxy1@h4>"));
    EXPECT_EQ(parsed.headerAll(HeaderId::Via).size(), 2u);
    EXPECT_EQ(parsed.body(), intent.body);
}

TEST(RoundTripProperty, RandomSyntaxVariants)
{
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        sim::Rng rng(seed);
        Intended intent = inviteIntent();
        std::string wire = renderVariant(intent, rng);
        auto r = parseMessage(wire);
        ASSERT_TRUE(r.ok) << "seed " << seed << ": " << r.error
                          << "\n--- wire ---\n" << wire;
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectObservations(r.message, intent);
    }
}

TEST(RoundTripProperty, RandomHeaderOrder)
{
    // Shuffle everything below the Via chain (Via order is load-
    // bearing in SIP; the parser must preserve whatever order it
    // sees, which the in-order check verifies for each shuffle).
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        sim::Rng rng(seed ^ 0x0facade);
        Intended intent = inviteIntent();
        for (std::size_t i = intent.headers.size() - 1; i > 2; --i) {
            std::size_t j =
                2 + static_cast<std::size_t>(rng.below(i - 2)) + 1;
            std::swap(intent.headers[i], intent.headers[j]);
        }
        std::string wire = renderVariant(intent, rng);
        auto r = parseMessage(wire);
        ASSERT_TRUE(r.ok) << "seed " << seed << ": " << r.error;

        std::size_t i = 0;
        for (const auto &h : r.message.headers()) {
            if (iequals(h.name, "Content-Length"))
                continue;
            ASSERT_LT(i, intent.headers.size());
            EXPECT_TRUE(iequals(h.name, intent.headers[i].first));
            EXPECT_EQ(h.value, intent.headers[i].second);
            ++i;
        }
        EXPECT_EQ(i, intent.headers.size());
        EXPECT_EQ(r.message.body(), intent.body);
    }
}

TEST(RoundTripProperty, SerializeReparseIsStable)
{
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        sim::Rng rng(seed ^ 0xbeef);
        Intended intent = inviteIntent();
        std::string wire = renderVariant(intent, rng);
        auto first = parseMessage(wire);
        ASSERT_TRUE(first.ok) << first.error;

        // Canonical serialization must itself parse, observe the same
        // message, and re-serialize byte-identically (idempotence).
        std::string canonical = first.message.serialize();
        auto second = parseMessage(canonical);
        ASSERT_TRUE(second.ok) << second.error;
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectObservations(second.message, intent);
        EXPECT_EQ(second.message.serialize(), canonical);
        EXPECT_EQ(second.message.serializedSize(), canonical.size());
    }
}

TEST(RoundTripProperty, TornFramesAtEveryByteOffset)
{
    // Two back-to-back messages over a stream transport, torn at every
    // possible byte boundary: the framer must reassemble both exactly,
    // regardless of where the segmentation falls.
    std::string msg1 =
        "INVITE sip:bob@h3 SIP/2.0\r\n"
        "Via: SIP/2.0/TCP h2;branch=z9hG4bKaa\r\n"
        "Call-ID: torn-1\r\n"
        "CSeq: 1 INVITE\r\n"
        "Content-Length: 5\r\n"
        "\r\n"
        "hello";
    std::string msg2 =
        "SIP/2.0 200 OK\r\n"
        "Via: SIP/2.0/TCP h2;branch=z9hG4bKaa\r\n"
        "Call-ID: torn-2\r\n"
        "CSeq: 1 INVITE\r\n"
        "Content-Length: 0\r\n"
        "\r\n";
    std::string stream = msg1 + msg2;
    for (std::size_t split = 0; split <= stream.size(); ++split) {
        StreamFramer framer;
        framer.feed(std::string(stream.substr(0, split)));
        std::vector<std::string> got;
        while (auto m = framer.next())
            got.push_back(std::move(*m));
        framer.feed(std::string(stream.substr(split)));
        while (auto m = framer.next())
            got.push_back(std::move(*m));
        ASSERT_EQ(got.size(), 2u) << "split at " << split;
        EXPECT_EQ(got[0], msg1) << "split at " << split;
        EXPECT_EQ(got[1], msg2) << "split at " << split;
        EXPECT_EQ(framer.buffered(), 0u);
    }
}

TEST(SstFramerProperty, AnyChunkingYieldsByteIdenticalParses)
{
    // The SST receive path reassembles per-stream frames; whatever the
    // substrate's MTU or coalescing does to chunk boundaries, the
    // parser must observe the same message the sender serialized.
    const std::size_t chunks[] = {1, 2, 512, 1500};
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        sim::Rng rng(seed ^ 0x55f);
        Intended intent = inviteIntent();
        std::string wire = renderVariant(intent, rng);
        auto ref = parseMessage(wire);
        ASSERT_TRUE(ref.ok) << ref.error;
        std::string canonical = ref.message.serialize();
        for (std::size_t chunk : chunks) {
            net::SstFramer framer;
            for (std::size_t off = 0; off < wire.size(); off += chunk) {
                std::size_t len = std::min(chunk, wire.size() - off);
                framer.feed(wire.substr(off, len),
                            off + len == wire.size());
            }
            SCOPED_TRACE("seed " + std::to_string(seed) + " chunk "
                         + std::to_string(chunk));
            auto m = framer.next();
            ASSERT_TRUE(m.has_value());
            EXPECT_EQ(framer.buffered(), 0u);
            EXPECT_EQ(*m, wire);
            auto r = parseMessage(*m);
            ASSERT_TRUE(r.ok) << r.error;
            expectObservations(r.message, intent);
            EXPECT_EQ(r.message.serialize(), canonical);
        }
    }
}

TEST(SstFramerProperty, WholeMessageFeedAllocsNoWorseThanStreamFramer)
{
    // The single-frame fast path adopts the chunk instead of copying
    // it — per op it must allocate no more than the TCP byte-stream
    // framer does for the same message.
    sim::Rng rng(11);
    std::string wire = renderVariant(inviteIntent(), rng);
    constexpr int kIters = 64;
    auto measure = [&](auto &&op) {
        op(); // warm-up settles one-time container growth
        std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
        for (int i = 0; i < kIters; ++i)
            op();
        return g_allocs.load(std::memory_order_relaxed) - a0;
    };
    StreamFramer tcp;
    std::uint64_t tcp_allocs = measure([&] {
        tcp.feed(std::string(wire));
        auto m = tcp.next();
        EXPECT_TRUE(m.has_value());
        EXPECT_EQ(tcp.buffered(), 0u);
    });
    net::SstFramer sst;
    std::uint64_t sst_allocs = measure([&] {
        sst.feed(std::string(wire), true);
        auto m = sst.next();
        EXPECT_TRUE(m.has_value());
        EXPECT_EQ(sst.buffered(), 0u);
    });
    EXPECT_GT(tcp_allocs, 0u);
    EXPECT_LE(sst_allocs, tcp_allocs)
        << "sst " << sst_allocs << " vs tcp " << tcp_allocs << " over "
        << kIters << " ops";
}

// --- allocation budgets ----------------------------------------------

/** Heap allocations made by @p fn. */
template <class F>
std::uint64_t
allocsOf(F &&fn)
{
    std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    fn();
    return g_allocs.load(std::memory_order_relaxed) - a0;
}

TEST(AllocBudget, BuildAndSendEachDialogMessage)
{
    // Per message: its header vector and its rendering; a request adds
    // its arena block, while responses and the ACK share the arena of
    // the request they answer. Every message fits its inline block.
    const RequestSpec spec = callerInvite();
    SipMessage invite;
    std::string wire;
    EXPECT_EQ(allocsOf([&] {
                  invite = buildRequest(spec);
                  wire = invite.takeSerialized();
              }),
              3u);
    EXPECT_FALSE(wire.empty());

    const SipMessage invite_in = forwardedByProxy(invite, "z9hG4bK20816.1");
    const SipUri contact = calleeContact();
    EXPECT_EQ(allocsOf([&] {
                  wire = buildResponse(invite_in, status::kRinging,
                                       "callee3-tag")
                             .takeSerialized();
              }),
              2u);
    SipMessage ok;
    EXPECT_EQ(allocsOf([&] {
                  ok = buildResponse(invite_in, status::kOk, "callee3-tag",
                                     contact);
                  wire = ok.takeSerialized();
              }),
              2u);
    EXPECT_FALSE(ok.body().empty());

    const SipMessage ok_in = relayedByProxy(ok);
    const std::string ack_branch = "z9hG4bK11400714819323198485.3";
    EXPECT_EQ(allocsOf([&] {
                  SipMessage ack = buildAck(invite, ok_in, ack_branch);
                  ack.setRequestUri(contact);
                  wire = ack.takeSerialized();
              }),
              2u);

    const RequestSpec bye_spec = callerBye();
    SipMessage bye;
    EXPECT_EQ(allocsOf([&] {
                  bye = buildRequest(bye_spec);
                  wire = bye.takeSerialized();
              }),
              3u);
    const SipMessage bye_in = forwardedByProxy(bye, "z9hG4bK20816.2");
    EXPECT_EQ(allocsOf([&] {
                  wire = buildResponse(bye_in, status::kOk, "callee3-tag")
                             .takeSerialized();
              }),
              2u);

    // A resend copies the cached rendering: one string.
    invite.serialize();
    EXPECT_EQ(allocsOf([&] { wire = invite.serialize(); }), 1u);
}

TEST(AllocBudget, ParseOwnedAndForwardInvite)
{
    // Arena block, header vector, rendering: the Via and Max-Forwards
    // rewrites land in the inline block.
    std::string in = buildRequest(callerInvite()).serialize();
    const SipUri target = calleeContact();
    std::string out;
    EXPECT_EQ(allocsOf([&] {
                  ParseResult r = parseOwned(std::move(in));
                  out = forwardAtProxy(r.message, target, "z9hG4bK20816.1");
              }),
              3u);
    EXPECT_NE(out.find("Max-Forwards: 69\r\n"), std::string::npos);
}

/** A pollable that turns ready on demand. */
class Bell : public sim::Pollable
{
  public:
    bool pollReady() const override { return rung_; }

    void
    ring()
    {
        rung_ = true;
        notifyPollWaiters();
    }

  private:
    bool rung_ = false;
};

sim::Task
awaitBell(sim::Process &p, const std::vector<sim::Pollable *> *items,
          int *woken)
{
    int idx = -1;
    co_await sim::poll(p, *items, sim::kTimeNever, idx);
    if (idx == 0)
        ++*woken;
}

TEST(AllocBudget, NotifyPollWaitersAllocatesNothing)
{
    sim::Simulation simu;
    sim::Machine &m = simu.addMachine("m", 1);
    Bell bell;
    const std::vector<sim::Pollable *> items{&bell};
    int woken = 0;
    for (int i = 0; i < 4; ++i) {
        m.spawn("waiter", 0, [&](sim::Process &p) {
            return awaitBell(p, &items, &woken);
        });
    }
    simu.run(); // every waiter parks in poll()
    ASSERT_EQ(woken, 0);
    EXPECT_EQ(allocsOf([&] { bell.ring(); }), 0u);
    simu.run();
    EXPECT_EQ(woken, 4);
}

TEST(CopyOnWrite, MutatingACopyLeavesTheOriginalIntact)
{
    sim::Rng rng(7);
    std::string wire = renderVariant(inviteIntent(), rng);
    auto r = parseMessage(wire);
    ASSERT_TRUE(r.ok) << r.error;
    std::string original = r.message.serialize();

    // The copy shares the arena; mutations must not leak back.
    SipMessage fwd = r.message;
    Via via;
    via.transport = "UDP";
    via.host = "h9";
    via.port = 5060;
    via.branch = "z9hG4bKnew";
    fwd.prependVia(via);
    fwd.setMaxForwards(*fwd.maxForwards() - 1);

    EXPECT_EQ(r.message.serialize(), original);
    EXPECT_EQ(r.message.headerAll(HeaderId::Via).size(), 2u);
    EXPECT_EQ(fwd.headerAll(HeaderId::Via).size(), 3u);
    EXPECT_EQ(fwd.topVia()->branch, "z9hG4bKnew");
    EXPECT_EQ(*fwd.maxForwards(), 68);
    EXPECT_EQ(*r.message.maxForwards(), 69);

    // And the copy serializes the mutation exactly once at the top.
    auto reparse = parseMessage(fwd.serialize());
    ASSERT_TRUE(reparse.ok);
    EXPECT_EQ(reparse.message.topVia()->branch, "z9hG4bKnew");
    EXPECT_EQ(reparse.message.headerAll(HeaderId::Via).size(), 3u);
}

TEST(CopyOnWrite, OriginalDestructionKeepsCopyAlive)
{
    // Views in a copy point into the shared arena; destroying the
    // source message must not invalidate them.
    SipMessage copy;
    {
        sim::Rng rng(3);
        auto r = parseMessage(renderVariant(inviteIntent(), rng));
        ASSERT_TRUE(r.ok);
        copy = r.message;
    }
    EXPECT_EQ(copy.callId(), "a84b4c76e66710@h2");
    EXPECT_EQ(copy.cseq()->number, 314159u);
    auto reparsed = parseMessage(copy.serialize());
    ASSERT_TRUE(reparsed.ok);
}

} // namespace
