/**
 * @file
 * SIP message model (RFC 3261): requests and responses with an ordered
 * header list, typed accessors for the headers proxies route on, and
 * serialization. Parsing lives in sip/parser.hh.
 *
 * Hot-path design (see docs/performance.md): a message owns its wire
 * bytes in a ref-counted arena and headers are string_view slices into
 * it, so parsing copies nothing per header. Well-known header names are
 * interned to a small enum id at insertion, making lookups an integer
 * compare instead of a case-insensitive scan. Mutation (Via prepend,
 * Max-Forwards rewrite) copies only the new bytes into the arena;
 * copies of a message share the arena, and so do responses and ACKs
 * built from the request they answer, so values taken from it are
 * never copied. serialize() emits in one exact-size pass and caches the
 * result until the next mutation; takeSerialized() hands the cached
 * rendering over for the last send instead of copying it.
 */

#ifndef SIPROX_SIP_MESSAGE_HH
#define SIPROX_SIP_MESSAGE_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/mem_stats.hh"
#include "sip/uri.hh"

namespace siprox::sip {

/** Request methods used in VoIP call flows. */
enum class Method
{
    Invite,
    Ack,
    Bye,
    Cancel,
    Register,
    Options,
    Unknown,
};

const char *methodName(Method m);
Method methodFromName(std::string_view name);

/** Status codes appearing in the paper's call flows. */
namespace status {
inline constexpr int kTrying = 100;
inline constexpr int kRinging = 180;
inline constexpr int kOk = 200;
inline constexpr int kMovedTemporarily = 302;
inline constexpr int kBadRequest = 400;
inline constexpr int kUnauthorized = 401;
inline constexpr int kNotFound = 404;
inline constexpr int kRequestTimeout = 408;
inline constexpr int kServerError = 500;
inline constexpr int kServiceUnavailable = 503;
} // namespace status

/** Default reason phrase for a status code. */
const char *reasonPhrase(int status);

/**
 * Interned ids for the headers proxies route on. Everything else is
 * HeaderId::Other and matches by case-insensitive name.
 */
enum class HeaderId : std::uint8_t
{
    Via,
    To,
    From,
    CallId,
    CSeq,
    Contact,
    MaxForwards,
    ContentLength,
    ContentType,
    Route,
    RecordRoute,
    /** Simulated hop-by-hop overload-feedback advertisement. */
    Overload,
    Other,
};

/** Id for @p name (case-insensitive, full names only; compact names
 *  are expanded by the parser before interning). */
HeaderId headerIdFor(std::string_view name);

/** Canonical name of a well-known id; empty for HeaderId::Other. */
std::string_view headerCanonicalName(HeaderId id);

namespace detail {

/**
 * Ref-counted bump arena backing one message (and its copies). The
 * adopted wire buffer holds a parsed message's bytes; new bytes go into
 * an inline block, sized so that a phone's INVITE with its SDP fits,
 * and only overflow into heap chunks. Storage never moves, so
 * string_views into the arena stay valid as it grows.
 */
class MsgArena
{
  public:
    MsgArena() { track(); }

    explicit MsgArena(std::string wire) : wire_(std::move(wire))
    {
        // Adopted buffers arrive with producer-sized capacity (framer
        // rings, socket payload strings grown by doubling); the arena
        // retains that capacity for the whole message lifetime, so trim
        // gross overshoot now, before any view points into the bytes.
        if (wire_.capacity() > wire_.size() + kChunkSize)
            wire_.shrink_to_fit();
        track();
    }

    MsgArena(const MsgArena &) = delete;
    MsgArena &operator=(const MsgArena &) = delete;

    ~MsgArena() { sim::mem::ledgers().arena.sub(tracked_); }

    /** The adopted wire bytes (empty for built messages). */
    std::string_view wire() const { return wire_; }

    /** Copy @p s into the arena unless holds() it already; the
     *  returned view is stable either way. */
    std::string_view
    intern(std::string_view s)
    {
        if (s.empty())
            return {};
        if (holds(s))
            return s;
        char *p = alloc(s.size());
        std::memcpy(p, s.data(), s.size());
        return {p, s.size()};
    }

    /** Reserve @p n stable bytes (caller fills them). */
    char *
    alloc(std::size_t n)
    {
        if (n > free_)
            grow(n);
        char *p = next_;
        next_ += n;
        free_ -= n;
        return p;
    }

  private:
    static constexpr std::size_t kInlineSize = 512;
    static constexpr std::size_t kChunkSize = 256;

    struct Chunk
    {
        std::unique_ptr<char[]> data;
        std::size_t cap = 0;
    };

    /**
     * True if all of @p s lies in the adopted wire, the inline block or
     * the newest chunk: bytes that are already stable. Older chunks are
     * not searched (an arena shared by many copies can hold thousands),
     * so a view into one is reported false and merely copied again.
     */
    bool
    holds(std::string_view s) const
    {
        return within(s, wire_.data(), wire_.size())
            || within(s, inline_, kInlineSize)
            || (!chunks_.empty()
                && within(s, chunks_.back().data.get(),
                          chunks_.back().cap));
    }

    /** Whether @p s lies in [base, base + cap); std::less orders
     *  pointers into unrelated objects. */
    static bool
    within(std::string_view s, const char *base, std::size_t cap)
    {
        std::less<const char *> lt;
        return !lt(s.data(), base) && !lt(base + cap, s.data() + s.size());
    }

    void
    track()
    {
        tracked_ = wire_.capacity() + kInlineSize;
        sim::mem::ledgers().arena.add(tracked_);
    }

    void
    grow(std::size_t n)
    {
        Chunk c;
        c.cap = n > kChunkSize ? n : kChunkSize;
        c.data = std::make_unique<char[]>(c.cap);
        next_ = c.data.get();
        free_ = c.cap;
        tracked_ += c.cap;
        sim::mem::ledgers().arena.add(c.cap);
        chunks_.push_back(std::move(c));
    }

    std::string wire_;
    /** Overflow chunks, once the inline block is full. */
    std::vector<Chunk> chunks_;
    /** Bump cursor into the inline block or the newest chunk. */
    char *next_ = inline_;
    std::size_t free_ = kInlineSize;
    /** Bytes this arena reported to the retained-bytes ledger. */
    std::size_t tracked_ = 0;
    char inline_[kInlineSize];
};

} // namespace detail

/**
 * One header field. @p name is the canonical static literal for
 * well-known headers, otherwise a slice of the message arena; @p value
 * is a slice of the arena (or of static storage for built constants).
 */
struct Header
{
    HeaderId id = HeaderId::Other;
    std::string_view name;
    std::string_view value;
};

/**
 * A Via header value decoded in place: every field views the bytes it
 * was parsed from. SipMessage::topVia() caches one without copying the
 * branch onto the heap.
 */
struct ViaView
{
    std::string_view transport; ///< "UDP", "TCP", "SCTP"
    std::string_view host;
    std::uint16_t port = 0;
    std::string_view branch;

    static std::optional<ViaView> parse(std::string_view text);

    /** Exact length of the rendering. */
    std::size_t renderedSize() const;

    /** Write the rendering to @p out (renderedSize() bytes); returns
     *  the end. */
    char *renderTo(char *out) const;

    std::string toString() const;

    std::uint16_t effectivePort() const { return port ? port : 5060; }
};

/** The simulated address a Via's sent-by names (responses go there);
 *  nullopt unless the host is an h<id> name. */
std::optional<net::Addr> addrFromVia(const ViaView &via);

/** Parsed Via header value, owning its fields. */
struct Via
{
    std::string transport; ///< "UDP", "TCP", "SCTP"
    std::string host;
    std::uint16_t port = 0;
    std::string branch;

    std::string toString() const;

    /** Views of this Via's fields (valid while it lives unchanged). */
    ViaView
    view() const
    {
        return ViaView{transport, host, port, branch};
    }

    std::uint16_t effectivePort() const { return port ? port : 5060; }
};

/** Parsed CSeq header value. */
struct CSeq
{
    std::uint32_t number = 0;
    Method method = Method::Unknown;

    static std::optional<CSeq> parse(std::string_view text);
    std::string toString() const;
};

/**
 * A SIP request or response.
 */
class SipMessage
{
  public:
    SipMessage() = default;

    SipMessage(const SipMessage &o);
    SipMessage &operator=(const SipMessage &o);
    SipMessage(SipMessage &&) = default;
    SipMessage &operator=(SipMessage &&) = default;

    /** Construct a request line (room reserved for a full header
     *  set). */
    static SipMessage request(Method m, SipUri uri);

    /** Construct a response line (room reserved for a full header
     *  set); the reason phrase defaults to reasonPhrase(@p status). */
    static SipMessage response(int status, std::string_view reason = {});

    /**
     * Put this message's new bytes in @p origin's arena, so values
     * taken from @p origin are added without a copy (a response to a
     * request, an ACK to its INVITE). Only valid before anything was
     * added to this message; throws std::logic_error otherwise.
     */
    void shareArena(const SipMessage &origin);

    bool isRequest() const { return isRequest_; }
    bool isResponse() const { return !isRequest_; }

    Method method() const { return method_; }
    const SipUri &requestUri() const { return requestUri_; }

    void
    setRequestUri(SipUri uri)
    {
        requestUri_ = std::move(uri);
        wireCacheValid_ = false;
    }

    int statusCode() const { return status_; }
    std::string_view reason() const { return reason_; }
    bool isProvisional() const { return status_ >= 100 && status_ < 200; }
    bool isFinal() const { return status_ >= 200; }
    bool isSuccess() const { return status_ >= 200 && status_ < 300; }

    // --- headers -------------------------------------------------------
    const std::vector<Header> &headers() const { return headers_; }

    /** Append a header at the end. The value is copied into the arena
     *  unless it already lives there. */
    void addHeader(std::string_view name, std::string_view value);

    /** Prepend a header (used for Via insertion at proxies). */
    void prependHeader(std::string_view name, std::string_view value);

    /**
     * Prepend a Via header, rendering @p via directly into the arena
     * (equivalent to prependHeader("Via", via.toString()) without the
     * temporary string).
     */
    void prependVia(const ViaView &via);
    void prependVia(const Via &via) { prependVia(via.view()); }

    /**
     * @p n stable bytes in this message's arena, for rendering a value
     * in place; a view of them passes through addHeader() and setBody()
     * without a copy.
     */
    char *arenaBytes(std::size_t n);

    /** First value of @p name (case-insensitive); nullopt if absent. */
    std::optional<std::string_view> header(std::string_view name) const;

    /** First value of a well-known header; O(headers) id compares. */
    std::optional<std::string_view> header(HeaderId id) const;

    /** All values of @p name in order. */
    std::vector<std::string_view> headerAll(std::string_view name) const;

    /** All values of a well-known header in order. */
    std::vector<std::string_view> headerAll(HeaderId id) const;

    /** Replace the first @p name or append it. */
    void setHeader(std::string_view name, std::string_view value);

    /** Remove the first @p name; true if one was removed. */
    bool removeFirstHeader(std::string_view name);
    bool removeFirstHeader(HeaderId id);

    // --- typed accessors -------------------------------------------------
    std::string_view callId() const;

    /** CSeq, decoded once and cached until a CSeq header mutates. */
    std::optional<CSeq> cseq() const;

    /** Top Via, decoded once and cached until a Via header mutates;
     *  it views this message's bytes. */
    const std::optional<ViaView> &topVia() const;

    std::string_view from() const;
    std::string_view to() const;

    /** Contact header's URI, if present and parseable. */
    std::optional<SipUri> contactUri() const;

    /** Max-Forwards value; nullopt if absent/garbled. */
    std::optional<int> maxForwards() const;
    void setMaxForwards(int v);

    // --- body ------------------------------------------------------------
    std::string_view body() const { return body_; }
    void setBody(std::string_view body, std::string_view content_type = "");

    /**
     * Render the message (Content-Length recomputed) in one exact-size
     * pass. The rendering is cached until the next mutation, so
     * repeated calls cost one string copy each.
     */
    std::string serialize() const;

    /**
     * The rendering, moved out of the cache instead of copied: for the
     * last send of a message. A later serialize() renders again.
     */
    std::string takeSerialized();

    /** Serialized size in bytes (renders into the cache if needed). */
    std::size_t serializedSize() const;

    /** Short one-line description for traces. */
    std::string summary() const;

  private:
    friend class Parser;

    /** Header slots reserved up front for parsed and built messages: a
     *  phone's INVITE with the Vias of a 4-hop chain, plus the next
     *  hop's, fits without the vector growing. */
    static constexpr std::size_t kHeaderRoom = 16;

    /** The arena, created on first mutation of a built message. */
    detail::MsgArena &arena();

    /** Copy @p s into this message's arena. */
    std::string_view intern(std::string_view s);

    /** Drop caches invalidated by a mutation of header @p id. */
    void
    noteMutation(HeaderId id)
    {
        wireCacheValid_ = false;
        if (id == HeaderId::Via)
            viaCacheValid_ = false;
        else if (id == HeaderId::CSeq)
            cseqCacheValid_ = false;
    }

    void buildWire() const;

    bool isRequest_ = true;
    Method method_ = Method::Unknown;
    SipUri requestUri_;
    int status_ = 0;
    /** Static storage (the default phrase) or this message's bytes. */
    std::string_view reason_;
    std::vector<Header> headers_;
    std::string_view body_;
    std::shared_ptr<detail::MsgArena> arena_;

    // Caches; never copied, rebuilt on demand.
    mutable std::string wireCache_;
    mutable bool wireCacheValid_ = false;
    mutable std::optional<CSeq> cseqCache_;
    mutable bool cseqCacheValid_ = false;
    mutable std::optional<ViaView> viaCache_;
    mutable bool viaCacheValid_ = false;
};

/** ASCII lower case; SIP tokens are ASCII (RFC 3261 §25.1), so no
 *  locale lookup per byte. */
constexpr char
asciiLower(char c)
{
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/** Case-insensitive ASCII string compare. */
bool iequals(std::string_view a, std::string_view b);

} // namespace siprox::sip

#endif // SIPROX_SIP_MESSAGE_HH
