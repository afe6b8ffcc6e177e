#include "sip/builders.hh"

#include <charconv>
#include <cstring>

namespace siprox::sip {

namespace {

/**
 * Writes one header value or body straight into its destination. A
 * fill runs twice through render(): once on a Render with no storage,
 * which only counts, then on one over exactly that many arena bytes.
 */
class Render
{
  public:
    Render() = default;
    explicit Render(char *out) : out_(out) {}

    Render &
    operator<<(std::string_view s)
    {
        if (out_)
            std::memcpy(out_ + n_, s.data(), s.size());
        n_ += s.size();
        return *this;
    }

    Render &
    operator<<(char c)
    {
        return *this << std::string_view(&c, 1);
    }

    Render &
    operator<<(std::uint32_t v)
    {
        char buf[12];
        auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
        return *this << std::string_view(buf, end);
    }

    Render &
    operator<<(const SipUri &uri)
    {
        if (out_)
            uri.renderTo(out_ + n_);
        n_ += uri.renderedSize();
        return *this;
    }

    Render &
    operator<<(const ViaView &via)
    {
        if (out_)
            via.renderTo(out_ + n_);
        n_ += via.renderedSize();
        return *this;
    }

    std::size_t size() const { return n_; }
    std::string_view view() const { return {out_, n_}; }

  private:
    char *out_ = nullptr;
    std::size_t n_ = 0;
};

/** What @p fill writes, placed in @p msg's arena; the view passes
 *  through addHeader()/setBody() without a copy. */
template <class Fill>
std::string_view
render(SipMessage &msg, Fill &&fill)
{
    Render measure;
    fill(measure);
    Render out(msg.arenaBytes(measure.size()));
    fill(out);
    return out.view();
}

/** "<uri>", plus ";tag=t" when @p tag is set. */
void
nameAddr(Render &r, const SipUri &uri, std::string_view tag)
{
    r << '<' << uri << '>';
    if (!tag.empty())
        r << ";tag=" << tag;
}

/** The SDP body of defaultSdp(). */
void
sdp(Render &r, const SipUri &origin)
{
    const std::string_view host = origin.host.empty()
        ? std::string_view("h0")
        : std::string_view(origin.host);
    const std::string_view user = origin.user.empty()
        ? std::string_view("anon")
        : std::string_view(origin.user);
    r << "v=0\r\n"
      << "o=" << user << " 2890844526 2890844526 IN IP4 " << host
      << "\r\n"
      << "s=call\r\n"
      << "c=IN IP4 " << host << "\r\n"
      << "t=0 0\r\n"
      << "m=audio 49170 RTP/AVP 0 8\r\n"
      << "a=rtpmap:0 PCMU/8000\r\n"
      << "a=rtpmap:8 PCMA/8000\r\n";
}

} // namespace

SipMessage
buildRequest(const RequestSpec &spec)
{
    SipMessage msg = SipMessage::request(spec.method, spec.requestUri);
    const ViaView via{spec.viaTransport, spec.viaSentBy.host,
                      spec.viaSentBy.port, spec.branch};
    msg.addHeader("Via", render(msg, [&](Render &r) { r << via; }));
    char mf[16];
    auto mf_end = std::to_chars(mf, mf + sizeof(mf), spec.maxForwards).ptr;
    msg.addHeader("Max-Forwards", std::string_view(mf, mf_end));
    msg.addHeader("From", render(msg, [&](Render &r) {
                      nameAddr(r, spec.from, spec.fromTag);
                  }));
    msg.addHeader("To", render(msg, [&](Render &r) {
                      nameAddr(r, spec.to, spec.toTag);
                  }));
    msg.addHeader("Call-ID", spec.callId);
    msg.addHeader("CSeq", render(msg, [&](Render &r) {
                      r << spec.cseq << ' ' << methodName(spec.method);
                  }));
    if (spec.contact) {
        msg.addHeader("Contact", render(msg, [&](Render &r) {
                          nameAddr(r, *spec.contact, {});
                      }));
    }
    msg.addHeader("User-Agent", "siprox-phone/1.0");
    if (spec.method == Method::Invite) {
        msg.setBody(render(msg, [&](Render &r) { sdp(r, spec.from); }),
                    "application/sdp");
    }
    return msg;
}

SipMessage
buildResponse(const SipMessage &req, int status, const std::string &to_tag,
              std::optional<SipUri> contact)
{
    SipMessage rsp = SipMessage::response(status);
    // Values copied from the request stay views into its bytes.
    rsp.shareArena(req);
    for (const Header &h : req.headers()) {
        if (h.id == HeaderId::Via)
            rsp.addHeader("Via", h.value);
    }
    rsp.addHeader("From", req.from());
    const std::string_view req_to = req.to();
    std::string_view to = req_to;
    if (!to_tag.empty() && to.find(";tag=") == std::string_view::npos)
        to = render(rsp, [&](Render &r) { r << req_to << ";tag=" << to_tag; });
    rsp.addHeader("To", to);
    rsp.addHeader("Call-ID", req.callId());
    if (auto cs = req.header(HeaderId::CSeq))
        rsp.addHeader("CSeq", *cs);
    if (contact) {
        rsp.addHeader("Contact", render(rsp, [&](Render &r) {
                          nameAddr(r, *contact, {});
                      }));
    }
    if (status == status::kOk && req.method() == Method::Invite) {
        const SipUri to_uri =
            SipUri::parse(to.substr(to.find('<') + 1,
                                    to.find('>') - to.find('<') - 1))
                .value_or(SipUri{});
        rsp.setBody(render(rsp, [&](Render &r) { sdp(r, to_uri); }),
                    "application/sdp");
    }
    return rsp;
}

SipMessage
buildAck(const SipMessage &invite, const SipMessage &final,
         std::string_view branch)
{
    SipMessage ack =
        SipMessage::request(Method::Ack, invite.requestUri());
    // From and Call-ID stay views into the INVITE's bytes.
    ack.shareArena(invite);
    ViaView via = invite.topVia().value_or(ViaView{});
    via.branch = branch;
    ack.addHeader("Via", render(ack, [&](Render &r) { r << via; }));
    ack.addHeader("Max-Forwards", "70");
    ack.addHeader("From", invite.from());
    // The To of the ACK carries the tag from the final response.
    ack.addHeader("To", final.to());
    ack.addHeader("Call-ID", invite.callId());
    const std::uint32_t cseq = invite.cseq().value_or(CSeq{}).number;
    ack.addHeader("CSeq", render(ack, [&](Render &r) {
                      r << cseq << ' ' << methodName(Method::Ack);
                  }));
    return ack;
}

std::string
defaultSdp(const SipUri &origin)
{
    Render measure;
    sdp(measure, origin);
    std::string out(measure.size(), '\0');
    Render w(out.data());
    sdp(w, origin);
    return out;
}

} // namespace siprox::sip
