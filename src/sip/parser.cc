#include "sip/parser.hh"

#include <charconv>
#include <memory>
#include <utility>

namespace siprox::sip {

namespace {

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t'
                          || s.back() == '\r'))
        s.remove_suffix(1);
    return s;
}

/** Pop one line (without terminator) off @p text; handles \r\n and \n. */
std::optional<std::string_view>
takeLine(std::string_view &text)
{
    auto nl = text.find('\n');
    if (nl == std::string_view::npos)
        return std::nullopt;
    std::string_view line = text.substr(0, nl);
    if (!line.empty() && line.back() == '\r')
        line.remove_suffix(1);
    text.remove_prefix(nl + 1);
    return line;
}

ParseResult
fail(std::string why)
{
    ParseResult r;
    r.error = std::move(why);
    return r;
}

/**
 * Locate the end of the header section (index just past the blank
 * line), or npos if incomplete. Accepts \r\n\r\n and \n\n.
 */
std::size_t
findHeaderEnd(std::string_view text)
{
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '\n')
            continue;
        std::size_t j = i + 1;
        if (j < text.size() && text[j] == '\r')
            ++j;
        if (j < text.size() && text[j] == '\n')
            return j + 1;
    }
    return std::string_view::npos;
}

/** Scan the header section for Content-Length (or compact "l"). */
std::size_t
scanContentLength(std::string_view headers)
{
    while (!headers.empty()) {
        auto line = takeLine(headers);
        if (!line)
            break;
        auto colon = line->find(':');
        if (colon == std::string_view::npos)
            continue;
        std::string_view name = trim(line->substr(0, colon));
        if (!iequals(name, "Content-Length") && !iequals(name, "l"))
            continue;
        std::string_view value = trim(line->substr(colon + 1));
        std::size_t n = 0;
        auto [ptr, ec] =
            std::from_chars(value.data(), value.data() + value.size(), n);
        if (ec == std::errc() && ptr == value.data() + value.size())
            return n;
        return 0;
    }
    return 0;
}

} // namespace

std::string_view
expandHeaderName(std::string_view name)
{
    if (name.size() != 1)
        return name;
    switch (asciiLower(name[0])) {
      case 'i':
        return "Call-ID";
      case 'm':
        return "Contact";
      case 'f':
        return "From";
      case 't':
        return "To";
      case 'v':
        return "Via";
      case 'l':
        return "Content-Length";
      case 'c':
        return "Content-Type";
      case 's':
        return "Subject";
      case 'k':
        return "Supported";
      default:
        return name;
    }
}

/**
 * Friend of SipMessage: installs headers and body as views into the
 * adopted wire buffer, bypassing the interning mutators.
 */
class Parser
{
  public:
    static ParseResult parse(std::string text);
};

ParseResult
Parser::parse(std::string text)
{
    auto arena = std::make_shared<detail::MsgArena>(std::move(text));
    std::string_view rest = arena->wire();

    // Skip leading keep-alive newlines.
    while (!rest.empty() && (rest.front() == '\r' || rest.front() == '\n'))
        rest.remove_prefix(1);

    auto start = takeLine(rest);
    if (!start || start->empty())
        return fail("missing start line");

    ParseResult result;
    SipMessage &msg = result.message;
    msg.arena_ = arena;

    if (start->substr(0, 8) == "SIP/2.0 ") {
        // Status line: SIP/2.0 200 OK
        std::string_view body = start->substr(8);
        auto sp = body.find(' ');
        std::string_view code =
            sp == std::string_view::npos ? body : body.substr(0, sp);
        int status = 0;
        auto [ptr, ec] =
            std::from_chars(code.data(), code.data() + code.size(),
                            status);
        if (ec != std::errc() || ptr != code.data() + code.size()
            || status < 100 || status > 699) {
            return fail("bad status code");
        }
        msg.isRequest_ = false;
        msg.status_ = status;
        if (sp != std::string_view::npos)
            msg.reason_ = trim(body.substr(sp + 1));
    } else {
        // Request line: METHOD uri SIP/2.0
        auto sp1 = start->find(' ');
        if (sp1 == std::string_view::npos)
            return fail("bad request line");
        auto sp2 = start->find(' ', sp1 + 1);
        if (sp2 == std::string_view::npos)
            return fail("bad request line");
        if (trim(start->substr(sp2 + 1)) != "SIP/2.0")
            return fail("bad SIP version");
        Method m = methodFromName(start->substr(0, sp1));
        auto uri = SipUri::parse(start->substr(sp1 + 1, sp2 - sp1 - 1));
        if (!uri)
            return fail("bad request URI");
        msg.isRequest_ = true;
        msg.method_ = m;
        msg.requestUri_ = std::move(*uri);
    }

    // Headers, with folding: continuation lines start with SP/HT.
    // The common case appends a {id, name view, value view} triple; a
    // folded value (rare) is joined and interned into the arena.
    msg.headers_.reserve(SipMessage::kHeaderRoom);
    bool has_pending = false;
    HeaderId pending_id = HeaderId::Other;
    std::string_view pending_name;
    std::string_view pending_value;
    bool is_folded = false;
    std::string folded;
    auto flush = [&] {
        if (!has_pending)
            return;
        std::string_view value =
            is_folded ? arena->intern(folded) : pending_value;
        msg.headers_.push_back(Header{pending_id, pending_name, value});
        has_pending = false;
        is_folded = false;
        folded.clear();
    };
    for (;;) {
        auto line = takeLine(rest);
        if (!line)
            return fail("unterminated headers");
        if (line->empty())
            break; // end of headers
        if (line->front() == ' ' || line->front() == '\t') {
            if (!has_pending)
                return fail("continuation without header");
            if (!is_folded) {
                is_folded = true;
                folded.assign(pending_value);
            }
            folded += ' ';
            folded += trim(*line);
            continue;
        }
        flush();
        auto colon = line->find(':');
        if (colon == std::string_view::npos)
            return fail("header without colon");
        std::string_view name = trim(line->substr(0, colon));
        if (name.empty())
            return fail("empty header name");
        has_pending = true;
        pending_name = expandHeaderName(name);
        pending_id = headerIdFor(pending_name);
        pending_value = trim(line->substr(colon + 1));
    }
    flush();

    // Body per Content-Length (truncated input is an error).
    std::size_t content_length = 0;
    if (auto cl = msg.header(HeaderId::ContentLength)) {
        auto v = trim(*cl);
        auto [ptr, ec] =
            std::from_chars(v.data(), v.data() + v.size(),
                            content_length);
        if (ec != std::errc() || ptr != v.data() + v.size())
            return fail("bad Content-Length");
    } else {
        content_length = rest.size();
    }
    if (rest.size() < content_length)
        return fail("truncated body");
    msg.body_ = rest.substr(0, content_length);

    result.ok = true;
    return result;
}

ParseResult
parseMessage(std::string_view text)
{
    return Parser::parse(std::string(text));
}

ParseResult
parseOwned(std::string text)
{
    return Parser::parse(std::move(text));
}

std::optional<std::string>
StreamFramer::next()
{
    // Skip keep-alive CRLFs between messages.
    while (pos_ < buf_.size()
           && (buf_[pos_] == '\r' || buf_[pos_] == '\n')) {
        ++pos_;
    }
    if (scanned_ < pos_)
        scanned_ = pos_;
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = scanned_ = 0;
        return std::nullopt;
    }

    const std::string_view view(buf_);
    // Resume the header scan where the last attempt stopped, backed up
    // three bytes so a terminator straddling the chunk boundary is
    // still seen whole.
    const std::size_t from =
        scanned_ > pos_ + 3 ? scanned_ - 3 : pos_;
    std::size_t header_end = findHeaderEnd(view.substr(from));
    if (header_end == std::string_view::npos) {
        scanned_ = buf_.size();
        if (buf_.size() - pos_ > kMaxHeaderBytes)
            poisoned_ = true;
        return std::nullopt;
    }
    header_end += from;
    std::size_t content_length =
        scanContentLength(view.substr(pos_, header_end - pos_));
    std::size_t total = header_end + content_length;
    if (buf_.size() < total) {
        scanned_ = header_end;
        return std::nullopt;
    }
    if (pos_ == 0 && total == buf_.size()) {
        // The buffer is exactly one message: hand it over whole.
        std::string raw = std::move(buf_);
        buf_.clear();
        pos_ = scanned_ = 0;
        return raw;
    }
    std::string raw = buf_.substr(pos_, total - pos_);
    pos_ = scanned_ = total;
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = scanned_ = 0;
    }
    return raw;
}

} // namespace siprox::sip
