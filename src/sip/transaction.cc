#include "sip/transaction.hh"

namespace siprox::sip {

std::optional<TransactionKeyView>
transactionKeyView(const SipMessage &msg)
{
    const auto &via = msg.topVia();
    if (!via || via->branch.empty())
        return std::nullopt;
    auto cseq = msg.cseq();
    if (!cseq)
        return std::nullopt;
    Method m = cseq->method;
    // ACK for a non-2xx response and CANCEL match the INVITE
    // transaction they refer to (RFC 3261 17.2.3): same branch.
    if (m == Method::Ack || m == Method::Cancel)
        m = Method::Invite;
    return TransactionKeyView{via->branch, m};
}

std::optional<TransactionKey>
transactionKey(const SipMessage &msg)
{
    auto k = transactionKeyView(msg);
    if (!k)
        return std::nullopt;
    return TransactionKey{std::string(k->branch), k->method};
}

} // namespace siprox::sip
