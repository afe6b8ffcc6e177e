/**
 * @file
 * Transaction identification (RFC 3261 §17.2.3). A transaction is keyed
 * by the top Via branch plus the CSeq method (with ACK and CANCEL
 * matching the INVITE they refer to). The stateful proxy's shared
 * transaction table and the phones' pending-request maps key on this.
 */

#ifndef SIPROX_SIP_TRANSACTION_HH
#define SIPROX_SIP_TRANSACTION_HH

#include <charconv>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "sip/message.hh"

namespace siprox::sip {

/** Magic cookie required at the start of RFC 3261 branches. */
inline constexpr const char *kBranchCookie = "z9hG4bK";

/** Key identifying one transaction at one element. */
struct TransactionKey
{
    std::string branch;
    Method method = Method::Unknown;

    bool operator==(const TransactionKey &) const = default;
};

/**
 * A transaction key viewing its branch where it lies (a message's
 * bytes, or a stored TransactionKey): lookups copy nothing. Tables
 * keyed by views store the owning key once, in the record.
 */
struct TransactionKeyView
{
    std::string_view branch;
    Method method = Method::Unknown;

    TransactionKeyView() = default;
    TransactionKeyView(std::string_view b, Method m) : branch(b), method(m)
    {
    }
    /** Views @p k's branch: valid while @p k lives unchanged. */
    TransactionKeyView(const TransactionKey &k)
        : branch(k.branch), method(k.method)
    {
    }

    bool operator==(const TransactionKeyView &) const = default;
};

/** Hashes owning keys and views alike (std::hash of a string and of
 *  its string_view agree). */
struct TransactionKeyHash
{
    std::size_t
    operator()(TransactionKeyView k) const
    {
        return std::hash<std::string_view>{}(k.branch)
            ^ (static_cast<std::size_t>(k.method) << 1);
    }
};

/**
 * Transaction key for a message arriving at a proxy/UAS. ACK matches
 * its INVITE transaction; CANCEL likewise. Returns nullopt when the
 * message lacks a Via branch or CSeq. The view form points into the
 * message's bytes.
 */
std::optional<TransactionKeyView> transactionKeyView(const SipMessage &msg);
std::optional<TransactionKey> transactionKey(const SipMessage &msg);

/**
 * Deterministic branch-parameter generator (one per sending element).
 */
class BranchGenerator
{
  public:
    explicit BranchGenerator(std::uint64_t salt) : salt_(salt) {}

    /** "z9hG4bK<salt>.<n>", rendered into one exact-size string. */
    std::string
    next()
    {
        char salt[24];
        char n[24];
        char *salt_end =
            std::to_chars(salt, salt + sizeof(salt), salt_).ptr;
        char *n_end = std::to_chars(n, n + sizeof(n), ++counter_).ptr;
        std::string out;
        out.reserve(std::strlen(kBranchCookie)
                    + static_cast<std::size_t>(salt_end - salt) + 1
                    + static_cast<std::size_t>(n_end - n));
        out += kBranchCookie;
        out.append(salt, salt_end);
        out += '.';
        out.append(n, n_end);
        return out;
    }

  private:
    std::uint64_t salt_;
    std::uint64_t counter_ = 0;
};

} // namespace siprox::sip

#endif // SIPROX_SIP_TRANSACTION_HH
