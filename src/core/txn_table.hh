/**
 * @file
 * Shared-memory stateful transaction store (OpenSER "tm" module) and
 * the global retransmission timer list (§3.2). Both sit behind
 * spin-then-yield locks shared by all worker processes; callers charge
 * CPU per the cost model.
 */

#ifndef SIPROX_CORE_TXN_TABLE_HH
#define SIPROX_CORE_TXN_TABLE_HH

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/addr.hh"
#include "sim/sync.hh"
#include "sim/time.hh"
#include "sip/message.hh"
#include "sip/transaction.hh"

namespace siprox::core {

using sim::SimTime;

/**
 * Map @p key to @p value in a table keyed by views, where @p key is
 * stored in whatever @p value refers to. A key already present is
 * re-keyed to @p key, so each node's key always views the object its
 * value refers to and no view outlives the string it points into.
 */
template <class Map, class Value>
void
bindKey(Map &map, const sip::TransactionKey &key, const Value &value)
{
    auto [it, fresh] = map.try_emplace(key, value);
    if (!fresh) {
        map.erase(it);
        map.emplace(key, value);
    }
}

/** Proxy-side state for one SIP transaction. */
struct TxnRecord
{
    enum class State
    {
        Proceeding,
        Completed,
        Terminated,
    };

    /** Key from the caller-side top Via (matches request retransmits). */
    sip::TransactionKey serverKey;
    /** Key of the proxy's own downstream branch (matches responses). */
    sip::TransactionKey clientKey;
    sip::Method method = sip::Method::Unknown;
    State state = State::Proceeding;

    /** Where responses are forwarded (toward the request originator). */
    net::Addr upstreamAddr;
    std::uint64_t upstreamConnId = 0;

    /** When the proxy created this record (serving-latency signal). */
    SimTime createdAt = 0;

    /** True when this INVITE holds a hop-gate window slot toward the
     *  next hop; the slot is released exactly once, at the final
     *  response or at Timer B. */
    bool hopGated = false;

    /** Last response forwarded upstream; replayed to absorb request
     *  retransmissions (stateful behaviour). */
    std::string lastResponse;
};

/**
 * Hash table of in-flight transactions, addressable by both keys. The
 * keys are stored once, in the record: each map node's key views the
 * branch of the record it maps to.
 */
class TxnTable
{
  public:
    sim::SpinLock &lock() { return lock_; }

    /** All methods below require the lock to be held. */

    std::shared_ptr<TxnRecord>
    find(sip::TransactionKeyView key)
    {
        auto it = map_.find(key);
        return it == map_.end() ? nullptr : it->second;
    }

    std::shared_ptr<TxnRecord>
    insert(TxnRecord record)
    {
        auto rec = std::make_shared<TxnRecord>(std::move(record));
        bindKey(map_, rec->serverKey, rec);
        bindKey(map_, rec->clientKey, rec);
        return rec;
    }

    /** Queue @p rec for removal at @p at (cleanup is FIFO in time). */
    void
    scheduleExpiry(const std::shared_ptr<TxnRecord> &rec, SimTime at)
    {
        expiry_.push_back({at, rec});
    }

    /**
     * Remove entries whose expiry passed. Returns the number of
     * records destroyed (callers charge per-record cost).
     */
    std::size_t
    cleanupExpired(SimTime now)
    {
        std::size_t removed = 0;
        while (!expiry_.empty() && expiry_.front().at <= now) {
            auto rec = expiry_.front().rec;
            expiry_.pop_front();
            map_.erase(rec->serverKey);
            map_.erase(rec->clientKey);
            ++removed;
        }
        return removed;
    }

    /** Records present (two keys per record). */
    std::size_t size() const { return map_.size(); }

  private:
    struct Expiry
    {
        SimTime at;
        std::shared_ptr<TxnRecord> rec;
    };

    sim::SpinLock lock_{"txn_hash"};
    std::unordered_map<sip::TransactionKeyView, std::shared_ptr<TxnRecord>,
                       sip::TransactionKeyHash>
        map_;
    std::deque<Expiry> expiry_;
};

/**
 * The global retransmission list of §3.2: every forwarded request on an
 * unreliable transport gets an entry; the timer process walks the whole
 * list each tick. Workers arm/cancel entries under the same lock.
 */
class RetransList
{
  public:
    struct Entry
    {
        sip::TransactionKey key;
        std::string wire;
        net::Addr dst;
        SimTime nextAt = 0;
        SimTime interval = 0;
        SimTime deadline = 0;
        bool invite = false;
        bool cancelled = false;
        int sent = 0;
    };

    /** A retransmission the timer process must perform. */
    struct Due
    {
        std::string wire;
        net::Addr dst;
    };

    /** An entry whose Timer B/F deadline expired without a response. */
    struct TimedOut
    {
        sip::TransactionKey key;
        std::string wire; ///< the forwarded request, for the 408
        bool invite = false;
    };

    sim::SpinLock &lock() { return lock_; }

    /** All methods below require the lock to be held. */

    void
    arm(Entry entry)
    {
        entries_.push_back(std::move(entry));
        auto it = std::prev(entries_.end());
        bindKey(index_, it->key, it);
    }

    /** Mark the entry for @p key cancelled; true if it existed. */
    bool
    cancel(sip::TransactionKeyView key)
    {
        auto it = index_.find(key);
        if (it == index_.end())
            return false;
        it->second->cancelled = true;
        index_.erase(it);
        return true;
    }

    /**
     * Walk the entire list (the paper's design): erase cancelled and
     * expired entries, collect due retransmissions, and back off their
     * timers (T1 doubling; non-INVITE capped at T2).
     *
     * @param now Current time.
     * @param out Receives messages to retransmit.
     * @param timeouts Receives the count of deadline-expired entries.
     * @return Number of entries visited (for cost accounting).
     */
    std::size_t collectDue(SimTime now, std::vector<Due> &out,
                           std::size_t &timeouts);

    /** As above, but expired entries are returned so the caller can
     *  answer the transaction with a 408 and reclaim its record. */
    std::size_t collectDue(SimTime now, std::vector<Due> &out,
                           std::vector<TimedOut> &timed_out);

    std::size_t size() const { return entries_.size(); }

  private:
    sim::SpinLock lock_{"timer_list"};
    std::list<Entry> entries_;
    /** Keyed by views of the entries' own keys (see bindKey()). */
    std::unordered_map<sip::TransactionKeyView, std::list<Entry>::iterator,
                       sip::TransactionKeyHash>
        index_;
};

} // namespace siprox::core

#endif // SIPROX_CORE_TXN_TABLE_HH
