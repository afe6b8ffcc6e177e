/**
 * @file
 * Sharded location service for dispatched clusters. Each proxy
 * instance owns one shard of the AOR space, assigned by a consistent
 * hash ring shared with the dispatcher (so "which instance a REGISTER
 * is routed to" and "which instance's registrar stores it" agree by
 * construction). Non-owned lookups either serve from an
 * asynchronously-replicated local copy (staleReads) or forward the SIP
 * request itself to the owner instance over a real inter-proxy socket,
 * charging real parse/route/serialize costs there.
 *
 * The owner's registrar (core/registrar.hh) remains the authoritative
 * store; this class adds the ring, the replica store, and the pending
 * replication queue (drained by the proxy's replicator process after
 * ClusterMemberConfig::replicationLag).
 */

#ifndef SIPROX_CORE_LOCATION_HH
#define SIPROX_CORE_LOCATION_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "core/registrar.hh"
#include "sim/sync.hh"
#include "sim/time.hh"

namespace siprox::core {

/**
 * Consistent-hash ring over instance indices: FNV-1a over "inst<i>#v<k>"
 * virtual-node labels. Deterministic, seed-free, and cheap enough to
 * consult per message.
 */
class HashRing
{
  public:
    /** (Re)build the ring for @p instances members x @p vnodes points. */
    void build(int instances, int vnodes);

    /** Owning instance for @p key, or -1 on an empty ring. */
    int owner(std::string_view key) const;

    bool empty() const { return ring_.empty(); }

    /** FNV-1a 64-bit. */
    static std::uint64_t hash(std::string_view s);

  private:
    /** (point, instance), sorted by point. */
    std::vector<std::pair<std::uint64_t, int>> ring_;
};

/**
 * Per-instance sharded location state. Callers charge CPU via the cost
 * model (mirroring Registrar's contract); the lock() guards the replica
 * store and the pending queue.
 */
class LocationService
{
  public:
    void configure(const ClusterMemberConfig &cfg);

    bool enabled() const { return cfg_.enabled(); }
    const ClusterMemberConfig &config() const { return cfg_; }
    const HashRing &ring() const { return ring_; }

    /** Owning instance index for @p user. */
    int owner(std::string_view user) const { return ring_.owner(user); }

    /** True when this instance's shard owns @p user. */
    bool
    owns(std::string_view user) const
    {
        return !enabled() || ring_.owner(user) == cfg_.instance;
    }

    /** SIP address of instance @p i (invalid Addr when out of range). */
    net::Addr
    peerAddr(int i) const
    {
        if (i < 0 || static_cast<std::size_t>(i) >= cfg_.peers.size())
            return net::Addr{};
        return cfg_.peers[static_cast<std::size_t>(i)];
    }

    // --- replica store (lock() held) ------------------------------------
    std::optional<Binding>
    replicaLookup(const std::string &user) const
    {
        auto it = replicas_.find(user);
        if (it == replicas_.end())
            return std::nullopt;
        return it->second;
    }

    void
    installReplica(const std::string &user, Binding binding)
    {
        replicas_[user] = std::move(binding);
    }

    // --- pending replication queue (lock() held) ------------------------
    struct Pending
    {
        std::string user;
        std::string contact;
        sim::SimTime dueAt = 0;
    };

    /** Queue a binding write for push to the peers after the lag. */
    void
    queuePush(std::string user, std::string contact, sim::SimTime now)
    {
        pending_.push_back({std::move(user), std::move(contact),
                            now + cfg_.replicationLag});
    }

    /** Pop the next due entry (FIFO order == dueAt order). */
    bool
    popDue(sim::SimTime now, Pending &out)
    {
        if (pending_.empty() || pending_.front().dueAt > now)
            return false;
        out = std::move(pending_.front());
        pending_.pop_front();
        return true;
    }

    sim::SpinLock &lock() { return lock_; }

  private:
    ClusterMemberConfig cfg_;
    HashRing ring_;
    sim::SpinLock lock_{"locrepl"};
    std::unordered_map<std::string, Binding> replicas_;
    std::deque<Pending> pending_;
};

/** Render one replication datagram ("REPL <user> <contact>"). */
std::string renderReplication(const std::string &user,
                              const std::string &contact);

/** Parse a replication datagram; false on malformed input. */
bool parseReplication(std::string_view wire, std::string &user,
                      std::string &contact);

} // namespace siprox::core

#endif // SIPROX_CORE_LOCATION_HH
