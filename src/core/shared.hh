/**
 * @file
 * The proxy's shared memory segment: everything the worker processes,
 * supervisor, and timer process share, plus aggregate counters.
 */

#ifndef SIPROX_CORE_SHARED_HH
#define SIPROX_CORE_SHARED_HH

#include <cstdint>

#include "core/conn_table.hh"
#include "core/hopctl.hh"
#include "core/location.hh"
#include "core/overload.hh"
#include "core/registrar.hh"
#include "core/txn_table.hh"

namespace siprox::core {

/** Aggregate proxy counters (monotonic; read by tests and benches).
 *  Every field needs a row in workload/counters.hh. */
struct ProxyCounters
{
    std::uint64_t messagesIn = 0;
    std::uint64_t requestsIn = 0;
    std::uint64_t responsesIn = 0;
    std::uint64_t forwards = 0;
    std::uint64_t localReplies = 0; ///< TRYING, 200-to-REGISTER, errors
    std::uint64_t parseErrors = 0;
    std::uint64_t routeFailures = 0;
    std::uint64_t retransAbsorbed = 0; ///< request retransmits answered
    std::uint64_t retransSent = 0;     ///< timer-driven retransmissions
    std::uint64_t retransTimeouts = 0;
    std::uint64_t timerB408s = 0; ///< 408s generated on Timer B expiry
    std::uint64_t registrations = 0;
    std::uint64_t authChallenges = 0;
    std::uint64_t authAccepted = 0;
    std::uint64_t redirects = 0;
    // --- TCP architecture ---------------------------------------------
    std::uint64_t connsAccepted = 0;
    std::uint64_t connsDestroyed = 0;
    std::uint64_t fdRequests = 0;
    std::uint64_t fdCacheHits = 0;
    std::uint64_t fdCacheInvalidations = 0;
    std::uint64_t outboundConnects = 0;
    std::uint64_t sendsToDeadConns = 0;
    std::uint64_t idleScans = 0;
    std::uint64_t idleScanVisited = 0;
    std::uint64_t connsReturnedByWorkers = 0;
    /** Event arch: connections migrated to an idle loop (work steal). */
    std::uint64_t connsStolen = 0;
    // --- overload control ---------------------------------------------
    std::uint64_t overloadRejected = 0;  ///< 503s from ThresholdReject
    std::uint64_t overloadThrottled = 0; ///< 503s from RateThrottle
    std::uint64_t overloadPanicDrops = 0; ///< pre-parse silent drops
    std::uint64_t overloadShedEnters = 0; ///< hysteresis transitions in
    std::uint64_t overloadShedExits = 0;  ///< hysteresis transitions out
    std::uint64_t tcpReadPauses = 0;  ///< read-pause slices started
    std::uint64_t tcpReadResumes = 0; ///< read-pause slices expired
    std::uint64_t tcpAcceptPauses = 0; ///< accept-drain pauses started
    // --- hop-by-hop distributed control --------------------------------
    std::uint64_t hopFeedbackSent = 0; ///< responses carrying Overload:
    std::uint64_t hopFeedbackApplied = 0; ///< advertisements consumed
    std::uint64_t hopThrottleHolds = 0; ///< INVITEs parked for a grant
    std::uint64_t hopThrottleRejects = 0; ///< 503s from the hop gate
    std::uint64_t hopThrottleDrops = 0; ///< pre-parse drops (on/off)
    std::uint64_t hopGrantExpired = 0; ///< stale grants failed open
    // --- sharded location service (clusters only) -----------------------
    std::uint64_t locLocalHits = 0;    ///< lookups served by own shard
    std::uint64_t locReplicaHits = 0;  ///< stale reads from replicas
    std::uint64_t locMissForwards = 0; ///< requests forwarded to owner
    std::uint64_t locRegisterForwards = 0; ///< REGISTERs at a non-owner
    std::uint64_t locReplPushes = 0;   ///< binding writes replicated out
    std::uint64_t locReplInstalls = 0; ///< replica bindings installed
};

/** Everything in the proxy's shared memory. */
struct SharedState
{
    Registrar registrar;
    TxnTable txns;
    RetransList retrans;
    ConnTable conns;
    IdlePq supervisorPq;
    ProxyCounters counters;
    OverloadController overload;
    /** Upstream side of hop-by-hop control (per-destination gate). */
    HopThrottleTable hopGate;
    /** Cluster shard membership + replica store (disabled by default). */
    LocationService location;
};

} // namespace siprox::core

#endif // SIPROX_CORE_SHARED_HH
