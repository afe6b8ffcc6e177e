/**
 * @file
 * The run's counter schema: one table per stats struct, one row per
 * counter (name, member, digest groups). The same loops over the rows
 * sum per-proxy counters, render RunResult::digest(), fill
 * collectMetrics() and sample telemetry. A row's name is its leaf in
 * metrics and telemetry alike: "proxy.<name>" (also "proxy.hop<i>." and
 * "proxy.<i>." per chain hop / cluster instance), "net.<name>",
 * "dispatcher.<name>". A new counter needs its declaration and one row;
 * tagged kNone it stays out of the digest, so no golden moves.
 */

#ifndef SIPROX_WORKLOAD_COUNTERS_HH
#define SIPROX_WORKLOAD_COUNTERS_HH

#include <vector>

#include "core/dispatcher.hh"
#include "core/shared.hh"
#include "net/network.hh"
#include "stats/fields.hh"

namespace siprox::workload::counters {

/**
 * RunResult::digest() groups, as Field::digest bits. The digest predates
 * the tables: each group keeps its legacy position, and within a group
 * rows render in table order.
 */
enum : unsigned
{
    kNone = 0,
    kBase = 1u << 0,    ///< always rendered
    kHopCtl = 1u << 1,  ///< hop-by-hop control, once any row is nonzero
    kPerHop = 1u << 2,  ///< "hop<i>." lines of a chain run
    kCluster = 1u << 3, ///< run-wide cluster lines ("disp*", "loc*")
    kPerInst = 1u << 4, ///< "inst<i>." lines of a cluster run
    kTls = 1u << 5,     ///< TLS group, when TLS ran
    kSst = 1u << 6,     ///< SST group, when SST ran
};

using PC = core::ProxyCounters;
using NS = net::NetStats;
using DS = core::DispatcherStats;

inline constexpr stats::Field<PC> kProxy[] = {
    {"messagesIn", &PC::messagesIn, kBase | kPerHop | kPerInst},
    {"requestsIn", &PC::requestsIn, kBase},
    {"responsesIn", &PC::responsesIn, kBase},
    {"forwards", &PC::forwards, kBase | kPerHop | kPerInst},
    {"localReplies", &PC::localReplies, kBase | kPerHop | kPerInst},
    {"parseErrors", &PC::parseErrors, kBase},
    {"routeFailures", &PC::routeFailures, kBase},
    {"retransAbsorbed", &PC::retransAbsorbed, kBase | kPerHop},
    {"retransSent", &PC::retransSent, kBase},
    {"retransTimeouts", &PC::retransTimeouts, kBase},
    {"timerB408s", &PC::timerB408s, kBase | kPerHop},
    {"registrations", &PC::registrations, kBase | kPerInst},
    {"authChallenges", &PC::authChallenges, kNone},
    {"authAccepted", &PC::authAccepted, kNone},
    {"redirects", &PC::redirects, kNone},
    {"connsAccepted", &PC::connsAccepted, kBase},
    {"connsDestroyed", &PC::connsDestroyed, kBase},
    {"fdRequests", &PC::fdRequests, kNone},
    {"fdCacheHits", &PC::fdCacheHits, kNone},
    {"fdCacheInvalidations", &PC::fdCacheInvalidations, kNone},
    {"outboundConnects", &PC::outboundConnects, kBase},
    {"sendsToDeadConns", &PC::sendsToDeadConns, kNone},
    {"idleScans", &PC::idleScans, kNone},
    {"idleScanVisited", &PC::idleScanVisited, kNone},
    {"connsReturnedByWorkers", &PC::connsReturnedByWorkers, kNone},
    // Event-arch work stealing reports beside proxy.arch.kind/loops.
    {"arch.connsStolen", &PC::connsStolen, kNone},
    {"overloadRejected", &PC::overloadRejected, kBase | kPerHop},
    {"overloadThrottled", &PC::overloadThrottled, kBase | kPerHop},
    {"overloadPanicDrops", &PC::overloadPanicDrops, kBase | kPerHop},
    {"overloadShedEnters", &PC::overloadShedEnters, kBase},
    {"overloadShedExits", &PC::overloadShedExits, kBase},
    {"tcpReadPauses", &PC::tcpReadPauses, kBase},
    {"tcpReadResumes", &PC::tcpReadResumes, kBase},
    {"tcpAcceptPauses", &PC::tcpAcceptPauses, kBase},
    {"hopFeedbackSent", &PC::hopFeedbackSent, kHopCtl | kPerHop},
    {"hopFeedbackApplied", &PC::hopFeedbackApplied, kHopCtl | kPerHop},
    {"hopThrottleHolds", &PC::hopThrottleHolds, kHopCtl | kPerHop},
    {"hopThrottleRejects", &PC::hopThrottleRejects, kHopCtl | kPerHop},
    {"hopThrottleDrops", &PC::hopThrottleDrops, kHopCtl | kPerHop},
    {"hopGrantExpired", &PC::hopGrantExpired, kHopCtl | kPerHop},
    {"locLocalHits", &PC::locLocalHits, kCluster | kPerInst},
    {"locReplicaHits", &PC::locReplicaHits, kCluster | kPerInst},
    {"locMissForwards", &PC::locMissForwards, kCluster | kPerInst},
    {"locRegisterForwards", &PC::locRegisterForwards, kCluster},
    {"locReplPushes", &PC::locReplPushes, kCluster | kPerInst},
    {"locReplInstalls", &PC::locReplInstalls, kCluster | kPerInst},
};
static_assert(stats::coversEveryField(kProxy));

inline constexpr stats::Field<NS> kNet[] = {
    {"udpSent", &NS::udpSent, kBase},
    {"udpDelivered", &NS::udpDelivered, kBase},
    {"udpLost", &NS::udpLost, kBase},
    {"udpDropped", &NS::udpDropped, kBase},
    {"tcpConnects", &NS::tcpConnects, kBase},
    {"tcpRefused", &NS::tcpRefused, kBase},
    {"tcpSegments", &NS::tcpSegments, kBase},
    {"tcpBytes", &NS::tcpBytes, kBase},
    {"sctpMessages", &NS::sctpMessages, kBase},
    {"sctpDropped", &NS::sctpDropped, kBase},
    {"sctpAssocs", &NS::sctpAssocs, kBase},
    {"faultDropped", &NS::faultDropped, kBase},
    {"faultDuplicated", &NS::faultDuplicated, kBase},
    {"faultDelayed", &NS::faultDelayed, kBase},
    {"tcpFaultRefused", &NS::tcpFaultRefused, kBase},
    {"tcpRstInjected", &NS::tcpRstInjected, kBase},
    {"tcpBlackholed", &NS::tcpBlackholed, kBase},
    {"tcpRecoveries", &NS::tcpRecoveries, kBase},
    {"tlsConnects", &NS::tlsConnects, kTls},
    {"tlsHandshakesFull", &NS::tlsHandshakesFull, kTls},
    {"tlsHandshakesResumed", &NS::tlsHandshakesResumed, kTls},
    {"tlsZeroRttResumes", &NS::tlsZeroRttResumes, kTls},
    {"tlsSessionEvictions", &NS::tlsSessionEvictions, kTls},
    {"tlsHandshakeAborts", &NS::tlsHandshakeAborts, kTls},
    {"tlsRecords", &NS::tlsRecords, kTls},
    {"sstMessages", &NS::sstMessages, kSst},
    {"sstStreams", &NS::sstStreams, kSst},
    {"sstFrames", &NS::sstFrames, kSst},
    {"sstChannels", &NS::sstChannels, kSst},
    {"sstDropped", &NS::sstDropped, kSst},
    {"sstLost", &NS::sstLost, kSst},
};
// The two batched-I/O histograms (recv, send) render beside the table.
static_assert(stats::coversEveryField(kNet,
                                      2 * sizeof(net::BatchIoStats)));

inline constexpr stats::Field<DS> kDispatcher[] = {
    {"messagesIn", &DS::messagesIn, kCluster},
    {"requestsRouted", &DS::requestsRouted, kCluster},
    {"responsesRouted", &DS::responsesRouted, kCluster},
    {"registersRouted", &DS::registersRouted, kCluster},
    {"peekFailures", &DS::peekFailures, kCluster},
    {"dropsNoRoute", &DS::dropsNoRoute, kCluster},
    {"clientConnsAccepted", &DS::clientConnsAccepted, kCluster},
};
// The per-instance routing counts render beside the table.
static_assert(stats::coversEveryField(kDispatcher,
                                      sizeof(std::vector<std::uint64_t>)));

} // namespace siprox::workload::counters

#endif // SIPROX_WORKLOAD_COUNTERS_HH
