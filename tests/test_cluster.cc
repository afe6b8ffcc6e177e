/**
 * @file
 * Cluster topology tests: the tentpole golden pin
 * (SingleProxyAndChainDigestsUnchangedByTopology) proving the
 * Topology extraction left every pre-existing scenario byte-identical,
 * plus unit and integration coverage for the consistent-hash ring,
 * clusterSupportError named reasons, the dispatcher, sharded-registrar
 * miss-forwarding vs replication, and cluster determinism.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/dispatcher.hh"
#include "core/location.hh"
#include "workload/scenario.hh"

namespace {

using namespace siprox;
using namespace siprox::workload;

// --- goldens captured from the pre-Topology runner (commit 44afd5e) ---

const char kSingleUdpSeed7[] =
    "ops=24\n"
    "callsCompleted=12\n"
    "callsFailed=0\n"
    "phoneRetransmissions=0\n"
    "reconnects=0\n"
    "reconnectFailures=0\n"
    "duration=2227622\n"
    "inviteP50=376831\n"
    "inviteP99=425983\n"
    "timedOut=0\n"
    "messagesIn=80\n"
    "requestsIn=44\n"
    "responsesIn=36\n"
    "forwards=72\n"
    "localReplies=20\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=8\n"
    "connsAccepted=0\n"
    "connsDestroyed=0\n"
    "outboundConnects=0\n"
    "overloadRejected=0\n"
    "overloadThrottled=0\n"
    "overloadPanicDrops=0\n"
    "overloadShedEnters=0\n"
    "overloadShedExits=0\n"
    "tcpReadPauses=0\n"
    "tcpReadResumes=0\n"
    "tcpAcceptPauses=0\n"
    "phoneRejected503=0\n"
    "phoneBackoffs=0\n"
    "proxyRecvQueueDrops=0\n"
    "proxyAcceptRefused=0\n"
    "udpSent=172\n"
    "udpDelivered=172\n"
    "udpLost=0\n"
    "udpDropped=0\n"
    "tcpConnects=0\n"
    "tcpRefused=0\n"
    "tcpSegments=0\n"
    "tcpBytes=0\n"
    "sctpMessages=0\n"
    "sctpDropped=0\n"
    "sctpAssocs=0\n"
    "faultDropped=0\n"
    "faultDuplicated=0\n"
    "faultDelayed=0\n"
    "tcpFaultRefused=0\n"
    "tcpRstInjected=0\n"
    "tcpBlackholed=0\n"
    "tcpRecoveries=0\n"
    "txnEntriesAtEnd=48\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n";

const char kChain3UdpRateSeed42[] =
    "ops=24\n"
    "callsCompleted=12\n"
    "callsFailed=0\n"
    "phoneRetransmissions=0\n"
    "reconnects=0\n"
    "reconnectFailures=0\n"
    "duration=4533502\n"
    "inviteP50=786431\n"
    "inviteP99=851967\n"
    "timedOut=0\n"
    "messagesIn=248\n"
    "requestsIn=116\n"
    "responsesIn=132\n"
    "forwards=216\n"
    "localReplies=44\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=8\n"
    "connsAccepted=0\n"
    "connsDestroyed=0\n"
    "outboundConnects=0\n"
    "overloadRejected=0\n"
    "overloadThrottled=0\n"
    "overloadPanicDrops=0\n"
    "overloadShedEnters=0\n"
    "overloadShedExits=0\n"
    "tcpReadPauses=0\n"
    "tcpReadResumes=0\n"
    "tcpAcceptPauses=0\n"
    "phoneRejected503=0\n"
    "phoneBackoffs=0\n"
    "proxyRecvQueueDrops=0\n"
    "proxyAcceptRefused=0\n"
    "udpSent=340\n"
    "udpDelivered=340\n"
    "udpLost=0\n"
    "udpDropped=0\n"
    "tcpConnects=0\n"
    "tcpRefused=0\n"
    "tcpSegments=0\n"
    "tcpBytes=0\n"
    "sctpMessages=0\n"
    "sctpDropped=0\n"
    "sctpAssocs=0\n"
    "faultDropped=0\n"
    "faultDuplicated=0\n"
    "faultDelayed=0\n"
    "tcpFaultRefused=0\n"
    "tcpRstInjected=0\n"
    "tcpBlackholed=0\n"
    "tcpRecoveries=0\n"
    "txnEntriesAtEnd=144\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=0\n"
    "hopFeedbackSent=152\n"
    "hopFeedbackApplied=96\n"
    "hopThrottleHolds=0\n"
    "hopThrottleRejects=0\n"
    "hopThrottleDrops=0\n"
    "hopGrantExpired=0\n"
    "chainHops=3\n"
    "hop0.messagesIn=88\n"
    "hop0.forwards=72\n"
    "hop0.localReplies=16\n"
    "hop0.retransAbsorbed=0\n"
    "hop0.timerB408s=0\n"
    "hop0.overloadRejected=0\n"
    "hop0.overloadThrottled=0\n"
    "hop0.overloadPanicDrops=0\n"
    "hop0.hopFeedbackSent=52\n"
    "hop0.hopFeedbackApplied=48\n"
    "hop0.hopThrottleHolds=0\n"
    "hop0.hopThrottleRejects=0\n"
    "hop0.hopThrottleDrops=0\n"
    "hop0.hopGrantExpired=0\n"
    "hop1.messagesIn=84\n"
    "hop1.forwards=72\n"
    "hop1.localReplies=12\n"
    "hop1.retransAbsorbed=0\n"
    "hop1.timerB408s=0\n"
    "hop1.overloadRejected=0\n"
    "hop1.overloadThrottled=0\n"
    "hop1.overloadPanicDrops=0\n"
    "hop1.hopFeedbackSent=48\n"
    "hop1.hopFeedbackApplied=48\n"
    "hop1.hopThrottleHolds=0\n"
    "hop1.hopThrottleRejects=0\n"
    "hop1.hopThrottleDrops=0\n"
    "hop1.hopGrantExpired=0\n"
    "hop2.messagesIn=76\n"
    "hop2.forwards=72\n"
    "hop2.localReplies=16\n"
    "hop2.retransAbsorbed=0\n"
    "hop2.timerB408s=0\n"
    "hop2.overloadRejected=0\n"
    "hop2.overloadThrottled=0\n"
    "hop2.overloadPanicDrops=0\n"
    "hop2.hopFeedbackSent=52\n"
    "hop2.hopFeedbackApplied=0\n"
    "hop2.hopThrottleHolds=0\n"
    "hop2.hopThrottleRejects=0\n"
    "hop2.hopThrottleDrops=0\n"
    "hop2.hopGrantExpired=0\n";

const char kChain2TcpSeed5[] =
    "ops=24\n"
    "callsCompleted=12\n"
    "callsFailed=0\n"
    "phoneRetransmissions=0\n"
    "reconnects=0\n"
    "reconnectFailures=0\n"
    "duration=5969729\n"
    "inviteP50=950271\n"
    "inviteP99=1179647\n"
    "timedOut=0\n"
    "messagesIn=164\n"
    "requestsIn=80\n"
    "responsesIn=84\n"
    "forwards=144\n"
    "localReplies=32\n"
    "parseErrors=0\n"
    "routeFailures=0\n"
    "retransAbsorbed=0\n"
    "retransSent=0\n"
    "retransTimeouts=0\n"
    "timerB408s=0\n"
    "registrations=8\n"
    "connsAccepted=12\n"
    "connsDestroyed=0\n"
    "outboundConnects=4\n"
    "overloadRejected=0\n"
    "overloadThrottled=0\n"
    "overloadPanicDrops=0\n"
    "overloadShedEnters=0\n"
    "overloadShedExits=0\n"
    "tcpReadPauses=0\n"
    "tcpReadResumes=0\n"
    "tcpAcceptPauses=0\n"
    "phoneRejected503=0\n"
    "phoneBackoffs=0\n"
    "proxyRecvQueueDrops=0\n"
    "proxyAcceptRefused=0\n"
    "udpSent=0\n"
    "udpDelivered=0\n"
    "udpLost=0\n"
    "udpDropped=0\n"
    "tcpConnects=12\n"
    "tcpRefused=0\n"
    "tcpSegments=256\n"
    "tcpBytes=82476\n"
    "sctpMessages=0\n"
    "sctpDropped=0\n"
    "sctpAssocs=0\n"
    "faultDropped=0\n"
    "faultDuplicated=0\n"
    "faultDelayed=0\n"
    "tcpFaultRefused=0\n"
    "tcpRstInjected=0\n"
    "tcpBlackholed=0\n"
    "tcpRecoveries=0\n"
    "txnEntriesAtEnd=96\n"
    "retransEntriesAtEnd=0\n"
    "connEntriesAtEnd=16\n"
    "chainHops=2\n"
    "hop0.messagesIn=88\n"
    "hop0.forwards=72\n"
    "hop0.localReplies=16\n"
    "hop0.retransAbsorbed=0\n"
    "hop0.timerB408s=0\n"
    "hop0.overloadRejected=0\n"
    "hop0.overloadThrottled=0\n"
    "hop0.overloadPanicDrops=0\n"
    "hop0.hopFeedbackSent=0\n"
    "hop0.hopFeedbackApplied=0\n"
    "hop0.hopThrottleHolds=0\n"
    "hop0.hopThrottleRejects=0\n"
    "hop0.hopThrottleDrops=0\n"
    "hop0.hopGrantExpired=0\n"
    "hop1.messagesIn=76\n"
    "hop1.forwards=72\n"
    "hop1.localReplies=16\n"
    "hop1.retransAbsorbed=0\n"
    "hop1.timerB408s=0\n"
    "hop1.overloadRejected=0\n"
    "hop1.overloadThrottled=0\n"
    "hop1.overloadPanicDrops=0\n"
    "hop1.hopFeedbackSent=0\n"
    "hop1.hopFeedbackApplied=0\n"
    "hop1.hopThrottleHolds=0\n"
    "hop1.hopThrottleRejects=0\n"
    "hop1.hopThrottleDrops=0\n"
    "hop1.hopGrantExpired=0\n";

/** collectMetrics() counters of the 3-hop rate-scheme chain above. */
const char kChain3UdpRateSeed42Metrics[] =
    "faults.connectsRefused 0\n"
    "faults.delayed 0\n"
    "faults.duplicated 0\n"
    "faults.lost 0\n"
    "faults.offered 0\n"
    "faults.partitionDrops 0\n"
    "faults.partitionHeld 0\n"
    "faults.recoveries 0\n"
    "faults.reordered 0\n"
    "faults.rstsInjected 0\n"
    "faults.stalledDrops 0\n"
    "net.batch.recvCalls 0\n"
    "net.batch.recvMaxDepth 0\n"
    "net.batch.recvMessages 0\n"
    "net.batch.sendCalls 0\n"
    "net.batch.sendMaxDepth 0\n"
    "net.batch.sendMessages 0\n"
    "net.faultDelayed 0\n"
    "net.faultDropped 0\n"
    "net.faultDuplicated 0\n"
    "net.sctpAssocs 0\n"
    "net.sctpDropped 0\n"
    "net.sctpMessages 0\n"
    "net.sstChannels 0\n"
    "net.sstDropped 0\n"
    "net.sstFrames 0\n"
    "net.sstLost 0\n"
    "net.sstMessages 0\n"
    "net.sstStreams 0\n"
    "net.tcpBlackholed 0\n"
    "net.tcpBytes 0\n"
    "net.tcpConnects 0\n"
    "net.tcpFaultRefused 0\n"
    "net.tcpRecoveries 0\n"
    "net.tcpRefused 0\n"
    "net.tcpRstInjected 0\n"
    "net.tcpSegments 0\n"
    "net.tlsConnects 0\n"
    "net.tlsHandshakeAborts 0\n"
    "net.tlsHandshakesFull 0\n"
    "net.tlsHandshakesResumed 0\n"
    "net.tlsRecords 0\n"
    "net.tlsSessionEvictions 0\n"
    "net.tlsZeroRttResumes 0\n"
    "net.udpDelivered 340\n"
    "net.udpDropped 0\n"
    "net.udpLost 0\n"
    "net.udpSent 340\n"
    "phone.backoffs 0\n"
    "phone.callsCompleted 12\n"
    "phone.callsFailed 0\n"
    "phone.ops 24\n"
    "phone.reconnectFailures 0\n"
    "phone.reconnects 0\n"
    "phone.rejected503 0\n"
    "phone.retransmissions 0\n"
    "proxy.acceptRefused 0\n"
    "proxy.arch.connsStolen 0\n"
    "proxy.arch.kind 2\n"
    "proxy.arch.loops 4\n"
    "proxy.authAccepted 0\n"
    "proxy.authChallenges 0\n"
    "proxy.chainHops 3\n"
    "proxy.connEntriesAtEnd 0\n"
    "proxy.connsAccepted 0\n"
    "proxy.connsDestroyed 0\n"
    "proxy.connsReturnedByWorkers 0\n"
    "proxy.fdCacheHits 0\n"
    "proxy.fdCacheInvalidations 0\n"
    "proxy.fdRequests 0\n"
    "proxy.forwards 216\n"
    "proxy.hop0.arch.connsStolen 0\n"
    "proxy.hop0.authAccepted 0\n"
    "proxy.hop0.authChallenges 0\n"
    "proxy.hop0.connsAccepted 0\n"
    "proxy.hop0.connsDestroyed 0\n"
    "proxy.hop0.connsReturnedByWorkers 0\n"
    "proxy.hop0.fdCacheHits 0\n"
    "proxy.hop0.fdCacheInvalidations 0\n"
    "proxy.hop0.fdRequests 0\n"
    "proxy.hop0.forwards 72\n"
    "proxy.hop0.hopFeedbackApplied 48\n"
    "proxy.hop0.hopFeedbackSent 52\n"
    "proxy.hop0.hopGrantExpired 0\n"
    "proxy.hop0.hopThrottleDrops 0\n"
    "proxy.hop0.hopThrottleHolds 0\n"
    "proxy.hop0.hopThrottleRejects 0\n"
    "proxy.hop0.idleScanVisited 0\n"
    "proxy.hop0.idleScans 0\n"
    "proxy.hop0.locLocalHits 0\n"
    "proxy.hop0.locMissForwards 0\n"
    "proxy.hop0.locRegisterForwards 0\n"
    "proxy.hop0.locReplInstalls 0\n"
    "proxy.hop0.locReplPushes 0\n"
    "proxy.hop0.locReplicaHits 0\n"
    "proxy.hop0.localReplies 16\n"
    "proxy.hop0.messagesIn 88\n"
    "proxy.hop0.outboundConnects 0\n"
    "proxy.hop0.overloadPanicDrops 0\n"
    "proxy.hop0.overloadRejected 0\n"
    "proxy.hop0.overloadShedEnters 0\n"
    "proxy.hop0.overloadShedExits 0\n"
    "proxy.hop0.overloadThrottled 0\n"
    "proxy.hop0.parseErrors 0\n"
    "proxy.hop0.redirects 0\n"
    "proxy.hop0.registrations 4\n"
    "proxy.hop0.requestsIn 40\n"
    "proxy.hop0.responsesIn 48\n"
    "proxy.hop0.retransAbsorbed 0\n"
    "proxy.hop0.retransSent 0\n"
    "proxy.hop0.retransTimeouts 0\n"
    "proxy.hop0.routeFailures 0\n"
    "proxy.hop0.sendsToDeadConns 0\n"
    "proxy.hop0.tcpAcceptPauses 0\n"
    "proxy.hop0.tcpReadPauses 0\n"
    "proxy.hop0.tcpReadResumes 0\n"
    "proxy.hop0.timerB408s 0\n"
    "proxy.hop1.arch.connsStolen 0\n"
    "proxy.hop1.authAccepted 0\n"
    "proxy.hop1.authChallenges 0\n"
    "proxy.hop1.connsAccepted 0\n"
    "proxy.hop1.connsDestroyed 0\n"
    "proxy.hop1.connsReturnedByWorkers 0\n"
    "proxy.hop1.fdCacheHits 0\n"
    "proxy.hop1.fdCacheInvalidations 0\n"
    "proxy.hop1.fdRequests 0\n"
    "proxy.hop1.forwards 72\n"
    "proxy.hop1.hopFeedbackApplied 48\n"
    "proxy.hop1.hopFeedbackSent 48\n"
    "proxy.hop1.hopGrantExpired 0\n"
    "proxy.hop1.hopThrottleDrops 0\n"
    "proxy.hop1.hopThrottleHolds 0\n"
    "proxy.hop1.hopThrottleRejects 0\n"
    "proxy.hop1.idleScanVisited 0\n"
    "proxy.hop1.idleScans 0\n"
    "proxy.hop1.locLocalHits 0\n"
    "proxy.hop1.locMissForwards 0\n"
    "proxy.hop1.locRegisterForwards 0\n"
    "proxy.hop1.locReplInstalls 0\n"
    "proxy.hop1.locReplPushes 0\n"
    "proxy.hop1.locReplicaHits 0\n"
    "proxy.hop1.localReplies 12\n"
    "proxy.hop1.messagesIn 84\n"
    "proxy.hop1.outboundConnects 0\n"
    "proxy.hop1.overloadPanicDrops 0\n"
    "proxy.hop1.overloadRejected 0\n"
    "proxy.hop1.overloadShedEnters 0\n"
    "proxy.hop1.overloadShedExits 0\n"
    "proxy.hop1.overloadThrottled 0\n"
    "proxy.hop1.parseErrors 0\n"
    "proxy.hop1.redirects 0\n"
    "proxy.hop1.registrations 0\n"
    "proxy.hop1.requestsIn 36\n"
    "proxy.hop1.responsesIn 48\n"
    "proxy.hop1.retransAbsorbed 0\n"
    "proxy.hop1.retransSent 0\n"
    "proxy.hop1.retransTimeouts 0\n"
    "proxy.hop1.routeFailures 0\n"
    "proxy.hop1.sendsToDeadConns 0\n"
    "proxy.hop1.tcpAcceptPauses 0\n"
    "proxy.hop1.tcpReadPauses 0\n"
    "proxy.hop1.tcpReadResumes 0\n"
    "proxy.hop1.timerB408s 0\n"
    "proxy.hop2.arch.connsStolen 0\n"
    "proxy.hop2.authAccepted 0\n"
    "proxy.hop2.authChallenges 0\n"
    "proxy.hop2.connsAccepted 0\n"
    "proxy.hop2.connsDestroyed 0\n"
    "proxy.hop2.connsReturnedByWorkers 0\n"
    "proxy.hop2.fdCacheHits 0\n"
    "proxy.hop2.fdCacheInvalidations 0\n"
    "proxy.hop2.fdRequests 0\n"
    "proxy.hop2.forwards 72\n"
    "proxy.hop2.hopFeedbackApplied 0\n"
    "proxy.hop2.hopFeedbackSent 52\n"
    "proxy.hop2.hopGrantExpired 0\n"
    "proxy.hop2.hopThrottleDrops 0\n"
    "proxy.hop2.hopThrottleHolds 0\n"
    "proxy.hop2.hopThrottleRejects 0\n"
    "proxy.hop2.idleScanVisited 0\n"
    "proxy.hop2.idleScans 0\n"
    "proxy.hop2.locLocalHits 0\n"
    "proxy.hop2.locMissForwards 0\n"
    "proxy.hop2.locRegisterForwards 0\n"
    "proxy.hop2.locReplInstalls 0\n"
    "proxy.hop2.locReplPushes 0\n"
    "proxy.hop2.locReplicaHits 0\n"
    "proxy.hop2.localReplies 16\n"
    "proxy.hop2.messagesIn 76\n"
    "proxy.hop2.outboundConnects 0\n"
    "proxy.hop2.overloadPanicDrops 0\n"
    "proxy.hop2.overloadRejected 0\n"
    "proxy.hop2.overloadShedEnters 0\n"
    "proxy.hop2.overloadShedExits 0\n"
    "proxy.hop2.overloadThrottled 0\n"
    "proxy.hop2.parseErrors 0\n"
    "proxy.hop2.redirects 0\n"
    "proxy.hop2.registrations 4\n"
    "proxy.hop2.requestsIn 40\n"
    "proxy.hop2.responsesIn 36\n"
    "proxy.hop2.retransAbsorbed 0\n"
    "proxy.hop2.retransSent 0\n"
    "proxy.hop2.retransTimeouts 0\n"
    "proxy.hop2.routeFailures 0\n"
    "proxy.hop2.sendsToDeadConns 0\n"
    "proxy.hop2.tcpAcceptPauses 0\n"
    "proxy.hop2.tcpReadPauses 0\n"
    "proxy.hop2.tcpReadResumes 0\n"
    "proxy.hop2.timerB408s 0\n"
    "proxy.hopFeedbackApplied 96\n"
    "proxy.hopFeedbackSent 152\n"
    "proxy.hopGrantExpired 0\n"
    "proxy.hopThrottleDrops 0\n"
    "proxy.hopThrottleHolds 0\n"
    "proxy.hopThrottleRejects 0\n"
    "proxy.idleScanVisited 0\n"
    "proxy.idleScans 0\n"
    "proxy.locLocalHits 0\n"
    "proxy.locMissForwards 0\n"
    "proxy.locRegisterForwards 0\n"
    "proxy.locReplInstalls 0\n"
    "proxy.locReplPushes 0\n"
    "proxy.locReplicaHits 0\n"
    "proxy.localReplies 44\n"
    "proxy.messagesIn 248\n"
    "proxy.outboundConnects 0\n"
    "proxy.overloadPanicDrops 0\n"
    "proxy.overloadRejected 0\n"
    "proxy.overloadShedEnters 0\n"
    "proxy.overloadShedExits 0\n"
    "proxy.overloadThrottled 0\n"
    "proxy.parseErrors 0\n"
    "proxy.recvQueueDrops 0\n"
    "proxy.redirects 0\n"
    "proxy.registrations 8\n"
    "proxy.requestsIn 116\n"
    "proxy.responsesIn 132\n"
    "proxy.retransAbsorbed 0\n"
    "proxy.retransEntriesAtEnd 0\n"
    "proxy.retransSent 0\n"
    "proxy.retransTimeouts 0\n"
    "proxy.routeFailures 0\n"
    "proxy.sendsToDeadConns 0\n"
    "proxy.tcpAcceptPauses 0\n"
    "proxy.tcpReadPauses 0\n"
    "proxy.tcpReadResumes 0\n"
    "proxy.timerB408s 0\n"
    "proxy.txnEntriesAtEnd 144\n"
    "run.durationNs 4533502\n"
    "run.timedOut 0\n";

/** The exact scenario recipe the goldens were captured with. */
Scenario
goldenScenario(core::Transport transport, std::size_t hops)
{
    Scenario sc;
    sc.proxy.transport = transport;
    sc.proxy.workers = 4;
    sc.clients = 4;
    sc.callsPerClient = 3;
    sc.clientMachines = 2;
    sc.serverCores = 2;
    sc.maxDuration = sim::secs(120);
    sc.chain.assign(hops, ChainHop{});
    return sc;
}

/** A small clustered scenario that still exercises every data path. */
Scenario
clusterScenario(core::Transport transport, int instances,
                core::DispatchPolicy policy)
{
    Scenario sc;
    sc.proxy.transport = transport;
    sc.proxy.stateful = true;
    sc.clients = 16;
    sc.callsPerClient = 4;
    sc.clientMachines = 2;
    sc.serverCores = 2;
    sc.seed = 11;
    sc.maxDuration = sim::secs(120);
    sc.cluster.instances = instances;
    sc.cluster.policy = policy;
    return sc;
}

// ---------------------------------------------------------------------
// Tentpole pin: with Scenario::cluster unset, the Topology layer must
// reproduce the pre-refactor runner byte-for-byte -- single proxy and
// chains alike. A diff here means the extraction changed observable
// behaviour and must be explained in the same commit.
// ---------------------------------------------------------------------

TEST(Topology, SingleProxyAndChainDigestsUnchangedByTopology)
{
    {
        Scenario sc = goldenScenario(core::Transport::Udp, 0);
        sc.seed = 7;
        EXPECT_EQ(runScenario(sc).digest(), kSingleUdpSeed7);
    }
    {
        Scenario sc = goldenScenario(core::Transport::Udp, 3);
        sc.seed = 42;
        sc.proxy.overload.hop.scheme = core::FeedbackScheme::Rate;
        EXPECT_EQ(runScenario(sc).digest(), kChain3UdpRateSeed42);
    }
    {
        Scenario sc = goldenScenario(core::Transport::Tcp, 2);
        sc.seed = 5;
        EXPECT_EQ(runScenario(sc).digest(), kChain2TcpSeed5);
    }
}

TEST(Topology, ChainMetricsGolden)
{
    Scenario sc = goldenScenario(core::Transport::Udp, 3);
    sc.seed = 42;
    sc.proxy.overload.hop.scheme = core::FeedbackScheme::Rate;
    RunResult r = runScenario(sc);
    EXPECT_EQ(collectMetrics(r).snapshot().digest(),
              kChain3UdpRateSeed42Metrics);
}

TEST(Topology, DigestHasNoClusterGroupWhenClusterUnset)
{
    Scenario sc = goldenScenario(core::Transport::Udp, 0);
    sc.seed = 7;
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.clusterInstances, 0);
    EXPECT_EQ(r.digest().find("clusterInstances"), std::string::npos);
}

// --- consistent-hash ring ---------------------------------------------

TEST(HashRing, OwnerIsDeterministicAndInRange)
{
    core::HashRing a, b;
    a.build(4, 64);
    b.build(4, 64);
    for (int k = 0; k < 200; ++k) {
        std::string key = "c" + std::to_string(k);
        int owner = a.owner(key);
        EXPECT_GE(owner, 0);
        EXPECT_LT(owner, 4);
        EXPECT_EQ(owner, b.owner(key)); // same build, same answers
    }
}

TEST(HashRing, EveryInstanceOwnsASliceOfTheKeyspace)
{
    for (int n : {2, 4, 8, 16}) {
        core::HashRing ring;
        ring.build(n, 64);
        std::vector<int> hits(n, 0);
        for (int k = 0; k < 2000; ++k)
            ++hits[ring.owner("c" + std::to_string(k))];
        for (int i = 0; i < n; ++i)
            EXPECT_GT(hits[i], 0)
                << "instance " << i << " of " << n
                << " owns no keys (hash not avalanching?)";
    }
}

TEST(HashRing, EmptyRingReportsNoOwner)
{
    core::HashRing ring;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.owner("anything"), -1);
    ring.build(0, 64);
    EXPECT_EQ(ring.owner("anything"), -1);
}

TEST(HashRing, MostKeysKeepTheirOwnerWhenARingGrows)
{
    // Consistent hashing's point: adding an instance remaps only the
    // slice the new instance takes over, not the whole keyspace.
    core::HashRing four, five;
    four.build(4, 64);
    five.build(5, 64);
    int moved = 0;
    const int kKeys = 2000;
    for (int k = 0; k < kKeys; ++k) {
        std::string key = "c" + std::to_string(k);
        if (four.owner(key) != five.owner(key))
            ++moved;
    }
    // Ideal is 1/5 of keys; allow generous slack but far below the
    // ~4/5 a mod-N scheme would remap.
    EXPECT_LT(moved, kKeys / 2);
}

// --- scenario validation ---------------------------------------------

TEST(ClusterValidation, NamedReasonsForUnsupportedCombos)
{
    Scenario ok = clusterScenario(core::Transport::Udp, 2,
                                  core::DispatchPolicy::HashAor);
    EXPECT_EQ(clusterSupportError(ok), nullptr);
    ok.proxy.transport = core::Transport::Tcp;
    EXPECT_EQ(clusterSupportError(ok), nullptr);

    {
        Scenario sc = ok;
        sc.proxy.transport = core::Transport::Tls;
        EXPECT_NE(clusterSupportError(sc), nullptr);
    }
    {
        Scenario sc = ok;
        sc.proxy.transport = core::Transport::Sctp;
        EXPECT_NE(clusterSupportError(sc), nullptr);
    }
    {
        Scenario sc = ok;
        sc.chain.assign(2, ChainHop{});
        EXPECT_NE(clusterSupportError(sc), nullptr);
    }
    {
        Scenario sc = ok;
        sc.cluster.instances = 17;
        EXPECT_NE(clusterSupportError(sc), nullptr);
    }
    {
        Scenario sc = ok;
        sc.cluster.dispatcherCores = 0;
        EXPECT_NE(clusterSupportError(sc), nullptr);
    }
    {
        Scenario sc = ok;
        sc.cluster.vnodes = 0;
        EXPECT_NE(clusterSupportError(sc), nullptr);
    }
}

TEST(ClusterValidation, RunScenarioThrowsTheNamedReason)
{
    Scenario sc = clusterScenario(core::Transport::Tls, 2,
                                  core::DispatchPolicy::HashAor);
    EXPECT_THROW(runScenario(sc), std::invalid_argument);
}

// --- cluster integration ---------------------------------------------

TEST(Cluster, HashAorServesEveryLookupLocally)
{
    Scenario sc = clusterScenario(core::Transport::Udp, 2,
                                  core::DispatchPolicy::HashAor);
    RunResult r = runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.callsFailed, 0u);
    EXPECT_EQ(r.callsCompleted,
              static_cast<std::uint64_t>(sc.clients)
                  * sc.callsPerClient);
    EXPECT_EQ(r.clusterInstances, 2);
    // AOR-affine dispatch lands every INVITE on its shard owner.
    EXPECT_EQ(r.counters.locMissForwards, 0u);
    EXPECT_GT(r.counters.locLocalHits, 0u);
    // REGISTERs are pinned to the AOR owner under every policy.
    EXPECT_EQ(r.dispatcherStats.registersRouted,
              r.counters.registrations);
    EXPECT_GT(r.dispatcherStats.requestsRouted, 0u);
    EXPECT_GT(r.dispatcherStats.responsesRouted, 0u);
    EXPECT_EQ(r.dispatcherStats.dropsNoRoute, 0u);
    EXPECT_EQ(r.dispatcherStats.peekFailures, 0u);
}

TEST(Cluster, RoundRobinForwardsMissesToTheShardOwner)
{
    Scenario hash = clusterScenario(core::Transport::Udp, 4,
                                    core::DispatchPolicy::HashAor);
    Scenario rr = clusterScenario(core::Transport::Udp, 4,
                                  core::DispatchPolicy::RoundRobin);
    RunResult rh = runScenario(hash);
    RunResult rb = runScenario(rr);
    EXPECT_EQ(rb.callsFailed, 0u);
    EXPECT_EQ(rb.callsCompleted, rh.callsCompleted);
    // RR lands most requests on a non-owner, which must charge a real
    // inter-proxy forward; hash-AOR avoids nearly all of them.
    EXPECT_GT(rb.counters.locMissForwards, 0u);
    EXPECT_LT(rh.counters.locMissForwards,
              rb.counters.locMissForwards);
    // Forwarded-then-served lookups still resolve at the owner.
    EXPECT_GT(rb.counters.locLocalHits, 0u);
}

TEST(Cluster, OwnersReplicateToEveryPeer)
{
    Scenario sc = clusterScenario(core::Transport::Udp, 4,
                                  core::DispatchPolicy::HashAor);
    RunResult r = runScenario(sc);
    EXPECT_GT(r.counters.locReplPushes, 0u);
    // Each owner push fans out to the other instances-1 replicas.
    EXPECT_EQ(r.counters.locReplInstalls,
              r.counters.locReplPushes
                  * static_cast<std::uint64_t>(sc.cluster.instances
                                               - 1));
}

TEST(Cluster, StaleReadsServeFromLocalReplicas)
{
    Scenario sc = clusterScenario(core::Transport::Udp, 4,
                                  core::DispatchPolicy::RoundRobin);
    sc.cluster.staleReads = true;
    sc.cluster.replicationLag = sim::msecs(1);
    RunResult r = runScenario(sc);
    EXPECT_EQ(r.callsFailed, 0u);
    // With a 1ms lag the replicas are installed before the calls, so
    // non-owner lookups hit locally instead of miss-forwarding.
    EXPECT_GT(r.counters.locReplicaHits, 0u);
    Scenario fwd = clusterScenario(core::Transport::Udp, 4,
                                   core::DispatchPolicy::RoundRobin);
    RunResult rf = runScenario(fwd);
    EXPECT_LT(r.counters.locMissForwards,
              rf.counters.locMissForwards);
}

TEST(Cluster, TcpClusterCompletesAllCalls)
{
    Scenario sc = clusterScenario(core::Transport::Tcp, 2,
                                  core::DispatchPolicy::HashAor);
    RunResult r = runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.callsFailed, 0u);
    EXPECT_EQ(r.callsCompleted,
              static_cast<std::uint64_t>(sc.clients)
                  * sc.callsPerClient);
    EXPECT_GT(r.dispatcherStats.clientConnsAccepted, 0u);
}

TEST(Cluster, AorPreseedPopulatesShards)
{
    Scenario sc = clusterScenario(core::Transport::Udp, 2,
                                  core::DispatchPolicy::HashAor);
    sc.cluster.aorPopulation = 5000;
    RunResult r = runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.callsFailed, 0u);
    // The per-instance counters and dispatcher balance survive into
    // the result and the digest's cluster group.
    ASSERT_EQ(static_cast<int>(r.instanceCounters.size()),
              r.clusterInstances);
    std::string d = r.digest();
    EXPECT_NE(d.find("clusterInstances=2"), std::string::npos);
    EXPECT_NE(d.find("inst0.messagesIn="), std::string::npos);
    EXPECT_NE(d.find("inst1.messagesIn="), std::string::npos);
}

TEST(Cluster, SameSeedSameDigest)
{
    Scenario sc = clusterScenario(core::Transport::Udp, 2,
                                  core::DispatchPolicy::HashAor);
    RunResult a = runScenario(sc);
    RunResult b = runScenario(sc);
    EXPECT_EQ(a.digest(), b.digest());
}

} // namespace
