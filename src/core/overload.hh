/**
 * @file
 * Overload control for the proxy: admission decisions past saturation
 * so the server sheds load deliberately instead of collapsing under
 * retransmission amplification (Hong et al., Shen & Schulzrinne).
 *
 * One controller instance lives in the proxy's shared memory. It
 * tracks three admission signals — transaction-table occupancy,
 * receive/request queue depth, and a serving-latency EWMA — and drives
 * the configured OverloadPolicy:
 *
 *  - None: every decision admits (the congestion-collapse baseline).
 *  - ThresholdReject: hysteresis on the signals; while shedding, new
 *    work (INVITEs) is answered with a stateless 503 + Retry-After.
 *  - RateThrottle: a token bucket caps admitted INVITEs; its rate is
 *    steered by an AIMD feedback loop on the serving-latency EWMA.
 *
 * Shedding is transport-aware. Datagram transports reject with a cheap
 * 503 (or silently drop above the panic watermark, where even
 * 503-generation cost is unaffordable). TCP additionally pauses
 * accepts and connection reads in bounded slices so kernel flow
 * control pushes back on clients; slices are bounded so the signals
 * can decay and reads resume (no livelock).
 *
 * Every input is simulated state or simulated time, so runs stay
 * deterministic and same-seed digests byte-identical.
 */

#ifndef SIPROX_CORE_OVERLOAD_HH
#define SIPROX_CORE_OVERLOAD_HH

#include <cstddef>
#include <functional>
#include <utility>

#include "core/config.hh"
#include "core/hopctl.hh"
#include "sim/time.hh"

namespace siprox::core {

struct ProxyCounters;
class TxnTable;

/**
 * Per-proxy overload controller (shared by all workers).
 */
class OverloadController
{
  public:
    /** Outcome of an admission decision for one new-work request. */
    enum class Admission
    {
        Admit,
        /** Answer with 503 + Retry-After (stateless, cheap). */
        Reject,
        /** Drop without replying (panic: pre-parse, datagram only). */
        Drop,
    };

    /**
     * Wire the controller to the proxy's shared state. Must be called
     * before any admission query.
     */
    void configure(const OverloadConfig &cfg, const TxnTable *txns,
                   ProxyCounters *counters);

    bool enabled() const { return cfg_.policy != OverloadPolicy::None; }

    /** Latest receive/request queue depth (sampled by the arch). */
    void noteQueueDepth(std::size_t depth) { queueDepth_ = depth; }

    /**
     * Queue-depth signal for a batched dequeue: @p behind messages
     * still queued in the kernel plus @p in_hand messages drained into
     * the worker's batch but not yet processed. Counting the batch as
     * its packet count (not one event) keeps the occupancy signal — and
     * the panic/shed thresholds riding on it — batching-invariant.
     */
    void
    noteDrainedBatch(std::size_t behind, std::size_t in_hand)
    {
        queueDepth_ = behind + in_hand;
    }

    /**
     * Record one served transaction: @p latency spans INVITE parse to
     * final-response forward, so it includes the backlog wait of the
     * response leg on either transport. Feeds the EWMA and, for
     * RateThrottle, the AIMD rate adjustment.
     */
    void recordServed(sim::SimTime now, sim::SimTime latency);

    /**
     * Decide whether even parsing is affordable. Checked before the
     * parse charge; true means drop the datagram silently (counted).
     * Never true for stream transports (they pause reads instead).
     */
    bool panicDrop(sim::SimTime now);

    /**
     * Admission decision for one new-work request (an INVITE). ACKs,
     * BYEs, and REGISTERs of admitted work are never rejected — that
     * is what preserves goodput: finish what you started.
     */
    Admission admitRequest(sim::SimTime now);

    /**
     * TCP: should this worker skip reading connections right now?
     * Pauses on queue/table occupancy (never the latency signal —
     * pausing reads stalls in-flight work, so a latency-triggered
     * pause would sustain itself) in bounded slices (cfg.pauseSlice)
     * with counted pause/resume transitions.
     */
    bool tcpReadsPaused(sim::SimTime now);

    /** TCP: should the supervisor stop draining the accept queue? */
    bool acceptsPaused(sim::SimTime now);

    /**
     * Downstream side of hop-by-hop control: the advertisement to
     * piggyback on an outgoing response right now. AIMD-steers the
     * granted rate/window (or the on/off hysteresis) from the same
     * occupancy and latency-EWMA signals the local policies use, on
     * cfg.hop.adjustInterval ticks. Scheme None returns a None
     * feedback (callers attach nothing).
     */
    HopFeedback advertiseFeedback(sim::SimTime now);

    /** Receive-queue occupancy at/past the panic watermark? Unlike
     *  panicDrop() this neither requires a local policy nor counts:
     *  hop-by-hop pre-parse drops consult it with local policy None. */
    bool queuePanicked() const;

    /** Currently shedding (ThresholdReject hysteresis state)? */
    bool shedding() const { return shedding_; }

    /** Serving-latency EWMA (diagnostics and tests). */
    sim::SimTime latencyEwma() const { return ewma_; }

    /** Current admitted rate (RateThrottle; diagnostics and tests). */
    double currentRate() const { return rate_; }

    /** Largest of the occupancy signals, in [0, 1+] (telemetry). */
    double occupancySignal() const { return occupancy(); }

    /** Hop-feedback advertisement state (telemetry; downstream role). */
    double hopGrantedRate() const { return hopRate_; }
    int hopGrantedWindow() const { return hopWindow_; }
    bool hopOn() const { return hopOn_; }

    /**
     * Install a per-served-transaction latency observer (windowed
     * telemetry). Called from recordServed with the serve latency;
     * empty (default) costs one branch per serve.
     */
    void setServedSink(std::function<void(sim::SimTime)> sink)
    {
        servedSink_ = std::move(sink);
    }

    const OverloadConfig &config() const { return cfg_; }

  private:
    /** Largest of the occupancy signals, in [0, 1+]. */
    double occupancy() const;

    /** Re-evaluate the hysteresis state from the current signals. */
    void updateShedding(sim::SimTime now);

    /** Decay the EWMA across service-free gaps (recovery guarantee). */
    void idleDecay(sim::SimTime now);

    /** Refill the token bucket and run due AIMD adjustments. */
    void refill(sim::SimTime now);

    OverloadConfig cfg_;
    const TxnTable *txns_ = nullptr;
    ProxyCounters *counters_ = nullptr;

    std::size_t queueDepth_ = 0;
    std::function<void(sim::SimTime)> servedSink_;
    sim::SimTime ewma_ = 0;
    sim::SimTime lastServed_ = 0;
    bool shedding_ = false;

    // RateThrottle state.
    double rate_ = 0;
    double tokens_ = 0;
    sim::SimTime lastRefill_ = 0;
    sim::SimTime nextAdjust_ = 0;

    // TCP pause-slice state.
    bool paused_ = false;
    sim::SimTime pauseUntil_ = 0;
    bool acceptPaused_ = false;

    // Hop-feedback advertisement state (downstream role).
    double hopRate_ = 0;
    int hopWindow_ = 0;
    bool hopOn_ = true;
    sim::SimTime hopNextAdjust_ = 0;
};

} // namespace siprox::core

#endif // SIPROX_CORE_OVERLOAD_HH
