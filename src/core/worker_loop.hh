/**
 * @file
 * Receive-loop scaffolding shared by every server architecture.
 *
 * All three architectures (supervisor/worker TCP, symmetric datagram
 * workers, event-driven loops) wrap the same sequence around each
 * received message: trace logging, feeding the overload controller's
 * queue-depth signal, opening a causal span, running the Engine, and
 * transmitting the SendActions it emits. Stream connections transmit
 * through an architecture-specific step, so dispatch() takes it as a
 * callable; every datagram architecture drains its socket in batches
 * and hands each batch to serveBatch().
 *
 * The timer-process bodies (terminated-transaction reclamation and the
 * datagram retransmission walk) are equally architecture-independent
 * and live here too.
 *
 * One WorkerLoop per *process*: dispatch() and serveBatch() reuse
 * member vectors (the parse+forward hot path is allocation-budgeted),
 * so an instance must never be shared between processes that can
 * interleave at co_await points.
 */

#ifndef SIPROX_CORE_WORKER_LOOP_HH
#define SIPROX_CORE_WORKER_LOOP_HH

#include <string>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "core/engine.hh"
#include "core/shared.hh"
#include "net/datagram.hh"
#include "sim/process.hh"
#include "sim/task.hh"
#include "sim/trace.hh"

namespace siprox::core {

class WorkerLoop
{
  public:
    WorkerLoop(SharedState &shared, const ProxyConfig &cfg,
               Engine &engine)
        : shared_(shared), cfg_(cfg), engine_(engine)
    {
    }

    WorkerLoop(const WorkerLoop &) = delete;
    WorkerLoop &operator=(const WorkerLoop &) = delete;

    /** Trace one received stream chunk, labeled by connection. */
    static void
    traceRxConn(sim::Process &p, std::uint64_t conn_id,
                std::size_t bytes)
    {
        if (sim::trace::enabled()) {
            sim::trace::log(p.sim().now(), "proxy-rx",
                            "conn " + std::to_string(conn_id) + " "
                                + std::to_string(bytes) + "B");
        }
    }

    /**
     * Process one raw stream message: open a causal span covering the
     * engine work and every transmission it triggers, run the Engine,
     * then hand each SendAction to @p send (a callable returning a
     * sim::Task, e.g. a lambda that merely calls a named coroutine —
     * see the lifetime rule in sim/task.hh).
     */
    template <typename SendFn>
    sim::Task
    dispatch(sim::Process &p, std::string raw, MsgSource src,
             SendFn send)
    {
        sim::SpanScope span(p);
        actions_.clear();
        co_await engine_.handleMessage(p, std::move(raw), src,
                                       actions_);
        for (auto &action : actions_)
            co_await send(p, std::move(action));
    }

    /**
     * Serve one batch of datagrams drained from @p sock (a recvmmsg;
     * batchMax=1 makes every batch a single recvfrom). Each message is
     * traced, feeds the drained-batch occupancy signal, and runs the
     * Engine in its own causal span; the replies collect in one outbox
     * that a single sendBatch() flushes inside the span of the batch's
     * last message, so a batch of one sends exactly where a
     * one-message loop would. Consumes @p batch's payloads.
     */
    sim::Task serveBatch(sim::Process &p, net::DatagramSocket &sock,
                         std::vector<net::Datagram> &batch);

    /**
     * Reclaim terminated transaction records (every architecture's
     * timer process runs this each tick). Static: the TCP timer has no
     * engine of its own and this touches only the shared tables.
     *
     * @param now The cleanup horizon; pass sim::kTimeNever to sample
     *        the clock *after* the table lock is acquired (the TCP
     *        timer's historical behaviour — lock waits advance time).
     */
    static sim::Task reclaimTxns(sim::Process &p, SharedState &shared,
                                 const ProxyConfig &cfg,
                                 sim::SimTime now = sim::kTimeNever);

    /**
     * One datagram timer tick past the transaction reclaim: walk the
     * global retransmission list (§3.2), resend due messages on
     * @p sock, and answer Timer B/F expiries with 408 via the engine.
     *
     * @param now The tick's time horizon, sampled once when the tick
     *        began (CPU charges during the tick advance the clock; the
     *        due-set must not shift mid-walk).
     */
    sim::Task datagramTimerTick(sim::Process &p,
                                net::DatagramSocket &sock,
                                sim::SimTime now);

  private:
    SharedState &shared_;
    const ProxyConfig &cfg_;
    Engine &engine_;
    /** Reused across messages: the hot path is allocation-budgeted. */
    std::vector<SendAction> actions_;
    /** serveBatch()'s replies, reused across batches likewise. */
    std::vector<net::OutDatagram> outbox_;
};

} // namespace siprox::core

#endif // SIPROX_CORE_WORKER_LOOP_HH
