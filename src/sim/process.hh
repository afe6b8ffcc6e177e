/**
 * @file
 * Simulated OS process. A Process wraps a root Task coroutine and
 * provides the awaitable "syscalls" through which the body consumes
 * simulated CPU time, sleeps, yields, and blocks on primitives.
 */

#ifndef SIPROX_SIM_PROCESS_HH
#define SIPROX_SIM_PROCESS_HH

#include <coroutine>
#include <exception>
#include <string>

#include "sim/profiler.hh"
#include "sim/task.hh"
#include "sim/time.hh"
#include "sim/trace.hh"

namespace siprox::sim {

class Machine;
class Simulation;
class CpuScheduler;

/**
 * One simulated process. Created via Machine::spawn(); the body is a
 * Task coroutine that interacts with simulated time exclusively through
 * the awaitables below.
 */
class Process
{
  public:
    enum class State
    {
        /** Waiting in the CPU run queue. */
        Ready,
        /** Occupying a core. */
        Running,
        /** Executing non-CPU (zero simulated cost) code. */
        Executing,
        /** Blocked on a primitive (channel, lock, sleep, poll). */
        Blocked,
        /** Woken; resume event pending. */
        Waking,
        /** Root task finished. */
        Terminated,
    };

    /** Awaitable that consumes CPU through the machine's scheduler. */
    struct CpuAwait
    {
        Process &proc;
        SimTime cost;
        CostCenterId center;

        bool await_ready() const noexcept { return cost <= 0; }
        void await_suspend(std::coroutine_handle<> h);
        void await_resume() const noexcept {}
    };

    /** Awaitable implementing sched_yield semantics. */
    struct YieldAwait
    {
        Process &proc;

        bool await_ready() const noexcept;
        void await_suspend(std::coroutine_handle<> h);
        void await_resume() const noexcept {}
    };

    /** Awaitable that parks the process until wake() is called. */
    struct BlockAwait
    {
        Process &proc;
        const char *reason;
        trace::Wait cls;

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h);
        void await_resume() const noexcept {}
    };

    Process(Machine &machine, std::string name, int nice);

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    /**
     * Consume @p cost of simulated CPU, charged to @p center. The
     * process competes for the machine's cores; resumption time
     * includes queueing, context switches, and preemption.
     */
    CpuAwait
    cpu(SimTime cost, CostCenterId center)
    {
        return CpuAwait{*this, cost, center};
    }

    /** Convenience overload interning the center name per call site. */
    CpuAwait
    cpu(SimTime cost, std::string_view center)
    {
        return CpuAwait{*this, cost, CostCenters::id(center)};
    }

    /**
     * sched_yield: requeue at the tail of this priority level if anyone
     * else is runnable; otherwise continue immediately.
     */
    YieldAwait yieldCpu() { return YieldAwait{*this}; }

    /** Sleep for @p d of simulated time (no CPU consumed). */
    Task sleepFor(SimTime d);

    /**
     * Park until wake(). Callers must re-check their condition on
     * resume (Mesa semantics): wakeups may be spurious. @p cls
     * classifies the wait for span attribution (IPC vs socket vs
     * lock...), so per-call breakdowns name the right category.
     */
    BlockAwait
    block(const char *reason, trace::Wait cls = trace::Wait::Sleep)
    {
        return BlockAwait{*this, reason, cls};
    }

    /**
     * Wake a Blocked process. Safe to call redundantly; only the first
     * wake between blocks has an effect.
     */
    void wake();

    Machine &machine() const { return machine_; }
    Simulation &sim() const;

    const std::string &name() const { return name_; }
    int pid() const { return pid_; }
    State state() const { return state_; }
    bool terminated() const { return state_ == State::Terminated; }

    /** Why the process is currently blocked (diagnostics). */
    const char *blockReason() const { return blockReason_; }

    /** Scheduling priority; lower is more favored (nice -20..19). */
    int nice() const { return nice_; }

    /**
     * Effective (dynamic) priority, Linux 2.6 O(1)-style: processes
     * that sleep a lot earn an interactivity bonus of up to 5 levels.
     * A CPU-bound nice-0 supervisor therefore queues behind its own
     * sleepy workers — the starvation the paper's §4.3 priority
     * elevation works around.
     */
    int
    dynNice() const
    {
        int bonus = static_cast<int>(sleepAvg_ / sim::msecs(200));
        if (bonus > 5)
            bonus = 5;
        int dyn = nice_ - bonus;
        return dyn < -20 ? -20 : dyn;
    }

    /** Recent-sleep accumulator behind the interactivity bonus. */
    SimTime sleepAvg() const { return sleepAvg_; }

    /** Total simulated CPU consumed, including context-switch shares. */
    SimTime cpuTime() const { return cpuTime_; }

    /** Exception that escaped the root task, if any. */
    std::exception_ptr failure() const { return failure_; }

    /**
     * The causal span currently attributed to this process, if any.
     * While set, the scheduler and blocking primitives add every
     * elapsed nanosecond to one of its wait buckets. Only installed
     * while a recorder observes, so the null check is the entire
     * hot-path cost.
     */
    trace::SpanCtx *span() const { return span_; }
    void setSpan(trace::SpanCtx *span) { span_ = span; }

  private:
    friend class Machine;
    friend class CpuScheduler;

    /** Bind and start the root task (Machine::spawn). */
    void adoptRoot(Task root);

    Machine &machine_;
    std::string name_;
    int nice_;
    int pid_ = -1;
    State state_ = State::Executing;
    const char *blockReason_ = "";

    Task root_;
    std::coroutine_handle<> resumePoint_;

    // Scheduler bookkeeping.
    SimTime remaining_ = 0;
    CostCenterId center_ = 0;
    bool queued_ = false;

    SimTime cpuTime_ = 0;
    SimTime sleepAvg_ = 0;
    SimTime blockStart_ = 0;
    SimTime queuedAt_ = 0;
    trace::Wait blockClass_ = trace::Wait::Sleep;
    trace::SpanCtx *span_ = nullptr;
    std::exception_ptr failure_;
};

/**
 * RAII causal-span scope. When a recorder is installed, installs a
 * fresh SpanCtx on @p p for the enclosing scope and reports it to the
 * recorder on scope exit; otherwise does nothing (and allocates
 * nothing). Safe across co_await: coroutine locals are destroyed when
 * the body scope exits. If the recorder was removed mid-span (e.g.
 * teardown), the span is dropped instead of reported.
 */
class SpanScope
{
  public:
    explicit SpanScope(Process &p);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** The span being recorded, or nullptr when not recording. */
    trace::SpanCtx *ctx() { return active_ ? &span_ : nullptr; }

  private:
    Process &p_;
    trace::SpanCtx span_;
    bool active_ = false;
};

} // namespace siprox::sim

#endif // SIPROX_SIM_PROCESS_HH
