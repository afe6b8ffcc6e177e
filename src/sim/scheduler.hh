/**
 * @file
 * Multi-core CPU scheduler for one simulated machine.
 *
 * Models the properties of the Linux 2.6 scheduler that the paper's
 * results depend on: static priorities (nice -20..19) with strict
 * priority preemption, FIFO round-robin within a priority level with a
 * timeslice, an explicit context-switch cost charged to the
 * "kernel:schedule" cost center, and sched_yield requeue-at-tail. A
 * nice -20 supervisor therefore preempts immediately on wakeup, while a
 * nice 0 supervisor waits behind runnable workers — the §4.3 effect.
 */

#ifndef SIPROX_SIM_SCHEDULER_HH
#define SIPROX_SIM_SCHEDULER_HH

#include <array>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/profiler.hh"
#include "sim/time.hh"

namespace siprox::sim {

class Machine;
class Process;
class Simulation;

/** Tunable scheduler behaviour, per machine. */
struct SchedConfig
{
    /** Direct cost of a context switch (charged to kernel:schedule). */
    SimTime ctxSwitchCost = usecs(1.5);
    /** Round-robin timeslice within a priority level. */
    SimTime quantum = msecs(10);
    /** Whether higher-priority wakeups preempt running processes. */
    bool preemption = true;
};

/**
 * Priority-preemptive round-robin scheduler over N cores.
 */
class CpuScheduler
{
  public:
    CpuScheduler(Machine &machine, int cores, SchedConfig cfg);

    /** Submit a CPU burst request for @p p (called by Process::cpu). */
    void submit(Process *p, SimTime cost, CostCenterId center);

    /**
     * sched_yield support: true if another process is queued at this
     * process's priority or better, i.e. yielding would deschedule.
     */
    bool wouldYield(const Process *p) const;

    /** Submit a zero-cost requeue-at-tail (the yield itself). */
    void submitYield(Process *p, std::coroutine_handle<> h);

    int cores() const { return static_cast<int>(cores_.size()); }

    /** Number of processes waiting in the run queue (not on cores). */
    int queued() const { return runnable_; }

    /** Total core-busy simulated time, for utilization accounting. */
    SimTime busyTime() const { return busyTime_; }

    /** Busy time accumulated by one core (telemetry per-core series). */
    SimTime
    coreBusyTime(int core) const
    {
        return coreBusy_[static_cast<std::size_t>(core)];
    }

    const SchedConfig &config() const { return cfg_; }

  private:
    struct Core
    {
        Process *running = nullptr;
        Process *lastRun = nullptr;
        /** Continuation window: the process that just finished a burst
         *  and is executing zero-cost code; it keeps this core if it
         *  immediately submits more CPU (no context switch, as a real
         *  process runs on between non-blocking calls). */
        Process *hot = nullptr;
        SimTime sliceStart = 0;
        SimTime ctxShare = 0;
        /** Start of this process's continuous occupancy (quantum). */
        SimTime continuousStart = 0;
        EventHandle completion;
    };

    void enqueue(Process *p, bool front);
    void tryDispatch();
    void maybePreemptFor(Process *p);
    void dispatch(std::size_t core_idx, Process *p);
    void onSliceEnd(std::size_t core_idx);
    /** Charge the time core @p c ran its process since sliceStart. */
    void accountRun(Core &c, SimTime ran);
    Process *popBest();
    int niceIndex(int nice) const { return nice + 20; }

    Machine &machine_;
    SchedConfig cfg_;
    std::vector<Core> cores_;
    std::array<std::deque<Process *>, 40> runq_;
    /** Bit i set iff runq_[i] is non-empty; popBest() is a find-first-
     *  set instead of scanning 40 deques on every dispatch. */
    std::uint64_t runqMask_ = 0;
    int runnable_ = 0;
    SimTime busyTime_ = 0;
    /** Per-core slice of busyTime_, indexed like cores_. */
    std::vector<SimTime> coreBusy_;
    CostCenterId schedCenter_;
    /** "user:spinlock" — bursts charged here are lock spin, not work;
     *  span attribution files them under Wait::LockSpin. */
    CostCenterId spinCenter_;
};

} // namespace siprox::sim

#endif // SIPROX_SIM_SCHEDULER_HH
