#include "sim/scheduler.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "sim/machine.hh"
#include "sim/process.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"

namespace siprox::sim {

CpuScheduler::CpuScheduler(Machine &machine, int cores, SchedConfig cfg)
    : machine_(machine), cfg_(cfg), cores_(cores),
      coreBusy_(cores, 0),
      schedCenter_(CostCenters::id("kernel:schedule")),
      spinCenter_(CostCenters::id("user:spinlock"))
{
    assert(cores > 0);
}

void
CpuScheduler::submit(Process *p, SimTime cost, CostCenterId center)
{
    p->remaining_ = cost;
    p->center_ = center;
    // Continuation: the process just finished a burst on some core and
    // has not blocked since. It stays on that core — no requeue, no
    // context switch — unless its quantum ran out and others wait.
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        Core &c = cores_[i];
        if (c.hot != p)
            continue;
        SimTime now = machine_.sim().now();
        bool quantum_ok = runnable_ == 0
            || now - c.continuousStart < cfg_.quantum;
        c.hot = nullptr;
        if (quantum_ok) {
            SimTime keep_start = c.continuousStart;
            dispatch(i, p);
            c.continuousStart = keep_start;
            return;
        }
        break; // involuntary switch: queue at the tail
    }
    enqueue(p, false);
}

void
CpuScheduler::submitYield(Process *p, std::coroutine_handle<> h)
{
    p->resumePoint_ = h;
    p->remaining_ = 0;
    p->center_ = schedCenter_;
    // Linux 2.6 sched_yield demotes the caller to the expired array;
    // approximated here by forfeiting the interactivity bonus, so
    // spinning never starves a lower-bonus lock holder for long.
    p->sleepAvg_ = 0;
    enqueue(p, false);
}

bool
CpuScheduler::wouldYield(const Process *p) const
{
    // Linux 2.6 sched_yield moves the caller behind *everything*
    // runnable (the expired array), regardless of priority.
    (void)p;
    return runnable_ > 0;
}

void
CpuScheduler::enqueue(Process *p, bool front)
{
    p->state_ = Process::State::Ready;
    p->queued_ = true;
    p->queuedAt_ = machine_.sim().now();
    int idx = niceIndex(p->dynNice());
    auto &q = runq_[idx];
    if (front)
        q.push_front(p);
    else
        q.push_back(p);
    runqMask_ |= std::uint64_t{1} << idx;
    ++runnable_;
    tryDispatch();
    if (p->queued_)
        maybePreemptFor(p);
}

Process *
CpuScheduler::popBest()
{
    if (runqMask_ == 0)
        return nullptr;
    int idx = std::countr_zero(runqMask_);
    auto &q = runq_[idx];
    Process *p = q.front();
    q.pop_front();
    if (q.empty())
        runqMask_ &= ~(std::uint64_t{1} << idx);
    p->queued_ = false;
    --runnable_;
    return p;
}

void
CpuScheduler::tryDispatch()
{
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        if (cores_[i].running)
            continue;
        Process *p = popBest();
        if (!p)
            return;
        dispatch(i, p);
    }
}

void
CpuScheduler::maybePreemptFor(Process *p)
{
    if (!cfg_.preemption || !p->queued_)
        return;
    // Find the running process with the worst (numerically largest)
    // nice value; preempt it if p is strictly better.
    std::size_t victim_idx = cores_.size();
    int worst = p->dynNice();
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        Process *r = cores_[i].running;
        if (r && r->dynNice() > worst) {
            worst = r->dynNice();
            victim_idx = i;
        }
    }
    if (victim_idx == cores_.size())
        return;

    Core &c = cores_[victim_idx];
    Process *victim = c.running;
    SimTime now = machine_.sim().now();
    c.completion.cancel();
    SimTime ran = now - c.sliceStart;
    accountRun(c, ran);
    SimTime user_part = std::max<SimTime>(0, ran - c.ctxShare);
    victim->remaining_ = std::max<SimTime>(0, victim->remaining_
                                           - user_part);
    c.lastRun = victim;
    c.running = nullptr;

    // Remove p from its queue and give it the core *before* requeueing
    // the victim, so the recursive dispatch inside enqueue() cannot
    // hand the freed core (or p itself) to someone else first.
    int pidx = niceIndex(p->dynNice());
    auto &pq = runq_[pidx];
    pq.erase(std::find(pq.begin(), pq.end(), p));
    if (pq.empty())
        runqMask_ &= ~(std::uint64_t{1} << pidx);
    p->queued_ = false;
    --runnable_;
    dispatch(victim_idx, p);
    // Head of its own priority level so it resumes promptly; it was
    // the worst-priority running process, so it cannot preempt anyone.
    enqueue(victim, true);
}

void
CpuScheduler::dispatch(std::size_t core_idx, Process *p)
{
    Core &c = cores_[core_idx];
    assert(!c.running);
    c.running = p;
    c.hot = nullptr;
    p->state_ = Process::State::Running;
    SimTime now = machine_.sim().now();
    // Linux 2.6 credits time spent waiting on the runqueue toward
    // sleep_avg, so a starved CPU-bound process slowly climbs back —
    // the oscillation behind the paper's §4.3 supervisor anomaly.
    if (p->queuedAt_ > 0) {
        SimTime waited = now - p->queuedAt_;
        if (p->span_)
            p->span_->add(trace::Wait::RunQueue, waited);
        if (trace::recording() && waited > 0) {
            trace::recorder()->runqueueSlice(*p, p->queuedAt_,
                                             waited);
        }
        p->sleepAvg_ += waited;
        if (p->sleepAvg_ > secs(1))
            p->sleepAvg_ = secs(1);
        p->queuedAt_ = 0;
    }
    c.sliceStart = now;
    c.continuousStart = now;
    c.ctxShare = (c.lastRun != p) ? cfg_.ctxSwitchCost : 0;
    SimTime slice = c.ctxShare + std::min(p->remaining_, cfg_.quantum);
    c.completion = machine_.sim().at(
        now + slice, [this, core_idx] { onSliceEnd(core_idx); });
}

void
CpuScheduler::accountRun(Core &c, SimTime ran)
{
    Process *p = c.running;
    SimTime ctx_part = std::min(ran, c.ctxShare);
    SimTime user_part = ran - ctx_part;
    auto &prof = machine_.profiler();
    if (ctx_part > 0)
        prof.charge(schedCenter_, ctx_part);
    if (user_part > 0)
        prof.charge(p->center_, user_part);
    if (trace::SpanCtx *s = p->span_) {
        // Spin bursts are lock waits, not useful work; everything
        // else on-core (including the context-switch share) is CPU.
        bool spin = p->center_ == spinCenter_;
        s->add(spin ? trace::Wait::LockSpin : trace::Wait::Cpu,
               user_part);
        s->add(trace::Wait::Cpu, ctx_part);
    }
    if (trace::recording() && ran > 0) {
        auto core_idx = static_cast<int>(&c - cores_.data());
        trace::recorder()->runSlice(machine_, core_idx, *p,
                                    machine_.sim().now() - ran, ran,
                                    ctx_part);
    }
    p->cpuTime_ += ran;
    // Running drains the interactivity credit (Linux sleep_avg).
    p->sleepAvg_ = ran >= p->sleepAvg_ ? 0 : p->sleepAvg_ - ran;
    busyTime_ += ran;
    coreBusy_[static_cast<std::size_t>(&c - cores_.data())] += ran;
}

void
CpuScheduler::onSliceEnd(std::size_t core_idx)
{
    Core &c = cores_[core_idx];
    Process *p = c.running;
    assert(p);
    SimTime now = machine_.sim().now();
    SimTime ran = now - c.sliceStart;
    accountRun(c, ran);
    SimTime user_part = ran - std::min(ran, c.ctxShare);
    p->remaining_ -= user_part;
    c.lastRun = p;
    c.running = nullptr;

    if (p->remaining_ > 0) {
        // Quantum expired with work left: round-robin to the tail.
        enqueue(p, false);
        tryDispatch();
        return;
    }

    p->state_ = Process::State::Executing;
    auto h = p->resumePoint_;
    p->resumePoint_ = nullptr;
    // Open the continuation window: if p submits more CPU while we
    // resume it (synchronously), it keeps this core.
    c.hot = p;
    h.resume();
    if (cores_[core_idx].hot == p) {
        // p blocked, yielded, or terminated: the core is really free.
        cores_[core_idx].hot = nullptr;
        tryDispatch();
    }
}

} // namespace siprox::sim
