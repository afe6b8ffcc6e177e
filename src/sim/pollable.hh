/**
 * @file
 * Readiness interface and an epoll/select-style wait. Sockets and
 * channels implement Pollable; event loops wait on several at once.
 */

#ifndef SIPROX_SIM_POLLABLE_HH
#define SIPROX_SIM_POLLABLE_HH

#include <vector>

#include "sim/process.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace siprox::sim {

/**
 * Something an event loop can wait on. Implementations call
 * notifyPollWaiters() whenever pollReady() may have become true.
 */
class Pollable
{
  public:
    virtual ~Pollable() = default;

    /** True if a wait on this object would not block. */
    virtual bool pollReady() const = 0;

    void
    addPollWaiter(Process *p)
    {
        pollWaiters_.push_back(p);
    }

    void
    removePollWaiter(Process *p)
    {
        for (auto it = pollWaiters_.begin(); it != pollWaiters_.end();
             ++it) {
            if (*it == p) {
                pollWaiters_.erase(it);
                return;
            }
        }
    }

  protected:
    /** Wake every process polling on this object. */
    void
    notifyPollWaiters()
    {
        // Waiters deregister themselves only once they resume, and
        // Process::wake() just schedules that resume, so the live list
        // cannot change under this loop.
        for (Process *p : pollWaiters_)
            p->wake();
    }

  private:
    std::vector<Process *> pollWaiters_;
};

/**
 * Wait until one of @p items is ready or @p timeout elapses.
 *
 * @param self The polling process.
 * @param items Objects to wait on (the vector and the pointers must
 *        stay valid until the poll returns; passing by reference keeps
 *        this hot call allocation-free).
 * @param timeout Relative timeout; kTimeNever blocks indefinitely; 0
 *        makes the poll non-blocking.
 * @param ready_index Receives the index of the first ready item, or -1
 *        on timeout.
 */
Task poll(Process &self, const std::vector<Pollable *> &items,
          SimTime timeout, int &ready_index);

/**
 * Wait until at least one of @p items is ready or @p timeout elapses,
 * collecting the indices of *every* ready item (epoll_wait semantics:
 * one wakeup reports the whole ready set, so an event loop services a
 * batch per scheduling round instead of one item per wakeup).
 *
 * @param ready Cleared, then filled with ready indices in item order;
 *        left empty on timeout. The caller must revalidate each entry
 *        as it services the batch — handling one item can retire
 *        another (e.g. closing a connection that was also ready).
 */
Task pollAll(Process &self, const std::vector<Pollable *> &items,
             SimTime timeout, std::vector<int> &ready);

} // namespace siprox::sim

#endif // SIPROX_SIM_POLLABLE_HH
