#include "net/datagram.hh"

#include <algorithm>
#include <utility>

#include "net/network.hh"
#include "sim/simulation.hh"

namespace siprox::net {

DatagramSocket::DatagramSocket(Host &host, std::uint16_t port,
                               const char *recv_block_reason)
    : host_(host), port_(port), recvBlockReason_(recv_block_reason)
{
}

DatagramSocket::~DatagramSocket() = default;

Addr
DatagramSocket::localAddr() const
{
    return Addr{host_.id(), port_};
}

sim::Task
DatagramSocket::sendTo(sim::Process &p, Addr dst, std::string payload)
{
    co_await chargeSendBatch(p, 1, payload.size());
    co_await sendPrepared(p, dst, std::move(payload));
}

sim::Task
DatagramSocket::sendBatch(sim::Process &p,
                          std::vector<OutDatagram> &msgs)
{
    Network &net = host_.net();
    const std::size_t bmax = static_cast<std::size_t>(
        std::max(net.config().batchMax, 1));
    std::size_t i = 0;
    while (i < msgs.size()) {
        std::size_t n = std::min(bmax, msgs.size() - i);
        std::size_t bytes = 0;
        for (std::size_t k = i; k < i + n; ++k)
            bytes += msgs[k].payload.size();
        noteBatch(net.stats().batchSend, n);
        co_await chargeSendBatch(p, n, bytes);
        for (std::size_t k = i; k < i + n; ++k)
            co_await sendPrepared(p, msgs[k].dst,
                                  std::move(msgs[k].payload));
        i += n;
    }
    msgs.clear();
}

sim::Task
DatagramSocket::recvFrom(sim::Process &p, Datagram &out)
{
    co_await awaitDelivery(p);
    out = std::move(queue_.front());
    queue_.pop_front();
    co_await chargeRecvBatch(p, 1, out.payload.size());
}

sim::Task
DatagramSocket::recvBatch(sim::Process &p, std::vector<Datagram> &out,
                          int max)
{
    co_await awaitDelivery(p);
    std::size_t bytes = 0;
    tryRecvBatch(out, max, bytes);
    co_await chargeRecvBatch(p, out.size(), bytes);
}

std::size_t
DatagramSocket::tryRecvBatch(std::vector<Datagram> &out, int max,
                             std::size_t &bytes)
{
    out.clear();
    bytes = 0;
    const std::size_t cap =
        static_cast<std::size_t>(std::max(max, 1));
    while (out.size() < cap && !queue_.empty()) {
        bytes += queue_.front().payload.size();
        out.push_back(std::move(queue_.front()));
        queue_.pop_front();
    }
    if (!out.empty())
        noteBatch(host_.net().stats().batchRecv, out.size());
    return out.size();
}

sim::Task
DatagramSocket::awaitDelivery(sim::Process &p)
{
    while (queue_.empty()) {
        waiters_.push_back(&p);
        co_await p.block(recvBlockReason_, sim::trace::Wait::Socket);
        auto it = std::find(waiters_.begin(), waiters_.end(), &p);
        if (it != waiters_.end())
            waiters_.erase(it);
        consumeWakeCapacity();
    }
}

void
DatagramSocket::noteBatch(BatchIoStats &stats, std::size_t msgs) const
{
    // At batchMax=1 every call is a plain one-message syscall: batch
    // stats record only real batching, so they stay at zero there.
    if (host_.net().config().batchMax > 1)
        stats.note(msgs);
}

sim::Task
DatagramSocket::chargeBatched(sim::Process &p, sim::SimTime per_msg_cost,
                              const char *cost_center, std::size_t msgs,
                              std::size_t bytes)
{
    const NetConfig &cfg = host_.net().config();
    sim::SimTime fixed = static_cast<sim::SimTime>(
        static_cast<double>(per_msg_cost) * cfg.batchFixedShare);
    if (fixed < 0)
        fixed = 0;
    if (fixed > per_msg_cost)
        fixed = per_msg_cost;
    // fixed + marginal == per_msg_cost by construction, so a batch of
    // one charges exactly the one-message recvfrom/sendto cost.
    sim::SimTime marginal = per_msg_cost - fixed;
    co_await p.cpu(fixed
                       + static_cast<sim::SimTime>(msgs) * marginal
                       + static_cast<sim::SimTime>(bytes)
                           * cfg.perByteCpu,
                   cost_center);
}

bool
DatagramSocket::enqueueDelivery(Datagram dgram)
{
    const NetConfig &cfg = host_.net().config();
    if (static_cast<int>(queue_.size()) >= cfg.udpRecvQueue) {
        ++overflowDrops_;
        return false;
    }
    queue_.push_back(std::move(dgram));
    if (queue_.size() > queuePeak_)
        queuePeak_ = queue_.size();
    // Wake suppression under batching: every wake already in flight
    // will drain up to batchMax messages, so waking one receiver per
    // delivery just bounces the extra receivers off an already-empty
    // queue (a wasted block/wake round trip each) and keeps real batch
    // depth shallow. Only wake another receiver once the queue exceeds
    // what the in-flight wakes can drain. batchMax <= 1 wakes one
    // receiver per delivery, as recvfrom does (digest-pinned: which
    // worker runs depends on it).
    if (!waiters_.empty()
        && (cfg.batchMax <= 1 || wokenCapacity_ < queue_.size())) {
        sim::Process *w = waiters_.front();
        waiters_.pop_front();
        w->wake();
        wokenCapacity_ += wakeShare();
    }
    notifyPollWaiters();
    return true;
}

std::size_t
DatagramSocket::wakeShare() const
{
    return static_cast<std::size_t>(
        std::max(host_.net().config().batchMax, 1));
}

void
DatagramSocket::consumeWakeCapacity()
{
    std::size_t share = wakeShare();
    wokenCapacity_ -= wokenCapacity_ < share ? wokenCapacity_ : share;
}

} // namespace siprox::net
