#include "core/tcp_arch.hh"

#include <algorithm>
#include <cassert>

#include "net/error.hh"
#include "sim/pollable.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"

namespace siprox::core {

TcpArch::TcpArch(sim::Machine &machine, net::Host &host,
                 SharedState &shared, const ProxyConfig &cfg)
    : machine_(machine), host_(host), shared_(shared), cfg_(cfg),
      ccFdReq_(sim::CostCenters::id("ser:tcp_send_fd_request")),
      ccIpc_(sim::CostCenters::id("kernel:unix_ipc")),
      ccTcpMain_(sim::CostCenters::id("ser:tcp_main_loop")),
      ccScan_(sim::CostCenters::id("ser:tcpconn_timeout")),
      ccConnHash_(sim::CostCenters::id("ser:tcpconn_hash")),
      ccPoll_(sim::CostCenters::id("ser:io_wait")),
      ccKernAccept_(sim::CostCenters::id("kernel:tcp_accept")),
      ccKernClose_(sim::CostCenters::id("kernel:tcp_close"))
{
}

TcpArch::~TcpArch() = default;

void
TcpArch::start()
{
    listener_ = &host_.tcpListen(cfg_.port);
    reqChan_ = std::make_unique<sim::Channel<ReqMsg>>(
        static_cast<std::size_t>(cfg_.requestChannelCapacity),
        "tcp_req");
    pendingDispatch_.resize(static_cast<std::size_t>(cfg_.workers));
    net::Addr addr = host_.addr(cfg_.port);
    for (int i = 0; i < cfg_.workers; ++i) {
        auto w = std::make_unique<Worker>();
        w->id = i;
        w->dispatch = std::make_unique<sim::Channel<NewConnMsg>>(
            static_cast<std::size_t>(cfg_.dispatchChannelCapacity),
            "tcp_dispatch");
        w->resp = std::make_unique<sim::Channel<FdRespMsg>>(4,
                                                            "tcp_resp");
        w->engine = std::make_unique<Engine>(shared_, cfg_, addr, i);
        w->loop = std::make_unique<WorkerLoop>(shared_, cfg_,
                                              *w->engine);
        workers_.push_back(std::move(w));
        machine_.spawn("tcp_worker" + std::to_string(i), 0,
                       [this, i](sim::Process &p) {
                           return workerMain(p, i);
                       });
    }
    machine_.spawn("tcp_supervisor", cfg_.supervisorNice,
                   [this](sim::Process &p) { return supervisorMain(p); });
    // §3.1: the timer process exists but is superfluous for TCP; here
    // it only reclaims terminated transaction records.
    machine_.spawn("timer", 0,
                   [this](sim::Process &p) { return timerMain(p); });
}

std::size_t
TcpArch::requestQueueDepth() const
{
    return reqChan_ ? reqChan_->size() : 0;
}

std::size_t
TcpArch::acceptBacklogDepth() const
{
    return listener_ ? listener_->backlogDepth() : 0;
}

std::uint64_t
TcpArch::acceptRefused() const
{
    return listener_ ? listener_->backlogRefused() : 0;
}

void
TcpArch::appendTelemetryGauges(std::vector<ArchGauge> &out) const
{
    std::size_t owned = 0, cached = 0;
    for (const auto &w : workers_) {
        owned += w->owned.size();
        cached += w->fdCache.size();
    }
    std::size_t pending = 0;
    for (const auto &q : pendingDispatch_)
        pending += q.size();
    out.push_back({"arch.ownedConns", static_cast<double>(owned)});
    out.push_back({"arch.fdCacheEntries", static_cast<double>(cached)});
    out.push_back(
        {"arch.pendingDispatch", static_cast<double>(pending)});
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

sim::Task
TcpArch::workerMain(sim::Process &p, int id)
{
    Worker &w = *workers_[static_cast<std::size_t>(id)];
    w.nextScan = p.sim().now() + cfg_.idleScanInterval;
    std::vector<sim::Pollable *> items;
    std::vector<std::uint64_t> item_conn;
    while (!stop_) {
        shared_.overload.noteQueueDepth(requestQueueDepth());
        // While shedding, connections leave the poll set entirely: the
        // proxy stops reading, rxBufs fill, and kernel flow control
        // pushes back on clients. The pause is a bounded slice; the
        // dispatch channel stays pollable throughout.
        const bool reads_paused =
            shared_.overload.tcpReadsPaused(p.sim().now());
        // Rebuild the poll set with a rotating cursor for fairness.
        items.clear();
        item_conn.clear();
        items.push_back(&w.dispatch->readable());
        item_conn.push_back(0);
        const int n = static_cast<int>(w.ownedOrder.size());
        for (int k = 0; !reads_paused && k < n; ++k) {
            std::uint64_t cid =
                w.ownedOrder[static_cast<std::size_t>((w.rrCursor + k)
                                                      % n)];
            auto it = w.owned.find(cid);
            if (it == w.owned.end() || !it->second.valid())
                continue;
            items.push_back(&it->second.readable());
            item_conn.push_back(cid);
        }
        sim::SimTime timeout = w.nextScan - p.sim().now();
        if (reads_paused && cfg_.overload.pauseSlice < timeout)
            timeout = cfg_.overload.pauseSlice;
        if (timeout < 0)
            timeout = 0;
        int idx = -1;
        co_await sim::poll(p, items, timeout, idx);
        if (stop_)
            break;
        co_await p.cpu(cfg_.costs.pollOverhead, ccPoll_);
        if (idx == 0) {
            NewConnMsg msg;
            while (w.dispatch->tryRecv(msg))
                co_await workerInstallConn(p, w, std::move(msg));
        } else if (idx > 0) {
            if (n > 0)
                w.rrCursor = (w.rrCursor + idx) % n;
            co_await workerReadConn(
                p, w, item_conn[static_cast<std::size_t>(idx)]);
        }
        if (p.sim().now() >= w.nextScan) {
            co_await workerIdleScan(p, w);
            w.nextScan = p.sim().now() + cfg_.idleScanInterval;
        }
    }
}

sim::Task
TcpArch::workerInstallConn(sim::Process &p, Worker &w, NewConnMsg msg)
{
    co_await p.cpu(cfg_.costs.fdInstall, ccFdReq_);
    std::uint64_t id = msg.connId;
    w.owned[id] = std::move(msg.fd);
    w.framers[id] = sip::StreamFramer{};
    w.ownedOrder.push_back(id);
    if (cfg_.idleStrategy == IdleStrategy::PriorityQueue) {
        co_await p.cpu(cfg_.costs.pqOp, ccScan_);
        w.localPq.push(p.sim().now() + cfg_.idleTimeout, id);
    }
}

sim::Task
TcpArch::workerReadConn(sim::Process &p, Worker &w,
                        std::uint64_t conn_id)
{
    auto it = w.owned.find(conn_id);
    if (it == w.owned.end())
        co_return;
    std::string bytes;
    co_await it->second.recv(p, bytes);
    WorkerLoop::traceRxConn(p, conn_id, bytes.size());
    if (bytes.empty()) {
        // EOF or reset.
        co_await workerCloseConn(p, w, conn_id, /*dead=*/true);
        co_return;
    }
    net::Addr peer = it->second.remote();
    auto fit = w.framers.find(conn_id);
    if (fit == w.framers.end())
        co_return;
    fit->second.feed(std::move(bytes));
    for (;;) {
        // Re-find the framer: handling a message can close conns.
        fit = w.framers.find(conn_id);
        if (fit == w.framers.end())
            co_return;
        if (fit->second.poisoned()) {
            co_await workerCloseConn(p, w, conn_id, /*dead=*/true);
            co_return;
        }
        auto raw = fit->second.next();
        if (!raw)
            break;
        // The lambda merely calls named member coroutines (lifetime
        // rule, sim/task.hh); &w stays valid for the whole run.
        Worker *wp = &w;
        co_await w.loop->dispatch(
            p, std::move(*raw), MsgSource{peer, conn_id},
            [this, wp](sim::Process &sp, SendAction action) {
                return threadMode()
                    ? workerSendThreadMode(sp, *wp, std::move(action))
                    : workerSend(sp, *wp, std::move(action));
            });
    }
    // Reading refreshes the connection's timestamp (unlocked
    // single-word store, as OpenSER's timestamp updates are).
    if (TcpConnObj *obj = shared_.conns.byId(conn_id))
        obj->lastUse = p.sim().now();
}

sim::Task
TcpArch::workerSend(sim::Process &p, Worker &w, SendAction action)
{
    // §5.2 fast path: a cached descriptor for a known connection skips
    // the shared hash entirely -- the cache maps connection object to
    // fd directly, and the timestamp refresh is an unlocked single-word
    // store (as OpenSER's are).
    if (cfg_.fdCache && action.dstConnId) {
        auto cit = w.fdCache.find(action.dstConnId);
        if (cit != w.fdCache.end()) {
            ++shared_.counters.fdCacheHits;
            co_await p.cpu(cfg_.costs.fdCacheHit, ccFdReq_);
            if (TcpConnObj *obj =
                    shared_.conns.byId(action.dstConnId)) {
                obj->lastUse = p.sim().now(); // dirty write
            }
            co_await cit->second.send(p, std::move(action.wire));
            co_return;
        }
    }

    // Resolve the connection object: preferred id, then address alias.
    co_await shared_.conns.lock().acquire(p);
    co_await p.cpu(cfg_.costs.connLookup, ccConnHash_);
    TcpConnObj *obj = action.dstConnId
        ? shared_.conns.byId(action.dstConnId)
        : nullptr;
    if (!obj)
        obj = shared_.conns.byAddr(action.dstAddr);
    std::uint64_t id = 0;
    if (obj) {
        id = obj->id;
        obj->lastUse = p.sim().now();
        if (cfg_.idleStrategy == IdleStrategy::PriorityQueue) {
            // §5.3: workers adjust the object's place in the shared
            // priority queue when they touch a connection.
            co_await p.cpu(cfg_.costs.pqOp, ccScan_);
        }
    }
    shared_.conns.lock().release();

    if (!obj) {
        co_await workerOutboundConnect(p, w, std::move(action));
        co_return;
    }

    // Fast path: we own the connection's read side (and its fd).
    if (auto it = w.owned.find(id); it != w.owned.end()) {
        co_await it->second.send(p, std::move(action.wire));
        co_return;
    }

    // §5.2 fd cache.
    if (cfg_.fdCache) {
        auto it = w.fdCache.find(id);
        if (it != w.fdCache.end()) {
            ++shared_.counters.fdCacheHits;
            co_await p.cpu(cfg_.costs.fdCacheHit, ccFdReq_);
            co_await it->second.send(p, std::move(action.wire));
            co_return;
        }
    }

    // Request the descriptor from the supervisor and block for the
    // reply (§3.1).
    ++shared_.counters.fdRequests;
    co_await p.cpu(cfg_.costs.ipcRequest, ccFdReq_);
    co_await p.cpu(cfg_.costs.ipcSend, ccIpc_);
    co_await reqChan_->send(p, ReqMsg{ReqMsg::Kind::FdRequest, w.id, id,
                                      net::TcpConn{}});
    FdRespMsg resp;
    co_await w.resp->recv(p, resp);
    co_await p.cpu(cfg_.costs.ipcRecv, ccIpc_);
    double fd_factor = 1.0
        + static_cast<double>(shared_.conns.size())
            / cfg_.costs.fdTableScale;
    co_await p.cpu(static_cast<sim::SimTime>(
                       cfg_.costs.fdInstall * fd_factor),
                   ccFdReq_);
    if (!resp.ok) {
        ++shared_.counters.sendsToDeadConns;
        co_return;
    }
    co_await resp.fd.send(p, std::move(action.wire));
    if (cfg_.fdCache) {
        w.fdCache[id] = std::move(resp.fd);
    } else {
        // §5.1: without the cache the worker closes its descriptor
        // right after forwarding.
        co_await resp.fd.close(p);
    }
}

sim::Task
TcpArch::workerSendThreadMode(sim::Process &p, Worker &w,
                              SendAction action)
{
    // §6: all threads share one descriptor table. No IPC, no cache —
    // only a per-connection write lock.
    co_await shared_.conns.lock().acquire(p);
    co_await p.cpu(cfg_.costs.connLookup, ccConnHash_);
    TcpConnObj *obj = action.dstConnId
        ? shared_.conns.byId(action.dstConnId)
        : nullptr;
    if (!obj)
        obj = shared_.conns.byAddr(action.dstAddr);
    if (!obj) {
        shared_.conns.lock().release();
        co_await workerOutboundConnect(p, w, std::move(action));
        co_return;
    }
    obj->lastUse = p.sim().now();
    if (cfg_.idleStrategy == IdleStrategy::PriorityQueue)
        co_await p.cpu(cfg_.costs.pqOp, ccScan_);
    // Lock ordering: table lock -> write lock; release the table lock
    // before the (long) send.
    co_await obj->writeLock.acquire(p);
    shared_.conns.lock().release();
    co_await obj->supFd.send(p, std::move(action.wire));
    obj->writeLock.release();
}

sim::Task
TcpArch::workerOutboundConnect(sim::Process &p, Worker &w,
                               SendAction action)
{
    ++shared_.counters.outboundConnects;
    net::TcpConn conn;
    try {
        if (cfg_.transport == Transport::Tls)
            co_await host_.tlsConnect(p, action.dstAddr, conn);
        else
            co_await host_.tcpConnect(p, action.dstAddr, conn);
    } catch (const net::NetError &) {
        ++shared_.counters.sendsToDeadConns;
        co_return;
    }
    std::uint64_t id = conn.id();
    auto obj = std::make_unique<TcpConnObj>();
    obj->id = id;
    obj->peer = action.dstAddr;
    obj->ownerWorker = w.id;
    obj->lastUse = p.sim().now();
    net::TcpConn sup_copy = conn.dup();
    if (threadMode())
        obj->supFd = conn.dup();

    co_await shared_.conns.lock().acquire(p);
    co_await p.cpu(cfg_.costs.connInsert, ccConnHash_);
    shared_.conns.insert(std::move(obj));
    shared_.conns.setAlias(action.dstAddr, id);
    if (cfg_.idleStrategy == IdleStrategy::PriorityQueue) {
        co_await p.cpu(cfg_.costs.pqOp, ccScan_);
        shared_.supervisorPq.push(
            p.sim().now() + 2 * cfg_.idleTimeout, id);
    }
    shared_.conns.lock().release();

    // The worker owns the new connection; the supervisor receives its
    // own descriptor over IPC (as OpenSER's tcpconn_connect does).
    if (!threadMode()) {
        co_await p.cpu(cfg_.costs.ipcSend, ccIpc_);
        co_await reqChan_->send(
            p, ReqMsg{ReqMsg::Kind::RegisterConn, w.id, id,
                      std::move(sup_copy)});
    } else {
        sup_copy.closeQuiet();
    }

    co_await conn.send(p, std::move(action.wire));
    co_await workerInstallConn(p, w, NewConnMsg{id, std::move(conn)});
}

sim::Task
TcpArch::workerCloseConn(sim::Process &p, Worker &w,
                         std::uint64_t conn_id, bool dead)
{
    auto it = w.owned.find(conn_id);
    if (it == w.owned.end())
        co_return;
    co_await it->second.close(p);
    w.owned.erase(it);
    w.framers.erase(conn_id);
    auto oit = std::find(w.ownedOrder.begin(), w.ownedOrder.end(),
                         conn_id);
    if (oit != w.ownedOrder.end())
        w.ownedOrder.erase(oit);

    co_await shared_.conns.lock().acquire(p);
    co_await p.cpu(cfg_.costs.connLookup, ccConnHash_);
    if (TcpConnObj *obj = shared_.conns.byId(conn_id)) {
        obj->returned = true;
        if (dead)
            obj->dead = true;
    }
    shared_.conns.lock().release();

    // Return the connection to the supervisor (§3.1 close protocol).
    ++shared_.counters.connsReturnedByWorkers;
    co_await p.cpu(cfg_.costs.ipcSend, ccIpc_);
    co_await reqChan_->send(p, ReqMsg{ReqMsg::Kind::ConnReturned, w.id,
                                      conn_id, net::TcpConn{}});
}

sim::Task
TcpArch::workerIdleScan(sim::Process &p, Worker &w)
{
    sim::SimTime now = p.sim().now();
    std::vector<std::uint64_t> due;
    std::vector<std::uint64_t> stale_cache;

    if (cfg_.idleStrategy == IdleStrategy::LinearScan) {
        // §5.2: every worker walks every connection it owns, under the
        // shared hash lock.
        co_await shared_.conns.lock().acquire(p);
        std::size_t visited = w.owned.size() + w.fdCache.size();
        if (visited) {
            co_await p.cpu(static_cast<sim::SimTime>(visited)
                               * cfg_.costs.idleScanPerConn,
                           ccScan_);
        }
        for (const auto &[id, fd] : w.owned) {
            TcpConnObj *obj = shared_.conns.byId(id);
            if (obj && !obj->dead
                && now >= obj->lastUse + cfg_.idleTimeout) {
                due.push_back(id);
            }
        }
        for (const auto &[id, fd] : w.fdCache) {
            if (!shared_.conns.byId(id))
                stale_cache.push_back(id);
        }
        shared_.conns.lock().release();
    } else {
        // §5.3: pop only expired entries from the local queue.
        while (!w.localPq.empty() && w.localPq.top().expireAt <= now) {
            std::uint64_t id = w.localPq.top().id;
            w.localPq.pop();
            co_await p.cpu(cfg_.costs.pqOp, ccScan_);
            if (!w.owned.count(id))
                continue;
            co_await shared_.conns.lock().acquire(p);
            co_await p.cpu(cfg_.costs.connLookup, ccConnHash_);
            TcpConnObj *obj = shared_.conns.byId(id);
            sim::SimTime expire =
                obj ? obj->lastUse + cfg_.idleTimeout : 0;
            shared_.conns.lock().release();
            if (obj && expire > now) {
                co_await p.cpu(cfg_.costs.pqOp, ccScan_);
                w.localPq.push(expire, id);
            } else {
                due.push_back(id);
            }
        }
        // The fd cache is still swept linearly, but it is small and
        // this happens without the shared lock (local data).
        for (const auto &[id, fd] : w.fdCache) {
            if (fd.endpoint() && fd.endpoint()->peerClosed())
                stale_cache.push_back(id);
        }
        if (!stale_cache.empty()) {
            co_await shared_.conns.lock().acquire(p);
            co_await p.cpu(cfg_.costs.connLookup, ccConnHash_);
            for (auto it = stale_cache.begin();
                 it != stale_cache.end();) {
                if (shared_.conns.byId(*it))
                    it = stale_cache.erase(it); // still live: keep
                else
                    ++it;
            }
            shared_.conns.lock().release();
        }
    }

    for (std::uint64_t id : due)
        co_await workerCloseConn(p, w, id, /*dead=*/false);
    for (std::uint64_t id : stale_cache) {
        auto it = w.fdCache.find(id);
        if (it != w.fdCache.end()) {
            ++shared_.counters.fdCacheInvalidations;
            co_await p.cpu(host_.net().config().tcpCloseCost,
                           ccKernClose_);
            it->second.closeQuiet();
            w.fdCache.erase(it);
        }
    }
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

sim::Task
TcpArch::supervisorMain(sim::Process &p)
{
    sim::SimTime next_scan = p.sim().now() + cfg_.idleScanInterval;
    std::vector<sim::Pollable *> items;
    std::vector<int> item_worker;
    while (!stop_) {
        // While shedding, the listener leaves the poll set and the
        // accept drain below is skipped: the kernel accept queue fills
        // and further SYNs are refused (backpressure at connect time).
        const bool accepts_paused =
            shared_.overload.acceptsPaused(p.sim().now());
        items.clear();
        item_worker.clear();
        if (!accepts_paused) {
            items.push_back(listener_);
            item_worker.push_back(-1);
        }
        items.push_back(&reqChan_->readable());
        item_worker.push_back(-1);
        if (cfg_.eventDrivenIpc) {
            for (std::size_t i = 0; i < pendingDispatch_.size(); ++i) {
                if (!pendingDispatch_[i].empty()) {
                    items.push_back(&workers_[i]->dispatch->writable());
                    item_worker.push_back(static_cast<int>(i));
                }
            }
        }
        sim::SimTime timeout = next_scan - p.sim().now();
        if (timeout < 0)
            timeout = 0;
        int idx = -1;
        co_await sim::poll(p, items, timeout, idx);
        if (stop_)
            break;
        co_await p.cpu(cfg_.costs.pollOverhead, ccTcpMain_);

        // Drain accepts, but never past the timer tick: OpenSER's
        // tcp_main checks tcpconn_timeout every loop iteration.
        net::TcpConn conn;
        while (!accepts_paused && p.sim().now() < next_scan
               && listener_->tryAccept(conn)) {
            co_await p.cpu(host_.net().config().tcpAcceptCost,
                           ccKernAccept_);
            co_await supervisorAccept(p, std::move(conn));
            if (stop_)
                co_return;
        }
        // Drain worker requests.
        ReqMsg req;
        while (p.sim().now() < next_scan && reqChan_->tryRecv(req)) {
            co_await p.cpu(cfg_.costs.ipcRecv, ccIpc_);
            co_await supervisorHandleRequest(p, std::move(req));
            if (stop_)
                co_return;
        }
        // Flush event-driven dispatch backlogs.
        if (cfg_.eventDrivenIpc) {
            for (std::size_t i = 0; i < pendingDispatch_.size(); ++i) {
                if (!pendingDispatch_[i].empty())
                    co_await supervisorFlushPending(
                        p, static_cast<int>(i));
            }
        }
        if (p.sim().now() >= next_scan) {
            co_await supervisorIdleScan(p);
            next_scan = p.sim().now() + cfg_.idleScanInterval;
        }
    }
}

sim::Task
TcpArch::supervisorAccept(sim::Process &p, net::TcpConn conn)
{
    std::uint64_t id = conn.id();
    auto obj = std::make_unique<TcpConnObj>();
    obj->id = id;
    obj->peer = conn.remote();
    obj->ownerWorker = rrNext_;
    obj->lastUse = p.sim().now();
    obj->supFd = conn.dup();

    co_await shared_.conns.lock().acquire(p);
    co_await p.cpu(cfg_.costs.connInsert, ccConnHash_);
    shared_.conns.insert(std::move(obj));
    if (cfg_.idleStrategy == IdleStrategy::PriorityQueue) {
        co_await p.cpu(cfg_.costs.pqOp, ccScan_);
        shared_.supervisorPq.push(
            p.sim().now() + 2 * cfg_.idleTimeout, id);
    }
    shared_.conns.lock().release();
    ++shared_.counters.connsAccepted;

    int target = rrNext_;
    rrNext_ = (rrNext_ + 1) % cfg_.workers;
    co_await supervisorDispatch(p, target,
                                NewConnMsg{id, std::move(conn)});
}

sim::Task
TcpArch::supervisorDispatch(sim::Process &p, int worker, NewConnMsg msg)
{
    co_await p.cpu(cfg_.costs.ipcSend, ccIpc_);
    auto &w = *workers_[static_cast<std::size_t>(worker)];
    if (cfg_.eventDrivenIpc) {
        auto &pending =
            pendingDispatch_[static_cast<std::size_t>(worker)];
        // Preserve order: back up behind any queued dispatches.
        if (!pending.empty() || w.dispatch->full())
            pending.push_back(std::move(msg));
        else
            w.dispatch->trySend(std::move(msg));
        co_return;
    }
    // §6: this send blocks when the worker's channel is full — the
    // deadlock scenario.
    co_await w.dispatch->send(p, std::move(msg));
}

sim::Task
TcpArch::supervisorFlushPending(sim::Process &p, int worker)
{
    auto &pending = pendingDispatch_[static_cast<std::size_t>(worker)];
    auto &w = *workers_[static_cast<std::size_t>(worker)];
    while (!pending.empty() && !w.dispatch->full()) {
        w.dispatch->trySend(std::move(pending.front()));
        pending.pop_front();
        co_await p.cpu(cfg_.costs.ipcSend, ccIpc_);
    }
}

sim::Task
TcpArch::supervisorHandleRequest(sim::Process &p, ReqMsg req)
{
    switch (req.kind) {
      case ReqMsg::Kind::FdRequest: {
        // dup + SCM_RIGHTS install scale with the supervisor's fd
        // table, which holds every open connection.
        double fd_factor = 1.0
            + static_cast<double>(shared_.conns.size())
                / cfg_.costs.fdTableScale;
        co_await p.cpu(static_cast<sim::SimTime>(
                           cfg_.costs.ipcHandle * fd_factor),
                       ccTcpMain_);
        FdRespMsg resp;
        resp.connId = req.connId;
        co_await shared_.conns.lock().acquire(p);
        co_await p.cpu(cfg_.costs.connLookup, ccConnHash_);
        TcpConnObj *obj = shared_.conns.byId(req.connId);
        if (obj && obj->supFd.valid() && !obj->dead) {
            resp.fd = obj->supFd.dup();
            resp.ok = true;
        }
        shared_.conns.lock().release();
        co_await p.cpu(cfg_.costs.ipcSend, ccIpc_);
        co_await workers_[static_cast<std::size_t>(req.worker)]
            ->resp->send(p, std::move(resp));
        break;
      }
      case ReqMsg::Kind::ConnReturned: {
        co_await shared_.conns.lock().acquire(p);
        co_await p.cpu(cfg_.costs.connLookup, ccConnHash_);
        TcpConnObj *obj = shared_.conns.byId(req.connId);
        if (obj && obj->dead
            && cfg_.idleStrategy == IdleStrategy::PriorityQueue) {
            // Dead connections become destroyable immediately.
            shared_.supervisorPq.push(p.sim().now(), req.connId);
        }
        shared_.conns.lock().release();
        break;
      }
      case ReqMsg::Kind::RegisterConn: {
        co_await shared_.conns.lock().acquire(p);
        co_await p.cpu(cfg_.costs.connLookup + cfg_.costs.fdInstall,
                       ccConnHash_);
        if (TcpConnObj *obj = shared_.conns.byId(req.connId))
            obj->supFd = std::move(req.fd);
        shared_.conns.lock().release();
        break;
      }
    }
}

void
TcpArch::destroyLocked(TcpConnObj &obj)
{
    if (threadMode() && !obj.writeLock.tryAcquire())
        return; // a sender holds the fd; retry on a later scan
    std::uint64_t id = obj.id;
    obj.supFd.closeQuiet();
    shared_.conns.erase(id); // frees the object
    ++shared_.counters.connsDestroyed;
}

sim::Task
TcpArch::supervisorIdleScan(sim::Process &p)
{
    sim::SimTime now = p.sim().now();
    ++shared_.counters.idleScans;
    const sim::SimTime destroy_after = 2 * cfg_.idleTimeout;

    if (cfg_.idleStrategy == IdleStrategy::LinearScan) {
        // §5.2: walk *every* connection object while holding the hash
        // lock. Workers needing the lock spin and sched_yield.
        co_await shared_.conns.lock().acquire(p);
        std::size_t n = shared_.conns.size();
        shared_.counters.idleScanVisited += n;
        if (n) {
            co_await p.cpu(static_cast<sim::SimTime>(n)
                               * cfg_.costs.idleScanPerConn,
                           ccScan_);
        }
        std::vector<std::uint64_t> doomed;
        shared_.conns.forEach([&](TcpConnObj &obj) {
            bool due = (obj.dead && obj.returned)
                || (obj.returned
                    && now >= obj.lastUse + destroy_after);
            if (due)
                doomed.push_back(obj.id);
        });
        if (!doomed.empty()) {
            co_await p.cpu(static_cast<sim::SimTime>(doomed.size())
                               * (cfg_.costs.connErase
                                  + host_.net().config().tcpCloseCost),
                           ccScan_);
            for (std::uint64_t id : doomed) {
                if (TcpConnObj *obj = shared_.conns.byId(id))
                    destroyLocked(*obj);
            }
        }
        shared_.conns.lock().release();
        co_return;
    }

    // §5.3: pop only entries whose timeout expired; reinsert those
    // whose timestamp moved (workers refreshed them).
    co_await shared_.conns.lock().acquire(p);
    auto &pq = shared_.supervisorPq;
    std::size_t visited = 0;
    while (!pq.empty() && pq.top().expireAt <= now) {
        std::uint64_t id = pq.top().id;
        pq.pop();
        ++visited;
        co_await p.cpu(cfg_.costs.pqOp, ccScan_);
        TcpConnObj *obj = shared_.conns.byId(id);
        if (!obj)
            continue;
        bool due = (obj->dead && obj->returned)
            || (obj->returned && now >= obj->lastUse + destroy_after);
        if (due) {
            co_await p.cpu(cfg_.costs.connErase
                               + host_.net().config().tcpCloseCost,
                           ccScan_);
            destroyLocked(*obj);
            continue;
        }
        sim::SimTime expire =
            std::max(obj->lastUse + destroy_after,
                     now + cfg_.idleScanInterval);
        co_await p.cpu(cfg_.costs.pqOp, ccScan_);
        pq.push(expire, id);
    }
    shared_.counters.idleScanVisited += visited;
    shared_.conns.lock().release();
}

sim::Task
TcpArch::timerMain(sim::Process &p)
{
    while (!stop_) {
        co_await p.sleepFor(cfg_.timerTick);
        if (stop_)
            break;
        co_await WorkerLoop::reclaimTxns(p, shared_, cfg_);
    }
}

} // namespace siprox::core
