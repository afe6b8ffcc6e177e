#include "core/arch.hh"

#include <stdexcept>
#include <string>

#include "core/event_arch.hh"
#include "core/tcp_arch.hh"
#include "core/udp_arch.hh"
#include "net/sctp.hh"
#include "net/sst.hh"
#include "net/udp.hh"

namespace siprox::core {

const char *
archKindName(ArchKind k)
{
    switch (k) {
      case ArchKind::Auto:
        return "auto";
      case ArchKind::SupervisorWorker:
        return "supervisor";
      case ArchKind::SymmetricWorker:
        return "symmetric";
      case ArchKind::EventDriven:
        return "event";
    }
    return "?";
}

ArchKind
resolveArchKind(ArchKind k, Transport t)
{
    if (k != ArchKind::Auto)
        return k;
    // OpenSER's hard-wired map: the transport implies the architecture.
    // Byte-stream transports (TCP, TLS) get the supervisor/worker
    // design; message-oriented ones the symmetric workers.
    return isStreamTransport(t) ? ArchKind::SupervisorWorker
                                : ArchKind::SymmetricWorker;
}

const char *
archSupportError(ArchKind k, Transport t)
{
    switch (resolveArchKind(k, t)) {
      case ArchKind::SupervisorWorker:
        if (!isStreamTransport(t))
            return "the supervisor/worker architecture is "
                   "connection-oriented (accept, assign, fd-passing); "
                   "it only serves the byte-stream transports TCP and "
                   "TLS";
        return nullptr;
      case ArchKind::SymmetricWorker:
        if (isStreamTransport(t))
            return "symmetric workers share one message-based socket; "
                   "TCP/TLS byte streams need per-connection ownership "
                   "(use supervisor or event)";
        return nullptr;
      case ArchKind::EventDriven:
        return nullptr; // readiness loops serve every transport
      case ArchKind::Auto:
        break; // unreachable: resolveArchKind never returns Auto
    }
    return nullptr;
}

std::unique_ptr<ServerArch>
makeServerArch(sim::Machine &machine, net::Host &host,
               SharedState &shared, const ProxyConfig &cfg)
{
    if (const char *err = archSupportError(cfg.arch, cfg.transport)) {
        throw std::invalid_argument(
            std::string(archKindName(cfg.arch)) + " over "
            + transportName(cfg.transport) + ": " + err);
    }
    switch (resolveArchKind(cfg.arch, cfg.transport)) {
      case ArchKind::SupervisorWorker:
        return std::make_unique<TcpArch>(machine, host, shared, cfg);
      case ArchKind::SymmetricWorker:
        return std::make_unique<UdpArch>(machine, host, shared, cfg);
      case ArchKind::EventDriven:
        return std::make_unique<EventArch>(machine, host, shared, cfg);
      case ArchKind::Auto:
        break; // unreachable
    }
    throw std::logic_error("unresolved architecture kind");
}

net::DatagramSocket &
bindDatagram(net::Host &host, Transport transport, std::uint16_t port)
{
    if (transport == Transport::Sctp)
        return host.sctpBind(port);
    if (transport == Transport::Sst)
        return host.sstBind(port);
    return host.udpBind(port);
}

} // namespace siprox::core
