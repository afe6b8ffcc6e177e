/**
 * @file
 * Wall-clock perf-tracking harness for the proxy's hot paths: the
 * repo's one micro-benchmark harness.
 *
 * Unlike the figure benches (which report *simulated* throughput), this
 * binary measures the library's real cost on the host CPU: ns/op and
 * allocations/op for the SIP parse/build/serialize/forward, URI,
 * transaction-key and stream-framer micros and the event queue, plus
 * wall-clock seconds and events/sec for fixed fig3-style scenarios.
 * Results land in BENCH_hotpath.json so every change's numbers are
 * comparable — see docs/performance.md.
 *
 * Allocations are counted by interposing global operator new/delete in
 * this binary only; the library itself is untouched.
 *
 * Modes:
 *   SIPROX_PERF_SMOKE=1          tiny iteration counts (CI smoke)
 *   SIPROX_PERF_METRICS_ONLY=1   emit the bare metrics object (for use
 *                                as a later run's baseline)
 *   SIPROX_PERF_BASELINE=<file>  embed that metrics object verbatim as
 *                                "baseline" in the output
 *   argv[1]                      output path (default BENCH_hotpath.json)
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "sim/event_queue.hh"
#include "sip/builders.hh"
#include "sip/parser.hh"
#include "sip/transaction.hh"
#include "sip/uri.hh"
#include "workload/scenario.hh"

// --- counting allocator ----------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_allocBytes{0};
} // namespace

static void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(n, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(n, std::memory_order_relaxed);
    void *p = std::aligned_alloc(static_cast<std::size_t>(a),
                                 (n + static_cast<std::size_t>(a) - 1)
                                     & ~(static_cast<std::size_t>(a) - 1));
    if (!p)
        throw std::bad_alloc();
    return p;
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return operator new(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace siprox;
using namespace siprox::sip;
using Clock = std::chrono::steady_clock;

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v && *v && std::strcmp(v, "0") != 0;
}

/** One micro's measured numbers. */
struct Micro
{
    const char *name;
    std::uint64_t iters = 0;
    double nsPerOp = 0;
    double allocsPerOp = 0;
    double allocBytesPerOp = 0;
};

/**
 * Run @p body() @p iters times, charging time and allocations to the
 * returned record. A short warmup primes caches and lazy init.
 */
template <class F>
Micro
measure(const char *name, std::uint64_t iters, F &&body)
{
    for (std::uint64_t i = 0; i < iters / 20 + 1; ++i)
        body();
    std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    std::uint64_t b0 = g_allocBytes.load(std::memory_order_relaxed);
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i)
        body();
    auto t1 = Clock::now();
    std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
    std::uint64_t b1 = g_allocBytes.load(std::memory_order_relaxed);
    Micro m;
    m.name = name;
    m.iters = iters;
    m.nsPerOp = static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0)
                        .count())
        / static_cast<double>(iters);
    m.allocsPerOp =
        static_cast<double>(a1 - a0) / static_cast<double>(iters);
    m.allocBytesPerOp =
        static_cast<double>(b1 - b0) / static_cast<double>(iters);
    return m;
}

SipMessage
sampleInvite()
{
    RequestSpec spec;
    spec.method = Method::Invite;
    spec.requestUri = uriForAddr("bob", net::Addr{3, 5060});
    spec.from = uriForAddr("alice", net::Addr{1, 10000});
    spec.to = uriForAddr("bob", net::Addr{2, 10001});
    spec.fromTag = "tag-12345";
    spec.callId = "perf-call-id-123456@h1";
    spec.cseq = 42;
    spec.viaSentBy = uriForAddr("", net::Addr{1, 10000});
    spec.branch = "z9hG4bK-perf-branch";
    spec.contact = spec.from;
    return buildRequest(spec);
}

/** The per-forward mutation a proxy performs on a parsed request. */
std::string
forwardRewrite(SipMessage &&fwd)
{
    fwd.setMaxForwards(fwd.maxForwards().value_or(70) - 1);
    Via via;
    via.transport = "UDP";
    via.host = "h9";
    via.port = 5060;
    via.branch = "z9hG4bK-proxy-1";
    fwd.prependVia(via);
    return fwd.serialize();
}

/** Wall-clock numbers for one fixed scenario. */
struct SweepResult
{
    const char *name;
    double wallSecs = 0;
    std::uint64_t ops = 0;
    std::uint64_t events = 0;
    double allocsPerOp = 0;
};

SweepResult
runSweep(const char *name, core::Transport transport, int clients,
         int ops_per_conn, int calls_per_client, std::uint64_t seed,
         std::uint64_t cluster_aors = 0)
{
    workload::Scenario sc =
        workload::paperScenario(transport, clients, ops_per_conn);
    sc.callsPerClient = calls_per_client;
    sc.seed = seed;
    if (cluster_aors > 0) {
        // The cluster footprint rung: 4 instances behind the
        // dispatcher, each shard pre-seeded with population/4 AORs.
        // Wall time exercises the dispatcher relay + sharded lookup
        // path; peak RSS (gated by check_perf.py) catches a location
        // service that retains more per AOR than it should.
        sc.cluster.instances = 4;
        sc.cluster.policy = core::DispatchPolicy::HashAor;
        sc.cluster.aorPopulation = cluster_aors;
    }
    std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    auto t0 = Clock::now();
    workload::RunResult r = workload::runScenario(sc);
    auto t1 = Clock::now();
    std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
    SweepResult out;
    out.name = name;
    out.wallSecs = std::chrono::duration<double>(t1 - t0).count();
    out.ops = r.ops;
    out.events = r.simEvents;
    if (r.ops) {
        out.allocsPerOp =
            static_cast<double>(a1 - a0) / static_cast<double>(r.ops);
    }
    return out;
}

long
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

void
writeMetrics(std::FILE *f, const std::vector<Micro> &micros,
             const std::vector<SweepResult> &sweeps)
{
    std::fprintf(f, "{\n  \"micros\": {\n");
    for (std::size_t i = 0; i < micros.size(); ++i) {
        const Micro &m = micros[i];
        std::fprintf(f,
                     "    \"%s\": {\"ns_per_op\": %.1f, "
                     "\"allocs_per_op\": %.2f, "
                     "\"alloc_bytes_per_op\": %.1f, \"iters\": %llu}%s\n",
                     m.name, m.nsPerOp, m.allocsPerOp, m.allocBytesPerOp,
                     static_cast<unsigned long long>(m.iters),
                     i + 1 < micros.size() ? "," : "");
    }
    std::fprintf(f, "  },\n  \"sweeps\": {\n");
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        const SweepResult &s = sweeps[i];
        std::fprintf(f,
                     "    \"%s\": {\"wall_secs\": %.3f, \"ops\": %llu, "
                     "\"events\": %llu, \"events_per_wall_sec\": %.0f, "
                     "\"allocs_per_op\": %.1f}%s\n",
                     s.name, s.wallSecs,
                     static_cast<unsigned long long>(s.ops),
                     static_cast<unsigned long long>(s.events),
                     s.wallSecs > 0
                         ? static_cast<double>(s.events) / s.wallSecs
                         : 0.0,
                     s.allocsPerOp, i + 1 < sweeps.size() ? "," : "");
    }
    std::fprintf(f, "  },\n  \"peak_rss_kb\": %ld\n}", peakRssKb());
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = envFlag("SIPROX_PERF_SMOKE");
    const std::uint64_t k = smoke ? 2000 : 100000;

    std::string wire = sampleInvite().serialize();
    SipMessage built = sampleInvite();

    std::vector<Micro> micros;
    micros.push_back(measure("parse_invite", 2 * k, [&] {
        auto r = parseMessage(wire);
        if (!r.ok)
            std::abort();
    }));
    std::string response_wire =
        buildResponse(built, 200, "totag").serialize();
    micros.push_back(measure("parse_response", 2 * k, [&] {
        auto r = parseMessage(response_wire);
        if (!r.ok)
            std::abort();
    }));
    micros.push_back(measure("build_request", 2 * k, [&] {
        SipMessage m = sampleInvite();
        if (!m.isRequest())
            std::abort();
    }));
    micros.push_back(measure("serialize_invite", 4 * k, [&] {
        std::string s = built.serialize();
        if (s.empty())
            std::abort();
    }));
    micros.push_back(measure("forward_rewrite", 2 * k, [&] {
        std::string s = forwardRewrite(SipMessage(built));
        if (s.empty())
            std::abort();
    }));
    // The acceptance-criteria micro: receive bytes, parse, rewrite as a
    // proxy would, re-serialize.
    micros.push_back(measure("parse_forward", 2 * k, [&] {
        auto r = parseMessage(wire);
        if (!r.ok)
            std::abort();
        std::string s = forwardRewrite(std::move(r.message));
        if (s.empty())
            std::abort();
    }));
    micros.push_back(measure("uri_parse", 4 * k, [&] {
        if (!SipUri::parse("sip:alice@h17:10042;transport=tcp;lr"))
            std::abort();
    }));
    micros.push_back(measure("transaction_key", 4 * k, [&] {
        auto key = transactionKey(built);
        if (!key || TransactionKeyHash{}(*key) == 0)
            std::abort();
    }));
    {
        // Reassemble 16 INVITEs fed in TCP-read-sized chunks.
        std::string stream;
        for (int i = 0; i < 16; ++i)
            stream += wire;
        const std::pair<const char *, std::size_t> chunkings[] = {
            {"framer_64b_chunks", 64},
            {"framer_512b_chunks", 512},
            {"framer_4096b_chunks", 4096},
        };
        for (const auto &chunking : chunkings) {
            const std::size_t chunk = chunking.second;
            micros.push_back(measure(chunking.first, k / 4 + 1, [&] {
                StreamFramer framer;
                int messages = 0;
                for (std::size_t off = 0; off < stream.size();
                     off += chunk) {
                    framer.feed(
                        std::string_view(stream).substr(off, chunk));
                    while (auto m = framer.next())
                        ++messages;
                }
                if (messages != 16)
                    std::abort();
            }));
        }
    }
    {
        // Schedule/run cycles with a 16-byte capture, like a timer.
        sim::EventQueue q;
        std::uint64_t fired = 0;
        sim::SimTime now = 0;
        sim::SimTime at = 0;
        micros.push_back(measure("event_schedule_run", 8 * k, [&] {
            std::uint64_t *p = &fired;
            q.schedule(++at, [p] { ++*p; });
            q.runNext(now);
        }));
        if (fired == 0)
            std::abort();
    }

    std::vector<SweepResult> sweeps;
    sweeps.push_back(runSweep("udp_100c", core::Transport::Udp, 100, 0,
                              smoke ? 5 : 40, 1));
    sweeps.push_back(runSweep("tcp_churn_50c", core::Transport::Tcp, 50,
                              50, smoke ? 5 : 30, 2));
    sweeps.push_back(runSweep("cluster_100k_aor_4i",
                              core::Transport::Udp, 100, 0,
                              smoke ? 5 : 20, 3,
                              smoke ? 10000 : 100000));

    const char *out_path =
        argc > 1 ? argv[1] : "BENCH_hotpath.json";
    if (envFlag("SIPROX_PERF_METRICS_ONLY")) {
        std::FILE *f = std::fopen(out_path, "w");
        if (!f) {
            std::perror("fopen");
            return 1;
        }
        writeMetrics(f, micros, sweeps);
        std::fprintf(f, "\n");
        std::fclose(f);
    } else {
        std::FILE *f = std::fopen(out_path, "w");
        if (!f) {
            std::perror("fopen");
            return 1;
        }
        std::fprintf(f, "{\n\"schema\": \"siprox-perf-v1\",\n");
        std::fprintf(f, "\"smoke\": %s,\n", smoke ? "true" : "false");
        if (const char *base = std::getenv("SIPROX_PERF_BASELINE");
            base && *base) {
            if (std::FILE *bf = std::fopen(base, "r")) {
                std::fprintf(f, "\"baseline\": ");
                char buf[4096];
                std::size_t n;
                while ((n = std::fread(buf, 1, sizeof buf, bf)) > 0)
                    std::fwrite(buf, 1, n, f);
                std::fclose(bf);
                // The baseline file ends in a newline; keep JSON tidy.
                std::fprintf(f, ",\n");
            }
        }
        std::fprintf(f, "\"current\": ");
        writeMetrics(f, micros, sweeps);
        std::fprintf(f, "\n}\n");
        std::fclose(f);
    }

    // Console summary.
    for (const Micro &m : micros) {
        std::fprintf(stderr, "%-22s %9.1f ns/op  %6.2f allocs/op\n",
                     m.name, m.nsPerOp, m.allocsPerOp);
    }
    for (const SweepResult &s : sweeps) {
        std::fprintf(stderr,
                     "%-22s %8.3f wall-s  %8llu ops  %6.1f allocs/op\n",
                     s.name, s.wallSecs,
                     static_cast<unsigned long long>(s.ops),
                     s.allocsPerOp);
    }
    std::fprintf(stderr, "peak RSS %ld KB -> %s\n", peakRssKb(),
                 out_path);
    return 0;
}
