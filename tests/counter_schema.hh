/**
 * @file
 * Shared by the metrics and telemetry coverage tests: every row of a
 * counter table (workload/counters.hh) must be exported under its
 * namespace with exactly the value the run's struct holds.
 */

#ifndef SIPROX_TESTS_COUNTER_SCHEMA_HH
#define SIPROX_TESTS_COUNTER_SCHEMA_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "stats/fields.hh"
#include "workload/scenario.hh"

namespace siprox::testcounters {

/** Check that @p exported holds "<prefix><row name>" == the row's value
 *  in @p s for every row of @p fields. */
template <class S, std::size_t N>
void
expectEveryRow(
    const std::map<std::string, std::uint64_t, std::less<>> &exported,
    const std::string &prefix, const S &s,
    const stats::Field<S> (&fields)[N])
{
    for (const stats::Field<S> &f : fields) {
        const std::string name = prefix + f.name;
        auto it = exported.find(name);
        if (it == exported.end()) {
            ADD_FAILURE() << name << " is not exported";
            continue;
        }
        EXPECT_EQ(it->second, s.*(f.member)) << name;
    }
}

/** A 2-instance hash-AOR UDP cluster with 2 ms telemetry windows. */
inline workload::Scenario
telemetryClusterScenario()
{
    workload::Scenario sc;
    sc.name = "cluster2";
    sc.proxy.transport = core::Transport::Udp;
    sc.proxy.stateful = true;
    sc.clients = 16;
    sc.callsPerClient = 4;
    sc.clientMachines = 2;
    sc.serverCores = 2;
    sc.maxDuration = sim::secs(120);
    sc.cluster.instances = 2;
    sc.telemetry.windowMs = 2;
    return sc;
}

} // namespace siprox::testcounters

#endif // SIPROX_TESTS_COUNTER_SCHEMA_HH
