/**
 * @file
 * UDP socket tests: delivery, ordering, loss, queue overflow, shared
 * receivers, kernel cost accounting, and poll readiness.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net_fixture.hh"

namespace {

using namespace siprox;
using namespace siprox::sim;
using namespace siprox::net;
using siprox::tests::NetFixture;

using UdpTest = NetFixture;

Task
sendN(Process &p, UdpSocket *sock, Addr dst, int n, std::string prefix)
{
    for (int i = 0; i < n; ++i)
        co_await sock->sendTo(p, dst, prefix + std::to_string(i));
}

Task
recvN(Process &p, UdpSocket *sock, int n, std::vector<Datagram> *out)
{
    for (int i = 0; i < n; ++i) {
        Datagram d;
        co_await sock->recvFrom(p, d);
        out->push_back(std::move(d));
    }
}

TEST_F(UdpTest, DeliversPayloadAndAddresses)
{
    auto &ssock = server.udpBind(5060);
    auto &csock = client.udpBind(9000);
    std::vector<Datagram> got;
    serverMachine.spawn("rx", 0, [&](Process &p) {
        return recvN(p, &ssock, 1, &got);
    });
    clientMachine.spawn("tx", 0, [&](Process &p) {
        return sendN(p, &csock, server.addr(5060), 1, "hello-");
    });
    sim.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].payload, "hello-0");
    EXPECT_EQ(got[0].src, client.addr(9000));
    EXPECT_EQ(got[0].dst, server.addr(5060));
}

TEST_F(UdpTest, PreservesOrderFromOneSender)
{
    auto &ssock = server.udpBind(5060);
    auto &csock = client.udpBind(9000);
    std::vector<Datagram> got;
    serverMachine.spawn("rx", 0, [&](Process &p) {
        return recvN(p, &ssock, 50, &got);
    });
    clientMachine.spawn("tx", 0, [&](Process &p) {
        return sendN(p, &csock, server.addr(5060), 50, "m");
    });
    sim.run();
    ASSERT_EQ(got.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(got[i].payload, "m" + std::to_string(i));
}

TEST_F(UdpTest, KernelCostsCharged)
{
    auto &ssock = server.udpBind(5060);
    auto &csock = client.udpBind(9000);
    std::vector<Datagram> got;
    serverMachine.spawn("rx", 0, [&](Process &p) {
        return recvN(p, &ssock, 1, &got);
    });
    clientMachine.spawn("tx", 0, [&](Process &p) {
        return sendN(p, &csock, server.addr(5060), 1, "x");
    });
    sim.run();
    EXPECT_GT(clientMachine.profiler().at("kernel:udp_send"), 0);
    EXPECT_GT(serverMachine.profiler().at("kernel:udp_recv"), 0);
}

TEST_F(UdpTest, SendToUnboundPortIsDropped)
{
    auto &csock = client.udpBind(9000);
    clientMachine.spawn("tx", 0, [&](Process &p) {
        return sendN(p, &csock, server.addr(1234), 3, "x");
    });
    sim.run();
    EXPECT_EQ(net.stats().udpSent, 3u);
    EXPECT_EQ(net.stats().udpDelivered, 0u);
}

TEST_F(UdpTest, SharedSocketFansOutToMultipleReceivers)
{
    auto &ssock = server.udpBind(5060);
    auto &csock = client.udpBind(9000);
    std::vector<Datagram> got_a, got_b;
    serverMachine.spawn("rx_a", 0, [&](Process &p) {
        return recvN(p, &ssock, 5, &got_a);
    });
    serverMachine.spawn("rx_b", 0, [&](Process &p) {
        return recvN(p, &ssock, 5, &got_b);
    });
    clientMachine.spawn("tx", 0, [&](Process &p) {
        return sendN(p, &csock, server.addr(5060), 10, "m");
    });
    sim.run();
    EXPECT_EQ(got_a.size(), 5u);
    EXPECT_EQ(got_b.size(), 5u);
}

TEST_F(UdpTest, PollReadinessTracksQueue)
{
    auto &ssock = server.udpBind(5060);
    auto &csock = client.udpBind(9000);
    EXPECT_FALSE(ssock.pollReady());
    clientMachine.spawn("tx", 0, [&](Process &p) {
        return sendN(p, &csock, server.addr(5060), 1, "x");
    });
    sim.run();
    EXPECT_TRUE(ssock.pollReady());
    std::vector<Datagram> d;
    std::size_t bytes = 0;
    EXPECT_EQ(ssock.tryRecvBatch(d, 1, bytes), 1u);
    EXPECT_FALSE(ssock.pollReady());
}

TEST_F(UdpTest, BindingTakenPortThrows)
{
    server.udpBind(5060);
    EXPECT_THROW(server.udpBind(5060), NetError);
}

class UdpLossTest : public NetFixture
{
  protected:
    UdpLossTest()
        : NetFixture([] {
              NetConfig cfg;
              cfg.udpLossProb = 0.3;
              return cfg;
          }())
    {
    }
};

TEST_F(UdpLossTest, LossDropsConfiguredFraction)
{
    auto &csock = client.udpBind(9000);
    server.udpBind(5060);
    clientMachine.spawn("tx", 0, [&](Process &p) {
        return sendN(p, &csock, server.addr(5060), 2000, "x");
    });
    sim.run();
    EXPECT_EQ(net.stats().udpSent, 2000u);
    EXPECT_EQ(net.stats().udpLost + net.stats().udpDelivered, 2000u);
    double loss = static_cast<double>(net.stats().udpLost) / 2000.0;
    EXPECT_NEAR(loss, 0.3, 0.05);
}

class UdpTinyQueueTest : public NetFixture
{
  protected:
    UdpTinyQueueTest()
        : NetFixture([] {
              NetConfig cfg;
              cfg.udpRecvQueue = 4;
              return cfg;
          }())
    {
    }
};

TEST_F(UdpTinyQueueTest, ReceiveQueueOverflowDrops)
{
    auto &csock = client.udpBind(9000);
    server.udpBind(5060); // nobody reads
    clientMachine.spawn("tx", 0, [&](Process &p) {
        return sendN(p, &csock, server.addr(5060), 20, "x");
    });
    sim.run();
    EXPECT_EQ(net.stats().udpDelivered, 4u);
    EXPECT_EQ(net.stats().udpDropped, 16u);
}

} // namespace
