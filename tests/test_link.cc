// Tests for the point-to-point link model.
#include "net/link.h"

#include <vector>

#include <gtest/gtest.h>

namespace msamp::net {
namespace {

Packet pkt(std::int32_t bytes, FlowId flow = 1) {
  Packet p;
  p.flow = flow;
  p.bytes = bytes;
  return p;
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  sim::Simulator simulator;
  std::vector<sim::SimTime> arrivals;
  LinkConfig cfg{.gbps = 12.5, .propagation = 1000, .queue_limit_bytes = 1 << 20};
  Link link(simulator, cfg, [&](const Packet&) {
    arrivals.push_back(simulator.now());
  });
  link.send(pkt(1500));  // 960ns serialize + 1000ns propagation
  simulator.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 1960);
}

TEST(Link, BackToBackPacketsPipelineOnTheWire) {
  sim::Simulator simulator;
  std::vector<sim::SimTime> arrivals;
  LinkConfig cfg{.gbps = 12.5, .propagation = 1000, .queue_limit_bytes = 1 << 20};
  Link link(simulator, cfg, [&](const Packet&) {
    arrivals.push_back(simulator.now());
  });
  link.send(pkt(1500));
  link.send(pkt(1500));
  simulator.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second packet starts serializing when the first finishes.
  EXPECT_EQ(arrivals[0], 1960);
  EXPECT_EQ(arrivals[1], 2920);
}

TEST(Link, PreservesFifoOrder) {
  sim::Simulator simulator;
  std::vector<FlowId> order;
  LinkConfig cfg;
  Link link(simulator, cfg, [&](const Packet& p) { order.push_back(p.flow); });
  for (FlowId f = 1; f <= 5; ++f) link.send(pkt(1500, f));
  simulator.run();
  EXPECT_EQ(order, (std::vector<FlowId>{1, 2, 3, 4, 5}));
}

TEST(Link, PacketFifoWrapsThenGrowsInOrder) {
  // Fill the first 16-slot ring part way, drain most of it so the head
  // moves on, refill to exactly 16 queued so the tail wraps past the end,
  // then push 20 more so the ring grows twice while it is wrapped.
  PacketFifo fifo;
  FlowId next_in = 1, next_out = 1;
  for (int i = 0; i < 10; ++i) fifo.push_back(pkt(100, next_in++));
  for (int i = 0; i < 7; ++i) EXPECT_EQ(fifo.pop_front().flow, next_out++);
  for (int i = 0; i < 13; ++i) fifo.push_back(pkt(100, next_in++));
  for (int i = 0; i < 20; ++i) fifo.push_back(pkt(100, next_in++));
  while (!fifo.empty()) EXPECT_EQ(fifo.pop_front().flow, next_out++);
  EXPECT_EQ(next_out, next_in);
  // The drained FIFO handed its grown ring back and starts a fresh one.
  fifo.push_back(pkt(100, next_in++));
  EXPECT_EQ(fifo.pop_front().flow, next_out++);
  EXPECT_TRUE(fifo.empty());
}

TEST(Link, DropsWhenQueueFull) {
  sim::Simulator simulator;
  int delivered = 0;
  LinkConfig cfg{.gbps = 1.0, .propagation = 0, .queue_limit_bytes = 4000};
  Link link(simulator, cfg, [&](const Packet&) { ++delivered; });
  EXPECT_TRUE(link.send(pkt(1500)));
  EXPECT_TRUE(link.send(pkt(1500)));
  EXPECT_FALSE(link.send(pkt(1500)));  // 4500 > 4000
  EXPECT_EQ(link.drops(), 1u);
  simulator.run();
  EXPECT_EQ(delivered, 2);
}

TEST(Link, BacklogTracksQueuedBytes) {
  sim::Simulator simulator;
  LinkConfig cfg{.gbps = 1.0, .propagation = 0, .queue_limit_bytes = 1 << 20};
  Link link(simulator, cfg, [](const Packet&) {});
  link.send(pkt(1000));
  link.send(pkt(2000));
  EXPECT_EQ(link.backlog(), 3000);
  simulator.run();
  EXPECT_EQ(link.backlog(), 0);
}

TEST(Link, OfferedBytesIncludesDrops) {
  sim::Simulator simulator;
  LinkConfig cfg{.gbps = 1.0, .propagation = 0, .queue_limit_bytes = 1000};
  Link link(simulator, cfg, [](const Packet&) {});
  link.send(pkt(800));
  link.send(pkt(800));  // dropped
  EXPECT_EQ(link.offered_bytes(), 1600);
  EXPECT_EQ(link.drops(), 1u);
  simulator.run();
}

TEST(Link, InjectedDropsAreDeterministic) {
  sim::Simulator simulator;
  int delivered = 0;
  LinkConfig cfg;
  cfg.drop_every_n = 3;
  Link link(simulator, cfg, [&](const Packet&) { ++delivered; });
  for (int i = 0; i < 9; ++i) link.send(pkt(100));
  simulator.run();
  EXPECT_EQ(delivered, 6);  // packets 3, 6, 9 dropped
  EXPECT_EQ(link.drops(), 3u);
}

TEST(Link, DropInjectionDisabledByDefault) {
  sim::Simulator simulator;
  int delivered = 0;
  Link link(simulator, LinkConfig{}, [&](const Packet&) { ++delivered; });
  for (int i = 0; i < 100; ++i) link.send(pkt(100));
  simulator.run();
  EXPECT_EQ(delivered, 100);
}

TEST(Link, FasterLinkSerializesQuicker) {
  sim::Simulator simulator;
  sim::SimTime t_slow = 0, t_fast = 0;
  LinkConfig slow{.gbps = 12.5, .propagation = 0, .queue_limit_bytes = 1 << 20};
  LinkConfig fast{.gbps = 100.0, .propagation = 0, .queue_limit_bytes = 1 << 20};
  Link l1(simulator, slow, [&](const Packet&) { t_slow = simulator.now(); });
  Link l2(simulator, fast, [&](const Packet&) { t_fast = simulator.now(); });
  l1.send(pkt(1500));
  l2.send(pkt(1500));
  simulator.run();
  EXPECT_EQ(t_slow, 960);
  EXPECT_EQ(t_fast, 120);
}

}  // namespace
}  // namespace msamp::net
