// App-driven waits park between empty polls (marcel::Cpu::spin_wait) and
// resume on the exact poll boundary the stepped loop would have polled on.
// Every completion time below was measured with the stepped loop (one
// compute(app_poll_gap) event per empty poll); the parked loop must
// reproduce it to the nanosecond, with far fewer events.
#include <gtest/gtest.h>

#include <vector>

#include "pm2/cluster.hpp"

namespace pm2::nm {
namespace {

using marcel::this_thread::compute;

ClusterConfig app_cfg(unsigned cpus) {
  ClusterConfig c;
  c.cpus_per_node = cpus;
  c.pioman = false;
  return c;
}

struct Arrival {
  SimTime done = 0;        // receiver's wait() returned
  double latency_us = 0;   // receive posted -> request completed
  std::uint64_t events = 0;
  std::uint64_t parks = 0;
  std::uint64_t elided = 0;
  std::uint64_t inlined = 0;  // compute chunks run ahead without an event
};

// Node 1 posts a 64 B receive at t=0 and waits; node 0 computes `delay`
// and sends it.  The receiver's empty polls fall every 300 ns.
Arrival eager_arrival(SimDuration delay) {
  Cluster cluster(app_cfg(2));
  std::vector<std::byte> data(64, std::byte{7});
  std::vector<std::byte> rx(64);
  Arrival a;
  cluster.run_on(0, [&] {
    compute(delay);
    cluster.comm(0).wait(cluster.comm(0).isend(1, 1, data));
  }, "tx", 0);
  cluster.run_on(1, [&] {
    cluster.comm(1).wait(cluster.comm(1).irecv(0, 1, rx));
    a.done = cluster.now();
  }, "rx", 1);
  cluster.run();
  EXPECT_EQ(rx, data);
  a.latency_us = cluster.comm(1).recv_latency_us().max();
  a.events = cluster.engine().events_processed();
  a.parks = static_cast<std::uint64_t>(
      cluster.metrics().value("node1/cpu1/spin_parks"));
  a.elided = static_cast<std::uint64_t>(
      cluster.metrics().value("node1/cpu1/polls_elided"));
  a.inlined = cluster.metrics().sum("node", "/chunks_inlined");
  return a;
}

TEST(SpinWait, ArrivalOnPollBoundaryIsSeenOnThatBoundary) {
  // delay 20299 lands the packet exactly on a poll boundary: the stepped
  // loop's poll there already sees it.  One ns later it waits a step.
  const Arrival on = eager_arrival(20299);
  EXPECT_EQ(on.done, 24002u);
  EXPECT_DOUBLE_EQ(on.latency_us, 23.072);
  const Arrival after = eager_arrival(20300);
  EXPECT_EQ(after.done, 24302u);
  EXPECT_DOUBLE_EQ(after.latency_us, 23.372);
  // The stepped loop took 91 events: each elided poll and each compute
  // chunk run ahead is one event saved.
  EXPECT_EQ(on.parks, 1u);
  EXPECT_EQ(on.events + on.elided + on.inlined, 91u);
  EXPECT_LE(on.events, 20u);
}

TEST(SpinWait, ArrivalMidStepWaitsForTheNextBoundary) {
  const Arrival mid = eager_arrival(20150);
  EXPECT_EQ(mid.done, 24002u);
  EXPECT_DOUBLE_EQ(mid.latency_us, 23.072);
  EXPECT_LE(mid.events, 20u);
}

TEST(SpinWait, RealtimePreemptionCutsTheSpinMidStep) {
  // One core per node: a realtime thread spawned mid-step preempts the
  // parked receiver at once; the receiver finishes its partial step after
  // it and keeps polling on the shifted grid.
  Cluster cluster(app_cfg(1));
  std::vector<std::byte> data(64, std::byte{3});
  std::vector<std::byte> rx(64);
  SimTime rx_done = 0;
  SimTime rt_done = 0;
  marcel::Thread* rx_thread = nullptr;
  cluster.run_on(0, [&] {
    compute(20 * kUs);
    cluster.comm(0).wait(cluster.comm(0).isend(1, 1, data));
  });
  rx_thread = &cluster.run_on(1, [&] {
    cluster.comm(1).wait(cluster.comm(1).irecv(0, 1, rx));
    rx_done = cluster.now();
  });
  cluster.engine().schedule_at(5 * kUs + 150, [&] {
    cluster.node(1).spawn([&] {
      compute(1 * kUs);
      rt_done = cluster.now();
    }, marcel::Priority::kRealtime, "rt");
  });
  cluster.run();
  EXPECT_EQ(rx, data);
  EXPECT_EQ(rt_done, 6400u);
  EXPECT_EQ(rx_done, 24002u);
  EXPECT_EQ(rx_thread->cpu_time(), 22252u);
  EXPECT_LE(cluster.engine().events_processed(), 30u);  // stepped: 93
}

TEST(SpinWait, SiblingProgressCompletesTheSpinnersRequest) {
  // Node 1 cpu 0 waits; from 18 µs on, cpu 1 runs its own progress()
  // every 100 ns and is the one that consumes the packet and completes
  // the request.  Each of its steps wakes the parked waiter.
  Cluster cluster(app_cfg(2));
  std::vector<std::byte> data(64, std::byte{5});
  std::vector<std::byte> rx(64);
  SimTime done = 0;
  bool waiter_done = false;
  unsigned poller_rounds_with_work = 0;
  cluster.run_on(0, [&] {
    compute(20 * kUs);
    cluster.comm(0).wait(cluster.comm(0).isend(1, 1, data));
  }, "tx", 0);
  cluster.run_on(1, [&] {
    cluster.comm(1).wait(cluster.comm(1).irecv(0, 1, rx));
    done = cluster.now();
    waiter_done = true;
  }, "waiter", 0);
  cluster.run_on(1, [&] {
    compute(18 * kUs);
    while (!waiter_done) {
      if (cluster.comm(1).progress(marcel::this_thread::cpu())) {
        ++poller_rounds_with_work;
      }
      compute(100);
    }
  }, "poller", 1);
  cluster.run();
  EXPECT_EQ(rx, data);
  EXPECT_EQ(done, 23730u);
  EXPECT_DOUBLE_EQ(cluster.comm(1).recv_latency_us().max(), 22.792);
  EXPECT_EQ(poller_rounds_with_work, 1u);
  EXPECT_LE(cluster.engine().events_processed(), 100u);  // stepped: 144
}

TEST(SpinWait, RendezvousSendCompletesThroughRdmaDelivery) {
  // The sender's request completes in engine context when the RDMA put
  // lands (on_delivered), not in any poll: that completion must wake it.
  Cluster cluster(app_cfg(2));
  std::vector<std::byte> data(64 * 1024, std::byte{9});
  std::vector<std::byte> rx(64 * 1024);
  SimTime tx_done = 0;
  SimTime rx_done = 0;
  cluster.run_on(0, [&] {
    cluster.comm(0).wait(cluster.comm(0).isend(1, 1, data));
    tx_done = cluster.now();
  });
  cluster.run_on(1, [&] {
    compute(10 * kUs);
    cluster.comm(1).wait(cluster.comm(1).irecv(0, 1, rx));
    rx_done = cluster.now();
  });
  cluster.run();
  EXPECT_EQ(rx, data);
  EXPECT_EQ(cluster.comm(0).stats().rdv_sends, 1u);
  EXPECT_EQ(tx_done, 68899u);
  EXPECT_EQ(rx_done, 69249u);
  EXPECT_LE(cluster.engine().events_processed(), 40u);  // stepped: 433
}

TEST(SpinWait, WaitForTimesOutOnTheFirstBoundaryAtOrAfterTheDeadline) {
  Cluster cluster(app_cfg(2));
  std::vector<std::byte> data(64, std::byte{1});
  std::vector<std::byte> rx(64);
  Status st = Status::kOk;
  SimTime t0 = 0;
  SimTime timed_out = 0;
  SimTime done = 0;
  cluster.run_on(1, [&] {
    Request* r = cluster.comm(1).irecv(0, 1, rx);
    t0 = cluster.now();
    st = cluster.comm(1).wait_for(r, 10 * kUs + 7);
    timed_out = cluster.now();
    cluster.comm(1).wait(r);
    done = cluster.now();
  });
  cluster.run_on(0, [&] {
    compute(30 * kUs);
    cluster.comm(0).wait(cluster.comm(0).isend(1, 1, data));
  });
  cluster.run();
  EXPECT_EQ(st, Status::kTimedOut);
  EXPECT_EQ(t0, 930u);
  EXPECT_EQ(timed_out, 11130u);
  EXPECT_EQ(done, 33902u);
  EXPECT_LE(cluster.engine().events_processed(), 25u);  // stepped: 124
}

TEST(SpinWaitDeathTest, UnmatchedAppDrivenReceiveFailsLoudly) {
  // Nothing will ever send: with the wait parked, the queue drains, and
  // run() must say which wait is stuck instead of returning or spinning.
  Cluster cluster(app_cfg(2));
  std::vector<std::byte> rx(64);
  cluster.run_on(1, [&] {
    cluster.comm(1).wait(cluster.comm(1).irecv(0, 1, rx));
  }, "lonely", 1);
  EXPECT_DEATH(cluster.run(),
               "node 1 cpu 1 thread 'lonely', parked since t=[0-9]+ ns");
}

}  // namespace
}  // namespace pm2::nm
