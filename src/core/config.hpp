// PIOMan tunables.
#pragma once

#include "common/simtime.hpp"

namespace pm2::piom {

struct Config {
  /// Cost of invoking one registered poll callback (queue inspection,
  /// function dispatch) — charged per source per round, on top of whatever
  /// the callback itself consumes.
  SimDuration ltask_poll_cost = 150;  // ns

  /// Busy-wait gap inserted between two empty poll rounds, bounding the
  /// polling frequency of an idle core.
  SimDuration poll_gap = 300;  // ns

  /// Extra CPU cost charged when offloaded work executes on a different
  /// core than the one that posted it (cache-line transfers for the request
  /// metadata — the "cache effects" of §2.2).  Together with the tasklet
  /// dispatch + wakeup path this yields the ≈2 µs offload overhead the
  /// paper measures in §4.1.
  SimDuration remote_exec_penalty = 900;  // ns

  /// Cost of handling a NIC interrupt + waking the blocking LWP (§3.2,
  /// "blocking call on a specialized kernel thread").
  SimDuration interrupt_cost = 1600;  // ns

  /// Allow falling back to the interrupt-driven blocking LWP when every
  /// core is busy.  With this off, reactivity relies purely on polling.
  bool enable_blocking_lwp = true;

  /// Dispatch pending offloaded submissions from the timer tick even when
  /// every core is busy (softirq-style: the tasklet briefly preempts the
  /// computing thread).  Bounds submission latency by one tick, but puts
  /// the cost back on a computing core — whether that pays off is
  /// workload-dependent (the paper's §5 lists "an adaptive strategy to
  /// choose whether to offload" as future work).  Off by default; the
  /// ablation benchmark explores it.
  bool offload_on_tick = false;
};

}  // namespace pm2::piom
