// PIOMan — the event server at the heart of the paper.
//
// One Server runs per node.  Communication layers (NewMadeleine's core, its
// collective engine, the RPC service) register *sources* — poll callbacks
// that advance their protocol state, with a work probe and an engine-context
// empty poll — and *post* deferred work items (e.g. the expensive injection of a small
// message, §2.2).  The server then exploits Marcel's trigger points:
//
//  * idle cores run the poll callbacks and the posted work (offload),
//  * timer ticks re-evaluate the detection method,
//  * context switches hand the poller role to a newly idle core,
//  * when every core is busy, a realtime "LWP" thread blocks on the NIC
//    interrupt line and preempts on arrival (§3.2).
//
// Threads wait for completions through piom::Cond (see cond.hpp), whose
// wait path flushes posted work and actively polls — so offloading never
// *delays* communication, it only moves work off the critical path.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/simtime.hpp"
#include "core/config.hpp"
#include "marcel/node.hpp"
#include "marcel/tasklet.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::piom {

class Cond;

/// Detection method currently in force (§3.2 "Rendezvous management").
enum class Method : std::uint8_t {
  kPolling,   // idle cores actively poll
  kBlocking,  // interrupts armed; the LWP blocks on them
};

class Server {
 public:
  /// One progress source of the node (the communication library's poll
  /// callback, its work probe and its engine-context empty poll).
  struct Source {
    /// Counted under "<prefix>/source/<name>/{polls,hits}"; sources that
    /// share a name share the counters.
    std::string name;

    /// Advance protocol state.  Runs on whatever core the server picked
    /// (service fiber, LWP, or a waiting thread); may consume CPU time;
    /// returns true if it made progress (completed or advanced at least
    /// one request).
    std::function<bool(marcel::Cpu&)> poll;

    /// Optional cheap engine-context probe for externally visible work
    /// (e.g. packets sitting in a NIC receive queue with no local request
    /// armed yet, or unexpected RPC-band messages awaiting dispatch).
    /// Idle cores keep polling while any source reports work.
    std::function<bool()> has_work = nullptr;

    /// Optional, engine context: when poll() would find nothing at this
    /// instant, do what that empty poll does (its lock traffic, say) and
    /// return true; otherwise return false and change nothing.  Poll
    /// rounds skip the fiber switch for a source only through this.
    std::function<bool()> poll_empty = nullptr;
  };

  /// Deferred work item (e.g. submit-to-NIC); may consume CPU time.
  using WorkFn = std::function<void()>;

  /// Hooks into the driver layer for interrupt-driven detection.
  struct BlockSupport {
    std::function<void()> enable_interrupts;
    std::function<void()> disable_interrupts;
  };

  Server(marcel::Node& node, Config cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] marcel::Node& node() noexcept { return node_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  // ---- registration (communication library side) ----

  /// Register a progress source; sources are polled in registration
  /// order.  Returns an id for remove_source().  A layer that dies before
  /// the server must remove its source (it captures the layer's state).
  int add_source(Source src);
  /// Unregister; mid-round (e.g. from inside a poll) the entry is
  /// tombstoned and swept once no round is open.
  void remove_source(int id);
  /// Registry size (live entries + tombstones); bounded by regression
  /// tests across register/unregister churn.
  [[nodiscard]] std::size_t source_slots() const noexcept {
    return sources_.size();
  }

  /// Provide (or clear) interrupt support; without it the server never
  /// switches to the blocking method.
  void set_block_support(BlockSupport support);

  // ---- event posting ----

  /// One more pollable request is outstanding: idle cores should poll.
  void arm();
  /// A pollable request completed.
  void disarm();
  [[nodiscard]] unsigned armed() const noexcept { return armed_; }

  /// Reactivity-critical request (a rendezvous handshake, §2.3): when no
  /// core is idle, these justify switching to the interrupt-driven
  /// blocking LWP.  Plain eager traffic does not — its processing happens
  /// in the wait path anyway, and an interrupt per packet would only
  /// preempt the computing threads.
  void arm_critical();
  void disarm_critical();
  [[nodiscard]] unsigned armed_critical() const noexcept {
    return critical_;
  }

  /// Defer a work item (offloadable submission).  If an idle core exists
  /// the item is dispatched to it through a tasklet; otherwise it stays
  /// queued until an idle core appears or a waiter flushes it (§2.2).
  void post(WorkFn work);

  /// Number of posted items not yet executed.
  [[nodiscard]] std::size_t posted_pending() const noexcept {
    return posted_.size();
  }

  /// The non-blocking progress entry (a test, an RPC progress call): run
  /// the posted work left on the queue, then one round of all sources on
  /// the calling fiber's CPU.  True if any source made progress.
  bool progress_once();

  /// Driver-side notification: a NIC interrupt fired (blocking mode).
  void on_interrupt();

  /// Driver-side notification: pollable work appeared (e.g. a packet was
  /// delivered); wakes parked idle cores so they resume polling.
  void notify_work();

  [[nodiscard]] Method method() const noexcept { return method_; }

  /// Stop the LWP so the simulation can drain (call before destruction in
  /// long-lived setups; optional for tests).
  void shutdown();

  /// For an owner whose engine dies with it and is stepped no more: let go
  /// of the LWP unjoined, so destruction runs no events (the destructor
  /// otherwise steps the engine until the LWP exits, which may run any
  /// node's threads).
  void detach_lwp() noexcept {
    shutdown_ = true;
    lwp_ = nullptr;
  }

  // ---- statistics ----
  struct Stats {
    std::uint64_t poll_rounds = 0;
    std::uint64_t posted_items = 0;
    std::uint64_t posted_offloaded = 0;  // executed by a non-posting core
    std::uint64_t posted_flushed = 0;    // executed inside a wait
    std::uint64_t interrupts = 0;
    std::uint64_t method_switches = 0;
    std::uint64_t cond_waits = 0;           // piom::Cond::wait_until entries
    std::uint64_t cond_passive_blocks = 0;  // waits that yielded the core
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Bind every counter above into `registry` under `prefix` (e.g.
  /// "node0/piom"), plus a computed "<prefix>/method_blocking" gauge and
  /// each source's "<prefix>/source/<name>/{polls,hits}" (also for sources
  /// added later).
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix);

 private:
  friend class Cond;

  struct PostedItem {
    WorkFn fn;
    marcel::Cpu* poster;
  };

  struct SourceStats {
    std::uint64_t polls = 0;
    std::uint64_t hits = 0;  // polls that made progress
  };

  struct SourceEntry {
    int id;
    Source src;
    SourceStats* stats;
    bool alive = true;  // tombstoned by remove_source mid-round
  };

  /// The node's one busy-poll loop, from the round it opens to the next
  /// loop top.  It runs in three modes: Cond::wait_until's (until the Cond
  /// is done; the deadline only stops the engine-context rounds, the
  /// waiter checks it at the top), the idle hook's (until no work is
  /// left) and progress_once's (one round, no poll_gap).  The fiber runs
  /// it through run_pass(); between its chunks, boundary() runs the same
  /// steps in engine context while every check finds nothing to do (see
  /// docs/concurrency.md §8).
  struct Poller final : marcel::Cpu::PollLoop {
    enum class Mode : std::uint8_t { kCond, kIdle, kOnce };
    /// Where the loop stands.  Only boundary() and run_pass() move it.
    enum class At : std::uint8_t {
      kNext,    // round open: burn for the next live source from `src`,
                // or close the round
      kBurned,  // round open, source `src` burnt for: poll it
      kTop,     // back at the loop top (idle hook: return has_work())
      kEnd,     // the loop ends: the Cond is done, no work is left, or
                // progress_once's round closed
    };
    Poller(Server& s, Mode m, const Cond* c = nullptr,
           SimTime d = kSimTimeNever) noexcept
        : server(s), mode(m), cond(c), deadline(d) {}
    SimDuration boundary(marcel::Cpu& cpu) override;

    Server& server;
    Mode mode;
    const Cond* cond;             // kCond only
    SimTime deadline;             // kCond only
    marcel::Cpu* cpu = nullptr;   // where the round opened: sources poll it
    At at = At::kTop;
    std::size_t src = 0;
    bool progress = false;
  };

  /// Execute all queued posted work on the calling fiber's CPU (wait path:
  /// "the message is sent inside the wait function").
  void flush_posted();

  // Poll-loop steps shared by the fiber and the engine-context boundary.
  void open_round(Poller& p, marcel::Cpu& cpu);
  void close_round(marcel::Cpu& cpu);
  /// Sets p.at after a closed round; returns the gap to burn first.
  SimDuration after_round(Poller& p);
  [[nodiscard]] std::size_t next_source(std::size_t i) const noexcept;
  [[nodiscard]] bool top_quiet(const Poller& p, marcel::Cpu& cpu) const;
  /// Fiber side: runs `p` from its position to the next loop top (true)
  /// or the loop's end (false).
  bool run_pass(Poller& p);
  void burn_chunks(Poller& p, SimDuration d);
  bool poll_source(SourceEntry& e, marcel::Cpu& cpu);
  SourceStats& stats_for(const std::string& name);

  bool idle_hook(marcel::Cpu& cpu);
  void tick_hook(marcel::Cpu& cpu);
  void switch_hook(marcel::Cpu& cpu);
  void offload_tasklet_body();
  void lwp_body();
  void update_method();
  bool run_posted(marcel::Cpu& cpu);

  marcel::Node& node_;
  Config cfg_;

  // unique_ptr entries: addresses stay stable when a callback registers a
  // new source (push_back may reallocate) while a round iterates.
  std::vector<std::unique_ptr<SourceEntry>> sources_;
  int next_source_id_ = 1;
  int poll_round_depth_ = 0;    // rounds can nest across fibers
  bool sources_dirty_ = false;  // tombstones awaiting the depth-0 sweep
  // Per-name counters; a map keeps their addresses stable for binding.
  std::map<std::string, SourceStats, std::less<>> source_stats_;
  MetricsRegistry* metrics_ = nullptr;  // set by bind_metrics()
  std::string metrics_prefix_;

  unsigned armed_ = 0;
  unsigned critical_ = 0;  // subset of armed_ needing interrupt fallback
  std::deque<PostedItem> posted_;
  marcel::Tasklet offload_tasklet_;
  marcel::Cpu* poll_owner_ = nullptr;

  /// True when any request is armed, work is posted, or a source reports
  /// externally pending events.
  [[nodiscard]] bool has_work() const;

  BlockSupport block_support_;
  bool interrupts_enabled_ = false;
  Method method_ = Method::kPolling;

  marcel::Thread* lwp_ = nullptr;
  bool lwp_waiting_ = false;
  bool lwp_has_event_ = false;
  bool shutdown_ = false;

  int idle_hook_id_ = 0;
  int tick_hook_id_ = 0;
  int switch_hook_id_ = 0;

  Stats stats_;
};

}  // namespace pm2::piom
