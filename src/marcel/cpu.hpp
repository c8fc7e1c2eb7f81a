// One virtual core: per-priority runqueues, a tasklet queue, and a service
// fiber that executes tasklets and idle-time polling (PIOMan's hooks).  The
// service fiber and its stack are built the first time the core enters
// service mode, so a core that only runs threads maps no service stack.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/intrusive_list.hpp"
#include "common/simtime.hpp"
#include "marcel/config.hpp"
#include "marcel/tasklet.hpp"
#include "marcel/thread.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::marcel {

class Node;

/// Why the occupying fiber suspended — set by the fiber-side helpers and
/// consumed by the engine-side dispatcher.
enum class SuspendReason : std::uint8_t {
  kNone,
  kCompute,       // resume event already scheduled; CPU stays busy
  kYield,         // thread gives up the CPU, stays ready
  kPreempted,     // like kYield, but caused by need_resched
  kBlocked,       // waiting on a sync object / communication event
  kServiceDone,   // service fiber batch complete, re-decide
  kServicePark,   // service fiber found no work at all
};

/// Core-state timeline: every instant of a core's simulated time is
/// attributed to exactly one state, so the per-state counters sum to the
/// total elapsed sim-time once flush_core_state() folds the open interval.
enum class CoreState : std::uint8_t {
  kIdle = 0,     // halted, or dispatch/wakeup latency with no prior blocker
  kApp = 1,      // a thread running application compute
  kEngine = 2,   // engine progression: idle polling or a thread inside an
                 // EngineScope (app-driven progress, offload flush)
  kTasklet = 3,  // the service fiber draining tasklets
  kBlocked = 4,  // halted because the last occupant blocked on an event
};
inline constexpr std::size_t kNumCoreStates = 5;

/// Printable name of a core state ("idle", "app", ...).
[[nodiscard]] const char* core_state_name(CoreState s) noexcept;

/// The core's timers, which name the origin of its heap events.
enum class CpuTimer : std::uint8_t {
  kDispatch,
  kResume,
  kSwitch,
  kPoll,
  kGranule,
  kTick,
  kDeadline,
};
inline constexpr std::size_t kNumTimers = 7;

/// Printable name of a core timer ("dispatch", "resume", ...).
[[nodiscard]] const char* cpu_timer_name(CpuTimer t) noexcept;

class Cpu {
 public:
  /// The engine-context half of a busy-poll loop that burns its chunks
  /// through poll_chunk() (piom::Server's poll rounds).
  class PollLoop {
   public:
    /// Engine context, at the end of a poll_chunk() chunk that was charged
    /// with no preemption due: do what the fiber would do from here up to
    /// its next chunk and return that chunk's length (at most the quantum),
    /// or return 0 to resume the fiber, leaving untouched what it must
    /// still do itself.
    virtual SimDuration boundary(Cpu& cpu) = 0;

    /// Engine context, side-effect free: true when every boundary() from
    /// the armed chunk's end on would return a next chunk, finding
    /// nothing to do and touching no other core's loop, until an event of
    /// the node changes some state it reads.  The chunk ends are then
    /// parked (sim::Engine::park()).
    [[nodiscard]] virtual bool quiet(Cpu& cpu) const = 0;

    /// Engine context, while quiet() holds: boundary(), leaving the empty
    /// polls' side effects to settle().
    virtual SimDuration skip(Cpu& cpu) = 0;
    /// Engine context: do what the skipped boundaries left for later.
    virtual void settle(Cpu& cpu) = 0;

   protected:
    ~PollLoop() = default;
  };

  Cpu(Node& node, unsigned index, const Config& cfg, sim::Engine& engine);
  ~Cpu();

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  [[nodiscard]] Node& node() noexcept { return node_; }
  /// Index of the CPU within its node.
  [[nodiscard]] unsigned index() const noexcept { return index_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }

  // ----- engine/fiber-context API (scheduler) -----

  /// Make a thread runnable on this CPU.  `front` puts it ahead of its
  /// priority class (used for realtime wakeups).
  void enqueue(Thread& t, bool front = false);

  /// Queue a tasklet (called via Tasklet::schedule_on).
  void tasklet_enqueue(Tasklet& t);

  /// Ensure a dispatch will happen; `delay` models IPI/wakeup latency.
  void kick(SimDuration delay = 0);

  /// Record that new pollable work exists: clears the idle-park latch so
  /// the next dispatch may re-enter the idle-polling loop.
  void note_new_work() noexcept;

  /// True while some fiber logically occupies the core.
  [[nodiscard]] bool busy() const noexcept { return occ_ != Occupant::kNone; }

  /// True when the core runs nothing and has nothing queued.
  [[nodiscard]] bool idle() const noexcept {
    return occ_ == Occupant::kNone && ready_count_ == 0 && tasklets_.empty();
  }

  /// True if the core is currently inside the idle-polling service loop
  /// (counts as "available" for PIOMan placement decisions).
  [[nodiscard]] bool idle_polling() const noexcept {
    return occ_ == Occupant::kService && service_idle_mode_;
  }

  [[nodiscard]] Thread* current_thread() noexcept {
    return occ_ == Occupant::kThread ? cur_thread_ : nullptr;
  }

  /// Request a reschedule at the occupant's next preemption point.  When
  /// `hard` is set and the occupant is mid-compute, the compute chunk is cut
  /// short immediately (used for realtime/interrupt wakeups).
  void request_resched(bool hard = false);

  /// Number of ready threads queued here.
  [[nodiscard]] std::size_t runnable() const noexcept { return ready_count_; }
  [[nodiscard]] bool has_tasklets() const noexcept {
    return !tasklets_.empty();
  }

  // ----- fiber-context API (called by the occupying fiber) -----

  /// Consume up to one chunk of CPU time; returns the amount still to
  /// compute.  Callers loop via this_thread::compute(), re-fetching the
  /// current CPU each iteration because a preemption may migrate the
  /// thread.  Also usable from the service fiber (tasklet/poll costs).
  /// When sim::Engine::run_ahead() allows it (and lockdep is off), the
  /// chunk runs inline: the node's clock jumps to the chunk end with no
  /// event and no fiber switch (Stats::chunks_inlined).
  [[nodiscard]] SimDuration compute_chunk(SimDuration d);

  /// compute_chunk() for a busy-wait on a lock word, in `step` granules:
  /// `d` is what is left of the current granule.  The virtual-time outcome
  /// is that of looping `while (*word) compute(step)`: each granule end
  /// draws its (time, seq) key where the stepped loop's resume event would,
  /// and the fiber switches are skipped; while the word stays set the key
  /// is parked (sim::Engine::park()), so it costs no heap push or pop.
  /// While a granule ends with `*word` still set and no preemption due, it
  /// charges the granule and re-arms the next one;
  /// the fiber resumes (and re-checks the word) once the word clears, a
  /// preemption is due, or a hard resched cuts the granule.  Falls back to
  /// compute_chunk() under the schedule fuzzer or when `step` exceeds the
  /// quantum.
  [[nodiscard]] SimDuration spin_chunk(SimDuration d, SimDuration step,
                                       const void* const* word);

  /// compute_chunk() for a busy-poll loop: `d` (at most the quantum) is
  /// one chunk of the loop.  Each chunk end draws its (time, seq) key where
  /// the stepped loop's resume event would, but runs `loop.boundary()` in
  /// engine context instead of resuming the fiber; while that returns a
  /// next chunk, the chunk is charged and the next one armed without a
  /// fiber switch, and parked while `loop.quiet()` holds.  The fiber
  /// resumes when the boundary declines, a
  /// preemption is due, or a hard resched cuts the chunk (then the rest of
  /// the cut chunk is returned, as compute_chunk() does).  Falls back to
  /// compute_chunk() under the schedule fuzzer or lockdep, or when `d`
  /// exceeds the quantum.
  [[nodiscard]] SimDuration poll_chunk(SimDuration d, PollLoop& loop);

  /// Engine context, for a PollLoop on the service fiber whose idle hook
  /// just asked to be polled again: true when the service loop would call
  /// the idle hooks again at once (still in idle mode, no ready thread or
  /// tasklet, and a single idle hook to call).
  [[nodiscard]] bool service_repolls() const noexcept;
  /// Engine context: the service loop's bookkeeping before that call.
  void service_round_begin();
  /// A poll round was opened in engine context (Stats::engine_polls).
  void count_engine_poll() noexcept { ++stats_.engine_polls; }

  /// Yield from the current thread.
  void yield_current();

  /// Block the current thread; a waker must hold the Thread* and call
  /// Node::wake() later.
  void block_current();

  /// Busy-wait in whole steps: the virtual-time outcome of looping
  /// `compute(step)` while every poll between the steps finds nothing,
  /// without one event per step.  The thread parks with its core busy and
  /// the first spin_wake() resumes it on the first boundary `t0 + k·step`
  /// (k ≥ 1) at or after the wake, charging the elapsed steps in one
  /// piece; the caller then polls as it would have on that boundary.  A
  /// hard request_resched() resumes at once and finishes the partial step
  /// the way compute() does (so the thread may return migrated).  With a
  /// `deadline`, the wait also ends on the first boundary at or after it.
  /// Falls back to plain compute(step) under the schedule fuzzer, from a
  /// service fiber, when a preemption is due, or when the deadline is at
  /// most one step away.
  void spin_wait(SimDuration step, SimTime deadline = kSimTimeNever);

  /// Wake a spin_wait() parked on this CPU (no-op otherwise): resume it on
  /// its first step boundary at or after now.  Engine or fiber context.
  void spin_wake();

  /// True while a thread is parked in spin_wait() here, and since when.
  [[nodiscard]] bool spin_parked() const noexcept { return spin_parked_; }
  [[nodiscard]] SimTime spin_since() const noexcept { return spin_t0_; }

  /// Keep the current thread on this core through its critical section:
  /// compute_chunk() will not honour need_resched while the count is
  /// non-zero.  Used by nm::EngineLock so a lock holder cannot be parked
  /// behind a fiber spinning on the very lock it holds.
  void preempt_disable() noexcept { ++preempt_off_; }
  void preempt_enable() noexcept;

  /// Mark the current thread occupant as doing engine progression (nested).
  /// No-op for service fibers — their time is already attributed to the
  /// engine/tasklet states — and the depth lives on the Thread, so the
  /// attribution survives preemption and migration.
  void engine_scope_enter() noexcept;
  void engine_scope_exit() noexcept;

  /// Sim-time spent in each CoreState (flush_core_state() first for an
  /// up-to-date view that sums to engine().now()).
  [[nodiscard]] const SimDuration* state_ns() const noexcept {
    return state_ns_;
  }

  /// Fold the open state interval into the counters without changing state.
  void flush_core_state();

  // ----- statistics -----
  struct Stats {
    SimDuration thread_busy_ns = 0;   // application thread compute
    SimDuration service_busy_ns = 0;  // tasklets + idle polling
    std::uint64_t tasklets_run = 0;
    std::uint64_t ctx_switches = 0;
    std::uint64_t steals = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t spin_parks = 0;    // spin_wait() parks
    std::uint64_t polls_elided = 0;  // empty poll steps skipped while parked
    std::uint64_t spin_granules = 0; // lock-spin granules re-armed in engine
                                     // context (no fiber switch)
    std::uint64_t engine_polls = 0;  // poll rounds opened in engine context
    std::uint64_t compute_chunks = 0;  // compute_chunk() chunks taken
    std::uint64_t chunks_inlined = 0;  // of which ran ahead inline, with
                                       // no event or fiber switch
    std::uint64_t chunks_parked = 0;   // poll-chunk and granule ends run
                                       // from the engine's parked list
    std::uint64_t granules_parked = 0;  // of which granule ends
                                        // (sim/events/parked/granule,
                                        // summed; not bound per core)
    // Heap events run per timer (sim/events/origin/<name>, summed over
    // the cluster; not bound per core).
    std::uint64_t heap_events[kNumTimers] = {};

    void merge(const Stats& o) noexcept {
      thread_busy_ns += o.thread_busy_ns;
      service_busy_ns += o.service_busy_ns;
      tasklets_run += o.tasklets_run;
      ctx_switches += o.ctx_switches;
      steals += o.steals;
      dispatches += o.dispatches;
      spin_parks += o.spin_parks;
      polls_elided += o.polls_elided;
      spin_granules += o.spin_granules;
      engine_polls += o.engine_polls;
      compute_chunks += o.compute_chunks;
      chunks_inlined += o.chunks_inlined;
      chunks_parked += o.chunks_parked;
      granules_parked += o.granules_parked;
      for (std::size_t i = 0; i < kNumTimers; ++i) {
        heap_events[i] += o.heap_events[i];
      }
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Bind every counter above into `registry` under `prefix` (e.g.
  /// "node0/cpu3").  SimDuration fields export as nanosecond counters.
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix) const;

 private:
  friend class Node;

  enum class Occupant : std::uint8_t { kNone, kThread, kService };

  // sim::Timer entry point: counts a heap run of timer `T`, then runs
  // member `M`.
  template <void (Cpu::*M)(), CpuTimer T>
  static void on_timer(void* cpu);
  // Counts the run of a chain timer, parked or from the heap.
  void count_chain_end(const sim::Timer& t, CpuTimer kind) noexcept;
  // Arms or, when `keep`, parks `t` for the end of the current chunk.
  void arm_chunk_end(sim::Timer& t, bool keep);
  // Parking callbacks of the poll-chunk and granule timers: whether the
  // armed end may stay parked, and a parked end run cheaply.
  [[nodiscard]] bool poll_keeps();
  [[nodiscard]] bool granule_keeps() noexcept;
  [[nodiscard]] SimDuration skip_poll_chunk();
  void settle_poll_chunks();
  [[nodiscard]] SimDuration skip_granule() noexcept;
  void skip_granules(std::uint64_t n) noexcept;

  static const sim::Timer::Parking kPollParking;
  static const sim::Timer::Parking kGranuleParking;

  // Engine-context internals.
  void dispatch();
  void begin_run(Occupant what, Thread* t);
  void run_occupant();
  void resume_occupant();
  void end_spin_granule();
  void end_poll_chunk();
  [[nodiscard]] bool preemption_due() const noexcept {
    return need_resched_ && occ_ == Occupant::kThread && preempt_off_ == 0;
  }
  void handle_suspension();
  Thread* pick_thread();
  Thread* try_steal();
  void arm_tick();
  void resume_tick();
  void on_tick();
  void finish_thread(Thread& t);
  void trace_occupancy_end();

  // Fiber-context internals.
  void service_body();
  void run_one_tasklet(Tasklet& t);
  void suspend_current(SuspendReason r);
  void charge(SimDuration d);
  void set_core_state(CoreState s);

  Node& node_;
  unsigned index_;
  const Config& cfg_;
  sim::Engine& engine_;

  IntrusiveList<Thread, &Thread::rq_hook> rq_[kNumPriorities];
  std::size_t ready_count_ = 0;
  IntrusiveList<Tasklet, &Tasklet::queue_hook> tasklets_;

  bool service_idle_mode_ = false;
  std::uint64_t work_seq_ = 0;          // bumped by note_new_work()
  std::uint64_t service_round_seq_ = 0; // work_seq_ at idle-round start
  bool idle_park_ = false;              // idle polling found nothing; wait for new work

  Occupant occ_ = Occupant::kNone;
  Thread* cur_thread_ = nullptr;
  SuspendReason last_suspend_ = SuspendReason::kNone;
  bool need_resched_ = false;
  unsigned preempt_off_ = 0;

  CoreState state_ = CoreState::kIdle;
  SimTime state_since_ = 0;
  SimDuration state_ns_[kNumCoreStates] = {};
  std::string state_track_;  // cached "node<i>/cpu<j>/state"

  // The core's seven events, each a caller-owned engine timer.  At most
  // one of resume/switch/granule/poll is armed: the occupant's next
  // resumption.  Granule and poll-chunk ends may be parked.
  sim::Timer dispatch_timer_;  // dispatch() after a kick
  sim::Timer resume_timer_;    // compute-chunk end, spin_wait() wake
  sim::Timer switch_timer_;    // context-switch end, hard-cut resume
  sim::Timer granule_timer_;   // spin_chunk() granule end
  sim::Timer poll_timer_;      // poll_chunk() chunk end
  sim::Timer tick_timer_;      // timer tick
  sim::Timer deadline_timer_;  // spin_wait() deadline wake
  SimTime dispatch_time_ = 0;  // unperturbed time of the armed dispatch

  SimTime chunk_start_ = 0;
  SimDuration chunk_len_ = 0;
  // spin_chunk() state: the lock word spun on (null otherwise) and the
  // granule length re-armed in engine context.
  const void* const* granule_word_ = nullptr;
  SimDuration granule_step_ = 0;
  // poll_chunk() state: the loop whose chunk is armed (null otherwise).
  PollLoop* poll_loop_ = nullptr;
  SimTime slice_start_ = 0;

  // Tracing: label of the current occupancy span (set in begin_run).
  std::string occ_label_;
  std::string trace_track_;  // cached "node<i>/cpu<j>"

  Stats stats_;

  // A parked spinner's tick stops re-arming while it has nothing to do;
  // resume_tick() re-arms it in phase with the last tick that ran.
  bool tick_lapsed_ = false;
  SimTime tick_phase_ = 0;

  // spin_wait() park state.
  bool spin_parked_ = false;
  SimTime spin_t0_ = 0;
  SimDuration spin_step_ = 0;

  std::optional<sim::Fiber> service_fiber_;  // built on first service entry
};

namespace detail {
/// The CPU occupied by the calling fiber (nullptr in engine context).
[[nodiscard]] Cpu* current_cpu() noexcept;
/// The thread owning the calling fiber (nullptr on service fibers).
[[nodiscard]] Thread* current_thread() noexcept;
}  // namespace detail

/// RAII marker for engine-progression sections (PIOMan polls, protocol
/// flushes, app-driven progress): while one is live, the occupying thread's
/// time is charged to CoreState::kEngine instead of kApp.  The CPU is
/// re-fetched on exit because a preemption may have migrated the thread
/// mid-scope.  Safe in any context; no-op outside a virtual core.
class EngineScope {
 public:
  EngineScope() noexcept {
    if (Cpu* c = detail::current_cpu()) c->engine_scope_enter();
  }
  ~EngineScope() {
    if (Cpu* c = detail::current_cpu()) c->engine_scope_exit();
  }
  EngineScope(const EngineScope&) = delete;
  EngineScope& operator=(const EngineScope&) = delete;
};

}  // namespace pm2::marcel
