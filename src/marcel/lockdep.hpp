// Lockdep-style runtime concurrency checker.
//
// The paper's §2.1 thread-safety argument — every event is handled under
// its own short critical section, tasklets are non-reentrant, so light
// locks suffice — is a set of *contracts*.  This module turns violations of
// those contracts into recorded failures instead of silent corruption:
//
//  * lock-order graph: every acquisition adds held→new edges to a directed
//    graph keyed by lock instance; a cycle means two execution contexts can
//    deadlock under the right schedule, even if this run did not,
//  * tasklet non-reentrancy: a tasklet body observed running while already
//    running breaks the §2.1 exclusivity assumption,
//  * engine-context discipline: tick/switch hooks run in engine context and
//    must not suspend, and no fiber may *block* while holding a lock that a
//    would-be waker spins on,
//  * lost-wakeup detection: a fiber that blocks while the condition it
//    waits on is already observable (e.g. piom::Cond::done_) will sleep
//    forever unless a redundant later event saves it.
//
// Violations are recorded (and printed to stderr) rather than aborting by
// default, so the schedule-fuzz harness can assert `violation_count() == 0`
// per seed and report the seed + decision trace on failure.  Call
// set_fail_fast(true) to abort at the first violation instead.
//
// Scope/limitations: the lock graph is keyed by instance address and is
// never pruned — call reset() between independent runs (the fuzz harness
// does, per seed) so address reuse cannot stitch stale edges together.
// Checking is process-global and thread-safe (separate host threads may
// each drive their own engine).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pm2::lockdep {

struct Violation {
  std::string kind;    // "lock-order", "tasklet-reentry", ...
  std::string detail;  // human-readable description with names/addresses
};

/// Master switch.  While disabled every entry point returns at once.
/// State (graph, violations) survives disable; use reset().
void enable(bool on);
[[nodiscard]] bool enabled() noexcept;

/// Abort on the first violation instead of recording it (default: record).
void set_fail_fast(bool on) noexcept;

/// Drop all recorded state: lock graph, held stacks, violations.
void reset();

// ---- lock instrumentation ----

/// The calling context finished acquiring `lock`.  Adds held→lock edges to
/// the order graph and checks for cycles.
void acquired(const void* lock, const char* lock_class);
/// As acquired(), for a spin-class lock (nm::EngineLock, the shard
/// locks): the context must not block while holding it.
void spin_acquired(const void* lock, const char* lock_class);
/// The calling context released `lock`.
void released(const void* lock);

// ---- tasklet non-reentrancy ----

void tasklet_enter(const void* tasklet, const char* name);
void tasklet_exit(const void* tasklet);

// ---- engine-context discipline ----

/// Brackets engine-context hook batches (tick/switch hooks).
void engine_context_enter(const char* what);
void engine_context_exit();

/// Called by the scheduler on every fiber suspension.  `blocking` is true
/// for kBlocked suspensions (the fiber needs an external waker).  Flags
/// suspensions inside engine context, and blocking while holding locks.
void note_suspension(bool blocking);

// ---- lost-wakeup detection ----

/// Call immediately before blocking on a condition: `condition_already_met`
/// is the current observable value of the predicate the block waits for.
/// Blocking on an already-met condition is a lost wakeup.
void check_block(bool condition_already_met, const char* what);

// ---- results ----

[[nodiscard]] std::size_t violation_count();
[[nodiscard]] std::vector<Violation> violations();
/// All violations, formatted one per line ("" when clean).
[[nodiscard]] std::string report();

/// RAII convenience for tests and harnesses: enable + reset on entry,
/// disable on exit.
struct Session {
  Session() {
    reset();
    enable(true);
  }
  ~Session() { enable(false); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
};

}  // namespace pm2::lockdep
