#include "core/cond.hpp"

#include "common/assert.hpp"
#include "core/server.hpp"
#include "marcel/cpu.hpp"
#include "marcel/lockdep.hpp"
#include "marcel/node.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2::piom {

void Cond::signal() {
  if (done_) return;
  done_ = true;
  while (marcel::Thread* t = waiters_.pop_front()) t->node().wake(*t);
}

void Cond::wait() {
  marcel::Thread* self = marcel::this_thread::self();
  PM2_ASSERT_MSG(self != nullptr, "Cond::wait outside a marcel thread");
  ++server_->stats_.cond_waits;
  // Posted-but-not-offloaded work is on our critical path now: run it here
  // ("the message is sent inside the wait function", §3.1).
  server_->flush_posted();
  Server::Poller poller(*server_, this);
  while (!done_) {
    // NB: every call below that consumes CPU time is a suspension point
    // after which the thread may have migrated — fetch the CPU fresh and
    // use it only for the immediately following non-suspending calls.
    if (server_->posted_pending() > 0) {
      server_->flush_posted();
      if (done_) break;
    }
    marcel::Cpu& cpu = marcel::this_thread::cpu();
    if (cpu.runnable() > 0) {
      // Other threads want this core: wait passively, progression is
      // covered by idle cores, the LWP, or the other threads' own waits.
      //
      // Historical race window: on real hardware the completion can land
      // between the last done_ check and going to sleep.  The fuzzer opens
      // that window here — BEFORE we enlist as a waiter, so a signal()
      // landing inside it sees an empty waiter list and we re-check done_
      // instead of blocking on an already-signalled condition.
      sim::fuzz::interleave_point("piom-cond/pre-block");
      if (done_) break;
      ++server_->stats_.cond_passive_blocks;
      waiters_.push_back(*self);
      lockdep::check_block(done_, "piom::Cond");
      // The interleave window may have migrated us: refetch the CPU.
      marcel::this_thread::cpu().block_current();
      continue;
    }
    // Poll every source, then (no progress) burn poll_gap; the burns run
    // whole empty rounds in engine context while nothing changes.
    server_->open_round(poller, cpu);
    if (!server_->run_pass(poller)) break;
  }
}

Status Cond::wait_for(SimDuration timeout) {
  marcel::Thread* self = marcel::this_thread::self();
  PM2_ASSERT_MSG(self != nullptr, "Cond::wait_for outside a marcel thread");
  sim::Engine& engine = server_->node().engine();
  const SimTime deadline = engine.now() + timeout;
  ++server_->stats_.cond_waits;
  server_->flush_posted();
  while (!done_) {
    if (engine.now() >= deadline) return Status::kTimedOut;
    if (server_->posted_pending() > 0) {
      server_->flush_posted();
      if (done_) break;
      continue;
    }
    marcel::Cpu& cpu = marcel::this_thread::cpu();
    if (cpu.runnable() > 0) {
      // Passive timed wait: a deadline event yanks us out of the waiter
      // list if the signal has not arrived by then.  Same pre-block race
      // window as wait(): open it before enlisting, then re-check done_.
      sim::fuzz::interleave_point("piom-cond/pre-block-timed");
      if (done_) break;
      if (engine.now() >= deadline) return Status::kTimedOut;
      ++server_->stats_.cond_passive_blocks;
      waiters_.push_back(*self);
      lockdep::check_block(done_, "piom::Cond");
      marcel::Node& node = self->node();
      const sim::EventId timer =
          engine.schedule_at(deadline, [this, self, &node] {
            if (self->wait_hook.is_linked()) {
              waiters_.erase(*self);
              node.wake(*self);
            }
          });
      // The interleave window may have migrated us: refetch the CPU.
      marcel::this_thread::cpu().block_current();
      engine.cancel(timer);
      continue;
    }
    const bool progress = server_->poll_round(cpu);
    if (done_) break;
    if (!progress && server_->config().poll_gap > 0) {
      marcel::this_thread::compute(server_->config().poll_gap);
    }
  }
  return done_ ? Status::kOk : Status::kTimedOut;
}

}  // namespace pm2::piom
