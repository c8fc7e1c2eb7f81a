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

Status Cond::wait_until(SimTime deadline) {
  marcel::Thread* self = marcel::this_thread::self();
  PM2_ASSERT_MSG(self != nullptr, "Cond::wait outside a marcel thread");
  sim::Engine& engine = server_->node().engine();
  const bool timed = deadline != kSimTimeNever;
  ++server_->stats_.cond_waits;
  // Posted-but-not-offloaded work is on our critical path now: run it here
  // ("the message is sent inside the wait function", §3.1).
  server_->flush_posted();
  Server::Poller poller(*server_, Server::Poller::Mode::kCond, this, deadline);
  while (!done_) {
    if (engine.now() >= deadline) return Status::kTimedOut;
    // NB: every call below that consumes CPU time is a suspension point
    // after which the thread may have migrated — fetch the CPU fresh and
    // use it only for the immediately following non-suspending calls.
    if (server_->posted_pending() > 0) {
      server_->flush_posted();
      continue;
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
      sim::fuzz::interleave_point(timed ? "piom-cond/pre-block-timed"
                                        : "piom-cond/pre-block");
      if (done_) break;
      if (engine.now() >= deadline) return Status::kTimedOut;
      ++server_->stats_.cond_passive_blocks;
      waiters_.push_back(*self);
      lockdep::check_block(done_, "piom::Cond");
      // A timed wait arms a deadline event that yanks us out of the waiter
      // list if the signal has not arrived by then.
      sim::EventId timer{};
      if (timed) {
        marcel::Node& node = self->node();
        timer = engine.schedule_at(deadline, [this, self, &node] {
          if (self->wait_hook.is_linked()) {
            waiters_.erase(*self);
            node.wake(*self);
          }
        });
      }
      // The interleave window may have migrated us: refetch the CPU.
      marcel::this_thread::cpu().block_current();
      if (timed) engine.cancel(timer);
      continue;
    }
    // Poll every source, then (no progress) burn poll_gap; the burns run
    // whole empty rounds in engine context while nothing changes and the
    // deadline is ahead.
    server_->open_round(poller, cpu);
    if (!server_->run_pass(poller)) break;
  }
  return Status::kOk;
}

Status Cond::wait_for(SimDuration timeout) {
  return wait_until(server_->node().engine().now() + timeout);
}

}  // namespace pm2::piom
