// Completion condition: the object a thread waits on for a communication
// request to finish.  The wait path is where PIOMan's design pays off:
// the waiter first flushes any posted-but-not-yet-offloaded work (so the
// offload never delays communication) and then actively polls — or blocks
// and lets another thread run if the core has other work.
#pragma once

#include "common/intrusive_list.hpp"
#include "common/status.hpp"
#include "marcel/thread.hpp"

namespace pm2::piom {

class Server;

class Cond {
 public:
  explicit Cond(Server& server) noexcept : server_(&server) {}
  /// `server` may be null: such a condition only tracks done() and must
  /// not be waited on (nm::Request embeds one in app-driven mode, where
  /// waits poll instead).
  explicit Cond(Server* server) noexcept : server_(server) {}

  Cond(const Cond&) = delete;
  Cond& operator=(const Cond&) = delete;

  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Mark the condition satisfied and wake all waiters.  Callable from any
  /// context (poll callbacks, tasklets, wire-completion events).
  void signal();

  /// Block the calling marcel thread until signalled or until virtual time
  /// reaches `deadline`.  Flushes posted work, then participates in polling
  /// while waiting (§3.2: a waiting core "boils down to a busy waiting until
  /// PIOMan wakes up a thread").  The deadline is checked after that first
  /// flush, then at each loop top.  Returns Status::kOk if signalled,
  /// Status::kTimedOut otherwise.
  [[nodiscard]] Status wait_until(SimTime deadline);

  /// wait_until() with no deadline.
  void wait() { (void)wait_until(kSimTimeNever); }

  /// wait_until() `timeout` of virtual time from now.
  [[nodiscard]] Status wait_for(SimDuration timeout);

  /// Re-arm for reuse (requests are recycled by the communication library).
  void reset() noexcept { done_ = false; }

 private:
  Server* server_;
  bool done_ = false;
  IntrusiveList<marcel::Thread, &marcel::Thread::wait_hook> waiters_;
};

}  // namespace pm2::piom
