#include "pm2/completion.hpp"

#include "common/assert.hpp"
#include "marcel/cpu.hpp"
#include "pm2/rpc.hpp"

namespace pm2::rpc {

Completion::Completion(Engine& engine, std::uint32_t count)
    : engine_(engine), remaining_(count) {
  PM2_ASSERT(count > 0);
  id_ = engine_.register_completion(this);
  if (engine_.core().server() != nullptr) {
    cond_.emplace(*engine_.core().server());
  }
}

Completion::~Completion() {
  PM2_ASSERT_MSG(remaining_ == 0,
                 "completion destroyed before its signals arrived");
  engine_.unregister_completion(id_);
}

CompletionRef Completion::ref() const noexcept {
  return {engine_.node_id(), id_};
}

void Completion::wait() {
  if (cond_.has_value()) {
    // The waiter participates in polling (the cond wait path runs poll
    // rounds, which include the RPC engine's drain) — so a wait can
    // deliver the very signal it waits for.
    cond_->wait();
    PM2_ASSERT(remaining_ == 0);
    return;
  }
  // App-driven baseline: signals only arrive while this thread calls
  // into the library, so the waiter performs the whole progression.
  engine_.core().poll_until(
      [this] { return remaining_ == 0; },
      [this](marcel::Cpu& cpu) { return engine_.progress(cpu); });
}

void Completion::deliver(std::uint32_t delta) {
  PM2_ASSERT_MSG(delta <= remaining_, "completion over-signalled");
  remaining_ -= delta;
  if (remaining_ == 0) {
    done_at_ = engine_.core().fabric().engine().now();
    ++engine_.stats_.completions_done;
    if (cond_.has_value()) cond_->signal();
  }
}

}  // namespace pm2::rpc
