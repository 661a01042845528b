// Per-processor mailbox with (source, tag) matched receive.
//
// Messages wait in one flat queue in arrival order.  A receive takes
// the first match of its (src, tag) key from the head, so FIFO order
// per (src, tag) pair is arrival order.  Taking the oldest message is
// O(1), and the queue reuses its storage, so steady traffic allocates
// nothing.
//
// Receivers that find no match register a Waiter carrying the key they
// wait for; put() notifies only the waiter whose key matches the
// arriving message.  This kills the thundering-herd wakeups the old
// single condition_variable caused during tree folds and broadcasts on
// large processor counts.  Two waiter flavours plug into the same
// list: the blocking get() below parks on a per-call
// condition_variable (the `threads` engine), and the pooled engine's
// fibers park on the executor's scheduler (see parix/executor.h).
//
// Follows the C++ Core Guidelines concurrency rules: the mutex lives
// next to the data it guards, waits always use a predicate, and locks
// are scoped (CP.42, CP.44, CP.50).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <vector>

#include "parix/message.h"

namespace skil::parix {

class Mailbox {
 public:
  /// A parked receiver waiting for one (src, tag) key.  notify() is
  /// called with the mailbox lock held and must not block; one-shot
  /// waiters are deregistered by the notifying side, persistent ones
  /// deregister themselves (the condition-variable path below).
  struct Waiter {
    int src = -1;
    long tag = 0;
    bool one_shot = false;
    virtual void notify() = 0;

   protected:
    ~Waiter() = default;
  };

  /// Enqueues a message (called from the sender's thread) and wakes
  /// the matching waiter, if any.
  void put(Message msg);

  /// Blocks until a message with matching (src, tag) is available and
  /// removes it.  FIFO order is preserved per (src, tag) pair because a
  /// sender's messages are enqueued in program order.
  ///
  /// Throws RuntimeFault if the mailbox is poisoned (another processor
  /// failed) or if `timeout` elapses (deadlock guard for the test
  /// suite).
  Message get(int src, long tag,
              std::chrono::milliseconds timeout = std::chrono::minutes(4));

  /// Non-blocking variant for schedulers that park the caller
  /// themselves: returns the matching message, or registers `waiter`
  /// and returns nullopt.  The caller must suspend until notified and
  /// then retry.  Throws RuntimeFault if the mailbox is poisoned.
  std::optional<Message> take_or_wait(int src, long tag, Waiter& waiter);

  /// Wakes all blocked receivers with an error; used when any SPMD
  /// processor terminates exceptionally so its peers do not hang
  /// forever.
  void poison(const std::string& reason);

  /// Number of queued messages (for tests/diagnostics).
  std::size_t pending() const;

 private:
  /// Takes the oldest queued message from `src` under `tag`, closing
  /// the gap by moving the messages that arrived before it one slot
  /// towards the tail.  Requires the lock; returns nullopt when nothing
  /// matches.
  std::optional<Message> pop_match(int src, long tag);

  mutable std::mutex mutex_;
  /// Arrival order; queue_[head_, size) are queued, the slots before
  /// head_ were taken and are reclaimed by put().
  std::vector<Message> queue_;
  std::size_t head_ = 0;
  std::vector<Waiter*> waiters_;
  bool poisoned_ = false;
  std::string poison_reason_;
};

}  // namespace skil::parix
