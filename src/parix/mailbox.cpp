#include "parix/mailbox.h"

#include <algorithm>

#include "support/error.h"

namespace skil::parix {

namespace {

/// The threads engine's waiter: one condition variable per blocked
/// get() call, signalled only when its own key matches.
struct CvWaiter final : Mailbox::Waiter {
  std::condition_variable cv;
  void notify() override { cv.notify_one(); }
};

}  // namespace

std::optional<Message> Mailbox::pop_match(int src, long tag) {
  const auto head = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
  const auto it = std::find_if(head, queue_.end(), [&](const Message& m) {
    return m.src == src && m.tag == tag;
  });
  if (it == queue_.end()) return std::nullopt;
  Message msg = std::move(*it);
  // Taking the head shifts nothing; a match further in moves the
  // messages the scan passed, keeping arrival order.
  std::move_backward(head, it, it + 1);
  ++head_;
  return msg;
}

void Mailbox::put(Message msg) {
  const std::scoped_lock lock(mutex_);
  // Reclaim the taken slots once they are at least as many as the
  // queued messages: a compaction moves no more messages than were
  // taken since the last one, and the capacity is reused.
  if (head_ > 0 && 2 * head_ >= queue_.size()) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  const int src = msg.src;
  const long tag = msg.tag;
  queue_.push_back(std::move(msg));
  const auto it = std::find_if(
      waiters_.begin(), waiters_.end(),
      [&](const Waiter* w) { return w->src == src && w->tag == tag; });
  if (it != waiters_.end()) {
    Waiter* to_wake = *it;
    if (to_wake->one_shot) waiters_.erase(it);
    // Waking under the lock keeps the waiter alive: a CvWaiter lives
    // on the stack of a get() that cannot resume until we unlock, and
    // a fiber waiter is only retired by the executor after its fiber
    // reruns take_or_wait, which also needs this lock.
    to_wake->notify();
  }
}

Message Mailbox::get(int src, long tag, std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  CvWaiter self;
  self.src = src;
  self.tag = tag;
  bool registered = false;
  auto deregister = [&] {
    if (!registered) return;
    const auto it = std::find(waiters_.begin(), waiters_.end(), &self);
    if (it != waiters_.end()) waiters_.erase(it);
    registered = false;
  };
  for (;;) {
    if (poisoned_) {
      deregister();
      throw support::RuntimeFault("receive aborted: " + poison_reason_);
    }
    if (auto msg = pop_match(src, tag)) {
      deregister();
      return std::move(*msg);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      deregister();
      throw support::RuntimeFault(
          "receive timed out (possible deadlock): waiting for src=" +
          std::to_string(src) + " tag=" + std::to_string(tag));
    }
    if (!registered) {
      waiters_.push_back(&self);
      registered = true;
    }
    self.cv.wait_until(lock, deadline);
  }
}

std::optional<Message> Mailbox::take_or_wait(int src, long tag,
                                             Waiter& waiter) {
  const std::scoped_lock lock(mutex_);
  if (poisoned_)
    throw support::RuntimeFault("receive aborted: " + poison_reason_);
  if (auto msg = pop_match(src, tag)) return msg;
  waiter.src = src;
  waiter.tag = tag;
  waiter.one_shot = true;
  waiters_.push_back(&waiter);
  return std::nullopt;
}

void Mailbox::poison(const std::string& reason) {
  std::vector<Waiter*> to_wake;
  {
    const std::scoped_lock lock(mutex_);
    poisoned_ = true;
    poison_reason_ = reason;
    to_wake = waiters_;
    // One-shot (fiber) waiters are consumed by this notification;
    // persistent CvWaiters deregister themselves when they observe
    // the poison flag.
    std::erase_if(waiters_, [](const Waiter* w) { return w->one_shot; });
    for (Waiter* w : to_wake) w->notify();
  }
}

std::size_t Mailbox::pending() const {
  const std::scoped_lock lock(mutex_);
  return queue_.size() - head_;
}

}  // namespace skil::parix
