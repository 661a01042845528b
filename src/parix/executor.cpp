#include "parix/executor.h"

#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "parix/machine.h"
#include "parix/mailbox.h"
#include "parix/proc.h"
#include "parix/prof.h"
#include "support/error.h"

// Fiber switches are invisible to the sanitizers unless announced:
// ASan tracks which stack region is live (and its fake-stack state),
// TSan models each fiber as its own logical thread.  With the
// annotations below the pooled engine runs cleanly under both, which
// is what lets CI exercise the multi-carrier scheduler and work
// stealing sanitized instead of falling back to the threads engine.
#if defined(__SANITIZE_ADDRESS__) && __has_include(<sanitizer/common_interface_defs.h>)
#define SKIL_ASAN_FIBERS 1
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__) && __has_include(<sanitizer/tsan_interface.h>)
#define SKIL_TSAN_FIBERS 1
#include <sanitizer/tsan_interface.h>
#endif
#if SKIL_ASAN_FIBERS
#include <pthread.h>
#endif

namespace skil::parix {
namespace {

// Fiber stacks are touched lazily (plain new[] without value-init),
// so a 64-processor run commits only the pages it actually uses.
constexpr std::size_t kFiberStackBytes = std::size_t{1} << 20;

// Park/unpark protocol.  Fiber::state is an atomic that park_current,
// wake and the carrier change by compare-and-swap; no lock is held:
//
//   kReady     in a carrier run queue, waiting for a carrier
//   kRunning   executing on a carrier thread
//   kNotified  executing, and a wake() arrived before it parked
//   kParking   asked to park; its carrier has not yet swapped off the
//              fiber stack, so it cannot be enqueued yet
//   kParked    off-stack, waiting for a wake()
//   kFinished  body returned; the carrier recycles the fiber object
//
// park_current turns kRunning into kParking and swaps to its carrier,
// which then turns kParking into kParked.  wake() turns kParked into
// kReady and enqueues the fiber, or kParking into kReady, in which case
// the carrier's CAS fails and the carrier enqueues it.  A wake() that
// catches the fiber kRunning (the waiter was already deregistered, but
// the fiber has not reached park_current yet) turns it into kNotified,
// and park_current then returns at once -- the classic missed-wakeup
// race, resolved without spinning.
enum class FiberState {
  kReady,
  kRunning,
  kNotified,
  kParking,
  kParked,
  kFinished
};

struct RunState;

struct Fiber {
  ucontext_t context;
  std::unique_ptr<char[]> stack;
  std::atomic<FiberState> state{FiberState::kReady};
  /// Carrier whose run queue this fiber calls home (affinity; idle
  /// carriers steal from the others).
  int home = 0;
  /// Whether this fiber has been dispatched before in the current run
  /// (distinguishes first dispatch from a resume in the profiler's
  /// fibers_run / fibers_resumed counters).
  bool ran_before = false;
  RunState* run = nullptr;
  Proc* proc = nullptr;
  /// ASan fake-stack save slot for switches *off* this fiber (unused
  /// outside ASan builds).
  void* asan_fake_stack = nullptr;
  /// TSan logical-thread context for this fiber (unused outside TSan
  /// builds).
  void* tsan_fiber = nullptr;
};

struct RunState {
  Machine* machine = nullptr;
  const detail::BodyRef* body = nullptr;
  bool deadlock_poisoned = false;  // guarded by Scheduler::mutex_

  std::mutex failure_mutex;
  std::exception_ptr first_failure;

  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  /// Set by detect_deadlock_locked (guarded by done_mutex): asks the
  /// thread waiting in Scheduler::run to poison the machine.  The
  /// waiter owns the machine, so poisoning from there cannot race run
  /// teardown; a carrier poisoning directly could still be walking the
  /// mailboxes when the woken fibers finish the run and the caller
  /// destroys the machine.
  bool deadlock_detected = false;
};

thread_local Fiber* tl_fiber = nullptr;
thread_local ucontext_t* tl_worker_context = nullptr;
#if SKIL_ASAN_FIBERS
thread_local const void* tl_worker_stack_bottom = nullptr;
thread_local std::size_t tl_worker_stack_size = 0;
#endif
#if SKIL_TSAN_FIBERS
thread_local void* tl_worker_tsan_fiber = nullptr;
#endif

// Work stealing migrates fibers between carrier threads, but the
// compiler compiles every function as if its thread could never change
// underneath it: with local-exec TLS it materialises the thread
// pointer once and may reuse the derived addresses across a
// swapcontext that in fact moved the fiber to another carrier (GCC
// does exactly this when it inlines finish_current into
// fiber_trampoline, leaving the finished fiber reading the *original*
// carrier's slot).  Every TLS slot fiber-side code may read therefore
// goes through these opaque accessors: noinline forces a fresh
// thread-pointer load per call, and the volatile asm keeps IPA from
// proving the functions pure and CSE-ing the calls.  Carrier-side code
// (worker_main, dispatch) accesses its own slots directly -- a worker
// thread never migrates.
__attribute__((noinline)) Fiber*& current_fiber_slot() {
  asm volatile("");
  return tl_fiber;
}
__attribute__((noinline)) ucontext_t* current_worker_context() {
  asm volatile("");
  return tl_worker_context;
}
#if SKIL_ASAN_FIBERS
__attribute__((noinline)) const void* current_worker_stack_bottom() {
  asm volatile("");
  return tl_worker_stack_bottom;
}
__attribute__((noinline)) std::size_t current_worker_stack_size() {
  asm volatile("");
  return tl_worker_stack_size;
}
#endif
#if SKIL_TSAN_FIBERS
__attribute__((noinline)) void* current_worker_tsan_fiber() {
  asm volatile("");
  return tl_worker_tsan_fiber;
}
#endif

/// Announces an upcoming switch from the current context onto
/// `fiber`'s stack.
inline void sanitizer_switch_to_fiber(Fiber* fiber, void** fake_stack_save) {
#if SKIL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, fiber->stack.get(),
                                 kFiberStackBytes);
#else
  (void)fake_stack_save;
#endif
#if SKIL_TSAN_FIBERS
  __tsan_switch_to_fiber(fiber->tsan_fiber, 0);
#else
  (void)fiber;
#endif
}

/// Announces an upcoming switch from the current fiber back onto its
/// carrier's thread stack.  `fake_stack_save` is null on the final
/// switch of a finished fiber (ASan then releases its fake stack).
inline void sanitizer_switch_to_worker(void** fake_stack_save) {
#if SKIL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, current_worker_stack_bottom(),
                                 current_worker_stack_size());
#else
  (void)fake_stack_save;
#endif
#if SKIL_TSAN_FIBERS
  __tsan_switch_to_fiber(current_worker_tsan_fiber(), 0);
#endif
}

/// Completes the switch after landing on a new stack; `fake_stack` is
/// the save slot written when this context last switched away.
inline void sanitizer_finish_switch(void* fake_stack) {
#if SKIL_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#else
  (void)fake_stack;
#endif
}

class Scheduler {
 public:
  static Scheduler& instance() {
    static Scheduler scheduler;
    return scheduler;
  }

  std::exception_ptr run(Machine& machine,
                         const std::vector<std::unique_ptr<Proc>>& procs,
                         const detail::BodyRef& body);

  /// Parks the calling fiber until wake(); returns immediately when a
  /// wake already raced ahead.
  void park_current();

  /// Makes `fiber` runnable again (called from Mailbox::put/poison via
  /// the fiber's registered waiter, possibly on another carrier).
  void wake(Fiber* fiber);

  /// Marks the calling fiber finished and swaps back to its carrier
  /// for good.  Signals run completion when it is the last one.
  [[noreturn]] void finish_current();

  /// Number of carrier threads the next pooled run will use.
  int carriers();

  /// Overrides the carrier count (0 = resolve SKIL_CARRIERS /
  /// hardware_concurrency again).  Stops the current pool; the next
  /// run respawns it at the new width.  Must not be called from
  /// inside a run.
  void set_carriers(int n);

  /// Spawns the pool (if needed) and sizes the profiling registry to
  /// cover every carrier, so the hot-path counter sites never index
  /// past the registry during a profiled run.
  void prof_prepare();

 private:
  /// One carrier's run queue, under its own lock (one cache line each,
  /// so carriers pushing to different queues do not share a line).
  struct alignas(64) RunQueue {
    std::mutex mutex;
    std::deque<Fiber*> fibers;
  };

  Scheduler() = default;
  ~Scheduler();

  void worker_main(int index);
  void dispatch(Fiber* fiber, int index);
  void spawn_workers_locked();
  void stop_workers(std::unique_lock<std::mutex>& lock);
  void enqueue(Fiber* fiber);
  Fiber* try_pop(int index);
  bool try_admit_locked();
  void detect_deadlock_locked(std::unique_lock<std::mutex>& lock);
  int resolve_carriers_locked();

  /// Guards the pool's lifecycle, the fiber free list, idle sleep and
  /// quiescence detection.  Dispatch, park and wake take it only to
  /// wake a sleeping carrier.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  /// One run queue per carrier (fiber->home indexes it); idle carriers
  /// steal from the other queues.  Replaced only while no carrier runs.
  std::vector<RunQueue> queues_;
  /// Fibers in the run queues.  Paired with sleepers_ (both seq_cst) so
  /// that an enqueue and a carrier going to sleep cannot miss each
  /// other: see enqueue() and worker_main().
  std::atomic<int> ready_{0};
  /// Carriers waiting on work_cv_ (changed under mutex_).
  std::atomic<int> sleepers_{0};
  /// Carriers holding an admission slot, i.e. awake and running fibers
  /// or looking for one (changed under mutex_).
  std::atomic<int> admitted_{0};
  /// Fibers of the current run that have not finished.
  std::atomic<int> live_{0};
  std::vector<std::unique_ptr<Fiber>> all_fibers_;  // ownership
  std::vector<Fiber*> free_fibers_;                 // recycled, off-stack
  std::vector<std::thread> workers_;
  int desired_carriers_ = 0;  // 0 = auto (SKIL_CARRIERS / hw concurrency)
  /// Admission cap: at most this many carriers hold a slot at once; the
  /// rest stand by in the cv wait.  Set to min(carriers,
  /// hardware_concurrency).  Oversubscribing physical cores is pure
  /// loss here -- every suppressed slot would otherwise turn scheduler
  /// wakeups into kernel context switches -- so excess carriers just
  /// stand by, engaging as soon as the cap allows.
  int active_cap_ = 1;
  RunState* current_run_ = nullptr;
  bool shutdown_ = false;

  /// One spmd run owns the pool at a time; concurrent host callers
  /// queue here.
  std::mutex run_serial_;
};

void fiber_trampoline() {
  sanitizer_finish_switch(nullptr);
  Fiber* fiber = current_fiber_slot();
  RunState* run = fiber->run;
  try {
    (*run->body)(*fiber->proc);
  } catch (...) {
    {
      const std::scoped_lock lock(run->failure_mutex);
      if (!run->first_failure) run->first_failure = std::current_exception();
    }
    run->machine->poison_all("processor " + std::to_string(fiber->proc->id()) +
                             " terminated with an error");
  }
  Scheduler::instance().finish_current();
}

int Scheduler::resolve_carriers_locked() {
  if (desired_carriers_ > 0) return desired_carriers_;
  if (const char* env = std::getenv("SKIL_CARRIERS")) {
    const std::string_view value(env);
    if (value != "auto") {
      char* end = nullptr;
      const long n = std::strtol(env, &end, 10);
      SKIL_REQUIRE(end != env && *end == '\0' && n >= 1 && n <= 256,
                   "SKIL_CARRIERS: expected 'auto' or an integer in [1, 256], "
                   "got '" + std::string(env) + "'");
      return static_cast<int>(n);
    }
  }
  unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 16u));
}

int Scheduler::carriers() {
  const std::scoped_lock lock(mutex_);
  return workers_.empty() ? resolve_carriers_locked()
                          : static_cast<int>(workers_.size());
}

void Scheduler::spawn_workers_locked() {
  const int n = resolve_carriers_locked();
  // Keep an existing profiling registry wide enough for the new pool
  // (prof_prepare creates it in the first place): an active registry
  // must always cover every live carrier index.
  if (prof_detail::g_registry.load(std::memory_order_relaxed) != nullptr)
    prof_ensure_registry(n);
  const unsigned hc = std::thread::hardware_concurrency();
  active_cap_ = hc == 0 ? n : std::max(1, std::min(n, static_cast<int>(hc)));
  queues_ = std::vector<RunQueue>(static_cast<std::size_t>(n));
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

void Scheduler::stop_workers(std::unique_lock<std::mutex>& lock) {
  if (workers_.empty()) return;
  shutdown_ = true;
  work_cv_.notify_all();
  lock.unlock();
  for (auto& worker : workers_) worker.join();
  lock.lock();
  workers_.clear();
  queues_.clear();
  shutdown_ = false;
}

void Scheduler::set_carriers(int n) {
  SKIL_REQUIRE(current_fiber_slot() == nullptr,
               "executor: set_carriers from inside a pooled run");
  SKIL_REQUIRE(n >= 0 && n <= 256, "executor: carrier count out of range");
  const std::scoped_lock serial(run_serial_);
  std::unique_lock lock(mutex_);
  desired_carriers_ = n;
  stop_workers(lock);
}

void Scheduler::prof_prepare() {
  const std::scoped_lock serial(run_serial_);
  const std::scoped_lock lock(mutex_);
  if (workers_.empty()) spawn_workers_locked();
  prof_ensure_registry(static_cast<int>(workers_.size()));
}

void Scheduler::enqueue(Fiber* fiber) {
  RunQueue& queue = queues_[static_cast<std::size_t>(fiber->home)];
  {
    const std::scoped_lock lock(queue.mutex);
    queue.fibers.push_back(fiber);
  }
  // The enqueuer bumps ready_ and then reads sleepers_; a carrier going
  // to sleep bumps sleepers_ and then reads ready_ (worker_main).  Both
  // are seq_cst, so at least one side sees the other and no wakeup is
  // lost.  Wake a sleeper only when the admission cap has room for it;
  // at the cap, the admitted carriers drain the queues themselves (one
  // releasing its slot reads ready_ before it sleeps).
  ready_.fetch_add(1);
  if (sleepers_.load() > 0 && admitted_.load() < active_cap_) {
    const std::scoped_lock lock(mutex_);
    work_cv_.notify_one();
  }
}

Fiber* Scheduler::try_pop(int index) {
  ProfRegistry* const prof = prof_registry();
  const bool profiled = prof != nullptr && index < prof->n;
  if (ready_.load() > 0) {
    const int n = static_cast<int>(queues_.size());
    // Own queue first (affinity), then steal round-robin from the
    // rest, one queue lock at a time.
    for (int i = 0; i < n; ++i) {
      RunQueue& queue = queues_[static_cast<std::size_t>((index + i) % n)];
      Fiber* fiber = nullptr;
      {
        const std::scoped_lock lock(queue.mutex);
        if (!queue.fibers.empty()) {
          fiber = queue.fibers.front();
          queue.fibers.pop_front();
        }
      }
      if (profiled && i > 0) [[unlikely]] {
        prof->carriers[index].steal_attempts.fetch_add(
            1, std::memory_order_relaxed);
        if (fiber != nullptr)
          prof->carriers[index].steal_successes.fetch_add(
              1, std::memory_order_relaxed);
      }
      if (fiber != nullptr) {
        ready_.fetch_sub(1);
        return fiber;
      }
    }
    // Another carrier took the fiber ready_ counted.
  }
  if (profiled) [[unlikely]]
    prof->carriers[index].steal_failed_rounds.fetch_add(
        1, std::memory_order_relaxed);
  return nullptr;
}

bool Scheduler::try_admit_locked() {
  if (ready_.load() <= 0 || admitted_.load() >= active_cap_) return false;
  admitted_.fetch_add(1);
  return true;
}

void Scheduler::detect_deadlock_locked(std::unique_lock<std::mutex>& lock) {
  // Quiescence: no carrier holds a slot, so no fiber runs, and nothing
  // is queued.  A wake comes only from a running fiber's Mailbox::put
  // or from the run thread's poison (a carrier requeueing a fiber woken
  // mid-park still holds its slot), so every live fiber is parked for
  // good.
  if (admitted_.load() > 0 || ready_.load() > 0 || live_.load() == 0) return;
  RunState* run = current_run_;
  if (run == nullptr || run->deadlock_poisoned) return;
  run->deadlock_poisoned = true;
  // Hand the poisoning to the thread waiting in Scheduler::run rather
  // than doing it here: that thread owns the machine, so it cannot be
  // destroyed under the poisoner's feet (a carrier walking the
  // mailboxes races run teardown once the woken fibers finish).  The
  // deadlock state itself cannot change meanwhile -- every live fiber
  // is parked with no wake in flight, by the checks above.
  lock.unlock();
  {
    const std::scoped_lock done_lock(run->done_mutex);
    run->deadlock_detected = true;
  }
  run->done_cv.notify_one();
  lock.lock();
}

void Scheduler::worker_main(int index) {
  ucontext_t worker_context;
  tl_worker_context = &worker_context;
#if SKIL_ASAN_FIBERS
  {
    pthread_attr_t attr;
    void* bottom = nullptr;
    std::size_t size = 0;
    pthread_getattr_np(pthread_self(), &attr);
    pthread_attr_getstack(&attr, &bottom, &size);
    pthread_attr_destroy(&attr);
    tl_worker_stack_bottom = bottom;
    tl_worker_stack_size = size;
  }
#endif
#if SKIL_TSAN_FIBERS
  tl_worker_tsan_fiber = __tsan_get_current_fiber();
#endif
  std::unique_lock lock(mutex_);
  for (;;) {
    // Sleep until work is queued and the admission cap has a slot free
    // (sleepers_ before ready_: see enqueue).
    sleepers_.fetch_add(1);
    work_cv_.wait(lock, [&] { return shutdown_ || try_admit_locked(); });
    sleepers_.fetch_sub(1);
    if (shutdown_) return;
    lock.unlock();
    while (Fiber* fiber = try_pop(index)) dispatch(fiber, index);
    lock.lock();
    admitted_.fetch_sub(1);
    detect_deadlock_locked(lock);
  }
}

void Scheduler::dispatch(Fiber* fiber, int index) {
  fiber->state.store(FiberState::kRunning);
  fiber->home = index;
  const bool resumed = fiber->ran_before;
  fiber->ran_before = true;

  ProfRegistry* const prof = prof_registry();
  const bool profiled = prof != nullptr && index < prof->n;
  std::chrono::steady_clock::time_point prof_t0;
  if (profiled) [[unlikely]] {
    CarrierCounters& pc = prof->carriers[index];
    pc.fibers_run.fetch_add(1, std::memory_order_relaxed);
    if (resumed) pc.fibers_resumed.fetch_add(1, std::memory_order_relaxed);
    prof_t0 = std::chrono::steady_clock::now();
  }

  tl_fiber = fiber;
  void* fake_stack = nullptr;
  sanitizer_switch_to_fiber(fiber, &fake_stack);
  swapcontext(tl_worker_context, &fiber->context);
  sanitizer_finish_switch(fake_stack);
  tl_fiber = nullptr;

  if (profiled) [[unlikely]]
    prof->carriers[index].run_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - prof_t0)
                .count()),
        std::memory_order_relaxed);

  // The fiber is off its stack: finish its park, requeue it if a wake()
  // raced the park, or recycle it.
  FiberState state = FiberState::kParking;
  if (fiber->state.compare_exchange_strong(state, FiberState::kParked))
    return;
  if (state == FiberState::kReady) {
    enqueue(fiber);
    return;
  }
  SKIL_ASSERT(state == FiberState::kFinished,
              "executor: fiber yielded in impossible state");
  const std::scoped_lock lock(mutex_);
  free_fibers_.push_back(fiber);
}

void Scheduler::park_current() {
  Fiber* fiber = current_fiber_slot();
  SKIL_ASSERT(fiber != nullptr, "executor: park outside a fiber");
  FiberState state = FiberState::kRunning;
  if (!fiber->state.compare_exchange_strong(state, FiberState::kParking)) {
    // A wake() raced ahead of the park: consume it and return.
    SKIL_ASSERT(state == FiberState::kNotified,
                "executor: park from a fiber that is not running");
    fiber->state.store(FiberState::kRunning);
    return;
  }
  // Counted on the fiber's side, before the swap: the park then happens
  // before the wake() that counts its unpark, so a finished run's
  // counters always show unparks <= parks.
  if (ProfRegistry* const prof = prof_registry();
      prof != nullptr && fiber->home < prof->n) [[unlikely]]
    prof->carriers[fiber->home].parks.fetch_add(1, std::memory_order_relaxed);
  sanitizer_switch_to_worker(&fiber->asan_fake_stack);
  swapcontext(&fiber->context, current_worker_context());
  sanitizer_finish_switch(fiber->asan_fake_stack);
}

void Scheduler::wake(Fiber* fiber) {
  FiberState state = fiber->state.load();
  for (;;) {
    SKIL_ASSERT(state == FiberState::kRunning ||
                    state == FiberState::kParking ||
                    state == FiberState::kParked,
                "executor: wake of a fiber that waits on nothing");
    const FiberState next = state == FiberState::kRunning
                                ? FiberState::kNotified
                                : FiberState::kReady;
    if (fiber->state.compare_exchange_weak(state, next)) break;
  }
  // kParking: its carrier is still swapping off the fiber stack and
  // enqueues it when its own CAS fails.  kRunning: park_current returns
  // at once.
  if (state != FiberState::kParked) return;
  if (ProfRegistry* const prof = prof_registry();
      prof != nullptr && fiber->home < prof->n) [[unlikely]]
    prof->carriers[fiber->home].unparks.fetch_add(1, std::memory_order_relaxed);
  enqueue(fiber);
}

void Scheduler::finish_current() {
  Fiber* fiber = current_fiber_slot();
  RunState* run = fiber->run;
  fiber->state.store(FiberState::kFinished);
  if (live_.fetch_sub(1) == 1) {
    const std::scoped_lock lock(run->done_mutex);
    run->done = true;
    run->done_cv.notify_one();
  }
  // From here the fiber touches nothing of the run (the caller may
  // already be tearing it down); it only leaves its stack -- for good,
  // so ASan releases its fake stack (null save slot).
  sanitizer_switch_to_worker(nullptr);
  swapcontext(&fiber->context, current_worker_context());
  SKIL_ASSERT(false, "executor: finished fiber resumed");
  std::abort();
}

std::exception_ptr Scheduler::run(
    Machine& machine, const std::vector<std::unique_ptr<Proc>>& procs,
    const detail::BodyRef& body) {
  const std::scoped_lock serial(run_serial_);
  RunState run;
  run.machine = &machine;
  run.body = &body;

  {
    std::unique_lock lock(mutex_);
    if (workers_.empty()) spawn_workers_locked();
    const int carriers = static_cast<int>(workers_.size());
    live_.store(static_cast<int>(procs.size()));
    current_run_ = &run;
    for (const auto& proc : procs) {
      Fiber* fiber;
      if (!free_fibers_.empty()) {
        fiber = free_fibers_.back();
        free_fibers_.pop_back();
      } else {
        all_fibers_.push_back(std::make_unique<Fiber>());
        fiber = all_fibers_.back().get();
        fiber->stack.reset(new char[kFiberStackBytes]);
#if SKIL_TSAN_FIBERS
        fiber->tsan_fiber = __tsan_create_fiber(0);
#endif
      }
      fiber->run = &run;
      fiber->proc = proc.get();
      fiber->state.store(FiberState::kReady);
      fiber->ran_before = false;
      fiber->home = proc->id() % carriers;
      fiber->asan_fake_stack = nullptr;
      getcontext(&fiber->context);
      fiber->context.uc_stack.ss_sp = fiber->stack.get();
      fiber->context.uc_stack.ss_size = kFiberStackBytes;
      fiber->context.uc_link = nullptr;
      makecontext(&fiber->context, fiber_trampoline, 0);
      RunQueue& queue = queues_[static_cast<std::size_t>(fiber->home)];
      const std::scoped_lock queue_lock(queue.mutex);
      queue.fibers.push_back(fiber);
    }
    // The carriers admit themselves under mutex_, which this thread
    // holds, so they see every fiber queued before ready_ counts one.
    ready_.fetch_add(static_cast<int>(procs.size()));
    work_cv_.notify_all();
  }

  {
    std::unique_lock done_lock(run.done_mutex);
    for (;;) {
      run.done_cv.wait(done_lock,
                       [&] { return run.done || run.deadlock_detected; });
      if (run.done) break;
      // A carrier found every live fiber parked in recv; poison from
      // here, where the machine is owned, then resume waiting for the
      // woken fibers to finish with their faults.
      run.deadlock_detected = false;
      done_lock.unlock();
      machine.poison_all("deadlock: every virtual processor is blocked in recv");
      done_lock.lock();
    }
  }
  {
    const std::scoped_lock lock(mutex_);
    current_run_ = nullptr;
  }
  const std::scoped_lock lock(run.failure_mutex);
  return run.first_failure;
}

Scheduler::~Scheduler() {
  {
    const std::scoped_lock lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

/// The pooled engine's mailbox waiter: wakes its fiber on notify.
struct FiberWaiter final : Mailbox::Waiter {
  Fiber* fiber = nullptr;
  void notify() override { Scheduler::instance().wake(fiber); }
};

}  // namespace

bool executor_in_fiber() { return current_fiber_slot() != nullptr; }

int executor_carriers() { return Scheduler::instance().carriers(); }

void executor_set_carriers(int n) { Scheduler::instance().set_carriers(n); }

void executor_prof_prepare() { Scheduler::instance().prof_prepare(); }

std::exception_ptr executor_run(Machine& machine,
                                const std::vector<std::unique_ptr<Proc>>& procs,
                                const detail::BodyRef& body) {
  return Scheduler::instance().run(machine, procs, body);
}

Message executor_fiber_get(Mailbox& box, int src, long tag) {
  FiberWaiter waiter;
  waiter.fiber = current_fiber_slot();
  SKIL_ASSERT(waiter.fiber != nullptr,
              "executor: fiber receive outside the pooled engine");
  for (;;) {
    // take_or_wait either hands over the message or registers the
    // waiter; the matching put() deregisters it and wakes the fiber.
    if (auto msg = box.take_or_wait(src, tag, waiter))
      return std::move(*msg);
    Scheduler::instance().park_current();
  }
}

}  // namespace skil::parix
