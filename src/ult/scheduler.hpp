#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "ult/context.hpp"
#include "ult/ult.hpp"

namespace apv::ult {

/// Called just before the scheduler transfers control into `next`. This is
/// the hook point privatization methods use for per-context-switch work:
/// TLSglobals swaps the emulated TLS segment pointer here, Swapglobals swaps
/// the active GOT; the PIE-family methods do nothing (their globals are
/// addressed relative to the rank's own code copy).
using SwitchHook = std::function<void(Ult* next)>;

/// Cooperative, message-driven scheduler for one PE.
///
/// One OS thread drives run_one()/idle_wait(); ULTs of this scheduler call
/// yield()/suspend() from inside their bodies. The ready queue is a
/// three-lane runqueue (High/Normal/Bulk, bitmap-selected, lowest lane
/// first with an anti-starvation escape) with two enqueue paths:
///
///  - Owner thread (the thread driving run_one — by far the common case,
///    since messages wake ranks on their own PE): a plain deque push with
///    no lock and no atomic RMW.
///  - Any other thread: a lock-free MPSC Treiber stack (intrusive
///    Ult::remote_next_), reversed into FIFO order when the owner drains
///    it. The scheduler mutex is only ever taken around the idle_wait
///    sleep and a wake() that finds the owner parked in it.
///
/// Cooperative preemption (config.preempt): enter() stamps a slice start,
/// and preempt_point() — called by the runtime at safe points (message
/// sends, collective entries, compute loops) — demotes the running ULT to
/// the Bulk lane once it exceeds config.quantum_us and other work waits.
/// With config.lanes=false (sched.policy=fifo) every enqueue collapses to
/// the Normal lane and preemption disarms: the seed's exact FIFO order.
class Scheduler {
 public:
  struct Config {
    bool lanes = true;     ///< false = single-lane seed-exact FIFO
    bool preempt = false;  ///< cooperative quantum preemption
    std::uint64_t quantum_us = 200;  ///< slice before preempt_point demotes
    int starve_limit = 8;  ///< consecutive High pops before yielding one
                           ///< slot to a lower lane (starvation freedom)
  };

  explicit Scheduler(ContextBackend backend = default_context_backend());
  Scheduler(ContextBackend backend, const Config& config);

  ContextBackend backend() const noexcept { return backend_; }
  const Config& config() const noexcept { return config_; }

  // --- scheduler-thread side ---------------------------------------------

  /// Enqueues a ULT as runnable on `lane` and wakes the PE if it is
  /// idle-waiting. Callable from any thread; the owning thread takes the
  /// uncontended fast path. With lanes disabled the hint is ignored.
  void ready(Ult* t, Lane lane = Lane::Normal);

  /// Runs the next ready ULT until it yields, suspends, or finishes.
  /// Returns false (without blocking) if no ULT is ready.
  bool run_one();

  /// Runs ready ULTs until the ready queue drains.
  void run_until_quiescent();

  /// Parks the PE thread until a ULT becomes ready or stop() turns true,
  /// up to timeout_us. Returns true if ready work is available.
  ///
  /// Entering the park publishes parked_ and then, behind a seq_cst fence
  /// (util::seq_cst_fence), evaluates the predicate; wake() publishes its
  /// work, fences, and reads parked_. One side of this Dekker pair always
  /// sees the other, so either the owner finds the work without sleeping or
  /// the producer finds the owner parked and notifies it — a wakeup cannot
  /// be lost, and producers of an owner that is not parked never touch the
  /// mutex or the condvar.
  bool idle_wait(const std::function<bool()>& stop, std::int64_t timeout_us);

  /// Wakes an idle_wait early, if the owner is parked in one. Call after
  /// publishing the work (an atomic store the idle_wait predicate reads,
  /// such as a mailbox push). Callable from any thread.
  void wake();

  /// Queued ULTs (all lanes + undrained cross-thread pushes). Lock-free;
  /// safe from any thread (steal victim selection reads peers' depths).
  ///
  /// Memory order (audited under TSan, see DESIGN.md §14): both loads are
  /// deliberately relaxed. local_n_ is exact only on the owner thread;
  /// remote_n_ is bumped by producers before their Treiber push and
  /// decremented by the draining owner, so a cross-thread reader can see
  /// the two cells at slightly different instants. The only cross-thread
  /// consumer is steal-victim selection, an advisory depth *estimate* — a
  /// stale read picks a marginally worse victim, never corrupts state, and
  /// the thief re-validates with the victim before any rank moves. The
  /// owner-thread read in idle_wait is exact because the owner is the only
  /// writer of local_n_ and drains remote_n_ itself.
  std::size_t ready_count() const noexcept {
    return static_cast<std::size_t>(
        local_n_.load(std::memory_order_relaxed) +
        remote_n_.load(std::memory_order_relaxed));
  }

  /// Removes a queued ULT from the runqueue without running it (rank
  /// stealing packs it instead). Owner thread only. Returns false if the
  /// ULT is not found queued here (e.g. already dispatched).
  bool unqueue(Ult* t);

  // --- ULT side (call only from inside a running ULT of this scheduler) ---

  /// Requeues the current ULT and returns to the scheduler loop; the call
  /// returns when the ULT is next scheduled.
  void yield();

  /// Returns to the scheduler loop without requeueing; somebody must later
  /// ready() this ULT for it to run again.
  void suspend();

  /// Terminates the current ULT. Called by the entry thunk when the body
  /// returns; may also be called explicitly.
  [[noreturn]] void exit_current();

  /// Cooperative preemption tick: when armed and the running ULT has
  /// exceeded its quantum while other work waits, demote it to the Bulk
  /// lane and switch out (the call returns when it is next scheduled).
  /// A single predicted branch when preemption is off.
  void preempt_point() {
    if (!preempt_armed_) [[likely]]
      return;
    if (current_ == nullptr) return;
    preempt_check();
  }

  /// The ULT currently executing on this scheduler, or nullptr.
  Ult* current() const noexcept { return current_; }

  /// Registers a context-switch hook; returns a handle for removal.
  int add_switch_hook(SwitchHook hook);
  void remove_switch_hook(int id);

  /// Total number of scheduler→ULT transfers performed. Single-writer
  /// (the owner thread bumps in enter()); cross-thread readers (the
  /// deadlock scanner summing all PEs) get a relaxed value-only snapshot —
  /// the scanner compares totals across scans, it never consumes memory
  /// the count "protects".
  std::uint64_t switch_count() const noexcept {
    return switches_.load(std::memory_order_relaxed);
  }

  // --- instrumentation (single-writer bumps; readable from any thread) ----
  std::uint64_t lane_dispatches(Lane lane) const noexcept {
    return lane_dispatch_[static_cast<std::size_t>(lane)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t preempt_count() const noexcept {
    return preempts_.load(std::memory_order_relaxed);
  }
  std::uint64_t overrun_count() const noexcept {
    return overruns_.load(std::memory_order_relaxed);
  }
  std::uint64_t remote_ready_count() const noexcept {
    return remote_readies_.load(std::memory_order_relaxed);
  }

 private:
  /// Binds the runqueue's owner to the calling thread on first drive.
  void bind_owner() noexcept;
  bool owner_thread() const noexcept {
    return owner_.load(std::memory_order_relaxed) == std::this_thread::get_id();
  }
  void push_local(Ult* t, Lane lane);
  /// Moves the cross-thread MPSC stack into the lanes in FIFO order.
  void drain_remote();
  Ult* pop_ready();
  void preempt_check();
  void enter(Ult* next);
  void leave_current(UltState new_state);

  ContextBackend backend_;
  Config config_;
  bool preempt_armed_ = false;
  std::uint64_t quantum_ns_ = 0;
  Context sched_ctx_;
  Ult* current_ = nullptr;
  std::atomic<std::uint64_t> switches_{0};
  std::uint64_t slice_start_ns_ = 0;
  int hi_streak_ = 0;

  // Owner-thread runqueue state.
  std::array<std::deque<Ult*>, kLaneCount> lanes_;
  unsigned lane_mask_ = 0;  ///< bit l set iff lanes_[l] nonempty

  // Cross-thread MPSC push path + depth accounting. local_n_ is written
  // only by the owner thread (plain load+store bump); remote_n_ by
  // producers (fetch_add) and the draining owner (fetch_sub).
  std::atomic<Ult*> remote_head_{nullptr};
  std::atomic<std::uint64_t> local_n_{0};
  std::atomic<std::uint64_t> remote_n_{0};
  std::atomic<std::thread::id> owner_{};

  // parked_/mutex_/cv_ exist only for the idle_wait sleep (see idle_wait
  // for the protocol). wake() takes the (empty) critical section before
  // notifying so a wakeup cannot slip between the sleeper's predicate
  // check and its wait.
  std::atomic<bool> parked_{false};
  mutable std::mutex mutex_;
  std::condition_variable cv_;

  std::array<std::atomic<std::uint64_t>, kLaneCount> lane_dispatch_{};
  std::atomic<std::uint64_t> preempts_{0};
  std::atomic<std::uint64_t> overruns_{0};
  std::atomic<std::uint64_t> remote_readies_{0};

  std::vector<std::pair<int, SwitchHook>> hooks_;
  int next_hook_id_ = 0;
};

/// The scheduler driving the calling OS thread right now (set for the
/// duration of run_one), or nullptr outside any scheduler.
Scheduler* current_scheduler() noexcept;

/// The ULT executing on the calling OS thread right now, or nullptr.
Ult* current_ult() noexcept;

}  // namespace apv::ult
