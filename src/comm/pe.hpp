#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "comm/mailbox.hpp"
#include "comm/message.hpp"
#include "ult/scheduler.hpp"
#include "util/stats.hpp"

namespace apv::comm {

/// One processing element: a scheduler thread with a mailbox.
///
/// The PE's loop alternates between draining its mailbox (each message is
/// handed to the dispatcher installed by the layer above, on this thread)
/// and running ready ULTs. This "messages wake ranks on their own PE"
/// discipline is what makes blocking MPI calls race-free: a rank only
/// suspends and resumes on its resident PE's thread.
///
/// The mailbox is a lock-light MPSC ring (see Mailbox); the loop drains it
/// in batches of `drain_batch` envelopes per pass, and aggregate envelopes
/// are unbundled here — the dispatcher above only ever sees plain messages.
class Pe {
 public:
  /// Runs on the PE thread for every received message.
  using Dispatcher = std::function<void(Message&&)>;
  /// Runs when the loop goes idle (progress hook for the upper layer).
  using IdleHook = std::function<void()>;
  /// Drains this PE's inbound cross-process transport rings; returns how
  /// many envelopes it moved (they land in the mailbox via post, so the
  /// loop's next drain dispatches them). Runs on the PE thread, every loop
  /// iteration.
  using PollHook = std::function<std::size_t()>;
  /// Runs on the PE thread after the loop exits via stop() — not after a
  /// simulated crash (fail()), whose semantics are precisely "no cleanup
  /// ran". The MPI layer uses it to force-unwind ranks still parked here
  /// (fail-fast teardown abandons them mid-wait) so their fiber stacks
  /// release held resources before the slots are freed.
  using StopDrain = std::function<void()>;

  struct Config {
    Mailbox::Config mailbox;
    std::size_t drain_batch = 64;  ///< envelopes moved out per drain pass
    ult::Scheduler::Config sched;  ///< runqueue policy for this PE
  };

  Pe(PeId id, NodeId node,
     ult::ContextBackend backend = ult::default_context_backend());
  Pe(PeId id, NodeId node, ult::ContextBackend backend,
     const Config& config);

  PeId id() const noexcept { return id_; }
  NodeId node() const noexcept { return node_; }
  ult::Scheduler& scheduler() noexcept { return sched_; }

  /// Installs the message dispatcher. Must happen before the loop starts.
  void set_dispatcher(Dispatcher dispatcher);
  /// Registers an idle hook; all hooks run, in registration order, when the
  /// loop goes idle and after each park (before the loop considers sleeping
  /// or exiting), but not on the polling passes of the spin window.
  /// The comm layer uses one to flush aggregation bins; the MPI layer uses
  /// one to close load-accounting slices.
  void add_idle_hook(IdleHook hook);
  /// Installs the stop-drain callback. Must happen before the loop starts.
  void set_stop_drain(StopDrain drain);
  /// Installs the transport poll hook. Remote traffic arrives with no wakeup
  /// signal (the producer is in another process and cannot notify this
  /// scheduler), so while a hook is installed the park is a short timed nap
  /// (kShmNapUs) instead of the kParkUs condvar wait. Must happen before the
  /// loop starts.
  void set_poll_hook(PollHook hook);

  /// Thread-safe: enqueues a message and wakes the PE if it is parked.
  void post(Message&& msg);

  std::size_t mailbox_depth() const { return mailbox_.size_approx(); }
  const Mailbox& mailbox() const noexcept { return mailbox_; }

  /// The PE loop body; Cluster runs this on a dedicated thread. Returns
  /// when stop() has been called and no work remains.
  void run_loop();

  /// Requests loop exit once the mailbox and ready queue drain.
  void stop();

  /// Simulates a crash of this PE (fault injection). The loop finishes the
  /// work it has already accepted — backlog messages and ready ULTs — then
  /// exits; fresh traffic must be cut off at the routing layer
  /// (Cluster::fail_pe does both). The drain keeps the crash point well
  /// defined for the recovery protocol: commands posted before the failure
  /// (like the victim ranks' own checkpoint packs) still execute.
  void fail();

  /// True once fail() has been called.
  bool failed() const noexcept { return failed_.load(); }

  /// True while run_loop is executing.
  bool running() const noexcept { return running_.load(); }

  std::uint64_t messages_processed() const noexcept { return processed_; }

  // --- idle policy (one path for every backend) ----------------------------
  //
  // When an iteration of the loop finds no work, the PE runs its idle hooks
  // and spins: it keeps polling its mailbox, ready queue and transport poll
  // hook, yielding the CPU between passes, for kSpinWindowUs. Work arriving
  // inside the window is picked up with no wakeup at all. After the window
  // it parks. At most max_spinners() PEs of the process spin at once — one
  // core is left for the PEs doing work — and a PE that finds the cap taken
  // parks at once, so oversubscribed runs do not burn the cores their busy
  // PEs need.

  /// Spin window after the last activity, in microseconds.
  static constexpr std::int64_t kSpinWindowUs = 50;
  /// In-process park: a condvar wait producers cut short via post()/ready().
  /// The timeout only paces the idle hooks (steal retries, load slices).
  static constexpr std::int64_t kParkUs = 200;
  /// Park with a transport poll hook: producers in another process cannot
  /// notify, so this bounds the latency their messages can add.
  static constexpr std::int64_t kShmNapUs = 50;

  /// How many PEs of this process may spin at once: one less than the
  /// hardware threads (0 on a single-core host).
  static int max_spinners() noexcept;

  /// Idle periods that ended in a park (counted when the park begins).
  /// Single-writer (the PE thread); readable from any thread.
  std::uint64_t park_count() const noexcept { return parks_.get(); }
  /// Idle periods that ended by work arriving inside the spin window.
  std::uint64_t spin_wake_count() const noexcept { return spin_wakes_.get(); }

  /// The PE whose loop is executing on the calling thread, or nullptr.
  static Pe* current() noexcept;

 private:
  bool drain_mailbox();
  void run_idle_hooks();
  /// True when the loop may exit or must look again at once.
  bool halting() const noexcept { return stop_.load() || failed_.load(); }
  /// One idle iteration: spin (yield) inside the window, else park.
  void idle();
  /// Closes the idle period the last iteration left open, if any.
  void end_idle();

  PeId id_;
  NodeId node_;
  ult::Scheduler sched_;
  Dispatcher dispatcher_;
  std::vector<IdleHook> idle_hooks_;
  StopDrain stop_drain_;
  PollHook poll_hook_;

  // Idle-period state, owned by the PE thread.
  enum class Idle { Busy, Spinning, Parking };
  Idle idle_ = Idle::Busy;
  std::chrono::steady_clock::time_point spin_end_;
  util::OwnedCounter parks_;
  util::OwnedCounter spin_wakes_;

  Mailbox mailbox_;
  std::size_t drain_batch_;
  std::vector<Message> drain_buf_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::atomic<bool> running_{false};
  std::uint64_t processed_ = 0;
};

}  // namespace apv::comm
