#include "comm/pe.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/sigstack.hpp"

namespace apv::comm {

using util::ErrorCode;
using util::require;

namespace {
thread_local Pe* g_current_pe = nullptr;

// Consecutive scheduler slices with an empty mailbox before the loop runs
// its idle hooks even though a ULT is still ready (see run_loop). Small
// enough that a spin-waiting peer stalls only microseconds; large enough
// that bins still batch across bursts of back-to-back sends.
constexpr std::size_t kQuietSlicesBeforeFlush = 64;

// PEs of this process inside their spin window (capped by max_spinners).
std::atomic<int> g_spinners{0};

bool claim_spinner() noexcept {
  if (g_spinners.fetch_add(1, std::memory_order_relaxed) < Pe::max_spinners())
    return true;
  g_spinners.fetch_sub(1, std::memory_order_relaxed);
  return false;
}

void release_spinner() noexcept {
  g_spinners.fetch_sub(1, std::memory_order_relaxed);
}
}  // namespace

Pe* Pe::current() noexcept { return g_current_pe; }

Pe::Pe(PeId id, NodeId node, ult::ContextBackend backend)
    : Pe(id, node, backend, Config{}) {}

Pe::Pe(PeId id, NodeId node, ult::ContextBackend backend,
       const Config& config)
    : id_(id),
      node_(node),
      sched_(backend, config.sched),
      mailbox_(config.mailbox),
      drain_batch_(config.drain_batch == 0 ? 1 : config.drain_batch) {
  drain_buf_.reserve(drain_batch_);
}

void Pe::set_dispatcher(Dispatcher dispatcher) {
  require(!running_.load(), ErrorCode::BadState,
          "cannot change dispatcher while the PE loop runs");
  dispatcher_ = std::move(dispatcher);
}

void Pe::add_idle_hook(IdleHook hook) {
  require(!running_.load(), ErrorCode::BadState,
          "cannot add idle hooks while the PE loop runs");
  idle_hooks_.push_back(std::move(hook));
}

void Pe::set_stop_drain(StopDrain drain) {
  require(!running_.load(), ErrorCode::BadState,
          "cannot change the stop drain while the PE loop runs");
  stop_drain_ = std::move(drain);
}

void Pe::set_poll_hook(PollHook hook) {
  require(!running_.load(), ErrorCode::BadState,
          "cannot change the poll hook while the PE loop runs");
  poll_hook_ = std::move(hook);
}

void Pe::post(Message&& msg) {
  mailbox_.push(std::move(msg));
  sched_.wake();
}

int Pe::max_spinners() noexcept {
  static const int cap =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())) - 1;
  return cap;
}

bool Pe::drain_mailbox() {
  // One batched pass: swap up to drain_batch_ envelopes out of the ring
  // (lock-free), then dispatch them with the mailbox untouched. The loop
  // interleaves passes with run_one(), so a flood cannot starve the ULTs.
  drain_buf_.clear();
  if (mailbox_.pop_batch(drain_buf_, drain_batch_) == 0) return false;
  for (Message& msg : drain_buf_) {
    if (msg.kind == Message::Kind::Aggregate) {
      unbundle(std::move(msg), [this](Message&& sub) {
        ++processed_;
        dispatcher_(std::move(sub));
      });
    } else {
      ++processed_;
      dispatcher_(std::move(msg));
    }
  }
  drain_buf_.clear();
  return true;
}

void Pe::run_idle_hooks() {
  for (const IdleHook& hook : idle_hooks_) hook();
}

void Pe::run_loop() {
  require(dispatcher_ != nullptr, ErrorCode::BadState,
          "PE loop needs a dispatcher");
  g_current_pe = this;
  // ULT stacks live inside isomalloc slots; when the dirty tracker arms a
  // slot read-only, the first push after resume faults *on the stack being
  // protected* — the SIGSEGV frame needs an alternate stack to land on.
  util::ensure_sigaltstack();
  running_.store(true);
  APV_DEBUG("pe", "PE %d (node %d) loop starting", id_, node_);
  std::size_t quiet_streak = 0;
  for (;;) {
    // Transport poll first: envelopes it pulls off the shm rings land in our
    // own mailbox (posted from this thread) and the drain right below
    // dispatches them in the same iteration.
    const std::size_t polled = poll_hook_ ? poll_hook_() : 0;
    const bool had_msgs = drain_mailbox() || polled > 0;
    const bool ran = sched_.run_one();
    if (had_msgs || ran) {
      if (idle_ != Idle::Busy) end_idle();
      // A ULT can keep the scheduler busy forever while logically waiting on
      // remote progress (e.g. a recovery leader spin-yielding on a peer). If
      // such a spin left a message in an aggregation bin, the peer in turn
      // may be blocked on exactly that message — so bins must not ride out a
      // busy scheduler indefinitely. After a bounded streak of slices where
      // the mailbox stayed empty, run the idle hooks anyway; streaks with
      // traffic reset the clock, so bulk streams still batch by size.
      if (had_msgs) {
        quiet_streak = 0;
      } else if (++quiet_streak >= kQuietSlicesBeforeFlush) {
        quiet_streak = 0;
        run_idle_hooks();
      }
      continue;
    }
    quiet_streak = 0;
    // The hooks run when the PE goes idle and after each park, not on every
    // pass of the spin window: that keeps their cadence (steal attempts,
    // load slices) what it is without the window, and the window cheap.
    if (idle_ != Idle::Spinning) run_idle_hooks();
    if (halting()) {
      // Exit only when really quiescent: a message may have raced in (and
      // the idle hooks above may have flushed aggregation bins our way).
      if (mailbox_.empty() && sched_.ready_count() == 0) break;
      continue;
    }
    idle();
  }
  if (idle_ == Idle::Spinning) release_spinner();
  idle_ = Idle::Busy;
  // Orderly stop (not a simulated crash): let the upper layer unwind
  // whatever is still parked on this scheduler, on this thread, while the
  // switch hooks and sigaltstack are still in place.
  if (stop_drain_ && !failed_.load()) stop_drain_();
  running_.store(false);
  g_current_pe = nullptr;
  APV_DEBUG("pe", "PE %d loop exited after %llu messages", id_,
            static_cast<unsigned long long>(processed_));
}

void Pe::idle() {
  const auto now = std::chrono::steady_clock::now();
  if (idle_ == Idle::Busy) {
    if (claim_spinner()) {
      idle_ = Idle::Spinning;
      spin_end_ = now + std::chrono::microseconds(kSpinWindowUs);
    } else {
      idle_ = Idle::Parking;  // spinner cap taken: park at once
      ++parks_;
    }
  }
  if (idle_ == Idle::Spinning) {
    if (now < spin_end_) {
      // Yield rather than pause, so a PE or peer process sharing this core
      // still runs.
      std::this_thread::yield();
      return;
    }
    release_spinner();
    idle_ = Idle::Parking;
    ++parks_;
  }
  sched_.idle_wait([this] { return halting() || mailbox_depth() > 0; },
                   poll_hook_ ? kShmNapUs : kParkUs);
}

void Pe::end_idle() {
  if (idle_ == Idle::Spinning) {
    release_spinner();
    ++spin_wakes_;
  }
  idle_ = Idle::Busy;
}

void Pe::stop() { stop_.store(true); sched_.wake(); }

void Pe::fail() {
  failed_.store(true);
  sched_.wake();
  APV_WARN("pe", "PE %d declared failed; draining backlog and halting", id_);
}

}  // namespace apv::comm
