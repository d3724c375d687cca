#include "ult/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/sanitizers.hpp"
#include "util/timer.hpp"

namespace apv::ult {

using util::ErrorCode;
using util::require;

namespace {
thread_local Scheduler* g_current_scheduler = nullptr;

inline std::size_t lane_index(Lane lane) noexcept {
  return static_cast<std::size_t>(lane);
}

// Single-writer counter bump: plain load+store, no RMW on the hot path.
inline void bump(std::atomic<std::uint64_t>& c) noexcept {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

inline int lowest_set(unsigned mask) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_ctz(mask);
#else
  int i = 0;
  while ((mask & 1u) == 0) {
    mask >>= 1;
    ++i;
  }
  return i;
#endif
}
}  // namespace

Scheduler* current_scheduler() noexcept { return g_current_scheduler; }

Ult* current_ult() noexcept {
  Scheduler* s = g_current_scheduler;
  return s ? s->current() : nullptr;
}

const char* ult_state_name(UltState state) noexcept {
  switch (state) {
    case UltState::Created: return "Created";
    case UltState::Ready: return "Ready";
    case UltState::Running: return "Running";
    case UltState::Blocked: return "Blocked";
    case UltState::Done: return "Done";
  }
  return "?";
}

Ult::Ult(Id id, Body body, void* arg, void* stack_base,
         std::size_t stack_size, ContextBackend backend)
    : id_(id),
      body_(body),
      arg_(arg),
      stack_base_(stack_base),
      stack_size_(stack_size) {
  context_.create(stack_base, stack_size, &Ult::entry_thunk, this, backend);
}

void Ult::entry_thunk(void* self) {
  auto* t = static_cast<Ult*>(self);
  try {
    // A never-started ULT dispatched by the stop-drain has nothing on its
    // stack to unwind; skip the body instead of running it against a
    // half-torn-down runtime.
    if (!t->unwind_requested()) t->body_(t->arg_);
  } catch (const UltUnwind&) {
    // Forced unwind from a suspend point: the throw already ran the
    // abandoned frames' destructors, which is all the drain wanted.
  }
  Scheduler* sched = current_scheduler();
  if (sched == nullptr) std::abort();  // ULT ran outside any scheduler
  sched->exit_current();
}

Scheduler::Scheduler(ContextBackend backend)
    : Scheduler(backend, Config{}) {}

Scheduler::Scheduler(ContextBackend backend, const Config& config)
    : backend_(backend), config_(config) {
  require(context_backend_available(backend), ErrorCode::NotSupported,
          "requested context backend not available");
  // FIFO policy collapses to one lane; a quantum is meaningless there.
  preempt_armed_ = config_.lanes && config_.preempt;
  quantum_ns_ = config_.quantum_us * 1000;
  sched_ctx_.create_native(backend);
}

void Scheduler::bind_owner() noexcept {
  if (owner_.load(std::memory_order_relaxed) == std::thread::id{})
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
}

void Scheduler::push_local(Ult* t, Lane lane) {
  const std::size_t l = lane_index(lane);
  lanes_[l].push_back(t);
  lane_mask_ |= 1u << l;
  bump(local_n_);
}

void Scheduler::ready(Ult* t, Lane lane) {
  require(t != nullptr, ErrorCode::InvalidArgument, "ready(nullptr)");
  if (!config_.lanes) lane = Lane::Normal;
  t->set_state(UltState::Ready);
  t->set_ready_lane(lane);
  if (owner_thread()) {
    // Fast path: the PE waking one of its own ranks — no lock, no RMW.
    // No notify needed either: the owner is by definition not sleeping
    // in idle_wait while it executes this.
    push_local(t, lane);
    return;
  }
  // Cross-thread (or pre-bind) path: lock-free Treiber push. The stack is
  // LIFO; drain_remote() reverses it so enqueue order is preserved. No ABA
  // concern: only the owner pops, and only via a whole-stack exchange.
  remote_n_.fetch_add(1, std::memory_order_relaxed);
  Ult* head = remote_head_.load(std::memory_order_relaxed);
  do {
    t->remote_next_ = head;
  } while (!remote_head_.compare_exchange_weak(head, t,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
  // Many producers can land here at once, so this bump is an RMW.
  remote_readies_.fetch_add(1, std::memory_order_relaxed);
  wake();
}

void Scheduler::drain_remote() {
  Ult* h = remote_head_.exchange(nullptr, std::memory_order_acquire);
  if (h == nullptr) return;
  // Reverse the LIFO stack back into push order.
  Ult* rev = nullptr;
  std::uint64_t n = 0;
  while (h != nullptr) {
    Ult* next = h->remote_next_;
    h->remote_next_ = rev;
    rev = h;
    h = next;
    ++n;
  }
  while (rev != nullptr) {
    Ult* next = rev->remote_next_;
    rev->remote_next_ = nullptr;
    push_local(rev, rev->ready_lane());
    rev = next;
  }
  remote_n_.fetch_sub(n, std::memory_order_relaxed);
}

Ult* Scheduler::pop_ready() {
  drain_remote();
  if (lane_mask_ == 0) return nullptr;
  int l = lowest_set(lane_mask_);
  if (config_.lanes && l == static_cast<int>(Lane::High)) {
    // Starvation freedom: after starve_limit consecutive High dispatches,
    // give one slot to the lowest non-High lane that has work.
    const unsigned lower = lane_mask_ & ~1u;
    if (hi_streak_ >= config_.starve_limit && lower != 0) {
      l = lowest_set(lower);
      hi_streak_ = 0;
    } else {
      ++hi_streak_;
    }
  } else {
    hi_streak_ = 0;
  }
  auto& q = lanes_[static_cast<std::size_t>(l)];
  Ult* t = q.front();
  q.pop_front();
  if (q.empty()) lane_mask_ &= ~(1u << l);
  local_n_.store(local_n_.load(std::memory_order_relaxed) - 1,
                 std::memory_order_relaxed);
  bump(lane_dispatch_[static_cast<std::size_t>(l)]);
  return t;
}

bool Scheduler::unqueue(Ult* t) {
  require(t != nullptr, ErrorCode::InvalidArgument, "unqueue(nullptr)");
  require(owner_thread() ||
              owner_.load(std::memory_order_relaxed) == std::thread::id{},
          ErrorCode::BadState, "unqueue from a non-owner thread");
  drain_remote();
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    auto& q = lanes_[l];
    auto it = std::find(q.begin(), q.end(), t);
    if (it == q.end()) continue;
    q.erase(it);
    if (q.empty()) lane_mask_ &= ~(1u << l);
    local_n_.store(local_n_.load(std::memory_order_relaxed) - 1,
                   std::memory_order_relaxed);
    return true;
  }
  return false;
}

void Scheduler::enter(Ult* next) {
  Scheduler* outer = g_current_scheduler;
  g_current_scheduler = this;
  for (auto& [id, hook] : hooks_) hook(next);
  next->set_state(UltState::Running);
  current_ = next;
  bump(switches_);
  if (preempt_armed_) slice_start_ns_ = util::wall_time_ns();
  sched_ctx_.switch_to(next->context());
  if (next->state() == UltState::Done) next->context().retire_fiber();
  current_ = nullptr;
  g_current_scheduler = outer;
}

bool Scheduler::run_one() {
  require(current_ == nullptr, ErrorCode::BadState,
          "run_one called from inside a ULT");
  bind_owner();
  Ult* next = pop_ready();
  if (next == nullptr) return false;
  enter(next);
  return true;
}

void Scheduler::run_until_quiescent() {
  while (run_one()) {
  }
}

bool Scheduler::idle_wait(const std::function<bool()>& stop,
                          std::int64_t timeout_us) {
  bind_owner();
  parked_.store(true, std::memory_order_relaxed);
  // Dekker pair with wake(): publish parked_ before reading the predicate.
  util::seq_cst_fence();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::microseconds(timeout_us),
                 [&] { return ready_count() > 0 || stop(); });
  }
  parked_.store(false, std::memory_order_relaxed);
  return ready_count() > 0;
}

void Scheduler::wake() {
  // Dekker pair with idle_wait(): publish the work before reading parked_.
  util::seq_cst_fence();
  if (!parked_.load(std::memory_order_relaxed)) return;
  // Pass through the mutex before notifying so the wakeup cannot land
  // between the sleeper's predicate check and its wait.
  { std::lock_guard<std::mutex> lock(mutex_); }
  cv_.notify_one();
}

void Scheduler::leave_current(UltState new_state) {
  Ult* self = current_;
  require(self != nullptr, ErrorCode::BadState,
          "yield/suspend/exit called outside a ULT");
  self->set_state(new_state);
  self->context().switch_to(sched_ctx_);
}

void Scheduler::yield() {
  Ult* self = current_;
  require(self != nullptr, ErrorCode::BadState, "yield outside a ULT");
  self->set_ready_lane(Lane::Normal);
  push_local(self, Lane::Normal);
  leave_current(UltState::Ready);
  // Resumed. Check unwind via `self`, not `this`: a migrated ULT resumes on
  // another PE's scheduler, and the Ult object (slot-resident, same VA
  // everywhere) is the only safe thing to touch in this frame.
  if (self->unwind_requested()) throw UltUnwind{};
}

void Scheduler::suspend() {
  Ult* self = current_;
  leave_current(UltState::Blocked);
  // Resumed (see yield() for why `self` and not `this`). A stop-drain
  // resume turns this suspend point into the unwind origin.
  if (self->unwind_requested()) throw UltUnwind{};
}

void Scheduler::exit_current() {
  Ult* self = current_;
  require(self != nullptr, ErrorCode::BadState, "exit outside a ULT");
  // Final departure: tell the sanitizers this fiber's stack state can be
  // released rather than saved (no-op in plain builds).
  self->context().mark_exiting();
  leave_current(UltState::Done);
  std::abort();  // a Done ULT must never be resumed
}

void Scheduler::preempt_check() {
  const std::uint64_t now = util::wall_time_ns();
  if (now - slice_start_ns_ < quantum_ns_) return;
  drain_remote();
  if (lane_mask_ == 0) {
    // Overran the quantum but nobody else is waiting: note it and let the
    // slice restart rather than paying a pointless switch.
    bump(overruns_);
    slice_start_ns_ = now;
    return;
  }
  bump(preempts_);
  Ult* self = current_;
  self->set_ready_lane(Lane::Bulk);
  push_local(self, Lane::Bulk);
  leave_current(UltState::Ready);
  // Resumed: enter() restamped slice_start_ns_.
  if (self->unwind_requested()) throw UltUnwind{};
}

int Scheduler::add_switch_hook(SwitchHook hook) {
  const int id = next_hook_id_++;
  hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Scheduler::remove_switch_hook(int id) {
  for (auto it = hooks_.begin(); it != hooks_.end(); ++it) {
    if (it->first == id) {
      hooks_.erase(it);
      return;
    }
  }
}

}  // namespace apv::ult
