#include "comm/mailbox.hpp"

namespace apv::comm {

Mailbox::Mailbox() : Mailbox(Config{}) {}

Mailbox::Mailbox(const Config& config) : mode_(config.mode) {
  if (mode_ == Mode::Mutex) return;
  std::size_t cap = 16;
  while (cap < config.slots) cap <<= 1;
  mask_ = cap - 1;
  slots_ = std::make_unique<Slot[]>(cap);
  for (std::size_t i = 0; i < cap; ++i)
    slots_[i].seq.store(i, std::memory_order_relaxed);
}

void Mailbox::push_overflow(Message&& msg) {
  {
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    overflow_.push_back(std::move(msg));
    overflow_count_.fetch_add(1, std::memory_order_relaxed);
    overflow_nonempty_.store(true, std::memory_order_release);
  }
  overflow_pushes_.fetch_add(1, std::memory_order_relaxed);
}

void Mailbox::push(Message&& msg) {
  if (mode_ == Mode::Mutex) {
    push_overflow(std::move(msg));
    return;
  }
  // FIFO rule 1: while the overflow holds anything, all producers append
  // there — a producer with an overflowed message must not lap it via the
  // ring.
  if (!overflow_nonempty_.load(std::memory_order_acquire)) {
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::int64_t>(seq) -
                       static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.msg = std::move(msg);
          slot.seq.store(pos + 1, std::memory_order_release);
          ring_pushes_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      } else if (dif < 0) {
        break;  // ring full this instant: take the overflow path
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }
  push_overflow(std::move(msg));
}

std::size_t Mailbox::pop_batch(std::vector<Message>& out, std::size_t max) {
  std::size_t n = 0;
  if (mode_ == Mode::Mutex) {
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    while (n < max && !overflow_.empty()) {
      out.push_back(std::move(overflow_.front()));
      overflow_.pop_front();
      overflow_count_.fetch_sub(1, std::memory_order_relaxed);
      ++n;
    }
    return n;
  }

  std::uint64_t pos = tail_.load(std::memory_order_relaxed);
  while (n < max) {
    Slot& slot = slots_[pos & mask_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq != pos + 1) break;  // next slot not published yet
    out.push_back(std::move(slot.msg));
    slot.msg = Message{};
    slot.seq.store(pos + mask_ + 1, std::memory_order_release);
    ++pos;
    ++n;
  }
  tail_.store(pos, std::memory_order_release);
  if (n >= max) return n;

  // FIFO rule 2: overflow messages come out only once the ring is fully
  // drained (head == tail and nothing half-published), so every ring entry
  // that predates the overflow is already delivered.
  if (overflow_nonempty_.load(std::memory_order_acquire) &&
      head_.load(std::memory_order_acquire) == pos) {
    std::deque<Message> batch;
    {
      std::lock_guard<std::mutex> lock(overflow_mutex_);
      // Test again under the lock. A producer that read overflow_nonempty_
      // == false before the overflow began may have claimed a ring slot
      // since the test above and then pushed its next message here; taking
      // the overflow now would deliver that later message first. A push
      // already in the overflow was made under this lock, after its
      // producer's earlier ring claims, so this load sees those claims.
      if (head_.load(std::memory_order_acquire) != pos) return n;
      batch.swap(overflow_);
      overflow_count_.fetch_sub(batch.size(), std::memory_order_relaxed);
      overflow_nonempty_.store(false, std::memory_order_release);
    }
    for (auto& m : batch) {
      out.push_back(std::move(m));
      ++n;
    }
  }
  return n;
}

std::size_t Mailbox::size_approx() const noexcept {
  std::size_t n = overflow_count_.load(std::memory_order_acquire);
  if (mode_ == Mode::Ring) {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head > tail) n += static_cast<std::size_t>(head - tail);
  }
  return n;
}

}  // namespace apv::comm
