// Sanitizer-focused regression tests.
//
// The stress test runs (and must pass) in every build; under
// -DAPV_SANITIZE=thread it additionally drives TSan across the exact
// cross-thread edges the scheduler's lock-free ready path relies on (Treiber
// MPSC push vs owner drain vs unqueue steal departures). The death tests are
// ASan-only negative harnesses: they prove the manual poisoning actually
// fires on stale accesses (a quarantine that never kills anything is
// indistinguishable from one that is wired up wrong).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "comm/payload.hpp"
#include "image/image.hpp"
#include "isomalloc/slot_heap.hpp"
#include "mpi/runtime.hpp"
#include "ult/scheduler.hpp"
#include "util/sanitizers.hpp"

using namespace apv;

namespace {

struct CountArg {
  ult::Scheduler* sched;
  std::atomic<int>* ran;
};

void count_and_yield_body(void* arg) {
  auto* a = static_cast<CountArg*>(arg);
  a->ran->fetch_add(1, std::memory_order_relaxed);
  a->sched->yield();  // one requeue so every ULT crosses the lanes twice
}

void trivial_body(void*) {}

}  // namespace

// Producer threads hammer Scheduler::ready() — the lock-free Treiber MPSC
// push — while the owner thread drains, dispatches, and interleaves
// unqueue() calls (the rank-stealing departure path). This is the
// interleaving a PE sees when remote PEs wake work on it while it
// simultaneously pulls queued ranks back out. Each ULT is pushed exactly
// once by exactly one producer (the scheduler's contract: ready() targets a
// non-queued, non-running ULT); all the contention under test lives in the
// push/drain/unqueue machinery and the idle_wait cv handshake.
TEST(SanStress, CrossThreadReadyVsOwnerDrainAndUnqueue) {
  constexpr int kProducers = 3;
  constexpr int kBatch = 64;
  constexpr int kTotal = kProducers * kBatch;

  ult::Scheduler sched;
  std::atomic<int> ran{0};
  CountArg arg{&sched, &ran};

  std::vector<std::vector<char>> stacks;
  std::vector<std::unique_ptr<ult::Ult>> ults;
  for (int i = 0; i < kTotal; ++i) {
    stacks.emplace_back(128 * 1024);
    ults.push_back(std::make_unique<ult::Ult>(
        static_cast<ult::Ult::Id>(i + 1), count_and_yield_body, &arg,
        stacks.back().data(), stacks.back().size()));
  }

  // Bind the owner thread (and give unqueue a resident victim) before the
  // producers start pushing.
  std::vector<char> park_stack(64 * 1024);
  ult::Ult parked(9999, trivial_body, nullptr, park_stack.data(),
                  park_stack.size());
  ASSERT_FALSE(sched.run_one());  // binds owner; queue empty

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kBatch; ++i) {
        sched.ready(ults[static_cast<std::size_t>(p * kBatch + i)].get());
        if (i % 8 == 0) std::this_thread::yield();
      }
    });
  }

  int idle = 0;
  while (ran.load(std::memory_order_relaxed) < kTotal) {
    if (!sched.run_one()) {
      std::this_thread::yield();
      ++idle;
    }
    // Steal-departure interleave: queue a local ULT and immediately remove
    // it while remote pushes land concurrently. unqueue() must find it (the
    // owner did nothing in between) without perturbing the remote stack.
    if (idle % 32 == 1) {
      sched.ready(&parked);
      EXPECT_TRUE(sched.unqueue(&parked));
    }
  }
  for (auto& t : producers) t.join();
  sched.run_until_quiescent();  // drain the final yields → all Done
  EXPECT_EQ(ran.load(), kTotal);
  for (auto& u : ults) EXPECT_EQ(u->state(), ult::UltState::Done);
  // Let the parked ULT actually run so its fiber retires cleanly.
  sched.ready(&parked);
  sched.run_until_quiescent();
  EXPECT_EQ(parked.state(), ult::UltState::Done);
}

namespace {

// Same-PE and cross-PE sends plus hierarchical allreduces: the inline and
// collective counter families both move while the job runs.
void* counter_traffic_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();
  const int n = env->size();
  long acc = 0;
  for (int i = 0; i < 300; ++i) {
    int out = me + i;
    int in = 0;
    env->sendrecv(&out, 1, mpi::Datatype::Int, (me + 1) % n, 4, &in, 1,
                  mpi::Datatype::Int, (me + n - 1) % n, 4);
    long v = in;
    long sum = 0;
    env->allreduce(&v, &sum, 1, mpi::Datatype::Long,
                   mpi::Op::builtin(mpi::OpKind::Sum));
    acc += sum;
  }
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(acc));
}

}  // namespace

// The per-PE locality, collective, steal and idle counters are written by
// the PE threads and summed by locality_counters() / sched_counters() from
// any thread. Reading them while the job runs must be race-free (TSan
// checks it here) and must see them only grow.
TEST(SanStress, CountersReadWhileJobRuns) {
  img::ImageBuilder b("countertraffic");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &counter_traffic_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 2;
  cfg.vps = 6;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  mpi::Runtime rt(image, cfg);

  std::atomic<bool> done{false};
  std::uint64_t reads = 0;
  bool monotonic = true;
  std::thread reader([&] {
    std::uint64_t last_sends = 0, last_coll = 0, last_idle = 0;
    while (!done.load()) {
      const util::Counters lc = rt.locality_counters();
      const util::Counters sc = rt.sched_counters();
      const std::uint64_t sends =
          lc.get("inline_hits") + lc.get("inline_misses");
      const std::uint64_t coll = lc.get("coll_local_combines") +
                                 lc.get("coll_shared_rendezvous");
      const std::uint64_t idle =
          sc.get("sched_parks") + sc.get("sched_spin_wakes");
      monotonic = monotonic && sends >= last_sends && coll >= last_coll &&
                  idle >= last_idle;
      last_sends = sends;
      last_coll = coll;
      last_idle = idle;
      ++reads;
      std::this_thread::yield();
    }
  });
  rt.start();
  rt.wait_finish();
  done.store(true);
  reader.join();
  EXPECT_TRUE(monotonic);
  EXPECT_GT(reads, 0u);
  const util::Counters lc = rt.locality_counters();
  EXPECT_GT(lc.get("inline_hits") + lc.get("inline_misses"), 0u);
  EXPECT_GT(lc.get("coll_local_combines"), 0u);
}

#if APV_ASAN

// A Payload view kept past its buffer's release must die on first touch:
// pool_put quarantines the chunk (poison), so the stale read is a loud
// use-after-poison instead of silently observing recycled bytes.
TEST(SanAsanDeath, StalePayloadViewDiesOnUse) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        comm::pool::set_enabled(true);
        std::byte* stale = nullptr;
        {
          comm::Payload p = comm::Payload::acquire(128);
          p.data()[0] = std::byte{42};
          stale = p.data();
        }  // last ref dropped: chunk returns to the pool, poisoned
        volatile std::byte b = stale[0];
        (void)b;
      },
      "use-after-poison");
}

// Freed slot-heap blocks are quarantined beyond their in-band FreeLinks; a
// rank's dangling pointer into its own heap must die the same way.
TEST(SanAsanDeath, SlotHeapUseAfterFreeDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        constexpr std::size_t kSlot = std::size_t{1} << 20;
        std::vector<char> slotv(kSlot + 16);
        void* base = reinterpret_cast<void*>(
            (reinterpret_cast<std::uintptr_t>(slotv.data()) + 15) & ~15ull);
        iso::SlotHeap* heap = iso::SlotHeap::format(base, kSlot);
        char* p = static_cast<char*>(heap->alloc(256));
        std::memset(p, 0x5a, 256);
        heap->free(p);
        // The first 16 payload bytes now hold live FreeLinks (addressable);
        // everything beyond is quarantined.
        volatile char c = p[64];
        (void)c;
      },
      "use-after-poison");
}

#else

TEST(SanAsanDeath, SkippedWithoutAsan) {
  GTEST_SKIP() << "ASan quarantine death tests require -DAPV_SANITIZE=address";
}

#endif  // APV_ASAN
