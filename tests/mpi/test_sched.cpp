// Scheduler-tier integration tests: priority lanes vs the fifo escape
// hatch (A/B result identity), cooperative preemption under real traffic,
// the runtime checker staying false-positive-free with preemption armed,
// and idle-PE rank stealing racing checkpoints and PE failure.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "comm/pe.hpp"
#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/sanitizers.hpp"
#include "util/stats.hpp"

using namespace apv;
using mpi::Datatype;
using mpi::Env;

namespace {

img::ProgramImage build_entry(const char* name, img::NativeFn fn) {
  img::ImageBuilder b(name);
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", fn);
  return b.build();
}

// Deterministic mixed traffic: a ring of small p2p messages (they ride the
// high-priority lane when lanes are on) interleaved with allreduces. The
// returned checksum depends on every hop, so any delivery or matching
// difference between scheduling policies shows up as a different value.
void* ring_mix_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  const int n = env->size();
  const int right = (me + 1) % n;
  const int left = (me + n - 1) % n;
  // Unsigned accumulator: the rolling checksum wraps by design after a few
  // dozen hops, which is UB on a signed type (UBSan: signed overflow).
  std::uintptr_t sum = 0;
  for (int i = 0; i < 24; ++i) {
    int out = me * 1000 + i;
    int in = -1;
    env->sendrecv(&out, 1, Datatype::Int, right, 3, &in, 1, Datatype::Int,
                  left, 3);
    sum = sum * 31 + static_cast<unsigned>(in);
    if (i % 6 == 5) {
      long v = static_cast<long>(sum % 9973), total = 0;
      env->allreduce(&v, &total, 1, Datatype::Long, mpi::Op::builtin(mpi::OpKind::Sum));
      sum += static_cast<std::uintptr_t>(total);
    }
  }
  env->barrier();
  return reinterpret_cast<void*>(sum);
}

struct MixResult {
  std::vector<std::intptr_t> returns;
  util::Counters sched;
};

MixResult run_ring_mix(const char* policy, bool preempt) {
  img::ProgramImage image = build_entry("schedmix", &ring_mix_main);
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 2;
  cfg.vps = 6;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("sched.policy", policy);
  cfg.options.set("sched.preempt", preempt ? "on" : "off");
  mpi::Runtime rt(image, cfg);
  rt.run();
  MixResult res;
  for (int r = 0; r < cfg.vps; ++r)
    res.returns.push_back(reinterpret_cast<std::intptr_t>(rt.rank_return(r)));
  res.sched = rt.sched_counters();
  return res;
}

}  // namespace

// A/B identity: the multi-lane scheduler reorders *when* ranks run, never
// *what* they compute — prio and fifo must produce identical results. The
// fifo run must also show the fast path fully disengaged (seed behaviour:
// everything is a Normal-lane dispatch, nothing preempted, nothing stolen).
TEST(SchedPolicy, PrioAndFifoProduceIdenticalResults) {
  const MixResult prio = run_ring_mix("prio", /*preempt=*/false);
  const MixResult fifo = run_ring_mix("fifo", /*preempt=*/false);
  ASSERT_EQ(prio.returns.size(), fifo.returns.size());
  for (std::size_t r = 0; r < prio.returns.size(); ++r)
    EXPECT_EQ(prio.returns[r], fifo.returns[r]) << "rank " << r;

  // Small cross-PE p2p must actually engage the high lane under prio…
  EXPECT_GT(prio.sched.get("sched_dispatch_high"), 0u);
  // …and fifo must collapse everything onto the Normal lane.
  EXPECT_EQ(fifo.sched.get("sched_dispatch_high"), 0u);
  EXPECT_EQ(fifo.sched.get("sched_dispatch_bulk"), 0u);
  EXPECT_GT(fifo.sched.get("sched_dispatch_normal"), 0u);
  EXPECT_EQ(fifo.sched.get("sched_preemptions"), 0u);
  EXPECT_EQ(fifo.sched.get("sched_steals_in"), 0u);
}

// Preemption changes interleaving, not answers; fifo forces it off even
// when requested (the escape hatch dominates).
TEST(SchedPolicy, PreemptionPreservesResults) {
  const MixResult base = run_ring_mix("prio", /*preempt=*/false);
  const MixResult pre = run_ring_mix("prio", /*preempt=*/true);
  const MixResult fifo = run_ring_mix("fifo", /*preempt=*/true);
  for (std::size_t r = 0; r < base.returns.size(); ++r) {
    EXPECT_EQ(base.returns[r], pre.returns[r]) << "rank " << r;
    EXPECT_EQ(base.returns[r], fifo.returns[r]) << "rank " << r;
  }
  EXPECT_EQ(fifo.sched.get("sched_preemptions"), 0u);
}

namespace {

// Two compute hogs sharing one PE: with a tiny quantum each hog's
// preempt points must demote it behind the other, so both make
// interleaved progress instead of running to completion back to back.
void* hog_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  for (int i = 0; i < 5; ++i) env->compute(0.002);
  env->barrier();
  return reinterpret_cast<void*>(std::intptr_t{1});
}

}  // namespace

TEST(SchedPreempt, ComputeHogsGetPreempted) {
  img::ProgramImage image = build_entry("schedhog", &hog_main);
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 1;
  cfg.vps = 2;
  cfg.method = core::Method::None;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("sched.preempt", "on");
  cfg.options.set_int("sched.quantum_us", 50);
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < cfg.vps; ++r)
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1);
  const util::Counters c = rt.sched_counters();
  EXPECT_GT(c.get("sched_preemptions"), 0u);
  EXPECT_GT(c.get("sched_dispatch_bulk"), 0u);  // demotions land in Bulk
}

namespace {

// ring_mix plus enough per-iteration compute that a 50µs quantum actually
// expires between messages — the checker then observes genuinely
// preempted p2p and collective traffic.
void* checker_mix_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  const int n = env->size();
  const int right = (me + 1) % n;
  const int left = (me + n - 1) % n;
  // Unsigned accumulator, same rationale as ring_mix_main: the checksum
  // wraps by design, which a signed type makes UB.
  std::uintptr_t sum = 0;
  for (int i = 0; i < 12; ++i) {
    env->compute(0.0005);
    int out = me * 1000 + i;
    int in = -1;
    env->sendrecv(&out, 1, Datatype::Int, right, 3, &in, 1, Datatype::Int,
                  left, 3);
    sum = sum * 31 + static_cast<unsigned>(in);
    if (i % 4 == 3) {
      long v = static_cast<long>(sum % 9973), total = 0;
      env->allreduce(&v, &total, 1, Datatype::Long,
                     mpi::Op::builtin(mpi::OpKind::Sum));
      sum += static_cast<std::uintptr_t>(total);
    }
  }
  env->barrier();
  return reinterpret_cast<void*>(sum);
}

}  // namespace

// The runtime correctness checker must stay false-positive-free when
// preemption reorders rank execution: check.mode=abort turns any
// false positive into a test failure.
TEST(SchedPreempt, CheckerCleanUnderPreemption) {
  img::ProgramImage image = build_entry("schedchk", &checker_mix_main);
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 2;
  cfg.vps = 6;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("check.mode", "abort");
  cfg.options.set("sched.preempt", "on");
  cfg.options.set_int("sched.quantum_us", 50);
  mpi::Runtime rt(image, cfg);
  rt.run();  // an abort-mode violation would throw out of run()
  const util::Counters c = rt.check_counters();
  EXPECT_EQ(c.get("check_coll_mismatches"), 0u);
  EXPECT_GT(rt.sched_counters().get("sched_preemptions"), 0u);
}

namespace {

// Steal shape: everyone crowds onto PE 0, leaving PE 1 idle with a deep
// ready backlog next door. The compute/yield loop keeps several ranks
// queued Ready at any moment, which is exactly what the thief needs.
void* crowd_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  if (env->my_pe() != 0) env->migrate_to(0);
  env->barrier();
  for (int i = 0; i < 30; ++i) env->compute(0.001);
  long one = 1, total = 0;
  env->allreduce(&one, &total, 1, Datatype::Long, mpi::Op::builtin(mpi::OpKind::Sum));
  env->barrier();
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(total));
}

}  // namespace

TEST(SchedSteal, IdlePeStealsFromCrowdedNeighbor) {
  img::ProgramImage image = build_entry("schedsteal", &crowd_main);
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 2;
  cfg.vps = 6;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("sched.steal", "on");
  cfg.options.set_int("sched.steal_idle_us", 50);
  // Preemption keeps the victim's slice boundaries frequent, so queued
  // steal requests are serviced promptly instead of waiting out a whole
  // compute slice (the bench pairs priority+steal the same way).
  cfg.options.set("sched.preempt", "on");
  cfg.options.set_int("sched.quantum_us", 100);
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < cfg.vps; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), cfg.vps)
        << "rank " << r;
  }
  const util::Counters c = rt.sched_counters();
  EXPECT_GE(c.get("sched_steal_requests"), 1u);
  EXPECT_GE(c.get("sched_steals_in"), 1u);
  EXPECT_EQ(c.get("sched_steals_in"), c.get("sched_steals_out"));
}

namespace {

// Steals racing checkpoints: ranks crowd one PE, then interleave compute
// with full-cluster checkpoints while the idle PE keeps trying to steal.
// Heap integrity across the run proves no rank was packed mid-flight.
void* steal_ckpt_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  constexpr std::size_t kBytes = 64 << 10;
  auto* buf = static_cast<unsigned char*>(env->rank_malloc(kBytes));
  for (std::size_t i = 0; i < kBytes; ++i)
    buf[i] = static_cast<unsigned char>(i * 13 + me);
  if (env->my_pe() != 0) env->migrate_to(0);
  env->barrier();
  std::intptr_t ok = 1;
  for (int iter = 0; iter < 4; ++iter) {
    for (int i = 0; i < 8; ++i) env->compute(0.0005);
    if (env->checkpoint_all() != 0) ok = 0;  // no failure injected
  }
  for (std::size_t i = 0; i < kBytes; ++i) {
    if (buf[i] != static_cast<unsigned char>(i * 13 + me)) ok = 0;
  }
  env->rank_free(buf);
  env->barrier();
  return reinterpret_cast<void*>(ok);
}

}  // namespace

TEST(SchedSteal, StealsDuringCheckpointsKeepStateIntact) {
  img::ProgramImage image = build_entry("stealckpt", &steal_ckpt_main);
  mpi::RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.pes_per_node = 1;
  cfg.vps = 6;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("fs.latency_us", "0");
  cfg.options.set("sched.steal", "on");
  cfg.options.set_int("sched.steal_idle_us", 50);
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < cfg.vps; ++r)
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
}

namespace {

// Steal vs fail_pe: PE 1 is killed at the second checkpoint epoch while
// stealing is armed. Recovery must adopt the victims and the steal
// machinery must not resurrect state on (or from) the dead PE.
void* steal_kill_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  constexpr std::size_t kBytes = 256 << 10;
  auto* buf = static_cast<unsigned char*>(env->rank_malloc(kBytes));
  for (std::size_t i = 0; i < kBytes; ++i)
    buf[i] = static_cast<unsigned char>(i * 17 + me);
  const int r1 = env->checkpoint_all();  // epoch 1: fault-free
  for (int i = 0; i < 6; ++i) env->compute(0.0005);
  const int r2 = env->checkpoint_all();  // epoch 2: PE 1 dies here
  for (int i = 0; i < 6; ++i) env->compute(0.0005);
  bool intact = true;
  for (std::size_t i = 0; i < kBytes; ++i) {
    if (buf[i] != static_cast<unsigned char>(i * 17 + me)) intact = false;
  }
  env->rank_free(buf);
  env->barrier();
  return reinterpret_cast<void*>(
      static_cast<std::intptr_t>(intact && r1 == 0 && r2 == 1 ? 1 : 0));
}

}  // namespace

TEST(SchedSteal, StealSurvivesPeFailure) {
  img::ProgramImage image = build_entry("stealkill", &steal_kill_main);
  mpi::RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.pes_per_node = 1;
  cfg.vps = 4;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("fs.latency_us", "0");
  cfg.options.set("sched.steal", "on");
  cfg.options.set_int("sched.steal_idle_us", 50);
  cfg.options.set("ft.policy", "epoch");
  cfg.options.set("ft.pe", "1");
  cfg.options.set("ft.epoch", "2");
  mpi::Runtime rt(image, cfg);
  rt.run();
  ASSERT_NE(rt.fault_injector(), nullptr);
  EXPECT_EQ(rt.fault_injector()->kills(), 1);
  for (int r = 0; r < cfg.vps; ++r)
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
}

// --- idle policy: spin, then park ---------------------------------------------

namespace {

constexpr int kPingPongTrips = 2000;

void* pingpong_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int peer = 1 - env->rank();
  int v = 0;
  for (int i = 0; i < kPingPongTrips; ++i) {
    if (env->rank() == 0) {
      env->send(&i, 1, Datatype::Int, peer, 7);
      env->recv(&v, 1, Datatype::Int, peer, 8);
      if (v != i) return nullptr;
    } else {
      env->recv(&v, 1, Datatype::Int, peer, 7);
      env->send(&v, 1, Datatype::Int, peer, 8);
    }
  }
  return reinterpret_cast<void*>(std::intptr_t{1});
}

constexpr int kTokenLaps = 200;

void* token_ring_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  const int n = env->size();
  int token = 0;
  for (int lap = 0; lap < kTokenLaps; ++lap) {
    if (me == 0) {
      env->send(&token, 1, Datatype::Int, 1, 9);
      env->recv(&token, 1, Datatype::Int, n - 1, 9);
    } else {
      env->recv(&token, 1, Datatype::Int, me - 1, 9);
      ++token;
      env->send(&token, 1, Datatype::Int, (me + 1) % n, 9);
    }
  }
  return reinterpret_cast<void*>(std::intptr_t{me == 0 ? token : 1});
}

mpi::RuntimeConfig idle_config(int pes) {
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = pes;
  cfg.vps = pes;  // one rank per PE: every message crosses PEs
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  // Pinned so the suite-wide APV_* arming cannot add idle-hook traffic.
  cfg.options.set("sched.steal", "off");
  cfg.options.set("sched.preempt", "off");
  cfg.options.set("transport.backend", "inproc");
  return cfg;
}

}  // namespace

// A cross-PE ping-pong leaves each PE idle once per round trip, for about
// one message latency: well inside the spin window, so most idle periods
// must end as spin wakes, not parks.
TEST(SchedIdle, CrossPePingPongEndsIdleInSpinWakes) {
  if (comm::Pe::max_spinners() < 2)
    GTEST_SKIP() << "two PEs can spin together only on 3+ hardware threads";
  img::ProgramImage image = build_entry("pingpong", &pingpong_main);
  mpi::Runtime rt(image, idle_config(2));
  rt.run();
  for (int r = 0; r < 2; ++r)
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1);
  const util::Counters c = rt.sched_counters();
  const std::uint64_t spins = c.get("sched_spin_wakes");
  const std::uint64_t parks = c.get("sched_parks");
  // Two PEs, each idle about once per trip.
  EXPECT_GT(spins + parks, static_cast<std::uint64_t>(kPingPongTrips));
#if !APV_TSAN
  // Under TSan a hop takes longer than the spin window, so only the
  // counting above holds there.
  EXPECT_GT(spins, parks) << "spin wakes " << spins << ", parks " << parks;
#endif
}

// More PEs than may spin: whenever the others hold every spinner slot, a PE
// going idle parks at once. A token ring keeps all but one PE idle at every
// moment, so it must park, and it must still finish with the right token.
TEST(SchedIdle, OversubscribedRunParks) {
  const int pes = comm::Pe::max_spinners() + 2;
  img::ProgramImage image = build_entry("tokenring", &token_ring_main);
  mpi::Runtime rt(image, idle_config(pes));
  rt.run();
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(0)),
            kTokenLaps * (pes - 1));
  EXPECT_GT(rt.sched_counters().get("sched_parks"), 0u);
}
