#include "job.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "mpi/env.hpp"
#include "mpi/runtime.hpp"

namespace pb {

using apv::mpi::Datatype;
using apv::mpi::Env;
using apv::mpi::Op;
using apv::mpi::OpKind;
using apv::mpi::Request;

namespace {

constexpr int kTagUp = 11;
constexpr int kTagDown = 12;
constexpr int kTagSmall = 21;
constexpr int kTagWild = 22;
constexpr int kTagPing = 31;
constexpr int kTagPong = 32;
constexpr int kTagCtl = 33;
constexpr std::size_t kPage = 4096;
constexpr std::size_t kWordsPerPage = kPage / sizeof(std::uint64_t);

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return mix(mix(a, b), c);
}
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d) {
  return mix(mix(mix(a, b), c), d);
}

double unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

// Seeded initial grid: smooth in every direction, different per seed.
struct GridInit {
  double a, b, phase;
  explicit GridInit(std::uint64_t seed)
      : a(0.05 + 0.1 * unit(mix(seed, 1))),
        b(0.02 + 0.06 * unit(mix(seed, 2))),
        phase(6.283185307179586 * unit(mix(seed, 3))) {}
  double operator()(int x, int y, int gz) const {
    return std::sin(a * gz + phase) + std::cos(b * (x + y));
  }
};

// A stride coprime with the heap's page count, so one step's pages are
// distinct.
int page_stride(int pages) {
  for (int p : {97, 89, 83, 79, 73, 71, 67, 61, 59, 53})
    if (pages % p != 0) return p % pages == 0 ? 1 : p;
  return 1;
}

// The planned word for page `p` at step `s` of rank `r`.
std::uint64_t plan_word(std::uint64_t seed, int r, std::uint64_t s, int p) {
  return mix(seed ^ 0x5bd1e995ULL, static_cast<std::uint64_t>(r), s,
             static_cast<std::uint64_t>(p));
}
int plan_first_page(std::uint64_t seed, int r, std::uint64_t s, int pages) {
  return static_cast<int>(mix(seed, 0x77, static_cast<std::uint64_t>(r), s) %
                          static_cast<std::uint64_t>(pages));
}

std::int64_t allreduce_contrib(int r, std::uint64_t seed, std::uint64_t i) {
  return static_cast<std::int64_t>(mix(seed, 0xa11, i) % 1000) +
         static_cast<std::int64_t>(r) * static_cast<std::int64_t>(i % 7 + 1);
}

// Small-message payload: a function of (source, destination, sequence).
struct SmallMsg {
  std::uint32_t src, dst, seq, check;
};
static_assert(sizeof(SmallMsg) == 16);
std::uint32_t small_check(std::uint64_t seed, std::uint32_t src,
                          std::uint32_t dst, std::uint32_t seq) {
  return static_cast<std::uint32_t>(mix(seed, src, dst, seq));
}

inline std::size_t idx(int nx, int ny, int x, int y, int z) {
  return (static_cast<std::size_t>(z) * static_cast<std::size_t>(ny) +
          static_cast<std::size_t>(y)) *
             static_cast<std::size_t>(nx) +
         static_cast<std::size_t>(x);
}

// One Jacobi sweep over planes 1..nzl of `grid` into `next`; returns the
// local residual. `alpha` is read through the privatized global in the
// innermost loop, as in the paper's Jacobi-3D experiment.
double sweep(const apv::core::GRef<double>& alpha, int nx, int ny, int nzl,
             const double* grid, double* next) {
  double res = 0.0;
  for (int z = 1; z <= nzl; ++z) {
    for (int y = 1; y < ny - 1; ++y) {
      for (int x = 1; x < nx - 1; ++x) {
        const double a = *alpha;
        const double v = a * (grid[idx(nx, ny, x - 1, y, z)] +
                              grid[idx(nx, ny, x + 1, y, z)] +
                              grid[idx(nx, ny, x, y - 1, z)] +
                              grid[idx(nx, ny, x, y + 1, z)] +
                              grid[idx(nx, ny, x, y, z - 1)] +
                              grid[idx(nx, ny, x, y, z + 1)]);
        const std::size_t c = idx(nx, ny, x, y, z);
        res += std::abs(v - grid[c]);
        next[c] = v;
      }
    }
  }
  return res;
}

// acc += a - b
void add_delta(KindTotals& acc, const KindTotals& a, const KindTotals& b) {
  acc.count += a.count - b.count;
  acc.total_ns += a.total_ns - b.total_ns;
  acc.self_ns += a.self_ns - b.self_ns;
}

double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

// Per-rank state of one job. Lives on the rank's stack, so it migrates,
// is checkpointed and is restored with the rank.
struct Rank {
  Env* env;
  Shared* sh;
  const Spec* sp;
  RankOut* ro;
  Lane* lane;
  Lane idle_lane;  // stands in when tracing is off
  int me = 0, P = 1;
  std::uint64_t seed = 0;
  std::uint64_t ar_calls = 0;  ///< storm calls so far (closed-form index)

  void fail(const std::string& what) {
    if (ro->errors++ == 0) ro->first_error = what;
  }
  bool is_root() const { return me == 0; }
  JobOut& out() { return sh->out; }
  apv::mpi::Runtime& rt() { return env->runtime(); }

  void allreduce_long(std::int64_t* v, std::int64_t* o, OpKind op) {
    Span s(*lane, Kind::Allreduce);
    env->allreduce(v, o, 1, Datatype::Long, Op::builtin(op));
    if (is_root()) ++out().coll_calls;
  }
  void barrier() {
    Span s(*lane, Kind::Barrier);
    env->barrier();
    if (is_root()) ++out().coll_calls;
  }
  // Everyone learns whether rank 0 saw its deadline pass.
  bool agree_stop(std::uint64_t deadline_ns) {
    std::int64_t mine = is_root() && now_ns() >= deadline_ns ? 1 : 0;
    std::int64_t any = 0;
    allreduce_long(&mine, &any, OpKind::Max);
    return any != 0;
  }
  // The measured time is spread over `cycles` rounds of all three phases,
  // so each phase samples the whole run rather than one stretch of it.
  int cycles() const {
    return std::max(1, static_cast<int>(sh->in.seconds *
                                        (1.0 - kShareRecover) / 2.0));
  }
  std::uint64_t deadline(std::uint64_t t0, double share) const {
    return t0 + static_cast<std::uint64_t>(sh->in.seconds * share * 1e9 /
                                           cycles());
  }
};

// ---------------------------------------------------------------------------
// Phase 1: ping-pong between rank 0 and the highest rank on another PE
// (load balancing moves ranks between slices) while every other rank is
// parked in a barrier.

void phase_pingpong(Rank& k) {
  const int a = 0;
  std::int64_t mine = k.me == a ? k.env->my_pe() : -1;
  std::int64_t pe_a = -1;
  k.allreduce_long(&mine, &pe_a, OpKind::Max);
  mine = k.env->my_pe() != pe_a ? k.me : -1;
  std::int64_t peer = -1;
  k.allreduce_long(&mine, &peer, OpKind::Max);
  if (peer < 0) {
    k.fail("no rank on a PE other than rank 0's");
    return;
  }
  const int b = static_cast<int>(peer);
  // Parked ranks are not traced: their barrier wait would swamp every
  // other layer's self time.
  const bool traced = k.lane->active;
  if (k.me != a && k.me != b) k.lane->active = false;
  k.barrier();
  if (k.me == a) {
    const KindTotals send0 = k.lane->totals[static_cast<int>(Kind::Send)];
    const std::uint64_t t0 = now_ns();
    const std::uint64_t end = k.deadline(t0, kSharePingpong);
    std::uint64_t i = k.out().rtt_us.size();
    k.out().rtt_slices.push_back(i);
    for (bool stop = false; !stop;) {
      for (int j = 0; j < kPingpongBatch; ++j, ++i) {
        const std::uint64_t ping[2] = {mix(k.seed, 0xb0b, i), i};
        std::uint64_t pong[2] = {0, 0};
        const std::uint64_t t = now_ns();
        {
          Span s(*k.lane, Kind::Send);
          k.env->send(ping, 2, Datatype::UnsignedLong, b, kTagPing);
        }
        {
          Span s(*k.lane, Kind::Waitall);
          k.env->recv(pong, 2, Datatype::UnsignedLong, b, kTagPong);
        }
        k.out().rtt_us.push_back(static_cast<double>(now_ns() - t) * 1e-3);
        ++k.ro->p2p_sends;
        if (pong[0] != ping[0] || pong[1] != ping[1])
          k.fail("pingpong echo " + std::to_string(i) + ": got " +
                 std::to_string(pong[0]) + " expected " +
                 std::to_string(ping[0]));
      }
      stop = now_ns() >= end;
      const int flag = stop ? 1 : 0;
      k.env->send(&flag, 1, Datatype::Int, b, kTagCtl);
      ++k.ro->p2p_sends;
    }
    add_delta(k.out().pp_send, k.lane->totals[static_cast<int>(Kind::Send)],
              send0);
  } else if (k.me == b) {
    for (int flag = 0; flag == 0;) {
      for (int j = 0; j < kPingpongBatch; ++j) {
        std::uint64_t buf[2];
        k.env->recv(buf, 2, Datatype::UnsignedLong, a, kTagPing);
        k.env->send(buf, 2, Datatype::UnsignedLong, a, kTagPong);
        ++k.ro->p2p_sends;
      }
      k.env->recv(&flag, 1, Datatype::Int, a, kTagCtl);
    }
  }
  k.barrier();
  k.lane->active = traced;
}

// ---------------------------------------------------------------------------
// Phase 2: 8 B allreduce storm, checked against the closed form.

void phase_allreduce(Rank& k) {
  k.barrier();
  const KindTotals ar0 = k.lane->totals[static_cast<int>(Kind::Allreduce)];
  const std::uint64_t t0 = now_ns();
  const std::uint64_t end = k.deadline(t0, kShareAllreduce);
  std::uint64_t i = k.ar_calls;
  for (bool stop = false; !stop;) {
    const std::uint64_t tr = now_ns();
    for (int j = 0; j < kAllreduceBatch; ++j, ++i) {
      std::int64_t v = allreduce_contrib(k.me, k.seed, i);
      std::int64_t sum = 0;
      k.allreduce_long(&v, &sum, OpKind::Sum);
      const std::int64_t want = reference_allreduce(k.P, k.seed, i);
      if (sum != want)
        k.fail("allreduce " + std::to_string(i) + ": got " +
               std::to_string(sum) + " expected " + std::to_string(want));
    }
    if (k.is_root()) k.out().ar_round_ms.push_back(ms_since(tr));
    stop = k.agree_stop(end);
  }
  k.ar_calls = i;
  if (k.is_root()) {
    k.out().ar_calls = i;
    add_delta(k.out().ar_span,
              k.lane->totals[static_cast<int>(Kind::Allreduce)], ar0);
  }
}

// ---------------------------------------------------------------------------
// Phase 3: timed steps with periodic checkpoint and load balancing. It
// also drives the cycles: each runs a slice of every phase.

struct Counters {
  std::uint64_t switches, remote, sends, aggregated, agg_env, overflow,
      pool_hits, pool_misses, pool_copied;
  std::uint64_t full, delta, bytes_full, bytes_delta, pages_dirty, faults;
};

Counters snapshot(apv::mpi::Runtime& rt) {
  const apv::util::Counters c = rt.cluster().stat_counters();
  const apv::util::Counters s = rt.sched_counters();
  const apv::util::Counters f = rt.ckpt_counters();
  return Counters{rt.total_context_switches(),
                  s.get("sched_remote_readies"),
                  c.get("comm.sends"),
                  c.get("comm.aggregated"),
                  c.get("comm.agg_envelopes"),
                  c.get("comm.mailbox_overflow_pushes"),
                  c.get("pool.hits"),
                  c.get("pool.misses"),
                  c.get("pool.bytes_copied"),
                  f.get("ckpt_images_full"),
                  f.get("ckpt_images_delta"),
                  f.get("ckpt_bytes_full"),
                  f.get("ckpt_bytes_delta"),
                  f.get("ckpt_pages_dirty"),
                  f.get("ckpt_tracker_faults")};
}

struct Neighbours {
  // Slot i < n: destination me + d_i (sent), source me - d_i (received);
  // slot n + i: destination me - d_i, source me + d_i.
  std::vector<int> dst, src;
  std::vector<bool> wild;
};

Neighbours neighbours(const Spec& sp, int me, int P) {
  Neighbours n;
  const int nd = static_cast<int>(sp.dists.size());
  for (int dir = 0; dir < 2; ++dir) {
    for (int i = 0; i < nd; ++i) {
      const int d = sp.dists[static_cast<std::size_t>(i)];
      const int plus = ((me + d) % P + P) % P;
      const int minus = ((me - d) % P + P) % P;
      n.dst.push_back(dir == 0 ? plus : minus);
      n.src.push_back(dir == 0 ? minus : plus);
      n.wild.push_back(i < sp.n_wild);
    }
  }
  return n;
}

void run_cycles(Rank& k) {
  Env& env = *k.env;
  const Spec& sp = *k.sp;
  const int me = k.me, P = k.P;
  auto g_alpha = env.global<double>("alpha");
  const int nx = env.global<int>("nx").get();
  const int ny = env.global<int>("ny").get();
  const int nz = env.global<int>("nz").get();
  const int z_lo = static_cast<int>(static_cast<long>(me) * nz / P);
  const int z_hi = static_cast<int>(static_cast<long>(me + 1) * nz / P);
  const int nzl = z_hi - z_lo;
  const std::size_t plane = static_cast<std::size_t>(nx) * ny;
  const std::size_t total = plane * static_cast<std::size_t>(nzl + 2);

  // Everything the steps touch lives in the rank's Isomalloc heap, so it
  // moves with every migration and is packed by every checkpoint.
  auto* init = env.rank_alloc_array<double>(total);
  auto* grid = env.rank_alloc_array<double>(total);
  auto* next = env.rank_alloc_array<double>(total);
  const GridInit f(k.seed);
  for (int z = 0; z < nzl + 2; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x)
        init[idx(nx, ny, x, y, z)] = f(x, y, z_lo + z - 1);
  std::memcpy(grid, init, total * sizeof(double));
  std::memcpy(next, init, total * sizeof(double));

  const int pages = sp.heap_pages;
  void* heap_raw = nullptr;
  std::uint64_t* heap = nullptr;
  if (pages > 0) {
    heap_raw = env.rank_malloc(static_cast<std::size_t>(pages + 1) * kPage);
    const auto a = reinterpret_cast<std::uintptr_t>(heap_raw);
    heap = reinterpret_cast<std::uint64_t*>((a + kPage - 1) & ~(kPage - 1));
    std::memset(heap, 0, static_cast<std::size_t>(pages) * kPage);
  }
  const int stride = pages > 0 ? page_stride(pages) : 1;
  std::vector<std::uint8_t> written(static_cast<std::size_t>(pages), 0);

  const Neighbours nb = neighbours(sp, me, P);
  const std::size_t nslots = nb.dst.size();
  const int mpn = sp.msgs_per_nbr;
  std::vector<std::uint32_t> seq_to(nslots, 0), seq_from(nslots, 0);
  std::vector<SmallMsg> sbuf(nslots * static_cast<std::size_t>(mpn));
  std::vector<SmallMsg> rbuf(nslots * static_cast<std::size_t>(mpn));
  std::vector<Request> reqs;
  reqs.reserve(rbuf.size() + 2);

  const int up = me + 1 < P ? me + 1 : -1;
  const int down = me > 0 ? me - 1 : -1;

  const std::uint64_t& sends_ctr = env.state().sends;
  std::uint64_t step = 0;
  std::uint64_t period = 0;
  int sweep_in_round = 0;
  double residual = 0.0;
  for (int cycle = 0; cycle < k.cycles(); ++cycle) {
    k.lane->active = k.sh->in.trace;
    phase_pingpong(k);
    phase_allreduce(k);
    k.barrier();
    const std::uint64_t own_sends0 = k.ro->p2p_sends;
    const Counters c0 = k.is_root() ? snapshot(k.rt()) : Counters{};
    const std::uint64_t t0 = now_ns();
    const std::uint64_t end = k.deadline(t0, kShareSteps);
    for (bool stop = false; !stop; ++period) {
      // Trace mode alternates pairs of traced and untraced periods, so the
      // tracing overhead is measured on the same job, interleaved against
      // drift; pairs, because the load-balancing placement alternates with
      // the period's parity.
      const bool traced = k.sh->in.trace && period % 4 < 2;
      k.lane->active = traced;
      const std::uint64_t tp = now_ns();
      const std::uint64_t sends_p = sends_ctr;
      const std::uint64_t spans_p =
          k.lane->totals[static_cast<int>(Kind::Send)].count;
      {
        Span period_span(*k.lane, Kind::Period);
        for (int s = 0; s < sp.steps_per_period; ++s, ++step) {
          // Halo planes and small messages.
          reqs.clear();
          {
            Span sp_irecv(*k.lane, Kind::Irecv);
            if (up >= 0)
              reqs.push_back(env.irecv(grid + plane * (nzl + 1),
                                       static_cast<int>(plane),
                                       Datatype::Double, up, kTagDown));
            if (down >= 0)
              reqs.push_back(env.irecv(grid, static_cast<int>(plane),
                                       Datatype::Double, down, kTagUp));
            for (std::size_t i = 0; i < nslots; ++i) {
              for (int m = 0; m < mpn; ++m) {
                SmallMsg* dst = &rbuf[i * mpn + m];
                reqs.push_back(
                    nb.wild[i]
                        ? env.irecv(dst, 4, Datatype::Unsigned,
                                    apv::mpi::kAnySource, kTagWild)
                        : env.irecv(dst, 4, Datatype::Unsigned, nb.src[i],
                                    kTagSmall));
              }
            }
          }
          if (up >= 0) {
            Span sp_send(*k.lane, Kind::Send);
            env.send(grid + plane * nzl, static_cast<int>(plane),
                     Datatype::Double, up, kTagUp);
            ++k.ro->p2p_sends;
          }
          if (down >= 0) {
            Span sp_send(*k.lane, Kind::Send);
            env.send(grid + plane, static_cast<int>(plane), Datatype::Double,
                     down, kTagDown);
            ++k.ro->p2p_sends;
          }
          for (std::size_t i = 0; i < nslots; ++i) {
            const auto d = static_cast<std::uint32_t>(nb.dst[i]);
            for (int m = 0; m < mpn; ++m) {
              SmallMsg& msg = sbuf[i * mpn + m];
              const std::uint32_t q = seq_to[i]++;
              msg = SmallMsg{static_cast<std::uint32_t>(me), d, q,
                             small_check(k.seed, static_cast<std::uint32_t>(me),
                                         d, q)};
              Span sp_send(*k.lane, Kind::Send);
              env.send(&msg, 4, Datatype::Unsigned, nb.dst[i],
                       nb.wild[i] ? kTagWild : kTagSmall);
              ++k.ro->p2p_sends;
            }
          }
          {
            Span sp_wait(*k.lane, Kind::Waitall);
            env.waitall(static_cast<int>(reqs.size()), reqs.data());
          }
          // Wildcard posts match in posting order, so each sender's
          // sequence numbers must still arrive consecutively.
          for (std::size_t i = 0; i < rbuf.size(); ++i) {
            const SmallMsg& m = rbuf[i];
            std::size_t slot = nslots;
            for (std::size_t j = 0; j < nslots; ++j) {
              if (static_cast<std::uint32_t>(nb.src[j]) == m.src &&
                  nb.wild[j] == nb.wild[i / static_cast<std::size_t>(mpn)]) {
                slot = j;
                break;
              }
            }
            if (slot == nslots || m.dst != static_cast<std::uint32_t>(me) ||
                m.check != small_check(k.seed, m.src, m.dst, m.seq) ||
                m.seq != seq_from[slot]) {
              k.fail("small message at rank " + std::to_string(me) +
                     ": src " + std::to_string(m.src) + " seq " +
                     std::to_string(m.seq) + " expected seq " +
                     std::to_string(slot < nslots ? seq_from[slot] : 0));
              continue;
            }
            ++seq_from[slot];
          }

          {
            Span sp_kernel(*k.lane, Kind::Kernel);
            const std::uint64_t tk = traced ? now_ns() : 0;
            residual = sweep(g_alpha, nx, ny, nzl, grid, next);
            if (traced) k.ro->kernel_ms.push_back(ms_since(tk));
          }
          std::swap(grid, next);

          if (pages > 0) {
            Span sp_heap(*k.lane, Kind::HeapWrite);
            const std::uint64_t tw = traced ? now_ns() : 0;
            const int first = plan_first_page(k.seed, me, step, pages);
            for (int j = 0; j < sp.pages_per_step; ++j) {
              const int p = static_cast<int>(
                  (static_cast<long>(first) + static_cast<long>(j) * stride) %
                  pages);
              heap[static_cast<std::size_t>(p) * kWordsPerPage] =
                  plan_word(k.seed, me, step, p);
              written[static_cast<std::size_t>(p)] = 1;
            }
            if (traced) k.ro->write_ms.push_back(ms_since(tw));
          }

          if (++sweep_in_round % sp.res_every == 0) {
            Span sp_ar(*k.lane, Kind::Allreduce);
            double sum = 0.0;
            env.allreduce(&residual, &sum, 1, Datatype::Double,
                          Op::builtin(OpKind::Sum));
            if (k.is_root()) ++k.out().coll_calls;
            residual = sum;
          }
          if (sweep_in_round == sp.sweeps_per_round) {
            if (k.is_root()) {
              JobOut& o = k.out();
              if (o.rounds == 0 || residual < o.residual_min)
                o.residual_min = residual;
              if (o.rounds == 0 || residual > o.residual_max)
                o.residual_max = residual;
              ++o.rounds;
            }
            std::memcpy(grid, init, total * sizeof(double));
            std::memcpy(next, init, total * sizeof(double));
            sweep_in_round = 0;
          }
        }
        if (k.is_root()) {
          const double dt = static_cast<double>(now_ns() - tp) * 1e-9;
          k.out().period_step_ms.push_back(dt * 1e3);
          if (traced) {
            k.out().traced_s += dt;
            k.out().traced_steps += static_cast<std::uint64_t>(sp.steps_per_period);
          } else {
            k.out().untraced_s += dt;
            k.out().untraced_steps += static_cast<std::uint64_t>(sp.steps_per_period);
          }
        }

        // Buddy checkpoint. A delta image must hold at least the pages this
        // rank wrote since its previous image.
        const std::uint32_t chain0 = env.state().ckpt_chain_len;
        const Counters before = k.is_root() ? snapshot(k.rt()) : Counters{};
        {
          Span sp_ck(*k.lane, Kind::Checkpoint);
          const std::uint64_t tc = now_ns();
          env.checkpoint_all();
          if (k.is_root()) {
            k.out().ckpt_ms.push_back(ms_since(tc));
            k.out().coll_calls += 2;  // its two world barriers
          }
        }
        std::int64_t my_pages = 0;
        if (env.state().ckpt_chain_len == chain0 + 1) {
          for (std::uint8_t w : written) my_pages += w;
        }
        std::fill(written.begin(), written.end(), 0);
        const Counters after = k.is_root() ? snapshot(k.rt()) : Counters{};
        std::int64_t planned = 0;
        k.allreduce_long(&my_pages, &planned, OpKind::Sum);
        if (k.is_root() &&
            after.pages_dirty - before.pages_dirty <
                static_cast<std::uint64_t>(planned))
          k.fail("checkpoint " + std::to_string(period) + ": ckpt_pages_dirty " +
                 std::to_string(after.pages_dirty - before.pages_dirty) +
                 " < pages written " + std::to_string(planned));

        // Load balancing. The modelled imbalance dominates measured busy
        // time by orders of magnitude and moves to the other PE each period,
        // so greedyrefine's plan is the same on every run.
        const int pe0 = env.my_pe();
        env.add_load((pe0 == static_cast<int>(period % 2) ? 3000.0 : 1000.0) +
                     10.0 * me);
        {
          Span sp_lb(*k.lane, Kind::LoadBalance);
          const std::uint64_t tl = now_ns();
          env.load_balance("greedyrefine");
          if (k.is_root()) {
            k.out().lb_ms.push_back(ms_since(tl));
            k.out().lb_total_s += ms_since(tl) * 1e-3;
            k.out().coll_calls += 2;
          }
        }
        if (env.my_pe() != pe0) ++k.ro->pe_moves;
        const int id = env.global<int>("my_id").get();
        if (id != me)
          k.fail("privatized my_id after LB epoch " + std::to_string(period) +
                 ": got " + std::to_string(id) + " expected " +
                 std::to_string(me));
        if (k.is_root()) ++k.out().periods;
      }
      if (traced &&
          sends_ctr - sends_p !=
              k.lane->totals[static_cast<int>(Kind::Send)].count - spans_p)
        k.fail("traced sends " +
               std::to_string(k.lane->totals[static_cast<int>(Kind::Send)].count -
                              spans_p) +
               " != RankMpi::sends delta " + std::to_string(sends_ctr - sends_p));
      k.lane->active = false;
      stop = k.agree_stop(end);
    }

    if (k.is_root()) {
      JobOut& o = k.out();
      o.steps = step;
      o.cells_per_sweep = static_cast<std::uint64_t>(nx - 2) *
                          static_cast<std::uint64_t>(ny - 2) *
                          static_cast<std::uint64_t>(nz);
      const Counters c1 = snapshot(k.rt());
      o.d_switches += c1.switches - c0.switches;
      o.d_remote_readies += c1.remote - c0.remote;
      o.d_comm_sends += c1.sends - c0.sends;
      o.d_aggregated += c1.aggregated - c0.aggregated;
      o.d_agg_envelopes += c1.agg_env - c0.agg_env;
      o.d_overflow += c1.overflow - c0.overflow;
      o.d_pool_hits += c1.pool_hits - c0.pool_hits;
      o.d_pool_misses += c1.pool_misses - c0.pool_misses;
      o.d_pool_copied += c1.pool_copied - c0.pool_copied;
      o.d_full += c1.full - c0.full;
      o.d_delta += c1.delta - c0.delta;
      o.d_bytes_full += c1.bytes_full - c0.bytes_full;
      o.d_bytes_delta += c1.bytes_delta - c0.bytes_delta;
      o.d_pages_dirty += c1.pages_dirty - c0.pages_dirty;
      o.d_tracker_faults += c1.faults - c0.faults;
    }
    k.ro->step_sends += k.ro->p2p_sends - own_sends0;
  }
  k.ro->steps = step;

  // Every planned small message arrived, exactly once per sequence number.
  const auto planned = static_cast<std::uint32_t>(step * static_cast<std::uint64_t>(mpn));
  for (std::size_t j = 0; j < nslots; ++j) {
    if (seq_from[j] != planned)
      k.fail("rank " + std::to_string(me) + " received " +
             std::to_string(seq_from[j]) + " messages from " +
             std::to_string(nb.src[j]) + ", planned " +
             std::to_string(planned));
  }

  std::uint64_t sum = 0;
  for (int p = 0; p < pages; ++p)
    sum += heap[static_cast<std::size_t>(p) * kWordsPerPage];
  k.ro->heap_sum = sum;

  if (k.sh->in.trace) {
    // Cost of one privatized-global read, outside any collective.
    constexpr int kReads = 1 << 18;
    double acc = 0.0;
    const std::uint64_t tg = now_ns();
    for (int i = 0; i < kReads; ++i) acc += *g_alpha;
    const std::uint64_t dt = now_ns() - tg;
    volatile double sink = acc;
    (void)sink;
    k.ro->global_read_ns = static_cast<double>(dt) / kReads;
  }

  if (heap_raw != nullptr) env.rank_free(heap_raw);
  env.rank_free(init);
  env.rank_free(grid);
  env.rank_free(next);
}

// ---------------------------------------------------------------------------
// The fault job: two planned write steps, a clean buddy checkpoint, a third
// step, then the epoch at which PE 1 is killed.

void fault_steps(Rank& k, std::uint64_t* heap, int pages, std::uint64_t s0,
                 std::uint64_t s1) {
  const int stride = page_stride(pages);
  for (std::uint64_t s = s0; s < s1; ++s) {
    const int first = plan_first_page(k.seed, k.me, s, pages);
    for (int j = 0; j < k.sp->pages_per_step; ++j) {
      const int p = static_cast<int>(
          (static_cast<long>(first) + static_cast<long>(j) * stride) % pages);
      heap[static_cast<std::size_t>(p) * kWordsPerPage] =
          plan_word(k.seed, k.me, s, p);
    }
  }
}

void fault_job(Rank& k) {
  Env& env = *k.env;
  const int pages = std::max(k.sp->heap_pages, 1);
  void* raw = env.rank_malloc(static_cast<std::size_t>(pages + 1) * kPage);
  const auto a = reinterpret_cast<std::uintptr_t>(raw);
  auto* heap = reinterpret_cast<std::uint64_t*>((a + kPage - 1) & ~(kPage - 1));
  std::memset(heap, 0, static_cast<std::size_t>(pages) * kPage);
  const bool writes = k.sp->heap_pages > 0;
  if (writes) fault_steps(k, heap, pages, 0, 2);
  env.checkpoint_all();
  if (writes) fault_steps(k, heap, pages, 2, 3);
  k.ro->pe_at_kill = env.my_pe();
  const std::uint64_t t = now_ns();
  const int resumed = env.checkpoint_all();
  k.ro->recover_ms = ms_since(t);
  if (resumed != 1)
    k.fail("kill-epoch checkpoint_all returned " + std::to_string(resumed) +
           ", expected 1 (resumed after recovery)");
  const int id = env.global<int>("my_id").get();
  if (id != k.me)
    k.fail("privatized my_id after recovery: got " + std::to_string(id) +
           " expected " + std::to_string(k.me));
  std::uint64_t sum = 0;
  for (int p = 0; p < pages; ++p)
    sum += heap[static_cast<std::size_t>(p) * kWordsPerPage];
  k.ro->heap_sum = writes ? sum : 0;
  k.ro->steps = writes ? 3 : 0;
  env.rank_free(raw);
  env.barrier();
}

void* job_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  Rank k;
  k.env = env;
  k.sh = reinterpret_cast<Shared*>(env->global<std::uintptr_t>("shared").get());
  k.sp = &k.sh->in.spec;
  k.me = env->rank();
  k.P = env->size();
  k.seed = k.sh->in.seed;
  k.ro = &k.sh->ranks[static_cast<std::size_t>(k.me)];
  k.lane = k.sh->tracer != nullptr ? &k.sh->tracer->lane(k.me) : &k.idle_lane;
  env->global<int>("my_id").set(k.me);
  if (k.sh->in.fault_job) {
    fault_job(k);
    return nullptr;
  }
  run_cycles(k);
  k.barrier();
  return nullptr;
}

}  // namespace

apv::img::ProgramImage build_image(const Spec& spec, Shared* shared) {
  apv::img::ImageBuilder b("perfbench-" + spec.name);
  b.add_global<int>("nx", spec.nx);
  b.add_global<int>("ny", spec.ny);
  b.add_global<int>("nz", spec.nz);
  b.add_global<double>("alpha", 1.0 / 6.0);
  b.add_global<int>("my_id", -1);
  b.add_global<std::uintptr_t>("shared",
                               reinterpret_cast<std::uintptr_t>(shared));
  b.add_function("mpi_main", &job_main);
  b.set_code_size(spec.code_bytes);
  return b.build();
}

double reference_residual(const Spec& spec, std::uint64_t seed) {
  const int nx = spec.nx, ny = spec.ny, nz = spec.nz;
  const std::size_t total =
      static_cast<std::size_t>(nx) * ny * static_cast<std::size_t>(nz + 2);
  std::vector<double> grid(total), next(total);
  const GridInit f(seed);
  for (int z = 0; z < nz + 2; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x) grid[idx(nx, ny, x, y, z)] = f(x, y, z - 1);
  next = grid;
  const double alpha = 1.0 / 6.0;
  double res = 0.0;
  for (int it = 0; it < spec.sweeps_per_round; ++it) {
    res = 0.0;
    for (int z = 1; z <= nz; ++z)
      for (int y = 1; y < ny - 1; ++y)
        for (int x = 1; x < nx - 1; ++x) {
          const std::size_t c = idx(nx, ny, x, y, z);
          const double v = alpha * (grid[idx(nx, ny, x - 1, y, z)] +
                                    grid[idx(nx, ny, x + 1, y, z)] +
                                    grid[idx(nx, ny, x, y - 1, z)] +
                                    grid[idx(nx, ny, x, y + 1, z)] +
                                    grid[idx(nx, ny, x, y, z - 1)] +
                                    grid[idx(nx, ny, x, y, z + 1)]);
          res += std::abs(v - grid[c]);
          next[c] = v;
        }
    grid.swap(next);
  }
  return res;
}

std::uint64_t reference_heap_sum(const Spec& spec, std::uint64_t seed,
                                 int rank, std::uint64_t steps) {
  const int pages = spec.heap_pages;
  if (pages <= 0) return 0;
  // Replay the plan: each page ends up holding its last planned word.
  std::vector<std::uint64_t> last(static_cast<std::size_t>(pages), 0);
  const int stride = page_stride(pages);
  for (std::uint64_t s = 0; s < steps; ++s) {
    const int first = plan_first_page(seed, rank, s, pages);
    for (int j = 0; j < spec.pages_per_step; ++j) {
      const int p = static_cast<int>(
          (static_cast<long>(first) + static_cast<long>(j) * stride) % pages);
      last[static_cast<std::size_t>(p)] = plan_word(seed, rank, s, p);
    }
  }
  std::uint64_t sum = 0;
  for (std::uint64_t w : last) sum += w;
  return sum;
}

std::int64_t reference_allreduce(int vps, std::uint64_t seed,
                                 std::uint64_t i) {
  const auto n = static_cast<std::int64_t>(vps);
  return n * static_cast<std::int64_t>(mix(seed, 0xa11, i) % 1000) +
         static_cast<std::int64_t>(i % 7 + 1) * n * (n - 1) / 2;
}

}  // namespace pb
