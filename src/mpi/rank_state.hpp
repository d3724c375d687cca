#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/message.hpp"
#include "core/rank_context.hpp"
#include "mpi/types.hpp"

namespace apv::mpi {

class Env;
class CommInfo;
struct CommTopo;  // hierarchical-collective grouping (collectives_hier.cpp)

/// One posted (pending) receive.
struct RecvPost {
  Request req = kRequestNull;
  void* buf = nullptr;
  std::size_t max_bytes = 0;
  int src = kAnySource;  ///< communicator-local, or kAnySource
  int tag = kAnyTag;
  CommId comm = kCommWorld;
  std::uint32_t esize = 0;  ///< receiver-declared element size (checker);
                            ///< 0 = untyped, size verification only
};

/// State of one nonblocking operation.
struct RequestState {
  enum class Kind : std::uint8_t { None, Recv, Send };
  Kind kind = Kind::None;
  bool active = false;
  bool complete = false;
  Status status;
};

/// Per-virtual-rank MPI state. Runtime metadata (process-side bookkeeping,
/// like AMPI's per-rank structures): lives on the ordinary heap, keyed from
/// RankContext::user_data, and is handed between PEs when the rank
/// migrates. All access happens on the rank's current resident PE thread.
struct RankMpi {
  core::RankContext* rc = nullptr;
  std::unique_ptr<Env> env;
  comm::RankId world_rank = -1;
  comm::PeId resident_pe = comm::kInvalidPe;

  std::vector<RequestState> requests;
  /// Posted receives, matched front-to-back. A deque: the common case
  /// (streamed sends against pre-posted windows) matches and erases at the
  /// front, which must not shift the rest of the window.
  std::deque<RecvPost> posted;
  std::deque<comm::Message> unexpected;

  /// Per-communicator collective sequence numbers (order of collective
  /// calls is identical across members, so these agree and disambiguate
  /// overlapping collectives in the internal tag space).
  std::vector<std::uint32_t> coll_seq;
  /// Per-communicator comm-creation counters (dup/split id derivation).
  std::vector<std::uint32_t> comm_seq;
  /// Per-communicator USER-level collective sequence for the correctness
  /// checker. Separate from coll_seq: naive allreduce delegates to
  /// reduce+bcast and consumes several coll_seqs per user call, but the
  /// checker gates exactly once per user-level entry. Host heap, so a
  /// checkpoint rewind does not fork the sequence between victims and
  /// survivors.
  std::vector<std::uint32_t> check_seq;

  /// Collective nesting depth: >0 while inside a user-level collective, so
  /// delegated inner collectives (naive allreduce -> reduce+bcast, FT/LB
  /// glue barriers called from user code) don't re-gate.
  int coll_depth = 0;
  /// Checker provenance: last user-level collective this rank entered
  /// (static string), and the last receive it posted. Surfaced by the
  /// stuck-state post-mortem and the deadlock wait-graph scan.
  const char* last_coll_name = nullptr;
  std::int32_t last_coll_comm = -1;
  std::uint32_t last_coll_seq = 0;
  int last_post_src = -2;  ///< awaited world rank; kAnySource (also the
                           ///< initial value) = wildcard or never posted —
                           ///< either way, no definite wait-graph edge
  std::int32_t last_post_tag = 0;
  std::int32_t last_post_comm = -1;
  /// Mismatch diagnosis found by the dispatcher thread at match time
  /// (complete_recv runs on the PE loop thread, which must not throw into
  /// rank context); thrown from the rank's next do_wait/do_test/resume.
  std::string pending_check;

  bool waiting = false;  ///< ULT suspended inside a wait/recv loop
  /// Inside do_load_balance: not stealable. The epoch's assignment is
  /// computed from where every rank stood at its allgather, so a steal
  /// before the rank's own move would undo that move.
  bool in_lb = false;
  bool finished = false;
  void* entry_ret = nullptr;
  bool failed = false;
  std::string failure;

  comm::PeId migrate_dest = comm::kInvalidPe;
  bool ckpt_pending = false;     ///< checkpoint pack requested, not yet done
  /// Restore unpack requested, not yet done. Atomic because the recovery
  /// leader polls it from another PE while the victim (on its dying PE's
  /// thread) raises it just before parking for adoption; everything else
  /// the leader consumes afterwards is published by the victim ULT's
  /// Blocked state (release/acquire, see ult.hpp) and the checkpoint
  /// store's mutex.
  std::atomic<bool> restore_pending{false};
  bool restored = false;  ///< set by checkpoint-restore before resuming
  /// Monotonic checkpoint epoch counter. Lives here (ordinary heap, not in
  /// the slot) deliberately: a restore rewinds the slot but not this
  /// counter, so epochs taken after a rewind still version forward.
  std::uint32_t ft_epoch = 0;
  /// Incremental-checkpoint bookkeeping (host heap, same rationale as
  /// ft_epoch). last_ckpt_epoch names the delta base; ckpt_chain_len counts
  /// deltas since the last full image; force_full_ckpt is raised whenever
  /// the slot's bytes were rewritten wholesale (migration arrival, restore,
  /// adoption) — the dirty bitmap is void then and the next image must be a
  /// full base.
  std::uint32_t last_ckpt_epoch = 0;
  std::uint32_t ckpt_chain_len = 0;
  bool force_full_ckpt = true;

  // Load-balancing instrumentation. Atomic with a single-writer bump: only
  // the rank's current resident PE thread accumulates (switch hook /
  // close_run_slice, ordered across migration by the departure-side close),
  // while cross-thread readers — steal victim scoring on another PE, the
  // recovery leader's re-placement stats — take relaxed advisory snapshots;
  // a stale value skews a placement heuristic, never correctness.
  std::atomic<double> busy_time_s{0.0};
  void add_busy_time(double s) noexcept {
    busy_time_s.store(busy_time_s.load(std::memory_order_relaxed) + s,
                      std::memory_order_relaxed);
  }
  double busy_time() const noexcept {
    return busy_time_s.load(std::memory_order_relaxed);
  }

  // Traffic counters.
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;

  /// This rank's view of the world's rank->PE placement, used to derive
  /// hierarchical-collective groupings. Seeded identically on every rank at
  /// construction and updated only inside do_load_balance (where all ranks
  /// compute the same assignment deterministically), so all members of a
  /// communicator always agree on the grouping — even when the view is
  /// stale against the live location table (explicit migrate_to, failure
  /// recovery). Stale views only cost performance: group blocks are
  /// mutex-guarded and messages route by the live table.
  std::vector<comm::PeId> placement_view;
  /// Bumped whenever placement_view changes; invalidates cached topologies.
  std::uint32_t view_epoch = 0;
  /// Per-communicator cache of the grouping derived from placement_view:
  /// (epoch the topo was built at, topo). Indexed by CommId.
  std::vector<std::pair<std::uint32_t, std::shared_ptr<const CommTopo>>>
      topo_cache;

  /// Resolved CommInfo pointers, indexed by CommId. The registry never
  /// recycles ids and keeps references stable (deque, entries never erased),
  /// so a pointer resolved once stays valid; caching it keeps the registry
  /// mutex off the per-message path.
  std::vector<const CommInfo*> comm_info_cache;

  /// FIFO hazard tracking for the same-PE inline fast path. routed_sent_[d]
  /// counts messages this rank pushed into the routed transport (mailbox /
  /// aggregation bins) toward world rank d; routed_delivered_[s] counts
  /// routed messages from world rank s that reached this rank's queues.
  /// Inline delivery to d is legal only when the pair's counts agree — no
  /// routed message still in flight that an inline copy could overtake.
  /// Both vectors are only ever touched on the owning rank's resident PE
  /// thread (the sender reads its peer's delivered count only when the peer
  /// is co-resident). uint32 wrap is harmless: only equality is tested.
  std::vector<std::uint32_t> routed_sent_;
  std::vector<std::uint32_t> routed_delivered_;

  std::uint32_t& routed_sent_to(int world) {
    if (static_cast<std::size_t>(world) >= routed_sent_.size())
      routed_sent_.resize(static_cast<std::size_t>(world) + 1, 0);
    return routed_sent_[static_cast<std::size_t>(world)];
  }
  std::uint32_t& routed_delivered_from(int world) {
    if (static_cast<std::size_t>(world) >= routed_delivered_.size())
      routed_delivered_.resize(static_cast<std::size_t>(world) + 1, 0);
    return routed_delivered_[static_cast<std::size_t>(world)];
  }

  std::uint32_t& check_seq_for(CommId comm) {
    if (static_cast<std::size_t>(comm) >= check_seq.size())
      check_seq.resize(static_cast<std::size_t>(comm) + 1, 0);
    return check_seq[static_cast<std::size_t>(comm)];
  }
  std::uint32_t& coll_seq_for(CommId comm) {
    if (static_cast<std::size_t>(comm) >= coll_seq.size())
      coll_seq.resize(static_cast<std::size_t>(comm) + 1, 0);
    return coll_seq[static_cast<std::size_t>(comm)];
  }
  std::uint32_t& comm_seq_for(CommId comm) {
    if (static_cast<std::size_t>(comm) >= comm_seq.size())
      comm_seq.resize(static_cast<std::size_t>(comm) + 1, 0);
    return comm_seq[static_cast<std::size_t>(comm)];
  }

  Request alloc_request(RequestState::Kind kind) {
    // Rotating start point: in steady state (a window of requests allocated
    // and completed in posting order) the slot just past the previous
    // allocation is free, so this probes once instead of scanning every
    // live request from zero.
    const std::size_t n = requests.size();
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t i = req_hint_ + k;
      if (i >= n) i -= n;
      if (!requests[i].active) {
        requests[i] = RequestState{kind, true, false, {}};
        req_hint_ = i + 1 == n ? 0 : i + 1;
        return static_cast<Request>(i);
      }
    }
    requests.push_back(RequestState{kind, true, false, {}});
    req_hint_ = 0;
    return static_cast<Request>(requests.size() - 1);
  }

 private:
  std::size_t req_hint_ = 0;  ///< next alloc_request probe position
};

/// Internal tag space: collectives and runtime control traffic use tags
/// with bit 30 set; user tags must stay below this. A wildcard-tag receive
/// never matches an internal tag.
inline constexpr int kInternalTagBase = 1 << 30;
inline constexpr int kMaxUserTag = (1 << 30) - 1;

/// Composes an internal collective tag: op (5 bits), round (6 bits),
/// per-comm collective sequence (14 bits, wraps — safe because at most a
/// handful of collectives are in flight per communicator).
constexpr int internal_tag(int op, int round, std::uint32_t seq) {
  return kInternalTagBase | (op << 20) | (round << 14) |
         static_cast<int>(seq & 0x3fffu);
}

/// Collective op codes for internal_tag.
enum CollOp : int {
  kCollBarrier = 1,
  kCollBcast,
  kCollReduce,
  kCollGather,
  kCollScatter,
  kCollAlltoall,
  kCollScan,
  kCollCommSetup,
  kCollLb,
  kCollFtRecover,  ///< survivor barrier during failure recovery; the "seq"
                   ///< bits carry the checkpoint epoch, not a coll_seq —
                   ///< victims' sequence counters must stay untouched
  // Hierarchical (two-level PE-leader) collective phases. Only PE leaders
  // ever send or receive on these tags; co-resident ranks combine through
  // shared contribution blocks without messages.
  kCollHierBarrier,   ///< leader dissemination (zero-byte tokens)
  kCollHierBcast,     ///< leader binomial broadcast
  kCollHierReduce,    ///< leader binomial fold (+ round 63: root forward)
  kCollHierAllred,    ///< leader recursive doubling (+ remainder rounds)
  kCollHierRabRs,     ///< Rabenseifner reduce-scatter (recursive halving)
  kCollHierRabAg,     ///< Rabenseifner allgather (recursive doubling)
  kCollHierScan,      ///< serial leader chain of exclusive group prefixes
  // Vector collectives: leaders exchange whole PE-aggregates (per-member
  // offset tables live in the shared blocks, never on the wire for the
  // uniform variants; gatherv/scatterv ship a length table first).
  kCollHierGather,    ///< binomial combine toward the root's group (eager)
                      ///< or direct leader->root sends (chunked)
  kCollHierScatter,   ///< binomial split from the root's group (eager) or
                      ///< direct root->leader sends (chunked)
  kCollHierAllgather, ///< Bruck dissemination (eager) or ring (chunked)
  kCollHierAlltoall,  ///< shifted pairwise exchange of PE-pair aggregates
};
static_assert(kCollHierAlltoall <= 31,
              "CollOp must fit internal_tag's 5 bits");

}  // namespace apv::mpi
