#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "comm/message.hpp"
#include "comm/netmodel.hpp"
#include "comm/pe.hpp"
#include "comm/transport.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"

namespace apv::comm {

/// Per-source-PE transport counters (snapshot; see Cluster::counters).
struct CommCounters {
  std::uint64_t sends = 0;          ///< messages accepted from the layer above
  std::uint64_t bytes = 0;          ///< payload bytes accepted
  std::uint64_t aggregated = 0;     ///< messages that travelled bundled
  std::uint64_t agg_envelopes = 0;  ///< aggregate envelopes shipped
  std::uint64_t flushes_size = 0;   ///< bin flushes forced by the size cap
  std::uint64_t flushes_order = 0;  ///< flushes forced by a non-bundled send
                                    ///< to the same PE (FIFO preservation)
  std::uint64_t flushes_idle = 0;   ///< flushes from the PE idle hook

  void merge(const CommCounters& o) noexcept;
};

/// The emulated machine: `nodes` OS processes × `pes_per_node` PEs each
/// (paper Figure 1's layout). All nodes live in this OS process; node
/// boundaries are made real by the per-node Privatizer/Loader state above
/// this layer and by the NetModel pacing inter-node messages here.
///
/// Transport options (util::Options, `comm.*` keys):
///  - comm.mailbox        "ring" (default) or "mutex" (legacy A/B baseline)
///  - comm.mailbox_slots  ring capacity per PE (default 1024)
///  - comm.drain_batch    envelopes per batched drain pass (default 64)
///  - comm.pool           payload buffer pooling on/off (default true)
///  - comm.agg_threshold  bundle UserData below this many payload bytes
///                        (default 512; 0 disables aggregation)
///  - comm.agg_max_bytes  flush a bin when it holds this much (default 16384)
///  - comm.hipri_bytes    UserData payloads <= this many bytes are stamped
///                        prio=1 and wake their rank on the High scheduler
///                        lane (default 256; 0 = only non-UserData is hipri)
///
/// Transport options (`transport.*` keys; see comm/transport.hpp):
///  - transport.backend   "inproc" (default; APV_TRANSPORT env overrides the
///                        default) or "shm" (PEs spread over OS processes)
///  - transport.procs / transport.proc / transport.job
///                        shm process count, this process's index, and the
///                        job rendezvous name (env APV_SHM_PROCS /
///                        APV_SHM_PROC / APV_SHM_JOB — set by apv_launch)
///  - transport.ring_slots / transport.arena_mb
///                        SPSC ring depth per directed PE pair (1024) and
///                        shared payload arena size (64 MiB)
///  - transport.hb_ms / transport.hb_timeout_ms
///                        heartbeat period (25) and staleness threshold
///                        before a silent peer process is declared dead
///                        (1000; a vanished pid is declared dead immediately)
///
/// Scheduler options (`sched.*` keys, applied to every PE's runqueue):
///  - sched.policy        "prio" (default; three-lane runqueue) or "fifo"
///                        (seed-exact single-lane cooperative FIFO)
///  - sched.preempt       cooperative quantum preemption on/off (default
///                        off; APV_SCHED_PREEMPT=on|off overrides the
///                        default when the option is not set explicitly)
///  - sched.quantum_us    preemption slice in microseconds (default 200)
///  - sched.starve_limit  consecutive High-lane dispatches before a lower
///                        lane is guaranteed a slot (default 8)
class Cluster {
 public:
  struct Config {
    int nodes = 1;
    int pes_per_node = 1;
    util::Options options;  ///< net.* keys feed the NetModel, comm.* the
                            ///< transport fast path
    ult::ContextBackend backend = ult::default_context_backend();
  };

  explicit Cluster(const Config& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_nodes() const noexcept { return config_.nodes; }
  int pes_per_node() const noexcept { return config_.pes_per_node; }
  int num_pes() const noexcept { return static_cast<int>(pes_.size()); }

  Pe& pe(PeId id);
  NodeId node_of(PeId id) const noexcept {
    return id / config_.pes_per_node;
  }
  PeId first_pe_of(NodeId node) const noexcept {
    return node * config_.pes_per_node;
  }

  const NetModel& net() const noexcept { return net_; }

  /// The transport routing this cluster's envelopes. With the shm backend
  /// and >1 process, only PEs with transport().is_local() run loops in this
  /// process; the rest exist as routing targets.
  const Transport& transport() const noexcept { return *transport_; }

  /// Sender-side zero-copy staging (see Transport::acquire_payload): fill
  /// the returned payload and send — if the destination turns out to be in
  /// another process, the bytes are already in the shared arena and cross
  /// by reference. Plain pool acquisition on the inproc backend.
  Payload acquire_payload(std::size_t n) { return transport_->acquire_payload(n); }

  /// UserData payloads at or below this size are stamped hipri (see the
  /// option table above). The MPI layer reuses the same cutoff to pick the
  /// wake lane on its same-PE inline path, which bypasses Cluster::send.
  std::size_t hipri_bytes() const noexcept { return hipri_bytes_; }

  /// Sizes the authoritative rank-location table. Must be called before
  /// start(); the upper layer seeds initial placements with set_location.
  void resize_location_table(int nranks);
  void set_location(RankId rank, PeId pe);
  PeId location(RankId rank) const;
  int num_ranks() const noexcept { return num_ranks_; }

  /// Routes a message to msg.dst_pe: inter-node hops pay the NetModel
  /// pacing on the calling thread, then the message lands in the
  /// destination PE's mailbox. Small UserData messages sent from a PE
  /// thread are coalesced per destination PE and shipped as aggregate
  /// envelopes (flushed by size, by a later non-bundled message to the same
  /// PE, or by the sending PE going idle); the per-(sender, destination)
  /// FIFO order is preserved across all of it. Messages to a failed PE are
  /// diverted: user data follows its destination rank's location (or waits
  /// in the dead-letter queue until the rank is re-homed); control and
  /// migration traffic is dropped — it was addressed to a machine that no
  /// longer exists.
  void send(Message&& msg);

  /// Flushes the aggregation bins owned by `src`. Called from `src`'s own
  /// PE thread (the idle hook does this automatically once started).
  void flush_aggregation(PeId src);

  /// Messages currently sitting unflushed in `src`'s aggregation bins
  /// (approximate — safe to call from any thread; used by deadlock
  /// diagnostics).
  std::size_t pending_aggregated(PeId src) const;

  // --- failure injection (fault-tolerance tier) ---------------------------

  /// Declares a PE dead: its loop drains the backlog it already accepted
  /// and halts, and all further traffic to it is diverted (see send).
  /// Idempotent.
  void fail_pe(PeId pe);
  bool pe_failed(PeId pe) const;
  int num_live_pes() const noexcept {
    return num_pes() - failed_count_.load(std::memory_order_acquire);
  }
  /// pe -> not failed, indexed by PeId.
  std::vector<bool> alive_mask() const;

  /// Re-sends every dead-lettered user message to its destination rank's
  /// current location. Messages whose rank still maps to a failed PE stay
  /// queued. Called by the recovery leader after re-homing the lost ranks.
  /// Returns the number delivered.
  std::size_t flush_dead_letters();
  std::size_t dead_letter_count() const;
  /// Control/migration messages lost because their destination PE died.
  std::uint64_t dropped_messages() const noexcept { return dropped_.load(); }

  /// Launches one OS thread per PE running Pe::run_loop. Dispatchers must
  /// already be installed on every PE.
  void start();

  /// Signals every PE to stop and joins all threads. Idempotent.
  void stop_and_join();

  bool started() const noexcept { return started_; }

  std::uint64_t messages_sent() const { return counters_total().sends; }
  std::uint64_t internode_messages() const noexcept {
    return internode_.load();
  }

  /// Transport counters for sends issued from one PE's loop thread. Sends
  /// issued from any other thread land in a shared extra slot that only
  /// counters_total() includes.
  CommCounters counters(PeId pe) const;
  CommCounters counters_total() const;
  /// All transport + payload-pool counters as a flat named set (benchmark
  /// surfacing; pool numbers are process-wide).
  util::Counters stat_counters() const;

 private:
  struct AggBin {
    Payload buf;
    std::size_t used = 0;
    // Written only by the owning PE thread (plain load+store); atomic so the
    // timeout diagnostics can read a bin's depth from the main thread.
    std::atomic<std::uint32_t> count{0};
    std::uint64_t payload_bytes = 0;

    AggBin() = default;
    AggBin(AggBin&& o) noexcept
        : buf(std::move(o.buf)),
          used(o.used),
          count(o.count.load(std::memory_order_relaxed)),
          payload_bytes(o.payload_bytes) {}
  };
  // Counter discipline: tx_[i] (i < num_pes) is written ONLY by PE i's loop
  // thread, so its counters are single-writer and bumped with plain
  // load+store (no lock-prefixed RMW on the hot path). Sends issued from
  // any other thread are attributed to the extra shared slot tx_[num_pes],
  // which uses fetch_add.
  struct alignas(64) PeTx {
    std::vector<AggBin> bins;  // indexed by destination PE
    std::atomic<std::uint64_t> sends{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> aggregated{0};
    std::atomic<std::uint64_t> agg_envelopes{0};
    std::atomic<std::uint64_t> flushes_size{0};
    std::atomic<std::uint64_t> flushes_order{0};
    std::atomic<std::uint64_t> flushes_idle{0};
  };

  /// The tx state of msg.src_pe iff the calling thread is that PE's loop
  /// thread of *this* cluster (bins are single-writer); nullptr otherwise.
  PeTx* owned_tx(const Message& msg);
  void append_to_bin(PeTx& tx, Message&& msg);
  void flush_bin(PeTx& tx, PeId src, PeId dst);
  /// The post-aggregation delivery path: divert-if-dead, counters,
  /// netmodel pacing, mailbox post.
  void deliver(Message&& msg);
  void divert(Message&& msg);

  Config config_;
  NetModel net_;
  // Declared before the PEs (and the dead-letter queue): destroyed last, so
  // wrapped shm payloads still parked in mailboxes release their arena
  // blocks through a live transport.
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<Pe>> pes_;
  std::vector<std::unique_ptr<PeTx>> tx_;
  std::vector<std::thread> threads_;
  std::unique_ptr<std::atomic<PeId>[]> locations_;
  int num_ranks_ = 0;
  bool started_ = false;
  std::size_t agg_threshold_ = 512;
  std::size_t agg_max_bytes_ = 16384;
  std::size_t hipri_bytes_ = 256;
  std::atomic<std::uint64_t> internode_{0};

  std::unique_ptr<std::atomic<bool>[]> failed_;
  std::atomic<int> failed_count_{0};
  mutable std::mutex dead_mutex_;
  std::deque<Message> dead_letters_;
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace apv::comm
