#include "comm/cluster.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/error.hpp"
#include "util/log.hpp"

namespace apv::comm {

using util::ErrorCode;
using util::require;

namespace {

// Single-writer counter bump: the owning PE thread is the only writer of its
// PeTx slot, so a plain load+store keeps concurrent readers race-free without
// a lock-prefixed RMW per message on the hot path.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t d = 1) {
  c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

inline void bump32(std::atomic<std::uint32_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

}  // namespace

void CommCounters::merge(const CommCounters& o) noexcept {
  sends += o.sends;
  bytes += o.bytes;
  aggregated += o.aggregated;
  agg_envelopes += o.agg_envelopes;
  flushes_size += o.flushes_size;
  flushes_order += o.flushes_order;
  flushes_idle += o.flushes_idle;
}

Cluster::Cluster(const Config& config)
    : config_(config), net_(config.options) {
  require(config.nodes >= 1 && config.pes_per_node >= 1,
          ErrorCode::InvalidArgument, "cluster needs >= 1 node and PE");
  const auto& opt = config.options;
  pool::set_enabled(opt.get_bool("comm.pool", true));
  agg_threshold_ = static_cast<std::size_t>(
      std::max<std::int64_t>(0, opt.get_int("comm.agg_threshold", 512)));
  agg_max_bytes_ = static_cast<std::size_t>(
      std::max<std::int64_t>(64, opt.get_int("comm.agg_max_bytes", 16384)));

  Pe::Config pe_cfg;
  pe_cfg.mailbox.mode = opt.get_string("comm.mailbox", "ring") == "mutex"
                            ? Mailbox::Mode::Mutex
                            : Mailbox::Mode::Ring;
  pe_cfg.mailbox.slots = static_cast<std::size_t>(
      std::max<std::int64_t>(2, opt.get_int("comm.mailbox_slots", 1024)));
  pe_cfg.drain_batch = static_cast<std::size_t>(
      std::max<std::int64_t>(1, opt.get_int("comm.drain_batch", 64)));
  hipri_bytes_ = static_cast<std::size_t>(
      std::max<std::int64_t>(0, opt.get_int("comm.hipri_bytes", 256)));

  pe_cfg.sched.lanes = opt.get_string("sched.policy", "prio") != "fifo";
  // Explicit option wins; otherwise the CI arming env var decides (the
  // APV_CHECK_MODE pattern — lets the full suite run preempted without
  // touching every test's option set).
  std::string preempt_s = opt.get_string("sched.preempt", "");
  if (preempt_s.empty()) {
    if (const char* env = std::getenv("APV_SCHED_PREEMPT")) preempt_s = env;
  }
  pe_cfg.sched.preempt =
      preempt_s == "on" || preempt_s == "1" || preempt_s == "true";
  pe_cfg.sched.quantum_us = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, opt.get_int("sched.quantum_us", 200)));
  pe_cfg.sched.starve_limit = static_cast<int>(
      std::max<std::int64_t>(1, opt.get_int("sched.starve_limit", 8)));

  const int total = config.nodes * config.pes_per_node;
  TransportConfig tcfg;
  tcfg.num_pes = total;
  tcfg.nodes = config.nodes;
  tcfg.pes_per_node = config.pes_per_node;
  transport_ = make_transport(opt, tcfg);

  pes_.reserve(total);
  tx_.reserve(total + 1);
  for (int i = 0; i < total; ++i) {
    pes_.push_back(std::make_unique<Pe>(i, node_of(i), config.backend,
                                        pe_cfg));
    tx_.push_back(std::make_unique<PeTx>());
    tx_.back()->bins.resize(static_cast<std::size_t>(total));
    // The aggregation bins owned by this PE are flushed whenever its loop
    // goes idle — the hook runs on the owning thread, so bins stay
    // single-writer.
    pes_.back()->add_idle_hook([this, i] { flush_aggregation(i); });
    if (transport_->num_procs() > 1 && transport_->is_local(i)) {
      // Drain inbound shm rings every loop iteration, on the PE's own
      // thread; a locally-failed PE diverts instead of posting to a halted
      // loop (its own flag is authoritative in this process).
      pes_.back()->set_poll_hook([this, i] {
        return transport_->poll(i, [this, i](Message&& m) {
          if (failed_[i].load(std::memory_order_acquire)) {
            divert(std::move(m));
          } else {
            pes_[static_cast<std::size_t>(i)]->post(std::move(m));
          }
        });
      });
    }
  }
  tx_.push_back(std::make_unique<PeTx>());  // sends from non-PE threads
  failed_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) failed_[i].store(false);
  // A peer process publishing a failure (or dying outright) funnels into
  // the same fail_pe path a local failure takes; fail_pe is idempotent, so
  // both processes converging on the same PE is fine.
  transport_->set_failure_callback([this](PeId pe) {
    if (pe >= 0 && pe < num_pes() && !pe_failed(pe)) fail_pe(pe);
  });
}

Cluster::~Cluster() { stop_and_join(); }

Pe& Cluster::pe(PeId id) {
  require(id >= 0 && id < num_pes(), ErrorCode::InvalidArgument,
          "PE id out of range");
  return *pes_[id];
}

void Cluster::resize_location_table(int nranks) {
  require(!started_, ErrorCode::BadState,
          "location table must be sized before start");
  require(nranks >= 0, ErrorCode::InvalidArgument, "negative rank count");
  if (transport_->has_shared_locations()) {
    // The authoritative table lives in the shared segment so re-homing
    // decisions agree across processes; it is sized (and kInvalidPe-filled)
    // at segment creation.
    require(nranks <= transport_->max_shared_ranks(),
            ErrorCode::LimitExceeded,
            "rank count exceeds transport.max_ranks");
    num_ranks_ = nranks;
    return;
  }
  locations_ = std::make_unique<std::atomic<PeId>[]>(
      static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) locations_[i].store(kInvalidPe);
  num_ranks_ = nranks;
}

void Cluster::set_location(RankId rank, PeId pe) {
  require(rank >= 0 && rank < num_ranks_, ErrorCode::InvalidArgument,
          "rank out of location-table range");
  if (transport_->has_shared_locations()) {
    transport_->publish_location(rank, pe);
    return;
  }
  require(locations_ != nullptr, ErrorCode::InvalidArgument,
          "location table not sized");
  locations_[rank].store(pe, std::memory_order_release);
}

PeId Cluster::location(RankId rank) const {
  require(rank >= 0 && rank < num_ranks_, ErrorCode::InvalidArgument,
          "rank out of location-table range");
  if (transport_->has_shared_locations())
    return transport_->shared_location(rank);
  require(locations_ != nullptr, ErrorCode::InvalidArgument,
          "location table not sized");
  return locations_[rank].load(std::memory_order_acquire);
}

Cluster::PeTx* Cluster::owned_tx(const Message& msg) {
  Pe* cur = Pe::current();
  if (cur == nullptr || msg.src_pe < 0 || msg.src_pe >= num_pes()) {
    return nullptr;
  }
  if (pes_[msg.src_pe].get() != cur) return nullptr;  // other cluster / PE
  return tx_[msg.src_pe].get();
}

void Cluster::send(Message&& msg) {
  require(msg.dst_pe >= 0 && msg.dst_pe < num_pes(),
          ErrorCode::InvalidArgument, "message to invalid PE");
  if (msg.src_pe == kInvalidPe) {
    // Producers are supposed to stamp their PE; fill it in when the caller
    // is a PE loop thread of this cluster so the envelope contract holds.
    Pe* cur = Pe::current();
    if (cur != nullptr && cur->id() >= 0 && cur->id() < num_pes() &&
        pes_[cur->id()].get() == cur) {
      msg.src_pe = cur->id();
    }
  }
  // Message-class priority: runtime-internal traffic (control, migration,
  // FT/checker plumbing) and small p2p payloads are latency-critical — they
  // wake their destination rank on the High scheduler lane. The bit rides
  // the envelope (and survives bundling via kAggHipriBit); it never changes
  // routing, pacing, or aggregation.
  if (msg.kind != Message::Kind::UserData ||
      msg.payload.size() <= hipri_bytes_) {
    msg.prio = 1;
  }
  if (failed_[msg.dst_pe].load(std::memory_order_acquire)) {
    divert(std::move(msg));
    return;
  }
  PeTx* tx = owned_tx(msg);
  if (tx != nullptr) {
    bump(tx->sends);
    bump(tx->bytes, msg.payload.size());
  } else {
    PeTx& shared = *tx_[static_cast<std::size_t>(num_pes())];
    shared.sends.fetch_add(1, std::memory_order_relaxed);
    shared.bytes.fetch_add(msg.payload.size(), std::memory_order_relaxed);
  }
  if (tx != nullptr && msg.kind == Message::Kind::UserData &&
      msg.dst_pe != msg.src_pe && agg_threshold_ > 0 &&
      msg.payload.size() < agg_threshold_) {
    bump(tx->aggregated);
    append_to_bin(*tx, std::move(msg));
    return;
  }
  if (tx != nullptr && tx->bins[static_cast<std::size_t>(msg.dst_pe)]
                               .count.load(std::memory_order_relaxed) > 0) {
    // A non-bundled message is about to overtake the bin for the same
    // destination; flush first so the (sender, destination) FIFO holds.
    bump(tx->flushes_order);
    flush_bin(*tx, msg.src_pe, msg.dst_pe);
  }
  deliver(std::move(msg));
}

void Cluster::append_to_bin(PeTx& tx, Message&& msg) {
  const PeId dst = msg.dst_pe;
  AggBin& bin = tx.bins[static_cast<std::size_t>(dst)];
  const std::size_t entry = agg_entry_bytes(msg.payload.size());
  if (bin.count.load(std::memory_order_relaxed) > 0 &&
      bin.used + entry > bin.buf.size()) {
    bump(tx.flushes_size);
    flush_bin(tx, msg.src_pe, dst);
  }
  if (bin.buf.empty()) {
    bin.buf = Payload::acquire(std::max(agg_max_bytes_, entry));
    bin.used = 0;
  }
  AggSubHeader h{};
  h.src_rank = msg.src_rank;
  h.dst_rank = msg.dst_rank;
  h.comm_id = msg.comm_id;
  h.tag = msg.tag;
  h.seq = msg.seq;
  h.bytes = static_cast<std::uint32_t>(msg.payload.size());
  if (msg.prio != 0) h.bytes |= kAggHipriBit;
  h.esize = msg.esize;
  std::memcpy(bin.buf.data() + bin.used, &h, sizeof h);
  if (!msg.payload.empty()) {
    std::memcpy(bin.buf.data() + bin.used + sizeof h, msg.payload.data(),
                msg.payload.size());
  }
  bin.used += entry;
  bump32(bin.count);
  bin.payload_bytes += msg.payload.size();
  if (bin.used + sizeof(AggSubHeader) >= bin.buf.size()) {
    bump(tx.flushes_size);
    flush_bin(tx, msg.src_pe, dst);
  }
}

void Cluster::flush_bin(PeTx& tx, PeId src, PeId dst) {
  AggBin& bin = tx.bins[static_cast<std::size_t>(dst)];
  const std::uint32_t n = bin.count.load(std::memory_order_relaxed);
  if (n == 0) return;
  Message env;
  env.kind = Message::Kind::Aggregate;
  env.src_pe = src;
  env.dst_pe = dst;
  env.opcode = static_cast<std::int32_t>(n);
  env.seq = bin.payload_bytes;
  env.payload = std::move(bin.buf);
  env.payload.resize_down(bin.used);
  bin.used = 0;
  bin.count.store(0, std::memory_order_relaxed);
  bin.payload_bytes = 0;
  bump(tx.agg_envelopes);
  deliver(std::move(env));
}

void Cluster::flush_aggregation(PeId src) {
  if (src < 0 || src >= num_pes()) return;
  PeTx& tx = *tx_[src];
  for (PeId dst = 0; dst < num_pes(); ++dst) {
    if (tx.bins[static_cast<std::size_t>(dst)].count.load(
            std::memory_order_relaxed) == 0)
      continue;
    bump(tx.flushes_idle);
    flush_bin(tx, src, dst);
  }
}

std::size_t Cluster::pending_aggregated(PeId src) const {
  if (src < 0 || src >= num_pes()) return 0;
  const PeTx& tx = *tx_[src];
  std::size_t n = 0;
  for (const AggBin& bin : tx.bins) {
    n += bin.count.load(std::memory_order_relaxed);
  }
  return n;
}

void Cluster::deliver(Message&& msg) {
  if (failed_[msg.dst_pe].load(std::memory_order_acquire)) {
    divert(std::move(msg));
    return;
  }
  if (!transport_->is_local(msg.dst_pe)) {
    // Real IPC replaces the modelled network hop: no netmodel pacing and no
    // internode_ charge — the shm.* counters account for this path. A dead
    // or stopped destination process refuses the envelope; divert it like
    // any other send to a failed PE.
    Pe* cur = Pe::current();
    const bool owner = cur != nullptr && msg.src_pe >= 0 &&
                       msg.src_pe < num_pes() &&
                       pes_[static_cast<std::size_t>(msg.src_pe)].get() == cur;
    if (!transport_->send_remote(msg, owner)) divert(std::move(msg));
    return;
  }
  if (msg.src_pe != kInvalidPe && node_of(msg.src_pe) != node_of(msg.dst_pe)) {
    if (msg.kind == Message::Kind::Aggregate) {
      // Charge the bundle as its constituent messages: bundling is a
      // software-overhead optimization and must not change the modelled
      // network cost (paper figure shapes depend on per-message latency).
      const auto n = static_cast<std::size_t>(msg.opcode);
      internode_.fetch_add(n, std::memory_order_relaxed);
      net_.pace_n(n, n * sizeof(Message) + static_cast<std::size_t>(msg.seq));
    } else {
      internode_.fetch_add(1, std::memory_order_relaxed);
      net_.pace(msg.size_bytes());
    }
  }
  pes_[msg.dst_pe]->post(std::move(msg));
}

void Cluster::divert(Message&& msg) {
  if (msg.kind == Message::Kind::Aggregate) {
    // Bundled messages are plain UserData; divert each one. The sub-payloads
    // are views into the envelope's buffer, so parked messages keep it alive
    // without copying.
    unbundle(std::move(msg),
             [this](Message&& sub) { divert(std::move(sub)); });
    return;
  }
  if (msg.kind == Message::Kind::UserData && msg.dst_rank >= 0 &&
      msg.dst_rank < num_ranks_) {
    const PeId loc = location(msg.dst_rank);
    if (loc != kInvalidPe && loc != msg.dst_pe &&
        !failed_[loc].load(std::memory_order_acquire)) {
      // The rank has already been re-homed: forward to its live host.
      msg.dst_pe = loc;
      send(std::move(msg));
      return;
    }
    // The rank is (still) mapped to a dead PE: park the message until the
    // recovery protocol re-homes the rank and flushes the queue.
    std::lock_guard<std::mutex> lock(dead_mutex_);
    dead_letters_.push_back(std::move(msg));
    return;
  }
  // Control and migration traffic addressed to a dead PE is lost with it.
  dropped_.fetch_add(1, std::memory_order_relaxed);
  APV_WARN("cluster", "dropped %s message to failed PE %d",
           msg.kind == Message::Kind::Control ? "control" : "migration",
           msg.dst_pe);
}

void Cluster::fail_pe(PeId pe) {
  require(pe >= 0 && pe < num_pes(), ErrorCode::InvalidArgument,
          "PE id out of range");
  bool expected = false;
  if (!failed_[pe].compare_exchange_strong(expected, true)) return;
  failed_count_.fetch_add(1, std::memory_order_release);
  pes_[pe]->fail();
  // Let the other processes divert their own traffic too (no-op on inproc).
  transport_->publish_pe_failed(pe);
}

bool Cluster::pe_failed(PeId pe) const {
  require(pe >= 0 && pe < num_pes(), ErrorCode::InvalidArgument,
          "PE id out of range");
  return failed_[pe].load(std::memory_order_acquire);
}

std::vector<bool> Cluster::alive_mask() const {
  std::vector<bool> alive(static_cast<std::size_t>(num_pes()));
  for (int p = 0; p < num_pes(); ++p) {
    alive[static_cast<std::size_t>(p)] =
        !failed_[p].load(std::memory_order_acquire);
  }
  return alive;
}

std::size_t Cluster::flush_dead_letters() {
  std::deque<Message> pending;
  {
    std::lock_guard<std::mutex> lock(dead_mutex_);
    pending.swap(dead_letters_);
  }
  std::size_t delivered = 0;
  std::deque<Message> still_dead;
  for (auto& msg : pending) {
    const PeId loc = msg.dst_rank >= 0 && msg.dst_rank < num_ranks_
                         ? location(msg.dst_rank)
                         : kInvalidPe;
    if (loc == kInvalidPe || failed_[loc].load(std::memory_order_acquire)) {
      still_dead.push_back(std::move(msg));
      continue;
    }
    msg.dst_pe = loc;
    send(std::move(msg));
    ++delivered;
  }
  if (!still_dead.empty()) {
    // Re-park the leftovers in one critical section, ahead of anything
    // diverted while we were flushing (the leftovers are older).
    std::lock_guard<std::mutex> lock(dead_mutex_);
    for (auto it = still_dead.rbegin(); it != still_dead.rend(); ++it) {
      dead_letters_.push_front(std::move(*it));
    }
  }
  return delivered;
}

std::size_t Cluster::dead_letter_count() const {
  std::lock_guard<std::mutex> lock(dead_mutex_);
  return dead_letters_.size();
}

void Cluster::start() {
  require(!started_, ErrorCode::BadState, "cluster already started");
  started_ = true;
  threads_.reserve(pes_.size());
  int local = 0;
  for (auto& pe : pes_) {
    // Remote PEs belong to another OS process; they exist here only as
    // routing targets — their loops run where they are local.
    if (!transport_->is_local(pe->id())) continue;
    threads_.emplace_back([p = pe.get()] { p->run_loop(); });
    ++local;
  }
  APV_INFO("cluster", "started %d node(s) x %d PE(s), %d local via %s",
           config_.nodes, config_.pes_per_node, local, transport_->name());
}

void Cluster::stop_and_join() {
  if (!started_) return;
  for (auto& pe : pes_) pe->stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  started_ = false;
  // Mark a clean departure so peers treat our silence as a stop, not a
  // crash (no-op on inproc).
  transport_->stop();
}

CommCounters Cluster::counters(PeId pe) const {
  require(pe >= 0 && pe < num_pes(), ErrorCode::InvalidArgument,
          "PE id out of range");
  const PeTx& tx = *tx_[pe];
  CommCounters c;
  c.sends = tx.sends.load(std::memory_order_relaxed);
  c.bytes = tx.bytes.load(std::memory_order_relaxed);
  c.aggregated = tx.aggregated.load(std::memory_order_relaxed);
  c.agg_envelopes = tx.agg_envelopes.load(std::memory_order_relaxed);
  c.flushes_size = tx.flushes_size.load(std::memory_order_relaxed);
  c.flushes_order = tx.flushes_order.load(std::memory_order_relaxed);
  c.flushes_idle = tx.flushes_idle.load(std::memory_order_relaxed);
  return c;
}

CommCounters Cluster::counters_total() const {
  CommCounters total;
  for (const auto& tx : tx_) {
    CommCounters c;
    c.sends = tx->sends.load(std::memory_order_relaxed);
    c.bytes = tx->bytes.load(std::memory_order_relaxed);
    c.aggregated = tx->aggregated.load(std::memory_order_relaxed);
    c.agg_envelopes = tx->agg_envelopes.load(std::memory_order_relaxed);
    c.flushes_size = tx->flushes_size.load(std::memory_order_relaxed);
    c.flushes_order = tx->flushes_order.load(std::memory_order_relaxed);
    c.flushes_idle = tx->flushes_idle.load(std::memory_order_relaxed);
    total.merge(c);
  }
  return total;
}

util::Counters Cluster::stat_counters() const {
  util::Counters out;
  const CommCounters c = counters_total();
  out.set("comm.sends", c.sends);
  out.set("comm.bytes", c.bytes);
  out.set("comm.aggregated", c.aggregated);
  out.set("comm.agg_envelopes", c.agg_envelopes);
  out.set("comm.flushes_size", c.flushes_size);
  out.set("comm.flushes_order", c.flushes_order);
  out.set("comm.flushes_idle", c.flushes_idle);
  out.set("comm.send_calls", c.sends);
  out.set("comm.internode", internode_.load(std::memory_order_relaxed));
  out.set("comm.dropped", dropped_.load(std::memory_order_relaxed));
  std::uint64_t ring = 0;
  std::uint64_t overflow = 0;
  for (const auto& pe : pes_) {
    ring += pe->mailbox().ring_pushes();
    overflow += pe->mailbox().overflow_pushes();
  }
  out.set("comm.mailbox_ring_pushes", ring);
  out.set("comm.mailbox_overflow_pushes", overflow);
  out.merge(transport_->counters());
  const PoolStats p = pool::stats();
  out.set("pool.hits", p.hits);
  out.set("pool.misses", p.misses);
  out.set("pool.adopted", p.adopted);
  out.set("pool.returns", p.returns);
  out.set("pool.drops", p.drops);
  out.set("pool.bytes_copied", p.bytes_copied);
  return out;
}

}  // namespace apv::comm
