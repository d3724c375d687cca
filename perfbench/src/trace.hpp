// Span recorder for the traced benchmark run.
//
// Spans are opened and closed by the benchmark's own rank code around each
// call into a runtime layer. Each rank owns one Lane, written only by that
// rank's ULT (a rank runs on one PE thread at a time and migration hands
// it over with the runtime's own release/acquire), so recording takes no
// lock. Per-kind totals and self times are kept for every span; the raw
// spans kept for the Chrome trace are capped per rank.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// What a span wraps. Each kind belongs to one layer (layer_of).
enum class Kind : std::uint8_t {
  Setup,        ///< image build + mpi::Runtime construction (core)
  Period,       ///< one step-phase period: the benchmark's own loop
  Kernel,       ///< one stencil sweep (apps)
  HeapWrite,    ///< one step's planned heap page writes (isomalloc)
  Send,         ///< Env::send
  Irecv,        ///< Env::irecv
  Waitall,      ///< Env::waitall / blocking recv
  Allreduce,    ///< Env::allreduce
  Barrier,      ///< Env::barrier
  Checkpoint,   ///< Env::checkpoint_all
  LoadBalance,  ///< Env::load_balance
  kCount
};
inline constexpr int kKinds = static_cast<int>(Kind::kCount);

enum class Layer : std::uint8_t { Bench, Core, Apps, Isomalloc, P2p, Coll, Ft,
                                  Lb, kCount };
inline constexpr int kLayers = static_cast<int>(Layer::kCount);

const char* kind_name(Kind k);
const char* layer_name(Layer l);
Layer layer_of(Kind k);

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct KindTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// One rank's span state. Cache-line aligned so neighbouring ranks on
/// different PE threads never share a line.
struct alignas(64) Lane {
  struct Open {
    Kind kind;
    std::uint64_t t0;
    std::uint64_t child_ns;
    std::uint32_t id;      ///< per-rank span id, from 1
    std::uint32_t parent;  ///< id of the enclosing span, 0 at top level
  };
  struct Rec {
    Kind kind;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t t0;
    std::uint64_t t1;
  };
  bool active = false;  ///< tracing on for this rank right now
  int depth = 0;
  std::uint32_t next_id = 1;
  Open stack[8];
  KindTotals totals[kKinds];
  std::vector<Rec> spans;  ///< reserved up front; never grows past cap
  std::size_t cap = 0;
};

class Tracer {
 public:
  /// Sizes one lane per rank plus the host lane; `cap` raw spans are kept
  /// per lane.
  void init(int ranks, std::size_t cap);
  Lane& lane(int rank) { return lanes_[static_cast<std::size_t>(rank)]; }
  /// The main thread's lane, for spans outside any rank (tid = ranks).
  Lane& host_lane() { return lanes_.back(); }

  /// Sum of the per-kind totals over all ranks.
  KindTotals totals(Kind k) const;
  /// Self time of every span of the layer, summed over ranks (ns).
  std::uint64_t layer_self_ns(Layer l) const;

  /// Writes every kept span as Chrome trace-event JSON (pid 0, tid = rank).
  /// Returns false when the file could not be written.
  bool write_chrome(const std::string& path, std::uint64_t epoch_ns) const;

 private:
  std::vector<Lane> lanes_;
};

/// RAII span. Does nothing unless the rank's lane is active.
class Span {
 public:
  Span(Lane& lane, Kind kind) : lane_(lane.active ? &lane : nullptr) {
    if (lane_ == nullptr) return;
    Lane& l = *lane_;
    if (l.depth >= 8) {  // deeper nesting than any benchmark path has
      lane_ = nullptr;
      return;
    }
    const std::uint32_t parent = l.depth > 0 ? l.stack[l.depth - 1].id : 0;
    l.stack[l.depth++] = Lane::Open{kind, now_ns(), 0, l.next_id++, parent};
  }
  ~Span() {
    if (lane_ == nullptr) return;
    Lane& l = *lane_;
    const Lane::Open o = l.stack[--l.depth];
    const std::uint64_t t1 = now_ns();
    const std::uint64_t dur = t1 - o.t0;
    KindTotals& kt = l.totals[static_cast<int>(o.kind)];
    ++kt.count;
    kt.total_ns += dur;
    kt.self_ns += dur > o.child_ns ? dur - o.child_ns : 0;
    if (l.depth > 0) l.stack[l.depth - 1].child_ns += dur;
    if (l.spans.size() < l.cap)
      l.spans.push_back(Lane::Rec{o.kind, o.id, o.parent, o.t0, t1});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Lane* lane_;
};

}  // namespace pb
