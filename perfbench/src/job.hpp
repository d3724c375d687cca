// The benchmark's rank program and the host-side records it fills in.
//
// One program serves every workload. A run goes through the life of an
// AMPI job: a cross-PE ping-pong probe with every other rank parked, an
// 8 B allreduce storm, then timed steps (stencil sweep, planned heap page
// writes, halo and small-message exchange, periodic residual allreduce)
// with a buddy checkpoint and a load-balancing epoch every period. A
// separate fault job (same image, same configuration, ft.policy=epoch)
// kills PE 1 at its second checkpoint and recovers. The workloads differ
// only in their Spec: how many ranks, how large the code segment, grid and
// heap are, and how much small-message traffic a step carries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "trace.hpp"

namespace pb {

// The same in every workload.
inline constexpr int kPes = 2;  ///< PE threads, in one process (< nproc)
// Phase shares of the measured seconds, and the round sizes that keep
// every phase made of whole rounds.
inline constexpr double kSharePingpong = 0.2;
inline constexpr double kShareAllreduce = 0.15;
inline constexpr double kShareSteps = 0.5;
inline constexpr double kShareRecover = 0.15;
inline constexpr int kPingpongBatch = 500;
inline constexpr int kAllreduceBatch = 200;

struct Spec {
  std::string name;
  int vps = 16;
  std::size_t code_bytes = std::size_t{3} << 20;
  // Stencil: global nx × ny × nz grid, slabs along z; each round restarts
  // from the seeded initial grid and runs sweeps_per_round sweeps.
  int nx = 64, ny = 64, nz = 128;
  int sweeps_per_round = 20;
  int res_every = 10;  ///< residual allreduce cadence (sweeps)
  // Planned heap writes: one word on each of pages_per_step distinct pages
  // of a heap_pages-page Isomalloc buffer, every step.
  int heap_pages = 0;
  int pages_per_step = 0;
  // Small-message exchange: msgs_per_nbr 16 B messages to rank ± d for
  // each d in dists, every step; messages over the first n_wild distances
  // are received through kAnySource.
  std::vector<int> dists;
  int msgs_per_nbr = 0;
  int n_wild = 0;
  int steps_per_period = 10;  ///< checkpoint_all + load_balance cadence
};

/// Everything the rank program reads that is not a privatized global.
struct JobInput {
  Spec spec;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool fault_job = false;  ///< the recovery job instead of the main job
};

/// One rank's record, written only by that rank.
struct RankOut {
  std::uint64_t errors = 0;
  std::string first_error;
  std::uint64_t heap_sum = 0;     ///< final checksum of the planned words
  std::uint64_t steps = 0;        ///< steps completed (heap plan replay)
  std::uint64_t p2p_sends = 0;    ///< user sends issued, all phases
  std::uint64_t step_sends = 0;   ///< of which in the step phase
  std::uint64_t pe_moves = 0;     ///< my_pe() changes seen across LB epochs
  int pe_at_kill = -1;            ///< fault job: PE before the kill epoch
  double recover_ms = 0;          ///< fault job: kill-epoch checkpoint_all
  std::vector<double> kernel_ms;  ///< traced sweeps
  std::vector<double> write_ms;   ///< traced heap-write phases
  double global_read_ns = 0;
};

/// Records only rank 0 writes: phase timings and counter snapshots.
struct JobOut {
  std::vector<double> rtt_us;
  std::vector<std::size_t> rtt_slices;  ///< where each cycle's samples start
  KindTotals pp_send;  ///< rank 0's send spans in the ping-pong phase
  KindTotals ar_span;           ///< rank 0's spans in the allreduce storm
  std::uint64_t ar_calls = 0;
  std::vector<double> ar_round_ms;     ///< per kAllreduceBatch round
  std::vector<double> period_step_ms;  ///< steps of each period, without
                                       ///< its checkpoint and LB epoch
  std::uint64_t steps = 0;
  std::uint64_t periods = 0;
  std::uint64_t rounds = 0;     ///< completed stencil rounds
  double residual_min = 0, residual_max = 0;
  std::uint64_t cells_per_sweep = 0;
  std::vector<double> ckpt_ms;
  std::vector<double> lb_ms;
  double lb_total_s = 0;
  std::uint64_t coll_calls = 0; ///< collectives rank 0 entered (incl. the
                                ///< barriers inside checkpoint_all and LB)
  // Traced-vs-untraced periods (trace mode only).
  double traced_s = 0, untraced_s = 0;
  std::uint64_t traced_steps = 0, untraced_steps = 0;
  // Step-phase counter deltas (all atomics in the runtime).
  std::uint64_t d_switches = 0, d_remote_readies = 0;
  std::uint64_t d_comm_sends = 0, d_aggregated = 0, d_agg_envelopes = 0;
  std::uint64_t d_overflow = 0;
  std::uint64_t d_pool_hits = 0, d_pool_misses = 0, d_pool_copied = 0;
  // Checkpoint counter deltas over the step phase.
  std::uint64_t d_full = 0, d_delta = 0, d_bytes_full = 0, d_bytes_delta = 0;
  std::uint64_t d_pages_dirty = 0, d_tracker_faults = 0;
};

/// Host memory shared by the ranks of one job.
struct Shared {
  JobInput in;
  std::vector<RankOut> ranks;
  JobOut out;
  Tracer* tracer = nullptr;  ///< null unless tracing
};

/// The job's program image (entry "mpi_main"); `shared` is reachable from
/// rank code through the image's "shared" global.
apv::img::ProgramImage build_image(const Spec& spec, Shared* shared);

// --- references computed without the runtime ---------------------------

/// Sequential 7-point Jacobi over the whole grid: the residual after one
/// round (sweeps_per_round sweeps from the seeded initial grid).
double reference_residual(const Spec& spec, std::uint64_t seed);

/// Closed form of a rank's heap checksum after `steps` planned steps.
std::uint64_t reference_heap_sum(const Spec& spec, std::uint64_t seed,
                                 int rank, std::uint64_t steps);

/// The allreduce storm's expected sum for call `i` (closed form).
std::int64_t reference_allreduce(int vps, std::uint64_t seed,
                                 std::uint64_t i);

}  // namespace pb
