// AMPI_Migrate-style collective load balancing: measure, decide, migrate.

#include <cstring>
#include <vector>

#include "lb/strategy.hpp"
#include "mpi/runtime.hpp"
#include "util/log.hpp"

namespace apv::mpi {

void Runtime::do_load_balance(RankMpi& rm, const std::string& strategy) {
  const CommInfo& world = comm_info(kCommWorld);
  const int n = world.size();
  const int me = rm.world_rank;
  rm.in_lb = true;

  // Allgather (load, pe) so every rank can run the strategy independently
  // and deterministically — no central decision maker needed.
  struct Entry {
    double load;
    std::int32_t pe;
    std::int32_t pad;
  };
  const std::uint32_t seq = rm.coll_seq_for(kCommWorld)++;
  const int gtag = internal_tag(kCollLb, 0, seq);
  const int btag = internal_tag(kCollLb, 1, seq);
  std::vector<Entry> all(static_cast<std::size_t>(n));
  const Entry mine{rm.busy_time(), rm.resident_pe, 0};
  if (me == 0) {
    all[0] = mine;
    for (int i = 1; i < n; ++i) {
      coll_recv(rm, i, gtag, &all[static_cast<std::size_t>(i)], sizeof(Entry),
                kCommWorld);
    }
    for (int i = 1; i < n; ++i) {
      coll_send(rm, i, btag, all.data(), all.size() * sizeof(Entry),
                kCommWorld);
    }
  } else {
    coll_send(rm, 0, gtag, &mine, sizeof(Entry), kCommWorld);
    coll_recv(rm, 0, btag, all.data(), all.size() * sizeof(Entry),
              kCommWorld);
  }

  lb::LbStats stats;
  stats.num_pes = cluster_->num_pes();
  stats.rank_load.resize(static_cast<std::size_t>(n));
  stats.rank_pe.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    stats.rank_load[static_cast<std::size_t>(i)] =
        all[static_cast<std::size_t>(i)].load;
    stats.rank_pe[static_cast<std::size_t>(i)] =
        all[static_cast<std::size_t>(i)].pe;
  }
  // Dead PEs (fault injection) must never be assignment targets; with all
  // PEs alive this is exactly strategy->assign(stats).
  const lb::Assignment dest = lb::assign_on_live(
      *lb::make_strategy(strategy), stats, cluster_->alive_mask());

  if (me == 0) {
    APV_DEBUG("lb", "strategy %s: imbalance %.3f -> %.3f, %d migrations",
              strategy.c_str(),
              lb::assignment_imbalance(
                  stats, lb::Assignment(stats.rank_pe.begin(),
                                        stats.rank_pe.end())),
              lb::assignment_imbalance(stats, dest),
              lb::migration_count(stats, dest));
  }

  // Every rank computed the identical assignment, so this is the one safe
  // point to refresh the hierarchical-collective placement view: all ranks
  // pass through here before the next collective on any communicator.
  rm.placement_view.assign(dest.begin(), dest.end());
  ++rm.view_epoch;

  // New epoch for load measurement.
  rm.busy_time_s.store(0.0, std::memory_order_relaxed);

  // Everyone has decided; quiesce, then move.
  do_barrier(rm, kCommWorld);
  const comm::PeId my_dest = dest[static_cast<std::size_t>(me)];
  if (my_dest != rm.resident_pe) do_migrate_to(rm, my_dest);
  do_barrier(rm, kCommWorld);
  rm.in_lb = false;

  // Steal interplay: the epoch just rebalanced deliberately (and the
  // allgather above used rm.resident_pe, so earlier steals were already
  // folded into the stats). Restart this PE's idle clock so the thief
  // logic doesn't immediately second-guess the fresh placement with a
  // steal of its own.
  if (steal_on_) {
    auto& ps = pe_state_[static_cast<std::size_t>(rm.resident_pe)];
    ps.idle_since_ns = 0;
  }
}

}  // namespace apv::mpi
