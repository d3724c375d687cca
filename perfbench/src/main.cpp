// End-to-end benchmark of the virtualized MPI runtime.
//
//   apv_perfbench --workload <jacobi3d|msg_mix|lifecycle> --seed <n>
//                 --seconds <s> --trace <0|1>
//
// Runs one workload (see job.hpp and README.md), checks every output
// against a computation made apart from the runtime, and prints one JSON
// object as its last line: end-to-end metrics with --trace 0, per-layer
// metrics from a traced run with --trace 1. The resolved runtime settings
// are printed on the line before it. A traced run writes its Chrome trace
// to .bench_out/ in the working directory.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "job.hpp"
#include "mpi/runtime.hpp"
#include "trace.hpp"

namespace {

using pb::Spec;

// Set before main's first statement runs: set-up time counts from here.
const std::uint64_t g_process_start_ns = pb::now_ns();

// The three workloads. Work per run does not depend on the seed: the seed
// only changes values (initial grid, payloads, which pages are written).
bool spec_for(const std::string& name, Spec* s) {
  s->name = name;
  if (name == "jacobi3d") {
    // Compute-bound: cache-resident 64×64×128 grid over 16 ranks, 32 KiB
    // halo planes, an 8 B residual allreduce every 10 sweeps.
    s->vps = 16;
    s->code_bytes = std::size_t{3} << 20;
    s->nx = 64, s->ny = 64, s->nz = 128;
    s->sweeps_per_round = 20;
    s->res_every = 10;
    s->steps_per_period = 60;
    return true;
  }
  if (name == "msg_mix") {
    // Communication-bound: 64 ranks, a 16×16×128 grid (2 KiB halos) and
    // 4 small messages to each of six neighbours per step, a third of
    // them received through kAnySource.
    s->vps = 64;
    s->code_bytes = std::size_t{1} << 20;
    s->nx = 16, s->ny = 16, s->nz = 128;
    s->sweeps_per_round = 10;
    s->res_every = 5;
    s->dists = {5, 1, 31};
    s->msgs_per_nbr = 4;
    s->n_wild = 1;
    s->steps_per_period = 400;
    return true;
  }
  if (name == "lifecycle") {
    // Lifecycle-bound: 14 MB code segment, 3 MB heaps with 64 pages
    // written per step, checkpoint + load balancing every 4 steps.
    s->vps = 8;
    s->code_bytes = std::size_t{14} << 20;
    s->nx = 32, s->ny = 32, s->nz = 32;
    s->sweeps_per_round = 10;
    s->res_every = 5;
    s->heap_pages = 768;
    s->pages_per_step = 64;
    s->dists = {1};
    s->msgs_per_nbr = 1;
    s->n_wild = 1;
    s->steps_per_period = 4;
    return true;
  }
  return false;
}

// Every option a workload depends on, set explicitly so no environment
// default can change what is measured.
apv::mpi::RuntimeConfig config_for(const Spec& s, bool fault_job) {
  apv::mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = pb::kPes;
  cfg.vps = s.vps;
  cfg.method = apv::core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{64} << 20;
  cfg.map = "block";
  auto& o = cfg.options;
  o.set("check.mode", "off");
  o.set("sched.policy", "prio");
  o.set("sched.steal", "off");
  o.set("sched.preempt", "off");
  o.set("transport.backend", "inproc");
  o.set("net.enabled", "false");
  o.set("comm.inline", "on");
  o.set("coll.algo", "hier");
  o.set("ft.delta", "on");
  o.set("ft.full_every", "8");
  o.set("util.dump_counters", "false");
  if (fault_job) {
    o.set("ft.policy", "epoch");
    o.set("ft.pe", "1");
    o.set("ft.epoch", "2");
  } else {
    o.set("ft.policy", "none");
  }
  return cfg;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()))) - 1;
  return v[std::min(i, v.size() - 1)];
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// Median over the cycles' slices of a statistic of each slice's samples.
template <typename Stat>
double slice_median(const std::vector<double>& v,
                    const std::vector<std::size_t>& starts, Stat stat) {
  std::vector<double> per_slice;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::size_t end = i + 1 < starts.size() ? starts[i + 1] : v.size();
    per_slice.push_back(stat(std::vector<double>(
        v.begin() + static_cast<std::ptrdiff_t>(starts[i]),
        v.begin() + static_cast<std::ptrdiff_t>(end))));
  }
  return median(per_slice);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Checks {
  std::uint64_t failed = 0;
  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

void collect_rank_errors(const pb::Shared& sh, const char* job, Checks* c) {
  for (std::size_t r = 0; r < sh.ranks.size(); ++r) {
    const pb::RankOut& ro = sh.ranks[r];
    if (ro.errors == 0) continue;
    c->failed += ro.errors;
    std::fprintf(stderr, "CHECK FAILED: %s rank %zu: %llu errors, first: %s\n",
                 job, r, static_cast<unsigned long long>(ro.errors),
                 ro.first_error.c_str());
  }
}

struct FaultResult {
  double recover_ms = 0;
  double recovery_mb = 0;
};

// One fault job: same image shape and configuration, PE 1 killed at the
// second checkpoint epoch.
FaultResult run_fault_job(const Spec& spec, std::uint64_t seed, Checks* c) {
  pb::Shared sh;
  sh.in.spec = spec;
  sh.in.seed = seed;
  sh.in.fault_job = true;
  sh.ranks.resize(static_cast<std::size_t>(spec.vps));
  const apv::img::ProgramImage image = pb::build_image(spec, &sh);
  apv::mpi::Runtime rt(image, config_for(spec, true));
  rt.run();
  collect_rank_errors(sh, "fault job", c);
  std::uint64_t on_victim = 0;
  for (int r = 0; r < spec.vps; ++r) {
    const pb::RankOut& ro = sh.ranks[static_cast<std::size_t>(r)];
    if (ro.pe_at_kill == 1) ++on_victim;
    const std::uint64_t want =
        pb::reference_heap_sum(spec, seed, r, ro.steps);
    if (ro.heap_sum != want)
      c->fail("fault job rank " + std::to_string(r) + " heap checksum " +
              std::to_string(ro.heap_sum) + " != closed form " +
              std::to_string(want));
  }
  if (rt.recovery_count() != on_victim)
    c->fail("recovery_count " + std::to_string(rt.recovery_count()) +
            " != ranks seen on the killed PE " + std::to_string(on_victim));
  FaultResult fr;
  fr.recover_ms = sh.ranks[0].recover_ms;  // rank 0 lives on PE 0
  fr.recovery_mb = static_cast<double>(rt.recovery_bytes()) / (1 << 20);
  return fr;
}

void print_usage() {
  std::fprintf(stderr,
               "usage: apv_perfbench --workload <jacobi3d|msg_mix|lifecycle> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v, nullptr);
    else if (k == "--trace") trace = std::strcmp(v, "0") != 0;
    else {
      print_usage();
      return 2;
    }
  }
  Spec spec;
  if (argc % 2 != 1 || !spec_for(workload, &spec) || !(seconds > 0)) {
    print_usage();
    return 2;
  }
  Checks checks;
  pb::Tracer tracer;
  pb::Shared sh;
  sh.in.spec = spec;
  sh.in.seed = seed;
  sh.in.seconds = seconds;
  sh.in.trace = trace;
  sh.ranks.resize(static_cast<std::size_t>(spec.vps));
  pb::Lane idle_lane;
  if (trace) {
    tracer.init(spec.vps, 2000);
    sh.tracer = &tracer;
  }
  pb::Lane& host_lane = trace ? tracer.host_lane() : idle_lane;
  host_lane.active = trace;

  const apv::mpi::RuntimeConfig cfg = config_for(spec, false);
  std::vector<Metric> e2e, layer;
  std::uint64_t attempted = 0;
  try {
    std::optional<pb::Span> setup_span;
    setup_span.emplace(host_lane, pb::Kind::Setup);
    const apv::img::ProgramImage image = pb::build_image(spec, &sh);
    auto rt = std::make_unique<apv::mpi::Runtime>(image, cfg);
    setup_span.reset();
    const double setup_s =
        static_cast<double>(pb::now_ns() - g_process_start_ns) * 1e-9;
    rt->run();

    const pb::JobOut& o = sh.out;
    collect_rank_errors(sh, "main job", &checks);

    // Jacobi residual against the sequential reference.
    const double ref = pb::reference_residual(spec, seed);
    if (o.rounds == 0)
      checks.fail("no stencil round completed");
    for (double got : {o.residual_min, o.residual_max}) {
      if (o.rounds > 0 && !(std::abs(got - ref) <= 1e-9 * std::abs(ref)))
        checks.fail("residual " + std::to_string(got) +
                    " != sequential reference " + std::to_string(ref));
    }
    // Heap checksums against the closed form of each rank's write plan.
    std::uint64_t moves = 0, own_sends = 0, routed = 0, step_sends = 0;
    for (int r = 0; r < spec.vps; ++r) {
      const pb::RankOut& ro = sh.ranks[static_cast<std::size_t>(r)];
      const std::uint64_t want =
          pb::reference_heap_sum(spec, seed, r, ro.steps);
      if (ro.heap_sum != want)
        checks.fail("rank " + std::to_string(r) + " heap checksum " +
                    std::to_string(ro.heap_sum) + " != closed form " +
                    std::to_string(want));
      moves += ro.pe_moves;
      own_sends += ro.p2p_sends;
      step_sends += ro.step_sends;
      apv::mpi::RankMpi& rm = rt->rank_state(r);
      for (int d = 0; d < spec.vps; ++d) routed += rm.routed_sent_to(d);
    }
    if (moves != rt->migration_count())
      checks.fail("migrations seen through my_pe() " + std::to_string(moves) +
                  " != migration_count " +
                  std::to_string(rt->migration_count()));
    // Every message the transport carried, counted where it left: same-PE
    // inline hits and misses (per PE) plus routed sends (per sender and
    // destination). Besides the benchmark's own sends these carry the
    // hierarchical collectives' messages, each counted in coll_leader_msgs,
    // and load_balance's flat gather and broadcast: 2 (vps - 1) per call.
    const apv::util::Counters loc = rt->locality_counters();
    const std::uint64_t carried =
        loc.get("inline_hits") + loc.get("inline_misses") + routed;
    const std::uint64_t coll_msgs =
        loc.get("coll_leader_msgs") +
        2 * static_cast<std::uint64_t>(spec.vps - 1) * o.lb_ms.size();
    if (carried != own_sends + coll_msgs)
      checks.fail("transport messages " + std::to_string(carried) +
                  " != benchmark sends " + std::to_string(own_sends) +
                  " + collective messages " + std::to_string(coll_msgs));
    const double init_ms_per_rank = rt->init_time_s() * 1e3 / spec.vps;
    const std::uint64_t migrations = rt->migration_count();
    const std::uint64_t migration_bytes = rt->migration_bytes();
    rt.reset();

    // Fault jobs fill the rest of the measured time (at least three).
    std::vector<double> recover_ms, recovery_mb;
    const std::uint64_t tf = pb::now_ns();
    const auto budget = static_cast<std::uint64_t>(
        seconds * pb::kShareRecover * 1e9);
    while (recover_ms.size() < 3 || pb::now_ns() - tf < budget) {
      const FaultResult fr = run_fault_job(spec, seed, &checks);
      recover_ms.push_back(fr.recover_ms);
      recovery_mb.push_back(fr.recovery_mb);
    }

    attempted = o.rtt_us.size() + o.ar_calls + o.steps + o.ckpt_ms.size() +
                o.lb_ms.size() + recover_ms.size();
    // Rates are medians over the phase's rounds, so a stall of the
    // machine in one part of the run does not set the figure.
    const double steps_per_s =
        ratio(spec.steps_per_period, median(o.period_step_ms) * 1e-3);
    const double sends_per_step =
        ratio(static_cast<double>(step_sends), static_cast<double>(o.steps));
    e2e = {
        {"setup_s", setup_s, "s"},
        {"cell_updates_per_s",
         steps_per_s * static_cast<double>(o.cells_per_sweep) / 1e6,
         "Mcell/s"},
        {"msgs_per_s", steps_per_s * sends_per_step / 1e6, "Mmsg/s"},
        {"allreduce_per_s",
         ratio(pb::kAllreduceBatch, median(o.ar_round_ms) * 1e-3), "1/s"},
        {"pingpong_rtt_us",
         slice_median(o.rtt_us, o.rtt_slices,
                      [](std::vector<double> x) { return median(x); }),
         "us"},
        {"pingpong_rtt_p99_us",
         slice_median(o.rtt_us, o.rtt_slices,
                      [](std::vector<double> x) { return percentile(x, 0.99); }),
         "us"},
        {"steps_per_s", steps_per_s, "1/s"},
        {"ckpt_ms", median(o.ckpt_ms), "ms"},
        {"lb_ms", median(o.lb_ms), "ms"},
        {"recover_ms", median(recover_ms), "ms"},
    };

    if (trace) {
      std::vector<double> kernel, writes, reads;
      for (const pb::RankOut& ro : sh.ranks) {
        kernel.insert(kernel.end(), ro.kernel_ms.begin(), ro.kernel_ms.end());
        writes.insert(writes.end(), ro.write_ms.begin(), ro.write_ms.end());
        reads.push_back(ro.global_read_ns);
      }
      const double kernel_ms = median(kernel);
      // Computed bytes: one 8 B read stream and one 8 B write stream per
      // cell update, the minimum for a cache-resident sweep.
      const double bytes_per_sweep =
          16.0 * static_cast<double>(o.cells_per_sweep) / spec.vps;
      const auto span_us = [&](pb::Kind kind) {
        const pb::KindTotals t = tracer.totals(kind);
        return ratio(static_cast<double>(t.total_ns) * 1e-3,
                     static_cast<double>(t.count));
      };
      const double envelopes = static_cast<double>(
          o.d_comm_sends - o.d_aggregated + o.d_agg_envelopes);
      const double lb_calls = static_cast<double>(o.lb_ms.size());
      const double traced_step = ratio(o.traced_s, o.traced_steps);
      const double untraced_step = ratio(o.untraced_s, o.untraced_steps);
      const double msgs = static_cast<double>(step_sends);
      const double hits = static_cast<double>(loc.get("inline_hits"));
      const double misses = static_cast<double>(loc.get("inline_misses"));
      layer = {
          {"core.setup_ms_per_rank", init_ms_per_rank, "ms"},
          {"core.global_read_ns", median(reads), "ns"},
          {"apps.kernel_ms_per_iter", kernel_ms, "ms"},
          {"apps.kernel_GB_per_s_computed",
           ratio(bytes_per_sweep, kernel_ms * 1e-3) / 1e9, "GB/s"},
          {"ult.switches_per_msg",
           ratio(static_cast<double>(o.d_switches), msgs), "count"},
          {"ult.remote_readies_per_msg",
           ratio(static_cast<double>(o.d_remote_readies), msgs), "count"},
          {"comm.msgs_per_envelope",
           ratio(static_cast<double>(o.d_comm_sends), envelopes), "count"},
          {"comm.inline_hit_ratio", ratio(hits, hits + misses), "ratio"},
          {"comm.mailbox_overflow_pushes",
           static_cast<double>(o.d_overflow), "count"},
          {"comm.pool_hit_ratio",
           ratio(static_cast<double>(o.d_pool_hits),
                 static_cast<double>(o.d_pool_hits + o.d_pool_misses)),
           "ratio"},
          {"comm.pool_bytes_copied", static_cast<double>(o.d_pool_copied),
           "B"},
          {"mpi.send_us", span_us(pb::Kind::Send), "us"},
          {"mpi.wait_us", span_us(pb::Kind::Waitall), "us"},
          {"mpi.allreduce_us", span_us(pb::Kind::Allreduce), "us"},
          {"mpi.coll_leader_msgs_per_call",
           ratio(static_cast<double>(loc.get("coll_leader_msgs")),
                 static_cast<double>(o.coll_calls)),
           "count"},
          {"mpi.coll_shared_rendezvous_per_call",
           ratio(static_cast<double>(loc.get("coll_shared_rendezvous")),
                 static_cast<double>(o.coll_calls)),
           "count"},
          {"isomalloc.pages_dirty_per_ckpt",
           ratio(static_cast<double>(o.d_pages_dirty),
                 static_cast<double>(o.d_delta)),
           "count"},
          {"isomalloc.tracker_faults",
           ratio(static_cast<double>(o.d_tracker_faults),
                 static_cast<double>(o.ckpt_ms.size())),
           "count"},
          {"isomalloc.write_phase_ms", median(writes), "ms"},
          {"ft.ckpt_MB_full",
           ratio(static_cast<double>(o.d_bytes_full),
                 static_cast<double>(o.d_full)) / (1 << 20),
           "MB"},
          {"ft.ckpt_MB_delta",
           ratio(static_cast<double>(o.d_bytes_delta),
                 static_cast<double>(o.d_delta)) / (1 << 20),
           "MB"},
          {"ft.recovery_MB", median(recovery_mb), "MB"},
          {"lb.migrations", ratio(static_cast<double>(migrations), lb_calls),
           "count"},
          {"lb.migration_MB",
           ratio(static_cast<double>(migration_bytes), lb_calls) / (1 << 20),
           "MB"},
          {"lb.migrate_MB_per_s",
           ratio(static_cast<double>(migration_bytes) / (1 << 20),
                 o.lb_total_s),
           "MB/s"},
          {"trace.overhead_pct",
           100.0 * (ratio(traced_step, untraced_step) - 1.0), "%"},
          {"budget.interpe_send_us",
           ratio(static_cast<double>(o.pp_send.total_ns) * 1e-3,
                 static_cast<double>(o.pp_send.count)),
           "us"},
          {"budget.interpe_oneway_us", median(o.rtt_us) / 2, "us"},
          {"budget.allreduce_8B_us",
           ratio(static_cast<double>(o.ar_span.total_ns) * 1e-3,
                 static_cast<double>(o.ar_span.count)),
           "us"},
      };
      std::uint64_t self_total = 0;
      for (int l = 0; l < pb::kLayers; ++l)
        self_total += tracer.layer_self_ns(static_cast<pb::Layer>(l));
      for (int l = 0; l < pb::kLayers; ++l) {
        const auto layer_id = static_cast<pb::Layer>(l);
        layer.push_back(
            {std::string("self.") + pb::layer_name(layer_id) + "_pct",
             100.0 * ratio(static_cast<double>(tracer.layer_self_ns(layer_id)),
                           static_cast<double>(self_total)),
             "%"});
      }
      std::error_code ec;
      std::filesystem::create_directories(".bench_out", ec);
      const std::string path = ".bench_out/trace-" + spec.name + "-" +
                               std::to_string(seed) + ".json";
      if (!tracer.write_chrome(path, g_process_start_ns))
        std::fprintf(stderr, "could not write %s\n", path.c_str());
      else
        std::printf("# trace written to %s\n", path.c_str());
    }
    std::printf("# samples: pingpong %zu, checkpoints %zu, lb epochs %zu, "
                "recoveries %zu, steps %llu, stencil rounds %llu\n",
                o.rtt_us.size(), o.ckpt_ms.size(), o.lb_ms.size(),
                recover_ms.size(), static_cast<unsigned long long>(o.steps),
                static_cast<unsigned long long>(o.rounds));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }

  // Resolved settings, then the result as the last line.
  std::printf("# settings: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"pes\": %d, \"vps\": %d, "
              "\"method\": \"pieglobals\", \"code_bytes\": %zu",
              spec.name.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace ? 1 : 0, pb::kPes, spec.vps, spec.code_bytes);
  for (const auto& [key, value] : cfg.options.all())
    std::printf(", \"%s\": \"%s\"", key.c_str(), value.c_str());
  std::printf("}\n");

  const std::vector<Metric>& shown = trace ? layer : e2e;
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " +
          std::to_string(std::min<std::uint64_t>(checks.failed, attempted));
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < shown.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", shown[i].value);
    json += (i ? ", \"" : "\"") + shown[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + shown[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
