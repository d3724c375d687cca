#include "trace.hpp"

#include <cstdio>

namespace pb {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Setup: return "setup";
    case Kind::Period: return "period";
    case Kind::Kernel: return "kernel_sweep";
    case Kind::HeapWrite: return "heap_writes";
    case Kind::Send: return "send";
    case Kind::Irecv: return "irecv";
    case Kind::Waitall: return "waitall";
    case Kind::Allreduce: return "allreduce";
    case Kind::Barrier: return "barrier";
    case Kind::Checkpoint: return "checkpoint_all";
    case Kind::LoadBalance: return "load_balance";
    case Kind::kCount: break;
  }
  return "?";
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::Bench: return "bench";
    case Layer::Core: return "core";
    case Layer::Apps: return "apps";
    case Layer::Isomalloc: return "isomalloc";
    case Layer::P2p: return "mpi_p2p";
    case Layer::Coll: return "mpi_coll";
    case Layer::Ft: return "ft";
    case Layer::Lb: return "lb";
    case Layer::kCount: break;
  }
  return "?";
}

Layer layer_of(Kind k) {
  switch (k) {
    case Kind::Setup: return Layer::Core;
    case Kind::Period: return Layer::Bench;
    case Kind::Kernel: return Layer::Apps;
    case Kind::HeapWrite: return Layer::Isomalloc;
    case Kind::Send:
    case Kind::Irecv:
    case Kind::Waitall: return Layer::P2p;
    case Kind::Allreduce:
    case Kind::Barrier: return Layer::Coll;
    case Kind::Checkpoint: return Layer::Ft;
    case Kind::LoadBalance: return Layer::Lb;
    case Kind::kCount: break;
  }
  return Layer::Bench;
}

void Tracer::init(int ranks, std::size_t cap) {
  lanes_ = std::vector<Lane>(static_cast<std::size_t>(ranks) + 1);
  for (Lane& l : lanes_) {
    l.cap = cap;
    l.spans.reserve(cap);
  }
}

KindTotals Tracer::totals(Kind k) const {
  KindTotals t;
  for (const Lane& l : lanes_) {
    const KindTotals& x = l.totals[static_cast<int>(k)];
    t.count += x.count;
    t.total_ns += x.total_ns;
    t.self_ns += x.self_ns;
  }
  return t;
}

std::uint64_t Tracer::layer_self_ns(Layer layer) const {
  std::uint64_t ns = 0;
  for (int k = 0; k < kKinds; ++k) {
    if (layer_of(static_cast<Kind>(k)) == layer)
      ns += totals(static_cast<Kind>(k)).self_ns;
  }
  return ns;
}

bool Tracer::write_chrome(const std::string& path,
                          std::uint64_t epoch_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    for (const Lane::Rec& s : lanes_[r].spans) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                   "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%u,\"parent\":%u}}",
                   first ? "" : ",\n", kind_name(s.kind),
                   layer_name(layer_of(s.kind)), r,
                   static_cast<double>(s.t0 - epoch_ns) * 1e-3,
                   static_cast<double>(s.t1 - s.t0) * 1e-3, s.id, s.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace pb
