#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "graph/generators.hpp"

namespace perfbench {

namespace gen = lowtw::graph::gen;

namespace {

// Reference rates were set from latency-vs-load curves measured on a 4-vCPU
// VM: each sits well below saturation, and the grid runs from under it to
// far past saturation, so the highest passing step lies strictly inside.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> w(3);
    w[0].name = "road_uniform";
    w[0].traffic = Traffic::kUniform;
    w[0].graph_seed = 0x524f4144;
    w[0].reference_qps = 20000;

    w[1].name = "backbone_zipf";
    w[1].traffic = Traffic::kZipf;
    w[1].graph_seed = 0x4241434b;
    w[1].reference_qps = 20000;

    w[2].name = "depot_fanout";
    w[2].traffic = Traffic::kDepot;
    w[2].graph_seed = 0x524f4144;  // the road_uniform graph
    w[2].reference_qps = 40000;
    w[2].depots = 128;
    w[2].burst = 96;
    return w;
  }();
  return all;
}

}  // namespace

double WorkloadSpec::grid_rate(int i) const {
  return reference_qps * std::pow(1.05, i - kGridBelow);
}

const WorkloadSpec& find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

lowtw::graph::WeightedDigraph make_graph(const WorkloadSpec& spec) {
  lowtw::util::Rng rng(spec.graph_seed);
  if (spec.traffic == Traffic::kZipf) {
    // The routing_oracle ISP backbone: partial 3-tree, asymmetric latencies.
    lowtw::graph::Graph topo = gen::partial_ktree(8000, 3, 0.7, rng);
    return gen::random_orientation(topo, 0.9, 1, 100, rng);
  }
  // An 8-wide road strip: treewidth 8, hop diameter ~n/8, mostly two-way.
  lowtw::graph::Graph topo = gen::grid(8, 500);
  return gen::random_orientation(topo, 0.9, 1, 100, rng);
}

void write_dimacs_gr(const std::string& path,
                     const lowtw::graph::WeightedDigraph& g) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "c perfbench workload graph\n";
  os << "p sp " << g.num_vertices() << ' ' << g.num_arcs() << '\n';
  for (const lowtw::graph::Arc& a : g.arcs()) {
    os << "a " << a.tail + 1 << ' ' << a.head + 1 << ' ' << a.weight << '\n';
  }
  if (!os.flush()) throw std::runtime_error("write failed: " + path);
}

QueryStream::QueryStream(const WorkloadSpec& spec, int num_vertices,
                         std::uint64_t seed, Stream stream)
    : traffic_(spec.traffic),
      n_(num_vertices),
      burst_(spec.traffic == Traffic::kDepot ? spec.burst : 1),
      rng_(derive_seed(seed, static_cast<std::uint64_t>(stream))) {
  perm_.resize(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) perm_[static_cast<std::size_t>(i)] = i;
  lowtw::util::Rng perm_rng(seed);
  perm_rng.shuffle(perm_);
  if (traffic_ == Traffic::kZipf) {
    constexpr double kZipfS = 1.1;
    zipf_cdf_.resize(perm_.size());
    double sum = 0;
    for (std::size_t k = 0; k < perm_.size(); ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
      zipf_cdf_[k] = sum;
    }
    for (double& c : zipf_cdf_) c /= sum;
  }
  if (traffic_ == Traffic::kDepot) {
    if (spec.depots < 1 || spec.depots > n_ || burst_ < 1 || burst_ > n_) {
      throw std::invalid_argument("depot traffic does not fit the graph");
    }
    depots_.assign(perm_.begin(), perm_.begin() + spec.depots);
    used_.assign(perm_.size(), 0);
  }
}

VertexId QueryStream::zipf_draw() {
  const double x = rng_.next_double();
  const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), x);
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - zipf_cdf_.begin()), perm_.size() - 1);
  return perm_[rank];
}

void QueryStream::next_job(std::vector<Query>& out) {
  const auto n = static_cast<std::uint64_t>(n_);
  switch (traffic_) {
    case Traffic::kUniform:
      out.push_back({static_cast<VertexId>(rng_.next_below(n)),
                     static_cast<VertexId>(rng_.next_below(n))});
      return;
    case Traffic::kZipf: {
      const VertexId u = zipf_draw();
      out.push_back({u, zipf_draw()});
      return;
    }
    case Traffic::kDepot: {
      const VertexId depot = rng_.pick(depots_);
      const std::size_t first = out.size();
      while (out.size() - first < static_cast<std::size_t>(burst_)) {
        const auto t = static_cast<VertexId>(rng_.next_below(n));
        if (used_[static_cast<std::size_t>(t)] != 0) continue;
        used_[static_cast<std::size_t>(t)] = 1;
        out.push_back({depot, t});
      }
      for (std::size_t i = first; i < out.size(); ++i) {
        used_[static_cast<std::size_t>(out[i].v)] = 0;
      }
      return;
    }
  }
}

Schedule make_schedule(QueryStream& stream, lowtw::util::Rng& arrivals,
                       double qps, double seconds) {
  Schedule s;
  const double jobs_per_s = qps / stream.queries_per_job();
  const double horizon_ns = seconds * 1e9;
  double t_ns = 0;
  for (;;) {
    // Exponential inter-arrival gap; 1 - u lies in (0, 1], so log is finite.
    t_ns += -std::log(1.0 - arrivals.next_double()) / jobs_per_s * 1e9;
    if (t_ns >= horizon_ns) break;
    s.job_offset_ns.push_back(static_cast<std::int64_t>(t_ns));
    s.job_begin.push_back(static_cast<std::uint32_t>(s.queries.size()));
    stream.next_job(s.queries);
  }
  return s;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  lowtw::util::SplitMix64 mix(seed ^ (0xa5a5a5a5ULL + salt * 0x9e3779b9ULL));
  return mix.next();
}

std::uint64_t arrival_seed(std::uint64_t seed, std::uint64_t phase) {
  return derive_seed(seed, 0x1000 + phase);
}

}  // namespace perfbench
