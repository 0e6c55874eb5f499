// The benchmark's workloads: one fixed graph each plus a seeded query stream,
// shared by the open-loop daemon client (loadgen.cpp) and the traced
// in-process replay (replay.cpp) so that both see exactly the same inputs.
//
// The graph of a workload is part of its definition (like a road network
// file a deployment serves) and is generated from a fixed graph seed, so the
// CONGEST round count is a constant that can be checked exactly. The
// benchmark seed draws everything the traffic is made of: origin-destination
// pairs, the Zipf vertex permutation, the depot set, and Poisson arrivals.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace perfbench {

using lowtw::graph::VertexId;
using lowtw::graph::Weight;

enum class Traffic { kUniform, kZipf, kDepot };

/// Fixed rate grid of max_rate_at_slo: step i offers
/// reference_qps · 1.05^(i − kGridBelow), so step kGridBelow is the
/// reference rate and the grid runs from ~0.25× to ~50× of it.
inline constexpr int kGridBelow = 28;
inline constexpr int kGridAbove = 80;
inline constexpr int kGridSteps = kGridBelow + kGridAbove + 1;
/// p90 limit of max_rate_at_slo, microseconds from the intended send time.
inline constexpr double kSloUs = 10000;

struct WorkloadSpec {
  std::string name;
  Traffic traffic = Traffic::kUniform;
  /// Fixed seed of the graph generator (never the benchmark seed).
  std::uint64_t graph_seed = 0;
  /// Offered load of the latency and CPU phases, queries per second.
  double reference_qps = 0;
  /// Depot traffic only: depot set size and distinct targets per job.
  int depots = 0;
  int burst = 1;

  /// Offered rate of grid step i.
  double grid_rate(int i) const;
};

/// Looks a workload up by name; throws std::invalid_argument when unknown.
const WorkloadSpec& find_workload(std::string_view name);

/// The workload's graph, generated from its fixed graph seed.
lowtw::graph::WeightedDigraph make_graph(const WorkloadSpec& spec);

/// Writes `g` as a 9th-DIMACS-Challenge .gr file (1-based ids).
void write_dimacs_gr(const std::string& path,
                     const lowtw::graph::WeightedDigraph& g);

struct Query {
  VertexId u = 0;
  VertexId v = 0;
};

/// Independent pair streams of one seed: the reference phases (and the
/// replay of them), the sweep steps, and the PING phase's job shapes.
enum class Stream : std::uint64_t { kReference = 1, kSweep = 2, kPing = 3 };

/// A continuing query stream of one workload and seed. Phases draw their
/// pairs from a stream in turn, so no two phases replay the same pairs. The
/// Zipf permutation and the depot set depend on the seed alone, so every
/// stream of a seed shares them. A job is the unit the client sends at one
/// instant: one pair, or for depot traffic one depot with `burst` distinct
/// targets.
class QueryStream {
 public:
  QueryStream(const WorkloadSpec& spec, int num_vertices, std::uint64_t seed,
              Stream stream);
  /// Appends the next job's queries to `out`.
  void next_job(std::vector<Query>& out);
  int queries_per_job() const { return burst_; }

 private:
  VertexId zipf_draw();

  Traffic traffic_;
  int n_;
  int burst_;
  lowtw::util::Rng rng_;
  std::vector<VertexId> perm_;     ///< Zipf rank -> vertex
  std::vector<double> zipf_cdf_;   ///< cumulative rank weights, last = 1
  std::vector<VertexId> depots_;
  std::vector<char> used_;         ///< burst target dedup scratch
};

/// One open-loop phase: jobs with intended offsets from the phase start,
/// arriving as a Poisson process whose query rate is `qps`.
struct Schedule {
  std::vector<std::int64_t> job_offset_ns;
  std::vector<std::uint32_t> job_begin;  ///< first query of each job
  std::vector<Query> queries;
  std::size_t num_jobs() const { return job_offset_ns.size(); }
  std::size_t job_end(std::size_t j) const {
    return j + 1 < job_begin.size() ? job_begin[j + 1] : queries.size();
  }
};

/// Draws `seconds` worth of Poisson job arrivals at `qps` queries per second
/// from `arrivals`, with each job's queries taken from `stream`.
Schedule make_schedule(QueryStream& stream, lowtw::util::Rng& arrivals,
                       double qps, double seconds);

/// Seed of the arrival process of phase `phase` (independent of the pairs).
std::uint64_t arrival_seed(std::uint64_t seed, std::uint64_t phase);
/// Seed derived from `seed` for purpose `salt` (streams, checks).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
