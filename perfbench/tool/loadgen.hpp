// Open-loop client for oracle_daemon's unix-socket protocol.
//
// One process, two threads (the sender is the calling thread, one receiver
// thread) and two connections. Jobs arrive as a Poisson process at the
// phase's offered rate and are sent at their intended times whether or not
// earlier replies have come back; every latency is timed from the intended
// send time, so a stall of the daemon or of the sender itself is charged to
// every request it delays. Each Q frame names a deadline far above any SLO,
// so queueing alone never turns into a timeout verdict. Replies other than
// `A <id> ok ...` (overload, timeout, shutdown, failed, `E <reason>`) and
// requests never answered count as misses.
//
// Phases, in order: a warm-up at the workload's reference rate, a PING
// phase on the same schedule shape (the bare wire round trip), then a search
// over the fixed rate grid for the highest step that meets the SLO, with
// reference chunks run between its steps. Chunks and steps during which the
// host stole CPU (see is_calm) are measured again. After every phase a
// seeded sample of the answers, grouped by source, is checked against
// Dijkstra.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "workload.hpp"

namespace perfbench {

struct LoadOptions {
  std::string socket_path;
  const WorkloadSpec* spec = nullptr;
  const lowtw::graph::WeightedDigraph* graph = nullptr;
  std::uint64_t seed = 1;
  int daemon_pid = 0;
  /// Measuring budget; phase lengths are fixed shares of it.
  double seconds = 10;
};

/// Runs every phase and returns the JSON report. Throws std::runtime_error
/// when the daemon cannot be reached.
std::string run_load(const LoadOptions& options);

/// The reference rate is measured in chunks run between sweep steps. Host
/// steal comes in bursts shorter than 50 ms, so the sender also reads the
/// steal counter at every kStealWindowSeconds boundary of a phase, and a
/// window is clean when neither it nor the window before it saw a steal
/// tick. Chunks run until kCleanWindows clean windows are in or
/// kMaxReferenceChunks chunks have run; p50 and p90 pool the requests due in
/// the clean windows (in the kMinCleanWindows least stolen ones when fewer
/// were clean). CPU per query and the STATS deltas, which are read per
/// chunk, come from the calm chunks (see select_chunks). The traced replay
/// serves the warm-up and chunks on the same schedules, selecting chunks.
inline constexpr double kStealWindowSeconds = 0.05;
inline constexpr int kCleanWindows = 48;
inline constexpr int kMinCleanWindows = 12;
inline constexpr int kCalmChunks = 4;
inline constexpr int kMaxReferenceChunks = 10;

/// The chunks the reference numbers come from, in run order: the calm ones
/// when there are kCalmChunks of them, else the kCalmChunks with the least
/// steal (earliest first among equals).
std::vector<int> select_chunks(const std::vector<std::int64_t>& steal_ticks,
                               double chunk_seconds);

/// Phase lengths as shares of the measuring budget.
inline double warmup_seconds(double budget) { return 0.1 * budget; }
inline double reference_chunk_seconds(double budget) { return 0.05 * budget; }
inline double ping_seconds(double budget) { return 0.05 * budget; }
inline double sweep_step_seconds(double budget) { return 0.05 * budget; }

/// Arrival-process phase numbers (see arrival_seed).
inline constexpr std::uint64_t kWarmupPhase = 0;
inline constexpr std::uint64_t kPingPhase = 1;
inline constexpr std::uint64_t kFirstReferencePhase = 2;
inline constexpr std::uint64_t kFirstSweepPhase = 100;

}  // namespace perfbench
