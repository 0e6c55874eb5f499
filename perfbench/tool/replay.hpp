// The traced run's in-process replay: the daemon's build and serving path
// called layer by layer on the same .gr file and the same warm-up and
// reference schedules the daemon client sends, with a span around each
// public call. Spans are kept in memory and written out when the replay
// ends.
#pragma once

#include <cstdint>
#include <string>

#include "workload.hpp"

namespace perfbench {

/// oracle_daemon's --seed default: the seed of the build whose rounds are
/// the congest_rounds metric.
inline constexpr std::uint64_t kDaemonSeed = 7;

/// Builds the workload's labeling with the daemon's seed and returns
/// {"total": rounds, "by_tag": {...}} from Solver::report().
std::string rounds_json(const std::string& graph_path);

struct ReplayOptions {
  std::string graph_path;
  std::string image_path;  ///< written by the replay, then loaded
  std::string spans_path;  ///< span log written at exit
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< the run budget the daemon client used
};

/// Runs the replay and returns its per-layer numbers as JSON.
std::string run_replay(const ReplayOptions& options);

}  // namespace perfbench
