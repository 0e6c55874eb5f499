// Small helpers shared by the benchmark tool: the monotonic clock, exact
// percentiles, /proc readers and a flat JSON object writer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds (the clock std::chrono::steady_clock and
/// Python's time.monotonic() read on Linux).
std::int64_t now_ns();
/// Sleeps until the absolute CLOCK_MONOTONIC time `t_ns`.
void sleep_until_ns(std::int64_t t_ns);

/// Exact percentile (nearest rank) of `sorted`; `p` in [0, 100].
double percentile(const std::vector<double>& sorted, double p);

/// Exact percentiles of a phase's latencies (or of several phases pooled),
/// misses counted as +inf, with the highest percentile the sample supports
/// (at least ten samples beyond it).
struct LatencySummary {
  std::size_t samples = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double tail_pct = 50;
  double tail_us = 0;
};
LatencySummary summarize(std::vector<double> lat_us);

/// Host CPU steal decides which measurements count. On a shared VM the host
/// steals CPU in spells, and a stolen vCPU stalls every thread hop of a
/// request. A measured span (a daemon start, a reference chunk) is calm
/// when the host stole at most one tick of rounding plus kCalmStealPerS
/// ticks per second of it, summed over all CPUs (about 1 % of a 4-vCPU
/// host; an idle shared 4-vCPU VM stole under one tick a second).
inline constexpr double kCalmStealPerS = 4;
inline bool is_calm(std::int64_t steal_ticks, double seconds) {
  return static_cast<double>(steal_ticks) <= 1 + kCalmStealPerS * seconds;
}

struct ProcCpu {
  std::int64_t utime = 0;  ///< clock ticks
  std::int64_t stime = 0;
};
ProcCpu read_proc_cpu(int pid);
/// The `steal` column of the aggregate cpu line of /proc/stat, in ticks.
std::int64_t read_steal_ticks();
/// A numeric field of /proc/<pid>/status (e.g. "Threads", "VmHWM").
std::int64_t read_status_field(int pid, const std::string& field);
double clock_ticks_per_s();

/// Parses "STATS k=v k=v ..." into its numeric fields.
std::map<std::string, double> parse_stats_line(const std::string& line);

/// Builds one flat-or-nested JSON object in insertion order.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& nums(const std::string& key, const std::vector<double>& values);
  Json& str(const std::string& key, const std::string& value);
  Json& raw(const std::string& key, const std::string& json);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  void number(double value);
  std::string body_;
};

}  // namespace perfbench
