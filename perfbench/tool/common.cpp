#include "common.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

void sleep_until_ns(std::int64_t t_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_ns / 1000000000LL);
  ts.tv_nsec = static_cast<long>(t_ns % 1000000000LL);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

LatencySummary summarize(std::vector<double> lat_us) {
  LatencySummary s;
  s.samples = lat_us.size();
  std::sort(lat_us.begin(), lat_us.end());
  s.p50_us = percentile(lat_us, 50);
  s.p90_us = percentile(lat_us, 90);
  s.p99_us = percentile(lat_us, 99);
  for (double p : {90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(s.samples) * (100.0 - p) / 100.0 >= 10.0) {
      s.tail_pct = p;
    }
  }
  s.tail_us = percentile(lat_us, s.tail_pct);
  return s;
}

ProcCpu read_proc_cpu(int pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(is, line);
  ProcCpu cpu;
  // The command name may contain spaces; fields resume after the last ')'.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return cpu;
  std::istringstream fields(line.substr(close + 2));
  std::string tok;
  // Field 3 (state) is the first token here; utime and stime are 14 and 15.
  for (int field = 3; field <= 15 && (fields >> tok); ++field) {
    if (field == 14) cpu.utime = std::stoll(tok);
    if (field == 15) cpu.stime = std::stoll(tok);
  }
  return cpu;
}

std::int64_t read_steal_ticks() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  std::int64_t v[8] = {};
  is >> cpu;
  for (std::int64_t& x : v) is >> x;
  return v[7];
}

std::int64_t read_status_field(int pid, const std::string& field) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0) {
      return std::stoll(line.substr(field.size() + 1));
    }
  }
  return -1;
}

double clock_ticks_per_s() { return static_cast<double>(sysconf(_SC_CLK_TCK)); }

std::map<std::string, double> parse_stats_line(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) continue;
    try {
      std::size_t used = 0;
      const double v = std::stod(tok.substr(eq + 1), &used);
      if (used == tok.size() - eq - 1) out[tok.substr(0, eq)] = v;
    } catch (const std::exception&) {
      // Non-numeric field (e.g. snapshot=mmapped): not a counter.
    }
  }
  return out;
}

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += k;
  body_ += "\":";
}

void Json::number(double value) {
  if (!std::isfinite(value)) {
    body_ += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
}

Json& Json::num(const std::string& k, double value) {
  key(k);
  number(value);
  return *this;
}

Json& Json::nums(const std::string& k, const std::vector<double>& values) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ',';
    number(values[i]);
  }
  body_ += ']';
  return *this;
}

Json& Json::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += c;
  }
  body_ += '"';
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace perfbench
