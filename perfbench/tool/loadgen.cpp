#include "loadgen.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "common.hpp"
#include "graph/algorithms.hpp"

namespace perfbench {

namespace {

using lowtw::graph::kInfinity;

/// Deadline named in every Q frame: far above every SLO, so a steal stall
/// delays an answer instead of failing it.
constexpr std::int64_t kDeadlineUs = 1000000;
constexpr int kConns = 2;
/// A send that leaves more than this after its intended time is late.
constexpr double kLateUs = 100;
/// How long the client waits for the last replies after the last send.
constexpr std::int64_t kDrainNs = 5000000000LL;
constexpr std::int64_t kWindowNs =
    static_cast<std::int64_t>(kStealWindowSeconds * 1e9);
/// Distinct sources whose answers are checked against Dijkstra per phase.
constexpr std::size_t kCheckedSources = 16;
/// Single tries of the staircase that walks the capacity boundary.
constexpr int kStaircaseTries = 6;
/// Failing sweep tries run again because the host stole CPU during them,
/// per run.
constexpr int kMaxStealRetries = 8;
/// Clean steal windows a sweep try needs to be judged on them alone.
constexpr int kMinCleanStepWindows = 3;

/// kOther: shutdown, failed, or a verdict this client does not know.
enum class Reply : std::uint8_t { kNone, kOk, kOverload, kTimeout, kOther };

Reply parse_status(std::string_view s) {
  if (s == "ok") return Reply::kOk;
  if (s == "overload") return Reply::kOverload;
  if (s == "timeout") return Reply::kTimeout;
  return Reply::kOther;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path);
  }
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      throw std::runtime_error("daemon connection lost while sending");
    }
  }
}

std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    if (j > i) toks.push_back(line.substr(i, j - i));
    i = j;
  }
  return toks;
}

template <typename T>
bool parse_num(std::string_view s, T& out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// One open-loop phase: its schedule, and what came back.
struct Phase {
  std::string name;
  bool ping = false;
  double qps = 0;
  double seconds = 0;
  Schedule sched;
  std::uint64_t id_base = 0;
  std::int64_t t0 = 0;
  std::vector<std::int64_t> send_ns;  ///< per job
  std::vector<std::int64_t> recv_ns;  ///< per query, -1 when unanswered
  std::vector<Reply> reply;
  std::vector<Weight> dist;
  std::uint64_t errors = 0;      ///< `E <reason>` frames
  std::uint64_t bad_frames = 0;  ///< replies the client could not parse
  std::uint64_t stale = 0;       ///< replies to an earlier phase's requests
  /// PING phases: query indices in the order they went out on each
  /// connection (PONG carries no id, so replies match in FIFO order).
  std::vector<std::uint32_t> ping_order[kConns];
  /// Host steal counter read at each window boundary t0 + k·kWindowNs,
  /// k = 0..num_windows(), by the sender when it first passes the boundary.
  std::vector<std::int64_t> steal_at;

  std::size_t num_windows() const {
    return static_cast<std::size_t>(std::ceil(seconds * 1e9 / kWindowNs));
  }
  std::size_t window_of(std::size_t job) const {
    const auto k =
        static_cast<std::size_t>(sched.job_offset_ns[job] / kWindowNs);
    return std::min(num_windows() - 1, k);
  }
  /// Reads the steal counter for every window boundary passed by `now`, or
  /// for all of them when `last`.
  void note_steal(std::int64_t now, bool last = false) {
    const std::size_t due =
        last ? num_windows() + 1
             : std::min(num_windows() + 1,
                        static_cast<std::size_t>(std::max<std::int64_t>(
                            0, (now - t0) / kWindowNs + 1)));
    if (steal_at.size() < due) steal_at.resize(due, read_steal_ticks());
  }
};

int conn_of_job(std::size_t job) { return static_cast<int>(job % kConns); }

class Receiver {
 public:
  Receiver(Phase& ph, const int* fds) : ph_(ph), fds_(fds) {}

  void run() {
    const std::size_t expected = ph_.sched.queries.size();
    std::string buf[kConns];
    std::size_t pongs[kConns] = {0, 0};
    std::size_t got = 0;
    char chunk[1 << 16];
    while (got < expected && !stop_.load(std::memory_order_acquire)) {
      pollfd pfd[kConns];
      for (int c = 0; c < kConns; ++c) pfd[c] = {fds_[c], POLLIN, 0};
      const timespec wait{0, 5000000};
      if (::ppoll(pfd, kConns, &wait, nullptr) <= 0) continue;
      for (int c = 0; c < kConns; ++c) {
        if ((pfd[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t n = ::read(fds_[c], chunk, sizeof(chunk));
        if (n <= 0) {
          lost_.store(true, std::memory_order_release);
          done_.store(true, std::memory_order_release);
          return;
        }
        const std::int64_t t = now_ns();
        buf[c].append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (;;) {
          const std::size_t nl = buf[c].find('\n', start);
          if (nl == std::string::npos) break;
          got += handle_line(std::string_view(buf[c]).substr(start, nl - start),
                             c, t, pongs);
          start = nl + 1;
        }
        buf[c].erase(0, start);
      }
    }
    done_.store(true, std::memory_order_release);
  }

  void stop() { stop_.store(true, std::memory_order_release); }
  bool done() const { return done_.load(std::memory_order_acquire); }
  bool lost() const { return lost_.load(std::memory_order_acquire); }

 private:
  /// Returns how many requests the line settles (0 or 1).
  std::size_t handle_line(std::string_view line, int conn, std::int64_t t,
                          std::size_t* pongs) {
    if (line == "PONG") {
      if (pongs[conn] >= ph_.ping_order[conn].size()) {
        ++ph_.bad_frames;
        return 0;
      }
      const std::uint32_t q = ph_.ping_order[conn][pongs[conn]++];
      ph_.reply[q] = Reply::kOk;
      ph_.recv_ns[q] = t;
      return 1;
    }
    if (line.size() >= 2 && line[0] == 'E' && line[1] == ' ') {
      // A rejected frame carries no id: its request stays unanswered (a
      // miss), but it is settled as far as waiting goes.
      ++ph_.errors;
      return 1;
    }
    const std::vector<std::string_view> toks = split(line);
    std::uint64_t id = 0;
    if (toks.size() < 4 || toks[0] != "A" || !parse_num(toks[1], id) ||
        id - ph_.id_base >= ph_.reply.size()) {
      if (id != 0 && id < ph_.id_base) {
        ++ph_.stale;  // answered after its own phase gave up waiting
      } else {
        ++ph_.bad_frames;
      }
      return 0;
    }
    const std::size_t q = id - ph_.id_base;
    if (ph_.reply[q] != Reply::kNone) {
      ++ph_.bad_frames;  // a second answer for one request
      return 0;
    }
    const Reply r = parse_status(toks[2]);
    if (r == Reply::kOk) {
      Weight d = kInfinity;
      if (toks.size() != 6 || (toks[4] != "inf" && !parse_num(toks[4], d))) {
        ++ph_.bad_frames;
        return 0;
      }
      ph_.dist[q] = d;
    }
    ph_.reply[q] = r;
    ph_.recv_ns[q] = t;
    return 1;
  }

  Phase& ph_;
  const int* fds_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::atomic<bool> lost_{false};
};

/// Sends the phase's jobs at their intended times: every job due by now
/// goes out in one write per connection.
void send_phase(Phase& ph, const int* fds) {
  std::string out[kConns];
  const std::size_t jobs = ph.sched.num_jobs();
  char frame[96];
  std::size_t j = 0;
  while (j < jobs) {
    const std::int64_t due = ph.t0 + ph.sched.job_offset_ns[j];
    std::int64_t now = now_ns();
    if (now < due) {
      sleep_until_ns(due);
      now = now_ns();
    }
    ph.note_steal(now);
    for (std::string& o : out) o.clear();
    while (j < jobs && ph.t0 + ph.sched.job_offset_ns[j] <= now) {
      std::string& o = out[conn_of_job(j)];
      for (std::size_t q = ph.sched.job_begin[j]; q < ph.sched.job_end(j);
           ++q) {
        if (ph.ping) {
          o += "PING\n";
          continue;
        }
        const Query& qq = ph.sched.queries[q];
        const int len = std::snprintf(
            frame, sizeof(frame), "Q %llu %d %d %lld\n",
            static_cast<unsigned long long>(ph.id_base + q), qq.u, qq.v,
            static_cast<long long>(kDeadlineUs));
        o.append(frame, static_cast<std::size_t>(len));
      }
      ph.send_ns[j] = now;
      ++j;
    }
    for (int c = 0; c < kConns; ++c) {
      if (!out[c].empty()) send_all(fds[c], out[c]);
    }
  }
}

struct PhaseReport {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t overload = 0;
  std::uint64_t timeout = 0;
  std::uint64_t other = 0;  ///< shutdown / failed / unknown verdicts
  std::uint64_t missing = 0;
  std::uint64_t errors = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t stale = 0;
  std::vector<double> lat_us;  ///< per query; misses read as +inf
  std::vector<std::uint32_t> window;  ///< per query: its steal window
  /// Per window: host steal over it and the window before it.
  std::vector<std::int64_t> window_steal;
  LatencySummary lat;
  /// p90 over the queries due in the last third of the phase: a backlog
  /// that keeps growing pushes it over the SLO.
  double last_third_p90_us = 0;
  /// Windows during which neither it nor the window before it saw steal,
  /// and the two p90s over the queries due in them alone.
  int clean_windows = 0;
  double clean_p90_us = 0;
  double clean_last_third_p90_us = 0;
  double max_late_us = 0;
  std::uint64_t jobs = 0;
  std::uint64_t late_jobs = 0;
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::int64_t steal_ticks = 0;  ///< host steal while the phase ran

  /// Pools `r` into this report (its latencies, counts and steal).
  void pool(const PhaseReport& r) {
    sent += r.sent;
    ok += r.ok;
    overload += r.overload;
    timeout += r.timeout;
    other += r.other;
    missing += r.missing;
    errors += r.errors;
    bad_frames += r.bad_frames;
    stale += r.stale;
    lat_us.insert(lat_us.end(), r.lat_us.begin(), r.lat_us.end());
    max_late_us = std::max(max_late_us, r.max_late_us);
    jobs += r.jobs;
    late_jobs += r.late_jobs;
    checked += r.checked;
    mismatches += r.mismatches;
    steal_ticks += r.steal_ticks;
  }
};

PhaseReport analyse(const Phase& ph) {
  PhaseReport r;
  const std::size_t nq = ph.sched.queries.size();
  r.sent = nq;
  r.errors = ph.errors;
  r.bad_frames = ph.bad_frames;
  r.stale = ph.stale;
  r.jobs = ph.sched.num_jobs();
  r.lat_us.reserve(nq);
  r.window.reserve(nq);
  const std::size_t windows = ph.num_windows();
  r.window_steal.resize(windows);
  for (std::size_t k = 0; k < windows; ++k) {
    r.window_steal[k] = ph.steal_at[k + 1] - ph.steal_at[k == 0 ? 0 : k - 1];
  }
  for (std::int64_t w : r.window_steal) r.clean_windows += w == 0 ? 1 : 0;
  std::vector<double> last_third;
  std::vector<double> clean;
  std::vector<double> clean_last_third;
  const double last_third_from_ns = ph.seconds * 1e9 * 2 / 3;
  for (std::size_t j = 0; j < ph.sched.num_jobs(); ++j) {
    const std::int64_t intended = ph.t0 + ph.sched.job_offset_ns[j];
    const double late_us = static_cast<double>(ph.send_ns[j] - intended) / 1e3;
    r.max_late_us = std::max(r.max_late_us, late_us);
    if (late_us > kLateUs) ++r.late_jobs;
    const bool late_in_phase =
        static_cast<double>(ph.sched.job_offset_ns[j]) >= last_third_from_ns;
    const auto window = static_cast<std::uint32_t>(ph.window_of(j));
    const bool in_clean = r.window_steal[window] == 0;
    for (std::size_t q = ph.sched.job_begin[j]; q < ph.sched.job_end(j); ++q) {
      switch (ph.reply[q]) {
        case Reply::kOk:
          ++r.ok;
          break;
        case Reply::kOverload:
          ++r.overload;
          break;
        case Reply::kTimeout:
          ++r.timeout;
          break;
        case Reply::kNone:
          ++r.missing;
          break;
        default:
          ++r.other;
      }
      const double lat =
          ph.reply[q] == Reply::kOk
              ? static_cast<double>(ph.recv_ns[q] - intended) / 1e3
              : std::numeric_limits<double>::infinity();
      r.lat_us.push_back(lat);
      r.window.push_back(window);
      if (late_in_phase) last_third.push_back(lat);
      if (in_clean) clean.push_back(lat);
      if (in_clean && late_in_phase) clean_last_third.push_back(lat);
    }
  }
  r.lat = summarize(r.lat_us);
  r.last_third_p90_us = summarize(std::move(last_third)).p90_us;
  r.clean_p90_us = summarize(std::move(clean)).p90_us;
  r.clean_last_third_p90_us =
      clean_last_third.empty() ? r.last_third_p90_us
                               : summarize(std::move(clean_last_third)).p90_us;
  return r;
}

/// Checks every answer of up to kCheckedSources sampled sources against
/// Dijkstra from that source.
void check_answers(const Phase& ph, const lowtw::graph::WeightedDigraph& g,
                   lowtw::util::Rng& rng, PhaseReport& r) {
  std::vector<std::uint32_t> ok;
  for (std::size_t q = 0; q < ph.reply.size(); ++q) {
    if (ph.reply[q] == Reply::kOk) ok.push_back(static_cast<std::uint32_t>(q));
  }
  if (ok.empty()) return;
  std::vector<char> chosen(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<VertexId> sources;
  for (int attempt = 0;
       attempt < 64 && sources.size() < kCheckedSources; ++attempt) {
    const VertexId u = ph.sched.queries[ok[rng.next_below(ok.size())]].u;
    if (chosen[static_cast<std::size_t>(u)] == 0) {
      chosen[static_cast<std::size_t>(u)] = 1;
      sources.push_back(u);
    }
  }
  for (VertexId u : sources) {
    const lowtw::graph::SpResult sp = lowtw::graph::dijkstra(g, u);
    for (std::uint32_t q : ok) {
      const Query& qq = ph.sched.queries[q];
      if (qq.u != u) continue;
      const Weight want = sp.dist[static_cast<std::size_t>(qq.v)];
      const Weight got = ph.dist[q];
      const bool same = want >= kInfinity ? got >= kInfinity : got == want;
      ++r.checked;
      if (!same) ++r.mismatches;
    }
  }
}

class Client {
 public:
  explicit Client(const std::string& socket_path) {
    for (int c = 0; c < kConns; ++c) fds_[c] = connect_unix(socket_path);
  }
  ~Client() {
    for (int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Runs one phase to completion (all replies in, or the drain expired).
  /// `probe` runs on this thread while the receiver is live, right after
  /// the last send.
  template <typename Probe>
  void run(Phase& ph, Probe&& probe) {
    const std::size_t nq = ph.sched.queries.size();
    ph.send_ns.assign(ph.sched.num_jobs(), 0);
    ph.recv_ns.assign(nq, -1);
    ph.reply.assign(nq, Reply::kNone);
    ph.dist.assign(nq, kInfinity);
    if (ph.ping) {
      for (std::size_t j = 0; j < ph.sched.num_jobs(); ++j) {
        for (std::size_t q = ph.sched.job_begin[j]; q < ph.sched.job_end(j);
             ++q) {
          ph.ping_order[conn_of_job(j)].push_back(
              static_cast<std::uint32_t>(q));
        }
      }
    }
    ph.id_base = next_id_;
    next_id_ += nq;
    Receiver rx(ph, fds_);
    std::thread thread([&rx] { rx.run(); });
    ph.t0 = now_ns() + 2000000;  // the first send is never late by setup
    try {
      send_phase(ph, fds_);
    } catch (...) {
      rx.stop();
      thread.join();
      throw;
    }
    ph.note_steal(now_ns(), /*last=*/true);
    probe();
    const std::int64_t give_up = now_ns() + kDrainNs;
    while (!rx.done() && now_ns() < give_up) sleep_until_ns(now_ns() + 1000000);
    rx.stop();
    thread.join();
    if (rx.lost()) throw std::runtime_error("daemon closed the connection");
  }

  std::map<std::string, double> stats() {
    send_all(fds_[0], "STATS\n");
    std::string line;
    char c = 0;
    for (;;) {
      const ssize_t n = ::read(fds_[0], &c, 1);
      if (n <= 0) throw std::runtime_error("STATS: connection lost");
      if (c != '\n') {
        line += c;
        continue;
      }
      if (line.rfind("STATS ", 0) == 0) return parse_stats_line(line);
      line.clear();  // a straggling reply of a drained phase
    }
  }

 private:
  int fds_[kConns] = {-1, -1};
  std::uint64_t next_id_ = 1;
};

Json report_json(const std::string& name, double qps, double seconds,
                 const PhaseReport& r) {
  Json j;
  j.str("name", name)
      .num("qps", qps)
      .num("seconds", seconds)
      .num("sent", static_cast<double>(r.sent))
      .num("ok", static_cast<double>(r.ok))
      .num("overload", static_cast<double>(r.overload))
      .num("timeout", static_cast<double>(r.timeout))
      .num("other", static_cast<double>(r.other))
      .num("missing", static_cast<double>(r.missing))
      .num("errors", static_cast<double>(r.errors))
      .num("bad_frames", static_cast<double>(r.bad_frames))
      .num("stale", static_cast<double>(r.stale))
      .num("p50_us", r.lat.p50_us)
      .num("p90_us", r.lat.p90_us)
      .num("p99_us", r.lat.p99_us)
      .num("tail_pct", r.lat.tail_pct)
      .num("tail_us", r.lat.tail_us)
      .num("last_third_p90_us", r.last_third_p90_us)
      .num("clean_windows", r.clean_windows)
      .num("clean_p90_us", r.clean_p90_us)
      .num("max_late_us", r.max_late_us)
      .num("late_frac", r.jobs == 0 ? 0
                                    : static_cast<double>(r.late_jobs) /
                                          static_cast<double>(r.jobs))
      .num("steal_ticks", static_cast<double>(r.steal_ticks))
      .num("checked", static_cast<double>(r.checked))
      .num("mismatches", static_cast<double>(r.mismatches));
  return j;
}

/// The verdict of one try of a sweep step.
struct StepTry {
  int step = 0;
  bool pass = false;
};

}  // namespace

std::vector<int> select_chunks(const std::vector<std::int64_t>& steal_ticks,
                               double chunk_seconds) {
  std::vector<int> order(steal_ticks.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::vector<int> calm;
  for (int c : order) {
    if (is_calm(steal_ticks[static_cast<std::size_t>(c)], chunk_seconds)) {
      calm.push_back(c);
    }
  }
  if (calm.size() >= static_cast<std::size_t>(kCalmChunks)) return calm;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return steal_ticks[static_cast<std::size_t>(a)] <
           steal_ticks[static_cast<std::size_t>(b)];
  });
  order.resize(std::min<std::size_t>(order.size(), kCalmChunks));
  std::sort(order.begin(), order.end());
  return order;
}

std::string run_load(const LoadOptions& opt) {
  const WorkloadSpec& spec = *opt.spec;
  const lowtw::graph::WeightedDigraph& g = *opt.graph;
  const int n = g.num_vertices();
  // Wake-ups at the intended send times, not up to 50 us after them.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Client client(opt.socket_path);
  QueryStream ref_stream(spec, n, opt.seed, Stream::kReference);
  QueryStream sweep_stream(spec, n, opt.seed, Stream::kSweep);
  QueryStream ping_stream(spec, n, opt.seed, Stream::kPing);
  lowtw::util::Rng check_rng(derive_seed(opt.seed, 0xc4ec4));
  std::uint64_t mismatches = 0;
  std::uint64_t checked = 0;
  std::vector<std::string> phases_json;
  std::int64_t daemon_threads = 0;
  std::int64_t client_threads = 0;

  // Runs one phase, notes the host steal over it, and checks a sample of
  // its answers against Dijkstra.
  auto run_phase = [&](const std::string& name, QueryStream& src,
                       std::uint64_t phase_no, double qps, double seconds,
                       bool ping) {
    Phase ph;
    ph.name = name;
    ph.ping = ping;
    ph.qps = qps;
    ph.seconds = seconds;
    lowtw::util::Rng arrivals(arrival_seed(opt.seed, phase_no));
    ph.sched = make_schedule(src, arrivals, qps, seconds);
    const std::int64_t steal0 = read_steal_ticks();
    client.run(ph, [&] {
      daemon_threads = read_status_field(opt.daemon_pid, "Threads");
      client_threads = read_status_field(::getpid(), "Threads");
    });
    PhaseReport r = analyse(ph);
    r.steal_ticks = read_steal_ticks() - steal0;
    if (!ping) check_answers(ph, g, check_rng, r);
    mismatches += r.mismatches;
    checked += r.checked;
    phases_json.push_back(report_json(name, qps, seconds, r).dump());
    return r;
  };

  Json out;
  out.str("workload", spec.name).num("slo_us", kSloUs);

  // Warm-up: fault the image in, fill the result cache to steady state.
  run_phase("warmup", ref_stream, kWarmupPhase, spec.reference_qps,
            warmup_seconds(opt.seconds), false);

  // Bare wire: PING round trips on the reference schedule shape.
  out.raw("ping", report_json("ping", spec.reference_qps,
                              ping_seconds(opt.seconds),
                              run_phase("ping", ping_stream, kPingPhase,
                                        spec.reference_qps,
                                        ping_seconds(opt.seconds), true))
                      .dump());

  // Reference chunks: latency, CPU and STATS deltas at the reference rate,
  // spread over the run between sweep steps.
  const double chunk_seconds = reference_chunk_seconds(opt.seconds);
  struct Chunk {
    PhaseReport report;
    double utime_us = 0;
    double stime_us = 0;
    std::map<std::string, double> stats;  ///< STATS deltas
  };
  std::vector<Chunk> chunks;
  int calm_chunks = 0;
  int clean_windows = 0;
  const double tick_us = 1e6 / clock_ticks_per_s();
  auto reference_chunk = [&] {
    const auto stats0 = client.stats();
    const ProcCpu cpu0 = read_proc_cpu(opt.daemon_pid);
    const auto c = static_cast<std::uint64_t>(chunks.size());
    Chunk chunk;
    chunk.report = run_phase("reference" + std::to_string(c), ref_stream,
                             kFirstReferencePhase + c, spec.reference_qps,
                             chunk_seconds, false);
    const ProcCpu cpu1 = read_proc_cpu(opt.daemon_pid);
    const auto stats1 = client.stats();
    chunk.utime_us = static_cast<double>(cpu1.utime - cpu0.utime) * tick_us;
    chunk.stime_us = static_cast<double>(cpu1.stime - cpu0.stime) * tick_us;
    for (const auto& [k, v] : stats1) {
      const auto it = stats0.find(k);
      chunk.stats[k] = v - (it == stats0.end() ? 0 : it->second);
    }
    if (is_calm(chunk.report.steal_ticks, chunk_seconds)) ++calm_chunks;
    clean_windows += chunk.report.clean_windows;
    chunks.push_back(std::move(chunk));
  };
  auto want_chunk = [&] {
    return clean_windows < kCleanWindows &&
           chunks.size() < static_cast<std::size_t>(kMaxReferenceChunks);
  };

  // The highest step that meets the SLO: every reply `ok`, p90 <= SLO, and
  // no growing backlog (p90 of the step's last third <= SLO). Both p90s are
  // taken over the step's clean windows when it has kMinCleanStepWindows of
  // them, else over all its requests. A failing try with fewer clean windows
  // is thrown away and run again, at most kMaxStealRetries times a run, so
  // that a steal spell does not close the bracket below capacity. Near
  // capacity one verdict is a coin flip, so a binary search
  // first brackets the boundary, giving a failing step a second try, and
  // then a staircase of single tries walks it, one step up after a pass
  // and one down after a fail. A step meets the SLO when at least half of
  // its tries passed; the result is the highest such step. A reference
  // chunk runs before each try while chunks are wanted.
  std::uint64_t sweep_sheds = 0;
  std::uint64_t sweep_timeouts = 0;
  std::uint64_t sweep_failed = 0;
  std::uint64_t phase_no = kFirstSweepPhase;
  int steal_retries = 0;
  std::vector<StepTry> tries;
  auto try_step = [&](int step) {
    for (;;) {
      if (want_chunk()) reference_chunk();
      const auto stats0 = client.stats();
      const double seconds = sweep_step_seconds(opt.seconds);
      const PhaseReport r =
          run_phase("step" + std::to_string(step), sweep_stream, phase_no++,
                    spec.grid_rate(step), seconds, false);
      const auto stats1 = client.stats();
      sweep_sheds +=
          static_cast<std::uint64_t>(stats1.at("sheds") - stats0.at("sheds"));
      sweep_timeouts += static_cast<std::uint64_t>(stats1.at("timeouts") -
                                                   stats0.at("timeouts"));
      sweep_failed +=
          static_cast<std::uint64_t>(stats1.at("failed") - stats0.at("failed"));
      const bool clean = r.clean_windows >= kMinCleanStepWindows;
      StepTry t;
      t.step = step;
      t.pass = r.sent > 0 && r.ok == r.sent &&
               (clean ? r.clean_p90_us <= kSloUs &&
                            r.clean_last_third_p90_us <= kSloUs
                      : r.lat.p90_us <= kSloUs && r.last_third_p90_us <= kSloUs);
      if (!t.pass && !clean && steal_retries < kMaxStealRetries) {
        ++steal_retries;
        continue;
      }
      tries.push_back(t);
      return t.pass;
    }
  };
  int lo = -1;
  int hi = kGridSteps;
  for (int step = kGridBelow; hi - lo > 1; step = lo + (hi - lo) / 2) {
    const bool pass = try_step(step) || try_step(step);
    (pass ? lo : hi) = step;
  }
  for (int t = 0, step = std::min(lo + 1, kGridSteps - 1); t < kStaircaseTries;
       ++t) {
    step = try_step(step) ? std::min(step + 1, kGridSteps - 1)
                          : std::max(step - 1, 0);
  }
  std::vector<int> passes(kGridSteps, 0);
  std::vector<int> fails(kGridSteps, 0);
  for (const StepTry& t : tries) {
    ++(t.pass ? passes : fails)[static_cast<std::size_t>(t.step)];
  }
  int max_index = -1;
  for (int step = 0; step < kGridSteps; ++step) {
    const auto k = static_cast<std::size_t>(step);
    if (passes[k] > 0 && passes[k] >= fails[k]) max_index = step;
  }
  while (want_chunk()) reference_chunk();

  // Latency comes from the clean windows of every chunk; counts, CPU and
  // STATS from the calm chunks.
  struct Window {
    std::int64_t steal;
    std::size_t chunk;
    std::uint32_t index;
  };
  std::vector<Window> windows;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::vector<std::int64_t>& ws = chunks[c].report.window_steal;
    for (std::size_t k = 0; k < ws.size(); ++k) {
      windows.push_back({ws[k], c, static_cast<std::uint32_t>(k)});
    }
  }
  std::stable_sort(windows.begin(), windows.end(),
                   [](const Window& a, const Window& b) {
                     return a.steal < b.steal;
                   });
  const std::size_t keep = std::max<std::size_t>(
      static_cast<std::size_t>(clean_windows),
      std::min<std::size_t>(windows.size(), kMinCleanWindows));
  std::vector<std::vector<char>> kept(chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    kept[c].assign(chunks[c].report.window_steal.size(), 0);
  }
  for (std::size_t i = 0; i < keep; ++i) {
    kept[windows[i].chunk][windows[i].index] = 1;
  }
  std::vector<double> window_lat;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const PhaseReport& r = chunks[c].report;
    for (std::size_t q = 0; q < r.lat_us.size(); ++q) {
      if (kept[c][r.window[q]] != 0) window_lat.push_back(r.lat_us[q]);
    }
  }
  std::vector<std::int64_t> chunk_steal;
  for (const Chunk& c : chunks) chunk_steal.push_back(c.report.steal_ticks);
  const std::vector<int> selected = select_chunks(chunk_steal, chunk_seconds);
  PhaseReport ref;
  double utime_us = 0;
  double stime_us = 0;
  std::map<std::string, double> stats_delta;
  for (int c : selected) {
    const Chunk& chunk = chunks[static_cast<std::size_t>(c)];
    ref.pool(chunk.report);
    utime_us += chunk.utime_us;
    stime_us += chunk.stime_us;
    for (const auto& [k, v] : chunk.stats) stats_delta[k] += v;
  }
  ref.lat = summarize(std::move(window_lat));
  Json stats;
  for (const auto& [k, v] : stats_delta) {
    if (k != "generation" && k != "load_micros" && k != "prefault_micros") {
      stats.num(k, v);
    }
  }
  std::vector<double> selected_d(selected.begin(), selected.end());
  Json rj = report_json("reference", spec.reference_qps,
                        chunk_seconds * static_cast<double>(selected.size()),
                        ref);
  rj.num("daemon_utime_us", utime_us)
      .num("daemon_stime_us", stime_us)
      .num("chunks", static_cast<double>(chunks.size()))
      .num("calm_chunks", calm_chunks)
      .num("clean_windows", clean_windows)
      .num("windows", static_cast<double>(windows.size()))
      .num("window_samples", static_cast<double>(ref.lat.samples))
      .nums("selected_chunks", selected_d)
      .num("daemon_threads", static_cast<double>(daemon_threads))
      .num("client_threads", static_cast<double>(client_threads))
      .raw("stats", stats.dump());
  out.raw("reference", rj.dump())
      .num("max_rate_index", max_index)
      .num("grid_steps", kGridSteps)
      .num("max_rate_at_slo", max_index >= 0 ? spec.grid_rate(max_index) : 0)
      .num("step_tries", static_cast<double>(tries.size()))
      .num("steal_retries", steal_retries)
      .num("sweep_sheds", static_cast<double>(sweep_sheds))
      .num("sweep_timeouts", static_cast<double>(sweep_timeouts))
      .num("sweep_failed", static_cast<double>(sweep_failed))
      .num("checked", static_cast<double>(checked))
      .num("mismatches", static_cast<double>(mismatches));
  std::string list = "[";
  for (std::size_t i = 0; i < phases_json.size(); ++i) {
    if (i > 0) list += ',';
    list += phases_json[i];
  }
  list += ']';
  out.raw("phases", list);
  return out.dump();
}

}  // namespace perfbench
