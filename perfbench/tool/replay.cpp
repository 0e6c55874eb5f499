#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/solver.hpp"
#include "graph/graph_io.hpp"
#include "labeling/inverted_index.hpp"
#include "labeling/query_plane.hpp"
#include "loadgen.hpp"
#include "serving/oracle.hpp"

namespace perfbench {

namespace {

namespace serving = lowtw::serving;
namespace labeling = lowtw::labeling;

/// A timed interval at a layer boundary. Spans of one request share `id`;
/// `parent` names the span that caused this one (empty for roots).
struct Span {
  const char* name;
  const char* parent;
  std::uint64_t id;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class SpanLog {
 public:
  void add(const char* name, const char* parent, std::uint64_t id,
           std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({name, parent, id, start_ns, end_ns});
  }
  void write(const std::string& path) const {
    std::ofstream os(path);
    for (const Span& s : spans_) {
      os << "{\"name\":\"" << s.name << "\",\"parent\":\"" << s.parent
         << "\",\"id\":" << s.id << ",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  void reserve(std::size_t n) { spans_.reserve(spans_.size() + n); }

 private:
  std::vector<Span> spans_;
};

/// Times `fn` as a span and returns its length in milliseconds.
template <typename Fn>
double timed_ms(SpanLog& log, const char* name, const char* parent, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  const std::int64_t t1 = now_ns();
  log.add(name, parent, 0, t0, t1);
  return static_cast<double>(t1 - t0) / 1e6;
}

/// The daemon's serving configuration: OracleOptions defaults plus what
/// oracle_daemon's flag defaults set (result cache on at 65536 entries in 8
/// shards, 4 row-cache slots) and the benchmark's --workers 2.
serving::OracleOptions daemon_options() {
  serving::OracleOptions o;
  o.seed = kDaemonSeed;
  o.pool.workers = 2;
  o.cache.enabled = true;
  o.cache.capacity = 1 << 16;
  o.cache.shards = 8;
  o.row_cache_slots = 4;
  return o;
}

constexpr std::int64_t kDeadlineUs = 1000000;

/// One in-process serving pass over a schedule. The calling thread submits
/// at the intended times; a waiter thread resolves the futures in submit
/// order, as a daemon connection does. Every other query is traced (a span
/// around its submit call); the rest are timed only from intended send to
/// ready. Traced and untraced queries alternate within a depot burst too,
/// so they share the same moments, batches and oracle, and their latency
/// gap is the tracing overhead.
struct ServePass {
  std::vector<std::int64_t> intended;  ///< per query
  std::vector<std::int64_t> submit_begin;  ///< traced queries only
  std::vector<std::int64_t> submit_end;
  std::vector<std::int64_t> ready;
  std::vector<char> ok;
  std::vector<char> admitted;  ///< false when the result cache answered
  std::vector<char> traced;
};

void serve(serving::Oracle& oracle, const Schedule& s, ServePass& out) {
  const std::size_t nq = s.queries.size();
  out.intended.assign(nq, 0);
  out.submit_begin.assign(nq, 0);
  out.submit_end.assign(nq, 0);
  out.ready.assign(nq, 0);
  out.ok.assign(nq, 0);
  out.admitted.assign(nq, 0);
  out.traced.assign(nq, 0);
  std::vector<std::optional<std::future<serving::QueryResponse>>> futures(nq);
  std::atomic<std::size_t> submitted{0};
  std::thread waiter([&] {
    for (std::size_t q = 0; q < nq; ++q) {
      while (submitted.load(std::memory_order_acquire) <= q) {
        sleep_until_ns(now_ns() + 20000);
      }
      if (futures[q].has_value()) {
        const serving::QueryResponse r = futures[q]->get();
        out.ready[q] = now_ns();
        out.ok[q] = r.status == serving::ServeStatus::kOk;
      }
    }
  });
  const std::int64_t t0 = now_ns() + 2000000;
  const auto deadline = std::chrono::microseconds(kDeadlineUs);
  for (std::size_t j = 0; j < s.num_jobs(); ++j) {
    const std::int64_t due = t0 + s.job_offset_ns[j];
    if (now_ns() < due) sleep_until_ns(due);
    for (std::size_t q = s.job_begin[j]; q < s.job_end(j); ++q) {
      const bool traced = q % 2 == 0;
      out.intended[q] = due;
      out.traced[q] = traced ? 1 : 0;
      if (traced) out.submit_begin[q] = now_ns();
      serving::AdmissionQueue::SubmitOutcome o =
          oracle.submit(s.queries[q].u, s.queries[q].v, deadline);
      if (traced) out.submit_end[q] = now_ns();
      if (o.immediate.has_value()) {
        out.ready[q] = now_ns();
        out.ok[q] = o.immediate->status == serving::ServeStatus::kOk;
      } else if (o.reply.has_value()) {
        out.admitted[q] = 1;
        futures[q] = std::move(o.reply);
      }
      submitted.store(q + 1, std::memory_order_release);
    }
  }
  waiter.join();
}

/// Pools the latencies of the chunks `which` of `per_chunk`.
LatencySummary pooled(const std::vector<std::vector<double>>& per_chunk,
                      const std::vector<int>& which) {
  std::vector<double> all;
  for (int c : which) {
    const std::vector<double>& one = per_chunk[static_cast<std::size_t>(c)];
    all.insert(all.end(), one.begin(), one.end());
  }
  return summarize(std::move(all));
}

/// Times the decode work of the admitted reference queries on one
/// QueryEngine. It mirrors two policies of the program rather than calling
/// them, so a change to either must be copied here: the batches the
/// admission queue closes with idle workers (size trigger max_batch, window
/// trigger batch_window from the oldest arrival), and Oracle's grouping of
/// a batch by source (a run of at least one_vs_all_min_targets targets is
/// one one-vs-all row, the rest one pinned QueryBatch). Only its timing is
/// reported; the query-plane counters come from the daemon's STATS.
struct DecodeReplay {
  explicit DecodeReplay(const labeling::FlatLabeling& flat,
                        const labeling::InvertedHubIndex& index,
                        const serving::OracleOptions& opts)
      : opts_(opts),
        row_(static_cast<std::size_t>(flat.num_vertices())),
        row_to_(row_.size()) {
    engine_.bind(flat, index);
    engine_.set_row_cache(opts.row_cache_slots);
  }

  void replay(const Schedule& s, const ServePass& pass, SpanLog& log);

  double us_per_batch() const {
    return batches_ == 0 ? 0 : static_cast<double>(busy_ns_) / 1e3 /
                                   static_cast<double>(batches_);
  }

 private:
  const serving::OracleOptions& opts_;
  labeling::QueryEngine engine_;
  labeling::QueryBatch batch_;
  std::vector<Weight> row_;
  std::vector<Weight> row_to_;
  std::int64_t busy_ns_ = 0;
  std::size_t batches_ = 0;
};

void DecodeReplay::replay(const Schedule& s, const ServePass& pass,
                          SpanLog& log) {
  const std::size_t max_batch = opts_.admission.max_batch;
  const std::int64_t window_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          opts_.admission.batch_window)
          .count();
  std::vector<std::uint32_t> admitted;
  for (std::size_t q = 0; q < pass.admitted.size(); ++q) {
    if (pass.admitted[q] != 0) {
      admitted.push_back(static_cast<std::uint32_t>(q));
    }
  }
  std::vector<std::uint32_t> cur;
  std::size_t i = 0;
  while (i < admitted.size()) {
    cur.clear();
    const std::int64_t first = pass.intended[admitted[i]];
    while (i < admitted.size() && cur.size() < max_batch &&
           pass.intended[admitted[i]] <= first + window_ns) {
      cur.push_back(admitted[i++]);
    }
    std::stable_sort(cur.begin(), cur.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return s.queries[a].u < s.queries[b].u;
                     });
    const std::int64_t t0 = now_ns();
    batch_.clear();
    std::size_t g = 0;
    while (g < cur.size()) {
      std::size_t e = g;
      const VertexId u = s.queries[cur[g]].u;
      while (e < cur.size() && s.queries[cur[e]].u == u) ++e;
      if (e - g >= opts_.one_vs_all_min_targets) {
        if (engine_.try_one_vs_all(u, row_, row_to_) !=
            labeling::QueryStatus::kOk) {
          throw std::runtime_error("one-vs-all decode failed");
        }
      } else {
        batch_.add_source(u);
        for (std::size_t k = g; k < e; ++k) {
          batch_.add_target(s.queries[cur[k]].v);
        }
      }
      g = e;
    }
    if (batch_.num_queries() > 0 &&
        engine_.try_run(batch_) != labeling::QueryStatus::kOk) {
      throw std::runtime_error("batched decode failed");
    }
    const std::int64_t t1 = now_ns();
    log.add("query_plane.decode", "", batches_, t0, t1);
    busy_ns_ += t1 - t0;
    ++batches_;
  }
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

std::string rounds_json(const std::string& graph_path) {
  lowtw::SolverOptions so;
  so.seed = kDaemonSeed;
  lowtw::Solver solver(lowtw::graph::io::read_dimacs_gr_file(graph_path), so);
  solver.distance_labeling();
  const lowtw::RoundReport report = solver.report();
  Json tags;
  for (const auto& [tag, rounds] : report.by_tag) tags.num(tag, rounds);
  Json out;
  out.num("total", report.total).raw("by_tag", tags.dump());
  return out.dump();
}

std::string run_replay(const ReplayOptions& opt) {
  const WorkloadSpec& spec = *opt.spec;
  SpanLog log;
  Json out;

  // Build: the public call of each layer the daemon's cold start runs.
  const std::int64_t build0 = now_ns();
  lowtw::graph::WeightedDigraph g;
  out.num("graph.ingest_ms", timed_ms(log, "graph.ingest", "build", [&] {
    g = lowtw::graph::io::read_dimacs_gr_file(opt.graph_path);
  }));
  lowtw::SolverOptions so;
  so.seed = kDaemonSeed;
  std::optional<lowtw::Solver> solver;
  out.num("graph.diameter_ms", timed_ms(log, "graph.diameter", "build",
                                        [&] { solver.emplace(g, so); }));
  out.num("td.build_ms", timed_ms(log, "td.build", "build",
                                  [&] { solver->tree_decomposition(); }));
  out.num("labeling.build_ms", timed_ms(log, "labeling.build", "build",
                                        [&] { solver->distance_labeling(); }));
  const labeling::FlatLabeling& flat = solver->distance_labeling().flat;
  std::optional<labeling::InvertedHubIndex> index;
  out.num("labeling.transpose_ms",
          timed_ms(log, "labeling.transpose", "build",
                   [&] { index.emplace(flat); }));
  log.add("build", "", 0, build0, now_ns());
  out.num("labeling.entries", static_cast<double>(flat.num_entries()));
  Json tags;
  for (const auto& [tag, rounds] : solver->report().by_tag) {
    tags.num(tag, rounds);
  }
  out.raw("rounds_by_tag", tags.dump());

  const serving::OracleOptions opts = daemon_options();
  {
    serving::Oracle writer(g, opts);
    writer.install_snapshot(flat);
    out.num("persist.write_ms", timed_ms(log, "persist.write", "", [&] {
      if (!writer.write_image(opt.image_path)) {
        throw std::runtime_error("write_image failed");
      }
    }));
  }

  // Serving: the daemon client's warm-up and reference schedules on an
  // oracle loaded from the image, as the daemon serves after a restart.
  serving::Oracle oracle(g, opts);
  out.num("persist.load_ms", timed_ms(log, "persist.load", "", [&] {
    if (!oracle.load_image(opt.image_path)) {
      throw std::runtime_error("load_image failed");
    }
  }));
  oracle.start();
  QueryStream stream(spec, g.num_vertices(), opt.seed, Stream::kReference);
  lowtw::util::Rng warm_arrivals(arrival_seed(opt.seed, kWarmupPhase));
  const Schedule warm = make_schedule(stream, warm_arrivals, spec.reference_qps,
                                      warmup_seconds(opt.seconds));
  ServePass pass;
  serve(oracle, warm, pass);
  // The chunks run as in the daemon client: until kCalmChunks are calm.
  const double chunk_seconds = reference_chunk_seconds(opt.seconds);
  std::vector<std::vector<double>> all;
  std::vector<std::vector<double>> traced;
  std::vector<std::vector<double>> untraced;
  std::vector<std::vector<double>> admitted;
  std::vector<std::int64_t> steal;
  DecodeReplay decode(flat, *index, opts);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double submit_ns = 0;
  double traced_submits = 0;
  std::uint64_t span_id = 0;
  int calm_chunks = 0;
  const serving::OracleStats s0 = oracle.stats();
  for (int c = 0; calm_chunks < kCalmChunks && c < kMaxReferenceChunks; ++c) {
    lowtw::util::Rng arrivals(arrival_seed(opt.seed, kFirstReferencePhase + c));
    const Schedule chunk =
        make_schedule(stream, arrivals, spec.reference_qps, chunk_seconds);
    const std::int64_t steal0 = read_steal_ticks();
    serve(oracle, chunk, pass);
    steal.push_back(read_steal_ticks() - steal0);
    if (is_calm(steal.back(), chunk_seconds)) ++calm_chunks;
    for (auto* v : {&all, &traced, &untraced, &admitted}) v->emplace_back();
    for (std::size_t q = 0; q < chunk.queries.size(); ++q) {
      const double lat =
          pass.ok[q] != 0
              ? static_cast<double>(pass.ready[q] - pass.intended[q]) / 1e3
              : std::numeric_limits<double>::infinity();
      ++attempted;
      failed += pass.ok[q] == 0 ? 1 : 0;
      all.back().push_back(lat);
      (pass.traced[q] != 0 ? traced : untraced).back().push_back(lat);
      if (pass.admitted[q] != 0) admitted.back().push_back(lat);
      const std::uint64_t id = span_id++;
      log.add("serving.request", "", id, pass.intended[q], pass.ready[q]);
      if (pass.traced[q] == 0) continue;
      log.add("serving.submit", "serving.request", id, pass.submit_begin[q],
              pass.submit_end[q]);
      submit_ns +=
          static_cast<double>(pass.submit_end[q] - pass.submit_begin[q]);
      ++traced_submits;
    }
    decode.replay(chunk, pass, log);
  }
  const serving::OracleStats s1 = oracle.stats();
  oracle.stop(/*drain=*/true);

  const std::vector<int> selected = select_chunks(steal, chunk_seconds);
  // Traced and untraced jobs alternate, so a steal spell hits both alike:
  // their gap is taken over every chunk.
  std::vector<int> every(all.size());
  for (std::size_t c = 0; c < every.size(); ++c) every[c] = static_cast<int>(c);
  const LatencySummary lat = pooled(all, selected);
  out.num("serving.submit_us",
          traced_submits == 0 ? 0 : submit_ns / 1e3 / traced_submits)
      .num("serving.inproc_p50_us", lat.p50_us)
      .num("serving.inproc_p90_us", lat.p90_us)
      .num("admission.batch_fill",
           ratio(s1.admitted - s0.admitted, s1.batches - s0.batches))
      .num("admission.wait_us",
           pooled(admitted, selected).p50_us - decode.us_per_batch())
      .num("query_plane.decode_us_per_batch", decode.us_per_batch())
      .num("result_cache.evictions_per_insert",
           ratio(s1.cache_evictions - s0.cache_evictions,
                 s1.cache_insertions - s0.cache_insertions))
      .num("trace.overhead_p50_us",
           pooled(traced, every).p50_us - pooled(untraced, every).p50_us)
      .num("inproc_attempted", static_cast<double>(attempted))
      .num("inproc_failed", static_cast<double>(failed));
  log.write(opt.spans_path);
  return out.dump();
}

}  // namespace perfbench
