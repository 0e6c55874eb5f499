#!/usr/bin/env python3
"""Oracle benchmark: cold start, warm restart and open-loop serving of the
shipped oracle_daemon on one workload.

    python3 perfbench/run.py --workload road_uniform --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The script builds the daemon and
perfbench_tool from source (into $CARGO_TARGET_DIR, default .bench_build),
generates the workload graph as a DIMACS .gr file, cold-starts the daemon on
it with --write-image, restarts it from the image several times, and drives
the last one with the open-loop client. Every answer sampled is checked
against Dijkstra and the CONGEST round count against expected_rounds.json.
With --trace 1 it also replays the same inputs in-process and reports the
per-layer split. The last line of stdout is one JSON object; a wrong
distance, a rounds mismatch or a daemon that misbehaves makes the exit code
non-zero. README.md documents the workloads and every metric.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("road_uniform", "backbone_zipf", "depot_fanout")
COLD_STARTS = 3
RESTARTS = 15
# A start during which the host stole more CPU than is_calm allows is timed
# again: up to EXTRA_COLD_STARTS more cold starts (each takes seconds on
# backbone_zipf) and EXTRA_RESTARTS more restarts (see is_calm in
# tool/common.hpp).
CALM_STEAL_PER_S = 4
EXTRA_COLD_STARTS = 2
EXTRA_RESTARTS = 5
WORKERS = 2  # 2 workers + 2 connection threads + the client fit 4 vCPUs
START_TIMEOUT_S = 120
STOP_TIMEOUT_S = 30
# Every round tag a workload's build charges; missing ones report 0.
ROUND_TAGS = ("dl/hx", "dl/leaf", "sep/balance", "sep/ccd", "sep/count",
              "sep/cuts", "sep/pairbcast", "sep/profiles", "sep/rst",
              "sep/split", "td/ccd")


def _die_with_parent():
    """Child-side: SIGKILL the daemon if this script dies first."""
    ctypes.CDLL(None).prctl(1, int(signal.SIGKILL))  # PR_SET_PDEATHSIG


class BenchError(Exception):
    """A failure that must end the run without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds oracle_daemon and perfbench_tool; returns their paths."""
    for need in ("CMakeLists.txt", "src", os.path.join("examples", "oracle_daemon.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("source tree incomplete: %s is missing" % need)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "oracle_daemon", "perfbench_tool"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             universal_newlines=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(build_dir, "lowtw", "oracle_daemon"),
            os.path.join(build_dir, "perfbench_tool"))


def run_tool(tool, args):
    res = subprocess.run([tool] + args, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, universal_newlines=True)
    if res.returncode != 0:
        log(res.stderr)
        raise BenchError("perfbench_tool %s failed (exit %d)" % (args[0], res.returncode))
    return json.loads(res.stdout.strip().splitlines()[-1])


def steal_ticks():
    """The steal column of /proc/stat's aggregate cpu line."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def is_calm(steal, seconds):
    return steal <= 1 + CALM_STEAL_PER_S * seconds


def calm_times(times, count):
    """The start times to take the median of: the calm ones when there are
    `count` of them, else the `count` least stolen. `times` holds
    (seconds, steal) pairs."""
    calm = [t for t, s in times if is_calm(s, t)]
    if len(calm) >= count:
        return calm
    return [t for t, s in sorted(times, key=lambda x: x[1])[:count]]


class Daemons:
    """Starts daemons, times them to their first answer, and always stops
    every one it started."""

    def __init__(self, binary, workdir, graph, probe):
        self.binary = binary
        self.workdir = workdir
        self.graph = graph
        self.sock = os.path.join(workdir, "d.sock")  # relative: sun_path is short
        self.probe = probe
        self.live = []

    def start(self, extra):
        """Launches a daemon; returns (process, seconds to first answer,
        host steal ticks meanwhile)."""
        cmd = [self.binary, "--dimacs", self.graph, "--socket", self.sock,
               "--workers", str(WORKERS)] + extra
        out = open(os.path.join(self.workdir, "daemon.log"), "ab")
        steal0 = steal_ticks()
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                preexec_fn=_die_with_parent)
        out.close()
        self.live.append(proc)
        secs = self._first_answer(proc, t0)
        return proc, secs, steal_ticks() - steal0

    def timed_starts(self, extra, count, most):
        """Starts and stops daemons until `count` calm starts are timed or
        `most` have run; the last one is left serving. Returns
        (process, [(seconds, steal), ...])."""
        times = []
        while True:
            proc, secs, steal = self.start(extra)
            times.append((secs, steal))
            calm = sum(1 for t, s in times if is_calm(s, t))
            if calm >= count or len(times) >= most:
                return proc, times
            self.stop(proc)

    def _first_answer(self, proc, t0):
        u, v, want = self.probe
        while True:
            if proc.poll() is not None:
                raise BenchError("daemon exited with %d before answering" % proc.returncode)
            if time.monotonic() - t0 > START_TIMEOUT_S:
                raise BenchError("daemon did not answer within %d s" % START_TIMEOUT_S)
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock)
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                time.sleep(0.0002)
                continue
            try:
                s.sendall(b"Q 0 %d %d 1000000\n" % (u, v))
                line = b""
                while not line.endswith(b"\n"):
                    chunk = s.recv(256)
                    if not chunk:
                        raise BenchError("daemon closed the probe connection")
                    line += chunk
                t1 = time.monotonic()
            finally:
                s.close()
            parts = line.decode().split()
            if parts[:3] != ["A", "0", "ok"] or len(parts) != 6 or parts[4] != str(want):
                raise BenchError("wrong first answer %r, want d=%d" % (line, want))
            return t1 - t0

    def stop(self, proc):
        """SIGTERM drain; the daemon must exit 0."""
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("daemon did not drain within %d s" % STOP_TIMEOUT_S)
        finally:
            self.live.remove(proc)
        if code != 0:
            raise BenchError("daemon exited with %d" % code)

    def kill_all(self):
        for proc in self.live:
            proc.kill()
            proc.wait()
        self.live = []


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for daemon %d" % pid)


def ratio(num, den):
    return num / den if den else 0.0


def light_phases(load):
    """The phases at or below the reference rate, where every request must
    be answered: warm-up, reference chunks, and sweep steps that low."""
    ref_qps = load["reference"]["qps"]
    return [p for p in load["phases"] if p["name"] != "ping" and p["qps"] <= ref_qps]


def end_to_end(cold, restarts, image_bytes, rounds_total, load, rss_mb):
    ref = load["reference"]
    light = light_phases(load)
    cpu_us = ref["daemon_utime_us"] + ref["daemon_stime_us"]
    return {
        "setup_s": statistics.median(calm_times(cold, COLD_STARTS)),
        "restart_ms": statistics.median(calm_times(restarts, RESTARTS)) * 1e3,
        "p50_us": ref["p50_us"],
        "p90_us": ref["p90_us"],
        "max_rate_at_slo": load["max_rate_at_slo"],
        "ok_frac": ratio(sum(p["ok"] for p in light), sum(p["sent"] for p in light)),
        "cpu_us_per_query": ratio(cpu_us, ref["ok"]),
        "rss_mb": rss_mb,
        "image_mb": image_bytes / 2.0 ** 20,
        "congest_rounds": rounds_total,
    }


def per_layer(e2e, load, replay, rounds):
    """The traced run's metrics: replay spans, daemon STATS deltas over the
    reference phase, and the residuals against the untraced numbers."""
    ref = load["reference"]
    st = ref["stats"]
    cpu = ref["daemon_utime_us"] + ref["daemon_stime_us"]
    wire = load["ping"]["p50_us"]
    build_ms = sum(replay[k] for k in ("graph.ingest_ms", "graph.diameter_ms",
                                       "td.build_ms", "labeling.build_ms",
                                       "labeling.transpose_ms", "persist.write_ms"))
    m = {k: replay[k] for k in (
        "graph.ingest_ms", "graph.diameter_ms", "td.build_ms", "labeling.build_ms",
        "labeling.transpose_ms", "labeling.entries", "persist.write_ms",
        "persist.load_ms", "serving.submit_us", "serving.inproc_p50_us",
        "serving.inproc_p90_us", "admission.wait_us", "admission.batch_fill",
        "query_plane.decode_us_per_batch", "result_cache.evictions_per_insert",
        "trace.overhead_p50_us")}
    for tag in ROUND_TAGS:
        m["rounds." + tag.replace("/", ".")] = rounds["by_tag"].get(tag, 0.0)
    m.update({
        "daemon.wire_us": wire,
        "query_plane.entries_per_query": ratio(st["entries_touched"], st["served_batched"]),
        "query_plane.row_cache_hit_rate": ratio(st["row_cache_hits"], st["served_batched"]),
        "result_cache.hit_rate": ratio(st["cache_hits"], st["cache_hits"] + st["cache_misses"]),
        "serving.sheds": load["sweep_sheds"],
        "serving.timeouts": load["sweep_timeouts"],
        "serving.failed": load["sweep_failed"],
        "process.sys_cpu_frac": ratio(ref["daemon_stime_us"], cpu),
        "residual.setup_ms": e2e["setup_s"] * 1e3 - build_ms,
        "residual.p50_us": e2e["p50_us"] - replay["serving.inproc_p50_us"] - wire,
        "client.max_late_us": ref["max_late_us"],
        "client.late_frac": ref["late_frac"],
        "host.steal_ticks": ref["steal_ticks"],
        "host.clean_windows": ref["clean_windows"],
        "host.steal_retries": load["steal_retries"],
        "host.nproc": os.cpu_count(),
        "daemon.threads": ref["daemon_threads"],
        "client.threads": ref["client_threads"],
        "serving.p99_us": ref["p99_us"],
        "serving.tail_pct": ref["tail_pct"],
        "serving.tail_us": ref["tail_us"],
        "serving.ref_samples": ref["window_samples"],
        "serving.max_rate_index": load["max_rate_index"],
    })
    return m


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(args):
    daemon_bin, tool = build()
    with open(os.path.join(HERE, "expected_rounds.json")) as f:
        expected_rounds = json.load(f)[args.workload]
    workdir = os.path.join(".bench_run", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    graph = os.path.join(workdir, "graph.gr")
    image = os.path.join(workdir, "snap.img")

    info = run_tool(tool, ["gen", "--workload", args.workload, "--out", graph])
    rounds = run_tool(tool, ["rounds", "--gr", graph])
    rounds_ok = rounds["total"] == expected_rounds
    if not rounds_ok:
        log("congest_rounds %r != expected %r" % (rounds["total"], expected_rounds))

    probe = (int(info["probe_u"]), int(info["probe_v"]), int(info["probe_dist"]))
    daemons = Daemons(daemon_bin, workdir, graph, probe)
    try:
        proc, cold = daemons.timed_starts(["--write-image", image], COLD_STARTS,
                                          COLD_STARTS + EXTRA_COLD_STARTS)
        daemons.stop(proc)
        image_bytes = os.path.getsize(image)
        proc, restarts = daemons.timed_starts(["--image", image], RESTARTS,
                                              RESTARTS + EXTRA_RESTARTS)
        load = run_tool(tool, ["load", "--workload", args.workload, "--gr", graph,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--socket", daemons.sock, "--daemon-pid", str(proc.pid)])
        rss_mb = vm_hwm_mb(proc.pid)
        daemons.stop(proc)
    finally:
        daemons.kill_all()

    e2e = end_to_end(cold, restarts, image_bytes, rounds["total"], load, rss_mb)
    light = light_phases(load)
    attempted = sum(p["sent"] for p in light) + len(cold) + len(restarts)
    failed = sum(p["sent"] - p["ok"] for p in light)
    bad_frames = sum(p["bad_frames"] for p in load["phases"])
    correct = rounds_ok and load["mismatches"] == 0 and bad_frames == 0
    load["cold_starts"] = cold
    load["restarts"] = restarts
    with open(os.path.join(workdir, "load.json"), "w") as f:
        json.dump(load, f, indent=1)

    units = load_units()
    if args.trace:
        replay = run_tool(tool, ["replay", "--workload", args.workload, "--gr", graph,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--image", os.path.join(workdir, "replay.img"),
                                 "--spans", os.path.join(workdir, "spans.jsonl")])
        with open(os.path.join(workdir, "replay.json"), "w") as f:
            json.dump(replay, f, indent=1)
        attempted += int(replay["inproc_attempted"])
        failed += int(replay["inproc_failed"])
        metrics = per_layer(e2e, load, replay, rounds)
    else:
        metrics = e2e

    edge = not 0 < load["max_rate_index"] < load["grid_steps"] - 1
    if edge:
        log("WARNING: max_rate_at_slo is at the edge of the rate grid, so it "
            "measures the grid; widen kGridBelow/kGridAbove")
    print("workload %s seed %d: %d checked against Dijkstra, %d mismatches; "
          "max_rate_at_slo at grid index %d of 0..%d%s; %d of %d reference "
          "windows clean; %d sweep tries, %d run again for steal"
          % (args.workload, args.seed, load["checked"], load["mismatches"],
             load["max_rate_index"], load["grid_steps"] - 1,
             " (AT THE GRID EDGE)" if edge else "",
             load["reference"]["clean_windows"], load["reference"]["windows"],
             load["step_tries"], load["steal_retries"]))
    for name, value in metrics.items():
        print("%-40s %18.6f %s" % (name, value, units.get(name, "")))
    for f in (graph, image, os.path.join(workdir, "replay.img")):
        if os.path.exists(f):
            os.remove(f)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    try:
        return run(args)
    except BenchError as e:
        log("benchmark failed: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
