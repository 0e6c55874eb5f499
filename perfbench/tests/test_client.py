#!/usr/bin/env python3
"""Open-loop honesty tests of the benchmark client.

    python3 perfbench/tests/test_client.py

Builds perfbench_tool the way run.py does, then runs `perfbench_tool load`
against a scripted fake daemon on a unix socket. The fake serves a 3-vertex
complete digraph with unit arcs, so d(u, v) is 0 on the diagonal and 1
elsewhere, and can shed, time out, reject, stall or lie on cue. The tests
check that the client keeps its Poisson schedule, times requests from their
intended send time, counts every reply other than `ok` as a miss, and
catches a wrong distance.
"""

import json
import os
import selectors
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run as bench  # noqa: E402

STATS = (b"STATS admitted=0 served_batched=0 timeouts=0 sheds=0 failed=0 "
         b"entries_touched=0 cache_hits=0 cache_misses=0 row_cache_hits=0\n")
REFERENCE_QPS = 20000  # road_uniform's reference rate


class FakeDaemon(threading.Thread):
    """Answers each Q frame with `policy(id, u, v)`: a reply line, or None
    for the correct answer. `stall_at` makes the server sleep `stall_s` once,
    before answering the first frame whose id reaches it."""

    def __init__(self, path, policy=None, stall_at=None, stall_s=0.0):
        super().__init__(daemon=True)
        self.policy = policy or (lambda i, u, v: None)
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(path)
        self.listener.listen(8)
        self.stopping = False

    def run(self):
        sel = selectors.DefaultSelector()
        sel.register(self.listener, selectors.EVENT_READ, None)
        bufs = {}
        while not self.stopping:
            for key, _ in sel.select(timeout=0.05):
                if key.data is None:
                    conn, _ = self.listener.accept()
                    sel.register(conn, selectors.EVENT_READ, conn)
                    bufs[conn] = b""
                    continue
                conn = key.data
                data = conn.recv(1 << 16)
                if not data:
                    sel.unregister(conn)
                    conn.close()
                    continue
                lines = (bufs[conn] + data).split(b"\n")
                bufs[conn] = lines.pop()
                conn.sendall(b"".join(self.answer(line) for line in lines))
        self.listener.close()

    def answer(self, line):
        parts = line.split()
        if parts == [b"PING"]:
            return b"PONG\n"
        if parts == [b"STATS"]:
            return STATS
        rid, u, v = int(parts[1]), int(parts[2]), int(parts[3])
        if self.stall_at is not None and rid >= self.stall_at:
            self.stall_at = None
            time.sleep(self.stall_s)
        reply = self.policy(rid, u, v)
        if reply is not None:
            return reply.encode()
        return b"A %d ok batched-index %d 1\n" % (rid, 0 if u == v else 1)


class ClientTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        _, cls.tool = bench.build()
        cls.tmp = tempfile.mkdtemp(prefix="perfbench-test-")
        cls.graph = os.path.join(cls.tmp, "k3.gr")
        with open(cls.graph, "w") as f:
            f.write("p sp 3 6\n")
            for u in (1, 2, 3):
                for v in (1, 2, 3):
                    if u != v:
                        f.write("a %d %d 1\n" % (u, v))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def load(self, **fake):
        sock = os.path.join(self.tmp, "fake.sock")
        if os.path.exists(sock):
            os.remove(sock)
        server = FakeDaemon(sock, **fake)
        server.start()
        try:
            out = subprocess.run(
                [self.tool, "load", "--workload", "road_uniform", "--gr", self.graph,
                 "--seed", "3", "--seconds", "4", "--socket", sock,
                 "--daemon-pid", str(os.getpid())],
                stdout=subprocess.PIPE, universal_newlines=True, check=True, timeout=120)
        finally:
            server.stopping = True
            server.join()
        report = json.loads(out.stdout)
        phases = {p["name"]: p for p in report["phases"]}
        return report, phases

    def test_poisson_schedule_and_correct_answers(self):
        report, _ = self.load()
        ref = report["reference"]  # the reference chunks pooled
        expected = REFERENCE_QPS * ref["seconds"]
        # Poisson count: standard deviation sqrt(expected).
        self.assertLess(abs(ref["sent"] - expected), 5 * expected ** 0.5)
        self.assertEqual(ref["ok"], ref["sent"])
        self.assertEqual(report["mismatches"], 0)
        self.assertGreater(report["checked"], 0)
        self.assertIn("max_late_us", ref)
        self.assertIn("late_frac", ref)

    def test_non_ok_replies_are_misses(self):
        def policy(rid, u, v):
            kind = rid % 10
            if kind == 1:
                return "A %d overload 200\n" % rid
            if kind == 2:
                return "A %d timeout 0\n" % rid
            if kind == 3:
                return "E parse\n"
            return None

        report, _ = self.load(policy=policy)
        ref = report["reference"]
        sent = ref["sent"]
        for key in ("overload", "timeout", "errors"):
            self.assertAlmostEqual(ref[key] / sent, 0.1, delta=0.02)
        # An `E` frame carries no id: its request stays unanswered.
        self.assertEqual(ref["missing"], ref["errors"])
        self.assertEqual(ref["ok"] + ref["overload"] + ref["timeout"] + ref["missing"], sent)
        # With 30 % misses the p90 is a miss, which reads as no finite value.
        self.assertIsNone(ref["p90_us"])
        # No sweep step can pass, so no step meets the SLO.
        self.assertEqual(report["max_rate_index"], -1)

    def test_stall_is_charged_from_intended_send_time(self):
        _, phases = self.load()
        first_ref_id = 1 + phases["warmup"]["sent"] + phases["ping"]["sent"]
        stall_s = 0.1
        _, phases = self.load(stall_at=first_ref_id + 1000, stall_s=stall_s)
        chunk = phases["reference0"]
        # Requests keep being due while the server sleeps, about rate x stall
        # of them, not just the one or two a closed loop would have in
        # flight. Each is timed from its intended send time, so the stall
        # shows in the p90 even when a full socket buffer held the sender
        # back (that lateness is reported as max_late_us and charged too).
        self.assertGreater(chunk["p90_us"], 0.3 * stall_s * 1e6)
        self.assertGreater(chunk["max_late_us"], 0)

    def test_wrong_distance_fails_the_check(self):
        def policy(rid, u, v):
            if rid % 97 == 0:
                return "A %d ok batched-index %d 1\n" % (rid, 7)
            return None

        report, _ = self.load(policy=policy)
        self.assertGreater(report["mismatches"], 0)


class CalmTimesTest(unittest.TestCase):
    def test_calm_starts_are_kept(self):
        # (seconds, steal ticks): 0.1 s allows 1 + 0.4 ticks.
        times = [(0.10, 0), (0.30, 9), (0.11, 1), (0.12, 0)]
        self.assertEqual(bench.calm_times(times, 3), [0.10, 0.11, 0.12])

    def test_least_stolen_when_too_few_are_calm(self):
        times = [(0.30, 9), (0.20, 5), (0.10, 0), (0.25, 7)]
        self.assertEqual(sorted(bench.calm_times(times, 3)), [0.10, 0.20, 0.25])


if __name__ == "__main__":
    unittest.main()
