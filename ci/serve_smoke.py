#!/usr/bin/env python3
"""CI smoke for the tuning service's crash-safety story.

Drives the real `eatss-serve` binary end to end: a chaos mix of valid,
infeasible, and malformed requests; SIGKILL with a request mid-flight;
restart on the same cache directory; then asserts the warm-start hit
rate is positive, the recovery counters are clean and the journal is
the directory's one `journal.log`. Two inline sources
that differ only in which array each read names ride along: they must be
two cache entries with two answers before the kill and after the restart.
Along the way it scrapes the `metrics` op (mid-load and after restart,
asserting the stage histograms and self-monitoring gauges are live) and
validates the `trace` op's Chrome export with `trace_check` when its path
is given.

Usage: serve_smoke.py /path/to/eatss-serve [/path/to/trace_check]
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time


def identity_source(*reads):
    """One 2-D kernel shape; only the arrays the four reads name vary."""
    rhs = " + ".join(f"{a}[i][j+{k}]" for k, a in enumerate(reads))
    return {
        "source": f"kernel k(N) {{ for (i: N) for (j: N) B[i][j] = {rhs}; }}",
        "n": 4000,
    }


# Same name lengths, different line sharing, different optima: a cache key
# blind to array identity would answer the second with the first's tiles.
IDENTITY = [identity_source("A", "A", "A", "A"), identity_source("A", "C", "D", "E")]

SELECTS = [
    {"kernel": "gemm", "n": 1024},
    {"kernel": "atax", "n": 2000},
    {"kernel": "bicg", "n": 512},
    {"kernel": "gemm", "n": 8},  # provably unsatisfiable: a cached verdict
] + IDENTITY


def spawn(binary, cache_dir):
    proc = subprocess.Popen(
        [binary, "--addr", "127.0.0.1:0", "--cache-dir", cache_dir, "--workers", "2"],
        stdout=subprocess.PIPE,
        text=True,
    )
    ready = json.loads(proc.stdout.readline())
    assert ready.get("ready") is True, ready
    return proc, ready


def connect(addr):
    host, port = addr.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=60)
    return sock, sock.makefile("r")


def request(sock, lines, payload):
    sock.sendall((json.dumps(payload) + "\n").encode())
    return json.loads(lines.readline())


def scrape_metrics(sock, lines, phase):
    """The `metrics` op must expose live stage histograms and gauges."""
    reply = request(sock, lines, {"op": "metrics"})
    assert reply["status"] == "ok", reply
    metrics = reply["metrics"]
    hist = metrics["histograms"]
    for name in ("serve.request_us", "serve.solve_us"):
        assert name in hist, (phase, sorted(hist))
        h = hist[name]
        assert h["count"] >= 1, (phase, name, h)
        assert h["p50"] <= h["p99"] <= h["max"], (phase, name, h)
    gauges = metrics["gauges"]
    for name in ("journal.garbage_ratio", "serve.queue_depth", "serve.in_flight"):
        assert name in gauges, (phase, sorted(gauges))
    assert "serve_request_us_bucket" in reply["prometheus"], reply["prometheus"][:200]
    print(
        f"{phase}: metrics scrape ok — serve.solve_us count "
        f"{hist['serve.solve_us']['count']}, garbage ratio "
        f"{gauges['journal.garbage_ratio']}"
    )


def check_trace_op(sock, lines, trace_check, cache_dir):
    """The `trace` op's export must be a valid Chrome trace."""
    reply = request(sock, lines, {"op": "trace", "which": "slowest", "limit": 1})
    assert reply["status"] == "ok", reply
    assert len(reply["requests"]) == 1, reply["requests"]
    assert reply["trace"]["traceEvents"], "empty trace export"
    if not trace_check:
        return
    path = os.path.join(cache_dir, "slowest.trace.json")
    with open(path, "w") as f:
        json.dump(reply["trace"], f)
    subprocess.run(
        [
            trace_check,
            "--expect-histogram", "serve.request_us",
            path,
        ],
        check=True,
    )
    print(f"trace op: slowest-request export passed {os.path.basename(trace_check)}")


def main():
    binary = sys.argv[1]
    trace_check = sys.argv[2] if len(sys.argv) > 2 else None
    cache_dir = tempfile.mkdtemp(prefix="eatss-serve-smoke-")

    # Phase 1: chaos mix, then SIGKILL with a request in flight.
    proc, ready = spawn(binary, cache_dir)
    assert ready["replayed"] == 0, ready
    sock, lines = connect(ready["addr"])
    committed = []
    for args in SELECTS:
        reply = request(sock, lines, args)
        assert reply["status"] in ("ok", "infeasible"), reply
        assert reply["cache"] == "miss", reply
        committed.append((args, reply["status"], reply.get("tiles")))
    # The array-identity pair: two misses above, and two different answers
    # (phase 2 asserts both come back as hits with these same tiles).
    shared, distinct = (tiles for args, _, tiles in committed if args in IDENTITY)
    assert shared and distinct and shared != distinct, (shared, distinct)
    # Malformed garbage must get typed errors, not kill the connection.
    sock.sendall(b"this is not json\n")
    assert json.loads(lines.readline())["error"]["kind"] == "bad_json"
    assert request(sock, lines, {"kernel": "nope"})["error"]["kind"] == "unknown_kernel"
    # A `sizes` the daemon cannot use is an error, never a reason to
    # answer for the default dataset instead.
    reply = request(sock, lines, {"kernel": "gemm", "sizes": [1, 2]})
    assert reply.get("error", {}).get("kind") == "bad_field", reply
    assert request(sock, lines, {"op": "ping"})["status"] == "ok"
    # Mid-load observability: histograms have samples, gauges are live,
    # and the flight recorder can export its slowest request.
    scrape_metrics(sock, lines, "phase 1")
    check_trace_op(sock, lines, trace_check, cache_dir)
    # Fire a request and kill the daemon while it is (possibly) solving.
    sock.sendall((json.dumps({"kernel": "mvt", "n": 4000}) + "\n").encode())
    time.sleep(0.05)
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait()
    print(f"phase 1: committed {len(committed)} entries, SIGKILLed pid {proc.pid}")

    # Phase 2: restart on the same directory — committed entries must
    # replay, recovery must be clean, and re-requests must be warm hits.
    proc, ready = spawn(binary, cache_dir)
    print(f"phase 2 ready line: {json.dumps(ready)}")
    assert ready["replayed"] >= len(committed), ready
    assert ready["corrupt_records_skipped"] == 0, ready
    # The journal is one file (the trace export beside it is `.json`).
    logs = sorted(f for f in os.listdir(cache_dir) if f.endswith(".log"))
    assert logs == ["journal.log"], logs
    sock, lines = connect(ready["addr"])
    for args, status, tiles in committed:
        reply = request(sock, lines, args)
        assert reply["status"] == status, reply
        assert reply["cache"] == "hit", reply
        assert reply.get("tiles") == tiles, reply
    # A fresh key solves post-restart, so the restarted process's stage
    # histograms are live too.
    reply = request(sock, lines, {"kernel": "gesummv", "n": 1500})
    assert reply["status"] in ("ok", "infeasible"), reply
    scrape_metrics(sock, lines, "phase 2")
    stats = request(sock, lines, {"op": "stats"})
    hits = stats["cache"]["hits"]
    misses = stats["cache"]["misses"]
    assert hits >= len(committed) and misses == 1, stats["cache"]
    assert request(sock, lines, {"op": "shutdown"})["status"] == "ok"
    assert proc.wait(timeout=30) == 0
    print(
        f"serve smoke PASS: replayed {ready['replayed']}, "
        f"warm hit rate {hits}/{hits + misses}, recovery clean"
    )


if __name__ == "__main__":
    main()
