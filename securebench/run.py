#!/usr/bin/env python3
"""Secure-inference benchmark for mpcnn.

    python3 securebench/run.py --workload compactcnn-inproc --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ./src, never
from an installed copy, and the script exits non-zero without a result if
it is missing. One closed-loop client keeps one secure inference in flight
at a time for --seconds, checks every output (see infer.py) and prints the
end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1) as the last line of standard output, one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")  # BENCH_*.json results and *.spans.jsonl traces

# workload -> (network, fabric)
WORKLOADS = {
    "compactcnn-inproc": ("compactcnn", "inproc"),
    "detector-inproc": ("detector", "inproc"),
    "compactcnn-tcp": ("compactcnn", "tcp"),
}
SETUP_REPS = 5  # set-ups per run; setup_s is their median
TAIL_MIN_SAMPLES = 40
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_inf": "ms",
    "online_bytes_per_inf": "B",
    "online_rounds_per_inf": "count",
    "dealer_bytes_per_inf": "B",
    "dealer_requests_per_inf": "count",
    "peak_rss_mb": "MB",
}


def import_library():
    """Put the checkout's src/ first on the path, or fail without a result."""
    if not os.path.isfile(os.path.join(SRC, "mpcnn", "__init__.py")):
        sys.exit(f"securebench: no mpcnn package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import mpcnn

    if os.path.dirname(os.path.dirname(os.path.abspath(mpcnn.__file__))) != SRC:
        sys.exit(f"securebench: imported mpcnn from {mpcnn.__file__}, not from {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Record:
    """One attempted inference."""

    index: int
    sid: int
    wall_ms: float = 0.0
    cpu_ms: float = 0.0
    p1_wall_ms: float = 0.0
    out: object = None
    led0: dict = field(default_factory=dict)
    led1: dict = field(default_factory=dict)
    rerequests: int = 0
    error: str | None = None


# ---------------------------------------------------------------------------
# backends: where the three roles run


class InProc:
    """P0, P1 and the dealer on threads of this process, through LocalRuntime."""

    def __init__(self, prep):
        self.prep = prep
        self.rt = None
        self.tracer = None
        self._rerequests = 0

    def setup(self, index: int):
        from mpcnn.runtime import LocalRuntime

        self.close()
        t0 = time.perf_counter()
        self.rt = LocalRuntime()
        self._rerequests = 0
        rec = self.infer(index)
        return time.perf_counter() - t0, rec

    def infer(self, index: int) -> Record:
        from mpcnn.transport import Role

        import infer

        p = self.prep
        fn0 = infer.party_fn(p.model, x=p.inputs[index % infer.POOL])
        fn1 = infer.party_fn(p.model, weights=p.weights)
        if self.tracer is not None:
            fn0, fn1 = self.tracer.party_root(fn0), self.tracer.party_root(fn1)
        rec = Record(index, self.rt.new_session_id())
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            res = self.rt.run_session(fn0, fn1, session_id=rec.sid)
        except Exception as e:  # a failed inference is counted, not fatal
            rec.error = f"{type(e).__name__}: {e}"
            return rec
        rec.wall_ms = (time.perf_counter() - t0) * 1e3
        rec.cpu_ms = (time.process_time() - c0) * 1e3
        rec.p1_wall_ms = rec.wall_ms
        (rec.out, rec.led0), (_, rec.led1) = res[Role.P0], res[Role.P1]
        total = self.rt.dealer.rerequest_count()
        rec.rerequests, self._rerequests = total - self._rerequests, total
        return rec

    def trace_on(self, tracer):
        self.tracer = tracer
        tracer.install()

    def trace_parts(self, sids, stem: str) -> list:
        import tracing

        self.tracer.dump(f"{stem}.spans.jsonl")
        return [tracing.aggregate(self.tracer.spans, sids)]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self):
        if self.rt is not None:
            self.rt.close()
            self.rt = None


class Child:
    """A role in its own process, driven by JSON lines on stdin/stdout."""

    def __init__(self, role: str, model_name: str, seed: int):
        cmd = [sys.executable, os.path.join(HERE, "tcp_role.py"), "--role", role,
               "--model", model_name, "--seed", str(seed)]
        self.role = role
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)

    def send(self, **msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.role} process ended (exit code {self.proc.wait()})")
        msg = json.loads(line)
        if "error" in msg:
            raise RuntimeError(f"{self.role}: {msg['error']}")
        return msg

    def ask(self, **msg) -> dict:
        self.send(**msg)
        return self.reply()

    def stop(self):
        try:
            if self.proc.poll() is None:
                self.send(cmd="exit")
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired, ValueError):
            self.proc.kill()
            self.proc.wait()


def _free_ports(n: int) -> list:
    import socket

    socks = [socket.socket() for _ in range(n)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class Tcp:
    """P0 in this process; P1 and the dealer each in a process of their own,
    all connected over TcpFabric on loopback. P0 drives the loop."""

    def __init__(self, prep, model_name: str, seed: int):
        self.prep = prep
        self.fab = None
        self.tracer = None
        self.children = {}
        for role in ("p1", "dealer"):  # both import in parallel
            self.children[role] = Child(role, model_name, seed)
        for child in self.children.values():
            child.reply()  # ready: interpreter started and imports done

    def setup(self, index: int):
        from mpcnn.transport import Role, TcpFabric

        self.close_fabric()
        peer_port, dealer_port = _free_ports(2)
        t0 = time.perf_counter()
        self.children["dealer"].send(cmd="setup", port=dealer_port)
        self.children["p1"].send(cmd="setup", peer=peer_port, dealer=dealer_port)
        self.fab = TcpFabric(Role.P0, listen_addr=("127.0.0.1", peer_port), dealer_addr=("127.0.0.1", dealer_port))
        for child in self.children.values():
            child.reply()
        rec = self.infer(index)
        return time.perf_counter() - t0, rec

    def infer(self, index: int) -> Record:
        from mpcnn import runtime
        from mpcnn.transport import Role, Session

        import infer

        p = self.prep
        fn0 = infer.party_fn(p.model, x=p.inputs[index % infer.POOL])
        if self.tracer is not None:
            fn0 = self.tracer.party_root(fn0)
        rec = Record(index, index + 1)
        self.children["p1"].send(cmd="run", sid=rec.sid)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rec.out, rec.led0 = fn0(runtime.establish(Session(self.fab, rec.sid, Role.P0)))
        except Exception as e:  # a failed inference is counted, not fatal
            rec.error = f"{type(e).__name__}: {e}"
        rec.wall_ms = (time.perf_counter() - t0) * 1e3
        rec.cpu_ms = (time.process_time() - c0) * 1e3
        try:
            p1 = self.children["p1"].reply()
            dealer = self.children["dealer"].ask(cmd="after", sid=rec.sid)
        except RuntimeError as e:
            rec.error = rec.error or str(e)
            return rec
        rec.led1, rec.p1_wall_ms = p1["ledger"], p1["wall_ms"]
        rec.cpu_ms += p1["cpu_ms"] + dealer["cpu_ms"]
        rec.rerequests = dealer["rerequests"]
        return rec

    def trace_on(self, tracer):
        self.tracer = tracer
        tracer.install()
        for child in self.children.values():
            child.ask(cmd="trace")

    def trace_parts(self, sids, stem: str) -> list:
        import tracing

        self.tracer.dump(f"{stem}.p0.spans.jsonl")
        parts = [tracing.aggregate(self.tracer.spans, sids)]
        for role, child in self.children.items():
            parts.append(child.ask(cmd="report", sids=list(sids), path=f"{stem}.{role}.spans.jsonl")["aggregate"])
        return parts

    def peak_rss_mb(self) -> float:
        return peak_rss_mb() + sum(c.ask(cmd="stats")["peak_rss_mb"] for c in self.children.values())

    def close_fabric(self):
        if self.fab is not None:
            self.fab.close()
            self.fab = None
            for child in self.children.values():
                child.ask(cmd="teardown")

    def close(self):
        try:
            self.close_fabric()
        finally:
            for child in self.children.values():
                child.stop()


# ---------------------------------------------------------------------------
# the run


class Run:
    """Attempts, checks and tallies inferences."""

    def __init__(self, model_name: str, prep, backend):
        self.model_name = model_name
        self.prep = prep
        self.backend = backend
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.decisions = 0
        self.index = 0

    def judge(self, rec: Record) -> Record:
        import infer

        self.attempted += 1
        if rec.error is None:
            ref, bound, _ = self.prep.refs[rec.index % infer.POOL]
            problems, checked = infer.check(self.model_name, rec.out, ref, bound, rec.led0, rec.led1,
                                            self.first, rec.rerequests)
            self.decisions += checked
            if self.first is None and not problems:
                self.first = (rec.led0, rec.led1)
        else:
            problems = [rec.error]
        if problems:
            self.failed += 1
            rec.error = "; ".join(problems)
            print(f"inference {rec.index} failed: {rec.error}", flush=True)
        return rec

    def setup(self, reps: int) -> list:
        times = []
        for _ in range(reps):
            seconds, rec = self.backend.setup(self.index)
            self.index += 1
            self.judge(rec)
            times.append(seconds)
        return times

    def measure(self, seconds: float) -> list:
        """Closed loop for `seconds`; returns the records that passed."""
        done = []
        deadline = time.perf_counter() + seconds
        while True:
            rec = self.judge(self.backend.infer(self.index))
            self.index += 1
            if rec.error is None:
                done.append(rec)
            if time.perf_counter() >= deadline:
                return done


def tail(latencies: list):
    """(percentile, value): the highest of a few percentiles with at least
    TAIL_BEYOND samples beyond it, or None below TAIL_MIN_SAMPLES samples."""
    n = len(latencies)
    if n < TAIL_MIN_SAMPLES:
        return None
    pct = max(p for p in (75, 90, 95, 99) if n * (100 - p) / 100 >= TAIL_BEYOND)
    return pct, statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


def e2e_metrics(setups: list, recs: list, rss: float) -> dict:
    n = len(recs)
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(r.wall_ms for r in recs),
        "cpu_ms_per_inf": sum(r.cpu_ms for r in recs) / n,
        "online_bytes_per_inf": sum(r.led0["sent"] + r.led0["recv"] for r in recs) / n,
        "online_rounds_per_inf": sum(r.led0["rounds"] for r in recs) / n,
        "dealer_bytes_per_inf": sum(r.led0["dealer_bytes"] + r.led1["dealer_bytes"] for r in recs) / n,
        "dealer_requests_per_inf": sum(r.led0["dealer_requests"] + r.led1["dealer_requests"] for r in recs) / n,
        "peak_rss_mb": rss,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    import infer
    import reference

    model_name, fabric = WORKLOADS[args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"BENCH_{args.workload}_seed{args.seed}" + ("_trace" if args.trace else ""))
    prep = infer.prepare(model_name, args.seed)
    peak_in = max(r[2] for r in prep.refs)
    backend = InProc(prep) if fabric == "inproc" else Tcp(prep, model_name, args.seed)
    run = Run(model_name, prep, backend)
    problems = []
    try:
        if not args.trace:
            setups = run.setup(SETUP_REPS)
            recs = run.measure(args.seconds)
            values = e2e_metrics(setups, recs, backend.peak_rss_mb())
            units = E2E_UNITS
            lat = [r.wall_ms for r in recs]
            t = tail(lat)
            print(f"{args.workload}: {len(recs)} timed inferences, setup runs {[round(s, 4) for s in setups]}")
            print(f"latency_tail_ms: " + (f"p{t[0]} = {t[1]:.3f} ms" if t else f"not reported ({len(lat)} < {TAIL_MIN_SAMPLES} samples)"))
        else:
            import tracing

            run.setup(1)
            plain = run.measure(args.seconds / 2)
            backend.trace_on(tracing.Tracer())
            traced = run.measure(args.seconds / 2)
            walls = {r.sid: r.wall_ms for r in traced}
            agg = tracing.merge(backend.trace_parts(walls, stem))
            values, problems = tracing.per_layer_metrics(agg, walls, {r.sid: r.p1_wall_ms for r in traced})
            p50_plain = statistics.median(r.wall_ms for r in plain)
            p50_traced = statistics.median(walls.values())
            values["trace.overhead_ms"] = p50_traced - p50_plain
            units = {k: tracing.unit(k) for k in values}
            print(f"{args.workload}: traced run, {len(plain)} untraced then {len(traced)} traced inferences")
            print(f"tracing overhead: latency_p50_ms {p50_plain:.3f} untraced, {p50_traced:.3f} traced "
                  f"({p50_traced - p50_plain:+.3f} ms)")
    finally:
        backend.close()
    print(f"decisions checked against the reference: {run.decisions}; "
          f"peak SiLU input {peak_in:.3f} (domain +-{reference.SILU_DOMAIN})")
    for p in problems:
        print(f"trace check failed: {p}")
    for k, v in values.items():
        print(f"{k}: {v:.6g} {units[k]}")
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    with open(f"{stem}.json", "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
