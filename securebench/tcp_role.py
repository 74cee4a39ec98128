"""P1 or the dealer of the compactcnn-tcp workload, in a process of its own.

Started by run.py, which plays P0 and drives this process with one JSON
command per line on stdin; every command gets exactly one JSON line back on
stdout. Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mpcnn import runtime  # noqa: E402
from mpcnn.dealer import DealerService  # noqa: E402
from mpcnn.transport import Role, Session, TcpFabric  # noqa: E402

import infer  # noqa: E402
import tracing  # noqa: E402

LOOPBACK = "127.0.0.1"


class P1:
    def __init__(self, prep):
        self.prep = prep
        self.fab = None
        self.tracer = None

    def setup(self, peer, dealer):
        self.fab = TcpFabric(Role.P1, peer_addr=(LOOPBACK, peer), dealer_addr=(LOOPBACK, dealer))
        return {}

    def run(self, sid):
        fn = infer.party_fn(self.prep.model, weights=self.prep.weights)
        if self.tracer is not None:
            fn = self.tracer.party_root(fn)
        c0, t0 = time.process_time(), time.perf_counter()
        _, led = fn(runtime.establish(Session(self.fab, sid, Role.P1)))
        return {"ledger": led, "wall_ms": (time.perf_counter() - t0) * 1e3,
                "cpu_ms": (time.process_time() - c0) * 1e3}

    def teardown(self):
        self.fab.close()
        self.fab = None
        return {}


class Dealer:
    def __init__(self, prep):
        self.fab = None
        self.svc = None
        self.tracer = None

    def setup(self, port):
        self.fab = TcpFabric(Role.DEALER, listen_addr=(LOOPBACK, port))
        self.svc = DealerService(self.fab).start()
        self._cpu, self._rerequests = time.process_time(), 0
        return {}

    def after(self, sid):
        """CPU time and re-requests since the previous inference."""
        cpu, total = time.process_time(), self.svc.rerequest_count()
        out = {"cpu_ms": (cpu - self._cpu) * 1e3, "rerequests": total - self._rerequests}
        self._cpu, self._rerequests = cpu, total
        return out

    def teardown(self):
        self.svc.stop()
        self.fab.close()
        self.fab = self.svc = None
        return {}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("p1", "dealer"), required=True)
    ap.add_argument("--model", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    prep = infer.prepare(args.model, args.seed) if args.role == "p1" else None
    agent = P1(prep) if args.role == "p1" else Dealer(prep)

    def emit(msg):
        sys.stdout.write(json.dumps(msg) + "\n")
        sys.stdout.flush()

    emit({"ready": True})
    for line in sys.stdin:
        msg = json.loads(line)
        cmd = msg.pop("cmd")
        if cmd == "exit":
            break
        try:
            if cmd == "trace":
                agent.tracer = tracing.Tracer()
                agent.tracer.install()
                reply = {}
            elif cmd == "report":
                agent.tracer.dump(msg["path"])
                reply = {"aggregate": tracing.aggregate(agent.tracer.spans, msg["sids"])}
            elif cmd == "stats":
                reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            else:
                reply = getattr(agent, cmd)(**msg)
        except Exception as e:  # reported to P0, which counts the inference as failed
            traceback.print_exc()
            reply = {"error": f"{type(e).__name__}: {e}"}
        emit(reply)
    if agent.fab is not None:
        agent.teardown()


if __name__ == "__main__":
    main()
