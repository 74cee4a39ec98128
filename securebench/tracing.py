"""Layer-by-layer tracing of mpcnn from outside the library.

The tracer replaces public functions at the names their callers look them
up by (a module attribute, or a class attribute for methods) with wrappers
that record a span: name, role, inference id (the session id), start, end
and the enclosing span on the same thread. Spans stay in memory until the
run ends and are then folded into per-inference sums by `aggregate`.

A thread learns its role and inference id from the root calls it makes:
`runtime.establish(session)` on a party thread and
`dealer.derive_correlation(seed, session_id, ...)` on a dealer thread. The
id persists on the thread until the next such call, so the dealer's packing
of a response is charged to the request it answers.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import threading
import time
from collections import defaultdict

import numpy as np

from mpcnn import approx, arith, dealer, runtime, sharing, transport

import models

P0, P1, DEALER = 0, 1, 2

ARITH_OPS = ("beaver_mul", "conv2d", "matmul", "and_gate", "a2b", "gtz", "mux")
DEALER_KINDS = ("bitpair", "arith", "bool", "conv", "matmul")
MODEL_KINDS = ("conv", "relu", "silu", "maxpool", "mean", "linear", "reshape")
LAYER_CLASSES = (models.Conv, models.ReLU, models.SiLU, models.MaxPool, models.GlobalMean,
                 models.Linear, models.Upsample2x, models.Concat)


def unit(name: str) -> str:
    if name.endswith("_share"):
        return "ratio"
    if re.search(r"(^|[._])ms(_|$)", name):
        return "ms"
    if "bytes" in name:
        return "B"
    return "count"


class Span:
    __slots__ = ("id", "parent", "name", "role", "sid", "t0", "t1", "attrs")


def _online(session):
    t = session.transcript
    return t.bytes_sent + t.bytes_recv, t.rounds


def _dealer_bytes(session):
    t = session.dealer_transcript
    return t.bytes_sent + t.bytes_recv


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._restore: list = []

    def _wrap(self, owner, attr, name, ident=None, before=None, after=None):
        orig = getattr(owner, attr)
        tls, ids, spans, clock = self._tls, self._ids, self.spans, time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if ident is not None:
                tls.ident = ident(args)
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            sp = Span()
            sp.id = next(ids)
            sp.parent = stack[-1].id if stack else 0
            sp.name = name
            sp.role, sp.sid = getattr(tls, "ident", (None, None))
            state = before(args) if before is not None else None
            stack.append(sp)
            sp.t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                sp.t1 = clock()
                stack.pop()
            sp.attrs = after(args, result, state) if after is not None else None
            spans.append(sp)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def install(self):
        w = self._wrap
        w(runtime, "establish", "runtime.establish",
          ident=lambda a: (a[0].role.value, a[0].session_id))
        w(dealer, "derive_correlation", "dealer.derive",
          ident=lambda a: (DEALER, a[1]), after=lambda a, r, s: (a[1], a[2]))
        w(dealer.TripleSource, "take", "dealer.take",
          before=lambda a: _dealer_bytes(a[0].session),
          after=lambda a, r, s: (a[1].kind, int(np.prod(a[1].shape)), _dealer_bytes(a[0].session) - s))

        def ring_macs_conv(a, r, s):
            g = a[2]
            return r.size * g.in_channels * g.kernel_h * g.kernel_w

        def ring_macs_matmul(a, r, s):
            return a[0].shape[0] * a[0].shape[1] * a[1].shape[1]

        for mod in (arith, dealer):
            w(mod, "conv2d_ring", "ring.conv2d", after=ring_macs_conv)
            w(mod, "matmul_ring", "ring.matmul", after=ring_macs_matmul)
            w(mod, "words_to_bytes", "sharing.codec", after=lambda a, r, s: len(r))
            w(mod, "bytes_to_words", "sharing.codec", after=lambda a, r, s: len(a[0]))
        w(sharing, "words_to_bytes", "sharing.codec", after=lambda a, r, s: len(r))
        w(sharing, "bytes_to_words", "sharing.codec", after=lambda a, r, s: len(a[0]))
        w(sharing.Prg, "draw_words", "sharing.draw_words",
          after=lambda a, r, s: r.size)

        w(transport.Session, "exchange", "transport.exchange")
        w(transport.Session, "recv_from_peer", "transport.recv_from_peer")
        w(transport.Session, "recv_from_dealer", "transport.recv_from_dealer")

        def online_before(a):
            return _online(a[0].session)

        def online_after(a, r, s):
            b, rounds = _online(a[0].session)
            return b - s[0], rounds - s[1]

        for op in ARITH_OPS:
            if op == "a2b":
                w(arith, op, "arith.a2b", before=online_before,
                  after=lambda a, r, s: online_after(a, r, s) + (a[1].t.size,))
            else:
                w(arith, op, f"arith.{op}", before=online_before, after=online_after)

        w(approx, "sec_silu", "approx.silu",
          before=lambda a: _online(a[0].ctx.session)[1],
          after=lambda a, r, s: _online(a[0].ctx.session)[1] - s)

        def layer_before(a):
            sess = a[1].ctx.session
            return _online(sess) + (_dealer_bytes(sess),)

        def layer_after(a, r, s):
            sess = a[1].ctx.session
            b, rounds = _online(sess)
            return b - s[0], rounds - s[1], _dealer_bytes(sess) - s[2]

        for cls in LAYER_CLASSES:
            w(cls, "forward", f"model.{cls.kind}", before=layer_before, after=layer_after)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def dump(self, path: str):
        """Write every span as one JSON line: id, parent, name, role,
        inference id, start and end (perf_counter seconds), attributes."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.id, s.parent, s.name, s.role, s.sid, s.t0, s.t1, s.attrs]) + "\n")

    def party_root(self, fn):
        """Wrap a party's model code (everything after establish) in one
        span, so that per party the roots cover the inference."""
        tls, ids, spans, clock = self._tls, self._ids, self.spans, time.perf_counter

        def run(*args):
            sp = Span()
            sp.id, sp.parent, sp.name = next(ids), 0, "bench.party"
            sp.role, sp.sid = getattr(tls, "ident", (None, None))
            sp.attrs = None
            tls.stack = [sp]
            sp.t0 = clock()
            try:
                return fn(*args)
            finally:
                sp.t1 = clock()
                tls.stack = []
                spans.append(sp)

        return run


def aggregate(spans, sids) -> dict:
    """Fold spans of the given inferences into additive sums (not yet per
    inference). Sums from several processes merge by `merge`."""
    sids = set(sids)
    chosen = sorted((s for s in spans if s.sid in sids), key=lambda s: s.id)
    child_ms = defaultdict(float)
    for s in chosen:
        if s.parent:
            child_ms[s.parent] += (s.t1 - s.t0) * 1e3
    layer_of, op_of = {}, {}
    for s in chosen:  # parents open, and so are numbered, before children
        layer_of[s.id] = s if s.name.startswith("model.") else layer_of.get(s.parent)
        op_of[s.id] = s if s.name.startswith("arith.") else op_of.get(s.parent)
    out = defaultdict(float)
    derived = set()
    party_self = defaultdict(float)  # (role, sid) -> ms
    party_root = defaultdict(float)
    for s in chosen:
        ms = (s.t1 - s.t0) * 1e3
        party = s.role in (P0, P1)
        if party:
            party_self[(s.role, s.sid)] += ms - child_ms[s.id]
            if not s.parent:
                party_root[(s.role, s.sid)] += ms
        name, a = s.name, s.attrs
        layer = layer_of[s.id]
        if name.startswith("ring."):
            out["ring.party_ms" if party else "ring.dealer_ms"] += ms
            out["ring.calls"] += 1
            out["ring.macs"] += a
        elif name == "sharing.draw_words":
            out["sharing.prg_words"] += a
            out["sharing.prg_ms"] += ms
        elif name == "sharing.codec":
            out["sharing.codec_bytes"] += a
            out["sharing.codec_ms"] += ms
        elif name.startswith("transport."):
            if name == "transport.exchange":
                out["transport.exchange_calls"] += 1
                out["transport.exchange_ms"] += ms
            elif name == "transport.recv_from_dealer":
                out["transport.dealer_wait_ms"] += ms
            if layer is not None and layer.role == P0:
                key = "dealer_wait_ms" if name == "transport.recv_from_dealer" else "peer_wait_ms"
                out[f"{layer.name}.{key}"] += ms
        elif name == "dealer.derive":
            out["dealer.derive_calls"] += 1
            out["dealer.derive_ms"] += ms
            derived.add((s.sid, a[1]))
        elif name == "dealer.take":
            kind, elems, nbytes = a
            out["dealer.take_ms"] += ms
            out[f"dealer.{kind}_bytes"] += nbytes
            op = op_of[s.id]
            if kind == "bitpair" and op is not None and op.name == "arith.a2b":
                out["dealer.a2b_bitpairs"] += elems
        elif name.startswith("arith."):
            out[f"{name}.calls"] += 1
            out[f"{name}.ms"] += ms
            out[f"{name}.self_ms"] += ms - child_ms[s.id]
            if s.role == P0:
                out[f"{name}.online_bytes"] += a[0]
            if name == "arith.a2b":
                out["dealer.a2b_elems"] += a[2]
        elif name == "approx.silu":
            out["approx.silu.calls"] += 1
            out["approx.silu.ms"] += ms
            if s.role == P0:
                out["approx.silu.rounds"] += a
        elif name.startswith("model."):
            out[f"{name}.dealer_bytes"] += a[2]
            if s.role == P0:
                out[f"{name}.ms"] += ms
                out[f"{name}.online_bytes"] += a[0]
                out[f"{name}.rounds"] += a[1]
        elif name == "runtime.establish" and s.role == P0:
            out["runtime.establish_ms"] += ms
    out["dealer.correlations"] += len(derived)
    return {
        "sums": dict(out),
        "party_self": {f"{r}:{sid}": v for (r, sid), v in party_self.items()},
        "party_root": {f"{r}:{sid}": v for (r, sid), v in party_root.items()},
    }


def merge(parts) -> dict:
    total = {"sums": defaultdict(float), "party_self": {}, "party_root": {}}
    for p in parts:
        for k, v in p["sums"].items():
            total["sums"][k] += v
        total["party_self"].update(p["party_self"])
        total["party_root"].update(p["party_root"])
    return total


def per_layer_metrics(agg: dict, walls: dict, p1_walls: dict) -> tuple:
    """Per-inference metrics from merged sums. `walls` maps inference id to
    the harness-measured inference wall time (ms) and `p1_walls` to P1's.
    Returns (metrics, problems)."""
    s = agg["sums"]
    n = len(walls)
    m = {}

    def per(key):
        m[f"{key}_per_inf"] = s.get(key, 0.0) / n

    for k in ("ring.party_ms", "ring.dealer_ms", "ring.calls", "ring.macs",
              "sharing.prg_words", "sharing.prg_ms", "sharing.codec_bytes", "sharing.codec_ms",
              "transport.exchange_calls", "transport.exchange_ms", "transport.dealer_wait_ms",
              "dealer.derive_calls", "dealer.derive_ms", "dealer.take_ms"):
        per(k)
    m["dealer.derivations_per_request"] = s.get("dealer.derive_calls", 0.0) / max(s.get("dealer.correlations", 0.0), 1.0)
    m["dealer.bitpair_words_per_a2b_elem"] = s.get("dealer.a2b_bitpairs", 0.0) / max(s.get("dealer.a2b_elems", 0.0), 1.0)
    for kind in DEALER_KINDS:
        per(f"dealer.{kind}_bytes")
    for op in ARITH_OPS:
        for q in ("calls", "ms", "self_ms", "online_bytes"):
            per(f"arith.{op}.{q}")
    for q in ("calls", "ms", "rounds"):
        per(f"approx.silu.{q}")
    for kind in MODEL_KINDS:
        for q in ("ms", "rounds", "online_bytes", "dealer_bytes", "peer_wait_ms", "dealer_wait_ms"):
            per(f"model.{kind}.{q}")
    per("runtime.establish_ms")
    roots0 = sum(agg["party_root"].get(f"{P0}:{sid}", 0.0) for sid in walls)
    m["runtime.session_overhead_ms_per_inf"] = (sum(walls.values()) - roots0) / n

    problems = []
    shares = {P0: [], P1: []}
    for role, wall_of in ((P0, walls), (P1, p1_walls)):
        for sid, wall in wall_of.items():
            key = f"{role}:{sid}"
            self_ms, root_ms = agg["party_self"].get(key, 0.0), agg["party_root"].get(key, 0.0)
            if abs(self_ms - root_ms) > 1e-6 * max(root_ms, 1.0):
                problems.append(f"role {role} inference {sid}: self times {self_ms:.3f} ms != root spans {root_ms:.3f} ms")
            shares[role].append(self_ms / wall)
    for role, name in ((P0, "p0"), (P1, "p1")):
        share = float(np.median(shares[role]))
        m[f"trace.{name}_self_share"] = share
        if not 0.9 <= share <= 1.0 + 1e-9:
            problems.append(f"{name} self times cover {share:.3f} of the inference wall time")
    return m, problems
