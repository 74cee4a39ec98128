"""One secure inference of a benchmark network, and the checks on it.

P0 holds the input and P1 the weights; both run the same party function on
their own shares and P0 alone receives the revealed output. The checks
compare the revealed output with the float64 reference in reference.py
(which does not import mpcnn) and the two parties' transcripts with each
other and with the first inference of the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mpcnn.engine import SecureEngine
from mpcnn.ring import decode, encode
from mpcnn.sharing import reveal, share_input
from mpcnn.transport import Role

import models
import reference

POOL = 8  # distinct inputs per run, used in turn


@dataclass
class Prepared:
    """A run's network, weights, input pool and reference outputs."""

    model: object
    weights: dict
    inputs: list
    refs: list  # (output, bound, peak SiLU input) per input


def prepare(model_name: str, seed: int) -> Prepared:
    model = models.MODELS[model_name]()
    rng = np.random.default_rng(seed)
    inputs = model.make_inputs(rng, POOL)
    weights = models.make_weights(model, rng, inputs)
    refs = [reference.forward_with_bound(model_name, weights, x) for x in inputs]
    return Prepared(model, weights, inputs, refs)


def ledger(session) -> dict:
    """The session's transcript counters as plain JSON values."""
    t, d = session.transcript, session.dealer_transcript
    return {
        "sent": t.bytes_sent,
        "recv": t.bytes_recv,
        "rounds": t.rounds,
        "tags": [list(x) for x in t.counters()[3]],
        "dealer_bytes": d.bytes_sent + d.bytes_recv,
        "dealer_requests": d.rounds,
        "dealer_tags": [list(x) for x in d.counters()[3]],
    }


def party_fn(model, x=None, weights=None):
    """fn(ctx) for one party: P0 passes the input, P1 the weights. Returns
    (revealed output or None, ledger)."""

    def fn(ctx):
        e = SecureEngine(ctx)
        params = models.share_params(ctx, model, weights)
        x_enc = encode(x, ctx.cfg) if x is not None else None
        xs = share_input(ctx.przs, x_enc, Role.P0, model.input_shape)
        out = model.forward(e, xs, params)
        revealed = reveal(ctx.session, out, to="p0")
        return (decode(revealed, ctx.cfg) if revealed is not None else None), ledger(ctx.session)

    return fn


def _top2(v):
    order = np.argsort(v)[::-1]
    return int(order[0]), float(v[order[0]] - v[order[1]])


def decision_problems(model_name: str, out, ref, bound) -> tuple:
    """Compare decisions wherever the reference's margin exceeds twice the
    bound. Returns (problems, number of decisions checked)."""
    problems, checked = [], 0
    if model_name == "compactcnn":
        pairs = [("class", out, ref, bound.max())]
    else:
        obj_ref, obj_out = ref[0].ravel(), out[0].ravel()
        cell, _ = _top2(obj_ref)
        pairs = [("cell", obj_out, obj_ref, bound[0].max()),
                 ("light state", out[5:].reshape(3, -1)[:, cell], ref[5:].reshape(3, -1)[:, cell], bound[5:].max())]
    for what, o, r, b in pairs:
        want, margin = _top2(r)
        if margin > 2 * b:
            checked += 1
            got = int(np.argmax(o))
            if got != want:
                problems.append(f"{what} {got} != reference {want} (margin {margin:.4f}, bound {b:.4f})")
    return problems, checked


def check(model_name: str, out, ref, bound, led0: dict, led1: dict, first, rerequests: int) -> tuple:
    """Every check on one inference. `first` is the (led0, led1) pair of the
    run's first inference, or None for that inference itself. Returns
    (problems, decisions checked)."""
    problems = []
    err = np.abs(out - ref)
    if not np.all(err <= bound):
        i = int(np.argmax(err - bound))
        problems.append(f"output {out.ravel()[i]:.5f} off reference {ref.ravel()[i]:.5f} "
                        f"by more than the bound {bound.ravel()[i]:.5f}")
    found, checked = decision_problems(model_name, out, ref, bound)
    problems += found
    if led0["sent"] != led1["recv"] or led0["recv"] != led1["sent"]:
        problems.append(f"bytes differ: P0 sent {led0['sent']} recv {led0['recv']}, "
                        f"P1 sent {led1['sent']} recv {led1['recv']}")
    if led0["rounds"] != led1["rounds"]:
        problems.append(f"rounds differ: P0 {led0['rounds']}, P1 {led1['rounds']}")
    if first is not None and (led0, led1) != first:
        problems.append("transcript counters differ from the run's first inference")
    if rerequests:
        problems.append(f"dealer saw {rerequests} re-requests")
    return problems, checked
