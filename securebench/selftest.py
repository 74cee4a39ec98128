#!/usr/bin/env python3
"""Shows that every check in infer.py trips on a corrupted run.

    python3 securebench/selftest.py

Runs CompactCNN through LocalRuntime once cleanly, then once per check with
a party that misbehaves in the way that check exists to catch, and exits
non-zero unless the clean run passes and each check trips:

- output bound: P1 shares a model whose logit biases are off by 1.0;
- decision: P1 shares a model whose runner-up logit bias beats the winner;
- byte and round symmetry: after the inference P1 sends a frame that P0
  never reads;
- transcript equal to the first inference: after the inference both parties
  exchange one more word;
- dealer re-requests: after the inference P0 asks the dealer again for an
  index it already had.
"""

from __future__ import annotations

import copy
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mpcnn.runtime import LocalRuntime  # noqa: E402
from mpcnn.transport import Role  # noqa: E402

import infer  # noqa: E402

MODEL = "compactcnn"


def shifted_bias(weights, delta):
    bad = copy.deepcopy(weights)
    bad["fc"]["b"] = bad["fc"]["b"] + delta
    return bad


def stray_frame(ctx):
    if ctx.role is Role.P1:
        ctx.session.send_to_peer("stray", bytes(8))


def extra_exchange(ctx):
    ctx.session.exchange("extra", bytes(8))


def rerequest(ctx):
    if ctx.role is Role.P0:
        ctx.triples.next_index -= 1
        ctx.triples.arith((1,))


def then(fn, after):
    """Run the party function, then `after(ctx)`; the ledger includes it."""

    def run(ctx):
        out, _ = fn(ctx)
        after(ctx)
        return out, infer.ledger(ctx.session)

    return run


def main() -> int:
    prep = infer.prepare(MODEL, seed=7)
    ref, bound, _ = prep.refs[0]
    flip = np.zeros((1, 2))
    flip[0, 1 - int(np.argmax(ref))] = abs(ref[0] - ref[1]) + 1.0
    cases = [
        ("clean run", prep.weights, None, None),
        ("output bound", shifted_bias(prep.weights, 1.0), None, "off reference"),
        ("decision", shifted_bias(prep.weights, flip), None, "!= reference"),
        ("byte symmetry", prep.weights, stray_frame, "bytes differ"),
        ("round symmetry", prep.weights, stray_frame, "rounds differ"),
        ("same transcript as the first inference", prep.weights, extra_exchange, "differ from the run's first"),
        ("no dealer re-requests", prep.weights, rerequest, "re-requests"),
    ]
    ok = True
    first, seen = None, 0
    with LocalRuntime() as rt:
        for name, weights, after, expect in cases:
            fns = [infer.party_fn(prep.model, x=prep.inputs[0]), infer.party_fn(prep.model, weights=weights)]
            if after is not None:
                fns = [then(fn, after) for fn in fns]
            res = rt.run_session(*fns)
            (out, led0), (_, led1) = res[Role.P0], res[Role.P1]
            total = rt.dealer.rerequest_count()
            problems, _ = infer.check(MODEL, out, ref, bound, led0, led1, first, total - seen)
            seen = total
            first = first or (led0, led1)
            tripped = [p for p in problems if expect and expect in p]
            passed = not problems if expect is None else bool(tripped)
            ok &= passed
            detail = f" ({tripped[0]})" if tripped else (f" ({problems})" if problems else "")
            print(f"{'ok  ' if passed else 'FAIL'} {name}: check {'passes' if expect is None else 'trips'}{detail}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
