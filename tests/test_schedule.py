"""Comparisons in flight: gtz's openings ride the session's later openings.

Each merged exchange is one frame and one round, and every part's bytes and
phase count under its own tag, so per-tag ledgers are those of running each
opening alone. Reading a comparison's bit runs its remaining openings alone.
Peers that disagree on a frame's composition raise ProtocolError. Fixed
seeds pin one detector inference's output words and per-tag ledger to those
of the unscheduled comparison, so the scheduler moves no mask and no share.
"""

import hashlib
import os
import sys
import time

import numpy as np
import pytest

from mpcnn import approx, arith, dealer, sharing
from mpcnn.engine import SecureEngine
from mpcnn.ring import FixedPointConfig, encode, gtz_plain
from mpcnn.runtime import LocalRuntime
from mpcnn.sharing import reveal, share_input
from mpcnn.transport import ProtocolError, Role

from conftest import run_tcp_with_dealer

CFG = FixedPointConfig(16)
RNG = np.random.default_rng(2024)
SEED = bytes(range(32))
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "securebench")


def shared(ctx, x, holder=Role.P0):
    return share_input(ctx.przs, x if ctx.role is holder else None, holder, x.shape)


def rand_fixed(n, lo=-64.0, hi=64.0):
    return encode(RNG.uniform(lo, hi, n), CFG)


def gtz_bytes(n):
    """Bytes one party sends in a gtz on n elements at cmp_bits = 31."""
    return 4 * n + 2 * 8 * 55 * -(-n // 64)


def select_bytes(n):
    return 8 * n + -(-n // 8)


def tags(counters):
    return {tag: (sent, recv, phases) for tag, sent, recv, phases in counters[3]}


@pytest.fixture(scope="module")
def rt():
    with LocalRuntime() as runtime:
        yield runtime


@pytest.fixture
def fixed_seeds(monkeypatch):
    """Every session and dealer seed is SEED. Both parties draw theirs on
    their own threads, so one constant keeps runs independent of thread
    order."""
    monkeypatch.setattr(sharing, "fresh_seed", lambda: SEED)
    monkeypatch.setattr(dealer, "fresh_seed", lambda: SEED)


def test_comparison_with_nothing_to_ride_takes_6_rounds(rt):
    # local work between the comparison and its reader opens nothing, so the
    # mask and the 5 AND levels run alone when the select reads the bit
    x = rand_fixed(100)

    def fn(ctx):
        e = SecureEngine(ctx)
        xs = shared(ctx, x)
        bit = arith.gtz(ctx, xs)
        y = e.trunc(e.add_const(e.mul_const_int(xs, 3), 1.0), 2)
        quiet = ctx.session.measure().rounds
        bit.t
        read = ctx.session.measure().rounds
        z = arith.select(ctx, bit, y)
        rounds = quiet, read, ctx.session.measure().rounds
        return rounds, [reveal(ctx.session, v) for v in (bit, y, z)]

    for rounds, (bit, y, z) in rt.run_session(fn, fn, cfg=CFG).values():
        assert rounds == (0, 6, 7)
        assert bit == gtz_plain(x) and z == y * bit


def test_two_overlapping_comparisons(rt):
    # a and b start together; one product carries its own opening and both
    # masks; reading a runs a's 5 AND levels alone, and the select on a
    # carries b's first level; reading b runs its last 4 alone. 1 + 6 + 5
    # rounds where one after the other would take 1 + 7 + 7, and every tag
    # sees the bytes and phases of running each opening alone
    n, m = 100, 70
    x, y, u = rand_fixed(n), rand_fixed(m), rand_fixed(n, -4.0, 4.0)

    def fn(ctx):
        xs, ys, us = shared(ctx, x), shared(ctx, y), shared(ctx, u, Role.P1)
        a, b = arith.gtz(ctx, xs), arith.gtz(ctx, ys)
        rounds = [ctx.session.measure().rounds]
        prod = arith.beaver_mul(ctx, us, us)
        rounds.append(ctx.session.measure().rounds)
        ra = arith.select(ctx, a, xs)
        rounds.append(ctx.session.measure().rounds)
        rb = arith.select(ctx, b, ys)
        rounds.append(ctx.session.measure().rounds)
        counters = ctx.session.measure().counters()
        return rounds, counters, [reveal(ctx.session, v) for v in (prod, ra, rb)]

    vals = rt.run_session(fn, fn, cfg=CFG)
    for rounds, counters, (prod, ra, rb) in vals.values():
        assert rounds == [0, 1, 7, 12]
        assert tags(counters) == {
            "gtz.mask": (4 * (n + m),) * 2 + (2,),
            "gtz.and": (gtz_bytes(n) - 4 * n + gtz_bytes(m) - 4 * m,) * 2 + (10,),
            "mul.open": (16 * n,) * 2 + (1,),
            "select.open": (select_bytes(n) + select_bytes(m),) * 2 + (2,),
        }
        assert prod == u * u
        assert ra == x * gtz_plain(x) and rb == y * gtz_plain(y)


def test_silu_in_7_rounds_and_as_over_tcp(fixed_seeds):
    # in-process, SiLU's mask rides t's product and its AND levels 1-3 the
    # three Chebyshev products: 4 + 2 + 1 rounds, with every tag's bytes and
    # phases those of the unscheduled circuit (see test_approx.test_exact_cost);
    # over TCP the same seeds give the same output words and ledgers
    n, m = 100, 200
    xw = encode(RNG.uniform(-16, 16, n), CFG)

    def fn(ctx):
        out = reveal(ctx.session, approx.sec_silu(SecureEngine(ctx), shared(ctx, xw)))
        return out, ctx.session.measure().counters(), ctx.session.dealer_transcript.counters()

    with LocalRuntime() as runtime:
        inproc = runtime.run_session(fn, fn, cfg=CFG)
    tcp = run_tcp_with_dealer(fn, CFG)
    for role in (Role.P0, Role.P1):
        out, party, dealt = inproc[role]
        assert party[2] == 7 + 1  # and the reveal
        assert tags(party) == {
            "gtz.mask": (4 * m,) * 2 + (1,),
            "gtz.and": (gtz_bytes(m) - 4 * m,) * 2 + (5,),
            "mul.open": (16 * 8 * n,) * 2 + (4,),
            "select.open": (select_bytes(m),) * 2 + (1,),
            "reveal": (8 * n,) * 2 + (1,),
        }
        assert tcp[role][0] == out
        assert tcp[role][1:] == (party, dealt)


def test_schedule_mismatch_raises(rt, monkeypatch):
    # P0 reads its bit at once and P1 lets the mask ride a product: their
    # first frames differ in composition, and both raise ProtocolError long
    # before the timeout instead of computing on misread bytes
    monkeypatch.setenv("MPCNN_TIMEOUT_MS", "5000")
    x = rand_fixed(100)

    def fn(ctx):
        xs = shared(ctx, x)
        bit = arith.gtz(ctx, xs)
        if ctx.role is Role.P0:
            bit.t
        arith.beaver_mul(ctx, xs, xs)
        return reveal(ctx.session, arith.select(ctx, bit, xs))

    t0 = time.perf_counter()
    with pytest.raises(ProtocolError, match="tag mismatch"):
        rt.run_session(fn, fn, cfg=CFG)
    assert time.perf_counter() - t0 < 5.0


def test_detector_output_words_unchanged(fixed_seeds):
    # one detector inference at fixed seeds: P0's revealed output words and
    # both parties' per-tag ledgers hash as they did when every comparison
    # ran its openings alone (42 rounds); only the round total moved, to 34
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import infer
    import models

    prep = infer.prepare("detector", seed=5)

    def party(x=None, weights=None):
        def fn(ctx):
            params = models.share_params(ctx, prep.model, weights)
            xw = encode(x, ctx.cfg) if x is not None else None
            xs = share_input(ctx.przs, xw, Role.P0, prep.model.input_shape)
            out = reveal(ctx.session, prep.model.forward(SecureEngine(ctx), xs, params), to="p0")
            return out, ctx.session.measure().counters()

        return fn

    with LocalRuntime() as runtime:
        res = runtime.run_session(party(x=prep.inputs[0]), party(weights=prep.weights))
    (out, c0), (_, c1) = res[Role.P0], res[Role.P1]
    assert c0[2] == c1[2] == 34
    assert hashlib.sha256(out.data.astype("<u8").tobytes()).hexdigest() == (
        "276d6f334460c2f05a0c68589cb4e8523322812df266d3641a82f635abba145d")
    ledger = repr([[list(t) for t in c0[3]], [list(t) for t in c1[3]]]).encode()
    assert hashlib.sha256(ledger).hexdigest() == (
        "ec6bd927b0572484a8fb5e2040933a657f3e27dc8f532f35c70e361fd9c8ec0e")
