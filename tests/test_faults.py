"""Frame faults: one frame of a small session cut short, sent twice, never
sent, or sent after the next frame to the same role ends the session in a
typed TransportError within the timeout, or leaves its output as it was; it
never hangs, crashes untyped or gives a wrong number."""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mpcnn import arith
from mpcnn.ring import RingTensor
from mpcnn.runtime import establish, run_pair_raw
from mpcnn.sharing import reveal, share_input
from mpcnn.transport import DealerError, Role, TransportError

from conftest import inproc_with_dealer, tcp_with_dealer

TIMEOUT_MS = 150
MARGIN_S = 2.0
X = RingTensor(np.array([3, -2, 0, 5], dtype=np.int64).astype(np.uint64))
FAULTS = ("truncate", "duplicate", "drop", "reorder")


def probe(sess):
    """Share a 4-element input, square it, keep the squares of its positive
    entries and reveal them to P0. Returns (output, frames sent to each
    role, frames read from each role), or the error that ended the party."""
    try:
        ctx = establish(sess)
        x = share_input(ctx.przs, X if sess.role is Role.P0 else None, Role.P0, X.shape)
        sq = arith.beaver_mul(ctx, x, x)
        out = reveal(sess, arith.select(ctx, arith.gtz(ctx, x), sq), to="p0")
        return out, dict(sess._send_seq), dict(sess._recv_seq)
    except Exception as e:
        return e


def run_probe(dealer, fault=None):
    """({role: probe's result}, wall seconds) of one session."""
    t0 = time.perf_counter()
    with dealer(fault) as make_fabric:
        got = run_pair_raw(make_fabric, {Role.P0: probe, Role.P1: probe})
    return got, time.perf_counter() - t0


def links(clean):
    """{(sender, receiver): frames} of a fault-free run: what the parties
    sent, and what each read from the dealer."""
    (_, sent0, read0), (_, sent1, read1) = clean[Role.P0], clean[Role.P1]
    return {(Role.P0, Role.P1): sent0[Role.P1], (Role.P0, Role.DEALER): sent0[Role.DEALER],
            (Role.P1, Role.P0): sent1[Role.P0], (Role.P1, Role.DEALER): sent1[Role.DEALER],
            (Role.DEALER, Role.P0): read0[Role.DEALER], (Role.DEALER, Role.P1): read1[Role.DEALER]}


def check_case(dealer, fault, want):
    """The problems of one faulty session: an untyped error, a wrong
    output, or an end later than the timeout plus MARGIN_S."""
    got, wall = run_probe(dealer, fault)
    problems = [f"{role.name}: {r!r}" for role, r in got.items()
                if isinstance(r, Exception) and not isinstance(r, TransportError)]
    if not any(isinstance(r, Exception) for r in got.values()) and got[Role.P0][0] != want:
        problems.append(f"wrong output {got[Role.P0][0]}")
    if wall > TIMEOUT_MS / 1000 + MARGIN_S:
        problems.append(f"ended after {wall:.2f} s")
    return [f"{fault}: {p}" for p in problems]


@pytest.fixture
def short_timeout(monkeypatch):
    monkeypatch.setenv("MPCNN_TIMEOUT_MS", str(TIMEOUT_MS))


def test_every_frame_fault_ends_typed_or_clean(short_timeout):
    # 29 frames: P0 sends 9 exchanges (przs setup, mul, gtz's mask and 5
    # AND levels, select) and 4 dealer requests (seed, mul, gtz, select);
    # P1 the same 9 exchanges, its seed request and the reveal; the dealer
    # answers both seed requests and P0's 3 others. Each is cut short, sent
    # twice, dropped and held back one frame in turn, 116 cases on 4 threads
    clean, _ = run_probe(inproc_with_dealer)
    want = clean[Role.P0][0]
    assert want == RingTensor(np.array([9, 0, 0, 25], dtype=np.uint64))
    frames = links(clean)
    assert [sum(n for (frm, _), n in frames.items() if frm is role) for role in Role] == [13, 11, 5]
    cases = [(frm, to, k, fault) for (frm, to), n in frames.items() for k in range(n) for fault in FAULTS]
    with ThreadPoolExecutor(4) as pool:
        problems = [p for ps in pool.map(lambda c: check_case(inproc_with_dealer, c, want), cases) for p in ps]
    assert problems == []


@pytest.mark.parametrize("sender", [Role.P0, Role.P1, Role.DEALER], ids=lambda r: r.name)
def test_frame_faults_over_tcp(short_timeout, sender):
    # each role's second frame to the other party (the dealer's: to P0)
    # carries the product's opening or its triple's correction
    to = Role.P0 if sender is not Role.P0 else Role.P1
    want = RingTensor(np.array([9, 0, 0, 25], dtype=np.uint64))
    problems = [p for fault in FAULTS for p in check_case(tcp_with_dealer, (sender, to, 1, fault), want)]
    assert problems == []


def test_truncated_seed_raises_dealer_error(short_timeout):
    got, _ = run_probe(inproc_with_dealer, (Role.DEALER, Role.P1, 0, "truncate"))
    assert isinstance(got[Role.P1], DealerError)
    assert "31 seed bytes for a request of 32" in str(got[Role.P1])
