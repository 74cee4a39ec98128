"""LocalRuntime: per-session state is freed, the benchmark's self-test, and
one benchmark detector inference end to end."""

import os
import subprocess
import sys

import numpy as np

from mpcnn import arith
from mpcnn.ring import RingTensor
from mpcnn.runtime import LocalRuntime
from mpcnn.sharing import reveal, share_input
from mpcnn.transport import InProcFabric, Role

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "securebench")


def one_mul(ctx):
    x = RingTensor(np.arange(4, dtype=np.uint64))
    xs = share_input(ctx.przs, x if ctx.role is Role.P0 else None, Role.P0, x.shape)
    return reveal(ctx.session, arith.beaver_mul(ctx, xs, xs))


class TestSessionRelease:
    def test_finished_sessions_leave_no_state(self):
        with LocalRuntime() as rt:
            for _ in range(200):
                out = rt.run_session(one_mul, one_mul)
                assert out[Role.P0] == RingTensor(np.arange(4, dtype=np.uint64) ** 2)
            sessions = {sid for sid, _, _ in rt.hub._queues}
            assert sessions <= {InProcFabric.SERVICE}
            assert rt.dealer._served == {} and rt.dealer._send_seq == {}

    def test_rerequest_counted_after_release(self):
        def rerequest(ctx):
            one_mul(ctx)
            if ctx.role is Role.P0:
                ctx.triples.next_index -= 1
                ctx.triples.arith((4,))

        with LocalRuntime() as rt:
            rt.run_session(rerequest, rerequest)
            assert rt.dealer._served == {}
            assert rt.dealer.rerequest_count() == 1
            rt.run_session(one_mul, one_mul)
            assert rt.dealer.rerequest_count() == 1


def test_benchmark_selftest_passes():
    # every benchmark check, the dealer re-request check included, still trips
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def one_benchmark_inference(model_name):
    """One inference of a benchmark network through LocalRuntime, with the
    benchmark's own preparation and checks, imported read-only. Returns
    (output, reference, bound, P0's ledger, check problems)."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import infer

    prep = infer.prepare(model_name, seed=5)
    ref, bound, _ = prep.refs[0]
    with LocalRuntime() as rt:
        res = rt.run_session(infer.party_fn(prep.model, x=prep.inputs[0]),
                             infer.party_fn(prep.model, weights=prep.weights))
        (out, led0), (_, led1) = res[Role.P0], res[Role.P1]
        problems, _ = infer.check(model_name, out, ref, bound, led0, led1, None, rt.dealer.rerequest_count())
    return out, ref, bound, led0, problems


def test_detector_inference_end_to_end():
    # the output lies within the float64 reference's a-priori bound; the two
    # SiLU layers take 13 rounds each (5 convs, 2 x 13 SiLU, 2 x 9 max-pool,
    # 1 reveal); the five convs move their input-shaped masks (223,232 B)
    # from P0 and their weight-shaped masks (2,186,592 B) from P1
    out, ref, bound, led0, problems = one_benchmark_inference("detector")
    assert led0["rounds"] == 50
    assert led0["sent"] + led0["recv"] == 3_459_872
    assert problems == []
    assert np.all(np.abs(out - ref) <= bound)


def test_compactcnn_inference_end_to_end():
    # conv 1, ReLU 9, linear 1, reveal 1; the conv and the linear layer move
    # (384 + 32) words one way and (2048 + 64) the other
    out, ref, bound, led0, problems = one_benchmark_inference("compactcnn")
    assert led0["rounds"] == 12
    assert led0["sent"] + led0["recv"] == 1_123_800
    assert problems == []
    assert np.all(np.abs(out - ref) <= bound)
