"""LocalRuntime: per-session state is freed, the benchmark's self-test, its
tracer's hooks, and one inference of each benchmark network end to end."""

import os
import subprocess
import sys
import time

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


def import_bench():
    """The benchmark's modules, imported read-only from its directory."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import infer
    import tracing

    return infer, tracing


def test_tracer_hooks_resolve():
    # every name the benchmark's tracer wraps still exists, and traced
    # CompactCNN inferences reach them: their spans nest and cover the
    # inference, and the comparison op is seen. One untraced inference warms
    # the runtime first, and the tracer's coverage check takes the median of
    # three, as a benchmark run does over many.
    infer, tracing = import_bench()
    prep = infer.prepare("compactcnn", seed=5)

    def party_fns():
        return (infer.party_fn(prep.model, x=prep.inputs[0]),
                infer.party_fn(prep.model, weights=prep.weights))

    tracer, walls = tracing.Tracer(), {}
    with LocalRuntime() as rt:
        rt.run_session(*party_fns())
        tracer.install()
        try:
            for _ in range(3):
                sid = rt.new_session_id()
                t0 = time.perf_counter()
                rt.run_session(*map(tracer.party_root, party_fns()), session_id=sid)
                walls[sid] = (time.perf_counter() - t0) * 1e3
        finally:
            tracer.uninstall()
    metrics, problems = tracing.per_layer_metrics(tracing.aggregate(tracer.spans, walls), walls, walls)
    assert problems == []
    assert metrics["arith.gtz.calls_per_inf"] > 0


def one_benchmark_inference(model_name):
    """One inference of a benchmark network through LocalRuntime, with the
    benchmark's own preparation and checks, imported read-only. Returns
    (output, reference, bound, P0's ledger, check problems)."""
    infer, _ = import_bench()

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
