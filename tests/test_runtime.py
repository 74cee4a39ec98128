"""LocalRuntime: per-session state is freed, the benchmark's self-test, its
tracer's hooks, and one inference of each benchmark network end to end."""

import os
import subprocess
import sys
import time

import numpy as np

from mpcnn import arith
from mpcnn.ring import RingTensor
from mpcnn.dealer import DealerService
from mpcnn.runtime import LocalRuntime
from mpcnn.sharing import reveal, share_input
from mpcnn.transport import SERVICE, InProcFabric, Mailbox, Role

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
            sessions = {sid for sid, _, _ in rt.mailbox._queues}
            assert sessions <= {SERVICE}
            assert rt.dealer._served == {}

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

    def test_close_joins_dealer_threads(self):
        rt = LocalRuntime()
        rt.run_session(one_mul, one_mul)
        threads = list(rt.dealer._threads)
        rt.close()
        assert len(threads) == 2 and not any(t.is_alive() for t in threads)
        # with its fabric still open, a service stops within one 0.2 s poll
        svc = DealerService(InProcFabric(Mailbox(), Role.DEALER)).start()
        t0 = time.perf_counter()
        svc.stop()
        assert time.perf_counter() - t0 < 1.0
        assert not any(t.is_alive() for t in svc._threads)


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


def gtz_bytes(n):
    """Bytes one party sends in a gtz on n elements: the masked word, and
    118 bit-ANDs per element, bit-sliced 64 elements to a word, each
    opening two words."""
    return 8 * n + 2 * 8 * 118 * -(-n // 64)


def select_bytes(n):
    """Bytes one party sends in a select on n elements: the masked word and
    the masked bit, packed 8 per byte."""
    return 8 * n + -(-n // 8)


def tag_bytes(led0):
    return {tag: (sent, recv, phases) for tag, sent, recv, phases in led0["tags"]}


def test_detector_inference_end_to_end():
    # the output lies within the float64 reference's a-priori bound. Rounds:
    # 5 convs, 2 SiLU layers at 12 (gtz 7, t 1, Chebyshev terms 3, select 1),
    # 2 max-pool levels at 8 (gtz 7, mux 1) and the reveal. Bytes: the five
    # convs move their input-shaped masks (223,232 B) from P0 and their
    # weight-shaped masks (2,186,592 B) from P1; each SiLU runs gtz and the
    # select on the 2 x 1,024 stacked [x + T, x - T] and 8 x 1,024 Beaver
    # products; the max-pool levels compare 512 and 256 pairs; P0 receives
    # the 8 x 8 x 8 head
    out, ref, bound, led0, problems = one_benchmark_inference("detector")
    silu = 2 * 1024
    assert tag_bytes(led0) == {
        "conv.open": (223_232, 2_186_592, 5),
        "gtz.mask": (8 * (2 * silu + 512 + 256),) * 2 + (4,),
        "gtz.and": (sum(gtz_bytes(n) - 8 * n for n in (silu, silu, 512, 256)),) * 2 + (24,),
        "mul.open": (2 * 16 * 8 * 1024,) * 2 + (8,),
        "select.open": (2 * select_bytes(silu),) * 2 + (2,),
        "mux.open": (select_bytes(512) + select_bytes(256),) * 2 + (2,),
        "reveal": (0, 8 * 512, 1),
    }
    assert led0["rounds"] == 5 + 2 * 12 + 2 * 8 + 1 == 46
    online = 223_232 + 2_186_592 + 2 * (2 * (gtz_bytes(silu) + 16 * 8 * 1024 + select_bytes(silu))
                                        + sum(gtz_bytes(n) + select_bytes(n) for n in (512, 256))) + 8 * 512
    assert led0["sent"] + led0["recv"] == online == 3_382_048
    assert problems == []
    assert np.all(np.abs(out - ref) <= bound)


def test_compactcnn_inference_end_to_end():
    # conv 1, ReLU 8 (gtz 7 on the 32 x 321 conv output, select 1), linear 1,
    # reveal 1; the conv and the linear layer move (384 + 32) words one way
    # and (2048 + 64) the other, and P0 receives the 2 logits
    out, ref, bound, led0, problems = one_benchmark_inference("compactcnn")
    n = 32 * 321
    assert tag_bytes(led0) == {
        "conv.open": (8 * 384, 8 * 2048, 1),
        "gtz.mask": (8 * n, 8 * n, 1),
        "gtz.and": (gtz_bytes(n) - 8 * n,) * 2 + (6,),
        "select.open": (select_bytes(n),) * 2 + (1,),
        "matmul.open": (8 * 32, 8 * 64, 1),
        "reveal": (0, 16, 1),
    }
    assert led0["rounds"] == 11
    online = 8 * (384 + 32 + 2048 + 64) + 2 * (gtz_bytes(n) + select_bytes(n)) + 16
    assert led0["sent"] + led0["recv"] == online == 959_448
    assert problems == []
    assert np.all(np.abs(out - ref) <= bound)
